//! Reusable gradient scratch buffers.
//!
//! The round hot path computes the same-shaped worker partial gradients
//! every iteration; allocating margins and accumulator vectors per round is
//! pure overhead. A [`GradScratch`] owns those buffers and is threaded
//! through the cluster backends — one per persistent worker thread on the
//! threaded backend, one per fill thread of the virtual backend's
//! unit-gradient table — so after the first round the hot path allocates
//! nothing.

use crate::loss::Loss;
use bcc_linalg::Matrix;

/// Element budget of one row block handed to the gradient kernel: 64 KiB of
/// `f64`, small enough that a block's second pass finds its rows in L2.
const BLOCK_F64: usize = 64 * 1024 / std::mem::size_of::<f64>();

/// Owned margins + partial-gradient buffers, reused across rounds.
#[derive(Debug, Default)]
pub struct GradScratch {
    /// Margin scratch handed to [`Loss::add_gradient_rows`].
    margins: Vec<f64>,
    /// Per-unit accumulator pool; only the first `blocks.len()` entries of a
    /// call are live, and capacity persists across calls.
    partials: Vec<Vec<f64>>,
}

impl GradScratch {
    /// Fresh scratch; buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes one worker's per-unit partial gradients at `w` over its
    /// unit row ranges of the shared `arena` block, reusing this scratch's
    /// buffers.
    ///
    /// Returns one gradient per range, in range order — exactly the
    /// `partials` argument scheme encoders expect. Bit-identical to the
    /// per-example path by the [`Loss::add_gradient_rows`] contract.
    pub fn worker_partials(
        &mut self,
        loss: &dyn Loss,
        x: &Matrix,
        y: &[f64],
        units: &[std::ops::Range<usize>],
        w: &[f64],
    ) -> &[Vec<f64>] {
        self.ensure_slots(units.len(), w.len());
        for (slot, rows) in units.iter().enumerate() {
            self.fill_partial(slot, loss, x, y, rows.clone(), w);
        }
        self.partials(units.len())
    }

    /// Sizes and zeroes the first `count` partial slots to `dim`.
    pub fn ensure_slots(&mut self, count: usize, dim: usize) {
        if self.partials.len() < count {
            self.partials.resize_with(count, Vec::new);
        }
        for acc in &mut self.partials[..count] {
            acc.clear();
            acc.resize(dim, 0.0);
        }
    }

    /// Accumulates the gradient of `arena` rows `rows` into slot `slot`
    /// (zeroed by [`GradScratch::ensure_slots`]).
    ///
    /// # Panics
    /// Panics when `slot` was not sized by a preceding `ensure_slots`.
    pub fn fill_partial(
        &mut self,
        slot: usize,
        loss: &dyn Loss,
        x: &Matrix,
        y: &[f64],
        rows: std::ops::Range<usize>,
        w: &[f64],
    ) {
        let mut acc = std::mem::take(&mut self.partials[slot]);
        self.accumulate_rows(loss, x, y, rows, w, &mut acc);
        self.partials[slot] = acc;
    }

    /// Accumulates the gradient of `arena` rows `rows` into the caller's
    /// `acc` (zeroed by the caller), using this scratch's margin buffer —
    /// the one gradient-kernel call site, shared by [`Self::fill_partial`]
    /// and by backends that keep their own per-unit storage.
    ///
    /// A range of more than 64 KiB of features goes to
    /// [`Loss::add_gradient_rows`] as consecutive blocks of B rows — the
    /// largest multiple of four rows within 64 KiB, never fewer than four
    /// (8 rows at dimension 1024) — so a blocked kernel's second pass over a
    /// block (margins, then accumulation) reads rows still in cache instead
    /// of streaming the whole unit from memory twice. Splitting a range into
    /// consecutive sub-ranges is bit-identical by that method's contract:
    /// margins and coefficients are per row, and every element still
    /// accumulates in example order. A range of at most four rows or at most
    /// 64 KiB takes a single call, with no division.
    pub fn accumulate_rows(
        &mut self,
        loss: &dyn Loss,
        x: &Matrix,
        y: &[f64],
        rows: std::ops::Range<usize>,
        w: &[f64],
        acc: &mut [f64],
    ) {
        if rows.len() <= 4 || rows.len() * x.cols() <= BLOCK_F64 {
            loss.add_gradient_rows(x, y, rows, w, &mut self.margins, acc);
            return;
        }
        // A multiple of four keeps the kernel's four-row margin blocks whole.
        let block = (BLOCK_F64 / x.cols() / 4 * 4).max(4);
        let mut start = rows.start;
        while start < rows.end {
            let end = rows.end.min(start + block);
            loss.add_gradient_rows(x, y, start..end, w, &mut self.margins, acc);
            start = end;
        }
    }

    /// Overwrites slot `slot` with an already-computed gradient (the
    /// memoized-unit path of the virtual backend).
    ///
    /// # Panics
    /// Panics when `slot` was not sized by a preceding `ensure_slots` or
    /// `src` has a different dimension.
    pub fn copy_partial_from(&mut self, slot: usize, src: &[f64]) {
        self.partials[slot].copy_from_slice(src);
    }

    /// Slot `slot`'s current contents.
    #[must_use]
    pub fn partial(&self, slot: usize) -> &[f64] {
        &self.partials[slot]
    }

    /// The first `count` partial slots, in order.
    #[must_use]
    pub fn partials(&self, count: usize) -> &[Vec<f64>] {
        &self.partials[..count]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::LogisticLoss;
    use bcc_data::{synthetic, Dataset};

    fn data() -> Dataset {
        synthetic::generate(&synthetic::SyntheticConfig::small(30, 5, 3)).dataset
    }

    #[test]
    fn partials_match_per_example_path() {
        let d = data();
        let w = vec![0.07; 5];
        let units = [0..10, 10..17];
        let mut scratch = GradScratch::new();
        let got: Vec<Vec<f64>> = scratch
            .worker_partials(&LogisticLoss, d.features(), d.labels(), &units, &w)
            .to_vec();
        for (rows, g) in units.iter().zip(&got) {
            let mut expect = vec![0.0; 5];
            for i in rows.clone() {
                crate::loss::Loss::add_gradient(&LogisticLoss, d.x(i), d.y(i), &w, &mut expect);
            }
            assert_eq!(g, &expect, "packed partial must equal per-example");
        }
    }

    #[test]
    fn scratch_reuse_is_stateless_across_calls() {
        let d = data();
        let w = vec![-0.02; 5];
        let big = [0..12, 12..24, 24..30];
        let small = std::slice::from_ref(&(3..9));
        let mut scratch = GradScratch::new();
        let fresh = GradScratch::new()
            .worker_partials(&LogisticLoss, d.features(), d.labels(), small, &w)
            .to_vec();
        // Dirty the scratch with a larger shape, then recompute the small one.
        let _ = scratch.worker_partials(&LogisticLoss, d.features(), d.labels(), &big, &w);
        let reused = scratch.worker_partials(&LogisticLoss, d.features(), d.labels(), small, &w);
        assert_eq!(reused.len(), 1);
        assert_eq!(reused, &fresh[..], "prior rounds must not leak state");
    }
}
