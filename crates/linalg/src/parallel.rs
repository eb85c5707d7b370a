//! The thread budget, and the master's parallel weighted sum.
//!
//! The workloads use data parallelism in three places, all under a
//! [`Parallelism`] budget and all bit-identical at every thread count:
//! the master's weighted sum of received vectors, split across columns
//! ([`par_weighted_sum`], here); the virtual backend's per-round
//! unit-gradient table, whose unfilled entries are split across cores
//! (`bcc_cluster::packed::UnitGradientCache::fill`); and the synthetic
//! data generator, whose rows are split into contiguous runs, each example
//! drawn from its own stream (`bcc_data::synthetic::generate_rows`).
//! [`Parallelism::available`] is the one place the host's core count is
//! read. Scoped threads keep borrows simple (no `Arc`), per the Rust
//! Atomics & Locks guidance, and avoid pulling in a full work-stealing
//! runtime.

use std::num::NonZeroUsize;

/// Degree of parallelism: a thread budget.
///
/// Defaults to the machine's available parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism(NonZeroUsize);

impl Parallelism {
    /// Uses up to `n` threads.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    #[must_use]
    pub fn threads(n: usize) -> Self {
        Self(NonZeroUsize::new(n).expect("parallelism must be non-zero"))
    }

    /// Single-threaded execution (useful for deterministic tests).
    #[must_use]
    pub fn sequential() -> Self {
        Self::threads(1)
    }

    /// Available hardware parallelism, falling back to 1.
    #[must_use]
    pub fn available() -> Self {
        Self(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// Thread count.
    #[must_use]
    pub fn get(self) -> usize {
        self.0.get()
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::available()
    }
}

/// Columns per work item of [`par_weighted_sum`]. Fixed (never derived from
/// the thread count) so the work decomposition — and therefore the output —
/// is a function of the input shape alone.
const WEIGHTED_SUM_COL_CHUNK: usize = 1024;

/// Minimum `terms × dim` below which [`par_weighted_sum`] stays serial:
/// under ~64k multiply-adds the reduction finishes faster than threads
/// spawn. Purely a scheduling threshold — both paths produce identical bits.
const WEIGHTED_SUM_MIN_WORK: usize = 1 << 16;

/// Weighted sum `Σ cᵢ·vᵢ` over equal-length vectors, parallelized across
/// **columns** with a work-stealing claim over fixed-size column chunks.
///
/// Bit-for-bit identical to the serial left folds in
/// [`vec_ops`](crate::vec_ops) regardless of the thread count, because every
/// output element is produced by the exact serial recurrence
///
/// ```text
/// out[k] = c₀·v₀[k];  out[k] = vᵢ[k].mul_add(cᵢ, out[k])  for i = 1, 2, …
/// ```
///
/// — the element order [`vec_ops::linear_combination`](crate::vec_ops::linear_combination)
/// uses, and (at `cᵢ = 1`) the order
/// [`vec_ops::sum_vectors`](crate::vec_ops::sum_vectors) uses, since `1·x == x` and
/// `x.mul_add(1, y) == x + y` exactly in IEEE 754. Column partitioning never
/// splits an element's accumulation chain, so chunk boundaries and thread
/// scheduling cannot perturb a single bit.
///
/// Returns `None` when `terms` is empty (an empty sum has no dimension).
///
/// # Panics
/// Panics when the term vectors have different lengths.
#[must_use]
pub fn par_weighted_sum(par: Parallelism, terms: &[(f64, &[f64])]) -> Option<Vec<f64>> {
    let (_, first) = terms.first()?;
    let dim = first.len();
    for (_, v) in terms {
        assert_eq!(v.len(), dim, "par_weighted_sum: length mismatch");
    }
    let chunks = dim.div_ceil(WEIGHTED_SUM_COL_CHUNK).max(1);
    let threads = par.get().min(chunks);
    if threads <= 1 || terms.len() * dim < WEIGHTED_SUM_MIN_WORK {
        let mut out = vec![0.0; dim];
        weighted_sum_columns(terms, 0..dim, &mut out);
        return Some(out);
    }

    // Work stealing: threads claim chunk indices from a shared counter, so
    // an unlucky thread (preempted, slow core) cannot stall the reduction.
    // Results are keyed by chunk index and reassembled in column order;
    // which thread computed a chunk is unobservable in the output.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut out = vec![0.0; dim];
    let mut parts: Vec<Option<Vec<f64>>> = Vec::new();
    parts.resize_with(chunks, || None);
    crossbeam::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next = &next;
            handles.push(s.spawn(move |_| {
                let mut mine = Vec::new();
                loop {
                    let ci = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if ci >= chunks {
                        break;
                    }
                    let lo = ci * WEIGHTED_SUM_COL_CHUNK;
                    let hi = (lo + WEIGHTED_SUM_COL_CHUNK).min(dim);
                    let mut part = vec![0.0; hi - lo];
                    weighted_sum_columns(terms, lo..hi, &mut part);
                    mine.push((ci, part));
                }
                mine
            }));
        }
        for h in handles {
            for (ci, part) in h.join().expect("weighted-sum worker panicked") {
                parts[ci] = Some(part);
            }
        }
    })
    .expect("crossbeam scope failed");
    for (ci, part) in parts.into_iter().enumerate() {
        let part = part.expect("every chunk claimed exactly once");
        let lo = ci * WEIGHTED_SUM_COL_CHUNK;
        out[lo..lo + part.len()].copy_from_slice(&part);
    }
    Some(out)
}

/// The serial recurrence of [`par_weighted_sum`] over columns `cols`,
/// writing into `out` (whose length equals the column range). Terms sweep
/// the chunk one at a time — the same streaming access pattern as the
/// serial fold, restricted to a cache-resident column window.
fn weighted_sum_columns(terms: &[(f64, &[f64])], cols: std::ops::Range<usize>, out: &mut [f64]) {
    let (c0, v0) = terms[0];
    for (o, x) in out.iter_mut().zip(&v0[cols.clone()]) {
        *o = c0 * x;
    }
    for &(c, v) in &terms[1..] {
        for (o, x) in out.iter_mut().zip(&v[cols.clone()]) {
            *o = x.mul_add(c, *o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_constructors() {
        assert_eq!(Parallelism::sequential().get(), 1);
        assert_eq!(Parallelism::threads(4).get(), 4);
        assert!(Parallelism::available().get() >= 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_parallelism_panics() {
        let _ = Parallelism::threads(0);
    }

    /// Deterministic but irregular test vectors (golden-ratio hashing), so
    /// sums exercise real rounding.
    fn test_terms(n: usize, dim: usize) -> Vec<(f64, Vec<f64>)> {
        (0..n)
            .map(|i| {
                let c = 0.25 + ((i * 37) % 11) as f64 * 0.125;
                let v = (0..dim)
                    .map(|k| {
                        let h = (i * 1_000_003 + k).wrapping_mul(0x9E37_79B9) % 10_007;
                        (h as f64 - 5_003.0) * 1e-3
                    })
                    .collect();
                (c, v)
            })
            .collect()
    }

    fn as_refs(terms: &[(f64, Vec<f64>)]) -> Vec<(f64, &[f64])> {
        terms.iter().map(|(c, v)| (*c, v.as_slice())).collect()
    }

    #[test]
    fn weighted_sum_empty_is_none() {
        assert!(par_weighted_sum(Parallelism::threads(4), &[]).is_none());
    }

    #[test]
    fn weighted_sum_matches_linear_combination_bit_for_bit() {
        // Large enough to cross the serial threshold and span many column
        // chunks at every thread count.
        let terms = test_terms(40, 5_000);
        let refs = as_refs(&terms);
        let serial = crate::vec_ops::linear_combination(refs.iter().copied()).unwrap();
        for threads in [1, 2, 3, 8] {
            let par = par_weighted_sum(Parallelism::threads(threads), &refs).unwrap();
            assert_eq!(par.len(), serial.len());
            for (k, (a, b)) in par.iter().zip(&serial).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "threads={threads}, column {k}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn unit_coefficients_match_sum_vectors_bit_for_bit() {
        let terms: Vec<(f64, Vec<f64>)> = test_terms(30, 4_096)
            .into_iter()
            .map(|(_, v)| (1.0, v))
            .collect();
        let refs = as_refs(&terms);
        let serial = crate::vec_ops::sum_vectors(terms.iter().map(|(_, v)| v.as_slice())).unwrap();
        let par = par_weighted_sum(Parallelism::threads(8), &refs).unwrap();
        for (k, (a, b)) in par.iter().zip(&serial).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "column {k}");
        }
    }

    #[test]
    fn small_inputs_stay_serial_and_correct() {
        let terms = test_terms(3, 7);
        let refs = as_refs(&terms);
        let serial = crate::vec_ops::linear_combination(refs.iter().copied()).unwrap();
        let par = par_weighted_sum(Parallelism::threads(8), &refs).unwrap();
        assert_eq!(par, serial);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn weighted_sum_length_mismatch_panics() {
        let a = [1.0, 2.0];
        let b = [1.0];
        let _ = par_weighted_sum(
            Parallelism::threads(2),
            &[(1.0, a.as_slice()), (1.0, b.as_slice())],
        );
    }
}
