//! Property tests pinning the packed-kernel contract: blocked gradient
//! kernels must equal the per-example path **bit for bit**, across losses,
//! worker/unit counts, and uneven batch sizes. This is the invariant that
//! lets the cluster hot path stream the arena through blocked kernels without
//! perturbing a single Table I/II gradient.

use bcc_data::{synthetic, Dataset};
use bcc_linalg::Matrix;
use bcc_optim::loss::{LogisticLoss, SquaredLoss};
use bcc_optim::{GradScratch, Loss};
use proptest::prelude::*;
use std::ops::Range;
use std::sync::Mutex;

/// Dataset with `m` examples of dimension `p` (moderate values).
fn dataset(m: usize, p: usize, seed: u64) -> Dataset {
    synthetic::generate(&synthetic::SyntheticConfig {
        num_examples: m,
        dim: p,
        separation: 1.5,
        seed,
    })
    .dataset
}

/// Reference: the per-example path over an index list.
fn per_example(loss: &dyn Loss, data: &Dataset, rows: &[usize], w: &[f64]) -> Vec<f64> {
    let mut acc = vec![0.0; w.len()];
    for &j in rows {
        loss.add_gradient(data.x(j), data.y(j), w, &mut acc);
    }
    acc
}

/// Packed path via the scratch-owned blocked kernel over `rows` gathered,
/// in order, into a matrix of their own.
fn packed(loss: &dyn Loss, data: &Dataset, rows: &[usize], w: &[f64]) -> Vec<f64> {
    let x = data.features().select_rows(rows).expect("rows in range");
    let y: Vec<f64> = rows.iter().map(|&j| data.y(j)).collect();
    let mut scratch = GradScratch::new();
    let full = 0..rows.len();
    scratch.worker_partials(loss, &x, &y, std::slice::from_ref(&full), w)[0].clone()
}

/// Dimensions whose rows span several 64 KiB kernel blocks, with a ragged
/// last block: 8 rows a block at 1024, 4 at 1031 and at 2053.
fn blocked_dims() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1024usize), Just(1031), Just(2053)]
}

/// Delegates to `inner` and logs every range `add_gradient_rows` receives.
struct Recording<'a> {
    inner: &'a dyn Loss,
    calls: Mutex<Vec<Range<usize>>>,
}

impl Loss for Recording<'_> {
    fn value(&self, x: &[f64], y: f64, w: &[f64]) -> f64 {
        self.inner.value(x, y, w)
    }
    fn add_gradient(&self, x: &[f64], y: f64, w: &[f64], out: &mut [f64]) {
        self.inner.add_gradient(x, y, w, out);
    }
    fn add_gradient_rows(
        &self,
        x: &Matrix,
        y: &[f64],
        rows: Range<usize>,
        w: &[f64],
        margins: &mut Vec<f64>,
        acc: &mut [f64],
    ) {
        self.calls.lock().unwrap().push(rows.clone());
        self.inner.add_gradient_rows(x, y, rows, w, margins, acc);
    }
}

/// The ranges `GradScratch` hands the kernel for one unit `unit` of an
/// `arena_rows × cols` arena, after checking the unit's gradient against
/// the per-example path bit for bit.
fn kernel_calls(arena_rows: usize, cols: usize, unit: Range<usize>) -> Vec<Range<usize>> {
    let x = Matrix::from_fn(arena_rows, cols, |i, j| {
        ((i * 31 + j * 7) as f64 * 0.013).sin()
    });
    let y: Vec<f64> = (0..arena_rows)
        .map(|i| if i % 3 == 0 { -1.0 } else { 1.0 })
        .collect();
    let w: Vec<f64> = (0..cols).map(|j| 0.02 * (j as f64 * 0.37).cos()).collect();
    let recording = Recording {
        inner: &LogisticLoss,
        calls: Mutex::new(Vec::new()),
    };
    let mut scratch = GradScratch::new();
    let got = &scratch.worker_partials(&recording, &x, &y, std::slice::from_ref(&unit), &w)[0];
    let mut expect = vec![0.0; cols];
    for i in unit {
        LogisticLoss.add_gradient(x.row(i), y[i], &w, &mut expect);
    }
    assert_bitwise_eq(got, &expect, "recorded unit");
    recording.calls.into_inner().unwrap()
}

/// A unit larger than 64 KiB reaches the kernel as consecutive ranges that
/// tile it in order, each at most B = 8 rows at dimension 1024 (8 KiB rows),
/// so a block's second pass reads rows still in cache.
#[test]
fn large_units_reach_the_kernel_in_cache_sized_blocks() {
    const B: usize = 8;
    for unit in [0..200, 7..207, 3..12] {
        let calls = kernel_calls(210, 1024, unit.clone());
        assert!(calls.len() > 1, "{unit:?} must be split, got {calls:?}");
        assert_eq!(calls[0].start, unit.start, "{unit:?}: first block");
        assert_eq!(calls.last().unwrap().end, unit.end, "{unit:?}: last block");
        for pair in calls.windows(2) {
            assert_eq!(
                pair[0].end, pair[1].start,
                "{unit:?}: blocks must tile in order"
            );
        }
        for block in &calls {
            assert!(
                !block.is_empty() && block.len() <= B,
                "{unit:?}: block {block:?} exceeds {B} rows"
            );
        }
        for block in &calls[..calls.len() - 1] {
            assert_eq!(
                block.len() % 4,
                0,
                "{unit:?}: block {block:?} splits a 4-row group"
            );
        }
    }
    assert_eq!(kernel_calls(210, 1024, 0..200).len(), 25);
    // 8 × 1024 is exactly the 64 KiB budget: one call.
    assert_eq!(kernel_calls(210, 1024, 5..13), vec![5..13]);
}

/// Every unit of at most four rows or 64 KiB — among them the units of the
/// benchmark's other four workloads — reaches the kernel as one call of the
/// whole range.
#[test]
fn small_units_take_one_kernel_call() {
    for (rows, cols) in [
        (2, 131_072),
        (2, 32),
        (4, 32),
        (4, 16),
        (256, 32),
        (1, 9000),
    ] {
        let unit = 1..1 + rows;
        assert_eq!(
            kernel_calls(rows + 2, cols, unit.clone()),
            vec![unit],
            "{rows} x {cols} must take one call"
        );
    }
}

fn assert_bitwise_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: component {i} differs ({x} vs {y})"
        );
    }
}

proptest! {
    /// Packed == per-example, bit for bit, for both concrete losses over
    /// random shapes — dimensions straddling the 4-lane and 8-wide tile
    /// boundaries, uneven block sizes, scattered (non-contiguous,
    /// out-of-order) row sets, and rows large enough that `GradScratch`
    /// splits the range into several cache-sized blocks.
    #[test]
    fn packed_kernels_bit_equal_per_example(
        m in 8usize..80,
        p in prop_oneof![1usize..40, blocked_dims()],
        seed in 0u64..1_000,
        wscale in -2.0..2.0f64,
    ) {
        let data = dataset(m, p, seed);
        let w: Vec<f64> = (0..p).map(|k| wscale * ((k as f64 * 0.7).sin() + 0.1)).collect();
        // Scattered, out-of-order, duplicate-free subset of rows.
        let rows: Vec<usize> = (0..m).filter(|j| !(j * 7 + seed as usize).is_multiple_of(3)).rev().collect();
        for (name, loss) in [
            ("logistic", &LogisticLoss as &dyn Loss),
            ("squared", &SquaredLoss as &dyn Loss),
        ] {
            let a = per_example(loss, &data, &rows, &w);
            let b = packed(loss, &data, &rows, &w);
            assert_bitwise_eq(&a, &b, name);
        }
    }

    /// Worker-shaped partials: several uneven blocks per worker, computed
    /// through one reused scratch, still bit-equal per block.
    #[test]
    fn multi_block_workers_bit_equal(
        workers in 1usize..6,
        p in 2usize..34,
        seed in 0u64..500,
    ) {
        let m = 60;
        let data = dataset(m, p, seed);
        let w: Vec<f64> = (0..p).map(|k| 0.05 * (k as f64 + 1.0).cos()).collect();
        let mut scratch = GradScratch::new();
        for worker in 0..workers {
            // Uneven split: unit b has (b+1)·(worker+1) rows, capped —
            // ranges straight into the dataset (the zero-copy arena case).
            let mut start = worker * 3;
            let mut ranges = Vec::new();
            for b in 0..3 {
                let len = ((b + 1) * (worker + 1)).min(m - start);
                ranges.push(start..start + len);
                start += len;
            }
            let got = scratch
                .worker_partials(&LogisticLoss, data.features(), data.labels(), &ranges, &w)
                .to_vec();
            for (g, rows) in got.iter().zip(&ranges) {
                let rows: Vec<usize> = rows.clone().collect();
                let expect = per_example(&LogisticLoss, &data, &rows, &w);
                assert_bitwise_eq(g, &expect, "worker partial");
            }
        }
    }

    /// The default (per-example) trait implementation and the specialized
    /// blocked ones agree for a custom loss that only defines
    /// `add_gradient` — the trait default must satisfy the same contract,
    /// also when `GradScratch` hands it a range in several blocks.
    #[test]
    fn default_block_impl_matches(
        m in 4usize..40,
        p in prop_oneof![1usize..20, blocked_dims()],
        seed in 0u64..200,
    ) {
        /// Loss with only the per-example methods (exercises the default
        /// `add_gradient_rows`).
        #[derive(Debug)]
        struct Hinge;
        impl Loss for Hinge {
            fn value(&self, x: &[f64], y: f64, w: &[f64]) -> f64 {
                (1.0 - y * bcc_linalg::vec_ops::dot(x, w)).max(0.0)
            }
            fn add_gradient(&self, x: &[f64], y: f64, w: &[f64], out: &mut [f64]) {
                if y * bcc_linalg::vec_ops::dot(x, w) < 1.0 {
                    bcc_linalg::vec_ops::axpy(-y, x, out);
                }
            }
        }
        let data = dataset(m, p, seed);
        let w = vec![0.1; p];
        let rows: Vec<usize> = (0..m).collect();
        let a = per_example(&Hinge, &data, &rows, &w);
        let b = packed(&Hinge, &data, &rows, &w);
        assert_bitwise_eq(&a, &b, "default impl");
    }
}
