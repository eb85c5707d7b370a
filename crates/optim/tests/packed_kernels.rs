//! Property tests pinning the packed-kernel contract: blocked gradient
//! kernels must equal the per-example path **bit for bit**, across losses,
//! worker/unit counts, and uneven batch sizes. This is the invariant that
//! lets the cluster hot path stream the arena through blocked kernels without
//! perturbing a single Table I/II gradient.

use bcc_data::{synthetic, Dataset};
use bcc_optim::loss::{LogisticLoss, SquaredLoss};
use bcc_optim::{GradScratch, Loss};
use proptest::prelude::*;

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
    /// out-of-order) row sets.
    #[test]
    fn packed_kernels_bit_equal_per_example(
        m in 8usize..80,
        p in 1usize..40,
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
    /// `add_gradient` — the trait default must satisfy the same contract.
    #[test]
    fn default_block_impl_matches(
        m in 4usize..40,
        p in 1usize..20,
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
