//! [`FastestK`]'s coverage rescale is **unbiased in expectation** on the
//! uncoded scheme: averaged over every equally-likely "fastest k" worker
//! set, the rescaled partial gradient equals the exact sum.
//!
//! Why this is exact (not just approximate): under i.i.d. compute times
//! the fastest-`k` set is a uniformly random `k`-subset of the `n` equal
//! shards, so each shard is covered with probability `k/n`, and the
//! coverage rescale `total/covered = n/k` is precisely inverse-probability
//! (Horvitz–Thompson) weighting. The test enumerates **all** `C(n, k)`
//! subsets — a finite expectation, checked to float tolerance — rather
//! than sampling, so a biased estimator cannot hide behind Monte-Carlo
//! noise.

use bcc_cluster::{AggregationPolicy, FastestK, RoundView};
use bcc_coding::scheme::test_support::{random_gradients, total_sum, worker_partials};
use bcc_coding::{GradientCodingScheme, UncodedScheme};
use proptest::prelude::*;

/// The FastestK estimate for one realized "fastest k" worker set.
fn estimate(scheme: &UncodedScheme, grads: &[Vec<f64>], subset: &[usize], k: usize) -> Vec<f64> {
    let mut dec = scheme.decoder();
    for &w in subset {
        let partials = worker_partials(scheme.placement(), w, grads);
        dec.receive(w, scheme.encode(w, &partials).expect("encode"))
            .expect("receive");
    }
    let view = RoundView {
        decoder: &*dec,
        live_participants: scheme.num_workers(),
        now: 0.0,
    };
    let agg = FastestK::new(k).finish(&view).expect("partial finish");
    assert_eq!(agg.exact, subset.len() == scheme.num_workers());
    agg.gradient_sum
}

/// Every `k`-subset of `0..n`, by bitmask (n ≤ 12 in the strategy below).
fn k_subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    (0u32..(1 << n))
        .filter(|mask| mask.count_ones() as usize == k)
        .map(|mask| (0..n).filter(|i| mask >> i & 1 == 1).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fastest_k_rescale_is_unbiased_over_arrival_orders(
        n in 2usize..7,
        units_per_shard in 1usize..4,
        k_offset in 0usize..6,
        p in 1usize..5,
        seed in 0u64..1000,
    ) {
        // Equal shards: m = n · units_per_shard units over n workers, so
        // every message covers the same unit count and the coverage
        // rescale is exactly inverse-probability weighting.
        let m = n * units_per_shard;
        let k = 1 + k_offset % n;
        let scheme = UncodedScheme::new(m, n);
        let grads = random_gradients(m, p, seed);
        let exact = total_sum(&grads);

        let subsets = k_subsets(n, k);
        let mut mean = vec![0.0f64; p];
        for subset in &subsets {
            let est = estimate(&scheme, &grads, subset, k);
            prop_assert_eq!(est.len(), p);
            for (acc, x) in mean.iter_mut().zip(&est) {
                *acc += x / subsets.len() as f64;
            }
        }
        for (i, (avg, want)) in mean.iter().zip(&exact).enumerate() {
            prop_assert!(
                (avg - want).abs() <= 1e-9 * want.abs().max(1.0),
                "component {}: E[estimate] = {} but exact sum = {} (n={}, k={}, m={})",
                i, avg, want, n, k, m
            );
        }
    }

    #[test]
    fn fastest_k_single_subset_is_generally_biased_but_scaled_right(
        n in 3usize..7,
        p in 1usize..4,
        seed in 0u64..1000,
    ) {
        // Sanity bound on the estimator itself: a single subset's estimate
        // is the covered sum scaled by exactly n/k (equal shards, k = 1).
        let scheme = UncodedScheme::new(n, n);
        let grads = random_gradients(n, p, seed);
        for w in 0..n {
            let est = estimate(&scheme, &grads, &[w], 1);
            for (x, g) in est.iter().zip(&grads[w]) {
                prop_assert!((x - g * n as f64).abs() <= 1e-12 * g.abs().max(1.0) * n as f64);
            }
        }
    }
}
