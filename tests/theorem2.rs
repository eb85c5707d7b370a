//! Integration check of Theorem 2 (heterogeneous clusters): the sandwich
//! `min E[T̂(m)] ≤ min_G E[T] ≤ min E[T̂(⌊c·m·log m⌋)] + 1` holds around the
//! generalized-BCC rounds of the engine, and the Fig. 5 gain materializes.

use bcc::cluster::ClusterProfile;
use bcc::core::hetero::{self, coverage_budget, expected_t_hat, optimal_loads, theorem2_bounds};
use bcc::core::{DataSpec, Experiment, LatencySpec, OptimizerSpec, SchemeSpec};

const M: usize = 500;

/// Mean coverage time of `scheme` (a name of `hetero::schemes`) on the
/// Fig. 5 cluster — its link is free, so a round's time is its coverage
/// time — over `rounds` engine rounds on each of `placements` seeds.
fn mean_coverage_time(scheme: &str, placements: u64, rounds: usize, seed: u64) -> f64 {
    let profile = ClusterProfile::fig5_heterogeneous();
    let total: f64 = (0..placements)
        .map(|placement| {
            let report = Experiment::builder()
                .workers(profile.num_workers())
                .units(M)
                .scheme(SchemeSpec::named(scheme))
                .data(DataSpec::synthetic(1, 2))
                .latency(LatencySpec::Fig5Heterogeneous)
                .optimizer(OptimizerSpec::FixedPoint)
                .iterations(rounds)
                .seed(seed + placement)
                .registry(hetero::schemes(&profile))
                .build()
                .expect("a valid Fig. 5 spec")
                .run()
                .expect("rounds of a covering placement complete");
            assert!(report.round_samples.iter().all(|s| s.exact), "{scheme}");
            report.metrics.total_time
        })
        .sum();
    total / (placements as usize * rounds) as f64
}

#[test]
fn sandwich_holds_around_gbcc() {
    let bounds = theorem2_bounds(&ClusterProfile::fig5_heterogeneous().workers, M, 200, 11);
    assert!(bounds.lower < bounds.upper, "degenerate sandwich");

    let gbcc = mean_coverage_time("generalized-bcc", 5, 30, 13);
    assert!(
        bounds.lower <= gbcc * 1.02,
        "lower bound {} above achievable {gbcc}",
        bounds.lower
    );
    assert!(
        gbcc <= bounds.upper * 1.05,
        "achievable {gbcc} above upper bound {}",
        bounds.upper
    );
}

#[test]
fn fig5_gain_in_paper_band() {
    let gbcc = mean_coverage_time("generalized-bcc", 10, 30, 21);
    let lb = mean_coverage_time("load-balanced", 10, 30, 21);
    let reduction = (1.0 - gbcc / lb) * 100.0;
    // Paper: 29.28%. Accept a generous band — the shape, not the digit.
    assert!(
        (15.0..45.0).contains(&reduction),
        "reduction {reduction}% outside the paper's ballpark"
    );
}

#[test]
fn lemma1_monotonicity_of_waiting_time() {
    let workers = ClusterProfile::fig5_heterogeneous().workers;
    let loads = vec![32; 100];
    let mut prev = 0.0;
    for s in [500, 1000, 2000, 3000] {
        let e = expected_t_hat(&workers, &loads, s, 200, 31);
        assert!(
            e >= prev,
            "E[T̂({s})] = {e} decreased below {prev} — violates Lemma 1"
        );
        prev = e;
    }
}

#[test]
fn p2_loads_beat_naive_uniform_for_t_hat() {
    // The P2 solution should reach the budget sooner (or as soon) in
    // expectation than a uniform split of the same total storage.
    let workers = ClusterProfile::fig5_heterogeneous().workers;
    let s = coverage_budget(M);
    let sol = optimal_loads(&workers, s, M);
    let total: usize = sol.loads.iter().sum();
    let uniform = vec![total / workers.len(); workers.len()];

    let e_opt = expected_t_hat(&workers, &sol.loads, s, 300, 41);
    let e_uni = expected_t_hat(&workers, &uniform, s, 300, 41);
    assert!(
        e_opt <= e_uni * 1.02,
        "P2 loads ({e_opt}) should not lose to uniform ({e_uni})"
    );
}
