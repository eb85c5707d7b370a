//! Cross-backend equivalence: the shared [`RoundEngine`] makes the threaded
//! and virtual backends two transports for *one* protocol, so the same
//! `(seed, scheme, ClusterProfile)` triple must produce byte-identical
//! decoded gradient sums and identical message/load accounting on both.
//!
//! Both backends draw each worker's compute time from the same
//! `(seed, round, worker)` latency stream and feed the same decoder, so the
//! only way they can diverge is arrival *order*. The virtual backend orders
//! arrivals exactly by sampled finish time; the threaded backend orders them
//! by real sleeps, which tracks the sampled times only up to OS scheduling
//! jitter. The profiles here therefore use a deterministic "staircase" of
//! per-worker shifts (gaps ≫ jitter, negligible exponential tail) so the
//! wall-clock order is unambiguous — under which the engine guarantees the
//! two backends are indistinguishable, which is exactly what this test pins.
//!
//! [`RoundEngine`]: bcc_cluster::RoundEngine

use bcc_cluster::backend::FixedPointDriver;
use bcc_cluster::{
    ClusterBackend, ClusterProfile, CommModel, RoundOutcome, ThreadedCluster, UnitMap,
    VirtualCluster, WorkerProfile,
};
use bcc_coding::{BccScheme, GradientCodingScheme, UncodedScheme};
use bcc_data::synthetic::{generate, SyntheticConfig};
use bcc_optim::LogisticLoss;

/// A staircase profile: worker `i`'s compute time is dominated by the
/// deterministic shift `shifts[i]·load`, with a microsecond-scale
/// exponential tail (`μ = 10⁴`), so arrival order is fixed by construction.
fn staircase_profile(shifts: &[f64]) -> ClusterProfile {
    ClusterProfile {
        workers: shifts
            .iter()
            .map(|&a| WorkerProfile { mu: 1e4, a })
            .collect(),
        comm: CommModel {
            per_message_overhead: 0.001,
            per_unit: 0.001,
        },
    }
}

/// Runs one round on both backends and asserts byte-identical outcomes.
fn assert_equivalent_round(
    scheme: &dyn GradientCodingScheme,
    profile: &ClusterProfile,
    units: &UnitMap,
    seed: u64,
) {
    let data = generate(&SyntheticConfig::small(units.num_examples(), 4, seed));
    let w = vec![0.05; 4];

    let mut virtual_cluster = VirtualCluster::new(profile.clone(), seed);
    let virtual_out = virtual_cluster
        .run_round(scheme, units, &data.dataset, &LogisticLoss, &w)
        .expect("virtual round completes");

    // time_scale 1.0: simulated seconds are real seconds, so the staircase
    // gaps (≥ 10 ms) dwarf scheduler jitter.
    let mut threaded_cluster = ThreadedCluster::new(profile.clone(), seed, 1.0);
    let threaded_out = threaded_cluster
        .run_round(scheme, units, &data.dataset, &LogisticLoss, &w)
        .expect("threaded round completes");

    assert_outcomes_match(&virtual_out, &threaded_out);
}

fn assert_outcomes_match(virtual_out: &RoundOutcome, threaded_out: &RoundOutcome) {
    assert_eq!(
        virtual_out.metrics.messages_used, threaded_out.metrics.messages_used,
        "both backends must consume the same number of messages"
    );
    assert_eq!(
        virtual_out.metrics.communication_units, threaded_out.metrics.communication_units,
        "identical message sets ⇒ identical communication load"
    );
    assert_eq!(
        virtual_out.metrics.compute_time.to_bits(),
        threaded_out.metrics.compute_time.to_bits(),
        "both backends sample the same per-worker latency stream"
    );
    assert_eq!(
        virtual_out.gradient_sum.len(),
        threaded_out.gradient_sum.len()
    );
    for (i, (a, b)) in virtual_out
        .gradient_sum
        .iter()
        .zip(&threaded_out.gradient_sum)
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "gradient component {i} differs: {a} vs {b}"
        );
    }
}

#[test]
fn uncoded_round_is_backend_invariant() {
    // 5 workers finishing in the scrambled order 1, 3, 4, 2, 0.
    let profile = staircase_profile(&[0.025, 0.005, 0.020, 0.010, 0.015]);
    let units = UnitMap::grouped(30, 10);
    let scheme = UncodedScheme::new(10, 5);
    assert_equivalent_round(&scheme, &profile, &units, 41);
}

#[test]
fn bcc_round_is_backend_invariant() {
    // 10 workers over 5 BCC batches (two choices per batch): the round
    // completes mid-stream once every batch is covered, so this exercises
    // early stopping, not just wait-for-all.
    let shifts: Vec<f64> = (0..10)
        .map(|i| 0.005 * (((i * 7) % 10) + 1) as f64)
        .collect();
    let profile = staircase_profile(&shifts);
    let units = UnitMap::grouped(40, 10);
    let scheme = BccScheme::from_choices(10, 2, vec![0, 1, 2, 3, 4, 4, 3, 2, 1, 0]);
    assert_equivalent_round(&scheme, &profile, &units, 43);
}

#[test]
fn batched_runs_stay_equivalent_across_rounds() {
    // Per-round latency streams are keyed on the global round id, so
    // equivalence must survive consecutive rounds of run_rounds too.
    let profile = staircase_profile(&[0.020, 0.005, 0.015, 0.010]);
    let units = UnitMap::grouped(24, 8);
    let scheme = UncodedScheme::new(8, 4);
    let data = generate(&SyntheticConfig::small(24, 4, 47));
    let rounds = 3;

    let mut virtual_driver = FixedPointDriver::new(vec![0.1; 4]);
    VirtualCluster::new(profile.clone(), 47)
        .run_rounds(
            rounds,
            &scheme,
            &units,
            &data.dataset,
            &LogisticLoss,
            &mut virtual_driver,
        )
        .expect("virtual run completes");

    let mut threaded_driver = FixedPointDriver::new(vec![0.1; 4]);
    ThreadedCluster::new(profile, 47, 1.0)
        .run_rounds(
            rounds,
            &scheme,
            &units,
            &data.dataset,
            &LogisticLoss,
            &mut threaded_driver,
        )
        .expect("threaded run completes");

    assert_eq!(virtual_driver.outcomes.len(), rounds);
    assert_eq!(threaded_driver.outcomes.len(), rounds);
    for (v, t) in virtual_driver
        .outcomes
        .iter()
        .zip(&threaded_driver.outcomes)
    {
        assert_outcomes_match(v, t);
    }
    // And the rounds genuinely resampled: compute times differ round-over-round.
    assert_ne!(
        virtual_driver.outcomes[0].metrics.compute_time,
        virtual_driver.outcomes[1].metrics.compute_time,
    );
}

#[test]
fn bcc_run_above_the_parallel_fill_threshold_is_backend_invariant() {
    // Dimension 1024, 8 units of 80 rows in two batches of 4: each row
    // reads 4 × 80 × 1024 ≥ 2¹⁸ feature elements, so the virtual backend
    // fills a batch's units on several cores of a multi-core host while
    // the threaded backend computes every worker's row on its own thread.
    // Workers 0 and 2 share batch 0 and finish first.
    let profile = staircase_profile(&[0.005, 0.015, 0.010, 0.020, 0.025, 0.030]);
    let units = UnitMap::grouped(640, 8);
    let scheme = BccScheme::from_choices(8, 4, vec![0, 1, 0, 1, 1, 0]);
    let data = generate(&SyntheticConfig {
        num_examples: 640,
        dim: 1024,
        separation: 1.5,
        seed: 53,
    });
    let w: Vec<f64> = (0..1024).map(|j| 0.01 * (j as f64 * 0.3).cos()).collect();
    let rounds = 2;
    let mut virtual_driver = FixedPointDriver::new(w.clone());
    VirtualCluster::new(profile.clone(), 53)
        .run_rounds(
            rounds,
            &scheme,
            &units,
            &data.dataset,
            &LogisticLoss,
            &mut virtual_driver,
        )
        .expect("virtual run completes");
    let mut threaded_driver = FixedPointDriver::new(w);
    ThreadedCluster::new(profile, 53, 1.0)
        .run_rounds(
            rounds,
            &scheme,
            &units,
            &data.dataset,
            &LogisticLoss,
            &mut threaded_driver,
        )
        .expect("threaded run completes");
    assert_eq!(virtual_driver.outcomes.len(), rounds);
    assert_eq!(threaded_driver.outcomes.len(), rounds);
    for (v, t) in virtual_driver
        .outcomes
        .iter()
        .zip(&threaded_driver.outcomes)
    {
        assert_eq!(v.metrics.messages_used, 3, "both batches plus one repeat");
        assert_outcomes_match(v, t);
    }
}
