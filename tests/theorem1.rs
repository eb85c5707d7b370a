//! Integration check of Theorem 1: the BCC scheme's *measured* recovery
//! threshold and communication load match `⌈m/r⌉·H_{⌈m/r⌉}`, sandwiched
//! between the `m/r` lower bound and the paper's upper bound.

use bcc::cluster::{ClusterBackend, ClusterProfile, CommModel, UnitMap, VirtualCluster};
use bcc::core::{theory, SchemeRegistry, SchemeSpec};
use bcc::data::synthetic::{generate, SyntheticConfig};
use bcc::optim::LogisticLoss;
use bcc::stats::rng::derive_rng;

/// Measures BCC's average messages/units over many independent rounds with
/// re-randomized placements (each round a fresh decentralized selection, so
/// the average estimates E[|W|] over both placement and straggler draws).
fn measure_bcc(m: usize, n: usize, r: usize, rounds: usize) -> (f64, f64) {
    let data = generate(&SyntheticConfig::small(m, 4, 1));
    let units = UnitMap::identity(m);
    let profile = ClusterProfile::homogeneous(
        n,
        5.0,
        0.001,
        CommModel {
            per_message_overhead: 0.001,
            per_unit: 0.002,
        },
    );
    let w = vec![0.0; 4];
    let mut messages = 0usize;
    let mut comm_units = 0usize;
    let mut rng = derive_rng(3, 9);
    let (schemes, bcc) = (SchemeRegistry::builtin(), SchemeSpec::with_load("bcc", r));
    for round in 0..rounds {
        let scheme = schemes
            .build(&bcc, m, n, &mut rng)
            .expect("covering BCC placement");
        let mut cluster = VirtualCluster::new(profile.clone(), round as u64);
        let out = cluster
            .run_round(scheme.as_ref(), &units, &data.dataset, &LogisticLoss, &w)
            .expect("covering BCC completes");
        messages += out.metrics.messages_used;
        comm_units += out.metrics.communication_units;
    }
    (
        messages as f64 / rounds as f64,
        comm_units as f64 / rounds as f64,
    )
}

#[test]
fn bcc_recovery_threshold_matches_theorem1() {
    // m = 24 units, r = 4 → 6 batches → K = 6·H₆ = 14.7; n large.
    let (m, n, r) = (24, 200, 4);
    let expect = theory::k_bcc(m, r);
    let (k_measured, l_measured) = measure_bcc(m, n, r, 300);

    assert!(
        (k_measured - expect).abs() / expect < 0.10,
        "measured K = {k_measured} vs Theorem 1 K = {expect}"
    );
    // eq. (14): communication load equals the recovery threshold.
    assert!(
        (l_measured - k_measured).abs() < 1e-9,
        "L ({l_measured}) must equal K ({k_measured}) for BCC"
    );

    // Sandwich of eq. (13).
    let (lower, k, upper) = theory::theorem1_sandwich(m, r);
    assert!(lower <= k_measured + 0.5);
    assert!(k <= upper + 1e-9);
    assert!(k_measured >= lower);
}

#[test]
fn bcc_threshold_shrinks_with_load() {
    // More local work (larger r) → fewer batches → smaller K: the tradeoff
    // Fig. 2 plots.
    let (k_r2, _) = measure_bcc(24, 200, 2, 120);
    let (k_r6, _) = measure_bcc(24, 200, 6, 120);
    let (k_r12, _) = measure_bcc(24, 200, 12, 120);
    assert!(
        k_r2 > k_r6 && k_r6 > k_r12,
        "K must decrease with r: {k_r2} / {k_r6} / {k_r12}"
    );
}

#[test]
fn theory_anchors_match_paper() {
    // The numbers the paper quotes for its experiments: scenario one has
    // m = 50 units at r = 10 → 5 batches → K_BCC = 5·H₅ ≈ 11.4 (they
    // observed 11); scenario two m = 100, r = 10 → K_BCC ≈ 29.3 (observed
    // 25); CR thresholds 41 and 91.
    assert!((theory::k_bcc(50, 10) - 11.416_666_666_666_666).abs() < 1e-9);
    assert!((theory::k_bcc(100, 10) - 29.289_682_539_682_54).abs() < 1e-9);
    assert_eq!(theory::k_coded(50, 10), 41.0);
    assert_eq!(theory::k_coded(100, 10), 91.0);
}
