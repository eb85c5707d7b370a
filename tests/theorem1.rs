//! Integration check of Theorem 1 on the round engine.
//!
//! `K`, the number of workers the master hears from before the arrived
//! batches (or example subsets) cover the data, has an exact law over a
//! finite cluster, conditioned on the cluster covering — the placement the
//! registry's redraw accepts (`bcc_stats::coupon`). The engine's
//! `messages_used` histogram is held to it by a chi-square test. With the
//! link zeroed, a round ends at the `K`-th of `n` i.i.d. shift-exponential
//! finish times, and `K` is independent of those order statistics, so
//! `E[T] = Σₖ P(K = k)·E[X₍ₖ:ₙ₎]` exactly; a z-test holds the engine's mean
//! round time to it. Both tests reject at α = 10⁻³, on fixed seeds.

use bcc::cluster::{ClusterBackend, ClusterProfile, CommModel, UnitMap, VirtualCluster};
use bcc::core::{theory, SchemeRegistry, SchemeSpec};
use bcc::data::synthetic::{generate, SyntheticConfig};
use bcc::optim::LogisticLoss;
use bcc::stats::coupon::{batched_pmf, random_subset_pmf};
use bcc::stats::order::expected_kth_shift_exp;
use bcc::stats::rng::derive_rng;
use bcc::stats::Summary;

/// Units (examples), workers and the loads swept: 12, 6, 4 and 2 batches.
const M: usize = 24;
const N: usize = 200;
const LOADS: [usize; 4] = [2, 4, 6, 12];
const ROUNDS: usize = 2000;
/// Shift-exponential worker profile `(μ, a)`.
const MU: f64 = 5.0;
const A: f64 = 0.001;
/// Standard-normal points for α = 10⁻³: one-sided (the chi-square upper
/// tail) and two-sided (the z-test).
const Z_ONE_SIDED: f64 = 3.0902;
const Z_TWO_SIDED: f64 = 3.2905;

/// One cell of engine rounds: each a fresh covering placement from the
/// registry and a fresh latency seed, over a zero-cost link.
struct Rounds {
    /// `counts[k]`: rounds that used `k` messages.
    counts: Vec<usize>,
    time: Summary,
    units: usize,
}

fn run_rounds(scheme: &str, r: usize) -> Rounds {
    let data = generate(&SyntheticConfig::small(M, 4, 1));
    let units = UnitMap::identity(M);
    let free_link = CommModel {
        per_message_overhead: 0.0,
        per_unit: 0.0,
    };
    let profile = ClusterProfile::homogeneous(N, MU, A, free_link);
    let w = vec![0.0; 4];
    let mut rng = derive_rng(3, r as u64);
    let (schemes, spec) = (SchemeRegistry::builtin(), SchemeSpec::with_load(scheme, r));
    let mut rounds = Rounds {
        counts: vec![0; N + 1],
        time: Summary::new(),
        units: 0,
    };
    for round in 0..ROUNDS {
        let placed = schemes
            .build(&spec, M, N, &mut rng)
            .expect("a covering placement");
        let out = VirtualCluster::new(profile.clone(), round as u64)
            .run_round(placed.as_ref(), &units, &data.dataset, &LogisticLoss, &w)
            .expect("a covering placement completes");
        rounds.counts[out.metrics.messages_used] += 1;
        rounds.time.push(out.metrics.total_time);
        rounds.units += out.metrics.communication_units;
    }
    rounds
}

/// Pearson's statistic of `counts` against `pmf` and its degrees of
/// freedom, with bins merged left to right until each expects at least 5.
fn chi_square(counts: &[usize], pmf: &[f64]) -> (f64, usize) {
    let total = counts.iter().sum::<usize>() as f64;
    let mut bins: Vec<(f64, f64)> = Vec::new();
    let mut open = (0.0, 0.0);
    for (p, &seen) in pmf.iter().zip(counts) {
        open = (open.0 + p * total, open.1 + seen as f64);
        if open.0 >= 5.0 {
            bins.push(std::mem::take(&mut open));
        }
    }
    // A tail that never reaches 5 joins the last bin.
    let last = bins.last_mut().expect("at least one bin");
    *last = (last.0 + open.0, last.1 + open.1);
    let stat = bins.iter().map(|(e, o)| (o - e).powi(2) / e).sum();
    (stat, bins.len() - 1)
}

/// Upper α = 10⁻³ point of χ²(df), by the Wilson–Hilferty cube.
fn chi_square_critical(df: usize) -> f64 {
    let v = 2.0 / (9.0 * df as f64);
    df as f64 * (1.0 - v + Z_ONE_SIDED * v.sqrt()).powi(3)
}

/// Holds one cell's `K` histogram to `pmf` and its mean round time to
/// `E[T] = Σₖ P(K = k)·E[X₍ₖ:ₙ₎]`.
fn assert_fits_law(rounds: &Rounds, pmf: &[f64], scheme: &str, r: usize) {
    let cell = format!("{scheme} r={r}");
    let (stat, df) = chi_square(&rounds.counts, pmf);
    assert!(
        stat < chi_square_critical(df),
        "{cell}: χ² = {stat:.1} on {df} df rejects the exact law of K"
    );
    let expect_t: f64 = (1..=N)
        .map(|k| pmf[k] * expected_kth_shift_exp(N, k, MU, A, r))
        .sum();
    let z = (rounds.time.mean() - expect_t) / rounds.time.std_err();
    assert!(
        z.abs() < Z_TWO_SIDED,
        "{cell}: mean round time {} vs E[T] = {expect_t} (z = {z:.2})",
        rounds.time.mean()
    );
}

/// Messages the cell's rounds used in all.
fn messages(rounds: &Rounds) -> usize {
    rounds.counts.iter().enumerate().map(|(k, c)| k * c).sum()
}

#[test]
fn bcc_recovery_threshold_matches_theorem1() {
    for r in LOADS {
        let rounds = run_rounds("bcc", r);
        let pmf = batched_pmf(M.div_ceil(r), N).expect("200 workers cover");
        assert_fits_law(&rounds, &pmf, "bcc", r);

        // eq. (14): each counted worker ships one unit, so L = K.
        assert_eq!(rounds.units, messages(&rounds), "r={r}: L ≠ K");
        // Sandwich of eq. (13).
        let k = messages(&rounds) as f64 / ROUNDS as f64;
        let (lower, bcc, upper) = theory::theorem1_sandwich(M, r);
        assert!(lower <= k && bcc <= upper + 1e-9, "r={r}: K = {k}");
    }
}

#[test]
fn random_recovery_threshold_matches_exact_law() {
    for r in LOADS {
        let rounds = run_rounds("random", r);
        let pmf = random_subset_pmf(M, r, N).expect("200 workers cover");
        assert_fits_law(&rounds, &pmf, "random", r);
        // eq. (6): every counted worker ships its r examples.
        assert_eq!(rounds.units, r * messages(&rounds), "r={r}");
    }
}

#[test]
fn bcc_threshold_shrinks_with_load() {
    // More local work (larger r) → fewer batches → smaller K: the tradeoff
    // Fig. 2 plots. The engine follows these laws (the tests above), so
    // their means order the measured thresholds.
    let mean = |pmf: Vec<f64>| -> f64 { pmf.iter().enumerate().map(|(k, p)| k as f64 * p).sum() };
    let bcc: Vec<f64> = LOADS
        .iter()
        .map(|&r| mean(batched_pmf(M.div_ceil(r), N).expect("covers")))
        .collect();
    let random: Vec<f64> = LOADS
        .iter()
        .map(|&r| mean(random_subset_pmf(M, r, N).expect("covers")))
        .collect();
    for pair in bcc.windows(2).chain(random.windows(2)) {
        assert!(
            pair[0] > pair[1],
            "K must decrease with r: {bcc:?} / {random:?}"
        );
    }
    // BCC needs fewer workers than the per-example randomized scheme.
    assert!(bcc.iter().zip(&random).all(|(b, r)| b < r));
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
