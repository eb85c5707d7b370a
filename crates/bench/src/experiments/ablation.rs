//! Ablations beyond the paper's figures (the README's "Reproduction scope",
//! "Ablations"): which design choices carry BCC's win?
//!
//! 1. **Compression** (Remark 3): BCC vs BCC-without-summation — same
//!    coverage process, `r×` the communication load.
//! 2. **Master bandwidth**: sweep the per-message transfer cost; the gain
//!    over uncoded shrinks toward the straggler-tail difference as the
//!    regime turns compute-dominated — the paper's Tables I/II explanation.
//! 3. **Batch-count sensitivity**: measured recovery threshold vs
//!    `⌈m/r⌉·H_{⌈m/r⌉}` across the load range.
//! 4. **Random stragglers for FR/CR/BCC** (footnote 2): fractional
//!    repetition can finish before `m − r + 1` under random stragglers, but
//!    stays above BCC.

use super::spec_run::ScenarioSpec;
use crate::report::{f1, f3, Table};
use bcc_cluster::{ClusterProfile, CommModel};
use bcc_core::experiment::{
    DataSpec, Experiment, ExperimentSpec, LatencySpec, OptimizerSpec, SchemeSpec,
};
use bcc_core::theory;
use serde::{Deserialize, Serialize};

/// Rounds used by each ablation arm.
pub const ROUNDS: usize = 40;

/// The seed `repro ablations` runs and writes its specs at.
pub const SEED: u64 = 2024;

/// The resolved specs behind each ablation artifact, keyed by file stem —
/// the *same* lists the ablation run functions consume, so replay cannot
/// drift from the artifacts. (The batch-count scan is excepted: it averages
/// over fresh placements with a distinct seed per round, so it has no
/// single spec.)
#[must_use]
pub fn specs(seed: u64) -> Vec<(&'static str, ScenarioSpec)> {
    let spec = |name: &str, experiments| ScenarioSpec {
        name: format!("ablation: {name}"),
        experiments,
    };
    vec![
        (
            "ablation_compression",
            spec("in-worker summation", compression_specs(seed)),
        ),
        (
            "ablation_bandwidth",
            spec("master bandwidth sweep", bandwidth_specs(seed)),
        ),
        (
            "ablation_random_stragglers",
            spec("random stragglers", straggler_specs(seed)),
        ),
    ]
}

/// Measured behaviour of one scheme under one cluster profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArmResult {
    /// Scheme name.
    pub scheme: String,
    /// Average recovery threshold over the rounds.
    pub avg_recovery_threshold: f64,
    /// Average communication load (units) per round.
    pub avg_communication_load: f64,
    /// Average round time (simulated seconds).
    pub avg_round_time: f64,
}

/// The resolved spec for one ablation arm: `rounds` fixed-point gradient
/// rounds (no optimizer in the loop) of one scheme under `profile`.
#[must_use]
pub fn arm_spec(
    scheme: SchemeSpec,
    m_units: usize,
    workers: usize,
    profile: &ClusterProfile,
    rounds: usize,
    seed: u64,
) -> ExperimentSpec {
    ExperimentSpec {
        name: format!("ablation / {}", scheme.name),
        data: DataSpec::synthetic(10, 16),
        latency: LatencySpec::from_profile(profile),
        optimizer: OptimizerSpec::FixedPoint,
        iterations: rounds,
        record_risk: false,
        seed,
        ..ExperimentSpec::with_required(workers, m_units, scheme)
    }
}

/// Runs one resolved ablation arm.
#[must_use]
pub fn measure_spec(spec: &ExperimentSpec) -> ArmResult {
    let report = Experiment::from_spec(spec.clone())
        .expect("ablation specs are structurally valid")
        .run()
        .expect("ablation rounds complete");
    ArmResult {
        scheme: report.scheme,
        avg_recovery_threshold: report.metrics.avg_recovery_threshold(),
        avg_communication_load: report.metrics.avg_communication_load(),
        avg_round_time: report.metrics.avg_round_time(),
    }
}

/// Runs `rounds` single gradient rounds of one scheme under `profile`.
#[must_use]
pub fn measure(
    scheme: SchemeSpec,
    m_units: usize,
    workers: usize,
    profile: &ClusterProfile,
    rounds: usize,
    seed: u64,
) -> ArmResult {
    measure_spec(&arm_spec(scheme, m_units, workers, profile, rounds, seed))
}

// ---------------------------------------------------------------------
// 1. Compression ablation
// ---------------------------------------------------------------------

/// Compression ablation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompressionAblation {
    /// Compressed (real) BCC.
    pub bcc: ArmResult,
    /// Uncompressed variant.
    pub uncompressed: ArmResult,
    /// Load multiplier observed (≈ r).
    pub load_ratio: f64,
    /// Round-time multiplier observed.
    pub time_ratio: f64,
}

/// The two compression-ablation arms (`m = 50` units, `n = 50`, `r = 10`):
/// compressed BCC, then the uncompressed variant. Persisted by `repro` as
/// the replayable spec of [`compression`].
#[must_use]
pub fn compression_specs(seed: u64) -> Vec<ExperimentSpec> {
    let (m, n, r) = (50, 50, 10);
    let profile = ClusterProfile::ec2_like(n);
    vec![
        arm_spec(
            SchemeSpec::with_load("bcc", r),
            m,
            n,
            &profile,
            ROUNDS,
            seed,
        ),
        arm_spec(
            SchemeSpec::with_load("bcc-uncompressed", r),
            m,
            n,
            &profile,
            ROUNDS,
            seed,
        ),
    ]
}

/// Runs the compression ablation at `m = 50` units, `n = 50`, `r = 10`.
#[must_use]
pub fn compression(seed: u64) -> CompressionAblation {
    let specs = compression_specs(seed);
    let bcc = measure_spec(&specs[0]);
    let uncompressed = measure_spec(&specs[1]);
    CompressionAblation {
        load_ratio: uncompressed.avg_communication_load / bcc.avg_communication_load,
        time_ratio: uncompressed.avg_round_time / bcc.avg_round_time,
        bcc,
        uncompressed,
    }
}

// ---------------------------------------------------------------------
// 2. Master-bandwidth sweep
// ---------------------------------------------------------------------

/// One point of the bandwidth sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthPoint {
    /// Per-unit transfer time at the master.
    pub per_unit: f64,
    /// Uncoded average round time.
    pub uncoded_time: f64,
    /// BCC average round time.
    pub bcc_time: f64,
    /// BCC's gain over uncoded, percent.
    pub gain_percent: f64,
}

/// The swept per-unit transfer costs of the bandwidth ablation.
const BANDWIDTH_SWEEP_PER_UNIT: [f64; 5] = [0.0, 0.0002, 0.001, 0.004, 0.016];

/// The bandwidth-sweep arms, flat in sweep order: `(uncoded, bcc)` per
/// swept per-unit cost. Persisted by `repro` as the replayable spec of
/// [`bandwidth_sweep`].
#[must_use]
pub fn bandwidth_specs(seed: u64) -> Vec<ExperimentSpec> {
    let (m, n, r) = (50, 50, 10);
    BANDWIDTH_SWEEP_PER_UNIT
        .into_iter()
        .flat_map(|per_unit| {
            let profile = ClusterProfile::homogeneous(
                n,
                1000.0,
                0.001,
                CommModel {
                    per_message_overhead: per_unit / 2.0,
                    per_unit,
                },
            );
            [
                arm_spec(SchemeSpec::named("uncoded"), m, n, &profile, ROUNDS, seed),
                arm_spec(
                    SchemeSpec::with_load("bcc", r),
                    m,
                    n,
                    &profile,
                    ROUNDS,
                    seed,
                ),
            ]
        })
        .collect()
}

/// Sweeps the master's per-unit transfer cost from compute-dominated to
/// communication-dominated.
#[must_use]
pub fn bandwidth_sweep(seed: u64) -> Vec<BandwidthPoint> {
    bandwidth_specs(seed)
        .chunks(2)
        .zip(BANDWIDTH_SWEEP_PER_UNIT)
        .map(|(pair, per_unit)| {
            let uncoded = measure_spec(&pair[0]);
            let bcc = measure_spec(&pair[1]);
            BandwidthPoint {
                per_unit,
                uncoded_time: uncoded.avg_round_time,
                bcc_time: bcc.avg_round_time,
                gain_percent: (1.0 - bcc.avg_round_time / uncoded.avg_round_time) * 100.0,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// 3. Batch-count sensitivity
// ---------------------------------------------------------------------

/// One point of the batch-count sensitivity scan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchCountPoint {
    /// Computational load `r`.
    pub r: usize,
    /// Number of batches `⌈m/r⌉`.
    pub batches: usize,
    /// Theorem 1's `⌈m/r⌉·H_{⌈m/r⌉}`.
    pub theory: f64,
    /// Measured average recovery threshold.
    pub measured: f64,
}

/// Measures BCC's threshold across the whole load range at `m = 60`.
#[must_use]
pub fn batch_count_scan(seed: u64) -> Vec<BatchCountPoint> {
    let m = 60;
    let n = 240; // large n so coverage is near-certain per fresh placement
    let profile = ClusterProfile::ec2_like(n);
    [2usize, 3, 5, 6, 10, 15, 20, 30, 60]
        .into_iter()
        .map(|r| {
            // Fresh placement per round: rebuild the scheme each round via
            // distinct seeds so the average is over placements too.
            let mut total = 0usize;
            let rounds = 30;
            for round in 0..rounds {
                let arm = measure(
                    SchemeSpec::with_load("bcc", r),
                    m,
                    n,
                    &profile,
                    1,
                    seed ^ ((round as u64) << 8 | r as u64),
                );
                total += arm.avg_recovery_threshold as usize;
            }
            BatchCountPoint {
                r,
                batches: m.div_ceil(r),
                theory: theory::k_bcc(m, r),
                measured: total as f64 / rounds as f64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// 4. Random-straggler comparison (footnote 2)
// ---------------------------------------------------------------------

/// Average messages to completion under random stragglers for FR/CR/BCC.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomStragglerResult {
    /// Rows per scheme.
    pub arms: Vec<ArmResult>,
    /// The worst-case coded threshold `m − r + 1` for reference.
    pub coded_worst_case: f64,
}

/// The random-straggler arms (FR, CR, BCC at `m = n = 60`, `r = 6`).
/// Persisted by `repro` as the replayable spec of [`random_stragglers`].
#[must_use]
pub fn straggler_specs(seed: u64) -> Vec<ExperimentSpec> {
    let (m, n, r) = (60, 60, 6);
    let profile = ClusterProfile::ec2_like(n);
    [
        SchemeSpec::with_load("fractional-repetition", r),
        SchemeSpec::with_load("cyclic-repetition", r),
        SchemeSpec::with_load("bcc", r),
    ]
    .into_iter()
    .map(|cfg| arm_spec(cfg, m, n, &profile, ROUNDS, seed))
    .collect()
}

/// Compares FR, CR, and BCC at `m = n = 60`, `r = 6` under the same
/// straggler distribution.
#[must_use]
pub fn random_stragglers(seed: u64) -> RandomStragglerResult {
    let arms = straggler_specs(seed).iter().map(measure_spec).collect();
    RandomStragglerResult {
        arms,
        coded_worst_case: theory::k_coded(60, 6),
    }
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

/// Renders all four ablations as one table set.
#[must_use]
pub fn render_all(
    comp: &CompressionAblation,
    bw: &[BandwidthPoint],
    batches: &[BatchCountPoint],
    rs: &RandomStragglerResult,
) -> Vec<Table> {
    let mut t1 = Table::new(
        "Ablation 1 — in-worker summation (Remark 3)",
        &["scheme", "avg K", "avg L (units)", "avg round time (s)"],
    );
    for arm in [&comp.bcc, &comp.uncompressed] {
        t1.push_row(vec![
            arm.scheme.clone(),
            f1(arm.avg_recovery_threshold),
            f1(arm.avg_communication_load),
            f3(arm.avg_round_time),
        ]);
    }
    t1.push_row(vec![
        "ratio".into(),
        "1.0".into(),
        f1(comp.load_ratio),
        f3(comp.time_ratio),
    ]);

    let mut t2 = Table::new(
        "Ablation 2 — master bandwidth sweep (BCC gain vs comm dominance)",
        &["per-unit (s)", "uncoded (s)", "BCC (s)", "gain"],
    );
    for p in bw {
        t2.push_row(vec![
            format!("{:.4}", p.per_unit),
            f3(p.uncoded_time),
            f3(p.bcc_time),
            format!("{:.1}%", p.gain_percent),
        ]);
    }

    let mut t3 = Table::new(
        "Ablation 3 — batch-count sensitivity (m = 60)",
        &["r", "batches", "K theory", "K measured"],
    );
    for p in batches {
        t3.push_row(vec![
            p.r.to_string(),
            p.batches.to_string(),
            f1(p.theory),
            f1(p.measured),
        ]);
    }

    let mut t4 = Table::new(
        "Ablation 4 — random stragglers: FR vs CR vs BCC (m = n = 60, r = 6)",
        &["scheme", "avg K", "worst-case m-r+1"],
    );
    for arm in &rs.arms {
        t4.push_row(vec![
            arm.scheme.clone(),
            f1(arm.avg_recovery_threshold),
            f1(rs.coded_worst_case),
        ]);
    }

    vec![t1, t2, t3, t4]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_multiplies_load_by_r() {
        let c = compression(3);
        assert!(
            (c.load_ratio - 10.0).abs() < 1.5,
            "load ratio {} should be ≈ r = 10",
            c.load_ratio
        );
        assert!(
            c.time_ratio > 2.0,
            "uncompressed rounds should be much slower (ratio {})",
            c.time_ratio
        );
        // The coverage process itself is unchanged.
        assert!((c.bcc.avg_recovery_threshold - c.uncompressed.avg_recovery_threshold).abs() < 4.0);
    }

    #[test]
    fn gain_grows_with_comm_dominance() {
        let sweep = bandwidth_sweep(5);
        assert!(sweep.len() >= 3);
        let first = sweep.first().unwrap().gain_percent;
        let last = sweep.last().unwrap().gain_percent;
        assert!(
            last > first + 10.0,
            "gain must grow with per-unit cost: {first}% → {last}%"
        );
    }

    #[test]
    fn random_stragglers_fr_and_bcc_far_below_cr() {
        let rs = random_stragglers(7);
        let fr = rs
            .arms
            .iter()
            .find(|a| a.scheme == "fractional-repetition")
            .unwrap();
        let cr = rs
            .arms
            .iter()
            .find(|a| a.scheme == "cyclic-repetition")
            .unwrap();
        let bcc = rs.arms.iter().find(|a| a.scheme == "bcc").unwrap();
        // Footnote 2: FR may finish well below m − r + 1 under random
        // stragglers; CR sits exactly at it. FR's without-replacement group
        // coverage even edges out BCC's with-replacement coupon process —
        // but FR needs centrally coordinated placement and r | n, while BCC
        // is fully decentralized (the paper's Simplicity/Scalability
        // bullets).
        assert!(fr.avg_recovery_threshold < 0.6 * rs.coded_worst_case);
        assert!((cr.avg_recovery_threshold - rs.coded_worst_case).abs() < 1.0);
        assert!(bcc.avg_recovery_threshold < 0.6 * rs.coded_worst_case);
        // BCC lands on its Theorem 1 expectation.
        let k_theory = theory::k_bcc(60, 6);
        assert!(
            (bcc.avg_recovery_threshold - k_theory).abs() / k_theory < 0.2,
            "BCC K {} vs theory {k_theory}",
            bcc.avg_recovery_threshold
        );
    }
}
