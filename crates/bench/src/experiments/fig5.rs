//! Fig. 5 — heterogeneous cluster: load-balancing (LB) baseline vs the
//! generalized BCC random assignment.
//!
//! Paper setting: `m = 500` examples, `n = 100` workers, all shifts
//! `aᵢ = 20`; straggling `μᵢ = 1` for 95 workers and `μᵢ = 20` for 5.
//! The generalized BCC computes P2-optimal loads for a budget of
//! `⌊m·log m⌋` deliveries and places examples uniformly at random; LB
//! splits the data proportionally to speed without repetition. The paper
//! reports a 29.28% reduction in average computation time.
//!
//! The figure is two experiments on the round engine — `generalized-bcc`
//! and `load-balanced` of [`hetero::schemes`], no optimizer. The profile's
//! link is zero-cost, so a round's time *is* its coverage time (eq. (16)).

use crate::report::{f1, Table};
use bcc_cluster::ClusterProfile;
use bcc_core::hetero::{self, coverage_budget, optimal_loads, theorem2_bounds};
use bcc_core::{
    DataSpec, Experiment, ExperimentSpec, LatencySpec, OptimizerSpec, Registries, SchemeSpec,
};
use bcc_stats::{derive_seed, Summary};
use serde::{Deserialize, Serialize};

/// Fig. 5 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Result {
    /// Mean LB completion time.
    pub lb_mean: f64,
    /// Mean generalized-BCC coverage time.
    pub gbcc_mean: f64,
    /// Standard errors of both means.
    pub lb_std_err: f64,
    /// Standard error of the GBCC mean.
    pub gbcc_std_err: f64,
    /// Percent reduction (paper: 29.28%).
    pub reduction_percent: f64,
    /// The P2 loads used by GBCC.
    pub gbcc_loads: Vec<usize>,
    /// Theorem 2 lower bound on any scheme's coverage time.
    pub theorem2_lower: f64,
    /// Theorem 2 upper bound.
    pub theorem2_upper: f64,
    /// Trials per arm.
    pub trials: usize,
}

/// Dataset size `m` and cluster size `n` (that of
/// [`LatencySpec::Fig5Heterogeneous`]).
const UNITS: usize = 500;
const WORKERS: usize = 100;
/// Placements each arm averages over (generalized BCC's is random).
const PLACEMENTS: u64 = 10;

/// Round times of `scheme` over `trials` rounds (rounded up to a multiple of
/// [`PLACEMENTS`]), split evenly over placement seeds derived from `seed`.
fn coverage_times(scheme: &str, trials: usize, seed: u64, registries: &Registries) -> Summary {
    let mut times = Summary::new();
    for placement in 0..PLACEMENTS {
        let spec = ExperimentSpec {
            name: format!("fig5 / {scheme}"),
            data: DataSpec::synthetic(1, 2),
            latency: LatencySpec::Fig5Heterogeneous,
            optimizer: OptimizerSpec::FixedPoint,
            iterations: trials.div_ceil(PLACEMENTS as usize),
            seed: derive_seed(seed, placement),
            ..ExperimentSpec::with_required(WORKERS, UNITS, SchemeSpec::named(scheme))
        };
        let report = Experiment::from_spec_with(spec, registries)
            .expect("the Fig. 5 specs are valid")
            .run()
            .expect("virtual rounds of a covering placement complete");
        for sample in &report.round_samples {
            times.push(sample.total_time);
        }
    }
    times
}

/// Runs the Fig. 5 comparison with the paper's cluster: `trials` rounds
/// per arm, both arms on the same latency streams.
#[must_use]
pub fn run(trials: usize, seed: u64) -> Fig5Result {
    let profile = ClusterProfile::fig5_heterogeneous();
    let registries = Registries {
        schemes: hetero::schemes(&profile),
        ..Registries::default()
    };
    let gbcc = coverage_times("generalized-bcc", trials, seed, &registries);
    let lb = coverage_times("load-balanced", trials, seed, &registries);
    let loads = optimal_loads(&profile.workers, coverage_budget(UNITS), UNITS).loads;
    let bounds = theorem2_bounds(&profile.workers, UNITS, trials.min(300), seed ^ 0xB0);

    Fig5Result {
        lb_mean: lb.mean(),
        gbcc_mean: gbcc.mean(),
        lb_std_err: lb.std_err(),
        gbcc_std_err: gbcc.std_err(),
        reduction_percent: (1.0 - gbcc.mean() / lb.mean()) * 100.0,
        gbcc_loads: loads,
        theorem2_lower: bounds.lower,
        theorem2_upper: bounds.upper,
        trials: lb.count() as usize,
    }
}

/// Renders the Fig. 5 bar chart as a table.
#[must_use]
pub fn render(result: &Fig5Result) -> Table {
    let mut t = Table::new(
        "Fig. 5 — heterogeneous cluster, average computation time (m = 500, n = 100)",
        &["strategy", "avg time", "std err", "vs LB"],
    );
    t.push_row(vec![
        "load balancing (LB)".into(),
        f1(result.lb_mean),
        f1(result.lb_std_err),
        "—".into(),
    ]);
    t.push_row(vec![
        "generalized BCC".into(),
        f1(result.gbcc_mean),
        f1(result.gbcc_std_err),
        format!("-{:.2}%", result.reduction_percent),
    ]);
    t.push_row(vec![
        "Theorem 2 bounds".into(),
        format!(
            "[{}, {}]",
            f1(result.theorem2_lower),
            f1(result.theorem2_upper)
        ),
        "—".into(),
        "—".into(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_shape() {
        let r = run(120, 5);
        // GBCC must beat LB by a margin in the paper's ballpark (~29%).
        assert!(
            r.reduction_percent > 15.0 && r.reduction_percent < 45.0,
            "reduction {}% out of the expected band",
            r.reduction_percent
        );
        // The sandwich: lower bound ≤ GBCC time; GBCC within the upper bound.
        assert!(r.theorem2_lower <= r.gbcc_mean * 1.05);
        assert!(r.gbcc_mean <= r.theorem2_upper * 1.1);
        let table = render(&r);
        assert_eq!(table.len(), 3);
    }
}
