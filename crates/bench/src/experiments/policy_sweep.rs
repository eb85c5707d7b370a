//! The aggregation-policy tradeoff grid: policy × scheme × straggler
//! model — the data behind `BENCH_policy_tradeoff.json`.
//!
//! The paper's master always decodes exactly; the
//! [policy layer](bcc_cluster::policy) opens the other half of the design
//! space (fastest-k, deadline-bounded, drain-all rounds). This grid runs
//! full Nesterov training under every builtin policy and reports, per
//! cell, the **risk-vs-wallclock tradeoff**: total simulated time, final
//! empirical risk, mean unit coverage, and the mean gradient-error norm of
//! the approximate rounds — exact rounds are free of error by
//! construction, approximate rounds buy their speed with it.
//!
//! Every cell is an independent seeded experiment on the virtual backend
//! (so all times are deterministic simulated seconds) — a pooled [`Grid`]
//! exactly like the [straggler sweep](super::sweep) — and each cell's
//! resolved [`ExperimentSpec`] is written under `experiments/policy/`: any
//! cell replays standalone via `repro scenario`.

use crate::experiments::scenario::partial_readout_schemes;
use crate::grid::{run_spec, Artifact, Grid, Options};
use crate::report::{f1, f3, Table};
use bcc_core::experiment::{DataSpec, ExperimentSpec, LatencySpec, OptimizerSpec, PolicySpec};
use bcc_stats::summary::quantile;
use serde::{Deserialize, Serialize};

/// Configuration of one policy-tradeoff run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicySweepConfig {
    /// Number of workers `n`.
    pub workers: usize,
    /// Number of coding units `m`.
    pub units: usize,
    /// Data points per unit.
    pub points_per_unit: usize,
    /// Feature dimension.
    pub dim: usize,
    /// Computational load for the coded schemes.
    pub r: usize,
    /// Training iterations per cell (Nesterov, risk recorded).
    pub iterations: usize,
    /// Arrival count of the `fastest-k` column.
    pub fastest_k: usize,
    /// Simulated-seconds budget of the `deadline` column.
    pub deadline_seconds: f64,
    /// Cell seed.
    pub seed: u64,
    /// Worker threads for the cell pool (`0` ⇒ available parallelism).
    pub threads: usize,
}

impl PolicySweepConfig {
    /// Default: scenario-one sized, 40 training iterations per cell.
    ///
    /// `fastest_k = 30` stops uncoded rounds at 60 % of the cluster;
    /// `deadline_seconds = 0.15` sits between BCC's (≈ 0.08 s) and
    /// uncoded's (≈ 0.30 s) mean round times under the Tables I/II
    /// latency regime, so it truncates the slow schemes and leaves the
    /// fast one exact.
    #[must_use]
    pub fn default_config() -> Self {
        Self {
            workers: 50,
            units: 50,
            points_per_unit: 20,
            dim: 32,
            r: 10,
            iterations: 40,
            fastest_k: 30,
            deadline_seconds: 0.15,
            seed: 2024,
            threads: 0,
        }
    }

    /// Smoke configuration: full policy × scheme × model grid, trimmed
    /// data and iteration counts (what CI-adjacent smoke runs use).
    #[must_use]
    pub fn fast() -> Self {
        Self {
            points_per_unit: 5,
            iterations: 10,
            ..Self::default_config()
        }
    }

    /// The straggler models this grid crosses: the paper's baseline and
    /// the heavy tail of the [model zoo](super::sweep::model_zoo).
    #[must_use]
    pub fn models(&self) -> Vec<(&'static str, LatencySpec)> {
        super::sweep::zoo_members(self.workers, &["shifted-exp", "pareto"])
    }

    /// The policy columns: every builtin, parameterized from the config.
    #[must_use]
    pub fn policies(&self) -> Vec<PolicySpec> {
        vec![
            PolicySpec::default(),
            PolicySpec::fastest_k(self.fastest_k),
            PolicySpec::deadline(self.deadline_seconds),
            PolicySpec::named("best-effort-all"),
        ]
    }

    /// The full cell grid in row order: model-major, then scheme, then
    /// policy. Each entry is `(cell name, resolved spec)`; the name
    /// doubles as the per-cell spec-file stem.
    #[must_use]
    pub fn cells(&self) -> Vec<(String, ExperimentSpec)> {
        let mut cells = Vec::new();
        for (model, latency) in self.models() {
            for scheme in partial_readout_schemes(self.r) {
                for policy in self.policies() {
                    let name = format!("{model}_{}_{}", scheme.name, policy.name);
                    let spec = ExperimentSpec {
                        name: format!("policy / {model} / {} / {}", scheme.name, policy.name),
                        data: DataSpec::synthetic(self.points_per_unit, self.dim),
                        latency: latency.clone(),
                        optimizer: OptimizerSpec::nesterov(0.5),
                        policy: policy.clone(),
                        iterations: self.iterations,
                        record_risk: true,
                        seed: self.seed,
                        ..ExperimentSpec::with_required(self.workers, self.units, scheme.clone())
                    };
                    cells.push((name, spec));
                }
            }
        }
        cells
    }
}

/// One (model × scheme × policy) cell's aggregated measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyCellRow {
    /// Straggler-model name.
    pub model: String,
    /// Scheme name.
    pub scheme: String,
    /// Aggregation-policy name.
    pub policy: String,
    /// Training iterations measured.
    pub rounds: usize,
    /// Total simulated time of the run — the wallclock axis of the
    /// tradeoff.
    pub total_time: f64,
    /// Mean simulated round time.
    pub mean_round_time: f64,
    /// 99th-percentile simulated round time.
    pub p99_round_time: f64,
    /// Mean messages consumed per round (empirical `K`).
    pub avg_messages_used: f64,
    /// Mean covered-unit fraction per round (`1.0` under exact policies).
    pub avg_coverage: f64,
    /// Rounds whose gradient was the exact decode.
    pub exact_rounds: usize,
    /// Mean `‖ĝ − g‖₂` of the mean gradient over the approximate rounds
    /// (`0.0` when every round was exact) — the risk axis's per-round
    /// driver.
    pub mean_gradient_error: f64,
    /// Final empirical risk after training — the risk axis of the
    /// tradeoff.
    pub final_risk: f64,
    /// Host wall-clock seconds for the cell's round loop.
    pub wall_seconds: f64,
}

/// The full grid result (serialized to `BENCH_policy_tradeoff.json`).
pub type PolicySweepResult = Artifact<PolicySweepConfig>;

impl PolicySweepResult {
    /// Row lookup by `(model, scheme, policy)`.
    #[must_use]
    pub fn row(&self, model: &str, scheme: &str, policy: &str) -> Option<&PolicyCellRow> {
        self.find(&format!("{model}/{scheme}/{policy}"))
    }
}

impl Grid for PolicySweepConfig {
    type Cell = (String, ExperimentSpec);
    type Row = PolicyCellRow;

    const TARGET: &'static str = "policy";
    const ARTIFACT: &'static str = "policy_tradeoff";
    const GATED: (&'static str, &'static str) = ("mean_round_time", "simulated s/round");

    fn config(options: Options) -> Self {
        options.pick(Self::default_config, Self::fast)
    }

    fn threads(&self) -> Option<usize> {
        Some(self.threads)
    }

    fn cells(&self) -> Vec<Self::Cell> {
        PolicySweepConfig::cells(self)
    }

    /// Trains the cell's experiment and reduces the per-round samples to
    /// the tradeoff row.
    fn run_cell(&self, (_, spec): &Self::Cell) -> PolicyCellRow {
        let report = run_spec(spec);
        let samples = &report.round_samples;
        let times: Vec<f64> = samples.iter().map(|s| s.total_time).collect();
        let coverage: f64 = samples
            .iter()
            .map(bcc_cluster::RoundSample::coverage_fraction)
            .sum::<f64>()
            / samples.len().max(1) as f64;
        PolicyCellRow {
            model: spec.latency.model_name().to_string(),
            scheme: report.scheme,
            policy: spec.policy.name.clone(),
            rounds: spec.iterations,
            total_time: report.metrics.total_time,
            mean_round_time: report.metrics.avg_round_time(),
            p99_round_time: quantile(&times, 0.99),
            avg_messages_used: report.metrics.avg_recovery_threshold(),
            avg_coverage: coverage,
            exact_rounds: samples.iter().filter(|s| s.exact).count(),
            mean_gradient_error: mean_gradient_error(samples),
            final_risk: report.trace.final_risk().unwrap_or(f64::NAN),
            wall_seconds: report.wall_seconds,
        }
    }

    fn key(row: &PolicyCellRow) -> String {
        format!("{}/{}/{}", row.model, row.scheme, row.policy)
    }

    fn cell_spec(&self, cell: &Self::Cell) -> Option<(String, ExperimentSpec)> {
        Some(cell.clone())
    }

    /// Each (model, scheme) block reads as one risk-vs-wallclock curve
    /// across the policy column.
    fn render(result: &PolicySweepResult) -> Table {
        let mut t = Table::new(
            format!(
                "aggregation-policy tradeoff — {} workers, {} iterations/cell, {} threads",
                result.config.workers,
                result.config.iterations,
                result.threads_used.unwrap_or(1)
            ),
            &[
                "model",
                "scheme",
                "policy",
                "K (msgs)",
                "coverage",
                "grad err",
                "total s",
                "final risk",
            ],
        );
        for row in &result.rows {
            t.push_row(vec![
                row.model.clone(),
                row.scheme.clone(),
                row.policy.clone(),
                f1(row.avg_messages_used),
                format!("{:.2}", row.avg_coverage),
                format!("{:.2e}", row.mean_gradient_error),
                f3(row.total_time),
                format!("{:.4}", row.final_risk),
            ]);
        }
        t
    }
}

/// Mean `‖ĝ − g‖₂` over the rounds that recorded one (`0.0` when every
/// round was fresh and exact).
pub(crate) fn mean_gradient_error(samples: &[bcc_cluster::RoundSample]) -> f64 {
    let errors: Vec<f64> = samples.iter().filter_map(|s| s.gradient_error).collect();
    if errors.is_empty() {
        0.0
    } else {
        errors.iter().sum::<f64>() / errors.len() as f64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::grid::run;

    pub(crate) fn tiny() -> PolicySweepConfig {
        PolicySweepConfig {
            workers: 10,
            units: 10,
            points_per_unit: 3,
            dim: 4,
            r: 2,
            iterations: 4,
            fastest_k: 6,
            deadline_seconds: 0.05,
            seed: 5,
            threads: 2,
        }
    }

    #[test]
    fn grid_covers_models_times_schemes_times_policies() {
        let cfg = tiny();
        let result = run(&cfg);
        assert_eq!(
            result.rows.len(),
            2 * 3 * 4,
            "2 models × 3 schemes × 4 policies"
        );
        for row in &result.rows {
            assert_eq!(row.rounds, 4);
            assert!(row.total_time > 0.0);
            assert!(row.avg_coverage > 0.0 && row.avg_coverage <= 1.0);
            assert!(row.final_risk.is_finite());
            assert!(row.exact_rounds <= row.rounds);
        }
        for policy in ["wait-decodable", "fastest-k", "deadline", "best-effort-all"] {
            assert!(result.rows.iter().any(|r| r.policy == policy), "{policy}");
        }
        assert_eq!(PolicySweepConfig::render(&result).len(), result.rows.len());
    }

    #[test]
    fn wait_decodable_cells_are_exact_and_error_free() {
        let result = run(&tiny());
        for row in result.rows.iter().filter(|r| r.policy == "wait-decodable") {
            assert_eq!(row.exact_rounds, row.rounds, "{}/{}", row.model, row.scheme);
            assert_eq!(row.mean_gradient_error, 0.0);
            assert_eq!(row.avg_coverage, 1.0);
        }
    }

    #[test]
    fn fastest_k_trades_error_for_time_on_uncoded() {
        // On uncoded, fastest-k waits for 6 of 10 workers: strictly fewer
        // messages and strictly less time than the exact policy, at a
        // nonzero gradient error.
        let result = run(&tiny());
        let exact = result
            .row("shifted-exp", "uncoded", "wait-decodable")
            .unwrap();
        let fast = result.row("shifted-exp", "uncoded", "fastest-k").unwrap();
        assert!(fast.avg_messages_used < exact.avg_messages_used);
        assert!(fast.total_time < exact.total_time);
        assert!(fast.mean_gradient_error > 0.0);
        assert!(fast.avg_coverage < 1.0);
        assert_eq!(exact.mean_gradient_error, 0.0);
    }
}
