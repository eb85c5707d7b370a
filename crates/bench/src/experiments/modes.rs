//! The training-mode grid: mode × scheme × straggler model — the data
//! behind `BENCH_modes.json`.
//!
//! The paper's driver is bulk-synchronous: every gradient step waits for
//! the decodable prefix of one coded round. The
//! [mode layer](bcc_cluster::mode) opens the orthogonal axis — *when* an
//! update may be applied: `ssgd` (the paper), `ssp` (bounded staleness),
//! and `asgd` (fully asynchronous). This grid trains the same logistic
//! model under every builtin mode, across heavy-tail and bimodal straggler
//! regimes, and reports per cell the **risk-vs-wallclock tradeoff**:
//! simulated wallclock (overlapped makespan for the stale modes), final
//! empirical risk, and the staleness actually incurred.
//!
//! Every cell is an independent seeded experiment on the virtual backend
//! (all times are deterministic simulated seconds) — a pooled [`Grid`]
//! exactly like the [policy sweep](super::policy_sweep) — and each cell's
//! resolved [`ExperimentSpec`] is written under `experiments/modes/`: any
//! cell replays standalone via `repro scenario`.

use super::policy_sweep::mean_gradient_error;
use crate::experiments::scenario::partial_readout_schemes;
use crate::grid::{run_spec, Artifact, Grid, Options};
use crate::report::{f1, f3, Table};
use bcc_core::experiment::{DataSpec, ExperimentSpec, LatencySpec, ModeSpec, OptimizerSpec};
use bcc_optim::LearningRate;
use serde::{Deserialize, Serialize};

/// Configuration of one training-mode grid run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModesConfig {
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
    /// Gradient iterations (coded rounds) per cell.
    pub iterations: usize,
    /// Staleness bound of the `ssp` column.
    pub staleness: usize,
    /// Constant learning rate (plain gradient descent — the one optimizer
    /// every mode supports, so the comparison isolates the schedule).
    pub rate: f64,
    /// Cell seed.
    pub seed: u64,
    /// Worker threads for the cell pool (`0` ⇒ available parallelism).
    pub threads: usize,
}

impl ModesConfig {
    /// Default: scenario-one sized, 40 gradient iterations per cell.
    ///
    /// `staleness = 4` keeps SSP's window well under the iteration count —
    /// small enough that the stale gradients stay close to the synchronous
    /// trajectory.
    #[must_use]
    pub fn default_config() -> Self {
        Self {
            workers: 50,
            units: 50,
            points_per_unit: 20,
            dim: 32,
            r: 10,
            iterations: 40,
            staleness: 4,
            rate: 0.2,
            seed: 2024,
            threads: 0,
        }
    }

    /// Smoke configuration: full mode × scheme × model grid, trimmed data
    /// and iteration counts (what CI-adjacent smoke runs use).
    #[must_use]
    pub fn fast() -> Self {
        Self {
            points_per_unit: 5,
            iterations: 12,
            ..Self::default_config()
        }
    }

    /// The straggler models this grid crosses — the two regimes of the
    /// [model zoo](super::sweep::model_zoo) where round-overlap pays: the
    /// heavy tail (rare order-of-magnitude stragglers) and the bimodal
    /// cluster with a persistently slow subset.
    #[must_use]
    pub fn models(&self) -> Vec<(&'static str, LatencySpec)> {
        super::sweep::zoo_members(self.workers, &["pareto", "bimodal"])
    }

    /// The mode columns: every builtin, parameterized from the config.
    #[must_use]
    pub fn modes(&self) -> Vec<ModeSpec> {
        vec![
            ModeSpec::default(),
            ModeSpec::ssp(self.staleness),
            ModeSpec::named("asgd"),
        ]
    }

    /// The full cell grid in row order: model-major, then scheme, then
    /// mode. Each entry is `(cell name, resolved spec)`; the name doubles
    /// as the per-cell spec-file stem.
    #[must_use]
    pub fn cells(&self) -> Vec<(String, ExperimentSpec)> {
        let mut cells = Vec::new();
        for (model, latency) in self.models() {
            for scheme in partial_readout_schemes(self.r) {
                for mode in self.modes() {
                    let name = format!("{model}_{}_{}", scheme.name, mode.name);
                    let spec = ExperimentSpec {
                        name: format!("modes / {model} / {} / {}", scheme.name, mode.name),
                        data: DataSpec::synthetic(self.points_per_unit, self.dim),
                        latency: latency.clone(),
                        optimizer: OptimizerSpec::GradientDescent {
                            rate: LearningRate::Constant(self.rate),
                        },
                        mode: mode.clone(),
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

/// One (model × scheme × mode) cell's aggregated measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModeCellRow {
    /// Straggler-model name.
    pub model: String,
    /// Scheme name.
    pub scheme: String,
    /// Training-mode name.
    pub mode: String,
    /// Coded rounds measured (one gradient update each).
    pub rounds: usize,
    /// Simulated wallclock of the run — overlapped makespan under
    /// SSP/ASGD, round-time sum under `ssgd`.
    /// The wallclock axis of the tradeoff.
    pub simulated_seconds: f64,
    /// Sum of per-round service times (`= simulated_seconds` only for the
    /// synchronous mode; the stale modes overlap rounds below this).
    pub total_round_time: f64,
    /// Mean messages consumed per round (empirical `K`).
    pub avg_messages_used: f64,
    /// Mean staleness of the applied updates (rounds merged after this
    /// one's broadcast; `0.0` under `ssgd`).
    pub mean_staleness: f64,
    /// Worst staleness incurred (`≤` the SSP bound by construction).
    pub max_staleness: usize,
    /// Mean `‖ĝ − g‖₂` at the application point over the stale rounds
    /// (`0.0` when every update was fresh and exact).
    pub mean_gradient_error: f64,
    /// Final empirical risk after training — the risk axis of the
    /// tradeoff.
    pub final_risk: f64,
    /// Host wall-clock seconds for the cell's round loop.
    pub wall_seconds: f64,
}

/// The full grid result (serialized to `BENCH_modes.json`).
pub type ModesResult = Artifact<ModesConfig>;

impl ModesResult {
    /// Row lookup by `(model, scheme, mode)`.
    #[must_use]
    pub fn row(&self, model: &str, scheme: &str, mode: &str) -> Option<&ModeCellRow> {
        self.find(&format!("{model}/{scheme}/{mode}"))
    }

    /// The cells where a non-synchronous mode beat `ssgd` on simulated
    /// wallclock **at equal-or-better final risk** (within `risk_slack`,
    /// e.g. `0.01` for 1 %): the grid's headline claim. Returns
    /// `(model, scheme, mode, wallclock speedup)` tuples.
    #[must_use]
    pub fn wins_over_ssgd(&self, risk_slack: f64) -> Vec<(String, String, String, f64)> {
        let ssgd = |r: &ModeCellRow| format!("{}/{}/{}", r.model, r.scheme, ModeSpec::DEFAULT_NAME);
        self.wins_over(ssgd, |r| (r.simulated_seconds, r.final_risk), risk_slack)
            .into_iter()
            .map(|(r, speedup)| (r.model.clone(), r.scheme.clone(), r.mode.clone(), speedup))
            .collect()
    }
}

impl Grid for ModesConfig {
    type Cell = (String, ExperimentSpec);
    type Row = ModeCellRow;

    const TARGET: &'static str = "modes";
    const ARTIFACT: &'static str = "modes";
    const GATED: (&'static str, &'static str) = ("simulated_seconds", "simulated s");

    fn config(options: Options) -> Self {
        options.pick(Self::default_config, Self::fast)
    }

    fn threads(&self) -> Option<usize> {
        Some(self.threads)
    }

    fn cells(&self) -> Vec<Self::Cell> {
        ModesConfig::cells(self)
    }

    /// Trains the cell's experiment under its mode and reduces the
    /// per-round samples to the tradeoff row.
    fn run_cell(&self, (_, spec): &Self::Cell) -> ModeCellRow {
        let report = run_spec(spec);
        let rounds = report.round_samples.len();
        let staleness: Vec<usize> = report.round_samples.iter().map(|s| s.staleness).collect();
        ModeCellRow {
            model: spec.latency.model_name().to_string(),
            scheme: report.scheme,
            mode: spec.mode.name.clone(),
            rounds,
            simulated_seconds: report.simulated_seconds,
            total_round_time: report.metrics.total_time,
            avg_messages_used: report.metrics.avg_recovery_threshold(),
            mean_staleness: staleness.iter().sum::<usize>() as f64 / rounds.max(1) as f64,
            max_staleness: staleness.iter().copied().max().unwrap_or(0),
            mean_gradient_error: mean_gradient_error(&report.round_samples),
            final_risk: report.trace.final_risk().unwrap_or(f64::NAN),
            wall_seconds: report.wall_seconds,
        }
    }

    fn key(row: &ModeCellRow) -> String {
        format!("{}/{}/{}", row.model, row.scheme, row.mode)
    }

    fn cell_spec(&self, cell: &Self::Cell) -> Option<(String, ExperimentSpec)> {
        Some(cell.clone())
    }

    /// Each (model, scheme) block reads as one risk-vs-wallclock curve
    /// across the mode column.
    fn render(result: &ModesResult) -> Table {
        let mut t = Table::new(
            format!(
                "training modes — {} workers, {} iterations/cell, {} threads",
                result.config.workers,
                result.config.iterations,
                result.threads_used.unwrap_or(1)
            ),
            &[
                "model",
                "scheme",
                "mode",
                "rounds",
                "K (msgs)",
                "staleness",
                "grad err",
                "wallclock s",
                "vs ssgd",
                "final risk",
            ],
        );
        for row in &result.rows {
            let speedup = result
                .row(&row.model, &row.scheme, ModeSpec::DEFAULT_NAME)
                .map_or_else(
                    || "-".into(),
                    |base| format!("{:.2}x", base.simulated_seconds / row.simulated_seconds),
                );
            t.push_row(vec![
                row.model.clone(),
                row.scheme.clone(),
                row.mode.clone(),
                row.rounds.to_string(),
                f1(row.avg_messages_used),
                format!("{:.2}/{}", row.mean_staleness, row.max_staleness),
                format!("{:.2e}", row.mean_gradient_error),
                f3(row.simulated_seconds),
                speedup,
                format!("{:.4}", row.final_risk),
            ]);
        }
        t
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::grid::run;

    pub(crate) fn tiny() -> ModesConfig {
        ModesConfig {
            workers: 10,
            units: 10,
            points_per_unit: 3,
            dim: 4,
            r: 2,
            iterations: 8,
            staleness: 2,
            rate: 0.2,
            seed: 5,
            threads: 2,
        }
    }

    #[test]
    fn grid_covers_models_times_schemes_times_modes() {
        let cfg = tiny();
        let result = run(&cfg);
        assert_eq!(
            result.rows.len(),
            2 * 3 * 3,
            "2 models × 3 schemes × 3 modes"
        );
        for row in &result.rows {
            assert!(row.simulated_seconds > 0.0);
            assert!(row.final_risk.is_finite());
            assert_eq!(row.rounds, cfg.iterations);
        }
        for mode in ["ssgd", "ssp", "asgd"] {
            assert!(result.rows.iter().any(|r| r.mode == mode), "{mode}");
        }
        assert_eq!(ModesConfig::render(&result).len(), result.rows.len());
    }

    #[test]
    fn synchronous_cells_are_fresh_and_stale_cells_are_bounded() {
        let cfg = tiny();
        let result = run(&cfg);
        for row in &result.rows {
            match row.mode.as_str() {
                "ssgd" => {
                    assert_eq!(row.max_staleness, 0, "{}/{}", row.model, row.scheme);
                    assert_eq!(row.mean_gradient_error, 0.0);
                    // Synchronous wallclock is exactly the round-time sum.
                    assert_eq!(
                        row.simulated_seconds.to_bits(),
                        row.total_round_time.to_bits()
                    );
                }
                "ssp" => assert!(
                    row.max_staleness <= cfg.staleness,
                    "{}/{}: SSP staleness {} over bound {}",
                    row.model,
                    row.scheme,
                    row.max_staleness,
                    cfg.staleness
                ),
                _ => {}
            }
        }
    }

    #[test]
    fn overlap_beats_synchronous_rounds_at_matched_risk() {
        // The grid's headline claim: in at least two heavy-tail/bimodal
        // cells, SSP finishes faster than SSGD at equal-or-better final
        // risk (1 % slack).
        let result = run(&tiny());
        let wins = result.wins_over_ssgd(0.01);
        let overlap: Vec<_> = wins
            .iter()
            .filter(|(_, _, mode, _)| mode == "ssp")
            .collect();
        assert!(
            overlap.len() >= 2,
            "need ≥ 2 SSP wins over ssgd, got {wins:?}"
        );
        for (_, _, _, speedup) in &overlap {
            assert!(*speedup > 1.0);
        }
    }
}
