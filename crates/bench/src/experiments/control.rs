//! The adaptive-control grid: controller × scheme × straggler model — the
//! data behind `BENCH_adaptive.json`.
//!
//! The paper fixes its round protocol offline; the
//! [control layer](bcc_control) re-tunes it between rounds from arrival
//! telemetry. This grid pits every builtin controller against two `static`
//! baselines under the two time-correlated straggler regimes the
//! controllers are built for — Markov chains and the bimodal cluster with
//! a persistently slow subset — across the paper's scheme comparison.
//!
//! Every controller starts from **`best-effort-all`**, which drains every
//! worker and pays the full straggler tail each round; the adaptive ones
//! detect the slow set online and re-point the policy (`fastest-k`, a
//! telemetry-derived `deadline`) to cut it. The claim has two clauses, one
//! per `static` row of a cell: every adaptive controller beats `static`
//! over `best-effort-all` at ≤ 1 % risk slack in ≥ 4 cells, and none beats
//! `static` over `wait-decodable` — **the paper's rule**: stop at BCC's
//! coupon-collector threshold and decode exactly — at equal-or-lower risk
//! in any cell. On the coded schemes the rule is the fastest column; on
//! `uncoded` the controllers finish sooner only at a higher risk.
//!
//! Every cell is an independent seeded experiment on the virtual backend —
//! a pooled [`Grid`] exactly like the [training-mode grid](super::modes) —
//! and each cell's resolved [`ExperimentSpec`] is written under
//! `experiments/control/`: any cell replays standalone via
//! `repro scenario`.

use crate::experiments::scenario::partial_readout_schemes;
use crate::grid::{run_spec, Artifact, Grid, Options};
use crate::report::{f1, f3, Table};
use bcc_control::ControlRecord;
use bcc_core::experiment::{
    ControllerSpec, DataSpec, ExperimentSpec, LatencySpec, OptimizerSpec, PolicySpec,
};
use bcc_optim::LearningRate;
use serde::{Deserialize, Serialize};

/// The pinned baseline controller every adaptive column is judged against.
pub const STATIC_NAME: &str = "static";

/// The policy every controller starts from: wait for every worker.
pub const START_POLICY: &str = "best-effort-all";

/// The paper's rule, run under [`STATIC_NAME`] as the second baseline:
/// wait until the received batches decode, then decode exactly.
pub const PAPER_RULE: &str = "wait-decodable";

/// Configuration of one adaptive-control grid run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlConfig {
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
    /// Gradient iterations per cell.
    pub iterations: usize,
    /// Workers in the persistently slow subset (bimodal) — also the
    /// approximate stationary slow count the Markov chain is tuned to.
    pub slow_workers: usize,
    /// Compute-time multiplier while slow.
    pub slowdown: f64,
    /// Constant learning rate.
    pub rate: f64,
    /// Cell seed.
    pub seed: u64,
    /// Worker threads for the cell pool (`0` ⇒ available parallelism).
    pub threads: usize,
}

impl ControlConfig {
    /// Default: scenario-one-adjacent sizing, 30 rounds per cell — enough
    /// for every builtin's warmup plus a stable post-switch regime.
    #[must_use]
    pub fn default_config() -> Self {
        Self {
            workers: 20,
            units: 20,
            points_per_unit: 20,
            dim: 16,
            r: 4,
            iterations: 30,
            slow_workers: 3,
            slowdown: 15.0,
            rate: 0.2,
            seed: 2027,
            threads: 0,
        }
    }

    /// Smoke configuration: full grid, trimmed data (what CI-adjacent
    /// smoke runs use). Iteration count is kept at the full 30 — the
    /// controllers' warmup/hysteresis behaviour is the artifact.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            points_per_unit: 5,
            ..Self::default_config()
        }
    }

    /// The straggler models this grid crosses — the two time-correlated
    /// regimes adaptive control exists for: the Markov chain (slow set
    /// drifts over rounds) and the bimodal cluster with a persistently
    /// slow subset.
    #[must_use]
    pub fn models(&self) -> Vec<(&'static str, LatencySpec)> {
        let (per_message_overhead, per_unit) = (0.0002, 0.0005);
        // Stationary slow fraction p_slow / (p_slow + p_recover) tuned to
        // roughly `slow_workers / workers`.
        let target = self.slow_workers as f64 / self.workers as f64;
        let p_recover = 0.15;
        let p_slow = target * p_recover / (1.0 - target);
        vec![
            (
                "markov",
                LatencySpec::Markov {
                    mu: 1000.0,
                    a: 0.001,
                    p_slow,
                    p_recover,
                    slowdown: self.slowdown,
                    per_message_overhead,
                    per_unit,
                },
            ),
            (
                "bimodal",
                LatencySpec::Bimodal {
                    mu: 1000.0,
                    a: 0.001,
                    slow_workers: self.slow_workers,
                    slow_probability: 0.9,
                    slowdown: self.slowdown,
                    per_message_overhead,
                    per_unit,
                },
            ),
        ]
    }

    /// The controller columns: every builtin, parameterized from the
    /// config.
    #[must_use]
    pub fn controllers(&self) -> Vec<ControllerSpec> {
        vec![
            ControllerSpec::named(STATIC_NAME),
            ControllerSpec::quantile_deadline(0.7),
            ControllerSpec::adaptive_k(3.0),
        ]
    }

    /// The full cell grid in row order: model-major, then scheme, then
    /// column — every controller from [`START_POLICY`], with `static` once
    /// more over the [`PAPER_RULE`] right after its first row. Each entry
    /// is `(cell name, resolved spec)`; the name doubles as the per-cell
    /// spec-file stem, and names the starting policy only when it is not
    /// [`START_POLICY`].
    #[must_use]
    pub fn cells(&self) -> Vec<(String, ExperimentSpec)> {
        let from_start = |controller| (controller, START_POLICY);
        let mut columns: Vec<_> = self.controllers().into_iter().map(from_start).collect();
        columns.insert(1, (ControllerSpec::named(STATIC_NAME), PAPER_RULE));
        let mut cells = Vec::new();
        for (model, latency) in self.models() {
            for scheme in partial_readout_schemes(self.r) {
                for (controller, policy) in columns.clone() {
                    let (mut stem, mut label) = (controller.name.clone(), controller.name.clone());
                    if policy != START_POLICY {
                        stem = format!("{stem}_{policy}");
                        label = format!("{label} / {policy}");
                    }
                    let name = format!("{model}_{}_{stem}", scheme.name);
                    let spec = ExperimentSpec {
                        name: format!("control / {model} / {} / {label}", scheme.name),
                        data: DataSpec::synthetic(self.points_per_unit, self.dim),
                        latency: latency.clone(),
                        optimizer: OptimizerSpec::GradientDescent {
                            rate: LearningRate::Constant(self.rate),
                        },
                        policy: PolicySpec::named(policy),
                        controller,
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

/// One (model × scheme × controller) cell's measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlCellRow {
    /// Straggler-model name.
    pub model: String,
    /// Scheme name.
    pub scheme: String,
    /// Controller name.
    pub controller: String,
    /// The aggregation policy the run started from (what `static` keeps).
    pub policy: String,
    /// Gradient rounds run.
    pub rounds: usize,
    /// Simulated wallclock of the run — the axis the controllers exist to
    /// cut.
    pub simulated_seconds: f64,
    /// Mean messages consumed per round (empirical `K`; drops when a
    /// controller cuts the tail).
    pub avg_messages_used: f64,
    /// Final empirical risk after training — the axis the controllers
    /// must *not* pay on.
    pub final_risk: f64,
    /// How many round boundaries changed the installed policy.
    pub switches: usize,
    /// The full per-round decision trace: the chosen policy (with its `k`
    /// or deadline budget) in force after each round.
    pub trace: Vec<ControlRecord>,
    /// Host wall-clock seconds for the cell's round loop.
    pub wall_seconds: f64,
}

/// The full grid result (serialized to `BENCH_adaptive.json`).
pub type ControlResult = Artifact<ControlConfig>;

impl ControlResult {
    /// Row lookup by `(model, scheme, controller, starting policy)`.
    #[must_use]
    pub fn row(
        &self,
        model: &str,
        scheme: &str,
        controller: &str,
        policy: &str,
    ) -> Option<&ControlCellRow> {
        self.find(&format!("{model}/{scheme}/{controller}/{policy}"))
    }

    /// The rows that beat their cell's `static` row started from `policy`
    /// on simulated wallclock **at equal-or-lower final risk** (within
    /// `risk_slack`, e.g. `0.01` for 1 %), each with its wallclock speedup.
    /// Against [`START_POLICY`] that is the controllers' claim; against
    /// [`PAPER_RULE`] at zero slack it must stay empty.
    #[must_use]
    pub fn wins_over_static(&self, policy: &str, risk_slack: f64) -> Vec<(&ControlCellRow, f64)> {
        let fixed = |r: &ControlCellRow| format!("{}/{}/{STATIC_NAME}/{policy}", r.model, r.scheme);
        self.wins_over(fixed, |r| (r.simulated_seconds, r.final_risk), risk_slack)
    }
}

impl Grid for ControlConfig {
    type Cell = (String, ExperimentSpec);
    type Row = ControlCellRow;

    const TARGET: &'static str = "control";
    const ARTIFACT: &'static str = "adaptive";
    const GATED: (&'static str, &'static str) = ("simulated_seconds", "simulated s");
    const CLAIM: &'static str =
        "every adaptive controller beats `static` + `best-effort-all` on simulated wallclock at ≤ 1% risk slack in ≥ 4 cells, and none beats `static` + `wait-decodable` (the paper's rule) at equal-or-lower risk in any cell";

    fn config(options: Options) -> Self {
        options.pick(Self::default_config, Self::fast)
    }

    fn threads(&self) -> Option<usize> {
        Some(self.threads)
    }

    fn cells(&self) -> Vec<Self::Cell> {
        ControlConfig::cells(self)
    }

    fn run_cell(&self, (_, spec): &Self::Cell) -> ControlCellRow {
        let report = run_spec(spec);
        ControlCellRow {
            model: spec.latency.model_name().to_string(),
            scheme: report.scheme,
            controller: spec.controller.name.clone(),
            policy: spec.policy.name.clone(),
            rounds: report.round_samples.len(),
            simulated_seconds: report.simulated_seconds,
            avg_messages_used: report.metrics.avg_recovery_threshold(),
            final_risk: report.trace.final_risk().unwrap_or(f64::NAN),
            switches: report.controller_switches,
            trace: report.controller_records,
            wall_seconds: report.wall_seconds,
        }
    }

    fn key(row: &ControlCellRow) -> String {
        format!(
            "{}/{}/{}/{}",
            row.model, row.scheme, row.controller, row.policy
        )
    }

    /// The artifact's headline claim must keep holding on fresh runs, not
    /// just its timings: both of its clauses.
    fn claim(current: &ControlResult) -> Result<(), String> {
        let wins = current.wins_over_static(START_POLICY, 0.01);
        for controller in current.config.controllers() {
            let name = controller.name;
            let own = wins.iter().filter(|(r, _)| r.controller == name).count();
            if name != STATIC_NAME && own < 4 {
                return Err(format!(
                    "controller `{name}` now beats static + {START_POLICY} in only {own} cells \
                     (need ≥ 4 at ≤ 1% risk slack) — the adaptive-control claim broke"
                ));
            }
        }
        if let Some((row, speedup)) = current.wins_over_static(PAPER_RULE, 0.0).first() {
            return Err(format!(
                "`{}` over {} beats the paper's rule (static + {PAPER_RULE}) on {}/{} \
                 ({speedup:.2}x at equal-or-lower risk) — the claim that no controller \
                 does broke",
                row.controller, row.policy, row.model, row.scheme
            ));
        }
        Ok(())
    }

    fn cell_spec(&self, cell: &Self::Cell) -> Option<(String, ExperimentSpec)> {
        Some(cell.clone())
    }

    /// Each (model, scheme) block reads as one static-vs-adaptive
    /// comparison across the controller column, against both baselines.
    fn render(result: &ControlResult) -> Table {
        let mut t = Table::new(
            format!(
                "adaptive control — {} workers, {} rounds/cell, {} threads",
                result.config.workers,
                result.config.iterations,
                result.threads_used.unwrap_or(1)
            ),
            &[
                "model",
                "scheme",
                "controller",
                "start policy",
                "rounds",
                "K (msgs)",
                "switches",
                "wallclock s",
                "vs static all",
                "vs paper rule",
                "final risk",
            ],
        );
        for row in &result.rows {
            let speedup = |policy| {
                result
                    .row(&row.model, &row.scheme, STATIC_NAME, policy)
                    .map_or_else(
                        || "-".into(),
                        |base| format!("{:.2}x", base.simulated_seconds / row.simulated_seconds),
                    )
            };
            t.push_row(vec![
                row.model.clone(),
                row.scheme.clone(),
                row.controller.clone(),
                row.policy.clone(),
                row.rounds.to_string(),
                f1(row.avg_messages_used),
                row.switches.to_string(),
                f3(row.simulated_seconds),
                speedup(START_POLICY),
                speedup(PAPER_RULE),
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

    pub(crate) fn tiny() -> ControlConfig {
        ControlConfig {
            points_per_unit: 3,
            threads: 2,
            ..ControlConfig::default_config()
        }
    }

    #[test]
    fn grid_covers_models_times_schemes_times_controllers() {
        let cfg = tiny();
        let result = run(&cfg);
        assert_eq!(
            result.rows.len(),
            2 * 3 * 4,
            "2 models × 3 schemes × (3 controllers + the paper's rule)"
        );
        for row in &result.rows {
            assert!(row.simulated_seconds > 0.0);
            assert!(row.final_risk.is_finite());
            assert_eq!(row.rounds, cfg.iterations);
            assert_eq!(row.trace.len(), cfg.iterations, "one decision per round");
            if row.controller == STATIC_NAME {
                assert_eq!(row.switches, 0, "static never switches");
                assert!(row.trace.iter().all(|r| r.policy.policy == row.policy));
            } else {
                assert_eq!(row.policy, START_POLICY);
            }
        }
        let columns: Vec<(&str, &str)> = result.rows[..4]
            .iter()
            .map(|r| (r.controller.as_str(), r.policy.as_str()))
            .collect();
        assert_eq!(
            columns,
            [
                ("static", "best-effort-all"),
                ("static", "wait-decodable"),
                ("quantile-deadline", "best-effort-all"),
                ("adaptive-k", "best-effort-all"),
            ]
        );
        assert_eq!(ControlConfig::render(&result).len(), result.rows.len());
    }

    #[test]
    fn every_adaptive_controller_beats_static_at_matched_risk() {
        // The grid's headline claim: each adaptive builtin beats static +
        // best-effort-all on simulated wallclock at equal-or-lower final
        // risk (1 % slack) in at least four of its six Markov/bimodal
        // cells, and none beats the paper's rule at equal-or-lower risk.
        let result = run(&tiny());
        let wins = result.wins_over_static(START_POLICY, 0.01);
        for controller in ["quantile-deadline", "adaptive-k"] {
            let own: Vec<_> = wins
                .iter()
                .filter(|(r, _)| r.controller == controller)
                .collect();
            assert!(
                own.len() >= 4,
                "{controller}: need ≥ 4 wins over static, got {own:?}"
            );
            for (_, speedup) in &own {
                assert!(*speedup > 1.0);
            }
        }
        assert_eq!(result.wins_over_static(PAPER_RULE, 0.0), vec![]);
        assert_eq!(ControlConfig::claim(&result), Ok(()));
    }

    #[test]
    fn a_controller_faster_than_the_paper_rule_breaks_the_claim() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let checked_in: ControlResult = crate::grid::read(&root).expect("artifact is checked in");
        assert_eq!(ControlConfig::claim(&checked_in), Ok(()));
        // One coded cell's controller, set just under its cell's rule row.
        // Coded cells decode exactly, so every column there ends at the
        // same risk: a win over the rule, and the claim fails.
        let mut artifact = checked_in.clone();
        let rule = artifact
            .row("bimodal", "bcc", STATIC_NAME, PAPER_RULE)
            .expect("rule row")
            .clone();
        let row = artifact
            .rows
            .iter_mut()
            .find(|r| {
                (r.model.as_str(), r.scheme.as_str(), r.controller.as_str())
                    == ("bimodal", "bcc", "quantile-deadline")
            })
            .expect("controller row");
        assert_eq!(row.final_risk, rule.final_risk);
        row.simulated_seconds = rule.simulated_seconds * 0.99;
        let err = ControlConfig::claim(&artifact).unwrap_err();
        assert!(
            err.contains("quantile-deadline")
                && err.contains("bimodal/bcc")
                && err.contains("paper's rule"),
            "{err}"
        );
    }

    #[test]
    fn adaptive_traces_show_the_chosen_policies() {
        let result = run(&tiny());
        for row in &result.rows {
            match row.controller.as_str() {
                "adaptive-k" => assert!(
                    row.trace
                        .iter()
                        .any(|r| r.policy.policy == "fastest-k" && r.policy.k.is_some()),
                    "{}/{}/{}: trace must show a fastest-k decision with its k",
                    row.model,
                    row.scheme,
                    row.controller
                ),
                "quantile-deadline" => assert!(
                    row.trace
                        .iter()
                        .any(|r| r.policy.policy == "deadline" && r.policy.deadline.is_some()),
                    "{}/{}/{}: trace must show a deadline decision with its budget",
                    row.model,
                    row.scheme,
                    row.controller
                ),
                _ => assert!(row.trace.iter().all(|r| !r.switched)),
            }
        }
    }
}
