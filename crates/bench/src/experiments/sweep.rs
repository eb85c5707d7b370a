//! The straggler-model sweep: every scheme × every zoo model × several
//! seeds, fanned across a worker pool — the data behind
//! `BENCH_straggler_sweep.json`.
//!
//! The paper's Tables I/II fix one latency family (shift-exponential); its
//! claim is about straggler *distributions*, so this sweep re-runs the
//! scheme comparison under the whole
//! [model zoo](bcc_cluster::straggler) — heavy-tailed Pareto, Weibull,
//! bimodal persistent stragglers, and the Markov time-correlated chain —
//! and reports distribution-level round statistics (mean/p50/p99 round
//! time, mean messages) per cell.
//!
//! Every cell is an independent seeded experiment on the virtual backend,
//! so the grid is embarrassingly parallel: it is a pooled [`Grid`], and the
//! output is bit-identical regardless of thread count. Each cell's resolved
//! [`ExperimentSpec`] is also emitted (`repro sweep` writes them under
//! `experiments/sweep/`), so any cell replays standalone via
//! `repro scenario`.

use crate::grid::{run_spec, Artifact, Grid, Options};
use crate::report::{f1, Table};
use bcc_core::experiment::{DataSpec, ExperimentSpec, LatencySpec, OptimizerSpec};
use bcc_stats::summary::quantile;
use serde::{Deserialize, Serialize};

/// Configuration of one sweep run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
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
    /// Measured rounds per cell (fixed-point mode: no optimizer in the
    /// loop).
    pub rounds: usize,
    /// One independent trial per seed for every (scheme, model) pair.
    pub seeds: Vec<u64>,
    /// Worker threads for the cell pool (`0` ⇒ available parallelism).
    pub threads: usize,
}

impl SweepConfig {
    /// Default: scenario-one sized, 50 rounds per cell, 3 seeds.
    #[must_use]
    pub fn default_config() -> Self {
        Self {
            workers: 50,
            units: 50,
            points_per_unit: 20,
            dim: 32,
            r: 10,
            rounds: 50,
            seeds: vec![2024, 2025, 2026],
            threads: 0,
        }
    }

    /// Smoke configuration: full model × scheme grid, trimmed rounds and a
    /// single seed (what CI runs).
    #[must_use]
    pub fn fast() -> Self {
        Self {
            points_per_unit: 5,
            rounds: 10,
            seeds: vec![2024],
            ..Self::default_config()
        }
    }

    /// The full cell grid in row order: model-major, then scheme, then
    /// seed. Each entry is `(cell name, resolved spec)`; the name doubles
    /// as the per-cell spec-file stem.
    #[must_use]
    pub fn cells(&self) -> Vec<(String, ExperimentSpec)> {
        let mut cells = Vec::new();
        for (model, latency) in model_zoo(self.workers) {
            for scheme in super::scenario::paper_schemes(self.r) {
                for &seed in &self.seeds {
                    let name = format!("{model}_{}_s{seed}", scheme.name);
                    let spec = ExperimentSpec {
                        name: format!("sweep / {model} / {} / seed {seed}", scheme.name),
                        data: DataSpec::synthetic(self.points_per_unit, self.dim),
                        latency: latency.clone(),
                        optimizer: OptimizerSpec::FixedPoint,
                        iterations: self.rounds,
                        record_risk: false,
                        seed,
                        ..ExperimentSpec::with_required(self.workers, self.units, scheme.clone())
                    };
                    cells.push((name, spec));
                }
            }
        }
        cells
    }
}

/// The model zoo the grids cross: `(name, latency spec)` per member for a
/// cluster of `workers`, calibrated so per-unit mean compute is in the
/// EC2-like regime (a few ms/unit over the same master link), making round
/// times comparable across rows and across grids.
#[must_use]
pub fn model_zoo(workers: usize) -> Vec<(&'static str, LatencySpec)> {
    // The Tables I/II master link, shared by every member.
    let (per_message_overhead, per_unit) = (0.002, 0.004);
    vec![
        // The paper's baseline — identical to the single-model path.
        ("shifted-exp", LatencySpec::Ec2Like),
        // shape 1.5: finite mean (4.5 ms/unit) but infinite variance —
        // rare order-of-magnitude stragglers that clear the serialized
        // comm floor, which is the regime heavy-tail analyses target.
        (
            "pareto",
            LatencySpec::Pareto {
                shape: 1.5,
                scale: 0.0015,
                per_message_overhead,
                per_unit,
            },
        ),
        (
            "weibull",
            LatencySpec::Weibull {
                shape: 0.7,
                scale: 0.001,
                shift: 0.001,
                per_message_overhead,
                per_unit,
            },
        ),
        (
            "bimodal",
            LatencySpec::Bimodal {
                mu: 1000.0,
                a: 0.001,
                slow_workers: (workers / 10).max(1),
                slow_probability: 0.3,
                slowdown: 8.0,
                per_message_overhead,
                per_unit,
            },
        ),
        (
            "markov",
            LatencySpec::Markov {
                mu: 1000.0,
                a: 0.001,
                p_slow: 0.1,
                p_recover: 0.3,
                slowdown: 8.0,
                per_message_overhead,
                per_unit,
            },
        ),
    ]
}

/// The zoo members called `names`, in zoo order.
#[must_use]
pub fn zoo_members(workers: usize, names: &[&str]) -> Vec<(&'static str, LatencySpec)> {
    let mut zoo = model_zoo(workers);
    zoo.retain(|(name, _)| names.contains(name));
    zoo
}

/// One (model × scheme × seed) cell's aggregated measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCellRow {
    /// Straggler-model name (zoo member).
    pub model: String,
    /// Scheme name.
    pub scheme: String,
    /// Cell seed.
    pub seed: u64,
    /// Rounds measured.
    pub rounds: usize,
    /// Mean simulated round time.
    pub mean_round_time: f64,
    /// Median simulated round time.
    pub p50_round_time: f64,
    /// 99th-percentile simulated round time (the straggler tail the paper
    /// is about).
    pub p99_round_time: f64,
    /// Mean messages consumed per round (empirical recovery threshold
    /// `K`).
    pub avg_messages_used: f64,
    /// Mean communication units per round (empirical load `L`).
    pub avg_communication_units: f64,
    /// Host wall-clock seconds for the cell's round loop.
    pub wall_seconds: f64,
}

/// The full sweep result (serialized to `BENCH_straggler_sweep.json`).
pub type SweepResult = Artifact<SweepConfig>;

impl SweepResult {
    /// Row lookup by `(model, scheme, seed)`.
    #[must_use]
    pub fn row(&self, model: &str, scheme: &str, seed: u64) -> Option<&SweepCellRow> {
        self.find(&format!("{model}/{scheme}/s{seed}"))
    }
}

impl Grid for SweepConfig {
    type Cell = (String, ExperimentSpec);
    type Row = SweepCellRow;

    const TARGET: &'static str = "sweep";
    const ARTIFACT: &'static str = "straggler_sweep";
    const GATED: (&'static str, &'static str) = ("mean_round_time", "simulated s/round");

    fn config(options: Options) -> Self {
        options.pick(Self::default_config, Self::fast)
    }

    fn threads(&self) -> Option<usize> {
        Some(self.threads)
    }

    fn cells(&self) -> Vec<Self::Cell> {
        SweepConfig::cells(self)
    }

    /// Runs the cell's experiment and reduces the per-round samples to
    /// distribution-level statistics.
    fn run_cell(&self, (_, spec): &Self::Cell) -> SweepCellRow {
        let report = run_spec(spec);
        let times: Vec<f64> = report.round_samples.iter().map(|s| s.total_time).collect();
        SweepCellRow {
            model: spec.latency.model_name().to_string(),
            scheme: report.scheme,
            seed: spec.seed,
            rounds: spec.iterations,
            mean_round_time: report.metrics.avg_round_time(),
            p50_round_time: quantile(&times, 0.5),
            p99_round_time: quantile(&times, 0.99),
            avg_messages_used: report.metrics.avg_recovery_threshold(),
            avg_communication_units: report.metrics.avg_communication_load(),
            wall_seconds: report.wall_seconds,
        }
    }

    fn key(row: &SweepCellRow) -> String {
        format!("{}/{}/s{}", row.model, row.scheme, row.seed)
    }

    fn cell_spec(&self, cell: &Self::Cell) -> Option<(String, ExperimentSpec)> {
        Some(cell.clone())
    }

    fn render(result: &SweepResult) -> Table {
        let mut t = Table::new(
            format!(
                "straggler sweep — {} workers, {} rounds/cell, {} seed(s), {} threads",
                result.config.workers,
                result.config.rounds,
                result.config.seeds.len(),
                result.threads_used.unwrap_or(1)
            ),
            &[
                "model",
                "scheme",
                "seed",
                "K (msgs)",
                "mean s/round",
                "p50 s/round",
                "p99 s/round",
            ],
        );
        for row in &result.rows {
            t.push_row(vec![
                row.model.clone(),
                row.scheme.clone(),
                row.seed.to_string(),
                f1(row.avg_messages_used),
                format!("{:.4}", row.mean_round_time),
                format!("{:.4}", row.p50_round_time),
                format!("{:.4}", row.p99_round_time),
            ]);
        }
        t
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::grid::run;
    use bcc_core::experiment::Experiment;

    pub(crate) fn tiny() -> SweepConfig {
        SweepConfig {
            workers: 10,
            units: 10,
            points_per_unit: 3,
            dim: 4,
            r: 2,
            rounds: 4,
            seeds: vec![5],
            threads: 2,
        }
    }

    #[test]
    fn grid_covers_models_times_schemes_times_seeds() {
        let cfg = tiny();
        let result = run(&cfg);
        assert_eq!(result.rows.len(), 5 * 3, "5 models × 3 schemes × 1 seed");
        assert_eq!(result.threads_used, Some(2));
        for row in &result.rows {
            assert_eq!(row.rounds, 4);
            assert!(row.mean_round_time > 0.0);
            assert!(row.p50_round_time > 0.0);
            assert!(
                row.p99_round_time >= row.p50_round_time,
                "{}/{}: p99 {} < p50 {}",
                row.model,
                row.scheme,
                row.p99_round_time,
                row.p50_round_time
            );
            assert!(row.avg_messages_used >= 1.0);
        }
        // Every zoo member and every scheme appears.
        for (model, _) in model_zoo(cfg.workers) {
            assert!(result.rows.iter().any(|r| r.model == model), "{model}");
        }
        for scheme in ["uncoded", "cyclic-repetition", "bcc"] {
            assert!(result.rows.iter().any(|r| r.scheme == scheme), "{scheme}");
        }
        assert_eq!(SweepConfig::render(&result).len(), result.rows.len());
    }

    #[test]
    fn shifted_exp_cells_match_the_single_model_path() {
        // The sweep's baseline cells go through LatencySpec::Ec2Like —
        // exactly the spec every existing artifact uses — so running the
        // same spec directly must give bit-identical metrics.
        let cfg = tiny();
        let result = run(&cfg);
        for (name, spec) in cfg.cells() {
            if !name.starts_with("shifted-exp") {
                continue;
            }
            let direct = Experiment::from_spec(spec).unwrap().run().unwrap();
            let row = result
                .row("shifted-exp", &direct.scheme, 5)
                .expect("cell present");
            assert_eq!(
                row.mean_round_time.to_bits(),
                direct.metrics.avg_round_time().to_bits()
            );
            assert_eq!(
                row.avg_messages_used.to_bits(),
                direct.metrics.avg_recovery_threshold().to_bits()
            );
        }
    }

    #[test]
    fn heavy_tail_widens_the_p99_gap() {
        // The Pareto tail must show up in the p99/p50 ratio of the uncoded
        // scheme (which waits for the slowest worker) relative to the
        // light-tailed baseline — the effect the sweep exists to expose.
        // Enough rounds that the p99 reaches past the serialized-comm
        // floor into the tail.
        let cfg = SweepConfig {
            rounds: 100,
            ..tiny()
        };
        let result = run(&cfg);
        let ratio = |model: &str| {
            let row = result.row(model, "uncoded", 5).unwrap();
            row.p99_round_time / row.p50_round_time
        };
        assert!(
            ratio("pareto") > ratio("shifted-exp"),
            "pareto p99/p50 {} must exceed shifted-exp {}",
            ratio("pareto"),
            ratio("shifted-exp")
        );
    }
}
