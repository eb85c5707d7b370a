//! Round-engine and gradient-kernel throughput benchmarks — the data behind
//! `BENCH_round_engine.json` and `BENCH_gradient_kernel.json`.
//!
//! The engine section times the shared [`bcc_cluster::RoundEngine`] driving
//! batched [`run_rounds`] on the virtual backend, per scheme: wall-clock
//! seconds per round (host cost of compute + encode + DES pump + decode),
//! simulated round latency, and message/load accounting. Methodology: one
//! untimed warmup run per spec (faults pages, settles the allocator), then
//! the **minimum** wall time over [`MEASURE_RUNS`] identical runs — the
//! standard least-noise estimator for steady-state cost on a shared host.
//!
//! The gradient-kernel section isolates the worker compute hot path: packed
//! blocked kernels ([`bcc_optim::GradScratch::worker_partials`]) versus the
//! legacy per-example gather path ([`bcc_cluster::UnitMap::worker_partials_dyn`]),
//! over the same placement and weights. Both results are emitted as
//! machine-readable JSON so later changes to the engine, kernels, or
//! backends have a perf trajectory to compare against.
//!
//! [`run_rounds`]: bcc_cluster::ClusterBackend::run_rounds

use crate::experiments::spec_run::ScenarioSpec;
use crate::grid::{Artifact, Grid, Options};
use crate::report::{f1, f3, Table};
use bcc_cluster::UnitMap;
use bcc_core::experiment::{DataSpec, Experiment, ExperimentSpec, OptimizerSpec};
use bcc_data::synthetic::{generate, SyntheticConfig};
use bcc_optim::{GradScratch, LogisticLoss, Loss};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Timed runs per spec; the minimum is reported.
pub const MEASURE_RUNS: usize = 3;

/// Configuration of one engine-benchmark run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineBenchConfig {
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
    /// Rounds per scheme (all through one batched `run_rounds` call).
    pub rounds: usize,
    /// Seed.
    pub seed: u64,
}

impl EngineBenchConfig {
    /// Default: scenario-one sized, 50 rounds.
    #[must_use]
    pub fn default_config() -> Self {
        Self {
            workers: 50,
            units: 50,
            points_per_unit: 20,
            dim: 32,
            r: 10,
            rounds: 50,
            seed: 2024,
        }
    }

    /// Reduced trial counts for smoke runs.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            rounds: 10,
            points_per_unit: 5,
            ..Self::default_config()
        }
    }

    /// The resolved specs this benchmark measures: fixed-point rounds
    /// (no optimizer in the loop — pure engine throughput), one per paper
    /// scheme.
    #[must_use]
    pub fn specs(&self) -> Vec<ExperimentSpec> {
        super::scenario::paper_schemes(self.r)
            .into_iter()
            .map(|scheme| ExperimentSpec {
                name: format!("engine bench / {}", scheme.name),
                data: DataSpec::synthetic(self.points_per_unit, self.dim),
                optimizer: OptimizerSpec::FixedPoint,
                iterations: self.rounds,
                record_risk: false,
                seed: self.seed,
                ..ExperimentSpec::with_required(self.workers, self.units, scheme)
            })
            .collect()
    }
}

/// Per-scheme engine measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineBenchRow {
    /// Scheme name.
    pub scheme: String,
    /// Rounds measured.
    pub rounds: usize,
    /// Host wall-clock seconds per round (engine + DES + encode + decode);
    /// informational.
    pub wall_seconds_per_round: f64,
    /// Mean simulated round latency (the paper's total-time axis;
    /// deterministic; gated).
    pub simulated_seconds_per_round: f64,
    /// Mean messages consumed per round (empirical recovery threshold `K`).
    pub avg_messages_used: f64,
    /// Mean communication units per round (empirical load `L`).
    pub avg_communication_units: f64,
}

/// The full benchmark result (serialized to `BENCH_round_engine.json`).
pub type EngineBenchResult = Artifact<EngineBenchConfig>;

impl Grid for EngineBenchConfig {
    type Cell = ExperimentSpec;
    type Row = EngineBenchRow;

    const TARGET: &'static str = "engine";
    const ARTIFACT: &'static str = "round_engine";
    /// The deterministic column: host wall time rides along in the row,
    /// ungated (host-time bounds are `BENCHMARK.json`'s).
    const GATED: (&'static str, &'static str) =
        ("simulated_seconds_per_round", "simulated s/round");

    fn config(options: Options) -> Self {
        options.pick(Self::default_config, Self::fast)
    }

    fn cells(&self) -> Vec<ExperimentSpec> {
        self.specs()
    }

    /// One untimed warmup run, then [`MEASURE_RUNS`] timed runs; the row
    /// reports the fastest (runs are seeded, so every repetition produces
    /// identical gradients and metrics — only host noise varies).
    fn run_cell(&self, spec: &ExperimentSpec) -> EngineBenchRow {
        let experiment =
            Experiment::from_spec(spec.clone()).expect("engine bench specs are structurally valid");
        // Warmup is discarded: its wall time includes page faults and
        // cold caches, which the methodology promises to exclude. It
        // also materializes the experiment's cached dataset, so the
        // timed runs never re-allocate it.
        let _ = experiment.run().expect("benchmark rounds complete");
        let mut best = experiment.run().expect("benchmark rounds complete");
        for _ in 1..MEASURE_RUNS {
            let report = experiment.run().expect("benchmark rounds complete");
            if report.wall_seconds < best.wall_seconds {
                best = report;
            }
        }
        EngineBenchRow {
            scheme: best.scheme,
            rounds: self.rounds,
            wall_seconds_per_round: best.wall_seconds / self.rounds as f64,
            simulated_seconds_per_round: best.metrics.avg_round_time(),
            avg_messages_used: best.metrics.avg_recovery_threshold(),
            avg_communication_units: best.metrics.avg_communication_load(),
        }
    }

    fn key(row: &EngineBenchRow) -> String {
        row.scheme.clone()
    }

    /// One grouped scenario: `experiments/bench_round_engine.spec.json`.
    fn spec_dump(&self) -> Vec<(String, ScenarioSpec)> {
        let scenario = ScenarioSpec {
            name: "round-engine throughput".into(),
            experiments: self.specs(),
        };
        vec![("bench_round_engine".into(), scenario)]
    }

    fn render(result: &EngineBenchResult) -> Table {
        let mut table = Table::new(
            format!(
                "round engine, {} workers × {} rounds ({})",
                result.config.workers,
                result.config.rounds,
                result.backend.as_deref().unwrap_or("-")
            ),
            &[
                "scheme",
                "wall µs/round",
                "sim s/round",
                "K (msgs)",
                "L (units)",
            ],
        );
        for row in &result.rows {
            table.push_row(vec![
                row.scheme.clone(),
                f1(row.wall_seconds_per_round * 1e6),
                f3(row.simulated_seconds_per_round),
                f1(row.avg_messages_used),
                f1(row.avg_communication_units),
            ]);
        }
        table
    }
}

// ---------------------------------------------------------------------
// Gradient-kernel benchmark: packed vs per-example worker compute.
// ---------------------------------------------------------------------

/// Configuration of the gradient-kernel comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GradientKernelConfig {
    /// Number of coding units the dataset is grouped into.
    pub units: usize,
    /// Data points per unit.
    pub points_per_unit: usize,
    /// Feature dimension.
    pub dim: usize,
    /// Units per simulated worker (the BCC load `r`).
    pub units_per_worker: usize,
    /// Timed repetitions (minimum is reported).
    pub reps: usize,
    /// Seed for data and weights.
    pub seed: u64,
}

impl GradientKernelConfig {
    /// Default: scenario-one sized (matches [`EngineBenchConfig::default_config`]).
    #[must_use]
    pub fn default_config() -> Self {
        Self {
            units: 50,
            points_per_unit: 20,
            dim: 32,
            units_per_worker: 10,
            reps: 200,
            seed: 2024,
        }
    }

    /// Reduced repetitions for smoke runs.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            reps: 20,
            ..Self::default_config()
        }
    }
}

/// One loss's packed-vs-per-example measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GradientKernelRow {
    /// Loss measured.
    pub loss: String,
    /// Per-example path: ns per full sweep (all workers' partials once).
    pub per_example_ns_per_sweep: f64,
    /// Packed path: ns per full sweep of the same work.
    pub packed_ns_per_sweep: f64,
    /// `packed / per_example`, both timed in this process (lower is better;
    /// gated — the one reading here that carries across hosts).
    pub packed_over_per_example: f64,
}

/// The gradient-kernel result (serialized to `BENCH_gradient_kernel.json`).
pub type GradientKernelResult = Artifact<GradientKernelConfig>;

/// Materialized inputs of one gradient-kernel comparison.
pub struct GradientKernelSetup {
    /// The synthetic dataset.
    pub data: bcc_data::Dataset,
    /// Per simulated worker: assigned unit ids (consecutive, BCC-style).
    pub worker_units: Vec<Vec<usize>>,
    /// Per simulated worker: the unit row ranges, aligned with
    /// `worker_units`.
    pub unit_ranges: Vec<Vec<std::ops::Range<usize>>>,
    /// The evaluation point.
    pub w: Vec<f64>,
    /// The unit map behind the ranges.
    pub units: UnitMap,
}

impl GradientKernelConfig {
    /// Builds the dataset, worker layout, and weights this config measures.
    ///
    /// # Panics
    /// Panics when `units` does not tile evenly across workers.
    #[must_use]
    pub fn setup(&self) -> GradientKernelSetup {
        assert!(
            self.units.is_multiple_of(self.units_per_worker),
            "units must tile evenly across workers"
        );
        let num_examples = self.units * self.points_per_unit;
        let data = generate(&SyntheticConfig {
            num_examples,
            dim: self.dim,
            separation: 1.5,
            seed: self.seed,
        })
        .dataset;
        let units = UnitMap::grouped(num_examples, self.units);
        let workers = self.units / self.units_per_worker;
        // Worker w owns units [w*upw, (w+1)*upw) — a BCC batch layout.
        let worker_units: Vec<Vec<usize>> = (0..workers)
            .map(|w| (w * self.units_per_worker..(w + 1) * self.units_per_worker).collect())
            .collect();
        let unit_ranges = worker_units
            .iter()
            .map(|list| list.iter().map(|&u| units.unit_range(u)).collect())
            .collect();
        let w = (0..self.dim)
            .map(|k| 0.05 * ((k as f64) * 0.7).sin())
            .collect();
        GradientKernelSetup {
            data,
            worker_units,
            unit_ranges,
            w,
            units,
        }
    }
}

impl Grid for GradientKernelConfig {
    /// A loss by name. Logistic only: it is the loss of every paper
    /// experiment and the one with the vectorizable coefficient map;
    /// `SquaredLoss`'s packed kernels are pinned by the optim property
    /// tests instead.
    type Cell = (&'static str, &'static dyn Loss);
    type Row = GradientKernelRow;

    const TARGET: &'static str = "engine";
    const ARTIFACT: &'static str = "gradient_kernel";
    const VERSION: u32 = 2;
    const BACKEND: Option<&'static str> = None;
    /// The shipped hot path against the per-example reference timed beside
    /// it, so the reading does not move with the host's clock speed.
    const GATED: (&'static str, &'static str) = ("packed_over_per_example", "packed/per-example");

    fn config(options: Options) -> Self {
        options.pick(Self::default_config, Self::fast)
    }

    fn cells(&self) -> Vec<Self::Cell> {
        vec![("logistic", &LogisticLoss)]
    }

    /// Runs the packed-vs-per-example kernel comparison.
    ///
    /// Both paths compute the same per-unit partial gradients for every
    /// simulated worker (BCC-style: `units_per_worker` consecutive units
    /// per worker, all units covered): the per-example path is the
    /// pre-packing hot path — index gather through `Dataset::x(j)` and one
    /// `add_gradient` call per example through `&dyn Loss`, with fresh
    /// per-unit buffers — and the packed path streams the shared arena
    /// through reused scratch. The two results are asserted bit-identical
    /// before timing.
    ///
    /// # Panics
    /// Panics when the paths disagree (the packed-kernel contract is
    /// broken) or the config does not tile its units evenly across
    /// workers.
    fn run_cell(&self, &(name, loss): &Self::Cell) -> GradientKernelRow {
        let GradientKernelSetup {
            data,
            worker_units,
            unit_ranges,
            w,
            units,
        } = self.setup();
        let mut scratch = GradScratch::new();
        // Correctness gate: packed must equal per-example bit for bit.
        for (list, ranges) in worker_units.iter().zip(&unit_ranges) {
            let reference = units.worker_partials_dyn(&data, loss, list, &w);
            let packed = scratch.worker_partials(loss, data.features(), data.labels(), ranges, &w);
            assert_eq!(
                reference, packed,
                "packed kernels must match the per-example path bit for bit"
            );
        }

        let mut per_example_best = f64::INFINITY;
        let mut packed_best = f64::INFINITY;
        for _ in 0..self.reps {
            let t = Instant::now();
            for list in &worker_units {
                let partials = units.worker_partials_dyn(&data, loss, list, &w);
                std::hint::black_box(&partials);
            }
            per_example_best = per_example_best.min(t.elapsed().as_secs_f64());

            let t = Instant::now();
            for ranges in &unit_ranges {
                let partials =
                    scratch.worker_partials(loss, data.features(), data.labels(), ranges, &w);
                std::hint::black_box(&partials);
            }
            packed_best = packed_best.min(t.elapsed().as_secs_f64());
        }
        GradientKernelRow {
            loss: name.to_string(),
            per_example_ns_per_sweep: per_example_best * 1e9,
            packed_ns_per_sweep: packed_best * 1e9,
            packed_over_per_example: packed_best / per_example_best,
        }
    }

    fn key(row: &GradientKernelRow) -> String {
        row.loss.clone()
    }

    fn render(result: &GradientKernelResult) -> Table {
        let mut table = Table::new(
            format!(
                "gradient kernels, {} units x {} pts, dim {} (packed vs per-example)",
                result.config.units, result.config.points_per_unit, result.config.dim
            ),
            &["loss", "per-example us", "packed us", "packed/per-example"],
        );
        for row in &result.rows {
            table.push_row(vec![
                row.loss.clone(),
                f1(row.per_example_ns_per_sweep / 1e3),
                f1(row.packed_ns_per_sweep / 1e3),
                format!("{:.3}", row.packed_over_per_example),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::run;

    #[test]
    fn fast_bench_produces_sane_rows() {
        let cfg = EngineBenchConfig {
            workers: 10,
            units: 10,
            points_per_unit: 3,
            dim: 4,
            r: 2,
            rounds: 3,
            seed: 5,
        };
        let result = run(&cfg);
        assert_eq!(result.rows.len(), 3, "uncoded, CR, BCC");
        for row in &result.rows {
            assert_eq!(row.rounds, 3);
            assert!(row.wall_seconds_per_round > 0.0);
            assert!(row.simulated_seconds_per_round > 0.0);
            assert!(row.avg_messages_used >= 1.0);
            assert!(row.avg_communication_units >= row.avg_messages_used);
        }
        let uncoded = &result.rows[0];
        let bcc = &result.rows[2];
        assert!(
            bcc.avg_messages_used < uncoded.avg_messages_used,
            "BCC must not wait for all workers"
        );
        assert_eq!(EngineBenchConfig::render(&result).len(), 3);
    }
}
