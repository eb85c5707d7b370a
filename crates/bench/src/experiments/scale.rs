//! The data-path scaling benchmark behind `BENCH_scale.json` —
//! `repro scale`.
//!
//! Sweeps a grid of `n` workers × feature dimension × {full, minibatch}
//! rounds and measures, per cell:
//!
//! * **Simulated round metrics** from a replayable [`ExperimentSpec`]
//!   (virtual backend, fixed-point rounds). These are deterministic in the
//!   spec seed — identical across hosts, thread counts, and `--fast` — and
//!   are what the perf gate compares, so drift means a behaviour change,
//!   never host noise.
//! * **Server-side decode**: one round of the same experiment — its
//!   scheme, its resident dataset, its minibatch sampler — computed and
//!   encoded worker by worker into a decoder, whose
//!   [`Decoder::decode`](bcc_coding::Decoder::decode)
//!   (the master's one decode) is then timed. The result records
//!   [`host_threads`](ScaleBenchResult::host_threads), the host the
//!   wall-clock column was read on.
//!
//! Each cell holds one dataset, dropped before the next cell starts.
//!
//! `--fast` trims only the host-timing repetitions
//! ([`ScaleBenchConfig::decode_reps`]); the grid — and with it every
//! simulated metric and every persisted cell spec — is unchanged, which is
//! why the gate can compare a `--fast` snapshot against the committed full
//! artifact (it keys config equality on [`ScaleGrid`] alone).

use crate::grid::{Artifact, Grid, Options};
use crate::report::{f1, Table};
use bcc_cluster::engine::RoundContext;
use bcc_cluster::{UnitMap, UnitSelection, WorkerBlocks};
use bcc_coding::GradientCodingScheme;
use bcc_core::experiment::{DataSpec, Experiment, ExperimentSpec, OptimizerSpec, SchemeSpec};
use bcc_optim::{GradScratch, LogisticLoss};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The swept grid — the gate's config-equality key. Everything here shapes
/// the *deterministic* outputs (cell specs and simulated metrics);
/// host-timing knobs live on [`ScaleBenchConfig`] instead so `--fast`
/// snapshots stay comparable against full baselines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleGrid {
    /// Worker counts `n` (one coding unit per worker, `m = n`).
    pub workers: Vec<usize>,
    /// Feature dimensions.
    pub dims: Vec<usize>,
    /// Examples per coding unit.
    pub points_per_unit: usize,
    /// Computational load `r` (cyclic-repetition window).
    pub r: usize,
    /// Minibatch cells sample `units / minibatch_divisor` units per round.
    pub minibatch_divisor: usize,
    /// Simulated rounds per cell.
    pub rounds: usize,
    /// Spec seed.
    pub seed: u64,
}

/// Configuration of one scale-benchmark run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleBenchConfig {
    /// The deterministic grid (the gate's comparison key).
    pub grid: ScaleGrid,
    /// Timed decodes per cell (minimum is reported).
    pub decode_reps: usize,
}

impl ScaleBenchConfig {
    /// The full grid: `n ∈ {50, 200, 1000} × dim ∈ {32, 1024, 10240}`,
    /// full and minibatch rounds — 18 cells.
    #[must_use]
    pub fn default_config() -> Self {
        Self {
            grid: ScaleGrid {
                workers: vec![50, 200, 1000],
                dims: vec![32, 1024, 10240],
                points_per_unit: 4,
                r: 5,
                minibatch_divisor: 4,
                rounds: 3,
                seed: 2024,
            },
            decode_reps: 5,
        }
    }

    /// Reduced host-timing repetitions for smoke runs. The grid is
    /// untouched: every deterministic output (simulated metrics, cell
    /// specs) is identical to the full run's, so the gate still compares.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            decode_reps: 1,
            ..Self::default_config()
        }
    }
}

/// One grid cell: a worker count, a dimension, and the round mode.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleCell {
    /// Workers `n` (= units `m`).
    pub workers: usize,
    /// Feature dimension.
    pub dim: usize,
    /// `Some(k)`: sample `k` units per round; `None`: full rounds.
    pub minibatch: Option<usize>,
}

impl ScaleCell {
    /// `full` or `minibatch` — the mode key used in rows and file names.
    #[must_use]
    pub fn mode(&self) -> &'static str {
        if self.minibatch.is_some() {
            "minibatch"
        } else {
            "full"
        }
    }

    /// The cell's artifact/file stem, e.g. `scale_n200_d1024_minibatch`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("scale_n{}_d{}_{}", self.workers, self.dim, self.mode())
    }
}

impl ScaleGrid {
    /// Units sampled per round in a minibatch cell with `n` units.
    #[must_use]
    pub fn minibatch_units(&self, units: usize) -> usize {
        (units / self.minibatch_divisor).max(1)
    }

    /// Every cell of the grid, in row order (n-major, then dim, then
    /// full before minibatch).
    #[must_use]
    pub fn cells(&self) -> Vec<ScaleCell> {
        let mut cells = Vec::new();
        for &n in &self.workers {
            for &dim in &self.dims {
                for minibatch in [None, Some(self.minibatch_units(n))] {
                    cells.push(ScaleCell {
                        workers: n,
                        dim,
                        minibatch,
                    });
                }
            }
        }
        cells
    }

    /// The replayable spec behind one cell's simulated metrics
    /// (fixed-point rounds on the virtual backend).
    #[must_use]
    pub fn cell_spec(&self, cell: &ScaleCell) -> ExperimentSpec {
        let mut data = DataSpec::synthetic(self.points_per_unit, cell.dim);
        if let Some(k) = cell.minibatch {
            data = data.with_minibatch(k);
        }
        let scheme = SchemeSpec::with_load("cyclic-repetition", self.r);
        ExperimentSpec {
            name: cell.name(),
            data,
            optimizer: OptimizerSpec::FixedPoint,
            iterations: self.rounds,
            record_risk: false,
            seed: self.seed,
            ..ExperimentSpec::with_required(cell.workers, cell.workers, scheme)
        }
    }
}

/// One cell's measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleCellRow {
    /// Workers `n` (= units).
    pub workers: usize,
    /// Feature dimension.
    pub dim: usize,
    /// `full` or `minibatch`.
    pub mode: String,
    /// Total examples `m · points_per_unit`.
    pub examples: usize,
    /// Units sampled per round (`None` on full cells).
    pub minibatch_units: Option<usize>,
    /// Gradient-example evaluations of one round's compute sweep over all
    /// workers (counts replication: each selected unit is computed by `r`
    /// workers).
    pub rows_per_sweep: usize,
    /// Host seconds of the fastest decode of the completed round.
    pub decode_seconds: f64,
    /// Mean simulated round latency (deterministic; gated).
    pub simulated_seconds_per_round: f64,
    /// Mean messages consumed per round (deterministic).
    pub avg_messages_used: f64,
}

/// The full benchmark result (serialized to `BENCH_scale.json`). Records
/// `host_threads` — the context the wall-clock column must be read in.
pub type ScaleBenchResult = Artifact<ScaleBenchConfig>;

/// The evaluation point of the decoded round (fixed, seedless).
fn eval_point(dim: usize) -> Vec<f64> {
    (0..dim).map(|k| 0.05 * ((k as f64) * 0.7).sin()).collect()
}

/// Gradient-example evaluations of one sweep: every worker's selected
/// assigned units' rows.
fn sweep_rows(
    scheme: &dyn GradientCodingScheme,
    units: &UnitMap,
    selection: Option<&UnitSelection>,
) -> usize {
    (0..scheme.num_workers())
        .map(|w| {
            scheme
                .placement()
                .worker_examples(w)
                .iter()
                .filter(|&&u| selection.is_none_or(|sel| sel.contains(u)))
                .map(|&u| units.unit_range(u).len())
                .sum::<usize>()
        })
        .sum()
}

impl Grid for ScaleBenchConfig {
    type Cell = ScaleCell;
    type Row = ScaleCellRow;

    const TARGET: &'static str = "scale";
    const ARTIFACT: &'static str = "scale";
    const VERSION: u32 = 3;
    const GATED: (&'static str, &'static str) =
        ("simulated_seconds_per_round", "simulated s/round");
    const CLAIM: &'static str =
        "configs compare on the swept grid alone (`--fast` differs only in host-timing repetitions)";
    const HOST_THREADS: bool = true;

    fn config(options: Options) -> Self {
        options.pick(Self::default_config, Self::fast)
    }

    fn cells(&self) -> Vec<ScaleCell> {
        self.grid.cells()
    }

    /// Measures one cell.
    ///
    /// # Panics
    /// Panics when the cell's spec fails to build or run, or its round
    /// fails to decode (the grid is structurally valid by construction).
    fn run_cell(&self, cell: &ScaleCell) -> ScaleCellRow {
        let grid = &self.grid;
        let n = cell.workers;
        let num_examples = n * grid.points_per_unit;

        // Deterministic, replayable simulated metrics (the gated part).
        let experiment = Experiment::from_spec(grid.cell_spec(cell))
            .expect("scale cells are structurally valid");
        let report = experiment.run().expect("scale rounds complete");

        // One round of the same experiment, computed and encoded over the
        // resident arena worker by worker until the decoder completes.
        // (The cyclic-repetition decoder solves for its coefficients and
        // then takes a weighted sum.)
        let scheme = experiment.scheme();
        let units = UnitMap::grouped(num_examples, n);
        let packed = WorkerBlocks::build(scheme, &units, experiment.dataset());
        let ctx = RoundContext {
            scheme,
            units: &units,
            data: experiment.dataset(),
            loss: &LogisticLoss,
            packed: &packed,
            minibatch: experiment.minibatch(),
        };
        let selection = ctx.selection_for(0);
        let w = eval_point(cell.dim);
        let mut scratch = GradScratch::new();
        let mut decoder = scheme.decoder();
        for worker in 0..n {
            if decoder.is_complete() {
                break;
            }
            let payload = ctx
                .compute_and_encode_selected(worker, &w, &mut scratch, selection.as_ref())
                .expect("resident encode succeeds");
            decoder
                .receive(worker, payload)
                .expect("fresh decoder accepts each worker once");
        }
        assert!(decoder.is_complete(), "all workers reported");
        let rows_per_sweep = sweep_rows(scheme, &units, selection.as_ref());

        let mut decode_seconds = f64::INFINITY;
        for _ in 0..self.decode_reps.max(1) {
            let t = Instant::now();
            std::hint::black_box(decoder.decode().expect("decode"));
            decode_seconds = decode_seconds.min(t.elapsed().as_secs_f64());
        }

        ScaleCellRow {
            workers: n,
            dim: cell.dim,
            mode: cell.mode().to_string(),
            examples: num_examples,
            minibatch_units: cell.minibatch,
            rows_per_sweep,
            decode_seconds,
            simulated_seconds_per_round: report.metrics.avg_round_time(),
            avg_messages_used: report.metrics.avg_recovery_threshold(),
        }
    }

    fn key(row: &ScaleCellRow) -> String {
        format!("n{} d{} {}", row.workers, row.dim, row.mode)
    }

    /// Keyed on [`ScaleGrid`] alone: the host-timing knob (`decode_reps`)
    /// differs between `--fast` and full runs by design and never
    /// influences the gated metrics.
    fn comparable(&self, current: &Self) -> Result<(), String> {
        if self.grid == current.grid {
            return Ok(());
        }
        Err(format!(
            "baseline and current grids differ — baseline {:?} vs current {:?}; \
             the swept grid must match for cells to compare",
            self.grid, current.grid
        ))
    }

    /// Unlike the sweeps' dumps, this one survives `--fast`: the grid (and
    /// with it every spec) is identical between fast and full runs.
    fn cell_spec(&self, cell: &ScaleCell) -> Option<(String, ExperimentSpec)> {
        Some((cell.name(), self.grid.cell_spec(cell)))
    }

    fn render(result: &ScaleBenchResult) -> Table {
        let mut table = Table::new(
            format!(
                "data-path scaling, {} cells (host threads: {})",
                result.rows.len(),
                result.host_threads.unwrap_or(1)
            ),
            &["cell", "examples", "decode ms", "sim s/round", "K (msgs)"],
        );
        for row in &result.rows {
            table.push_row(vec![
                format!("n{} d{} {}", row.workers, row.dim, row.mode),
                row.examples.to_string(),
                format!("{:.3}", row.decode_seconds * 1e3),
                format!("{:.3}", row.simulated_seconds_per_round),
                f1(row.avg_messages_used),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::run;

    fn tiny() -> ScaleBenchConfig {
        ScaleBenchConfig {
            grid: ScaleGrid {
                workers: vec![8, 12],
                dims: vec![3],
                points_per_unit: 2,
                r: 3,
                minibatch_divisor: 4,
                rounds: 2,
                seed: 11,
            },
            decode_reps: 1,
        }
    }

    #[test]
    fn grid_enumerates_full_and_minibatch_cells() {
        let grid = ScaleBenchConfig::default_config().grid;
        let cells = grid.cells();
        assert_eq!(cells.len(), 18, "3 n × 3 dim × 2 modes");
        assert_eq!(cells[0].mode(), "full");
        assert_eq!(cells[1].mode(), "minibatch");
        assert_eq!(cells[1].minibatch, Some(12), "50 units / 4");
        let spec = grid.cell_spec(&cells[1]);
        assert_eq!(spec.data.minibatch(), Some(12));
        assert_eq!(spec.units, 50);
    }

    #[test]
    fn tiny_grid_produces_sane_rows() {
        let result = run(&tiny());
        assert_eq!(result.rows.len(), 4, "2 n × 1 dim × 2 modes");
        for row in &result.rows {
            assert!(row.decode_seconds > 0.0, "{row:?}");
            assert!(row.simulated_seconds_per_round > 0.0, "{row:?}");
        }
        let full = result.find("n8 d3 full").unwrap();
        let mini = result.find("n8 d3 minibatch").unwrap();
        assert_eq!(mini.minibatch_units, Some(2));
        assert!(
            mini.rows_per_sweep < full.rows_per_sweep,
            "minibatch sweeps touch fewer rows"
        );
        assert_eq!(result.schema, "bcc/bench_scale/v3");
        assert!(result.host_threads.is_some() && result.threads_used.is_none());
        assert_eq!(ScaleBenchConfig::render(&result).len(), 4);
    }

    #[test]
    fn fast_mode_keeps_the_grid_and_the_simulated_metrics() {
        assert_eq!(
            ScaleBenchConfig::fast().grid,
            ScaleBenchConfig::default_config().grid,
            "--fast must stay gate-comparable against the full artifact"
        );
        let mut fast = tiny();
        fast.decode_reps = 2;
        let a = run(&tiny());
        let b = run(&fast);
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(
                ra.simulated_seconds_per_round.to_bits(),
                rb.simulated_seconds_per_round.to_bits(),
                "simulated metrics are rep-invariant"
            );
            assert_eq!(ra.avg_messages_used, rb.avg_messages_used);
            assert_eq!(ra.rows_per_sweep, rb.rows_per_sweep);
        }
    }
}
