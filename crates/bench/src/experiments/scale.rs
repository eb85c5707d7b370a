//! The data-path scaling benchmark behind `BENCH_scale.json` —
//! `repro scale`.
//!
//! Sweeps a grid of `n` workers × feature dimension × {full, minibatch}
//! rounds and measures, per cell:
//!
//! * **Streaming compute throughput** (the headline, in gradient-example
//!   evaluations per second): every worker's compute + encode sweep through
//!   a [`StreamedContext`] over a [`ChunkedDataset`] whose live-chunk
//!   window is bounded, so peak memory stays independent of the example
//!   count. The chunk size tiles the coding units, so every unit read is a
//!   zero-copy alias of a live chunk.
//! * **Server-side decode, serial vs parallel**: the same completed
//!   decoder drained through [`DecodePool::serial`] and
//!   [`DecodePool::threads`], asserted **bit-identical** before timing —
//!   the determinism contract of the parallel column reduction. The
//!   speedup column is only meaningful on multi-core hosts; the result
//!   records [`host_threads`](ScaleBenchResult::host_threads) so a
//!   single-core CI reading (speedup ≈ 1) is not mistaken for a
//!   regression.
//! * **Simulated round metrics** from a replayable [`ExperimentSpec`]
//!   (virtual backend, fixed-point rounds). These are deterministic in the
//!   spec seed — identical across hosts, thread counts, and `--fast` — and
//!   are what the perf gate compares, so drift means a behaviour change,
//!   never host noise.
//!
//! `--fast` trims only the host-timing repetitions
//! ([`ScaleBenchConfig::stream_reps`] / [`decode_reps`]); the grid — and
//! with it every simulated metric and every persisted cell spec — is
//! unchanged, which is why the gate can compare a `--fast` snapshot
//! against the committed full artifact (it keys config equality on
//! [`ScaleGrid`] alone).
//!
//! [`decode_reps`]: ScaleBenchConfig::decode_reps

use crate::grid::{run_spec, Artifact, Grid, Options};
use crate::report::{f1, Table};
use bcc_cluster::{DecodePool, Minibatch, StreamedContext, UnitMap, UnitSelection};
use bcc_coding::{CyclicRepetitionScheme, GradientCodingScheme, Payload};
use bcc_core::experiment::{DataSpec, ExperimentSpec, OptimizerSpec, SchemeSpec};
use bcc_data::synthetic::SyntheticConfig;
use bcc_data::ChunkedDataset;
use bcc_optim::{GradScratch, LogisticLoss};
use bcc_stats::rng::derive_rng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Stream tag for the cyclic-repetition placement RNG (unused by the
/// deterministic CR construction, but fixed so the scheme build is
/// reproducible by contract).
const SCHEME_STREAM: u64 = 0x5CA1E;

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
    /// Live-chunk bound of the streamed dataset (peak resident chunks).
    pub max_live_chunks: usize,
    /// Spec seed.
    pub seed: u64,
}

/// Configuration of one scale-benchmark run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleBenchConfig {
    /// The deterministic grid (the gate's comparison key).
    pub grid: ScaleGrid,
    /// Timed streaming sweeps per cell (minimum is reported).
    pub stream_reps: usize,
    /// Timed decodes per cell and path (minimum is reported).
    pub decode_reps: usize,
    /// Thread budget of the parallel decode path.
    pub decode_threads: usize,
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
                max_live_chunks: 8,
                seed: 2024,
            },
            stream_reps: 3,
            decode_reps: 5,
            decode_threads: 8,
        }
    }

    /// Reduced host-timing repetitions for smoke runs. The grid is
    /// untouched: every deterministic output (simulated metrics, cell
    /// specs) is identical to the full run's, so the gate still compares.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            stream_reps: 1,
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
    /// Gradient-example evaluations per streaming sweep (counts
    /// replication: each selected unit is computed by `r` workers).
    pub rows_per_sweep: usize,
    /// Host seconds of the fastest full streaming compute+encode sweep.
    pub stream_seconds_per_sweep: f64,
    /// The headline: `rows_per_sweep / stream_seconds_per_sweep`.
    pub stream_examples_per_sec: f64,
    /// Chunk materializations during the first sweep (cache misses — shows
    /// the LRU window actually streamed instead of going fully resident).
    pub chunk_materializations: u64,
    /// Live chunks after the sweep (bounded by the grid's
    /// `max_live_chunks`).
    pub live_chunks: usize,
    /// Host seconds of the fastest serial decode of the completed round.
    pub serial_decode_seconds: f64,
    /// Host seconds of the fastest parallel decode (bit-identical result).
    pub parallel_decode_seconds: f64,
    /// `serial / parallel` (≈ 1 on single-core hosts — read with
    /// [`ScaleBenchResult::host_threads`]).
    pub decode_speedup: f64,
    /// Mean simulated round latency (deterministic; gated).
    pub simulated_seconds_per_round: f64,
    /// Mean messages consumed per round (deterministic).
    pub avg_messages_used: f64,
}

/// The full benchmark result (serialized to `BENCH_scale.json`). Records
/// `host_threads` — the context every wall-clock column (and especially
/// `decode_speedup`) must be read in.
pub type ScaleBenchResult = Artifact<ScaleBenchConfig>;

/// Builds the cell's cyclic-repetition scheme. CR keeps the placement
/// deterministic at any `n` (no coverage retry loop) and decodes through
/// the weighted-sum fast path, so the parallel fold is actually exercised.
fn cell_scheme(grid: &ScaleGrid, n: usize) -> CyclicRepetitionScheme {
    let mut rng = derive_rng(grid.seed, SCHEME_STREAM);
    CyclicRepetitionScheme::new(n, grid.r, &mut rng)
}

/// The evaluation point used by every streaming sweep (fixed, seedless).
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
    /// Panics when the cell's spec fails to build or run (the grid is
    /// structurally valid by construction) or when the parallel decode is
    /// not bit-identical to the serial decode — the determinism contract
    /// this benchmark exists to guard.
    fn run_cell(&self, cell: &ScaleCell) -> ScaleCellRow {
        let (config, grid) = (self, &self.grid);
        let n = cell.workers;
        let num_examples = n * grid.points_per_unit;

        // Deterministic, replayable simulated metrics (the gated part).
        let report = run_spec(&grid.cell_spec(cell));

        // Streamed compute+encode throughput over the bounded-memory
        // chunked dataset (chunks tile the units → zero-copy reads).
        let scheme = cell_scheme(grid, n);
        let units = UnitMap::grouped(num_examples, n);
        let chunked = ChunkedDataset::synthetic(
            SyntheticConfig {
                num_examples,
                dim: cell.dim,
                separation: 1.5,
                seed: grid.seed,
            },
            grid.points_per_unit,
            grid.max_live_chunks,
        );
        let selection = cell
            .minibatch
            .map(|k| Minibatch::new(k, grid.seed).select(0, n));
        let ctx = StreamedContext {
            scheme: &scheme,
            units: &units,
            data: &chunked,
            loss: &LogisticLoss,
        };
        let w = eval_point(cell.dim);
        let mut scratch = GradScratch::new();
        let mut stream_best = f64::INFINITY;
        let mut payloads: Vec<Payload> = Vec::new();
        let mut first_sweep_misses = 0;
        for rep in 0..config.stream_reps.max(1) {
            let t = Instant::now();
            let out: Vec<Payload> = (0..n)
                .map(|worker| {
                    ctx.compute_and_encode(worker, &w, &mut scratch, selection.as_ref())
                        .expect("streamed encode succeeds")
                })
                .collect();
            stream_best = stream_best.min(t.elapsed().as_secs_f64());
            if rep == 0 {
                first_sweep_misses = chunked.materializations();
            }
            payloads = out;
        }
        let rows_per_sweep = sweep_rows(&scheme, &units, selection.as_ref());

        // Serial-vs-parallel decode of the completed round, asserted
        // bit-identical before timing.
        let mut decoder = scheme.decoder();
        for (worker, payload) in payloads.iter().enumerate() {
            if decoder.is_complete() {
                break;
            }
            decoder
                .receive(worker, payload.clone())
                .expect("fresh decoder accepts each worker once");
        }
        assert!(decoder.is_complete(), "all workers reported");
        let serial = DecodePool::serial();
        let parallel = DecodePool::threads(config.decode_threads);
        let s_out = serial.decode(&*decoder).expect("serial decode");
        let p_out = parallel.decode(&*decoder).expect("parallel decode");
        assert!(
            s_out.len() == p_out.len()
                && s_out
                    .iter()
                    .zip(&p_out)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
            "parallel decode must be bit-identical to serial \
                 (n={n}, dim={}, mode={})",
            cell.dim,
            cell.mode()
        );
        let mut serial_best = f64::INFINITY;
        let mut parallel_best = f64::INFINITY;
        for _ in 0..config.decode_reps.max(1) {
            let t = Instant::now();
            std::hint::black_box(serial.decode(&*decoder).expect("serial decode"));
            serial_best = serial_best.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            std::hint::black_box(parallel.decode(&*decoder).expect("parallel decode"));
            parallel_best = parallel_best.min(t.elapsed().as_secs_f64());
        }

        ScaleCellRow {
            workers: n,
            dim: cell.dim,
            mode: cell.mode().to_string(),
            examples: num_examples,
            minibatch_units: cell.minibatch,
            rows_per_sweep,
            stream_seconds_per_sweep: stream_best,
            stream_examples_per_sec: rows_per_sweep as f64 / stream_best,
            chunk_materializations: first_sweep_misses,
            live_chunks: chunked.live_chunks(),
            serial_decode_seconds: serial_best,
            parallel_decode_seconds: parallel_best,
            decode_speedup: serial_best / parallel_best,
            simulated_seconds_per_round: report.metrics.avg_round_time(),
            avg_messages_used: report.metrics.avg_recovery_threshold(),
        }
    }

    fn key(row: &ScaleCellRow) -> String {
        format!("n{} d{} {}", row.workers, row.dim, row.mode)
    }

    /// Keyed on [`ScaleGrid`] alone: the host-timing knobs (`stream_reps`
    /// / `decode_reps`) differ between `--fast` and full runs by design
    /// and never influence the gated metrics.
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
            &[
                "cell",
                "examples",
                "stream ex/s",
                "serial dec ms",
                "par dec ms",
                "dec speedup",
                "sim s/round",
                "K (msgs)",
            ],
        );
        for row in &result.rows {
            table.push_row(vec![
                format!("n{} d{} {}", row.workers, row.dim, row.mode),
                row.examples.to_string(),
                format!("{:.3e}", row.stream_examples_per_sec),
                format!("{:.3}", row.serial_decode_seconds * 1e3),
                format!("{:.3}", row.parallel_decode_seconds * 1e3),
                format!("{:.2}x", row.decode_speedup),
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
                max_live_chunks: 3,
                seed: 11,
            },
            stream_reps: 1,
            decode_reps: 1,
            decode_threads: 4,
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
        let cfg = tiny();
        let result = run(&cfg);
        assert_eq!(result.rows.len(), 4, "2 n × 1 dim × 2 modes");
        for row in &result.rows {
            assert!(row.stream_examples_per_sec > 0.0, "{row:?}");
            assert!(row.serial_decode_seconds > 0.0, "{row:?}");
            assert!(row.parallel_decode_seconds > 0.0, "{row:?}");
            assert!(row.simulated_seconds_per_round > 0.0, "{row:?}");
            assert!(
                row.live_chunks <= cfg.grid.max_live_chunks,
                "LRU bound violated: {row:?}"
            );
            assert!(row.chunk_materializations > 0, "{row:?}");
        }
        let full = result.find("n8 d3 full").unwrap();
        let mini = result.find("n8 d3 minibatch").unwrap();
        assert_eq!(mini.minibatch_units, Some(2));
        assert!(
            mini.rows_per_sweep < full.rows_per_sweep,
            "minibatch sweeps touch fewer rows"
        );
        assert_eq!(result.schema, "bcc/bench_scale/v1");
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
        fast.stream_reps = 2;
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
