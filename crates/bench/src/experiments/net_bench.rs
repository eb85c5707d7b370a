//! The networked-backend benchmark behind `repro net` —
//! `BENCH_net.json`.
//!
//! Runs a small round grid on [`bcc_net::LocalNetCluster`] (real loopback
//! TCP sockets, one worker thread per participant), each cell **twice** —
//! once on the serial write-per-peer reference path and once on the
//! pipelined fan-out (writer threads, pooled frames, speculative
//! next-round broadcast) — plus a virtual twin, and records three kinds
//! of numbers per cell:
//!
//! * **Simulated metrics** — messages used, communication units, a
//!   `gradients_match_virtual` flag pinned against the virtual backend,
//!   and `pipelined_matches_serial`, the tentpole contract that
//!   pipelining is a pure latency optimisation. On the staircase latency
//!   profile these are deterministic, so the perf gate compares them
//!   exactly like the policy/scale artifacts: drift is a *behaviour*
//!   change, not host noise.
//! * **Transport observables** — per-round wall times for both paths and
//!   the derived `pipelined_speedup`, broadcast wall, queue depth, flush
//!   and backpressure counts, bytes and frames on the wire, death /
//!   reconnect / stale-frame counts. These describe the TCP stack and
//!   the host; they are recorded for trajectory plots but never gated.
//!
//! Cells: the uncoded baseline, BCC at `r = 2` (early stopping over a
//! real socket), a mid-round worker death under `best-effort-all`, and —
//! with [`NetBenchConfig::wan`] — WAN twins of the first two, where a
//! deterministic [`WanLinkModel`] injects per-link latency and quantized
//! jitter into the shared delay stream on both the TCP run and its
//! virtual twin.

use crate::grid::{Artifact, Grid, Options};
use crate::report::{f1, f3, Table};
use bcc_cluster::backend::FixedPointDriver;
use bcc_cluster::{
    straggler, BackendConfig, BestEffortAll, ClusterBackend, ClusterProfile, CommModel,
    RoundOutcome, UnitMap, VirtualCluster, WanLinkModel, WorkerProfile,
};
use bcc_coding::{BccScheme, GradientCodingScheme, UncodedScheme};
use bcc_data::synthetic::{generate, SyntheticConfig};
use bcc_net::LocalNetCluster;
use bcc_optim::LogisticLoss;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of one networked-backend benchmark run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetBenchConfig {
    /// Number of workers `n`.
    pub workers: usize,
    /// Number of coding units `m`.
    pub units: usize,
    /// Data points per unit.
    pub points_per_unit: usize,
    /// Feature dimension.
    pub dim: usize,
    /// Rounds per cell (one worker fleet serves all of them).
    pub rounds: usize,
    /// Wall seconds per simulated second of injected latency.
    pub time_scale: f64,
    /// Master seed shared by the TCP run and its virtual twin.
    pub seed: u64,
    /// Include the WAN-profile cells (`repro net --wan`): per-link base
    /// latency in simulated seconds…
    pub wan_latency: f64,
    /// …and the deterministic jitter amplitude around it. Both zero =
    /// no WAN cells.
    pub wan_jitter: f64,
}

impl NetBenchConfig {
    /// Default: 6 workers × 8 rounds at a 0.2 time scale (≲ 1 s of
    /// injected latency per cell), no WAN cells.
    #[must_use]
    pub fn default_config() -> Self {
        Self {
            workers: 6,
            units: 6,
            points_per_unit: 10,
            dim: 8,
            rounds: 8,
            time_scale: 0.2,
            seed: 2024,
            wan_latency: 0.0,
            wan_jitter: 0.0,
        }
    }

    /// Smoke configuration: same grid, fewer rounds.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            rounds: 3,
            ..Self::default_config()
        }
    }

    /// The `--wan` grid: default cells plus WAN twins with 0.1 s of
    /// simulated per-link latency ± 0.05 s of deterministic jitter.
    #[must_use]
    pub fn wan() -> Self {
        Self {
            wan_latency: 0.1,
            wan_jitter: 0.05,
            ..Self::default_config()
        }
    }

    /// Whether the WAN cells are part of the grid.
    #[must_use]
    pub fn has_wan(&self) -> bool {
        self.wan_latency > 0.0 || self.wan_jitter > 0.0
    }

    /// Deterministic staircase latency: per-worker shifts spaced 0.05
    /// simulated seconds apart in scrambled order, exponential tail
    /// negligible (`mu = 1e4`) — real-time arrival order is unambiguous,
    /// which is what makes the simulated metrics gateable.
    #[must_use]
    pub fn profile(&self) -> ClusterProfile {
        ClusterProfile {
            workers: (0..self.workers)
                .map(|i| WorkerProfile {
                    mu: 1e4,
                    a: 0.05 * (((i * 5) % self.workers) + 1) as f64,
                })
                .collect(),
            comm: CommModel {
                per_message_overhead: 0.001,
                per_unit: 0.001,
            },
        }
    }
}

/// One benchmark cell: a (scheme, policy, fault, link) point measured
/// over TCP on both fan-out paths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetCellRow {
    /// Cell name (`uncoded` / `bcc-r2` / `death-best-effort` /
    /// `uncoded-wan` / `bcc-r2-wan`).
    pub cell: String,
    /// Scheme in force.
    pub scheme: String,
    /// Aggregation policy in force.
    pub policy: String,
    /// Whether a [`WanLinkModel`] shaped this cell's delay stream.
    pub wan: bool,
    /// Rounds measured.
    pub rounds: usize,
    /// Mean messages used per round — **gated** (deterministic on the
    /// staircase profile).
    pub avg_messages_used: f64,
    /// Mean communication units per round — deterministic companion.
    pub avg_communication_units: f64,
    /// Whether every pipelined round's decoded gradient matched the
    /// virtual twin bit for bit — the cross-backend equivalence contract
    /// as data. **Gated.**
    pub gradients_match_virtual: bool,
    /// Whether the pipelined path's simulated outcomes (gradients,
    /// message counts, compute accounting) matched the serial reference
    /// path bit for bit — the tentpole contract. **Gated.**
    pub pipelined_matches_serial: bool,
    /// Per-round wall seconds at the master, pipelined path (host time;
    /// not gated).
    pub round_wall_seconds: Vec<f64>,
    /// Mean of [`Self::round_wall_seconds`].
    pub mean_round_wall_seconds: f64,
    /// Mean per-round wall seconds on the serial reference path.
    pub serial_mean_round_wall_seconds: f64,
    /// `serial_mean_round_wall_seconds / mean_round_wall_seconds` — the
    /// wall-clock win from pipelining (> 1 means pipelining is faster;
    /// host-dependent, not gated).
    pub pipelined_speedup: f64,
    /// Spread (max − min) of the pipelined per-round walls — the jitter
    /// the writer-thread fan-out is meant to keep bounded.
    pub wall_jitter_seconds: f64,
    /// Wall seconds the master spent fanning rounds out (cumulative over
    /// the cell, pipelined path).
    pub broadcast_wall_seconds: f64,
    /// Deepest send-queue occupancy any writer observed (pipelined path).
    pub max_queue_depth: u64,
    /// Writer-thread socket flushes (coalescing makes this ≤ frames).
    pub flushes: u64,
    /// Broadcasts that hit a full send queue (pipelined path).
    pub backpressure_events: u64,
    /// Data frames for settled rounds / superseded epochs — credited,
    /// never decoded.
    pub stale_frames: u64,
    /// Bytes the master wrote to worker sockets.
    pub bytes_sent: u64,
    /// Bytes the master read from worker sockets.
    pub bytes_received: u64,
    /// Frames the master sent.
    pub frames_sent: u64,
    /// Frames the master received.
    pub frames_received: u64,
    /// Worker deaths detected during the cell.
    pub deaths: u64,
    /// Worker reconnects admitted during the cell.
    pub reconnects: u64,
}

/// The artifact behind `BENCH_net.json` (schema `bcc/bench_net/v2`).
pub type NetBenchResult = Artifact<NetBenchConfig>;

pub use crate::grid::run;

impl NetBenchResult {
    /// The row for `cell`, if measured.
    #[must_use]
    pub fn row(&self, cell: &str) -> Option<&NetCellRow> {
        self.find(cell)
    }
}

/// One benchmark cell before it is measured.
#[derive(Debug)]
pub struct Cell {
    name: &'static str,
    scheme: Box<dyn GradientCodingScheme>,
    policy: &'static str,
    /// `(worker, round)` at which a worker drops its connection.
    fail_at: Option<(usize, u64)>,
    /// Shape the delay stream through a WAN link model.
    wan: bool,
}

fn cells(cfg: &NetBenchConfig) -> Vec<Cell> {
    // 3 batches at r = 2: workers 0..3 pick batches 0,1,2 and workers
    // 3..6 pick 2,1,0 — every batch double-covered.
    let bcc_choices = |cfg: &NetBenchConfig| -> Vec<usize> {
        (0..cfg.workers)
            .map(|w| {
                if w < cfg.workers / 2 {
                    w % 3
                } else {
                    2 - (w % 3)
                }
            })
            .collect()
    };
    let mut cells = vec![
        Cell {
            name: "uncoded",
            scheme: Box::new(UncodedScheme::new(cfg.units, cfg.workers)),
            policy: "wait-decodable",
            fail_at: None,
            wan: false,
        },
        Cell {
            name: "bcc-r2",
            scheme: Box::new(BccScheme::from_choices(cfg.workers, 2, bcc_choices(cfg))),
            policy: "wait-decodable",
            fail_at: None,
            wan: false,
        },
        Cell {
            name: "death-best-effort",
            scheme: Box::new(UncodedScheme::new(cfg.units, cfg.workers)),
            policy: "best-effort-all",
            fail_at: Some((3, 0)),
            wan: false,
        },
    ];
    if cfg.has_wan() {
        cells.push(Cell {
            name: "uncoded-wan",
            scheme: Box::new(UncodedScheme::new(cfg.units, cfg.workers)),
            policy: "wait-decodable",
            fail_at: None,
            wan: true,
        });
        cells.push(Cell {
            name: "bcc-r2-wan",
            scheme: Box::new(BccScheme::from_choices(cfg.workers, 2, bcc_choices(cfg))),
            policy: "wait-decodable",
            fail_at: None,
            wan: true,
        });
    }
    cells
}

fn gradients_match(net: &[RoundOutcome], virt: &[RoundOutcome]) -> bool {
    net.len() == virt.len()
        && net.iter().zip(virt).all(|(n, v)| {
            n.gradient_sum.len() == v.gradient_sum.len()
                && n.gradient_sum
                    .iter()
                    .zip(&v.gradient_sum)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

/// Full simulated-outcome identity between the two fan-out paths:
/// gradients, message counts, communication load, and compute accounting
/// (wall-clock fields excluded).
fn outcomes_identical(a: &[RoundOutcome], b: &[RoundOutcome]) -> bool {
    gradients_match(a, b)
        && a.iter().zip(b).all(|(x, y)| {
            x.metrics.messages_used == y.metrics.messages_used
                && x.metrics.communication_units == y.metrics.communication_units
                && x.metrics.compute_time.to_bits() == y.metrics.compute_time.to_bits()
        })
}

struct NetRun {
    outcomes: Vec<RoundOutcome>,
    stats: bcc_net::NetStats,
    round_wall_seconds: Vec<f64>,
}

impl Grid for NetBenchConfig {
    type Cell = Cell;
    type Row = NetCellRow;

    const TARGET: &'static str = "net";
    const ARTIFACT: &'static str = "net";
    const VERSION: u32 = 2;
    const BACKEND: Option<&'static str> = Some("tcp-local");
    /// Messages per round are deterministic on the staircase profile, so
    /// drift is a protocol-behaviour change; wall times and byte counts
    /// ride along ungated — loopback TCP timing is host property.
    const GATED: (&'static str, &'static str) = ("avg_messages_used", "messages/round");
    const CLAIM: &'static str =
        "every cell has `gradients_match_virtual` and `pipelined_matches_serial`";

    fn config(options: Options) -> Self {
        let mut cfg = options.pick(Self::default_config, Self::fast);
        if options.wan {
            let wan = Self::wan();
            cfg.wan_latency = wan.wan_latency;
            cfg.wan_jitter = wan.wan_jitter;
        }
        cfg
    }

    fn cells(&self) -> Vec<Cell> {
        cells(self)
    }

    /// Runs one cell on loopback TCP — serial and pipelined fan-out — plus
    /// its virtual twin.
    fn run_cell(&self, cell: &Cell) -> NetCellRow {
        let cfg = self;
        let num_examples = cfg.units * cfg.points_per_unit;
        let data = generate(&SyntheticConfig::small(num_examples, cfg.dim, cfg.seed)).dataset;
        let units = UnitMap::grouped(num_examples, cfg.units);
        let profile = cfg.profile();
        let weights = vec![0.0; cfg.dim];
        let mut model = straggler::default_model(&profile);
        if cell.wan {
            model = Arc::new(WanLinkModel::wrap(model, cfg.wan_latency, cfg.wan_jitter));
        }
        let backend_config = || {
            let config = BackendConfig::new().straggler_model(Arc::clone(&model));
            if cell.policy == "best-effort-all" {
                config.aggregation_policy(Arc::new(BestEffortAll))
            } else {
                config
            }
        };

        let run_over_tcp = |pipelined: bool| {
            let mut net = LocalNetCluster::new(profile.clone(), cfg.seed, cfg.time_scale)
                .configured(backend_config().pipelining(pipelined));
            if let Some((worker, round)) = cell.fail_at {
                net.fail_worker_at(worker, round);
            }
            let mut driver = FixedPointDriver::new(weights.clone());
            net.run_rounds(
                cfg.rounds,
                cell.scheme.as_ref(),
                &units,
                &data,
                &LogisticLoss,
                &mut driver,
            )
            .unwrap_or_else(|e| {
                panic!(
                    "net cell `{}` ({} path) failed: {e}",
                    cell.name,
                    if pipelined { "pipelined" } else { "serial" }
                )
            });
            let round_wall_seconds = driver
                .outcomes
                .iter()
                .map(|o| o.metrics.total_time * cfg.time_scale)
                .collect();
            NetRun {
                outcomes: driver.outcomes,
                stats: net.last_net_stats().expect("stats after a run"),
                round_wall_seconds,
            }
        };
        let serial = run_over_tcp(false);
        let pipelined = run_over_tcp(true);

        let mut virt = VirtualCluster::new(profile.clone(), cfg.seed).configured(backend_config());
        if let Some((worker, _)) = cell.fail_at {
            // The virtual twin has no mid-round socket to drop; killing
            // the worker up front yields the same per-round message sets
            // under best-effort aggregation (see tests).
            virt.kill_workers([worker]);
        }
        let mut virt_driver = FixedPointDriver::new(weights.clone());
        virt.run_rounds(
            cfg.rounds,
            cell.scheme.as_ref(),
            &units,
            &data,
            &LogisticLoss,
            &mut virt_driver,
        )
        .unwrap_or_else(|e| panic!("virtual twin of `{}` failed: {e}", cell.name));

        let outcomes = &pipelined.outcomes;
        let n = outcomes.len() as f64;
        let mean_round_wall_seconds = pipelined.round_wall_seconds.iter().sum::<f64>() / n;
        let serial_mean_round_wall_seconds =
            serial.round_wall_seconds.iter().sum::<f64>() / serial.outcomes.len().max(1) as f64;
        let wall_jitter_seconds = pipelined
            .round_wall_seconds
            .iter()
            .fold(f64::NEG_INFINITY, |a, &b| a.max(b))
            - pipelined
                .round_wall_seconds
                .iter()
                .fold(f64::INFINITY, |a, &b| a.min(b));
        NetCellRow {
            cell: cell.name.to_string(),
            scheme: cell.scheme.name().to_string(),
            policy: cell.policy.to_string(),
            wan: cell.wan,
            rounds: outcomes.len(),
            avg_messages_used: outcomes
                .iter()
                .map(|o| o.metrics.messages_used as f64)
                .sum::<f64>()
                / n,
            avg_communication_units: outcomes
                .iter()
                .map(|o| o.metrics.communication_units as f64)
                .sum::<f64>()
                / n,
            gradients_match_virtual: gradients_match(outcomes, &virt_driver.outcomes),
            pipelined_matches_serial: outcomes_identical(outcomes, &serial.outcomes),
            mean_round_wall_seconds,
            serial_mean_round_wall_seconds,
            pipelined_speedup: serial_mean_round_wall_seconds / mean_round_wall_seconds,
            wall_jitter_seconds,
            broadcast_wall_seconds: pipelined.stats.broadcast_wall_seconds(),
            max_queue_depth: pipelined.stats.max_queue_depth,
            flushes: pipelined.stats.flushes,
            backpressure_events: pipelined.stats.backpressure_events,
            stale_frames: pipelined.stats.stale_frames,
            bytes_sent: pipelined.stats.bytes_sent,
            bytes_received: pipelined.stats.bytes_received,
            frames_sent: pipelined.stats.frames_sent,
            frames_received: pipelined.stats.frames_received,
            deaths: pipelined.stats.deaths,
            reconnects: pipelined.stats.reconnects,
            round_wall_seconds: pipelined.round_wall_seconds,
        }
    }

    fn key(row: &NetCellRow) -> String {
        row.cell.clone()
    }

    /// A backend that diverges from its own references has no baseline
    /// worth comparing against.
    fn claim(current: &NetBenchResult) -> Result<(), String> {
        if let Some(broken) = current.rows.iter().find(|r| !r.gradients_match_virtual) {
            return Err(format!(
                "cell `{}` no longer matches the virtual backend bit for bit — \
                 cross-backend equivalence must hold before perf is worth comparing",
                broken.cell
            ));
        }
        if let Some(broken) = current.rows.iter().find(|r| !r.pipelined_matches_serial) {
            return Err(format!(
                "cell `{}`'s pipelined fan-out no longer reproduces the serial path — \
                 pipelining must stay a pure latency optimisation",
                broken.cell
            ));
        }
        Ok(())
    }

    fn render(result: &NetBenchResult) -> Table {
        let mut t = Table::new(
        format!(
            "networked backend — {} rounds/cell over loopback TCP (time scale {}), serial vs pipelined fan-out",
            result.config.rounds, result.config.time_scale
        ),
        &[
            "cell",
            "scheme",
            "policy",
            "msgs/round",
            "wall s/round",
            "serial s/round",
            "speedup",
            "queue",
            "flushes",
            "deaths",
            "pipelined = serial",
            "grad = virtual",
        ],
    );
        for r in &result.rows {
            t.push_row(vec![
                r.cell.clone(),
                r.scheme.clone(),
                r.policy.clone(),
                f1(r.avg_messages_used),
                f3(r.mean_round_wall_seconds),
                f3(r.serial_mean_round_wall_seconds),
                format!("{:.2}x", r.pipelined_speedup),
                r.max_queue_depth.to_string(),
                r.flushes.to_string(),
                r.deaths.to_string(),
                if r.pipelined_matches_serial {
                    "yes".into()
                } else {
                    "NO".into()
                },
                if r.gradients_match_virtual {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-round wall jitter budget (seconds) asserted on fault-free
    /// cells: generous against scheduler noise on a 1-core runner, tight
    /// against the ~0.35 s blocking-write outliers the writer-thread
    /// fan-out eliminated.
    const WALL_JITTER_BUDGET_SECONDS: f64 = 0.3;

    #[test]
    fn fast_grid_measures_all_cells_and_matches_both_references() {
        let cfg = NetBenchConfig::fast();
        let result = run(&cfg);
        assert_eq!(result.schema, "bcc/bench_net/v2");
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows {
            assert_eq!(row.rounds, cfg.rounds);
            assert!(
                row.gradients_match_virtual,
                "cell `{}` must match the virtual twin",
                row.cell
            );
            assert!(
                row.pipelined_matches_serial,
                "cell `{}`: pipelining must not change simulated outcomes",
                row.cell
            );
            assert!(row.bytes_sent > 0 && row.bytes_received > 0);
            assert_eq!(row.round_wall_seconds.len(), cfg.rounds);
            assert!(row.serial_mean_round_wall_seconds > 0.0);
            assert!(row.pipelined_speedup.is_finite() && row.pipelined_speedup > 0.0);
            assert!(row.broadcast_wall_seconds > 0.0);
            assert!(row.flushes > 0, "writer threads flush every burst");
            assert!(row.max_queue_depth >= 1);
            // Jitter budgets apply only without injected faults: a
            // mid-round death legitimately shifts one round's wall.
            if row.deaths == 0 {
                assert!(
                    row.wall_jitter_seconds <= WALL_JITTER_BUDGET_SECONDS,
                    "cell `{}`: round walls {:?} spread beyond the {WALL_JITTER_BUDGET_SECONDS} s \
                     jitter budget — a blocking-write stall is back",
                    row.cell,
                    row.round_wall_seconds,
                );
            }
        }
        // The uncoded baseline uses everyone; BCC stops early.
        let uncoded = result.row("uncoded").unwrap();
        assert!((uncoded.avg_messages_used - cfg.workers as f64).abs() < 1e-12);
        let bcc = result.row("bcc-r2").unwrap();
        assert!(bcc.avg_messages_used < cfg.workers as f64);
        // The death cell actually died.
        let death = result.row("death-best-effort").unwrap();
        assert_eq!(death.deaths, 1);
        assert!((death.avg_messages_used - (cfg.workers - 1) as f64).abs() < 1e-12);
    }

    #[test]
    fn wan_cells_stay_deterministic_under_injected_latency() {
        let cfg = NetBenchConfig {
            rounds: 2,
            ..NetBenchConfig::wan()
        };
        assert!(cfg.has_wan());
        let result = run(&cfg);
        assert_eq!(result.rows.len(), 5);
        for name in ["uncoded-wan", "bcc-r2-wan"] {
            let row = result.row(name).unwrap();
            assert!(row.wan);
            assert!(row.gradients_match_virtual, "`{name}` vs virtual");
            assert!(row.pipelined_matches_serial, "`{name}` vs serial");
            // The injected link latency genuinely slows the rounds.
            let lan = result.row(name.trim_end_matches("-wan")).unwrap();
            assert!(
                row.mean_round_wall_seconds
                    > lan.mean_round_wall_seconds + 0.5 * cfg.wan_latency * cfg.time_scale,
                "`{name}` must be visibly slower than its LAN twin \
                 ({} vs {} wall s/round)",
                row.mean_round_wall_seconds,
                lan.mean_round_wall_seconds,
            );
        }
    }
}
