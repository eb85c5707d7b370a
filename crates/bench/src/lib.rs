//! Benchmark harness: regenerates every table and figure of the paper.
//!
//! The experiment implementations live here, behind the `repro` binary's
//! targets. Each experiment returns serializable rows mirroring the paper's
//! table/figure, plus helpers that render them as console tables and JSON.
//!
//! | experiment | paper artifact | entry point |
//! |---|---|---|
//! | tradeoff | Fig. 2 | [`experiments::fig2::run`] |
//! | runtime comparison | Fig. 4 | [`experiments::scenario::run_figure4`] |
//! | scenario-one breakdown | Table I | [`experiments::scenario::run`] with [`experiments::scenario::ScenarioConfig::scenario_one`] |
//! | scenario-two breakdown | Table II | [`experiments::scenario::run`] with [`experiments::scenario::ScenarioConfig::scenario_two`] |
//! | heterogeneous cluster | Fig. 5 | [`experiments::fig5::run`] |
//!
//! The experiments behind the `BENCH_*.json` perf/behaviour trajectory are
//! [`grid::Grid`] declarations listed in [`experiments::GRIDS`]; the cell
//! pool, artifact I/O, spec dumps, the [`gate`] comparison and `repro`'s
//! targets are derived from that table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gate;
pub mod grid;
pub mod report;
