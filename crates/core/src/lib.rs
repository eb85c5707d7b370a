//! # bcc-core — the paper's contribution
//!
//! *"Near-Optimal Straggler Mitigation for Distributed Gradient Methods"*
//! (Li, Mousavi Kalan, Avestimehr, Soltanolkotabi).
//!
//! This crate glues the substrates into the paper's system:
//!
//! * [`experiment`] — **the declarative API**: a serde-able
//!   [`ExperimentSpec`], the typed [`Experiment`] builder that owns all
//!   wiring and validation, and the open [`SchemeRegistry`] (name →
//!   factory). Scenarios are data: any experiment replays from a JSON spec
//!   file.
//! * [`theory`] — Theorem 1 quantities: `K_BCC(r) = ⌈m/r⌉·H_{⌈m/r⌉}`, the
//!   `m/r` lower bound, the randomized scheme's `(m/r)·log m`, the coded
//!   schemes' `m − r + 1`, and the Fig. 2 tradeoff table (analytic +
//!   Monte-Carlo).
//! * the round drivers behind [`Experiment::run`] — synchronous (per
//!   iteration the master broadcasts the evaluation point, the cluster
//!   backend runs one coded round, the decoded gradient feeds the optimizer;
//!   Nesterov in the paper's experiments) and stale (SSP/ASGD), both over
//!   a backend's one round loop.
//! * [`hetero`] — §IV, the heterogeneous extension: the shift-exponential
//!   worker model, the P2 load-allocation solver (Lambert-W closed form per
//!   worker + a closed-form target time, following the HCMM structure of
//!   \[16\]), the registry placing generalized BCC and the LB baseline on a
//!   cluster profile ([`hetero::schemes`]), and the Theorem 2 bounds.
//! * [`error`] — [`BccError`], the one error type facade callers match.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
pub mod error;
pub mod experiment;
pub mod hetero;
mod modes;
pub mod theory;

pub use error::BccError;
pub use experiment::{
    BackendSpec, BuildError, ControllerRegistry, ControllerSpec, DataSpec, Experiment,
    ExperimentBuilder, ExperimentReport, ExperimentSpec, LatencySpec, LossSpec, ModeRegistry,
    ModeSpec, NetProfileSpec, OptimizerSpec, PolicyRegistry, PolicySpec, Registries, Registry,
    SchemeRegistry, SchemeSpec,
};
