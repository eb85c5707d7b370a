//! The repo's host-time benchmark: five workloads, each a checked-in
//! [`ExperimentSpec`](bcc_core::ExperimentSpec), measured from outside the
//! program by timing calls into the crates' public items.
//!
//! One process measures one workload. With tracing off it reports the
//! end-to-end metrics ([`measure`]); with tracing on it reports the
//! per-layer metrics ([`layers`]) from a hand-wired, span-recording run
//! ([`wired`], [`trace`]) plus direct calls replayed at the workload's
//! shapes. `main.rs` is the command line; `BENCHMARK.json` at the repo root
//! is the contract the names in [`names`] are tested against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layers;
pub mod measure;
pub mod names;
pub mod procfs;
pub mod report;
pub mod timing;
pub mod trace;
pub mod wired;
pub mod workload;
