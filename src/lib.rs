//! # bcc — Batched Coupon's Collector
//!
//! Facade crate for the reproduction of *"Near-Optimal Straggler Mitigation
//! for Distributed Gradient Methods"* (Li, Mousavi Kalan, Avestimehr,
//! Soltanolkotabi — IPPS 2018, arXiv:1710.09990).
//!
//! Re-exports every subsystem under one namespace; see the README for the
//! architecture map (crate graph, engine/adapter split) and the `bcc_bench`
//! crate docs for the per-experiment index.
//!
//! ## One experiment, declaratively
//!
//! The public API is the typed [`Experiment`](experiment::Experiment)
//! builder: describe the scenario, let the library own all wiring and
//! validation, run it. Every builder chain resolves to a serde-able
//! [`ExperimentSpec`](experiment::ExperimentSpec), so the same scenario
//! replays from a JSON file via `repro scenario <spec.json>` — scenarios
//! are data, not code.
//!
//! ```
//! use bcc::experiment::{BackendSpec, DataSpec, Experiment, LatencySpec};
//! use bcc::experiment::{LossSpec, OptimizerSpec, PolicySpec, SchemeSpec};
//!
//! # fn main() -> Result<(), bcc::BccError> {
//! // The paper's comparison at laptop scale: 10 workers, 10 coding units,
//! // BCC at computational load r = 2, EC2-like stragglers.
//! let experiment = Experiment::builder()
//!     .name("quick tour")
//!     .workers(10)
//!     .units(10)
//!     .scheme(SchemeSpec::with_load("bcc", 2))
//!     .data(DataSpec::synthetic(10, 8))
//!     .latency(LatencySpec::Ec2Like)
//!     .backend(BackendSpec::Virtual)
//!     .loss(LossSpec::Logistic)
//!     .optimizer(OptimizerSpec::nesterov(0.5))
//!     .iterations(10)
//!     .seed(7)
//!     .build()?; // constraint violations are typed `BuildError`s, not panics
//!
//! let report = experiment.run()?;
//!
//! // The master did not wait for everyone …
//! assert!(report.metrics.avg_recovery_threshold() < 10.0);
//! // … yet training converged: the decoded gradients are exact.
//! assert!(report.trace.improved());
//!
//! // The scenario as data — replayable via `repro scenario`:
//! let json = report.spec.to_json_pretty().expect("specs serialize");
//! assert_eq!(bcc::experiment::ExperimentSpec::from_json(&json).unwrap(), report.spec);
//!
//! // Round completion is a pluggable *aggregation policy*. The default is
//! // the paper's exact master (`wait-decodable`); here the master instead
//! // stops after the fastest 6 workers and trains on an unbiased,
//! // coverage-rescaled estimate (see `repro list` for all builtins).
//! let fastest = Experiment::builder()
//!     .workers(10)
//!     .units(10)
//!     .scheme(SchemeSpec::named("uncoded"))
//!     .data(DataSpec::synthetic(10, 8))
//!     .policy(PolicySpec::fastest_k(6))
//!     .iterations(10)
//!     .seed(7)
//!     .build()?
//!     .run()?;
//! assert_eq!(fastest.metrics.avg_recovery_threshold(), 6.0);
//! // Per-round coverage and gradient-error norms land in the samples:
//! assert!(fastest.round_samples.iter().all(|s| !s.exact));
//! assert!(fastest.round_samples.iter().all(|s| s.covered_units == 6));
//! assert!(fastest.round_samples.iter().all(|s| s.gradient_error.unwrap() > 0.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use bcc_cluster as cluster;
pub use bcc_coding as coding;
pub use bcc_core as core;
pub use bcc_data as data;
pub use bcc_linalg as linalg;
pub use bcc_net as net;
pub use bcc_optim as optim;
pub use bcc_stats as stats;

pub use bcc_core::experiment;
pub use bcc_core::BccError;
