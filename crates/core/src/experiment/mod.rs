//! The declarative experiment API.
//!
//! Three pieces, layered:
//!
//! * [`ExperimentSpec`] — the serde-able description of one experiment
//!   (workers, units, scheme-by-name, data, latency, backend, loss,
//!   optimizer, seed). Specs round-trip through JSON, so scenarios are
//!   *data*: `repro scenario <spec.json>` replays any of them with no Rust
//!   changes.
//! * [`SchemeRegistry`] — an open name → factory map, one instantiation of
//!   the generic [`Registry`] that also backs the policy, mode, and
//!   controller registries ([`Registries`] bundles the four). The built-in
//!   registrations are the paper's comparison set (six `bcc_coding`
//!   schemes, one `register` call each); downstream code registers custom
//!   schemes under new names.
//! * [`Experiment`] / [`ExperimentBuilder`] — typed wiring + validation.
//!   Every structural constraint (`m = n` for the cyclic codes, `r | n` for
//!   fractional repetition, placement coverage, profile/worker agreement)
//!   surfaces as a [`BuildError`] variant instead of a panic.
//!
//! ```
//! use bcc_core::experiment::{DataSpec, Experiment, SchemeSpec};
//!
//! let report = Experiment::builder()
//!     .workers(10)
//!     .units(10)
//!     .scheme(SchemeSpec::with_load("bcc", 2))
//!     .data(DataSpec::synthetic(5, 4))
//!     .iterations(5)
//!     .seed(7)
//!     .build()?
//!     .run()?;
//! assert!(report.metrics.avg_recovery_threshold() <= 10.0);
//! # Ok::<(), bcc_core::BccError>(())
//! ```

mod builder;
mod error;
pub mod net_worker;
mod registry;
mod spec;

pub use bcc_control::{ChosenPolicy, ControlRecord};
pub use builder::{Experiment, ExperimentBuilder, ExperimentReport};
pub use error::BuildError;
pub use net_worker::run_worker;
pub use registry::{
    ControllerFactory, ControllerRegistry, ModeFactory, ModeRegistry, PolicyFactory,
    PolicyRegistry, Registries, Registry, SchemeFactory, SchemeRegistry,
};
pub use spec::{
    BackendSpec, ControllerSpec, DataSpec, ExperimentSpec, LatencySpec, LossSpec, ModeSpec,
    NetProfileSpec, OptimizerSpec, PolicySpec, SchemeSpec,
};
