//! Master/worker cluster runtime for distributed gradient descent.
//!
//! The paper's experiments ran on Amazon EC2 (MPI over t2.micro instances).
//! This workspace substitutes four interchangeable backends behind one
//! trait, [`ClusterBackend`] (see the workspace README's architecture map
//! for why the substitution preserves the paper's effects) — two here, two
//! in `bcc_net`. All four run **one round loop** ([`round_loop`]: packing,
//! validation, the round counter, policy / decode-pool / observer wiring,
//! outcome assembly) over **one protocol engine** ([`engine::RoundEngine`]:
//! decoder feeding, completion detection, stall handling, metrics), and the
//! real-time ones share **one worker body** ([`worker::WorkerStep`]). A
//! backend itself is only session set-up plus a
//! [`round_loop::RoundTransport`], its arrival adapter:
//!
//! * [`VirtualCluster`] — the protocol replayed in virtual time over a
//!   sorted finish-time schedule (event-for-event equal to a discrete-event
//!   queue, because the master's receive port is strictly serial):
//!   deterministic, seedable, and thousands of times faster than real time —
//!   used for the Monte-Carlo parameter sweeps behind every figure.
//! * [`ThreadedCluster`] — a *real* concurrent runtime: one OS thread per
//!   worker, crossbeam channels as the network, a byte-level wire codec
//!   ([`wire`]) for every message, and injected shift-exponential latencies
//!   (the model the paper itself adopts in §IV eq. (15)) emulating EC2
//!   stragglers at a configurable time scale.
//! * `bcc_net::TcpCluster` / `bcc_net::LocalNetCluster` — the same worker
//!   body behind real TCP sockets: a bound master serving `bcc-worker`
//!   processes, and its loopback fleet of in-process worker threads.
//!
//! Every backend serializes message receipt at the master (one transfer at
//! a time, duration proportional to message units), which is what makes
//! total round time track the *communication load* — the paper's own
//! explanation of Tables I/II ("the total running time of each scheme is
//! approximately proportional to its recovery threshold").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod config;
pub mod decode;
pub mod engine;
pub mod error;
pub mod latency;
pub mod message;
pub mod metrics;
pub mod minibatch;
pub mod mode;
pub mod observer;
pub mod packed;
pub mod policy;
pub mod round_loop;
pub mod straggler;
pub mod threaded;
pub mod units;
pub mod virtual_cluster;
pub mod wire;
pub mod worker;

pub use backend::{ClusterBackend, FixedPointDriver, RoundDriver, RoundOutcome};
pub use config::BackendConfig;
pub use decode::DecodePool;
pub use engine::{Arrival, ArrivalEvent, ArrivalSource, RoundEngine};
pub use error::ClusterError;
pub use latency::{ClusterProfile, CommModel, WorkerProfile};
pub use message::Envelope;
pub use metrics::{ArrivalStamp, RoundMetrics, RoundSample, RunMetrics};
pub use minibatch::{Minibatch, UnitSelection};
pub use mode::{Asgd, ModeSchedule, OffsetModel, OffsetTable, Ssgd, Ssp, TrainingMode};
pub use observer::{EventLog, NullObserver, RoundEvent, RoundObserver, SharedObserver};
pub use packed::WorkerBlocks;
pub use policy::{
    AggregatedGradient, AggregationPolicy, BestEffortAll, Deadline, FastestK, RoundVerdict,
    RoundView, WaitDecodable,
};
pub use round_loop::{BackendCore, RoundLoop, RoundSession, RoundTransport};
pub use straggler::{
    BimodalModel, MarkovModel, ParetoModel, ShiftedExpModel, StragglerModel, WanLinkModel,
    WeibullModel,
};
pub use threaded::ThreadedCluster;
pub use units::UnitMap;
pub use virtual_cluster::VirtualCluster;
