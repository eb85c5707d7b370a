//! Networked cluster backend: a TCP master/worker runtime.
//!
//! The two in-process backends ([`bcc_cluster::ThreadedCluster`] and
//! [`bcc_cluster::VirtualCluster`]) simulate arrivals; this crate's two
//! make them *genuine network events* — under the same round loop
//! ([`bcc_cluster::round_loop`]), as one more transport. The master
//! ([`TcpCluster`]) binds a `std::net` TCP listener, registers workers
//! through a `Hello`/`Job` handshake, broadcasts per-round weight frames,
//! and feeds the shared [`bcc_cluster::RoundEngine`] from one reader thread
//! per worker. Workers — OS processes running the `bcc-worker` binary, or
//! loopback threads spawned by [`LocalNetCluster`] — run the threaded
//! backend's worker body ([`bcc_cluster::worker::WorkerStep`]) and ship the
//! exact [`bcc_cluster::wire`] envelope bytes inside length-prefixed frames
//! ([`frame`]).
//!
//! Fault tolerance maps worker death onto the policy layer's exhaustion
//! path: a disconnect (EOF/reset) or heartbeat timeout removes the worker
//! from the live set, and once every remaining live worker has reported the
//! round exhausts — [`bcc_cluster::BestEffortAll`] completes with whatever
//! coverage is in hand, while the default
//! [`bcc_cluster::WaitDecodable`] surfaces a typed
//! [`bcc_cluster::ClusterError::Stalled`] instead of hanging.
//!
//! The replay contract is unchanged: compute delays are sampled at the
//! master from the same `(seed, round, worker)` latency streams the other
//! backends use and shipped to workers inside the round frame, so a
//! loopback TCP run reproduces the virtual backend's gradients
//! byte-identically (pinned by `tests/net_equivalence.rs`).
//!
//! The hot path is pipelined: per-worker writer threads drain bounded
//! queues of pre-encoded frames (a stalled peer surfaces as backpressure
//! instead of blocking broadcast), a round's weights are encoded once into
//! one body every worker's Round frame shares behind its own small head,
//! and round `t+1` fans
//! out while round `t`'s tail arrivals drain — broadcast epochs keep late
//! frames out of the decoder, so the pipelined path stays bit-identical
//! to the serial reference (`BackendConfig::pipelining(false)`).
//! Handshakes are authenticated by a job-seed-derived token
//! ([`auth_token`]); a mismatch is answered with a typed rejection, never
//! a silent drop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod local;
pub mod master;
pub mod stats;
pub mod worker;

pub use frame::{auth_token, FramePool, NetMessage, MAX_FRAME_LEN};
pub use local::LocalNetCluster;
pub use master::TcpCluster;
pub use stats::NetStats;
pub use worker::{connect_with_retry, handshake, serve_rounds, WorkerConfig};
