//! Dataset substrate for the BCC reproduction.
//!
//! * [`dataset`] — the in-memory training set (`m` examples × `p` features
//!   plus ±1 labels), stored row-major so per-example gradient kernels stream
//!   contiguously.
//! * [`synthetic`] — the paper's exact data model (§III-C): true weights
//!   `w* ∈ {±1}^p`, features from the Gaussian mixture
//!   `0.5·N(1.5w*/p, I) + 0.5·N(−1.5w*/p, I)`, labels
//!   `y ~ Ber(κ)` with `κ = 1/(exp(xᵀw*) + 1)`.
//! * [`batching`] — the BCC partition of examples into `⌈m/r⌉` batches.
//! * [`placement`] — data-placement bipartite graph (§II): which worker
//!   stores which examples, with coverage/load/replication accounting, and
//!   builders for every placement the paper compares.

#![forbid(unsafe_code)]
// Index loops are kept where they mirror the papers' matrix/recurrence
// notation; iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod batching;
pub mod dataset;
pub mod placement;
pub mod synthetic;

pub use batching::Batching;
pub use dataset::Dataset;
pub use placement::Placement;
pub use synthetic::SyntheticConfig;
