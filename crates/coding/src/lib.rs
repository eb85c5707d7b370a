//! Gradient-coding schemes for straggler-tolerant distributed gradient
//! descent.
//!
//! Every scheme answers the same three questions, factored into the
//! [`scheme::GradientCodingScheme`] trait:
//!
//! 1. **Data distribution** — which examples does worker `i` store
//!    ([`bcc_data::Placement`])?
//! 2. **Worker encoding** — how does worker `i` turn its computed partial
//!    gradients into a message ([`payload::Payload`])?
//! 3. **Master decoding** — when has the master received enough messages and
//!    how does it recover the full gradient sum ([`scheme::Decoder`])?
//!
//! Implemented schemes, matching the paper's comparison set:
//!
//! | module | scheme | recovery threshold (m = n) | comm. load |
//! |---|---|---|---|
//! | [`uncoded`] | disjoint shards, wait for all | `n` | `n` |
//! | [`random`] | simple randomized (Prior Art, eq. (5)–(6)) | `≈ (m/r)·log m` | `≈ m·log m` |
//! | [`fractional`] | fractional repetition (Tandon et al.) | group coverage | ≤ `n` |
//! | [`cyclic_repetition`] | CR gradient coding (Tandon et al. \[7\]) | `m − r + 1` worst case | `m − r + 1` |
//! | [`bcc`] | **Batched Coupon's Collector (this paper)** | `⌈m/r⌉·H_{⌈m/r⌉}` expected | same |
//! | [`bcc_uncompressed`] | BCC placement, per-example messages (Remark 3 ablation) | as BCC | `r ×` BCC's |
//! | [`generalized_bcc`] | generalized BCC for heterogeneous loads (§IV) | coverage, eq. (16) | `Σ rᵢ` of the workers heard |
//!
//! There are two master-side decoders. Every scheme above except
//! [`cyclic_repetition`] is the paper's one rule — keep the first message
//! per slot, discard repeats, stop on coverage — over different coupons
//! (shards, batches, groups, examples), so they share the one coverage
//! decoder in [`scheme`] and differ only in placement and in which slot(s) a
//! worker fills. CR's decoder is a linear solve. A new coverage-structured
//! scheme is therefore one file here (placement + `encode` + the slot table
//! it hands the shared decoder) plus one `register` line in
//! `bcc_core::experiment::registry`.
//!
//! All decoders recover the exact **sum** `Σ_{j=1}^{m} g_j` (the master
//! divides by `m` itself, matching eq. (1)); exactness is property-tested.

#![forbid(unsafe_code)]
// Index loops are kept where they mirror the papers' matrix/recurrence
// notation; iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod bcc;
pub mod bcc_uncompressed;
pub mod cyclic_repetition;
pub mod error;
pub mod fractional;
pub mod generalized_bcc;
pub mod payload;
pub mod random;
pub mod scheme;
pub mod uncoded;

pub use bcc::BccScheme;
pub use bcc_uncompressed::UncompressedBccScheme;
pub use cyclic_repetition::CyclicRepetitionScheme;
pub use error::CodingError;
pub use fractional::FractionalRepetitionScheme;
pub use generalized_bcc::GeneralizedBccScheme;
pub use payload::Payload;
pub use random::RandomSubsetScheme;
pub use scheme::{Coverage, Decoder, GradientCodingScheme};
pub use uncoded::UncodedScheme;
