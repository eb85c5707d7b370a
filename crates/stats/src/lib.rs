//! Statistics substrate for the BCC reproduction.
//!
//! Everything stochastic in the paper funnels through a handful of
//! primitives, implemented here from scratch:
//!
//! * [`rng`] — deterministic seed derivation so every experiment is
//!   replayable (worker *i* of trial *t* always sees the same stream).
//! * [`dist`] — the distributions the paper uses — the shift-exponential
//!   worker-latency model of §IV eq. (15), exponentials, Bernoulli labels and
//!   Gaussian features (Box–Muller; no `rand_distr` dependency) — plus the
//!   Pareto and Weibull families behind the heavy-tailed straggler models.
//! * [`gamma`](mod@gamma) — the gamma function `Γ(x)` (Lanczos), for Weibull
//!   moments.
//! * [`harmonic`](mod@harmonic) — harmonic numbers `H_n` appearing in Theorem 1.
//! * [`coupon`] — coupon-collector analysis: exact expectation `N·H_N`, the
//!   tail bound of Lemma 2, and the exact finite-`n` laws of the BCC and
//!   simple randomized recovery thresholds.
//! * [`lambertw`] — the `W₋₁` branch of Lambert-W used by the heterogeneous
//!   P2 load solver (closed-form per-worker optimal loads follow \[16\]'s structure).
//! * [`order`] — order statistics of (shift-)exponentials: the closed
//!   forms (`E[max] = H_n/λ` etc.) that anchor the cluster simulators.
//! * [`summary`] — Welford online moments and quantile summaries for the
//!   experiment harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coupon;
pub mod dist;
pub mod gamma;
pub mod harmonic;
pub mod lambertw;
pub mod order;
pub mod rng;
pub mod summary;

pub use dist::{Bernoulli, Exponential, Gaussian, Pareto, ShiftedExponential, Weibull};
pub use gamma::gamma;
pub use harmonic::harmonic;
pub use rng::{derive_rng, derive_seed};
pub use summary::Summary;
