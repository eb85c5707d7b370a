//! Optimization substrate: losses, gradients, and first-order methods.
//!
//! The paper trains a logistic-regression model with Nesterov's accelerated
//! gradient method (§III-C). The distributed driver in `bcc-core` computes
//! gradients through the cluster; the optimizers here are *gradient
//! consumers* — [`Optimizer::step`] takes the aggregated gradient and updates
//! the iterate — so the same optimizer code runs centralized (exact gradient)
//! and distributed (decoded gradient) without modification.
//!
//! * [`loss`] — per-example losses and their gradients (logistic in the
//!   paper's ±1 convention, plus squared loss for tests), with blocked
//!   packed-kernel specializations for the round hot path.
//! * [`scratch`] — reusable margins/accumulator buffers so the blocked
//!   kernels allocate nothing per round.
//! * [`gradient`] — full/partial-gradient kernels over a [`bcc_data::Dataset`].
//! * [`schedule`] — learning-rate schedules.
//! * [`gd`] — vanilla gradient descent.
//! * [`nesterov`] — Nesterov's accelerated gradient method.
//! * [`trace`] — convergence traces for the experiment harness.

#![forbid(unsafe_code)]
// Index loops are kept where they mirror the papers' matrix/recurrence
// notation; iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod gd;
pub mod gradient;
pub mod loss;
pub mod nesterov;
pub mod schedule;
pub mod scratch;
pub mod trace;

pub use gd::GradientDescent;
pub use loss::{LogisticLoss, Loss, SquaredLoss};
pub use nesterov::Nesterov;
pub use schedule::LearningRate;
pub use scratch::GradScratch;
pub use trace::ConvergenceTrace;

/// A first-order optimizer that consumes externally computed gradients.
///
/// `gradient` must be the gradient of the empirical risk at the point
/// returned by the most recent [`Optimizer::eval_point`] call (for plain GD
/// that is the iterate itself; for Nesterov it is the look-ahead point).
pub trait Optimizer {
    /// The point at which the next gradient should be evaluated.
    fn eval_point(&self) -> &[f64];

    /// Applies one update given the gradient at [`Optimizer::eval_point`].
    fn step(&mut self, gradient: &[f64]);

    /// The current model iterate `w_t`.
    fn iterate(&self) -> &[f64];

    /// Iteration counter (number of completed steps).
    fn iteration(&self) -> usize;
}
