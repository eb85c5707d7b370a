//! Dense linear-algebra substrate for the BCC reproduction.
//!
//! The paper's workloads (logistic regression gradients, gradient-coding
//! encode/decode) need a small but trustworthy dense linear algebra stack:
//!
//! * [`vec_ops`] — BLAS-1 style kernels over `&[f64]` slices (dot, axpy, …).
//! * [`Matrix`] — row-major dense matrices with BLAS-2/3 kernels.
//! * [`solve`] — LU with partial pivoting and triangular solves.
//! * [`qr`] — Householder QR and least-squares solves that skip each
//!   column's leading and trailing zeros (used by the cyclic-repetition
//!   decoder, which solves the banded `a^T B_F = 1^T`).
//! * [`parallel`] — the thread budget ([`parallel::Parallelism`]), the one
//!   scoped splitter every data-parallel path runs on
//!   ([`parallel::split_runs`]), and a bit-deterministic column-parallel
//!   weighted sum that only the benchmark package's layer replay calls.
//!
//! Everything is `f64`; the reproduction never needs mixed precision.

#![forbid(unsafe_code)]
// Index loops are kept where they mirror the papers' matrix/recurrence
// notation; iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod error;
pub mod matrix;
pub mod parallel;
pub mod qr;
pub mod solve;
pub mod vec_ops;

pub use error::LinAlgError;
pub use matrix::Matrix;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinAlgError>;

/// Returns true when `a` and `b` are within `tol` absolutely or relatively.
///
/// The relative branch guards comparisons of large gradient sums where the
/// absolute error scales with the magnitude of the operands.
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

/// Slice-wise [`approx_eq`]; false when lengths differ.
#[must_use]
pub fn approx_eq_slice(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| approx_eq(*x, *y, tol))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
    }

    #[test]
    fn approx_eq_relative_for_large_values() {
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1e12, 1.01e12, 1e-9));
    }

    #[test]
    fn approx_eq_slice_checks_length() {
        assert!(!approx_eq_slice(&[1.0], &[1.0, 2.0], 1e-9));
        assert!(approx_eq_slice(&[1.0, 2.0], &[1.0, 2.0], 1e-9));
    }
}
