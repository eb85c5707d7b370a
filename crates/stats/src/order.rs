//! Order statistics of exponential and shift-exponential samples.
//!
//! The uncoded scheme's completion time is the *maximum* of `n` worker
//! latencies, and any scheme that waits for the `k` fastest workers pays the
//! `k`-th order statistic. For i.i.d. `Exp(λ)` the classic identities are
//!
//! ```text
//! E[T₍ₖ₎] = (1/λ)·(H_n − H_{n−k})        (k-th smallest of n)
//! E[T₍ₙ₎] = H_n/λ                        (maximum)
//! ```
//!
//! and a common shift just translates. These closed forms anchor the cluster
//! simulators: tests compare measured round times against them.

use crate::dist::ShiftedExponential;
use crate::harmonic::harmonic_range;

/// Expected `k`-th smallest of `n` i.i.d. `Exp(rate)` variables:
/// `(H_n − H_{n−k})/rate`.
///
/// # Panics
/// Panics when `k == 0`, `k > n`, or `rate ≤ 0`.
#[must_use]
pub fn expected_kth_of_exponentials(n: usize, k: usize, rate: f64) -> f64 {
    assert!(k >= 1 && k <= n, "need 1 ≤ k ≤ n (n={n}, k={k})");
    assert!(rate > 0.0, "rate must be positive");
    // H_n − H_{n−k} = Σ_{i=n−k+1..n} 1/i.
    harmonic_range(n - k + 1, n) / rate
}

/// Expected `k`-th smallest of `n` i.i.d. shift-exponential workers with
/// identical parameters (µ, a) each processing `r` examples: the common
/// shift `a·r` translates the exponential order statistic.
#[must_use]
pub fn expected_kth_shift_exp(n: usize, k: usize, mu: f64, a: f64, r: usize) -> f64 {
    let d = ShiftedExponential::new(mu, a, r as f64);
    d.shift() + expected_kth_of_exponentials(n, k, d.rate())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_identity_is_harmonic() {
        // E[max of n Exp(1)] = H_n.
        let e = expected_kth_of_exponentials(10, 10, 1.0);
        assert!((e - crate::harmonic::harmonic(10)).abs() < 1e-12);
    }

    #[test]
    fn min_identity_is_one_over_n_rate() {
        // E[min of n Exp(λ)] = 1/(nλ).
        let e = expected_kth_of_exponentials(8, 1, 2.0);
        assert!((e - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn order_statistics_monotone_in_k() {
        let mut prev = 0.0;
        for k in 1..=20 {
            let e = expected_kth_of_exponentials(20, k, 1.5);
            assert!(e > prev);
            prev = e;
        }
    }

    #[test]
    fn shift_exp_translates() {
        let base = expected_kth_of_exponentials(10, 10, 2.0 / 5.0);
        let shifted = expected_kth_shift_exp(10, 10, 2.0, 3.0, 5);
        assert!((shifted - (15.0 + base)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "1 ≤ k ≤ n")]
    fn k_zero_panics() {
        let _ = expected_kth_of_exponentials(5, 0, 1.0);
    }
}
