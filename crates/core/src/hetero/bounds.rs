//! Theorem 2: sandwich bounds on the minimum average coverage time.
//!
//! ```text
//! min_G E[T]  ≥  min_{r₁..rₙ} E[T̂(m)]                       (eq. (21))
//! min_G E[T]  ≤  min_{r₁..rₙ} E[T̂(⌊c·m·log m⌋)] + 1          (eq. (22))
//! c = 2 + log(a + H_n/μ)/log m,  a = max aᵢ,  μ = min μᵢ.
//! ```
//!
//! Both sides are evaluated numerically: the P2 solver supplies the
//! (asymptotically) optimal loads for each budget, and Monte-Carlo
//! estimates the expectations.

use crate::hetero::p2::{expected_t_hat, optimal_loads};
use bcc_cluster::WorkerProfile;
use bcc_stats::harmonic::harmonic;
use serde::{Deserialize, Serialize};

/// Evaluated Theorem 2 bounds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Theorem2Bounds {
    /// Lower bound `min E[T̂(m)]`.
    pub lower: f64,
    /// Upper bound `min E[T̂(⌊c·m·log m⌋)] + 1`.
    pub upper: f64,
    /// The constant `c` from the theorem.
    pub c: f64,
    /// The budget `⌊c·m·log m⌋` used by the upper bound.
    pub upper_budget: usize,
}

/// The constant `c = 2 + log(a + H_n/μ)/log m`.
///
/// # Panics
/// Panics for `m < 2` (the theorem needs `log m > 0`).
#[must_use]
pub fn theorem2_c(workers: &[WorkerProfile], m: usize) -> f64 {
    assert!(m >= 2, "Theorem 2 needs m ≥ 2");
    let a = workers.iter().map(|w| w.a).fold(0.0f64, f64::max);
    let mu = workers.iter().map(|w| w.mu).fold(f64::INFINITY, f64::min);
    let hn = harmonic(workers.len());
    2.0 + (a + hn / mu).ln() / (m as f64).ln()
}

/// Evaluates both sides of Theorem 2 for a heterogeneous cluster.
///
/// `trials` Monte-Carlo samples estimate each `E[T̂(·)]`; seeds derive from
/// `seed` so results replay.
#[must_use]
pub fn theorem2_bounds(
    workers: &[WorkerProfile],
    m: usize,
    trials: usize,
    seed: u64,
) -> Theorem2Bounds {
    let c = theorem2_c(workers, m);
    let upper_budget = (c * m as f64 * (m as f64).ln()).floor() as usize;

    let lower_sol = optimal_loads(workers, m, m);
    let lower = expected_t_hat(workers, &lower_sol.loads, m, trials, seed);

    let upper_sol = optimal_loads(workers, upper_budget, m);
    let upper = expected_t_hat(workers, &upper_sol.loads, upper_budget, trials, seed ^ 1) + 1.0;

    Theorem2Bounds {
        lower,
        upper,
        c,
        upper_budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{DataSpec, Experiment, LatencySpec, OptimizerSpec, SchemeSpec};
    use crate::hetero::{coverage_budget, schemes};
    use bcc_cluster::ClusterProfile;

    fn fig5_workers() -> Vec<WorkerProfile> {
        ClusterProfile::fig5_heterogeneous().workers
    }

    #[test]
    fn c_matches_formula() {
        let workers = fig5_workers();
        let c = theorem2_c(&workers, 500);
        let expect = 2.0 + (20.0 + harmonic(100) / 1.0).ln() / (500.0f64).ln();
        assert!((c - expect).abs() < 1e-12);
        assert!(c > 2.0);
    }

    #[test]
    fn bounds_are_ordered() {
        let workers = fig5_workers();
        let b = theorem2_bounds(&workers, 500, 150, 3);
        assert!(
            b.lower <= b.upper,
            "Theorem 2 sandwich violated: {} > {}",
            b.lower,
            b.upper
        );
        assert!(b.lower.is_finite());
        assert!(b.upper.is_finite());
    }

    #[test]
    fn gbcc_coverage_time_within_bounds() {
        // The generalized-BCC achievable time must respect the sandwich:
        // above the lower bound (it is a valid scheme) and — since the
        // upper bound is achieved *by* a generalized BCC with the theorem's
        // inflated budget — the simulated coverage at s = ⌊m log m⌋ should
        // not exceed the upper bound either.
        let profile = ClusterProfile::fig5_heterogeneous();
        let m = 500;
        let bounds = theorem2_bounds(&profile.workers, m, 150, 7);
        assert!(coverage_budget(m) < bounds.upper_budget);

        let rounds = 100;
        let gbcc = Experiment::builder()
            .workers(100)
            .units(m)
            .scheme(SchemeSpec::named("generalized-bcc"))
            .data(DataSpec::synthetic(1, 2))
            .latency(LatencySpec::Fig5Heterogeneous)
            .optimizer(OptimizerSpec::FixedPoint)
            .iterations(rounds)
            .seed(11)
            .registry(schemes(&profile))
            .build()
            .unwrap();
        let mean_time = gbcc.run().unwrap().metrics.total_time / rounds as f64;
        assert!(
            mean_time >= bounds.lower * 0.9,
            "coverage {} below lower bound {}",
            mean_time,
            bounds.lower
        );
        assert!(
            mean_time <= bounds.upper * 1.1,
            "coverage {} above upper bound {}",
            mean_time,
            bounds.upper
        );
    }

    #[test]
    #[should_panic(expected = "m ≥ 2")]
    fn tiny_m_rejected() {
        let _ = theorem2_c(&fig5_workers(), 1);
    }
}
