//! §IV — distributed GD over heterogeneous clusters.
//!
//! Workers differ in speed: worker `i` processing `rᵢ` examples finishes at
//! `Tᵢ ~ shift-exp(shift aᵢrᵢ, rate μᵢ/rᵢ)` (eq. (15)). The master runs the
//! *uncoded communication* scheme of §IV-A (each partial gradient shipped
//! individually) and finishes at the **coverage time** (eq. (16)) — the
//! first instant the finished workers' examples union to the full dataset.
//!
//! * [`p2`] — the load-allocation problem P2 (`min E[T̂(s)]`), solved with
//!   the HCMM structure of \[16\]: per-worker closed-form loads via Lambert W
//!   plus a closed-form target time (deliveries are linear in τ); validated against Monte-Carlo.
//! * [`schemes`] — the registry that places `generalized-bcc` and the
//!   `load-balanced` baseline of §IV-C on one cluster profile; their
//!   coverage time is the round time the round engine clocks.
//! * [`bounds`] — Theorem 2's sandwich on the optimal coverage time.

pub mod bounds;
pub mod p2;

pub use bounds::{theorem2_bounds, Theorem2Bounds};
pub use p2::{expected_t_hat, optimal_loads, t_hat_realization, P2Solution};

use crate::experiment::{BuildError, SchemeRegistry};
use bcc_cluster::ClusterProfile;
use bcc_coding::{GeneralizedBccScheme, GradientCodingScheme};
use bcc_data::Placement;

/// The delivery budget `s = ⌊m·ln m⌋` generalized BCC solves P2 for (§IV-B).
#[must_use]
pub fn coverage_budget(m: usize) -> usize {
    (m as f64 * (m as f64).ln()).floor() as usize
}

/// The built-in schemes plus §IV's two, placed on `profile`'s workers:
/// `generalized-bcc` ([`optimal_loads`] for [`coverage_budget`]`(m)`
/// deliveries, each worker's examples drawn at random and redrawn until
/// they cover) and `load-balanced` ([`Placement::load_balanced`] by `μᵢ`).
///
/// A scheme factory sees `(spec, m, n, rng)` but not the cluster, so the
/// registrations capture it: run them under a latency spec resolving to the
/// same profile. Any other `n` is a [`BuildError::WorkerCountMismatch`].
#[must_use]
pub fn schemes(profile: &ClusterProfile) -> SchemeRegistry {
    let mut registry = SchemeRegistry::builtin();
    let workers = profile.workers.clone();
    registry.register(
        "generalized-bcc",
        "§IV: P2-optimal loads for ⌊m·ln m⌋ deliveries, random placement, stop on coverage",
        move |spec, m, n, rng| {
            sized_for(workers.len(), n)?;
            let loads = optimal_loads(&workers, coverage_budget(m).max(1), m).loads;
            match GeneralizedBccScheme::new(m, &loads, rng) {
                Some(scheme) => Ok(Box::new(scheme) as Box<dyn GradientCodingScheme>),
                None => Err(BuildError::CoverageFailed {
                    scheme: spec.name.clone(),
                    m,
                    n,
                    r: loads.into_iter().max().unwrap_or(0),
                    // `GeneralizedBccScheme::new`'s redraw budget.
                    attempts: 10_000,
                }),
            }
        },
    );
    let speeds: Vec<f64> = profile.workers.iter().map(|w| w.mu).collect();
    registry.register(
        "load-balanced",
        "§IV-C baseline: disjoint shards proportional to worker speed, wait for every worker",
        move |_spec, m, n, _rng| {
            sized_for(speeds.len(), n)?;
            Ok(Box::new(GeneralizedBccScheme::from_placement(
                "load-balanced",
                Placement::load_balanced(m, &speeds),
            )))
        },
    );
    registry
}

/// The captured cluster must be the one the experiment runs `n` workers on.
fn sized_for(profile: usize, n: usize) -> Result<(), BuildError> {
    if profile == n {
        return Ok(());
    }
    Err(BuildError::WorkerCountMismatch {
        profile,
        workers: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SchemeSpec;
    use bcc_stats::rng::derive_rng;

    const M: usize = 100;

    /// A 1/5-scale Fig. 5 cluster — 19 slow workers and one fast: the same
    /// 20× speed contrast and shift.
    fn small_profile() -> ClusterProfile {
        let mut profile = ClusterProfile::fig5_heterogeneous();
        profile.workers.drain(19..99);
        profile
    }

    fn place(name: &str, m: usize, n: usize) -> Result<Placement, BuildError> {
        let registry = schemes(&small_profile());
        let scheme = registry.build(&SchemeSpec::named(name), m, n, &mut derive_rng(5, 0))?;
        assert_eq!(scheme.name(), name, "report name = registry name");
        Ok(scheme.placement().clone())
    }

    #[test]
    fn both_schemes_place_the_dataset_on_the_captured_cluster() {
        let workers = small_profile().workers;
        let loads = |placement: &Placement| (0..20).map(|i| placement.load_of(i)).collect();

        let gbcc = place("generalized-bcc", M, 20).unwrap();
        assert!(gbcc.covers_all());
        let p2: Vec<usize> = loads(&gbcc);
        assert_eq!((coverage_budget(M), coverage_budget(500)), (460, 3107));
        assert_eq!(p2, optimal_loads(&workers, 460, M).loads);

        let lb = place("load-balanced", M, 20).unwrap();
        let speeds: Vec<f64> = workers.iter().map(|w| w.mu).collect();
        assert_eq!(lb, Placement::load_balanced(M, &speeds));
        assert!(lb.covers_all() && loads(&lb).iter().sum::<usize>() == M);
        // ⌊1·ln 1⌋ = 0 deliveries is no budget: one example still places.
        assert!(place("generalized-bcc", 1, 20).unwrap().covers_all());
    }

    #[test]
    fn another_cluster_size_is_a_typed_error() {
        let mismatch = BuildError::WorkerCountMismatch {
            profile: 20,
            workers: 19,
        };
        assert_eq!(place("generalized-bcc", M, 19), Err(mismatch.clone()));
        assert_eq!(place("load-balanced", M, 19), Err(mismatch));
    }
}
