//! Coupon-collector analysis — the mathematical heart of BCC.
//!
//! The BCC master collects batch results like coupons: each arriving worker
//! message is a uniformly random batch out of `N = ⌈m/r⌉`, and the master
//! finishes when all `N` batches are covered. This module provides:
//!
//! * the exact expectation `E[M] = N·H_N` (used by Theorem 1),
//! * the tail bound `Pr[M ≥ (1+ε)·N·ln N] ≤ N^{−ε}` (Lemma 2),
//! * the exact law of the number of workers `K` the master hears from over
//!   `n` workers, given that they cover: [`batched_pmf`] for BCC and
//!   [`random_subset_pmf`] for the *simple randomized* scheme.

use crate::harmonic::harmonic;

/// Exact expected number of draws to collect all `n` coupon types: `n·H_n`.
#[must_use]
pub fn expected_draws(n: usize) -> f64 {
    n as f64 * harmonic(n)
}

/// Lemma 2 tail bound: `Pr[M ≥ (1+ε)·n·ln n] ≤ n^{−ε}` for `ε ≥ 0`.
///
/// Returns the bound's right-hand side.
///
/// # Panics
/// Panics for negative `ε`.
#[must_use]
pub fn tail_bound(n: usize, epsilon: f64) -> f64 {
    assert!(epsilon >= 0.0, "tail bound requires ε ≥ 0");
    (n as f64).powf(-epsilon)
}

/// Variance of the number of draws: `Var[M] = Σ (1−pᵢ)/pᵢ²` with
/// `pᵢ = (n−i+1)/n`, i.e. `n² Σ_{k=1..n} 1/k² − n·H_n`.
#[must_use]
pub fn variance_draws(n: usize) -> f64 {
    let nf = n as f64;
    let h2 = crate::harmonic::generalized_harmonic(n, 2.0);
    nf * nf * h2 - nf * harmonic(n)
}

/// The paper's closed-form approximation `(m/r)·ln m` for the randomized
/// scheme's recovery threshold (eq. (5)).
#[must_use]
pub fn random_scheme_approx(m: usize, r: usize) -> f64 {
    (m as f64 / r as f64) * (m as f64).ln()
}

/// Exact law of BCC's recovery threshold `K` over `workers` workers, each
/// holding one of `batches` uniformly random batches:
/// `pmf[k] = P(K = k | the workers cover)` for `k ∈ 0..=workers`, or `None`
/// when they cannot cover (`N > n`, or a probability below `f64`'s range).
///
/// Arrival order is independent of the placement, so the batches arrive as
/// i.i.d. draws: a chain on the distinct batches seen, `j → j + 1` with
/// probability `(N − j)/N`, `O(N·n)`.
///
/// # Panics
/// Panics when `batches == 0`.
#[must_use]
pub fn batched_pmf(batches: usize, workers: usize) -> Option<Vec<f64>> {
    assert!(batches > 0, "cannot collect zero coupon types");
    let nb = batches as f64;
    first_cover(batches, workers, |j| {
        (0, vec![j as f64 / nb, (batches - j) as f64 / nb])
    })
}

/// Exact law of the *simple randomized* scheme's recovery threshold `K`:
/// each worker holds a uniform random `load`-subset of the `examples`.
/// Same contract as [`batched_pmf`].
///
/// A chain on the distinct examples covered: from `c`, a worker adds `d`
/// new ones with the hypergeometric probability `C(m−c, d)·C(c, r−d)/C(m, r)`,
/// `O(m·r·n)`. The weights come from the ratio of consecutive terms, summed
/// in log space, so no binomial coefficient is formed and no `m` overflows.
///
/// # Panics
/// Panics unless `0 < load ≤ examples`.
#[must_use]
pub fn random_subset_pmf(examples: usize, load: usize, workers: usize) -> Option<Vec<f64>> {
    let (m, r) = (examples, load);
    assert!(r > 0 && r <= m, "need 0 < r ≤ m (m={m}, r={r})");
    first_cover(m, workers, |c| {
        let lo = r.saturating_sub(c);
        let mut log_w = vec![0.0];
        for d in lo..r.min(m - c) {
            let ratio = ((m - c - d) * (r - d)) as f64 / ((d + 1) * (c + d + 1 - r)) as f64;
            log_w.push(log_w[log_w.len() - 1] + ratio.ln());
        }
        let top = log_w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let w: Vec<f64> = log_w.iter().map(|l| (l - top).exp()).collect();
        let total: f64 = w.iter().sum();
        (lo, w.iter().map(|x| x / total).collect())
    })
}

/// The law of the worker whose arrival first covers all `coupons`, over
/// `workers` workers, conditioned on one doing so. From `c` coupons covered,
/// a worker covers `d₀ + i` new ones with probability `w[i]`, where
/// `step(c) = (d₀, w)`.
fn first_cover(
    coupons: usize,
    workers: usize,
    step: impl Fn(usize) -> (usize, Vec<f64>),
) -> Option<Vec<f64>> {
    let steps: Vec<(usize, Vec<f64>)> = (0..coupons).map(step).collect();
    // covered[c] = P(exactly c coupons covered after the workers so far).
    let mut covered = vec![0.0; coupons + 1];
    let mut next = vec![0.0; coupons + 1];
    covered[0] = 1.0;
    let mut pmf = vec![0.0; workers + 1];
    for p in &mut pmf[1..] {
        next.fill(0.0);
        for (c, (lo, w)) in steps.iter().enumerate() {
            for (d, wd) in w.iter().enumerate() {
                next[c + lo + d] += covered[c] * wd;
            }
        }
        *p = next[coupons];
        std::mem::swap(&mut covered, &mut next);
    }
    let covering: f64 = pmf.iter().sum();
    (covering > 0.0).then(|| pmf.iter().map(|p| p / covering).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The law of `K` by brute force: every worker takes each of `choices`
    /// (bit masks over the coupons) with equal probability, and every
    /// sequence of choices is visited once.
    fn enumerated(choices: &[u32], full: u32, workers: usize) -> Option<Vec<f64>> {
        let mut counts = vec![0u64; workers + 1];
        for mut code in 0..choices.len().pow(workers as u32) {
            let mut union = 0;
            for count in &mut counts[1..] {
                union |= choices[code % choices.len()];
                code /= choices.len();
                if union == full {
                    *count += 1;
                    break;
                }
            }
        }
        let covering: u64 = counts.iter().sum();
        (covering > 0).then(|| counts.iter().map(|&c| c as f64 / covering as f64).collect())
    }

    fn assert_same_law(exact: Option<Vec<f64>>, brute: Option<Vec<f64>>, case: &str) {
        match (exact, brute) {
            (None, None) => {}
            (Some(exact), Some(brute)) => {
                assert_eq!(exact.len(), brute.len(), "{case}");
                for (k, (e, b)) in exact.iter().zip(&brute).enumerate() {
                    assert!((e - b).abs() < 1e-12, "{case}: P(K = {k}) {e} vs {b}");
                }
            }
            (exact, brute) => panic!("{case}: exact {exact:?} vs enumerated {brute:?}"),
        }
    }

    /// `(E[K], Var[K])` of a law.
    fn moments(pmf: &[f64]) -> (f64, f64) {
        let mean: f64 = pmf.iter().enumerate().map(|(k, p)| k as f64 * p).sum();
        let var = pmf
            .iter()
            .enumerate()
            .map(|(k, p)| (k as f64 - mean).powi(2) * p)
            .sum();
        (mean, var)
    }

    /// Workers enough that a union bound puts the uncovered mass of `N`
    /// batches below `1e-15`: there the conditioned law is the `n → ∞` one.
    fn almost_surely_covering(batches: usize) -> usize {
        let miss = 1.0 - 1.0 / batches as f64;
        (1..)
            .find(|&n| batches as f64 * miss.powi(n as i32) < 1e-15)
            .expect("finite")
    }

    #[test]
    fn expected_draws_small_cases() {
        assert_eq!(expected_draws(1), 1.0);
        assert!((expected_draws(2) - 3.0).abs() < 1e-12);
        // n=3: 3·(1 + 1/2 + 1/3) = 5.5.
        assert!((expected_draws(3) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn variance_positive_and_growing() {
        let mut prev = 0.0;
        for n in 2..40 {
            let v = variance_draws(n);
            assert!(v > prev, "variance should grow with n");
            prev = v;
        }
    }

    #[test]
    fn tail_bound_values() {
        assert_eq!(tail_bound(10, 0.0), 1.0);
        assert!((tail_bound(10, 1.0) - 0.1).abs() < 1e-12);
        assert!(tail_bound(100, 2.0) <= 1e-4 + 1e-15);
    }

    #[test]
    fn batched_pmf_equals_enumeration_of_every_placement() {
        for batches in 1..=4 {
            let choices: Vec<u32> = (0..batches).map(|b| 1 << b).collect();
            for workers in 1..=7 {
                assert_same_law(
                    batched_pmf(batches, workers),
                    enumerated(&choices, (1 << batches) - 1, workers),
                    &format!("N={batches} n={workers}"),
                );
            }
        }
    }

    #[test]
    fn random_subset_pmf_equals_enumeration_of_every_placement() {
        for m in 1..=5usize {
            for r in 1..=m.min(3) {
                let subsets: Vec<u32> = (0..1u32 << m)
                    .filter(|s| s.count_ones() as usize == r)
                    .collect();
                for workers in 1..=4 {
                    assert_same_law(
                        random_subset_pmf(m, r, workers),
                        enumerated(&subsets, (1 << m) - 1, workers),
                        &format!("m={m} r={r} n={workers}"),
                    );
                }
            }
        }
    }

    #[test]
    fn batched_law_has_theorem1_moments_once_coverage_is_certain() {
        for batches in [1, 2, 3, 5, 10, 25, 50] {
            let pmf = batched_pmf(batches, almost_surely_covering(batches)).expect("covers");
            let (mean, var) = moments(&pmf);
            let (e, v) = (expected_draws(batches), variance_draws(batches));
            assert!(
                (mean - e).abs() <= 1e-9 * e,
                "N={batches}: E[K] {mean} vs {e}"
            );
            assert!(
                (var - v).abs() <= 1e-9 * v.max(1.0),
                "N={batches}: {var} vs {v}"
            );
        }
    }

    #[test]
    fn lemma2_tail_bound_holds_exactly() {
        for batches in 2..=50 {
            let pmf = batched_pmf(batches, almost_surely_covering(batches)).expect("covers");
            for epsilon in [0.5, 1.0, 2.0] {
                let nb = batches as f64;
                let from = ((1.0 + epsilon) * nb * nb.ln()).ceil() as usize;
                // The conditioned law overstates every P(K = k ≤ n) and the
                // mass past n is below 1e-15. The bound is tight at N = 2,
                // ε = 1 (P(K ≥ 3) = 1/2), so only rounding is allowed for.
                let tail: f64 = pmf[from..].iter().sum::<f64>() + 1e-15;
                assert!(
                    tail <= tail_bound(batches, epsilon) + 1e-12,
                    "N={batches} ε={epsilon}: P(K ≥ {from}) = {tail}"
                );
            }
        }
    }

    #[test]
    fn unit_load_randomized_scheme_is_the_batched_process() {
        for (m, workers) in [(1, 3), (4, 4), (8, 30), (20, 90)] {
            let batched = batched_pmf(m, workers).expect("covers");
            let random = random_subset_pmf(m, 1, workers).expect("covers");
            for (b, r) in batched.iter().zip(&random) {
                assert!((b - r).abs() < 1e-12, "m={m}: {b} vs {r}");
            }
        }
    }

    #[test]
    fn full_load_needs_one_worker() {
        for workers in 1..5 {
            let pmf = random_subset_pmf(10, 10, workers).expect("one worker covers");
            assert_eq!(pmf[1], 1.0);
            assert_eq!(batched_pmf(1, workers).expect("covers")[1], 1.0);
        }
    }

    #[test]
    fn too_few_workers_cannot_cover() {
        assert_eq!(batched_pmf(5, 4), None);
        assert_eq!(random_subset_pmf(10, 2, 4), None);
        assert!(random_subset_pmf(10, 2, 5).is_some());
    }

    #[test]
    fn random_subset_weights_stay_finite_at_m_1000() {
        let pmf = random_subset_pmf(1000, 500, 40).expect("covers");
        assert!(pmf.iter().all(|p| p.is_finite() && *p >= 0.0));
        assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn finite_cluster_laws_at_fig2_setting() {
        // m = n = 100: conditioning on the 100 workers covering pulls E[K]
        // below the n → ∞ values 71.95 (BCC, r = 5) and 29.29 (r = 10).
        let cover = |law: Option<Vec<f64>>| law.expect("covers")[..=100].iter().sum::<f64>();
        for (r, bcc, random, p_bcc, p_random) in [
            (5, 65.750_329, 84.843_808, 0.886_537, 0.547_084),
            (10, 29.268_240, 49.784_799, 0.999_734, 0.997_347),
        ] {
            let (mean_bcc, _) = moments(&batched_pmf(100 / r, 100).expect("covers"));
            let (mean_random, _) = moments(&random_subset_pmf(100, r, 100).expect("covers"));
            assert!((mean_bcc - bcc).abs() < 1e-6, "r={r}: BCC E[K] {mean_bcc}");
            assert!(
                (mean_random - random).abs() < 1e-6,
                "r={r}: E[K] {mean_random}"
            );
            // P(the 100 workers cover), read off the law at 4000 workers.
            let p = cover(batched_pmf(100 / r, 4000));
            assert!((p - p_bcc).abs() < 1e-6, "r={r}: BCC P(cover) {p}");
            let p = cover(random_subset_pmf(100, r, 4000));
            assert!((p - p_random).abs() < 1e-6, "r={r}: P(cover) {p}");
        }
    }
}
