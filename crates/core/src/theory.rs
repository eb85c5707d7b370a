//! Theorem 1 and the Fig. 2 tradeoff.
//!
//! For `m` examples over `n` workers at computational load `r`:
//!
//! * lower bound (eq. (13)): `K*(r) ≥ m/r`;
//! * BCC (eq. (2)): `K_BCC(r) = ⌈m/r⌉·H_{⌈m/r⌉}`;
//! * simple randomized (eq. (5)): `K_random ≈ (m/r)·log m`;
//! * CR/RS/CM coded schemes (eq. (7)): `K = m − r + 1`;
//! * communication loads: `L_BCC = K_BCC` (eq. (14)), `L_random ≈ m·log m`
//!   (eq. (6)), `L_CR = m − r + 1` (eq. (8)).
//!
//! The BCC and randomized lines hold as `n → ∞`; Fig. 2 adds both schemes'
//! exact `E[K]` over `n = m` workers that cover, from [`bcc_stats::coupon`].

use bcc_stats::coupon;
use bcc_stats::harmonic::harmonic;
use serde::{Deserialize, Serialize};

/// Lower bound `m/r` on the minimum recovery threshold (Theorem 1).
#[must_use]
pub fn lower_bound(m: usize, r: usize) -> f64 {
    m as f64 / r as f64
}

/// `K_BCC(r) = ⌈m/r⌉·H_{⌈m/r⌉}` (eq. (2)), also BCC's communication load
/// `L_BCC(r)` (eq. (14)): every counted worker ships one unit.
#[must_use]
pub fn k_bcc(m: usize, r: usize) -> f64 {
    coupon::expected_draws(m.div_ceil(r))
}

/// Coded schemes' worst-case threshold `K_CR = K_RS = K_CM = m − r + 1`
/// (eq. (7)); also their communication load (eq. (8)).
#[must_use]
pub fn k_coded(m: usize, r: usize) -> f64 {
    (m - r + 1) as f64
}

/// The sandwich of eq. (3): `K* ≤ K_BCC ≤ ⌈K*⌉·H_{⌈m/r⌉}`.
///
/// Returns `(lower, bcc, upper)` so callers can assert the ordering.
#[must_use]
pub fn theorem1_sandwich(m: usize, r: usize) -> (f64, f64, f64) {
    let lb = lower_bound(m, r);
    let k = k_bcc(m, r);
    let ub = lb.ceil() * harmonic(m.div_ceil(r));
    (lb, k, ub)
}

/// One row of the Fig. 2 tradeoff: thresholds at computational load `r`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TradeoffPoint {
    /// Computational load `r`.
    pub r: usize,
    /// Lower bound `m/r`.
    pub lower_bound: f64,
    /// BCC's analytic threshold as `n → ∞`.
    pub bcc: f64,
    /// Simple randomized scheme's approximate threshold (eq. (5)).
    pub random: f64,
    /// CR scheme's threshold `m − r + 1`.
    pub cyclic_repetition: f64,
    /// BCC's exact `E[K]` at `n = m` workers, given that they cover.
    pub bcc_exact: f64,
    /// The randomized scheme's exact `E[K]` at `n = m`, given coverage.
    pub random_exact: f64,
}

/// Generates the Fig. 2 curve for `m = n` and the given loads. An exact
/// mean is NaN where `m` workers cover with a probability below `f64`'s range.
#[must_use]
pub fn fig2_tradeoff(m: usize, loads: &[usize]) -> Vec<TradeoffPoint> {
    loads
        .iter()
        .map(|&r| TradeoffPoint {
            r,
            lower_bound: lower_bound(m, r),
            bcc: k_bcc(m, r),
            random: coupon::random_scheme_approx(m, r),
            cyclic_repetition: k_coded(m, r),
            bcc_exact: mean(coupon::batched_pmf(m.div_ceil(r), m)),
            random_exact: mean(coupon::random_subset_pmf(m, r, m)),
        })
        .collect()
}

/// `E[K]` of a law of `K`, NaN when there is none.
fn mean(pmf: Option<Vec<f64>>) -> f64 {
    pmf.map_or(f64::NAN, |pmf| {
        pmf.iter().enumerate().map(|(k, p)| k as f64 * p).sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_fig2_anchor_points() {
        // m = n = 100 (Fig. 2's setting).
        let m = 100;
        // r = 10: lower bound 10, BCC = 10·H_10 ≈ 29.29, CR = 91.
        assert!((lower_bound(m, 10) - 10.0).abs() < 1e-12);
        assert!((k_bcc(m, 10) - 29.289_682_539_682_54).abs() < 1e-9);
        assert_eq!(k_coded(m, 10), 91.0);
        // r = 50: BCC = 2·H_2 = 3, CR = 51.
        assert!((k_bcc(m, 50) - 3.0).abs() < 1e-12);
        assert_eq!(k_coded(m, 50), 51.0);
        // r = m: everyone computes everything; K_BCC = 1.
        assert_eq!(k_bcc(m, 100), 1.0);
    }

    #[test]
    fn ordering_lower_bcc_random() {
        // K* ≤ K_BCC ≤ K_random for moderate r (the paper's headline order).
        let m = 100;
        for r in [5, 10, 20, 25] {
            let lb = lower_bound(m, r);
            let kb = k_bcc(m, r);
            let kr = coupon::random_scheme_approx(m, r);
            assert!(lb <= kb + 1e-12, "r={r}");
            assert!(kb <= kr + 1e-12, "r={r}: BCC {kb} vs random {kr}");
        }
    }

    #[test]
    fn bcc_beats_cr_at_moderate_loads() {
        // Fig. 2: BCC below CR for small/moderate r; CR wins as r → m where
        // m − r + 1 → 1 while BCC needs ⌈m/r⌉·H ≳ 1.
        let m = 100;
        assert!(k_bcc(m, 10) < k_coded(m, 10));
        assert!(k_bcc(m, 25) < k_coded(m, 25));
        // Near r = m the coded bound dips to 1, tied with BCC.
        assert!(k_coded(m, 100) <= k_bcc(m, 100) + 1e-12);
    }

    #[test]
    fn sandwich_holds() {
        for (m, r) in [(100, 7), (100, 10), (64, 8), (50, 3)] {
            let (lb, k, ub) = theorem1_sandwich(m, r);
            assert!(lb <= k + 1e-12, "m={m} r={r}");
            assert!(k <= ub + 1e-12, "m={m} r={r}: K {k} > upper {ub}");
        }
    }

    #[test]
    fn fig2_exact_columns_are_the_finite_cluster_means() {
        // m = n = 100; coupon.rs pins the laws themselves.
        let points = fig2_tradeoff(100, &[5, 10, 25, 50, 100]);
        assert!((points[0].bcc_exact - 65.750_329).abs() < 1e-6);
        assert!((points[0].random_exact - 84.843_808).abs() < 1e-6);
        assert!((points[1].bcc_exact - 29.268_240).abs() < 1e-6);
        assert!((points[1].random_exact - 49.784_799).abs() < 1e-6);
        for p in &points {
            // Conditioning on coverage by n = m workers only shortens the
            // wait, and never below the m/r floor.
            assert!(p.lower_bound <= p.bcc_exact && p.bcc_exact <= p.bcc + 1e-12);
            assert!(p.lower_bound <= p.random_exact, "r={}", p.r);
        }
        assert_eq!(points[4].bcc_exact, 1.0);
        assert_eq!(points[4].random_exact, 1.0);
    }
}
