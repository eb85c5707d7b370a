//! Harmonic numbers `H_n = Σ_{k=1..n} 1/k`.
//!
//! Theorem 1 states `K_BCC(r) = ⌈m/r⌉ · H_{⌈m/r⌉}`.

/// Exact harmonic number `H_n` by direct summation (summed small-to-large for
/// accuracy). `H_0 = 0`.
#[must_use]
pub fn harmonic(n: usize) -> f64 {
    let mut s = 0.0;
    for k in (1..=n).rev() {
        s += 1.0 / k as f64;
    }
    s
}

/// Generalized harmonic number `H_{n,s} = Σ 1/k^s`.
#[must_use]
pub fn generalized_harmonic(n: usize, s: f64) -> f64 {
    (1..=n).rev().map(|k| (k as f64).powf(-s)).sum()
}

/// Partial harmonic sum `Σ_{k=a..=b} 1/k` (`0` when `a > b`).
#[must_use]
pub fn harmonic_range(a: usize, b: usize) -> f64 {
    if a > b {
        return 0.0;
    }
    (a.max(1)..=b).rev().map(|k| 1.0 / k as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_exact() {
        assert_eq!(harmonic(0), 0.0);
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(2) - 1.5).abs() < 1e-15);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-15);
    }

    #[test]
    fn generalized_reduces_to_plain() {
        assert!((generalized_harmonic(20, 1.0) - harmonic(20)).abs() < 1e-12);
        // H_{n,2} converges to π²/6.
        let h2 = generalized_harmonic(100_000, 2.0);
        assert!((h2 - std::f64::consts::PI.powi(2) / 6.0).abs() < 1e-4);
    }

    #[test]
    fn range_sums() {
        assert!((harmonic_range(1, 10) - harmonic(10)).abs() < 1e-15);
        assert!((harmonic_range(5, 10) - (harmonic(10) - harmonic(4))).abs() < 1e-12);
        assert_eq!(harmonic_range(10, 5), 0.0);
        // a = 0 treated as starting from 1.
        assert!((harmonic_range(0, 3) - harmonic(3)).abs() < 1e-15);
    }

    #[test]
    fn monotone_increasing() {
        let mut prev = 0.0;
        for n in 1..100 {
            let h = harmonic(n);
            assert!(h > prev);
            prev = h;
        }
    }
}
