//! Secondary real branch of the Lambert-W function.
//!
//! The heterogeneous P2 load solver (following the HCMM structure of
//! Reisizadeh et al. \[16\]) maximizes each worker's expected useful work at a
//! target time `τ`; the stationarity condition `eᵘ = u + 1 + μa` has the
//! non-trivial solution `u* = −W₋₁(−e^{−1−μa}) − 1 − μa`, on the `W₋₁`
//! branch.

/// Secondary real branch `W₋₁(x)` for `x ∈ [−1/e, 0)`: the solution
/// `w ≤ −1` of `w·e^w = x`.
///
/// # Panics
/// Panics outside the branch domain.
#[must_use]
pub fn lambert_wm1(x: f64) -> f64 {
    assert!(
        (-std::f64::consts::E.recip() - 1e-12..0.0).contains(&x),
        "lambert_wm1 domain is [-1/e, 0), got {x}"
    );
    // Initial guess from the log expansion: w ≈ ln(−x) − ln(−ln(−x)).
    let l1 = (-x).ln();
    let mut w = if l1 > -2.0 {
        -2.0 // near the branch point
    } else {
        l1 - (-l1).ln()
    };
    for _ in 0..128 {
        let ew = w.exp();
        let f = w * ew - x;
        let denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0);
        let step = f / denom;
        w -= step;
        if step.abs() < 1e-13 * (1.0 + w.abs()) {
            break;
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wm1_defining_equation() {
        for &x in &[-0.3, -0.2, -0.1, -0.05, -0.01, -1e-4] {
            let w = lambert_wm1(x);
            assert!(w <= -1.0, "W-1({x}) = {w} must be ≤ -1");
            assert!(
                (w * w.exp() - x).abs() < 1e-8,
                "W-1({x}) = {w} fails defining equation"
            );
        }
    }
}
