//! Per-example loss functions, their gradients, and the blocked kernels the
//! packed hot path streams.

use bcc_linalg::{vec_ops, Matrix};

/// A per-example loss `ℓ(x, y; w)` with gradient `∇_w ℓ`.
pub trait Loss: Send + Sync {
    /// Loss value at one example.
    fn value(&self, x: &[f64], y: f64, w: &[f64]) -> f64;

    /// Writes `∇_w ℓ(x, y; w)` into `out` (accumulating: `out += ∇ℓ`).
    fn add_gradient(&self, x: &[f64], y: f64, w: &[f64], out: &mut [f64]);

    /// Convenience: gradient into a fresh vector.
    fn gradient(&self, x: &[f64], y: f64, w: &[f64]) -> Vec<f64> {
        let mut g = vec![0.0; w.len()];
        self.add_gradient(x, y, w, &mut g);
        g
    }

    /// Accumulates `Σᵢ ∇ℓ(xᵢ, yᵢ; w)` over rows `rows` of the packed
    /// feature matrix `x` (labels `y`, aligned) into `acc`, in row order.
    ///
    /// `margins` is caller-owned scratch (see
    /// [`GradScratch`](crate::GradScratch)) so the blocked kernels allocate
    /// nothing per call. **Contract:** the result must be bit-identical to
    /// calling [`Loss::add_gradient`] for each row of the range in order —
    /// blocked implementations may batch the margin computation (`X·w`) and
    /// the coefficient map, but the per-element accumulation order must
    /// stay the example order. The default implementation is the
    /// per-example loop itself. It follows that calling this over
    /// consecutive sub-ranges of `rows`, in order, into the same `acc` is
    /// bit-identical to one call over `rows`:
    /// [`GradScratch`](crate::GradScratch) relies on that to hand a large
    /// unit over in cache-sized blocks.
    ///
    /// Taking a matrix + row *range* (instead of a whole block) is what
    /// lets every worker stream one shared arena: a unit is a range into
    /// the arena matrix — usually the dataset's own feature matrix,
    /// borrowed with zero copies — so replicated units cost no extra
    /// memory and the round loop walks one contiguous allocation.
    fn add_gradient_rows(
        &self,
        x: &Matrix,
        y: &[f64],
        rows: std::ops::Range<usize>,
        w: &[f64],
        margins: &mut Vec<f64>,
        acc: &mut [f64],
    ) {
        let _ = margins;
        for i in rows {
            self.add_gradient(x.row(i), y[i], w, acc);
        }
    }
}

/// Logistic loss in the paper's `y ∈ {−1, +1}` convention:
/// `ℓ = ln(1 + exp(−y·xᵀw))`, `∇ℓ = −y·σ(−y·xᵀw)·x`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogisticLoss;

/// Numerically stable `ln(1 + e^z)`.
fn log1p_exp(z: f64) -> f64 {
    if z > 0.0 {
        z + (-z).exp().ln_1p()
    } else {
        z.exp().ln_1p()
    }
}

/// `1.5 × 2^52` — adding it rounds a small float to the nearest integer and
/// parks that integer in the mantissa's low bits (the classic shifter trick).
const EXP_SHIFTER: f64 = 6_755_399_441_055_744.0;
/// `ln 2` split into a high part whose low mantissa bits are zero and the
/// remainder, so `k·LN2_HI` is exact and `x − k·ln2` loses no precision
/// (the standard Cody–Waite pair, cf. fdlibm's `__ieee754_exp`).
#[allow(clippy::excessive_precision)] // fdlibm's exact bit patterns
const LN2_HI: f64 = 6.931_471_803_691_238_2e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

/// `e^x` for `x ≤ 0`, branch-free, accurate to < 1 ulp over the sigmoid's
/// operating range.
///
/// Cody–Waite reduction `x = k·ln2 + r`, `|r| ≤ ln2/2`, an even/odd-split
/// Taylor polynomial to `r¹³` for `e^r`, and exponent-bit reconstruction of
/// `2^k`. Branch-free matters: the gradient kernels call this inside the
/// packed coefficient loop, and with no data-dependent branches LLVM
/// vectorizes the whole loop 4-wide — the main reason the packed path beats
/// the per-example path (which pays the same math serially, one example at
/// a time). Inputs below −708 clamp to `e^{−708}` ≈ 3e-308 (the sigmoid is
/// saturated long before).
#[inline]
fn exp_nonpos(x: f64) -> f64 {
    debug_assert!(x <= 0.0 || x.is_nan(), "exp_nonpos needs x <= 0, got {x}");
    // Branchless clamp that lets NaN through (`f64::max` would swallow it):
    // a diverged model must keep producing NaN gradients, not tiny finite
    // ones.
    let x = if x < -708.0 { -708.0 } else { x };
    let t = x.mul_add(std::f64::consts::LOG2_E, EXP_SHIFTER);
    let kf = t - EXP_SHIFTER;
    let k = ((t.to_bits() & ((1u64 << 52) - 1)) as i64) - (1i64 << 51);
    let r = kf.mul_add(-LN2_HI, x);
    let r = kf.mul_add(-LN2_LO, r);
    let r2 = r * r;
    // e^r = pe(r²) + r·po(r²): two short Horner chains instead of one long
    // one, halving the FMA dependency chain.
    let pe = r2
        .mul_add(1.0 / 479_001_600.0, 1.0 / 3_628_800.0)
        .mul_add(r2, 1.0 / 40_320.0)
        .mul_add(r2, 1.0 / 720.0)
        .mul_add(r2, 1.0 / 24.0)
        .mul_add(r2, 0.5)
        .mul_add(r2, 1.0);
    let po = r2
        .mul_add(1.0 / 6_227_020_800.0, 1.0 / 39_916_800.0)
        .mul_add(r2, 1.0 / 362_880.0)
        .mul_add(r2, 1.0 / 5_040.0)
        .mul_add(r2, 1.0 / 120.0)
        .mul_add(r2, 1.0 / 6.0)
        .mul_add(r2, 1.0);
    let p = r.mul_add(po, pe);
    let scale = f64::from_bits(((k + 1023) as u64) << 52);
    p * scale
}

/// Numerically stable logistic sigmoid `σ(z) = 1/(1+e^{−z})`.
///
/// Branch-free (select, not branch) over a polynomial `exp`, so loops
/// calling it per element auto-vectorize (see `exp_nonpos` above). Both
/// sides share `e = e^{−|z|}`: `σ(z) = 1/(1+e)` for `z ≥ 0` and `e/(1+e)`
/// otherwise, which keeps `σ(z) + σ(−z) = 1` *exact* in floating point and
/// avoids the catastrophic cancellation of `1 − σ(|z|)`.
#[inline]
#[must_use]
pub fn sigmoid(z: f64) -> f64 {
    let e = exp_nonpos(-z.abs());
    let num = if z >= 0.0 { 1.0 } else { e };
    num / (1.0 + e)
}

impl Loss for LogisticLoss {
    fn value(&self, x: &[f64], y: f64, w: &[f64]) -> f64 {
        log1p_exp(-y * vec_ops::dot(x, w))
    }

    fn add_gradient(&self, x: &[f64], y: f64, w: &[f64], out: &mut [f64]) {
        let margin = y * vec_ops::dot(x, w);
        let coeff = -y * sigmoid(-margin);
        vec_ops::axpy(coeff, x, out);
    }

    fn add_gradient_rows(
        &self,
        x: &Matrix,
        y: &[f64],
        rows: std::ops::Range<usize>,
        w: &[f64],
        margins: &mut Vec<f64>,
        acc: &mut [f64],
    ) {
        // margins = X·w (BLAS-2, bit-equal per row to the per-example dot),
        // then the vectorized coefficient map, then example-order
        // accumulation — the same arithmetic as `add_gradient` per row.
        x.gemv_rows_into(rows.clone(), w, margins);
        for (k, m) in margins.iter_mut().enumerate() {
            let yk = y[rows.start + k];
            *m = -yk * sigmoid(-(yk * *m));
        }
        x.accumulate_scaled_rows_from(rows.start, margins, acc);
    }
}

/// Squared loss `½(xᵀw − y)²` — linear regression; handy for tests because
/// the optimum is available in closed form.
#[derive(Debug, Clone, Copy, Default)]
pub struct SquaredLoss;

impl Loss for SquaredLoss {
    fn value(&self, x: &[f64], y: f64, w: &[f64]) -> f64 {
        let e = vec_ops::dot(x, w) - y;
        0.5 * e * e
    }

    fn add_gradient(&self, x: &[f64], y: f64, w: &[f64], out: &mut [f64]) {
        let e = vec_ops::dot(x, w) - y;
        vec_ops::axpy(e, x, out);
    }

    fn add_gradient_rows(
        &self,
        x: &Matrix,
        y: &[f64],
        rows: std::ops::Range<usize>,
        w: &[f64],
        margins: &mut Vec<f64>,
        acc: &mut [f64],
    ) {
        x.gemv_rows_into(rows.clone(), w, margins);
        for (k, m) in margins.iter_mut().enumerate() {
            *m -= y[rows.start + k];
        }
        x.accumulate_scaled_rows_from(rows.start, margins, acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_gradient<L: Loss>(loss: &L, x: &[f64], y: f64, w: &[f64]) -> Vec<f64> {
        let h = 1e-6;
        (0..w.len())
            .map(|k| {
                let mut wp = w.to_vec();
                let mut wm = w.to_vec();
                wp[k] += h;
                wm[k] -= h;
                (loss.value(x, y, &wp) - loss.value(x, y, &wm)) / (2.0 * h)
            })
            .collect()
    }

    #[test]
    fn sigmoid_limits_and_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        assert!(sigmoid(40.0) > 1.0 - 1e-12);
        assert!(sigmoid(-40.0) < 1e-12);
        for z in [-3.0, -0.5, 0.7, 2.0] {
            assert!((sigmoid(z) + sigmoid(-z) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sigmoid_propagates_nan_and_saturates_at_infinities() {
        // A diverged model must keep producing NaN gradients, not tiny
        // finite ones that let training "converge" at garbage weights.
        assert!(sigmoid(f64::NAN).is_nan());
        assert_eq!(sigmoid(f64::INFINITY), 1.0);
        // Deep saturation clamps at e^{-708} ≈ 3e-308 — indistinguishable
        // from zero for every consumer, and never NaN/inf.
        assert!(sigmoid(f64::NEG_INFINITY) < 1e-300);
        assert!(sigmoid(-1e6) < 1e-300);
        assert_eq!(sigmoid(1e6), 1.0);
    }

    #[test]
    fn log1p_exp_stable_for_large_args() {
        assert!((log1p_exp(1000.0) - 1000.0).abs() < 1e-9);
        assert!(log1p_exp(-1000.0) < 1e-12);
        assert!((log1p_exp(0.0) - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn logistic_gradient_matches_finite_differences() {
        let loss = LogisticLoss;
        let x = [0.5, -1.2, 2.0];
        let w = [0.1, 0.3, -0.2];
        for y in [-1.0, 1.0] {
            let g = loss.gradient(&x, y, &w);
            let num = numeric_gradient(&loss, &x, y, &w);
            for (a, b) in g.iter().zip(&num) {
                assert!((a - b).abs() < 1e-6, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn squared_gradient_matches_finite_differences() {
        let loss = SquaredLoss;
        let x = [1.0, -2.0];
        let w = [0.7, 0.4];
        let g = loss.gradient(&x, 3.0, &w);
        let num = numeric_gradient(&loss, &x, 3.0, &w);
        for (a, b) in g.iter().zip(&num) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn logistic_loss_decreases_with_correct_margin() {
        let loss = LogisticLoss;
        let x = [1.0];
        // Larger positive margin with y = +1 → smaller loss.
        assert!(loss.value(&x, 1.0, &[2.0]) < loss.value(&x, 1.0, &[0.5]));
        // Wrong-signed w → larger loss.
        assert!(loss.value(&x, 1.0, &[-1.0]) > loss.value(&x, 1.0, &[1.0]));
    }

    #[test]
    fn add_gradient_accumulates() {
        let loss = SquaredLoss;
        let x = [1.0, 1.0];
        let mut acc = vec![10.0, 20.0];
        let g = loss.gradient(&x, 0.0, &[1.0, 1.0]);
        loss.add_gradient(&x, 0.0, &[1.0, 1.0], &mut acc);
        assert_eq!(acc, vec![10.0 + g[0], 20.0 + g[1]]);
    }
}
