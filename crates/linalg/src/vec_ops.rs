//! BLAS-1 style kernels over plain `f64` slices.
//!
//! Gradients in this codebase are `Vec<f64>`; these free functions implement
//! the handful of dense vector kernels the optimizer and the coding schemes
//! need, with debug-mode shape assertions and no hidden allocation.

/// Dot product `x · y`.
///
/// # Panics
/// Panics when the slices have different lengths (a programming error in the
/// caller, not a data-dependent condition).
#[must_use]
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    // Accumulate in eight independent lanes — two 4-wide vector chains —
    // so the loop vectorizes *and* the FMA dependency chain halves (one
    // chain is latency-bound). chunks_exact hoists the bounds checks that
    // would otherwise keep the loop scalar. The lane count and reduction
    // order are a cross-kernel contract: `Matrix::dot_rows4` replicates
    // them exactly so blocked and per-example gradients stay bit-identical.
    let mut acc = [0.0f64; 8];
    let (qxs, rx) = x.as_chunks::<8>();
    let (qys, ry) = y.as_chunks::<8>();
    for (qx, qy) in qxs.iter().zip(qys) {
        for l in 0..8 {
            acc[l] = qx[l].mul_add(qy[l], acc[l]);
        }
    }
    let mut tail = 0.0;
    for (a, b) in rx.iter().zip(ry) {
        tail = a.mul_add(*b, tail);
    }
    reduce8(&acc) + tail
}

/// The 8-lane reduction of [`dot`], which `Matrix::dot_rows4` spells out
/// per row: pairwise within each 4-lane half, then across halves — part of
/// the bit-equality contract between the two.
#[inline]
fn reduce8(acc: &[f64; 8]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// `y += alpha * x` (the classic axpy).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi.mul_add(alpha, *yi);
    }
}

/// In-place scaling `x *= alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Element-wise sum `out = a + b` into a fresh vector.
#[must_use]
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Element-wise difference `out = a - b` into a fresh vector.
#[must_use]
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Accumulate `acc += x` element-wise.
#[inline]
pub fn add_assign(acc: &mut [f64], x: &[f64]) {
    assert_eq!(acc.len(), x.len(), "add_assign: length mismatch");
    for (a, b) in acc.iter_mut().zip(x) {
        *a += b;
    }
}

/// Euclidean norm `‖x‖₂`, computed with scaling to avoid overflow for the
/// large-magnitude sums produced by summed partial gradients.
#[must_use]
pub fn norm2(x: &[f64]) -> f64 {
    let max = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    if max == 0.0 || !max.is_finite() {
        return if max.is_nan() { f64::NAN } else { max };
    }
    let sum: f64 = x.iter().map(|v| (v / max) * (v / max)).sum();
    max * sum.sqrt()
}

/// Infinity norm `‖x‖∞`.
#[must_use]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

/// Squared Euclidean distance `‖a − b‖₂²`.
#[must_use]
pub fn dist2_sq(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dist2_sq: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Returns a zero vector of length `n`.
#[must_use]
pub fn zeros(n: usize) -> Vec<f64> {
    vec![0.0; n]
}

/// Sum of a set of equal-length vectors into a fresh vector.
///
/// Returns `None` when `vs` is empty (the caller decides what an empty sum
/// means; the BCC master never reduces zero messages).
#[must_use]
pub fn sum_vectors<'a, I>(mut vs: I) -> Option<Vec<f64>>
where
    I: Iterator<Item = &'a [f64]>,
{
    let first = vs.next()?;
    let mut acc = first.to_vec();
    for v in vs {
        add_assign(&mut acc, v);
    }
    Some(acc)
}

/// Linear combination `Σ cᵢ·vᵢ` of equal-length vectors into a fresh vector.
///
/// Returns `None` when the iterators are empty.
#[must_use]
pub fn linear_combination<'a, I>(terms: I) -> Option<Vec<f64>>
where
    I: IntoIterator<Item = (f64, &'a [f64])>,
{
    let mut it = terms.into_iter();
    let (c0, v0) = it.next()?;
    let mut acc: Vec<f64> = v0.iter().map(|x| c0 * x).collect();
    for (c, v) in it {
        axpy(c, v, &mut acc);
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f64> = (0..17).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..17).map(|i| (i * 2) as f64).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!(approx_eq(dot(&x, &y), naive, 1e-12));
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 2.0, 3.0];
        axpy(2.0, &[10.0, 20.0, 30.0], &mut y);
        assert_eq!(y, vec![21.0, 42.0, 63.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![0.5, -0.5, 1.5];
        assert_eq!(sub(&add(&a, &b), &b), a);
    }

    #[test]
    fn norm2_scaled_against_overflow() {
        let x = vec![1e200, 1e200];
        let n = norm2(&x);
        assert!(n.is_finite());
        assert!(approx_eq(n, 1e200 * 2.0f64.sqrt(), 1e-9));
    }

    #[test]
    fn norm2_zero_and_inf_norm() {
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm2(&[0.0, 0.0]), 0.0);
        assert_eq!(norm_inf(&[-3.0, 2.0]), 3.0);
    }

    #[test]
    fn sum_vectors_none_on_empty() {
        let empty: Vec<&[f64]> = vec![];
        assert!(sum_vectors(empty.into_iter()).is_none());
    }

    #[test]
    fn sum_vectors_adds_all() {
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        let c = [5.0, 6.0];
        let s = sum_vectors([a.as_slice(), b.as_slice(), c.as_slice()].into_iter()).unwrap();
        assert_eq!(s, vec![9.0, 12.0]);
    }

    #[test]
    fn linear_combination_basic() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        let lc = linear_combination([(2.0, a.as_slice()), (-3.0, b.as_slice())]).unwrap();
        assert_eq!(lc, vec![2.0, -3.0]);
    }

    #[test]
    fn dist2_sq_basic() {
        assert_eq!(dist2_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }
}
