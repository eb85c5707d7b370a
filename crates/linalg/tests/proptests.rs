//! Property-based tests for the linear-algebra substrate.

use bcc_linalg::{qr, solve, vec_ops, Matrix};
use proptest::prelude::*;

/// Strategy: a vector of finite, moderate floats.
fn vec_f64(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3..1e3f64, len)
}

/// Strategy: a well-conditioned (diagonally dominant) square matrix.
fn dd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0..1.0f64, n * n).prop_map(move |data| {
        let mut m = Matrix::from_vec(n, n, data).unwrap();
        for i in 0..n {
            let rowsum: f64 = m.row(i).iter().map(|v| v.abs()).sum();
            m[(i, i)] += rowsum + 1.0;
        }
        m
    })
}

proptest! {
    #[test]
    fn dot_commutes(x in vec_f64(32), y in vec_f64(32)) {
        let a = vec_ops::dot(&x, &y);
        let b = vec_ops::dot(&y, &x);
        prop_assert!((a - b).abs() <= 1e-6 * (1.0 + a.abs()));
    }

    #[test]
    fn dot_linear_in_first_arg(x in vec_f64(16), y in vec_f64(16), c in -10.0..10.0f64) {
        let scaled: Vec<f64> = x.iter().map(|v| c * v).collect();
        let lhs = vec_ops::dot(&scaled, &y);
        let rhs = c * vec_ops::dot(&x, &y);
        prop_assert!((lhs - rhs).abs() <= 1e-6 * (1.0 + rhs.abs()));
    }

    #[test]
    fn axpy_matches_definition(x in vec_f64(24), y in vec_f64(24), a in -5.0..5.0f64) {
        let mut z = y.clone();
        vec_ops::axpy(a, &x, &mut z);
        for i in 0..x.len() {
            prop_assert!((z[i] - (a * x[i] + y[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn norm2_triangle_inequality(x in vec_f64(16), y in vec_f64(16)) {
        let s = vec_ops::add(&x, &y);
        prop_assert!(vec_ops::norm2(&s) <= vec_ops::norm2(&x) + vec_ops::norm2(&y) + 1e-9);
    }

    #[test]
    fn sum_vectors_order_independent(a in vec_f64(8), b in vec_f64(8), c in vec_f64(8)) {
        let s1 = vec_ops::sum_vectors([a.as_slice(), b.as_slice(), c.as_slice()].into_iter()).unwrap();
        let s2 = vec_ops::sum_vectors([c.as_slice(), a.as_slice(), b.as_slice()].into_iter()).unwrap();
        prop_assert!(bcc_linalg::approx_eq_slice(&s1, &s2, 1e-9));
    }

    #[test]
    fn lu_solve_residual_small(a in dd_matrix(6), b in vec_f64(6)) {
        let x = solve::solve(&a, &b).unwrap();
        let ax = a.gemv(&x).unwrap();
        for i in 0..b.len() {
            prop_assert!((ax[i] - b[i]).abs() < 1e-6 * (1.0 + b[i].abs()));
        }
    }

    #[test]
    fn qr_least_squares_residual_orthogonal(
        data in prop::collection::vec(-10.0..10.0f64, 8 * 3),
        b in vec_f64(8),
    ) {
        let a = Matrix::from_vec(8, 3, data).unwrap();
        if let Ok(x) = qr::least_squares(&a, &b) {
            let ax = a.gemv(&x).unwrap();
            let r: Vec<f64> = b.iter().zip(&ax).map(|(u, v)| u - v).collect();
            let atr = a.gemv_t(&r).unwrap();
            let scale = 1.0 + a.norm_max() * vec_ops::norm2(&b);
            for v in atr {
                prop_assert!(v.abs() <= 1e-6 * scale);
            }
        }
    }

    #[test]
    fn gemv_distributes_over_addition(a in dd_matrix(5), x in vec_f64(5), y in vec_f64(5)) {
        let xy = vec_ops::add(&x, &y);
        let lhs = a.gemv(&xy).unwrap();
        let ax = a.gemv(&x).unwrap();
        let ay = a.gemv(&y).unwrap();
        let rhs = vec_ops::add(&ax, &ay);
        prop_assert!(bcc_linalg::approx_eq_slice(&lhs, &rhs, 1e-6));
    }
}

// ---------------------------------------------------------------------------
// The profile-aware Householder kernel against a dense reference.
// ---------------------------------------------------------------------------

const QR_ROWS: usize = 20;
const QR_COLS: usize = 14;

/// Textbook Householder least squares: every reflector runs over all remaining
/// rows of every remaining column, zero or not.
fn dense_reference(a: &Matrix, b: &[f64]) -> bcc_linalg::Result<Vec<f64>> {
    let n = a.cols();
    let mut cols: Vec<Vec<f64>> = (0..n).map(|j| a.col(j)).collect();
    let mut y = b.to_vec();
    for k in 0..n {
        let (head, rest) = cols.split_at_mut(k + 1);
        let v = &mut head[k][k..];
        let norm = vec_ops::norm2(v);
        if norm == 0.0 {
            continue;
        }
        let alpha = if v[0] >= 0.0 { -norm } else { norm };
        v[0] -= alpha;
        let beta = 2.0 / vec_ops::dot(v, v);
        for target in rest.iter_mut().map(|c| &mut c[k..]).chain([&mut y[k..]]) {
            let s = beta * vec_ops::dot(v, target);
            vec_ops::axpy(-s, v, target);
        }
        v[0] = alpha;
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let d = cols[i][i];
        if d.abs() < 1e-10 {
            return Err(bcc_linalg::LinAlgError::Singular { pivot: i });
        }
        let tail: f64 = (i + 1..n).map(|j| cols[j][i] * x[j]).sum();
        x[i] = (y[i] - tail) / d;
    }
    Ok(x)
}

/// Shapes the decoders and their neighbours produce. Column `j` of the
/// result is non-zero only on
/// * kind 0 — every row (dense);
/// * kind 1 — rows `j − width ..= j + width` (banded);
/// * kind 2 — rows `j, j+1, …, j+width` taken modulo the row count (the
///   cyclic band of a coding matrix, wrap-around columns included);
/// * kind 3 — rows `j + shift ..= j + shift + width`, so the column starts
///   with zeros down to and including its diagonal entry (received rows
///   after `shift` stragglers in a row);
///
/// and one entry per column — on the diagonal, `shift` below it for kind 3 —
/// is raised above the sum of the rest of its column, which keeps the matrix
/// well conditioned.
fn shaped(data: Vec<f64>, kind: usize, width: usize, shift: usize) -> Matrix {
    let (m, n) = (QR_ROWS, QR_COLS);
    let mut a = Matrix::from_vec(m, n, data).unwrap();
    for j in 0..n {
        let anchor = if kind == 3 { j + shift } else { j };
        let mut colsum = 0.0;
        for i in 0..m {
            let keep = match kind {
                0 => true,
                1 => i + width >= j && i <= j + width,
                2 => (i + m - j) % m <= width,
                _ => i >= anchor && i <= anchor + width,
            };
            if !keep {
                a[(i, j)] = 0.0;
            }
            colsum += a[(i, j)].abs();
        }
        a[(anchor, j)] = colsum + 1.0;
    }
    a
}

fn same_solution(x: &[f64], reference: &[f64]) -> bool {
    vec_ops::dist2_sq(x, reference).sqrt() <= 1e-9 * vec_ops::norm2(reference)
}

proptest! {
    #[test]
    fn qr_profile_kernel_matches_dense_reference(
        data in prop::collection::vec(-1.0..1.0f64, QR_ROWS * QR_COLS),
        b in vec_f64(QR_ROWS),
        kind in 0usize..4,
        width in 1usize..6,
        shift in 1usize..(QR_ROWS - QR_COLS + 1),
    ) {
        let a = shaped(data, kind, width, shift);
        let reference = dense_reference(&a, &b).unwrap();
        // Both entry points: columns gathered from a row-major matrix, and
        // the rows of the transpose taken as they lie.
        let x = qr::least_squares(&a, &b).unwrap();
        prop_assert!(same_solution(&x, &reference), "kind {kind}: {x:?} vs {reference:?}");
        let x = qr::solve_row_combination(&a.transpose(), &b).unwrap();
        prop_assert!(same_solution(&x, &reference), "kind {kind}: {x:?} vs {reference:?}");
    }

    #[test]
    fn qr_profile_kernel_reports_rank_deficiency_like_dense_reference(
        data in prop::collection::vec(-1.0..1.0f64, QR_ROWS * QR_COLS),
        b in vec_f64(QR_ROWS),
        kind in 0usize..4,
        width in 1usize..6,
        shift in 1usize..(QR_ROWS - QR_COLS + 1),
        from in 0usize..QR_COLS,
        to in 0usize..QR_COLS,
        factor in -2.0..2.0f64,
    ) {
        // Column `to` becomes a multiple of column `from` (zero when the two
        // coincide or the factor is zero): rank at most QR_COLS − 1.
        let mut a = shaped(data, kind, width, shift);
        let scale = if from == to { 0.0 } else { factor };
        for i in 0..QR_ROWS {
            a[(i, to)] = scale * a[(i, from)];
        }
        let reference = dense_reference(&a, &b).unwrap_err();
        prop_assert!(matches!(reference, bcc_linalg::LinAlgError::Singular { .. }));
        let err = qr::least_squares(&a, &b).unwrap_err();
        prop_assert_eq!(std::mem::discriminant(&err), std::mem::discriminant(&reference));
        let err = qr::solve_row_combination(&a.transpose(), &b).unwrap_err();
        prop_assert_eq!(std::mem::discriminant(&err), std::mem::discriminant(&reference));
        prop_assert!(qr::Qr::factor(&a).unwrap().rank() < QR_COLS);
    }
}
