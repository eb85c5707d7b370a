//! Householder QR and least-squares solves, aware of each column's profile.
//!
//! The cyclic-repetition decoder solves `B_Fᵀ a = 1` once per round, and
//! every row of `B` is non-zero only on one cyclic window of `r` entries: with the received rows sorted by worker id, `B_Fᵀ` is a band of
//! width at most `2r` plus at most `r − 1` wrap-around columns. Householder
//! QR is the numerically stable way to solve it, and a reflector built from a
//! column that is zero outside rows `lo..hi` is itself zero outside that
//! range, so the kernel here does only the work the zeros leave.
//!
//! There is one implementation. It copies each column of the matrix into a
//! contiguous buffer that covers just the rows from the column's first
//! non-zero entry to its last — that range is detected from the input, and
//! grows whenever a reflector fills the column in. Building a reflector,
//! applying it to a trailing column, forming `Qᵀb` and back-substituting all
//! stay inside those ranges, and so does the memory. A dense matrix has full
//! ranges and costs the usual `O(rows·cols²)`; the decoders' band costs
//! `O(n·r²)` after an `O(n²)` scan for the ranges.

use crate::error::LinAlgError;
use crate::matrix::Matrix;
use crate::vec_ops;
use crate::Result;

/// Threshold below which a diagonal entry of `R` is treated as rank-deficient.
const RANK_TOL: f64 = 1e-10;

/// One column of the packed factorization: the entries of rows
/// `first..first + entries.len()`. Every row outside is exactly zero.
#[derive(Debug, Clone)]
struct Column {
    first: usize,
    entries: Vec<f64>,
}

impl Column {
    /// Copies a dense column, leaving out its leading and trailing zeros.
    fn from_dense(dense: &[f64]) -> Self {
        // Whole blocks of zeros are skipped by a test the compiler vectorises;
        // the scan for the ranges is the kernel's only O(rows·cols) step.
        const BLOCK: usize = 16;
        let zero = |block: &&[f64]| block.iter().fold(true, |all, v| all & (*v == 0.0));
        let skip = (dense.chunks(BLOCK).take_while(zero).count() * BLOCK).min(dense.len());
        let first = skip + dense[skip..].iter().take_while(|v| **v == 0.0).count();
        if first == dense.len() {
            return Self {
                first: 0,
                entries: Vec::new(),
            };
        }
        // `dense[first]` is non-zero, so neither count below reaches it.
        let end = dense.len() - dense.rchunks(BLOCK).take_while(zero).count() * BLOCK;
        let end = end
            - dense[first..end]
                .iter()
                .rev()
                .take_while(|v| **v == 0.0)
                .count();
        Self {
            first,
            entries: dense[first..end].to_vec(),
        }
    }

    /// One past the last stored row.
    fn end(&self) -> usize {
        self.first + self.entries.len()
    }

    /// The entry of row `i`, stored or not.
    fn get(&self, i: usize) -> f64 {
        let stored = i
            .checked_sub(self.first)
            .and_then(|at| self.entries.get(at));
        stored.copied().unwrap_or(0.0)
    }

    /// The entries of rows `lo..hi`, all of them stored.
    fn rows(&self, lo: usize, hi: usize) -> &[f64] {
        &self.entries[lo - self.first..hi - self.first]
    }

    /// Mutable entries of rows `lo..hi`, storing (as zeros) those that were not.
    fn rows_mut(&mut self, lo: usize, hi: usize) -> &mut [f64] {
        if lo < self.first {
            let missing = self.first - lo;
            self.entries.splice(..0, std::iter::repeat_n(0.0, missing));
            self.first = lo;
        }
        if hi > self.end() {
            self.entries.resize(hi - self.first, 0.0);
        }
        &mut self.entries[lo - self.first..hi - self.first]
    }
}

/// Householder QR factorization `A = Q R` for `rows ≥ cols`.
///
/// `Q` is stored implicitly as Householder reflectors in the lower trapezoid.
#[derive(Debug, Clone)]
pub struct Qr {
    rows: usize,
    /// Packed reflector tails (below the diagonal) and `R` (upper triangle).
    cols: Vec<Column>,
    /// Scalar `τ` per reflector.
    tau: Vec<f64>,
}

impl Qr {
    /// Factors a tall (or square) matrix.
    ///
    /// # Errors
    /// [`LinAlgError::Underdetermined`] when `rows < cols`.
    pub fn factor(a: &Matrix) -> Result<Self> {
        let cols = (0..a.cols()).map(|j| Column::from_dense(&a.col(j)));
        Self::factor_columns(a.rows(), cols.collect())
    }

    /// Factors the matrix with the given columns, each `rows` long.
    fn factor_columns(rows: usize, mut cols: Vec<Column>) -> Result<Self> {
        let (m, n) = (rows, cols.len());
        if m < n {
            return Err(LinAlgError::Underdetermined { rows: m, cols: n });
        }
        let mut tau = vec![0.0; n];
        // The current reflector `v` over rows `k..hi`, with `v[0] = 1` explicit.
        let mut v = Vec::with_capacity(m);

        for k in 0..n {
            // Build the Householder reflector annihilating column k below row k.
            let (done, trailing) = cols.split_at_mut(k + 1);
            let hi = done[k].end();
            if hi <= k {
                continue;
            }
            let x = done[k].rows_mut(k, hi);
            let norm = vec_ops::norm2(x);
            if norm == 0.0 {
                continue;
            }
            let alpha = if x[0] >= 0.0 { -norm } else { norm };
            let v0 = x[0] - alpha;
            // v = [v0, x[1..]] with implicit normalization by v0.
            for xi in &mut x[1..] {
                *xi /= v0;
            }
            tau[k] = -v0 / alpha;
            x[0] = alpha;
            v.clear();
            v.push(1.0);
            v.extend_from_slice(&x[1..]);

            // Apply reflector to trailing columns: A := (I − τ v vᵀ) A. A column
            // with no entry on rows k..hi is orthogonal to v and stays as it is;
            // any other is filled in over all of k..hi.
            for col in trailing {
                if col.first.max(k) >= col.end().min(hi) {
                    continue;
                }
                let target = col.rows_mut(k, hi);
                let s = tau[k] * vec_ops::dot(&v, target);
                vec_ops::axpy(-s, &v, target);
            }
        }
        Ok(Self { rows, cols, tau })
    }

    /// Shape of the factored matrix.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols.len())
    }

    /// Numerical rank: count of `|R[k,k]|` above tolerance (relative to the
    /// largest diagonal magnitude).
    #[must_use]
    pub fn rank(&self) -> usize {
        let diag = || {
            self.cols
                .iter()
                .enumerate()
                .map(|(k, col)| col.get(k).abs())
        };
        let rmax = diag().fold(0.0f64, f64::max);
        if rmax == 0.0 {
            return 0;
        }
        diag().filter(|&d| d > RANK_TOL * rmax).count()
    }

    /// Least-squares solve `min ‖A x − b‖₂`.
    ///
    /// # Errors
    /// [`LinAlgError::ShapeMismatch`] on a bad `b` length, or
    /// [`LinAlgError::Singular`] when `R` is rank-deficient.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = self.shape();
        if b.len() != m {
            return Err(LinAlgError::ShapeMismatch {
                op: "qr_solve",
                lhs: (m, n),
                rhs: (b.len(), 1),
            });
        }
        // y = Qᵀ b, applying reflectors in order, each over its own rows.
        let mut y = b.to_vec();
        for (k, col) in self.cols.iter().enumerate() {
            if self.tau[k] == 0.0 {
                continue;
            }
            let hi = col.end();
            let tail = col.rows(k + 1, hi);
            let s = self.tau[k] * (y[k] + vec_ops::dot(tail, &y[k + 1..hi]));
            y[k] -= s;
            vec_ops::axpy(-s, tail, &mut y[k + 1..hi]);
        }
        // Back substitution on R x = y[..n], one column of R at a time from
        // the first row it reaches down to the diagonal.
        y.truncate(n);
        let mut x = y;
        for (j, col) in self.cols.iter().enumerate().rev() {
            let d = col.get(j);
            if d.abs() < RANK_TOL {
                return Err(LinAlgError::Singular { pivot: j });
            }
            x[j] /= d;
            let top = col.first;
            let (above, at) = x.split_at_mut(j);
            vec_ops::axpy(-at[0], col.rows(top, j), &mut above[top..]);
        }
        Ok(x)
    }
}

/// One-shot least squares `min ‖A x − b‖₂`.
///
/// # Errors
/// Propagates factorization and solve errors.
pub fn least_squares(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    Qr::factor(a)?.solve_least_squares(b)
}

/// Solves the *underdetermined* row system `xᵀ A = cᵀ` (i.e. `Aᵀ x = c`) in
/// the least-squares sense by factoring `Aᵀ`, whose columns are the rows of
/// `A` as they already lie in memory.
///
/// This is exactly the decoder's problem: find combination coefficients over
/// received worker messages (`x`, one per finished worker) whose combination
/// of coding rows reproduces the all-ones row `cᵀ`.
///
/// # Errors
/// Propagates factorization and solve errors.
pub fn solve_row_combination(a: &Matrix, c: &[f64]) -> Result<Vec<f64>> {
    let cols = (0..a.rows()).map(|i| Column::from_dense(a.row(i)));
    Qr::factor_columns(a.cols(), cols.collect())?.solve_least_squares(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq_slice;

    fn mat(rows: usize, cols: usize, v: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn column_keeps_first_to_last_nonzero() {
        // Lengths on both sides of the scan's block size, every position.
        for len in [0, 1, 15, 16, 17, 33, 48] {
            let mut dense = vec![0.0; len];
            assert!(Column::from_dense(&dense).entries.is_empty());
            for lo in 0..len {
                for hi in [lo, len - 1] {
                    (dense[lo], dense[hi]) = (1.0, -2.0);
                    let col = Column::from_dense(&dense);
                    assert_eq!((col.first, col.end()), (lo, hi + 1), "len {len}");
                    assert_eq!(col.entries, dense[lo..=hi]);
                    (dense[lo], dense[hi]) = (0.0, 0.0);
                }
            }
        }
    }

    #[test]
    fn square_solve_matches_lu() {
        let a = mat(2, 2, &[2.0, 1.0, 1.0, 3.0]);
        let x = least_squares(&a, &[5.0, 10.0]).unwrap();
        assert!(approx_eq_slice(&x, &[1.0, 3.0], 1e-10));
    }

    #[test]
    fn overdetermined_projects() {
        // Fit y = c over observations {1, 2, 3}: least-squares c = 2.
        let a = mat(3, 1, &[1.0, 1.0, 1.0]);
        let x = least_squares(&a, &[1.0, 2.0, 3.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn underdetermined_rejected() {
        let a = mat(1, 2, &[1.0, 1.0]);
        assert!(matches!(
            Qr::factor(&a),
            Err(LinAlgError::Underdetermined { .. })
        ));
    }

    #[test]
    fn rank_detects_deficiency() {
        let full = mat(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        assert_eq!(Qr::factor(&full).unwrap().rank(), 2);
        let deficient = mat(3, 2, &[1.0, 2.0, 2.0, 4.0, 3.0, 6.0]);
        assert_eq!(Qr::factor(&deficient).unwrap().rank(), 1);
    }

    #[test]
    fn rank_deficient_solve_errors() {
        let deficient = mat(3, 2, &[1.0, 2.0, 2.0, 4.0, 3.0, 6.0]);
        let qr = Qr::factor(&deficient).unwrap();
        assert!(matches!(
            qr.solve_least_squares(&[1.0, 1.0, 1.0]),
            Err(LinAlgError::Singular { .. })
        ));
    }

    #[test]
    fn row_combination_recovers_ones() {
        // Two rows [1, 1, 0] and [0, 1, 1]; no exact combination gives all
        // ones, but adding a third row [1, 0, 1] makes (0.5, 0.5, 0.5) exact.
        let a = mat(3, 3, &[1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0]);
        let x = solve_row_combination(&a, &[1.0, 1.0, 1.0]).unwrap();
        assert!(approx_eq_slice(&x, &[0.5, 0.5, 0.5], 1e-10));
    }

    #[test]
    fn residual_orthogonal_to_columns() {
        let a = mat(4, 2, &[1.0, 0.5, 0.0, 1.0, 1.0, 1.0, 2.0, -1.0]);
        let b = [1.0, 2.0, 3.0, 4.0];
        let x = least_squares(&a, &b).unwrap();
        let ax = a.gemv(&x).unwrap();
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
        // Normal equations: Aᵀ r = 0.
        let atr = a.gemv_t(&r).unwrap();
        assert!(atr.iter().all(|v| v.abs() < 1e-10));
    }

    #[test]
    fn solve_shape_mismatch() {
        let a = Matrix::identity(3);
        let qr = Qr::factor(&a).unwrap();
        assert!(qr.solve_least_squares(&[1.0]).is_err());
    }

    #[test]
    fn zero_column_handled() {
        // A column that is already zero below the diagonal hits the τ=0 path.
        let a = mat(3, 2, &[1.0, 1.0, 0.0, 0.0, 0.0, 2.0]);
        let x = least_squares(&a, &[2.0, 0.0, 4.0]).unwrap();
        let ax = a.gemv(&x).unwrap();
        assert!(approx_eq_slice(&ax, &[2.0, 0.0, 4.0], 1e-10));
    }
}
