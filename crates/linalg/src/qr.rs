//! Householder QR and least-squares solves, aware of each column's profile.
//!
//! The cyclic-repetition decoder solves `B_Fᵀ a = 1` once per round, and
//! every row of `B` is non-zero only on one cyclic window of `r` entries: with the received rows sorted by worker id, `B_Fᵀ` is a band of
//! width at most `2r` plus at most `r − 1` wrap-around columns. Householder
//! QR is the numerically stable way to solve it, and a reflector built from a
//! column that is zero outside rows `lo..hi` is itself zero outside that
//! range, so the kernel here does only the work the zeros leave.
//!
//! There is one implementation. Each column is stored only from its first
//! non-zero row to its last, and that range grows whenever a reflector fills
//! the column in. Before the first reflector, every column gets the slots of
//! all the rows it can come to hold, so the whole factorization lives in one
//! buffer that never grows. A reflector visits only the trailing columns its
//! rows reach, which it finds in order of their first rows. Building a
//! reflector, applying it, forming `Qᵀb` and back-substituting all stay
//! inside the stored ranges. A dense matrix has full ranges and costs the
//! usual `O(rows·cols²)`; the decoders' band costs `O(n·r²)`.
//!
//! [`Qr::from_columns`] takes the columns already profiled, as
//! `(first row, entries)`, so a caller that knows where its zeros are skips
//! the `O(rows·cols)` scan for them. [`Qr::factor`] and
//! [`solve_row_combination`] scan a dense matrix and hand its columns on.

use crate::error::LinAlgError;
use crate::matrix::Matrix;
use crate::vec_ops;
use crate::Result;

/// Threshold below which a diagonal entry of `R` is treated as rank-deficient.
const RANK_TOL: f64 = 1e-10;

/// Narrows the column part `entries`, which starts at row `first`, to its
/// first non-zero entry through its last; an all-zero part becomes `(0, [])`.
fn trim(first: usize, entries: &[f64]) -> (usize, &[f64]) {
    // Whole blocks of zeros are skipped by a test the compiler vectorises.
    const BLOCK: usize = 16;
    let zero = |block: &&[f64]| block.iter().fold(true, |all, v| all & (*v == 0.0));
    let skip = (entries.chunks(BLOCK).take_while(zero).count() * BLOCK).min(entries.len());
    let lead = skip + entries[skip..].iter().take_while(|v| **v == 0.0).count();
    if lead == entries.len() {
        return (0, &[]);
    }
    // `entries[lead]` is non-zero, so neither count below reaches it.
    let end = entries.len() - entries.rchunks(BLOCK).take_while(zero).count() * BLOCK;
    let end = end
        - entries[lead..end]
            .iter()
            .rev()
            .take_while(|v| **v == 0.0)
            .count();
    (first + lead, &entries[lead..end])
}

/// One column of the packed factorization. Rows `first..end` are stored;
/// every other row is exactly zero. The column owns the buffer slots of rows
/// `base..base + len`, every row it can come to store, and the slots outside
/// `first..end` hold zeros.
#[derive(Debug, Clone, Copy)]
struct Column {
    first: usize,
    end: usize,
    base: usize,
    len: usize,
    /// Offset in the buffer of row `base`'s slot.
    at: usize,
}

impl Column {
    /// Rows `lo..hi`, which must lie in the column's own slots: slicing
    /// those first makes a wrong sizing in [`Qr::from_columns`] panic rather
    /// than reach into a neighbour.
    fn rows<'d>(&self, data: &'d [f64], lo: usize, hi: usize) -> &'d [f64] {
        &data[self.at..self.at + self.len][lo - self.base..hi - self.base]
    }

    /// Mutable rows `lo..hi`, as [`Column::rows`].
    fn rows_mut<'d>(&self, data: &'d mut [f64], lo: usize, hi: usize) -> &'d mut [f64] {
        &mut data[self.at..self.at + self.len][lo - self.base..hi - self.base]
    }

    /// The entry of row `i`, stored or not.
    fn get(&self, data: &[f64], i: usize) -> f64 {
        if (self.first..self.end).contains(&i) {
            data[self.at + i - self.base]
        } else {
            0.0
        }
    }

    /// Stores rows `lo..hi` too (their slots already hold zeros).
    fn cover(&mut self, lo: usize, hi: usize) {
        self.first = self.first.min(lo);
        self.end = self.end.max(hi);
    }
}

/// Householder QR factorization `A = Q R` for `rows ≥ cols`.
///
/// `Q` is stored implicitly as Householder reflectors in the lower trapezoid.
#[derive(Debug, Clone)]
pub struct Qr {
    rows: usize,
    /// Where each column's rows lie in `data`.
    cols: Vec<Column>,
    /// Packed reflector tails (below the diagonal) and `R` (upper triangle),
    /// column after column.
    data: Vec<f64>,
    /// Scalar `τ` per reflector.
    tau: Vec<f64>,
}

impl Qr {
    /// Factors a tall (or square) matrix.
    ///
    /// # Errors
    /// [`LinAlgError::Underdetermined`] when `rows < cols`.
    pub fn factor(a: &Matrix) -> Result<Self> {
        let cols: Vec<Vec<f64>> = (0..a.cols()).map(|j| a.col(j)).collect();
        Self::from_columns(a.rows(), cols.iter().map(|c| (0, c.as_slice())))
    }

    /// Factors the `rows`-row matrix whose `j`-th column is the `j`-th item
    /// of `columns`: `(first, entries)` holds the column's rows
    /// `first..first + entries.len()`, and every other row is zero. Zeros at
    /// either end of `entries` are dropped, so the result is the same, bit
    /// for bit, as factoring the dense matrix.
    ///
    /// # Errors
    /// [`LinAlgError::OutOfBounds`] when a column runs past `rows`, and
    /// [`LinAlgError::Underdetermined`] when `rows` is less than the number of
    /// columns.
    pub fn from_columns<'a>(
        rows: usize,
        columns: impl IntoIterator<Item = (usize, &'a [f64])>,
    ) -> Result<Self> {
        let mut columns: Vec<(usize, &[f64])> = columns.into_iter().collect();
        for column in &mut columns {
            let (first, entries) = *column;
            if first
                .checked_add(entries.len())
                .is_none_or(|end| end > rows)
            {
                return Err(LinAlgError::OutOfBounds {
                    index: first.saturating_add(entries.len()) - 1,
                    len: rows,
                });
            }
            *column = trim(first, entries);
        }
        let (m, n) = (rows, columns.len());
        if m < n {
            return Err(LinAlgError::Underdetermined { rows: m, cols: n });
        }

        // The rows column `j` can come to store. A reflector spans the rows of
        // the column it is built from, and it fills in only columns after
        // that one, so column `j` never ends past `reach[j]`, the last end
        // among columns `0..=j`. It starts no higher than its first row, its
        // diagonal, or the first reflector that can reach that first row.
        let mut furthest = 0;
        let reach: Vec<usize> = columns
            .iter()
            .map(|(first, entries)| {
                furthest = furthest.max(first + entries.len());
                furthest
            })
            .collect();
        let mut at = 0;
        let mut cols: Vec<Column> = columns
            .iter()
            .enumerate()
            .map(|(j, &(first, entries))| {
                let end = first + entries.len();
                let (base, len) = if entries.is_empty() {
                    (0, 0)
                } else {
                    let reached_from = reach.partition_point(|&e| e <= first);
                    let base = first.min(j).min(reached_from);
                    (base, reach[j] - base)
                };
                at += len;
                Column {
                    first,
                    end,
                    base,
                    len,
                    at: at - len,
                }
            })
            .collect();
        // Each column's entries in their rows' slots, zeros in the others.
        let mut data = Vec::with_capacity(at);
        for (col, (first, entries)) in cols.iter().zip(&columns) {
            data.resize(col.at + first - col.base, 0.0);
            data.extend_from_slice(entries);
        }
        data.resize(at, 0.0);

        let mut tau = vec![0.0; n];
        // The current reflector `v` over rows `k..hi`, with `v[0] = 1` explicit.
        let mut v = Vec::with_capacity(m);
        // Trailing columns join the visit in order of their first rows, once a
        // reflector reaches that row; until then no reflector touches them.
        let mut waiting: Vec<(usize, usize)> = cols
            .iter()
            .enumerate()
            .map(|(j, col)| (col.first, j))
            .collect();
        waiting.sort_unstable();
        let mut waiting = waiting.into_iter().peekable();
        let mut visit: Vec<usize> = Vec::with_capacity(n);

        for k in 0..n {
            // Build the Householder reflector annihilating column k below row k.
            let hi = cols[k].end;
            if hi <= k {
                continue;
            }
            cols[k].cover(k, hi);
            let x = cols[k].rows_mut(&mut data, k, hi);
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
            // any other is filled in over all of k..hi. A column whose rows
            // all lie above row k is out of reach of every later reflector
            // too, so it leaves the visit.
            while let Some((_, j)) = waiting.next_if(|&(first, _)| first < hi) {
                if j > k {
                    visit.push(j);
                }
            }
            visit.retain(|&j| j > k && cols[j].end > k);
            for &j in &visit {
                let col = &mut cols[j];
                if col.first >= hi {
                    continue;
                }
                col.cover(k, hi);
                let target = col.rows_mut(&mut data, k, hi);
                let s = tau[k] * vec_ops::dot(&v, target);
                vec_ops::axpy(-s, &v, target);
            }
        }
        Ok(Self {
            rows,
            cols,
            data,
            tau,
        })
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
                .map(|(k, col)| col.get(&self.data, k).abs())
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
            let hi = col.end;
            let tail = col.rows(&self.data, k + 1, hi);
            let s = self.tau[k] * (y[k] + vec_ops::dot(tail, &y[k + 1..hi]));
            y[k] -= s;
            vec_ops::axpy(-s, tail, &mut y[k + 1..hi]);
        }
        // Back substitution on R x = y[..n], one column of R at a time from
        // the first row it reaches down to the diagonal.
        y.truncate(n);
        let mut x = y;
        for (j, col) in self.cols.iter().enumerate().rev() {
            let d = col.get(&self.data, j);
            if d.abs() < RANK_TOL {
                return Err(LinAlgError::Singular { pivot: j });
            }
            x[j] /= d;
            let top = col.first;
            let (above, at) = x.split_at_mut(j);
            vec_ops::axpy(-at[0], col.rows(&self.data, top, j), &mut above[top..]);
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
    let rows = (0..a.rows()).map(|i| (0, a.row(i)));
    Qr::from_columns(a.cols(), rows)?.solve_least_squares(c)
}

/// The kernel as it stood before columns were laid out in one buffer and
/// reflectors visited only the columns they reach: every column in its own
/// growing `Vec`, every reflector testing every trailing column. The tests
/// hold the kernel above to it bit for bit.
#[cfg(test)]
mod oracle {
    use super::{vec_ops, LinAlgError, Matrix, Result, RANK_TOL};

    struct Column {
        first: usize,
        entries: Vec<f64>,
    }

    impl Column {
        fn from_dense(dense: &[f64]) -> Self {
            let Some(first) = dense.iter().position(|v| *v != 0.0) else {
                return Self {
                    first: 0,
                    entries: Vec::new(),
                };
            };
            let end = dense.iter().rposition(|v| *v != 0.0).unwrap_or(first) + 1;
            Self {
                first,
                entries: dense[first..end].to_vec(),
            }
        }

        fn end(&self) -> usize {
            self.first + self.entries.len()
        }

        fn get(&self, i: usize) -> f64 {
            let stored = i
                .checked_sub(self.first)
                .and_then(|at| self.entries.get(at));
            stored.copied().unwrap_or(0.0)
        }

        fn rows(&self, lo: usize, hi: usize) -> &[f64] {
            &self.entries[lo - self.first..hi - self.first]
        }

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

    pub(super) struct Qr {
        cols: Vec<Column>,
        tau: Vec<f64>,
    }

    impl Qr {
        fn factor_columns(rows: usize, mut cols: Vec<Column>) -> Result<Self> {
            let (m, n) = (rows, cols.len());
            if m < n {
                return Err(LinAlgError::Underdetermined { rows: m, cols: n });
            }
            let mut tau = vec![0.0; n];
            let mut v = Vec::with_capacity(m);
            for k in 0..n {
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
                for xi in &mut x[1..] {
                    *xi /= v0;
                }
                tau[k] = -v0 / alpha;
                x[0] = alpha;
                v.clear();
                v.push(1.0);
                v.extend_from_slice(&x[1..]);
                for col in trailing {
                    if col.first.max(k) >= col.end().min(hi) {
                        continue;
                    }
                    let target = col.rows_mut(k, hi);
                    let s = tau[k] * vec_ops::dot(&v, target);
                    vec_ops::axpy(-s, &v, target);
                }
            }
            Ok(Self { cols, tau })
        }

        pub(super) fn rank(&self) -> usize {
            let diag = || self.cols.iter().enumerate().map(|(k, c)| c.get(k).abs());
            let rmax = diag().fold(0.0f64, f64::max);
            if rmax == 0.0 {
                return 0;
            }
            diag().filter(|&d| d > RANK_TOL * rmax).count()
        }

        pub(super) fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
            let n = self.cols.len();
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

    pub(super) fn factor(a: &Matrix) -> Result<Qr> {
        let cols = (0..a.cols()).map(|j| Column::from_dense(&a.col(j)));
        Qr::factor_columns(a.rows(), cols.collect())
    }

    pub(super) fn solve_row_combination(a: &Matrix, c: &[f64]) -> Result<Vec<f64>> {
        let cols = (0..a.rows()).map(|i| Column::from_dense(a.row(i)));
        Qr::factor_columns(a.cols(), cols.collect())?.solve_least_squares(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq_slice;
    use proptest::prelude::*;

    fn mat(rows: usize, cols: usize, v: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn trim_keeps_first_to_last_nonzero() {
        // Lengths on both sides of the scan's block size, every position.
        for len in [0, 1, 15, 16, 17, 33, 48] {
            let mut dense = vec![0.0; len];
            assert_eq!(trim(7, &dense), (0, &[][..]));
            for lo in 0..len {
                for hi in [lo, len - 1] {
                    (dense[lo], dense[hi]) = (1.0, -2.0);
                    let (first, entries) = trim(7, &dense);
                    assert_eq!((first, entries.len()), (7 + lo, hi + 1 - lo), "len {len}");
                    assert_eq!(entries, &dense[lo..=hi]);
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
    fn a_column_past_the_last_row_is_rejected() {
        let col = [1.0, 2.0];
        assert!(Qr::from_columns(3, [(1, &col[..])]).is_ok());
        assert_eq!(
            Qr::from_columns(3, [(2, &col[..])]).unwrap_err(),
            LinAlgError::OutOfBounds { index: 3, len: 3 }
        );
        assert_eq!(
            Qr::from_columns(3, [(5, &[][..])]).unwrap_err(),
            LinAlgError::OutOfBounds { index: 4, len: 3 }
        );
        assert_eq!(
            Qr::from_columns(3, [(usize::MAX, &col[..])]).unwrap_err(),
            LinAlgError::OutOfBounds {
                index: usize::MAX - 1,
                len: 3
            }
        );
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

    const MAX_ROWS: usize = 24;

    /// Equal to the last bit, errors included.
    fn identical(x: &Result<Vec<f64>>, y: &Result<Vec<f64>>) -> bool {
        match (x, y) {
            (Ok(x), Ok(y)) => x
                .iter()
                .map(|v| v.to_bits())
                .eq(y.iter().map(|v| v.to_bits())),
            (Err(x), Err(y)) => x == y,
            _ => false,
        }
    }

    /// The rows `first..end` that column `j` of an `m × n` matrix is handed
    /// over on, for a profile `kind`, and whether row `i` may be non-zero:
    /// * 0 — every row (dense);
    /// * 1 — a band of half-width `width` around the diagonal;
    /// * 2 — `width + 1` rows from a free start `free`, so first rows go up
    ///   and down from column to column, and a column can start below its
    ///   diagonal;
    /// * 3 — `width + 1` rows from the diagonal, taken modulo `m`: the cyclic
    ///   band of a coding matrix, whose wrap-around columns are handed over
    ///   whole.
    fn profile(kind: usize, m: usize, j: usize, width: usize, free: usize) -> (usize, usize) {
        match kind {
            0 => (0, m),
            1 => (j.saturating_sub(width), (j + width + 1).min(m)),
            2 => {
                let first = free % m;
                (first, (first + width + 1).min(m))
            }
            _ if j + width < m => (j, j + width + 1),
            _ => (0, m),
        }
    }

    fn nonzero(kind: usize, m: usize, j: usize, width: usize, i: usize) -> bool {
        kind != 3 || (i + m - j) % m <= width
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn profiled_kernel_is_bit_identical_to_the_oracle(
            m in 1usize..MAX_ROWS + 1,
            cols in 1usize..MAX_ROWS + 1,
            kind in 0usize..4,
            width in 0usize..8,
            frees in prop::collection::vec(0usize..MAX_ROWS, MAX_ROWS),
            values in prop::collection::vec(
                prop_oneof![-1.0..1.0f64, -1.0..1.0f64, -1.0..1.0f64, Just(0.0)],
                MAX_ROWS * MAX_ROWS,
            ),
            b in prop::collection::vec(-1.0..1.0f64, MAX_ROWS),
            deficient in 0usize..4,
            from in 0usize..MAX_ROWS,
            to in 0usize..MAX_ROWS,
        ) {
            let n = cols.min(m);
            let mut a = Matrix::zeros(m, n);
            let mut ranges: Vec<_> = (0..n).map(|j| profile(kind, m, j, width, frees[j])).collect();
            for (j, &(lo, hi)) in ranges.iter().enumerate() {
                for i in (lo..hi).filter(|&i| nonzero(kind, m, j, width, i)) {
                    a[(i, j)] = values[j * MAX_ROWS + i];
                }
            }
            // One time in four, column `to` repeats (a multiple of) column
            // `from`, or is zero when the two coincide: rank-deficient.
            if deficient == 0 {
                let (from, to) = (from % n, to % n);
                let scale = if from == to { 0.0 } else { b[0] };
                for i in 0..m {
                    a[(i, to)] = scale * a[(i, from)];
                }
                ranges[to] = ranges[from];
            }
            let b = &b[..m];
            let expect = oracle::factor(&a).and_then(|qr| qr.solve_least_squares(b));
            let got = least_squares(&a, b);
            prop_assert!(identical(&got, &expect), "least_squares: {got:?} vs {expect:?}");

            // The columns handed over as profiles, zeros at their ends kept.
            let dense: Vec<Vec<f64>> = (0..n).map(|j| a.col(j)).collect();
            let profiled = dense.iter().zip(&ranges).map(|(col, &(lo, hi))| (lo, &col[lo..hi]));
            let got = Qr::from_columns(m, profiled).and_then(|qr| qr.solve_least_squares(b));
            prop_assert!(identical(&got, &expect), "from_columns: {got:?} vs {expect:?}");
            prop_assert_eq!(Qr::factor(&a).unwrap().rank(), oracle::factor(&a).unwrap().rank());

            // The rows of the transpose, where the decoders meet the kernel.
            let at = a.transpose();
            let expect = oracle::solve_row_combination(&at, b);
            let got = solve_row_combination(&at, b);
            prop_assert!(identical(&got, &expect), "row combination: {got:?} vs {expect:?}");
        }
    }
}
