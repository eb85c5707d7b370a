//! Row-major dense matrix with the BLAS-2/3 kernels the reproduction needs.

use crate::error::LinAlgError;
use crate::vec_ops;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Row-major dense `f64` matrix.
///
/// Rows are contiguous, which matches how the dataset stores examples (one
/// example per row) and makes per-example gradient kernels cache-friendly.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zeros matrix of the given shape.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    /// [`LinAlgError::ShapeMismatch`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinAlgError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds a matrix from row slices; all rows must share a length.
    ///
    /// # Errors
    /// [`LinAlgError::ShapeMismatch`] on ragged input.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Self::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinAlgError::ShapeMismatch {
                    op: "from_rows",
                    lhs: (rows.len(), cols),
                    rhs: (1, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix by evaluating `f(i, j)` at every entry.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of row `i`.
    ///
    /// # Panics
    /// Panics when `i >= rows` (caller bug).
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[must_use]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a fresh vector.
    #[must_use]
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Flat row-major data.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Transpose into a fresh matrix.
    #[must_use]
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `y = A x`.
    ///
    /// # Errors
    /// [`LinAlgError::ShapeMismatch`] when `x.len() != cols`.
    pub fn gemv(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinAlgError::ShapeMismatch {
                op: "gemv",
                lhs: (self.rows, self.cols),
                rhs: (x.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| vec_ops::dot(self.row(i), x))
            .collect())
    }

    /// Matrix–vector product over a row range into a reused buffer:
    /// `out[k] = row_{rows.start+k}·x`, register-blocked four rows at a time.
    ///
    /// Each output element is **bit-identical** to `vec_ops::dot(row, x)` —
    /// the blocked loop keeps the exact 4-lane + tail accumulation structure
    /// of [`vec_ops::dot`] per row, it only shares the loads of `x` across
    /// rows. This is the margins kernel of the packed gradient path, where
    /// bit-equality with the per-example path is a contract.
    ///
    /// # Panics
    /// Panics when the range exceeds the matrix or `x.len() != cols` (caller
    /// bug in the hot path; the fallible API is [`Matrix::gemv`]).
    pub fn gemv_rows_into(&self, rows: std::ops::Range<usize>, x: &[f64], out: &mut Vec<f64>) {
        assert!(rows.end <= self.rows, "gemv_rows_into: rows out of range");
        assert_eq!(x.len(), self.cols, "gemv_rows_into: dimension mismatch");
        out.clear();
        out.resize(rows.len(), 0.0);
        let mut i = 0;
        while i + 4 <= rows.len() {
            out[i..i + 4].copy_from_slice(&self.dot_rows4(rows.start + i, x));
            i += 4;
        }
        while i < rows.len() {
            out[i] = vec_ops::dot(self.row(rows.start + i), x);
            i += 1;
        }
    }

    /// Blocked 4-row dot: `[dot(row_{i}, x), …, dot(row_{i+3}, x)]`, each
    /// result bit-identical to [`vec_ops::dot`] (same 4-lane + tail
    /// structure), sharing the loads of `x` across the four rows.
    ///
    /// # Panics
    /// Panics when fewer than four rows start at `first_row` or
    /// `x.len() != cols`.
    #[must_use]
    #[inline]
    pub fn dot_rows4(&self, first_row: usize, x: &[f64]) -> [f64; 4] {
        assert!(first_row + 4 <= self.rows, "dot_rows4: rows out of range");
        assert_eq!(x.len(), self.cols, "dot_rows4: dimension mismatch");
        let cols = self.cols;
        let base = first_row * cols;
        let (r0, rest) = self.data[base..base + 4 * cols].split_at(cols);
        let (r1, rest) = rest.split_at(cols);
        let (r2, r3) = rest.split_at(cols);
        // Two explicit 4-lane halves per row (each maps onto one 256-bit
        // register) interleaved across four rows: eight independent FMA
        // chains, no cross-lane shuffles. The lane assignment and the
        // half-pairwise reduction match vec_ops::dot exactly (the
        // bit-equality contract).
        let mut lo = [[0.0f64; 4]; 4];
        let mut hi = [[0.0f64; 4]; 4];
        let (q0s, rem0) = r0.as_chunks::<8>();
        let (q1s, rem1) = r1.as_chunks::<8>();
        let (q2s, rem2) = r2.as_chunks::<8>();
        let (q3s, rem3) = r3.as_chunks::<8>();
        let (qxs, remx) = x.as_chunks::<8>();
        for ((((q0, q1), q2), q3), qx) in q0s.iter().zip(q1s).zip(q2s).zip(q3s).zip(qxs) {
            for l in 0..4 {
                lo[0][l] = q0[l].mul_add(qx[l], lo[0][l]);
                lo[1][l] = q1[l].mul_add(qx[l], lo[1][l]);
                lo[2][l] = q2[l].mul_add(qx[l], lo[2][l]);
                lo[3][l] = q3[l].mul_add(qx[l], lo[3][l]);
                hi[0][l] = q0[4 + l].mul_add(qx[4 + l], hi[0][l]);
                hi[1][l] = q1[4 + l].mul_add(qx[4 + l], hi[1][l]);
                hi[2][l] = q2[4 + l].mul_add(qx[4 + l], hi[2][l]);
                hi[3][l] = q3[4 + l].mul_add(qx[4 + l], hi[3][l]);
            }
        }
        let mut tails = [0.0f64; 4];
        for ((((v0, v1), v2), v3), vx) in rem0.iter().zip(rem1).zip(rem2).zip(rem3).zip(remx) {
            tails[0] = v0.mul_add(*vx, tails[0]);
            tails[1] = v1.mul_add(*vx, tails[1]);
            tails[2] = v2.mul_add(*vx, tails[2]);
            tails[3] = v3.mul_add(*vx, tails[3]);
        }
        let mut out = [0.0f64; 4];
        for r in 0..4 {
            out[r] = ((lo[r][0] + lo[r][1]) + (lo[r][2] + lo[r][3]))
                + ((hi[r][0] + hi[r][1]) + (hi[r][2] + hi[r][3]))
                + tails[r];
        }
        out
    }

    /// Rank-1 row reduction `acc[j] += Σᵢ coeffs[i]·A[first_row + i, j]`,
    /// accumulated in **row order per element** — bit-identical to calling
    /// `vec_ops::axpy(coeffs[i], row_i, acc)` for `i = 0, 1, …` — but
    /// column-tiled so the accumulator stays in registers instead of being
    /// loaded and stored once per row. This is the accumulation kernel of
    /// the packed gradient path; preserving the per-element summation order
    /// is what keeps packed and per-example gradients byte-identical.
    ///
    /// # Panics
    /// Panics when the rows exceed the matrix or `acc.len() != cols`.
    #[inline]
    pub fn accumulate_scaled_rows_from(&self, first_row: usize, coeffs: &[f64], acc: &mut [f64]) {
        assert!(
            first_row + coeffs.len() <= self.rows,
            "accumulate: rows out of range"
        );
        assert_eq!(acc.len(), self.cols, "accumulate: dimension mismatch");
        const TILE: usize = 8;
        let cols = self.cols;
        let base = first_row * cols;
        let mut j0 = 0;
        while j0 + TILE <= cols {
            let mut t = [0.0f64; TILE];
            t.copy_from_slice(&acc[j0..j0 + TILE]);
            for (i, &c) in coeffs.iter().enumerate() {
                let row = &self.data[base + i * cols + j0..base + i * cols + j0 + TILE];
                for l in 0..TILE {
                    // Same fused kernel as vec_ops::axpy, so the packed and
                    // per-example accumulations stay bit-identical.
                    t[l] = row[l].mul_add(c, t[l]);
                }
            }
            acc[j0..j0 + TILE].copy_from_slice(&t);
            j0 += TILE;
        }
        if j0 < cols {
            for (i, &c) in coeffs.iter().enumerate() {
                let row = &self.data[base + i * cols..base + (i + 1) * cols];
                for (a, x) in acc[j0..].iter_mut().zip(&row[j0..]) {
                    *a = x.mul_add(c, *a);
                }
            }
        }
    }

    /// [`Matrix::accumulate_scaled_rows_from`] over all rows.
    ///
    /// # Panics
    /// Panics when `coeffs.len() != rows` or `acc.len() != cols`.
    pub fn accumulate_scaled_rows(&self, coeffs: &[f64], acc: &mut [f64]) {
        assert_eq!(coeffs.len(), self.rows, "accumulate: row count mismatch");
        self.accumulate_scaled_rows_from(0, coeffs, acc);
    }

    /// Transposed matrix–vector product `y = Aᵀ x` without materializing `Aᵀ`.
    ///
    /// # Errors
    /// [`LinAlgError::ShapeMismatch`] when `x.len() != rows`.
    pub fn gemv_t(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinAlgError::ShapeMismatch {
                op: "gemv_t",
                lhs: (self.cols, self.rows),
                rhs: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.cols];
        for i in 0..self.rows {
            vec_ops::axpy(x[i], self.row(i), &mut y);
        }
        Ok(y)
    }

    /// Matrix–matrix product `C = A B` (naive triple loop with row reuse —
    /// sizes in this codebase are ≤ a few hundred, so no blocking is needed).
    ///
    /// # Errors
    /// [`LinAlgError::ShapeMismatch`] when `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Self) -> Result<Self> {
        if self.cols != rhs.rows {
            return Err(LinAlgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut c = Self::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let crow = c.row_mut(i);
                vec_ops::axpy(aik, rrow, crow);
            }
        }
        Ok(c)
    }

    /// Selects the given rows into a fresh matrix (used by decoders that
    /// restrict the coding matrix `B` to the set of finished workers).
    ///
    /// # Errors
    /// [`LinAlgError::OutOfBounds`] when any index exceeds the row count.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Self> {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            if i >= self.rows {
                return Err(LinAlgError::OutOfBounds {
                    index: i,
                    len: self.rows,
                });
            }
            data.extend_from_slice(self.row(i));
        }
        Ok(Self {
            rows: indices.len(),
            cols: self.cols,
            data,
        })
    }

    /// Maximum absolute entry.
    #[must_use]
    pub fn norm_max(&self) -> f64 {
        vec_ops::norm_inf(&self.data)
    }

    /// Element-wise approximate equality.
    #[must_use]
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.shape() == other.shape() && crate::approx_eq_slice(&self.data, &other.data, tol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>10.4}", self[(i, j)])?;
                if j + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn shape_accessors() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert!(!m.is_square());
        assert!(Matrix::identity(3).is_square());
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let r1 = [1.0, 2.0];
        let r2 = [3.0];
        assert!(Matrix::from_rows(&[&r1, &r2]).is_err());
    }

    #[test]
    fn from_rows_empty_is_0x0() {
        let m = Matrix::from_rows(&[]).unwrap();
        assert_eq!(m.shape(), (0, 0));
    }

    #[test]
    fn row_and_col_views() {
        let m = sample();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert!(m.transpose().transpose().approx_eq(&m, 0.0));
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn gemv_matches_manual() {
        let m = sample();
        let y = m.gemv(&[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(y, vec![-2.0, -2.0]);
        assert!(m.gemv(&[1.0]).is_err());
    }

    #[test]
    fn gemv_rows_into_bit_equals_per_row_dot() {
        // Ragged shapes exercise both the 4-row block and the scalar tail,
        // and both the 4-lane chunks and the in-row tail.
        for (rows, cols) in [(1, 1), (3, 5), (4, 4), (7, 32), (10, 33), (13, 6)] {
            let m = Matrix::from_fn(rows, cols, |i, j| {
                ((i * 31 + j * 7) as f64).sin() * 1.5 - 0.3
            });
            let x: Vec<f64> = (0..cols).map(|j| (j as f64 * 0.37).cos()).collect();
            let mut out = Vec::new();
            m.gemv_rows_into(0..rows, &x, &mut out);
            for i in 0..rows {
                let expect = vec_ops::dot(m.row(i), &x);
                assert_eq!(
                    out[i].to_bits(),
                    expect.to_bits(),
                    "row {i} of {rows}x{cols} must be bit-identical to dot"
                );
            }
        }
    }

    #[test]
    fn accumulate_scaled_rows_bit_equals_sequential_axpy() {
        for (rows, cols) in [(1, 1), (5, 3), (4, 8), (9, 32), (6, 35), (20, 17)] {
            let m = Matrix::from_fn(rows, cols, |i, j| ((i * 13 + j) as f64).cos() * 2.0);
            let coeffs: Vec<f64> = (0..rows).map(|i| (i as f64 * 0.11).sin() - 0.4).collect();
            let mut tiled: Vec<f64> = (0..cols).map(|j| j as f64 * 0.01).collect();
            let mut reference = tiled.clone();
            m.accumulate_scaled_rows(&coeffs, &mut tiled);
            for (i, &c) in coeffs.iter().enumerate() {
                vec_ops::axpy(c, m.row(i), &mut reference);
            }
            for (a, b) in tiled.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "{rows}x{cols} accumulation");
            }
        }
    }

    #[test]
    fn gemv_t_matches_transpose_gemv() {
        let m = sample();
        let x = [2.0, -1.0];
        let direct = m.gemv_t(&x).unwrap();
        let via_t = m.transpose().gemv(&x).unwrap();
        assert_eq!(direct, via_t);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = sample();
        let i3 = Matrix::identity(3);
        assert!(m.matmul(&i3).unwrap().approx_eq(&m, 1e-12));
        let i2 = Matrix::identity(2);
        assert!(i2.matmul(&m).unwrap().approx_eq(&m, 1e-12));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let m = sample();
        assert!(m.matmul(&Matrix::identity(2)).is_err());
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(c.approx_eq(
            &Matrix::from_vec(2, 2, vec![2.0, 1.0, 4.0, 3.0]).unwrap(),
            1e-12
        ));
    }

    #[test]
    fn select_rows_subsets() {
        let m = sample();
        let s = m.select_rows(&[1]).unwrap();
        assert_eq!(s.shape(), (1, 3));
        assert_eq!(s.row(0), &[4.0, 5.0, 6.0]);
        assert!(m.select_rows(&[5]).is_err());
    }

    #[test]
    fn from_fn_builds_expected() {
        let m = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(1, 0)], 10.0);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        assert_eq!(m.norm_max(), 4.0);
    }
}
