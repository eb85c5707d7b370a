//! LU factorization with partial pivoting and direct solves.
//!
//! Used by the gradient-coding decoders: the cyclic-repetition decoder solves
//! `B_Fᵀ a = 1` for the decoding coefficients `a` given the set `F` of
//! finished workers.

use crate::error::LinAlgError;
use crate::matrix::Matrix;
use crate::Result;

/// Numerical-singularity threshold on pivot magnitude.
const PIVOT_TOL: f64 = 1e-12;

/// LU factorization `P A = L U` with partial pivoting.
///
/// `L` has an implicit unit diagonal; both factors are packed into a single
/// matrix as is conventional.
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed `L\U` factors.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now at position `i`.
    perm: Vec<usize>,
}

impl Lu {
    /// Factors a square matrix.
    ///
    /// # Errors
    /// [`LinAlgError::NotSquare`] for rectangular input,
    /// [`LinAlgError::Singular`] when a pivot falls below tolerance.
    pub fn factor(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinAlgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivot: largest magnitude in column k at or below row k.
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in k + 1..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax < PIVOT_TOL {
                return Err(LinAlgError::Singular { pivot: k });
            }
            if p != k {
                perm.swap(p, k);
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for i in k + 1..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in k + 1..n {
                    let ukj = lu[(k, j)];
                    lu[(i, j)] -= factor * ukj;
                }
            }
        }
        Ok(Self { lu, perm })
    }

    /// Order of the factored matrix.
    #[must_use]
    pub fn order(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b` using the stored factors.
    ///
    /// # Errors
    /// [`LinAlgError::ShapeMismatch`] when `b.len()` differs from the order.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.order();
        if b.len() != n {
            return Err(LinAlgError::ShapeMismatch {
                op: "lu_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Apply permutation, then forward substitution on L (unit diagonal).
        let mut x: Vec<f64> = self.perm.iter().map(|&i| b[i]).collect();
        for i in 1..n {
            let mut s = x[i];
            for j in 0..i {
                s -= self.lu[(i, j)] * x[j];
            }
            x[i] = s;
        }
        // Back substitution on U.
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in i + 1..n {
                s -= self.lu[(i, j)] * x[j];
            }
            x[i] = s / self.lu[(i, i)];
        }
        Ok(x)
    }
}

/// One-shot solve of `A x = b`.
///
/// # Errors
/// Propagates factorization and shape errors.
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    Lu::factor(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq_slice;

    fn mat(rows: usize, cols: usize, v: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5 ; x + 3y = 10 → x = 1, y = 3.
        let a = mat(2, 2, &[2.0, 1.0, 1.0, 3.0]);
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!(approx_eq_slice(&x, &[1.0, 3.0], 1e-10));
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = mat(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!(approx_eq_slice(&x, &[3.0, 2.0], 1e-12));
    }

    #[test]
    fn singular_detected() {
        let a = mat(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(matches!(
            solve(&a, &[1.0, 2.0]),
            Err(LinAlgError::Singular { .. })
        ));
    }

    #[test]
    fn rectangular_rejected() {
        let a = mat(2, 3, &[1.0; 6]);
        assert!(matches!(Lu::factor(&a), Err(LinAlgError::NotSquare { .. })));
    }

    #[test]
    fn solve_shape_mismatch() {
        let a = Matrix::identity(3);
        let lu = Lu::factor(&a).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn solve_residual_small_on_random_like_matrix() {
        // Deterministic pseudo-random fill; checks ‖Ax − b‖ stays tiny.
        let n = 12;
        let a = Matrix::from_fn(n, n, |i, j| {
            let v = ((i * 31 + j * 17 + 7) % 23) as f64 - 11.0;
            if i == j {
                v + 30.0 // diagonally dominant for a well-conditioned test
            } else {
                v
            }
        });
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = solve(&a, &b).unwrap();
        let r = a.gemv(&x).unwrap();
        assert!(approx_eq_slice(&r, &b, 1e-8));
    }
}
