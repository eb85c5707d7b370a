//! Error type shared by all linear-algebra operations.

use std::fmt;

/// Errors produced by dense linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinAlgError {
    /// Operand shapes are incompatible (e.g. `gemv` with mismatched widths).
    ShapeMismatch {
        /// Human-readable description of the failing operation.
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// The matrix is singular (or numerically singular) where a solve was
    /// requested.
    Singular {
        /// Pivot index at which elimination broke down.
        pivot: usize,
    },
    /// A routine that requires a square matrix received a rectangular one.
    NotSquare {
        /// Actual shape encountered.
        shape: (usize, usize),
    },
    /// A least-squares system was underdetermined beyond what the routine
    /// supports (fewer rows than columns).
    Underdetermined {
        /// Number of rows (equations).
        rows: usize,
        /// Number of columns (unknowns).
        cols: usize,
    },
    /// An index was out of bounds for the container.
    OutOfBounds {
        /// The offending index.
        index: usize,
        /// Container length along that axis.
        len: usize,
    },
}

impl fmt::Display for LinAlgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs {}x{} vs rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            Self::Singular { pivot } => {
                write!(f, "matrix is singular (breakdown at pivot {pivot})")
            }
            Self::NotSquare { shape } => {
                write!(f, "expected square matrix, got {}x{}", shape.0, shape.1)
            }
            Self::Underdetermined { rows, cols } => write!(
                f,
                "least-squares system is underdetermined: {rows} rows < {cols} cols"
            ),
            Self::OutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
        }
    }
}

impl std::error::Error for LinAlgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LinAlgError::ShapeMismatch {
            op: "gemv",
            lhs: (3, 4),
            rhs: (5, 1),
        };
        let s = e.to_string();
        assert!(s.contains("gemv"));
        assert!(s.contains("3x4"));

        assert!(LinAlgError::Singular { pivot: 2 }.to_string().contains('2'));
        assert!(LinAlgError::NotSquare { shape: (2, 3) }
            .to_string()
            .contains("2x3"));
        assert!(LinAlgError::Underdetermined { rows: 1, cols: 4 }
            .to_string()
            .contains("underdetermined"));
        assert!(LinAlgError::OutOfBounds { index: 9, len: 3 }
            .to_string()
            .contains('9'));
    }
}
