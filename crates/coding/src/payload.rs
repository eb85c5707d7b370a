//! Worker → master message payloads.
//!
//! The *communication load* (Definition 3) counts message size normalized by
//! the size of one partial gradient, so each payload variant knows its size
//! in those units.

use serde::{Deserialize, Serialize};

/// The body of one worker's message for one GD iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Payload {
    /// Sum of the partial gradients of one *unit* (a BCC batch or an uncoded
    /// shard), tagged with the unit id so the master can deduplicate.
    Sum {
        /// Batch/shard identifier.
        unit: usize,
        /// `Σ_{j∈unit} g_j`.
        vector: Vec<f64>,
    },
    /// A real linear combination of partial gradients (CR scheme); the
    /// combination coefficients are implied by the scheme's coding matrix
    /// row for the sending worker.
    Linear {
        /// `Σ_j B[i,j]·g_j`.
        vector: Vec<f64>,
    },
    /// Individual per-example partial gradients (simple randomized scheme),
    /// tagged with example indices.
    PerExample {
        /// `(example index, g_j)` pairs.
        entries: Vec<(usize, Vec<f64>)>,
    },
}

impl Payload {
    /// Size of this payload in units of one partial gradient
    /// (Definition 3's normalization).
    #[must_use]
    pub fn units(&self) -> usize {
        match self {
            Self::Sum { .. } | Self::Linear { .. } => 1,
            Self::PerExample { entries } => entries.len(),
        }
    }

    /// Model dimension `p` carried by this payload (0 for empty
    /// `PerExample`).
    #[must_use]
    pub fn dim(&self) -> usize {
        match self {
            Self::Sum { vector, .. } | Self::Linear { vector } => vector.len(),
            Self::PerExample { entries } => entries.first().map_or(0, |(_, g)| g.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_per_variant() {
        assert_eq!(
            Payload::Sum {
                unit: 0,
                vector: vec![0.0; 5]
            }
            .units(),
            1
        );
        assert_eq!(Payload::Linear { vector: vec![1.0] }.units(), 1);
        assert_eq!(
            Payload::PerExample {
                entries: vec![(0, vec![1.0]), (3, vec![2.0])]
            }
            .units(),
            2
        );
    }

    #[test]
    fn dim_per_variant() {
        assert_eq!(
            Payload::Sum {
                unit: 1,
                vector: vec![0.0; 7]
            }
            .dim(),
            7
        );
        assert_eq!(
            Payload::PerExample {
                entries: vec![(2, vec![0.0; 4])]
            }
            .dim(),
            4
        );
        assert_eq!(Payload::PerExample { entries: vec![] }.dim(), 0);
    }

    #[test]
    fn serde_roundtrip() {
        let p = Payload::PerExample {
            entries: vec![(3, vec![1.5, -2.5])],
        };
        let json = serde_json::to_string(&p).unwrap();
        let back: Payload = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
