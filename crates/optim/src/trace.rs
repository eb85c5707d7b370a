//! Convergence traces recorded by training drivers.

use serde::{Deserialize, Serialize};

/// Per-iteration record of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Empirical risk at the iterate.
    pub risk: f64,
    /// Euclidean norm of the gradient used in the step.
    pub gradient_norm: f64,
}

/// A full convergence trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceTrace {
    points: Vec<TracePoint>,
}

impl ConvergenceTrace {
    /// Empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, iteration: usize, risk: f64, gradient_norm: f64) {
        self.points.push(TracePoint {
            iteration,
            risk,
            gradient_norm,
        });
    }

    /// All recorded points.
    #[must_use]
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Final risk, if any iterations were recorded.
    #[must_use]
    pub fn final_risk(&self) -> Option<f64> {
        self.points.last().map(|p| p.risk)
    }

    /// First risk, if any.
    #[must_use]
    pub fn initial_risk(&self) -> Option<f64> {
        self.points.first().map(|p| p.risk)
    }

    /// True when the risk decreased overall from first to last record.
    #[must_use]
    pub fn improved(&self) -> bool {
        match (self.initial_risk(), self.final_risk()) {
            (Some(a), Some(b)) => b < a,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace() {
        let t = ConvergenceTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.final_risk(), None);
        assert!(!t.improved());
    }

    #[test]
    fn records_and_improvement() {
        let mut t = ConvergenceTrace::new();
        t.push(0, 1.0, 0.5);
        t.push(1, 0.8, 0.4);
        t.push(2, 0.5, 0.2);
        assert_eq!(t.len(), 3);
        assert!(t.improved());
        assert_eq!(t.initial_risk(), Some(1.0));
        assert_eq!(t.final_risk(), Some(0.5));
    }
}
