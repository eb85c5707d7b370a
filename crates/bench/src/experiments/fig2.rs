//! Fig. 2 — recovery threshold `K` vs computational load `r`,
//! `m = n = 100`: lower bound, BCC, simple randomized, CR.

use crate::report::{f1, Table};
use bcc_core::theory::{fig2_tradeoff, TradeoffPoint};
use serde::{Deserialize, Serialize};

/// Fig. 2 configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Config {
    /// Number of examples (= workers in the figure): 100.
    pub m: usize,
    /// The loads swept on the x-axis.
    pub loads: Vec<usize>,
}

impl Default for Fig2Config {
    fn default() -> Self {
        Self {
            m: 100,
            loads: (1..=10).map(|k| k * 5).collect(),
        }
    }
}

/// Fig. 2 result: the four curves at each swept load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Result {
    /// The configuration that produced this result.
    pub config: Fig2Config,
    /// One point per swept load.
    pub points: Vec<TradeoffPoint>,
}

/// Runs the Fig. 2 sweep.
#[must_use]
pub fn run(config: &Fig2Config) -> Fig2Result {
    let points = fig2_tradeoff(config.m, &config.loads);
    Fig2Result {
        config: config.clone(),
        points,
    }
}

/// Renders the result as the Fig. 2 data table.
#[must_use]
pub fn render(result: &Fig2Result) -> Table {
    let mut t = Table::new(
        format!(
            "Fig. 2 — recovery threshold vs computational load (m = n = {})",
            result.config.m
        ),
        &[
            "r",
            "lower bound m/r",
            "BCC (analytic)",
            "BCC (exact, n = m)",
            "randomized (approx)",
            "randomized (exact, n = m)",
            "CR m-r+1",
        ],
    );
    for p in &result.points {
        t.push_row(vec![
            p.r.to_string(),
            f1(p.lower_bound),
            f1(p.bcc),
            f1(p.bcc_exact),
            f1(p.random),
            f1(p.random_exact),
            f1(p.cyclic_repetition),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_expected_shape() {
        let cfg = Fig2Config {
            loads: vec![10, 25, 50],
            ..Fig2Config::default()
        };
        let result = run(&cfg);
        assert_eq!(result.points.len(), 3);
        // Paper's headline ordering at r = 10.
        let p10 = &result.points[0];
        assert!(p10.lower_bound < p10.bcc);
        assert!(p10.bcc < p10.cyclic_repetition);
        assert!(p10.bcc < p10.random);
        let table = render(&result);
        assert_eq!(table.len(), 3);
    }
}
