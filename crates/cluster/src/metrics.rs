//! Round and run metrics mirroring the paper's Tables I/II columns.

use serde::{Deserialize, Serialize};

/// Metrics of one distributed-GD iteration (one "round").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundMetrics {
    /// Number of worker messages the master consumed before completing —
    /// the empirical `|W|` whose average is the recovery threshold
    /// (Definition 2).
    pub messages_used: usize,
    /// Total communication units received (Definition 3 accounting).
    pub communication_units: usize,
    /// "Computation time": the maximum compute time among workers whose
    /// results the master received before the round ended (the paper's
    /// measurement convention, §III-C-2).
    pub compute_time: f64,
    /// "Communication time": total round time minus computation time (ditto).
    pub comm_time: f64,
    /// Wall/virtual-clock duration of the whole round.
    pub total_time: f64,
}

impl RoundMetrics {
    /// Consistency check: times non-negative and parts bounded by the total.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.compute_time >= 0.0
            && self.comm_time >= 0.0
            && self.total_time >= 0.0
            && self.compute_time + self.comm_time <= self.total_time + 1e-9
    }
}

/// One worker message the master consumed in a round — who sent it, how
/// long its compute took, and when it landed on the master's clock.
///
/// `compute_seconds` is drawn from the deterministic per-`(seed, round,
/// worker)` latency stream and replays bit-identically on every backend;
/// `at` is the backend clock (virtual time on the DES backend, scaled wall
/// clock on the threaded/TCP ones) and is only reproducible on the virtual
/// backend. Controllers that must agree across backends therefore key all
/// decisions on `compute_seconds`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ArrivalStamp {
    /// Sending worker id.
    pub worker: usize,
    /// Worker-reported compute duration in simulated seconds.
    pub compute_seconds: f64,
    /// Backend clock (simulated seconds since round start) of the delivery.
    pub at: f64,
}

impl Deserialize for ArrivalStamp {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self {
            worker: Deserialize::from_value(v.field("worker")?)?,
            compute_seconds: Deserialize::from_value(v.field("compute_seconds")?)?,
            at: Deserialize::from_value(v.field("at")?)?,
        })
    }
}

/// The per-round observables distribution-level analyses need (percentiles
/// of round time, per-round message counts, coverage and gradient quality
/// under approximate aggregation policies) — what [`RunMetrics`] sums
/// away. One per round, in round order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RoundSample {
    /// Wall/virtual-clock duration of the round.
    pub total_time: f64,
    /// Messages the master consumed before completing (the empirical `|W|`).
    pub messages_used: usize,
    /// Coding units the round's gradient covers.
    pub covered_units: usize,
    /// Coding units the scheme codes over (`m`).
    pub total_units: usize,
    /// Whether the round's gradient was the exact decode.
    pub exact: bool,
    /// `‖ĝ − g‖₂` of the round's **mean** gradient against the exact one —
    /// `Some` only when the driver measured it (non-exact rounds), `None`
    /// otherwise (exact rounds have zero error by construction).
    pub gradient_error: Option<f64>,
    /// How many optimizer updates were merged between this update's
    /// broadcast and its application — `0` under synchronous training,
    /// positive under the stale modes (SSP/ASGD), where it is the realized
    /// staleness of the round's gradient.
    pub staleness: usize,
}

// Manual impl so pre-mode sample dumps (no `staleness` key) keep
// deserializing: the shim's derive errors on absent fields.
impl Deserialize for RoundSample {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self {
            total_time: Deserialize::from_value(v.field("total_time")?)?,
            messages_used: Deserialize::from_value(v.field("messages_used")?)?,
            covered_units: Deserialize::from_value(v.field("covered_units")?)?,
            total_units: Deserialize::from_value(v.field("total_units")?)?,
            exact: Deserialize::from_value(v.field("exact")?)?,
            gradient_error: match v.get("gradient_error") {
                None | Some(serde::Value::Null) => None,
                Some(inner) => Some(Deserialize::from_value(inner)?),
            },
            staleness: match v.get("staleness") {
                None | Some(serde::Value::Null) => 0,
                Some(inner) => Deserialize::from_value(inner)?,
            },
        })
    }
}

impl RoundSample {
    /// Covered fraction of the scheme's units in `[0, 1]` (the
    /// [`bcc_coding::Coverage::fraction`] convention).
    #[must_use]
    pub fn coverage_fraction(&self) -> f64 {
        bcc_coding::Coverage::new(self.covered_units, self.total_units).fraction()
    }
}

/// Aggregated metrics over a training run (e.g. 100 iterations), with the
/// same breakdown the paper reports per scheme.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Number of rounds aggregated.
    pub rounds: usize,
    /// Sum of per-round total times (the paper's "total running time").
    pub total_time: f64,
    /// Sum of per-round computation times.
    pub compute_time: f64,
    /// Sum of per-round communication times.
    pub comm_time: f64,
    /// Sum of messages used (divide by `rounds` for the empirical recovery
    /// threshold).
    pub messages_used: usize,
    /// Sum of communication units.
    pub communication_units: usize,
}

impl RunMetrics {
    /// Empty aggregate.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one round in.
    pub fn absorb(&mut self, round: &RoundMetrics) {
        self.rounds += 1;
        self.total_time += round.total_time;
        self.compute_time += round.compute_time;
        self.comm_time += round.comm_time;
        self.messages_used += round.messages_used;
        self.communication_units += round.communication_units;
    }

    /// Average messages per round — the empirical recovery threshold `K`.
    #[must_use]
    pub fn avg_recovery_threshold(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.messages_used as f64 / self.rounds as f64
        }
    }

    /// Average communication load per round — the empirical `L`.
    #[must_use]
    pub fn avg_communication_load(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.communication_units as f64 / self.rounds as f64
        }
    }

    /// Average round duration.
    #[must_use]
    pub fn avg_round_time(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.total_time / self.rounds as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(messages: usize, units: usize, compute: f64, comm: f64) -> RoundMetrics {
        RoundMetrics {
            messages_used: messages,
            communication_units: units,
            compute_time: compute,
            comm_time: comm,
            total_time: compute + comm,
        }
    }

    #[test]
    fn consistency_check() {
        assert!(round(3, 3, 1.0, 2.0).is_consistent());
        let bad = RoundMetrics {
            messages_used: 1,
            communication_units: 1,
            compute_time: 5.0,
            comm_time: 5.0,
            total_time: 1.0,
        };
        assert!(!bad.is_consistent());
    }

    #[test]
    fn absorb_accumulates() {
        let mut run = RunMetrics::new();
        run.absorb(&round(10, 10, 1.0, 3.0));
        run.absorb(&round(12, 12, 2.0, 5.0));
        assert_eq!(run.rounds, 2);
        assert_eq!(run.messages_used, 22);
        assert!((run.avg_recovery_threshold() - 11.0).abs() < 1e-12);
        assert!((run.avg_communication_load() - 11.0).abs() < 1e-12);
        assert!((run.total_time - 11.0).abs() < 1e-12);
        assert!((run.avg_round_time() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_zero() {
        let run = RunMetrics::new();
        assert_eq!(run.avg_recovery_threshold(), 0.0);
        assert_eq!(run.avg_communication_load(), 0.0);
        assert_eq!(run.avg_round_time(), 0.0);
    }
}
