//! The controller contract and the three built-in controllers.
//!
//! A [`Controller`] is consulted once per finished round with that round's
//! telemetry and answers with a [`ControlAction`]: keep the current
//! aggregation policy, revert to the configured one, or install a new one
//! for the following rounds. Controllers see only deterministic inputs
//! (worker-sorted arrival stamps and statistics over their
//! `compute_seconds`), so a `(seed, spec)` pair yields the same decision
//! trace on every backend at any thread count.

use crate::telemetry::Telemetry;
use bcc_cluster::{
    AggregationPolicy, ArrivalStamp, BestEffortAll, Deadline, FastestK, WaitDecodable,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Every built-in controller, with the one-line description `repro list`
/// prints — the single source of truth for names, shared by the spec
/// parser and the registry.
pub const CONTROLLERS: [(&str, &str); 3] = [
    (
        "static",
        "no-op: keep the configured policy all run (bit-identical to uncontrolled runs)",
    ),
    (
        "quantile-deadline",
        "set the next round's deadline from an observed compute-time quantile",
    ),
    (
        "adaptive-k",
        "pick fastest-k's k from the estimated persistent straggler count",
    ),
];

/// What a controller saw when consulted after one finished round.
#[derive(Debug)]
pub struct RoundTelemetry<'a> {
    /// The finished round's 0-based index.
    pub round: u64,
    /// Live workers that could have sent this round.
    pub participants: usize,
    /// The round's consumed messages, sorted by worker id.
    pub arrivals: &'a [ArrivalStamp],
    /// The cumulative store (this round already folded in).
    pub telemetry: &'a Telemetry,
}

/// An aggregation policy a controller chose, in data form — serializable
/// for per-round decision traces and buildable into the live policy object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChosenPolicy {
    /// Policy name (one of the cluster built-ins).
    pub policy: String,
    /// `fastest-k`'s message budget.
    pub k: Option<usize>,
    /// `deadline`'s round budget in simulated seconds.
    pub deadline: Option<f64>,
}

impl ChosenPolicy {
    /// The exact-decode default ([`WaitDecodable`]).
    #[must_use]
    pub fn wait_decodable() -> Self {
        Self {
            policy: "wait-decodable".into(),
            k: None,
            deadline: None,
        }
    }

    /// Stop after the fastest `k` arrivals ([`FastestK`]).
    ///
    /// # Panics
    /// Panics when `k == 0`.
    #[must_use]
    pub fn fastest_k(k: usize) -> Self {
        assert!(k >= 1, "fastest-k needs k >= 1");
        Self {
            policy: "fastest-k".into(),
            k: Some(k),
            deadline: None,
        }
    }

    /// Cut the round off at `seconds` simulated seconds ([`Deadline`]).
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite budget.
    #[must_use]
    pub fn deadline(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds > 0.0,
            "deadline needs a positive finite budget"
        );
        Self {
            policy: "deadline".into(),
            k: None,
            deadline: Some(seconds),
        }
    }

    /// Builds the live policy object.
    ///
    /// # Panics
    /// Panics on a name outside the cluster built-ins or a missing
    /// parameter — [`ChosenPolicy`] values come from the constructors
    /// above, so either is a construction bug, not a data condition.
    #[must_use]
    pub fn build(&self) -> Arc<dyn AggregationPolicy> {
        match self.policy.as_str() {
            "wait-decodable" => Arc::new(WaitDecodable),
            "fastest-k" => Arc::new(FastestK::new(self.k.expect("fastest-k carries k"))),
            "deadline" => Arc::new(Deadline::new(
                self.deadline.expect("deadline carries seconds"),
            )),
            "best-effort-all" => Arc::new(BestEffortAll),
            other => panic!("unknown chosen policy `{other}`"),
        }
    }
}

/// What a controller wants done before the next round.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlAction {
    /// Keep whatever policy is currently installed.
    Keep,
    /// Revert to the experiment's configured policy.
    Revert,
    /// Install this policy for the following rounds.
    SetPolicy(ChosenPolicy),
}

/// One per-round controller decision, as recorded in decision traces
/// (`BENCH_adaptive.json`'s per-cell `trace`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlRecord {
    /// The finished round whose telemetry produced the decision; the
    /// policy applies from round `round + 1` on.
    pub round: u64,
    /// The policy in force after the decision.
    pub policy: ChosenPolicy,
    /// Whether the decision changed the installed policy.
    pub switched: bool,
}

/// An online straggler controller: consulted once per finished round,
/// re-tunes the aggregation policy between rounds.
///
/// Object-safe (the experiment layer holds `Box<dyn Controller>`); `Send`
/// because reports carrying decision traces cross the bench harness's
/// worker threads. Implementations must derive decisions only from the
/// telemetry's deterministic fields (`compute_seconds`, worker ids,
/// counts) — that is what makes decision traces identical across the
/// virtual, threaded, and TCP backends at any thread count.
pub trait Controller: fmt::Debug + Send {
    /// Controller name for reports and spec files.
    fn name(&self) -> &'static str;

    /// Consulted after each finished round.
    fn observe_round(&mut self, round: &RoundTelemetry<'_>) -> ControlAction;
}

/// The no-op controller: never acts, pinned bit-identical to uncontrolled
/// runs (the experiment layer does not even install a switchable policy
/// for it).
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticController;

impl Controller for StaticController {
    fn name(&self) -> &'static str {
        "static"
    }

    fn observe_round(&mut self, _round: &RoundTelemetry<'_>) -> ControlAction {
        ControlAction::Keep
    }
}

/// Sets the next round's [`Deadline`] to `margin ×` the observed `q`
/// compute-time quantile: fast arrivals define the budget, persistent
/// stragglers get cut off at it.
#[derive(Debug, Clone, Copy)]
pub struct QuantileDeadline {
    /// Quantile of observed compute times the budget tracks.
    pub q: f64,
    /// Multiplier absorbing communication time on top of compute.
    pub margin: f64,
    /// Rounds to observe before acting.
    pub warmup: u64,
}

impl Default for QuantileDeadline {
    fn default() -> Self {
        Self {
            q: 0.7,
            margin: 3.0,
            warmup: 3,
        }
    }
}

impl Controller for QuantileDeadline {
    fn name(&self) -> &'static str {
        "quantile-deadline"
    }

    fn observe_round(&mut self, round: &RoundTelemetry<'_>) -> ControlAction {
        if round.telemetry.rounds_observed() < self.warmup {
            return ControlAction::Keep;
        }
        match round.telemetry.quantile(self.q) {
            Some(quantile) if quantile > 0.0 => {
                ControlAction::SetPolicy(ChosenPolicy::deadline(quantile * self.margin))
            }
            _ => ControlAction::Keep,
        }
    }
}

/// Picks [`FastestK`]'s `k` as `participants −` the estimated persistent
/// straggler count (workers whose EWMA exceeds `slow_factor ×` the median
/// EWMA), floored at `min_k`.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveK {
    /// EWMA multiple of the median that marks a worker slow.
    pub slow_factor: f64,
    /// Rounds to observe before acting.
    pub warmup: u64,
    /// Lower bound on the chosen `k`.
    pub min_k: usize,
}

impl Default for AdaptiveK {
    fn default() -> Self {
        Self {
            slow_factor: 3.0,
            warmup: 2,
            min_k: 1,
        }
    }
}

impl Controller for AdaptiveK {
    fn name(&self) -> &'static str {
        "adaptive-k"
    }

    fn observe_round(&mut self, round: &RoundTelemetry<'_>) -> ControlAction {
        if round.telemetry.rounds_observed() < self.warmup {
            return ControlAction::Keep;
        }
        let slow = round
            .telemetry
            .slow_worker_count(self.slow_factor, round.participants);
        if slow == 0 {
            return ControlAction::Revert;
        }
        let k = round.participants.saturating_sub(slow).max(self.min_k);
        ControlAction::SetPolicy(ChosenPolicy::fastest_k(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(worker: usize, compute: f64) -> ArrivalStamp {
        ArrivalStamp {
            worker,
            compute_seconds: compute,
            at: compute,
        }
    }

    fn observe(
        controller: &mut dyn Controller,
        telemetry: &mut Telemetry,
        round: u64,
        arrivals: &[ArrivalStamp],
    ) -> ControlAction {
        telemetry.observe(arrivals);
        controller.observe_round(&RoundTelemetry {
            round,
            participants: 4,
            arrivals,
            telemetry,
        })
    }

    fn mixed_round() -> Vec<ArrivalStamp> {
        vec![stamp(0, 1.0), stamp(1, 1.1), stamp(2, 0.9), stamp(3, 12.0)]
    }

    #[test]
    fn static_controller_never_acts() {
        let mut c = StaticController;
        let mut t = Telemetry::new();
        for round in 0..5 {
            assert_eq!(
                observe(&mut c, &mut t, round, &mixed_round()),
                ControlAction::Keep
            );
        }
    }

    #[test]
    fn quantile_deadline_waits_out_warmup_then_sets_budget() {
        let mut c = QuantileDeadline {
            q: 0.5,
            margin: 2.0,
            warmup: 2,
        };
        let mut t = Telemetry::new();
        assert_eq!(
            observe(&mut c, &mut t, 0, &mixed_round()),
            ControlAction::Keep,
            "warmup round"
        );
        let action = observe(&mut c, &mut t, 1, &mixed_round());
        let ControlAction::SetPolicy(p) = action else {
            panic!("expected a deadline after warmup, got {action:?}");
        };
        assert_eq!(p.policy, "deadline");
        let budget = p.deadline.unwrap();
        assert!(
            budget > 0.0 && budget < 12.0,
            "budget {budget} cuts the straggler"
        );
    }

    #[test]
    fn adaptive_k_excludes_persistent_stragglers() {
        let mut c = AdaptiveK::default();
        let mut t = Telemetry::new();
        let mut last = ControlAction::Keep;
        for round in 0..4 {
            last = observe(&mut c, &mut t, round, &mixed_round());
        }
        assert_eq!(
            last,
            ControlAction::SetPolicy(ChosenPolicy::fastest_k(3)),
            "one slow worker of four ⇒ k = 3"
        );
        // A uniform cluster reverts to the configured policy.
        let mut c = AdaptiveK::default();
        let mut t = Telemetry::new();
        let uniform = vec![stamp(0, 1.0), stamp(1, 1.0), stamp(2, 1.0), stamp(3, 1.0)];
        for round in 0..4 {
            last = observe(&mut c, &mut t, round, &uniform);
        }
        assert_eq!(last, ControlAction::Revert);
    }

    #[test]
    fn chosen_policy_builds_the_cluster_builtins() {
        assert_eq!(
            ChosenPolicy::wait_decodable().build().name(),
            "wait-decodable"
        );
        assert_eq!(ChosenPolicy::fastest_k(3).build().name(), "fastest-k");
        assert_eq!(ChosenPolicy::deadline(0.5).build().name(), "deadline");
        // The experiment's configured policy may be any built-in.
        let all = ChosenPolicy {
            policy: "best-effort-all".into(),
            k: None,
            deadline: None,
        };
        assert_eq!(all.build().name(), "best-effort-all");
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn chosen_fastest_zero_rejected() {
        let _ = ChosenPolicy::fastest_k(0);
    }

    #[test]
    fn controllers_const_matches_names() {
        let names: Vec<&str> = CONTROLLERS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["static", "quantile-deadline", "adaptive-k"]);
        assert_eq!(StaticController.name(), "static");
        assert_eq!(QuantileDeadline::default().name(), "quantile-deadline");
        assert_eq!(AdaptiveK::default().name(), "adaptive-k");
    }
}
