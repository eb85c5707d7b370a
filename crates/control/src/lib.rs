//! Adaptive straggler control: an online control loop that watches
//! per-worker arrival telemetry and re-tunes the round protocol between
//! rounds.
//!
//! The paper fixes its redundancy and wait-for-k decision offline; this
//! crate closes the loop for the time-correlated straggler models (Markov,
//! bimodal-persistent) where the optimal deadline / `k` changes mid-run:
//!
//! * [`Telemetry`] — per-worker arrival-time history (EWMA) and a bounded
//!   deterministic streaming quantile estimator, both fed once per round
//!   from the round's consumed [`ArrivalStamp`]s;
//! * [`Controller`] — the object-safe per-round decision contract
//!   (`observe_round(&RoundTelemetry) -> ControlAction`) with three
//!   built-ins: [`StaticController`] (no-op, bit-identical to uncontrolled
//!   runs), [`QuantileDeadline`], [`AdaptiveK`];
//! * [`SwitchablePolicy`] — the
//!   [`AggregationPolicy`] handle backends
//!   hold while the loop re-points it between rounds;
//! * [`ControlLoop`] — ties the three together and records one
//!   [`ControlRecord`] per round (the decision trace
//!   `BENCH_adaptive.json` serializes).
//!
//! What they buy (`BENCH_adaptive.json`): every controller beats waiting
//! for all workers (`best-effort-all`), none beats the paper's own rule
//! (`static` over `wait-decodable`, exact decode at BCC's threshold). On
//! `uncoded` they finish sooner only by ending at a higher risk.
//!
//! Controllers see only deterministic inputs — worker-sorted arrival
//! stamps and statistics over their `compute_seconds`, which replay
//! bit-identically from the master seed — so decision traces are equal
//! across the virtual, threaded, and TCP backends at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod switchable;
pub mod telemetry;

pub use controller::{
    AdaptiveK, ChosenPolicy, ControlAction, ControlRecord, Controller, QuantileDeadline,
    RoundTelemetry, StaticController, CONTROLLERS,
};
pub use switchable::SwitchablePolicy;
pub use telemetry::{QuantileEstimator, Telemetry, WorkerStats};

use bcc_cluster::{AggregationPolicy, ArrivalStamp};
use std::sync::Arc;

/// The assembled control loop the experiment driver calls at each round
/// boundary: feeds the telemetry store, consults the controller, swaps the
/// [`SwitchablePolicy`] when the decision changed, and records the trace.
#[derive(Debug)]
pub struct ControlLoop {
    telemetry: Telemetry,
    controller: Box<dyn Controller>,
    switchable: Option<Arc<SwitchablePolicy>>,
    /// The policy instance installed when [`attach`](Self::attach) was
    /// called — what a [`ControlAction::Revert`] reinstalls. Kept as the
    /// live `Arc` (not rebuilt from the [`ChosenPolicy`] label) so custom
    /// policy registrations revert to their exact configured instance.
    revert_policy: Option<Arc<dyn AggregationPolicy>>,
    initial: ChosenPolicy,
    current: ChosenPolicy,
    records: Vec<ControlRecord>,
    switches: usize,
    participants: usize,
}

impl ControlLoop {
    /// A loop driving `controller` over a cluster of `participants` workers
    /// whose configured policy is `initial` (what [`ControlAction::Revert`]
    /// returns to).
    #[must_use]
    pub fn new(
        controller: Box<dyn Controller>,
        participants: usize,
        initial: ChosenPolicy,
    ) -> Self {
        Self {
            telemetry: Telemetry::new(),
            controller,
            switchable: None,
            revert_policy: None,
            current: initial.clone(),
            initial,
            records: Vec::new(),
            switches: 0,
            participants,
        }
    }

    /// Attaches the live policy handle decisions are applied through.
    /// Without one the loop still produces its decision trace (useful for
    /// dry-run analyses) but nothing changes at the backend. The policy
    /// currently installed in `switchable` becomes the revert target.
    pub fn attach(&mut self, switchable: Arc<SwitchablePolicy>) {
        self.revert_policy = Some(switchable.current());
        self.switchable = Some(switchable);
    }

    /// The round boundary: folds the finished round's arrivals into the
    /// telemetry, consults the controller, and applies + records the
    /// decision (in force from round `round + 1`).
    pub fn observe_round(&mut self, round: u64, arrivals: &[ArrivalStamp]) {
        self.telemetry.observe(arrivals);
        let action = self.controller.observe_round(&RoundTelemetry {
            round,
            participants: self.participants,
            arrivals,
            telemetry: &self.telemetry,
        });
        let target = match action {
            ControlAction::Keep => self.current.clone(),
            ControlAction::Revert => self.initial.clone(),
            ControlAction::SetPolicy(policy) => policy,
        };
        let switched = target != self.current;
        if switched {
            if let Some(switchable) = &self.switchable {
                let policy = match &self.revert_policy {
                    Some(initial) if target == self.initial => Arc::clone(initial),
                    _ => target.build(),
                };
                switchable.install(policy);
            }
            self.current = target.clone();
            self.switches += 1;
        }
        self.records.push(ControlRecord {
            round,
            policy: target,
            switched,
        });
    }

    /// Per-round decisions so far, in round order.
    #[must_use]
    pub fn records(&self) -> &[ControlRecord] {
        &self.records
    }

    /// How many decisions changed the installed policy.
    #[must_use]
    pub fn switches(&self) -> usize {
        self.switches
    }

    /// Consumes the loop, yielding its decision trace.
    #[must_use]
    pub fn into_records(self) -> Vec<ControlRecord> {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_cluster::WaitDecodable;

    fn stamp(worker: usize, compute: f64) -> ArrivalStamp {
        ArrivalStamp {
            worker,
            compute_seconds: compute,
            at: compute,
        }
    }

    fn mixed_round() -> Vec<ArrivalStamp> {
        vec![stamp(0, 1.0), stamp(1, 1.1), stamp(2, 0.9), stamp(3, 12.0)]
    }

    #[test]
    fn static_loop_records_but_never_switches() {
        let mut control = ControlLoop::new(
            Box::new(StaticController),
            4,
            ChosenPolicy::wait_decodable(),
        );
        for round in 0..5 {
            control.observe_round(round, &mixed_round());
        }
        assert_eq!(control.switches(), 0);
        assert_eq!(control.records().len(), 5);
        assert!(control.records().iter().all(|r| !r.switched));
        assert!(control
            .records()
            .iter()
            .all(|r| r.policy == ChosenPolicy::wait_decodable()));
    }

    #[test]
    fn adaptive_loop_installs_through_the_switchable() {
        let switchable = SwitchablePolicy::new(Arc::new(WaitDecodable));
        let mut control = ControlLoop::new(
            Box::new(AdaptiveK::default()),
            4,
            ChosenPolicy::wait_decodable(),
        );
        control.attach(Arc::clone(&switchable));
        for round in 0..4 {
            control.observe_round(round, &mixed_round());
        }
        assert_eq!(switchable.current().name(), "fastest-k");
        assert_eq!(
            control.switches(),
            1,
            "repeated identical decisions coalesce"
        );
        let last = control.records().last().unwrap();
        assert_eq!(last.policy, ChosenPolicy::fastest_k(3));
    }

    #[test]
    fn revert_returns_to_the_configured_policy() {
        let switchable = SwitchablePolicy::new(Arc::new(WaitDecodable));
        let mut control = ControlLoop::new(
            Box::new(AdaptiveK::default()),
            4,
            ChosenPolicy::wait_decodable(),
        );
        control.attach(Arc::clone(&switchable));
        for round in 0..4 {
            control.observe_round(round, &mixed_round());
        }
        assert_eq!(switchable.current().name(), "fastest-k");
        // The straggler recovers: EWMA decays back under the threshold.
        let uniform = vec![stamp(0, 1.0), stamp(1, 1.0), stamp(2, 1.0), stamp(3, 1.0)];
        for round in 4..16 {
            control.observe_round(round, &uniform);
        }
        assert_eq!(switchable.current().name(), "wait-decodable");
        assert_eq!(control.switches(), 2);
    }
}
