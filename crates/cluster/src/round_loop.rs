//! The one round loop every backend runs.
//!
//! The paper has one round protocol — broadcast, workers compute / encode /
//! send, the master stops at the first decodable set — so this crate has one
//! driver for it. A backend is a [`BackendCore`] (the state every backend
//! carries) plus a [`RoundSession`]: the session set-up only it knows
//! (spawn a thread scope, bind a listener and a fleet, wait for
//! registrations) around one [`RoundTransport`], its arrival adapter.
//! Everything else around the [`RoundEngine`] — packing the worker blocks,
//! validation, the attempted-round counter, policy and observer wiring,
//! outcome assembly — happens here, once, so a fault or a phase span
//! injected in [`RoundLoop::run`] reaches every backend.

use crate::backend::{ClusterBackend, RoundDriver, RoundOutcome};
use crate::config::BackendConfig;
use crate::engine::{ArrivalSource, RoundContext, RoundEngine};
use crate::error::ClusterError;
use crate::latency::ClusterProfile;
use crate::minibatch::UnitSelection;
use crate::observer::{NullObserver, RoundObserver, SharedObserver};
use crate::packed::WorkerBlocks;
use crate::policy::{default_policy, AggregationPolicy};
use crate::straggler::{self, StragglerModel};
use crate::units::UnitMap;
use bcc_coding::GradientCodingScheme;
use bcc_data::Dataset;
use bcc_optim::Loss;
use std::collections::HashSet;
use std::sync::{Arc, PoisonError};
use std::time::Duration;

/// The state every backend carries: who the workers are, which latency
/// streams they draw from, how far the run has come, and the stored
/// [`BackendConfig`] with its defaults.
#[derive(Debug, Clone)]
pub struct BackendCore {
    profile: ClusterProfile,
    seed: u64,
    /// Written only by the [`ClusterBackend`] impl below.
    round: u64,
    /// Workers that never send (failure injection, detected deaths).
    pub dead_workers: HashSet<usize>,
    /// Every knob `configured` was handed; read through the accessors below.
    pub config: BackendConfig,
}

impl BackendCore {
    /// Core for a fresh backend: round 0, nobody dead, every default kept.
    #[must_use]
    pub fn new(profile: ClusterProfile, seed: u64) -> Self {
        Self {
            profile,
            seed,
            round: 0,
            dead_workers: HashSet::new(),
            config: BackendConfig::new(),
        }
    }

    /// The latency profile in force — validated against each run's scheme,
    /// so fixed for the backend's lifetime.
    #[must_use]
    pub fn profile(&self) -> &ClusterProfile {
        &self.profile
    }

    /// Seed of the `(seed, round, worker)` latency streams.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Rounds attempted so far (failed ones included) — the next round's id.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The latency model (default: the paper's shift-exponential over the
    /// profile's per-worker parameters).
    #[must_use]
    pub fn model(&self) -> Arc<dyn StragglerModel> {
        let model = self.config.straggler_model.clone();
        model.unwrap_or_else(|| straggler::default_model(&self.profile))
    }

    /// Real time without *any* progress (message or death) before a round
    /// exhausts with "no message" (default 5 s).
    #[must_use]
    pub fn recv_timeout(&self) -> Duration {
        self.config.recv_timeout.unwrap_or(Duration::from_secs(5))
    }

    /// Real silence (no frame of any kind) before a TCP worker is declared
    /// dead (default 2 s). Must comfortably exceed the workers' heartbeat
    /// cadence.
    #[must_use]
    pub fn heartbeat_timeout(&self) -> Duration {
        self.config
            .heartbeat_timeout
            .unwrap_or(Duration::from_secs(2))
    }

    /// How long a TCP master's first round waits for missing participants
    /// to register (default 30 s).
    #[must_use]
    pub fn connect_timeout(&self) -> Duration {
        self.config
            .connect_timeout
            .unwrap_or(Duration::from_secs(30))
    }

    /// Writer-thread fan-out + speculative next-round broadcast on the TCP
    /// masters (the default); `false` restores the serial write-per-peer
    /// seed path.
    #[must_use]
    pub fn pipelined(&self) -> bool {
        self.config.pipelining.unwrap_or(true)
    }
}

/// What a backend owns besides the shared loop — adding a backend is
/// implementing this plus one [`RoundTransport`]; [`ClusterBackend`] comes
/// with it.
pub trait RoundSession {
    /// Human-readable backend name for reports.
    const NAME: &'static str;

    /// The backend's shared state; a caller can reach what `configured` and
    /// the fault hooks reach (`config`, `dead_workers`), nothing else.
    fn core(&mut self) -> &mut BackendCore;

    /// Session set-up and tear-down around one run of rounds: bring the
    /// workers up against `rounds.ctx`, build the transport, hand it to
    /// [`RoundLoop::run`], and release whatever was brought up. Expensive
    /// per-run state (worker threads, sockets, schedules) lives exactly as
    /// long as this call.
    ///
    /// # Errors
    /// Set-up failures, or whatever [`RoundLoop::run`] returned.
    fn session(&mut self, rounds: &mut RoundLoop<'_>) -> Result<(), ClusterError>;
}

/// A backend's side of one round: how the model goes out and how messages
/// come back (the [`ArrivalSource`] half). Owns the transport and nothing
/// else — no decoder state, no completion logic, no metrics.
pub trait RoundTransport: ArrivalSource {
    /// Ships `weights` to every worker that can still report in `round`
    /// and resets the per-round arrival state; `selection` is the round's
    /// minibatch (`None` on full-partition rounds). Returns how many
    /// workers the engine may hear from.
    fn begin_round(
        &mut self,
        round: u64,
        weights: Vec<f64>,
        selection: Option<UnitSelection>,
    ) -> usize;

    /// The engine stopped pulling — the round completed, stalled or
    /// failed: release `round`'s stragglers and settle its deaths.
    fn end_round(&mut self, round: u64);

    /// Simulated seconds since [`Self::begin_round`] by the backend's own
    /// clock (scaled wall time on the real-time backends). `None` — the
    /// virtual backend — means the engine's completing timestamp *is* the
    /// round time.
    fn elapsed(&self) -> Option<f64> {
        None
    }
}

/// One run of rounds, ready to be driven over a backend's transport.
pub struct RoundLoop<'a> {
    /// The problem the rounds execute against.
    pub ctx: RoundContext<'a>,
    /// The id of the next round to attempt; advances per attempted round,
    /// the failing one included, so a mid-batch failure leaves the counter
    /// exactly where sequential `run_round` calls would.
    next_round: u64,
    rounds: usize,
    policy: Arc<dyn AggregationPolicy>,
    observer: Option<SharedObserver>,
    driver: &'a mut dyn RoundDriver,
}

impl RoundLoop<'_> {
    /// Drives every round: evaluation point → broadcast → engine (policy,
    /// observer) over the transport's arrivals → aggregate → outcome to the
    /// driver.
    ///
    /// # Errors
    /// The first round failure ([`ClusterError::Stalled`], coding/wire
    /// failures); earlier rounds' outcomes were already consumed.
    pub fn run(&mut self, transport: &mut dyn RoundTransport) -> Result<(), ClusterError> {
        for index in 0..self.rounds {
            let round = self.next_round;
            self.next_round += 1;
            let weights = self.driver.eval_point(index);
            let selection = self.ctx.selection_for(round);
            let examples_used = selection.as_ref().map(|sel| self.ctx.examples_in(sel));
            let live = transport.begin_round(round, weights, selection);
            let mut engine = RoundEngine::with_policy(self.ctx.scheme, live, &*self.policy);
            let result = {
                // A user observer that panicked mid-event poisons only its
                // own mutex: keep delivering events rather than panic in
                // every later round of every backend sharing the handle.
                let mut guard = self
                    .observer
                    .as_ref()
                    .map(|o| o.lock().unwrap_or_else(PoisonError::into_inner));
                let mut null = NullObserver;
                let observer: &mut dyn RoundObserver = match guard.as_deref_mut() {
                    Some(o) => o,
                    None => &mut null,
                };
                engine.run_observed(transport, round, observer)
            };
            transport.end_round(round);
            let end = result?;
            let total_time = transport.elapsed().unwrap_or(end);
            let arrivals = engine.arrival_stamps();
            let (aggregate, metrics) = engine.finish(total_time)?;
            let mut outcome = RoundOutcome::new(aggregate, metrics);
            outcome.examples_used = examples_used;
            outcome.arrivals = arrivals;
            self.driver.consume(index, outcome);
        }
        Ok(())
    }
}

/// Every [`RoundSession`] is a [`ClusterBackend`]: the per-run prelude, then
/// the backend's session around the loop.
impl<B: RoundSession> ClusterBackend for B {
    /// # Panics
    /// On scheme / unit-map / profile mismatches
    /// ([`RoundContext::validate`]).
    fn run_rounds(
        &mut self,
        rounds: usize,
        scheme: &dyn GradientCodingScheme,
        units: &UnitMap,
        data: &Dataset,
        loss: &dyn Loss,
        driver: &mut dyn RoundDriver,
    ) -> Result<(), ClusterError> {
        // Amortized over the run: each worker's data is packed once and
        // streamed every round.
        let packed = WorkerBlocks::build(scheme, units, data);
        let core = self.core();
        let ctx = RoundContext {
            scheme,
            units,
            data,
            loss,
            packed: &packed,
            minibatch: core.config.minibatch,
        };
        ctx.validate(&core.profile);
        if rounds == 0 {
            return Ok(());
        }
        let policy = core.config.aggregation_policy.clone();
        let mut round_loop = RoundLoop {
            ctx,
            next_round: core.round,
            rounds,
            // Default: the exact `WaitDecodable` policy.
            policy: policy.unwrap_or_else(default_policy),
            observer: core.config.observer.clone(),
            driver,
        };
        let result = self.session(&mut round_loop);
        self.core().round = round_loop.next_round;
        result
    }

    fn backend_name(&self) -> &'static str {
        Self::NAME
    }
}

#[cfg(test)]
mod tests {
    use crate::latency::{ClusterProfile, CommModel};
    use crate::observer::{EventLog, RoundEvent, RoundObserver, SharedObserver};
    use crate::{BackendConfig, ClusterBackend, FixedPointDriver, UnitMap, VirtualCluster};
    use bcc_coding::UncodedScheme;
    use bcc_data::synthetic::{generate, SyntheticConfig};
    use bcc_optim::LogisticLoss;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Mutex, PoisonError};

    /// Logs every event, but panics on the first one it is shown.
    #[derive(Debug, Default)]
    struct PanicsOnce {
        panicked: bool,
        log: EventLog,
    }

    impl RoundObserver for PanicsOnce {
        fn on_event(&mut self, event: &RoundEvent) {
            if !std::mem::replace(&mut self.panicked, true) {
                panic!("user observer bug");
            }
            self.log.on_event(event);
        }
    }

    #[test]
    fn a_poisoned_observer_keeps_receiving_later_rounds() {
        let g = generate(&SyntheticConfig::small(20, 3, 4));
        let units = UnitMap::grouped(20, 10);
        let scheme = UncodedScheme::new(10, 5);
        let comm = CommModel {
            per_message_overhead: 0.001,
            per_unit: 0.01,
        };
        let profile = ClusterProfile::homogeneous(5, 2.0, 0.001, comm);
        let observer = Arc::new(Mutex::new(PanicsOnce::default()));
        let shared: SharedObserver = observer.clone();
        let run = |seed| {
            let mut cluster = VirtualCluster::new(profile.clone(), seed)
                .configured(BackendConfig::new().observer(Arc::clone(&shared)));
            let mut driver = FixedPointDriver::new(vec![0.0; 3]);
            cluster.run_rounds(2, &scheme, &units, &g.dataset, &LogisticLoss, &mut driver)
        };
        // The observer panics inside round 0, while the loop holds its lock.
        assert!(catch_unwind(AssertUnwindSafe(|| run(1))).is_err());
        assert!(observer.is_poisoned());
        // Another backend sharing the handle still runs, and is still heard.
        run(2).expect("a poisoned observer must not fail later runs");
        let seen = observer.lock().unwrap_or_else(PoisonError::into_inner);
        let completed = |e: &&RoundEvent| matches!(e, RoundEvent::Complete { .. });
        assert_eq!(seen.log.events.iter().filter(completed).count(), 2);
    }
}
