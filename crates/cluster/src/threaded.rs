//! Threaded cluster: one OS thread per worker, crossbeam channels as the
//! network, injected stragglers, byte-level wire messages.
//!
//! The runtime mirrors the paper's MPI implementation: workers compute
//! partial gradients on their assigned units, encode them, and send
//! asynchronously; the master consumes messages from its single receive
//! queue (each transfer occupying the port for `overhead + units·per_unit`
//! scaled seconds) and stops as soon as the scheme's decoder completes.
//! Straggling is emulated by sampling the installed
//! [`StragglerModel`] (by default the
//! paper's shift-exponential) and sleeping that long (compressed by
//! `time_scale`), so the *relative* timing behaviour — order statistics of
//! arrivals, serialized receipt — matches the EC2 experiments at a
//! laptop-friendly wall clock.
//!
//! All protocol logic lives in the shared [`RoundEngine`]; this file only
//! produces arrivals: worker threads push wire-encoded envelopes into a
//! channel, and the internal `ThreadedArrivals` source decodes them, models the serialized
//! receive port, and hands them to the engine. [`ClusterBackend::run_rounds`]
//! is overridden to keep the worker threads alive across a whole training
//! run, broadcasting fresh weights each round instead of re-spawning
//! `n` threads per iteration.

use crate::backend::{ClusterBackend, FixedPointDriver, RoundDriver, RoundOutcome};
use crate::config::BackendConfig;
use crate::decode::DecodePool;
use crate::engine::{Arrival, ArrivalEvent, ArrivalSource, RoundContext, RoundEngine};
use crate::error::ClusterError;
use crate::latency::{ClusterProfile, CommModel};
use crate::minibatch::Minibatch;
use crate::observer::{NullObserver, RoundObserver, SharedObserver};
use crate::packed::WorkerBlocks;
use crate::policy::AggregationPolicy;
use crate::straggler::{self, StragglerModel};
use crate::units::UnitMap;
use crate::wire;
use bcc_coding::GradientCodingScheme;
use bcc_data::Dataset;
use bcc_optim::{GradScratch, Loss};
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Granularity of cancellable sleeps.
const SLEEP_SLICE: Duration = Duration::from_millis(2);

/// Threaded master/worker backend.
#[derive(Debug)]
pub struct ThreadedCluster {
    profile: ClusterProfile,
    model: Arc<dyn StragglerModel>,
    policy: Arc<dyn AggregationPolicy>,
    observer: Option<SharedObserver>,
    seed: u64,
    round: u64,
    /// Real seconds slept per simulated second (e.g. `0.01` compresses a
    /// 1 s simulated straggler to 10 ms of wall time).
    time_scale: f64,
    /// Master receive timeout in *real* time before declaring a stall.
    recv_timeout: Duration,
    dead_workers: HashSet<usize>,
    decode_pool: DecodePool,
    minibatch: Option<Minibatch>,
}

impl ThreadedCluster {
    /// Creates a threaded cluster.
    ///
    /// # Panics
    /// Panics on a non-positive `time_scale`.
    #[must_use]
    pub fn new(profile: ClusterProfile, seed: u64, time_scale: f64) -> Self {
        assert!(
            time_scale > 0.0 && time_scale.is_finite(),
            "time_scale must be positive"
        );
        let model = straggler::default_model(&profile);
        Self {
            profile,
            model,
            policy: crate::policy::default_policy(),
            observer: None,
            seed,
            round: 0,
            time_scale,
            recv_timeout: Duration::from_secs(5),
            dead_workers: HashSet::new(),
            decode_pool: DecodePool::default(),
            minibatch: None,
        }
    }

    /// Applies every [`BackendConfig`] knob this backend implements:
    /// latency model, aggregation policy, observer, decode pool, minibatch
    /// sampler, and receive timeout. TCP-only knobs (heartbeat/connect
    /// timeouts, pipelining, job, auth token) are ignored.
    #[must_use]
    pub fn configured(mut self, config: BackendConfig) -> Self {
        if let Some(model) = config.straggler_model {
            self.model = model;
        }
        if let Some(policy) = config.aggregation_policy {
            self.policy = policy;
        }
        if let Some(observer) = config.observer {
            self.observer = Some(observer);
        }
        if let Some(pool) = config.decode_pool {
            self.decode_pool = pool;
        }
        if let Some(minibatch) = config.minibatch {
            self.minibatch = Some(minibatch);
        }
        if let Some(timeout) = config.recv_timeout {
            self.recv_timeout = timeout;
        }
        self
    }

    /// Marks workers as dead (they never send) for failure injection.
    pub fn kill_workers(&mut self, workers: impl IntoIterator<Item = usize>) {
        self.dead_workers.extend(workers);
    }

    /// Revives all workers.
    pub fn revive_all(&mut self) {
        self.dead_workers.clear();
    }

    /// The profile in force.
    #[must_use]
    pub fn profile(&self) -> &ClusterProfile {
        &self.profile
    }

    /// Drives `rounds` rounds against a pool of persistent worker threads.
    ///
    /// `first_round` is the global round id of the first iteration (used for
    /// the per-round latency streams and stale-message filtering).
    /// `attempted` counts rounds started (including a failing one) so the
    /// caller can advance its round counter exactly as `attempted`
    /// sequential `run_round` calls would have.
    fn run_with_worker_pool(
        &self,
        first_round: u64,
        rounds: usize,
        ctx: RoundContext<'_>,
        driver: &mut dyn RoundDriver,
        attempted: &mut u64,
    ) -> Result<(), ClusterError> {
        let participants = ctx.participants(&self.dead_workers);
        let (result_tx, result_rx) = unbounded::<PoolMessage>();
        // Workers watch this to abandon rounds the master already finished
        // (or, on `u64::MAX`, to shut down without sending).
        let finished_before = AtomicU64::new(first_round);

        let outcome: Result<Result<(), ClusterError>, _> = crossbeam::scope(|scope| {
            let mut weight_txs: Vec<Sender<(u64, Arc<Vec<f64>>)>> = Vec::new();
            for &worker in &participants {
                let (weight_tx, weight_rx) = unbounded::<(u64, Arc<Vec<f64>>)>();
                weight_txs.push(weight_tx);
                let result_tx = result_tx.clone();
                let model = Arc::clone(&self.model);
                let full_load = ctx.scheme.placement().load_of(worker);
                let (seed, time_scale) = (self.seed, self.time_scale);
                let finished_before = &finished_before;
                scope.spawn(move |_| {
                    // One thread serves the same worker for every round of
                    // the run: thread spawn cost is paid once, not per
                    // iteration. Unless the master cancels the round first,
                    // every round produces exactly one message (Envelope or
                    // Skipped), which is what lets the master detect
                    // "all live workers reported without completing"
                    // promptly instead of burning the receive timeout.
                    // Per-thread reusable state: gradient scratch and the
                    // wire staging buffer live for the whole run, so the
                    // steady-state round loop allocates only the outgoing
                    // `Bytes` itself.
                    let mut scratch = GradScratch::new();
                    let mut wire_buf = bytes::BytesMut::with_capacity(0);
                    while let Ok((round, weights)) = weight_rx.recv() {
                        // Round-local: minibatch rounds sample a fresh unit
                        // subset each round, so the latency-relevant load is
                        // the worker's *selected* unit count. Deriving the
                        // selection here (not at the master) keeps the wire
                        // format unchanged.
                        let selection = ctx.selection_for(round);
                        let load = match &selection {
                            Some(sel) => {
                                sel.selected_load(ctx.scheme.placement().worker_examples(worker))
                            }
                            None => full_load,
                        };
                        // Zero selected load: the worker still encodes and
                        // sends (coded messages mix selected and unselected
                        // units) but computes nothing, and the latency model
                        // is undefined at zero load.
                        let delay = if load == 0 {
                            0.0
                        } else {
                            model.compute_seconds(seed, round, worker, load)
                        };
                        // Emulated straggling first: the sampled delay models
                        // the worker's compute duration, and sleeping before
                        // the real work keeps cancellation responsive — a
                        // straggler whose round the master already finished
                        // wakes within a sleep slice and never starts
                        // computing, so its next round is not delayed.
                        cancellable_sleep(Duration::from_secs_f64(delay * time_scale), || {
                            finished_before.load(Ordering::Relaxed) > round
                        });
                        if finished_before.load(Ordering::Relaxed) > round {
                            continue; // master completed this round already
                        }
                        // Real computation: the worker's unit partial
                        // gradients (packed-kernel path), encoded with the
                        // scheme and staged through the reused wire buffer.
                        let message = match ctx.compute_and_encode_selected(
                            worker,
                            &weights,
                            &mut scratch,
                            selection.as_ref(),
                        ) {
                            Ok(payload) => {
                                wire::encode_into(
                                    &crate::message::Envelope {
                                        iteration: round,
                                        worker,
                                        compute_seconds: delay,
                                        payload,
                                    },
                                    &mut wire_buf,
                                );
                                PoolMessage::Envelope(bytes::Bytes::copy_from_slice(
                                    wire_buf.as_ref(),
                                ))
                            }
                            // Malformed config: report the round as skipped so
                            // the master can stall promptly and accurately.
                            Err(_) => PoolMessage::Skipped { round },
                        };
                        if finished_before.load(Ordering::Relaxed) > round {
                            continue; // round completed while we computed
                        }
                        // Receiver may already have hung up — that's fine.
                        let _ = result_tx.send(message);
                    }
                });
            }
            drop(result_tx);

            // --- Master: one engine per round over the shared pool -------
            for index in 0..rounds {
                let round = first_round + index as u64;
                *attempted = index as u64 + 1;
                let weights = Arc::new(driver.eval_point(index));
                for weight_tx in &weight_txs {
                    let _ = weight_tx.send((round, Arc::clone(&weights)));
                }
                let mut source = ThreadedArrivals {
                    rx: &result_rx,
                    round,
                    comm: self.profile.comm,
                    time_scale: self.time_scale,
                    recv_timeout: self.recv_timeout,
                    start: Instant::now(),
                    participants: participants.len(),
                    reports: 0,
                };
                let mut engine =
                    RoundEngine::with_policy(ctx.scheme, participants.len(), &*self.policy)
                        .with_decode_pool(self.decode_pool);
                let result = {
                    let mut null = NullObserver;
                    let mut guard = self
                        .observer
                        .as_ref()
                        .map(|o| o.lock().expect("round observer lock poisoned"));
                    let observer: &mut dyn RoundObserver = match guard.as_deref_mut() {
                        Some(o) => o,
                        None => &mut null,
                    };
                    engine.run_observed(&mut source, round, observer)
                };
                // Wake sleeping stragglers of this round promptly.
                finished_before.store(round + 1, Ordering::Relaxed);
                if let Err(e) = result {
                    finished_before.store(u64::MAX, Ordering::Relaxed);
                    return Err(e);
                }
                let total_time = source.start.elapsed().as_secs_f64() / self.time_scale;
                let arrivals = engine.arrival_stamps();
                let (aggregate, metrics) = engine.finish(total_time)?;
                let examples_used = ctx.selection_for(round).map(|sel| ctx.examples_in(&sel));
                driver.consume(
                    index,
                    RoundOutcome::new(aggregate, metrics)
                        .with_examples_used(examples_used)
                        .with_arrivals(arrivals),
                );
            }
            drop(weight_txs); // workers drain and exit
            Ok(())
        });

        outcome.map_err(|_| ClusterError::WorkerFailed { worker: usize::MAX })?
    }
}

/// Sleeps `duration`, waking early when `cancelled` reports true — lets
/// straggler threads abandon a round as soon as the master completed it.
fn cancellable_sleep(duration: Duration, cancelled: impl Fn() -> bool) {
    let deadline = Instant::now() + duration;
    while Instant::now() < deadline {
        if cancelled() {
            return;
        }
        std::thread::sleep(SLEEP_SLICE.min(deadline.saturating_duration_since(Instant::now())));
    }
}

/// One message from a pool worker to the master.
enum PoolMessage {
    /// A wire-encoded [`crate::message::Envelope`] (the data path stays
    /// byte-level).
    Envelope(bytes::Bytes),
    /// Control-plane marker: the worker produced no payload for `round`
    /// (encode failure). Lets the master distinguish "everyone reported,
    /// scheme cannot complete" from "still waiting on stragglers".
    Skipped { round: u64 },
}

/// Arrival adapter: receives wire-encoded envelopes from the worker pool,
/// filters stale rounds, and models the master's serialized receive port by
/// occupying the thread for the scaled transfer duration. Counts per-round
/// reports so a round that cannot complete stalls as soon as the last live
/// participant has spoken, not after the receive timeout.
struct ThreadedArrivals<'a> {
    rx: &'a Receiver<PoolMessage>,
    round: u64,
    comm: CommModel,
    time_scale: f64,
    recv_timeout: Duration,
    start: Instant,
    /// Live participants this round (upper bound on reports).
    participants: usize,
    /// Messages (delivered or skipped) seen for this round so far.
    reports: usize,
}

impl ArrivalSource for ThreadedArrivals<'_> {
    fn next_arrival(&mut self) -> Result<ArrivalEvent, ClusterError> {
        loop {
            if self.reports >= self.participants {
                return Ok(ArrivalEvent::Exhausted {
                    reason: "all live workers reported without completing the scheme".into(),
                });
            }
            match self.rx.recv_timeout(self.recv_timeout) {
                Ok(PoolMessage::Envelope(bytes)) => {
                    let envelope = wire::decode(bytes)?;
                    if envelope.iteration != self.round {
                        continue; // stale straggler from a previous round
                    }
                    self.reports += 1;
                    // Serialized receive port: the transfer occupies the
                    // master for the scaled transfer duration.
                    let transfer = self.comm.transfer_time(envelope.payload.units());
                    std::thread::sleep(Duration::from_secs_f64(transfer * self.time_scale));
                    return Ok(ArrivalEvent::Delivered(Arrival {
                        worker: envelope.worker,
                        payload: envelope.payload,
                        compute_seconds: envelope.compute_seconds,
                        at: self.start.elapsed().as_secs_f64() / self.time_scale,
                    }));
                }
                Ok(PoolMessage::Skipped { round }) => {
                    if round == self.round {
                        self.reports += 1;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Backstop only: pool threads outlive every round, so
                    // this fires just if the scope is tearing down.
                    return Ok(ArrivalEvent::Exhausted {
                        reason: "all live workers reported without completing the scheme".into(),
                    });
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Ok(ArrivalEvent::Exhausted {
                        reason: format!(
                            "no message within {:?} (dead workers?)",
                            self.recv_timeout
                        ),
                    });
                }
            }
        }
    }
}

impl ClusterBackend for ThreadedCluster {
    fn run_round(
        &mut self,
        scheme: &dyn GradientCodingScheme,
        units: &UnitMap,
        data: &Dataset,
        loss: &dyn Loss,
        weights: &[f64],
    ) -> Result<RoundOutcome, ClusterError> {
        let packed = WorkerBlocks::build(scheme, units, data);
        let ctx = RoundContext {
            scheme,
            units,
            data,
            loss,
            packed: &packed,
            minibatch: self.minibatch,
        };
        ctx.validate(&self.profile);
        let round = self.round;
        self.round += 1;
        let mut single = FixedPointDriver::new(weights.to_vec());
        self.run_with_worker_pool(round, 1, ctx, &mut single, &mut 0)?;
        Ok(single
            .outcomes
            .pop()
            .expect("run_with_worker_pool consumed one round"))
    }

    fn run_rounds(
        &mut self,
        rounds: usize,
        scheme: &dyn GradientCodingScheme,
        units: &UnitMap,
        data: &Dataset,
        loss: &dyn Loss,
        driver: &mut dyn RoundDriver,
    ) -> Result<(), ClusterError> {
        // Pack once per training run; worker threads stream these blocks
        // every round.
        let packed = WorkerBlocks::build(scheme, units, data);
        let ctx = RoundContext {
            scheme,
            units,
            data,
            loss,
            packed: &packed,
            minibatch: self.minibatch,
        };
        ctx.validate(&self.profile);
        let first_round = self.round;
        if rounds == 0 {
            return Ok(());
        }
        // Advance the counter by rounds actually attempted, so a mid-batch
        // failure leaves it exactly where sequential run_round calls would.
        let mut attempted = 0;
        let result = self.run_with_worker_pool(first_round, rounds, ctx, driver, &mut attempted);
        self.round = first_round + attempted;
        result
    }

    fn backend_name(&self) -> &'static str {
        "threaded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{ClusterProfile, CommModel};
    use bcc_coding::{BccScheme, UncodedScheme};
    use bcc_data::synthetic::{generate, SyntheticConfig};
    use bcc_linalg::approx_eq_slice;
    use bcc_optim::gradient::full_gradient;
    use bcc_optim::LogisticLoss;

    fn fast_profile(n: usize) -> ClusterProfile {
        ClusterProfile::homogeneous(
            n,
            4.0,
            0.0005,
            CommModel {
                per_message_overhead: 0.0005,
                per_unit: 0.002,
            },
        )
    }

    /// Aggressive compression so tests run in milliseconds.
    const SCALE: f64 = 0.02;

    #[test]
    fn uncoded_round_matches_serial_gradient() {
        let g = generate(&SyntheticConfig::small(30, 4, 1));
        let units = UnitMap::grouped(30, 10);
        let scheme = UncodedScheme::new(10, 5);
        let mut cluster = ThreadedCluster::new(fast_profile(5), 3, SCALE);
        let w = vec![0.1; 4];
        let out = cluster
            .run_round(&scheme, &units, &g.dataset, &LogisticLoss, &w)
            .unwrap();
        let mut expect = full_gradient(&g.dataset, &LogisticLoss, &w);
        bcc_linalg::vec_ops::scale(30.0, &mut expect);
        assert!(approx_eq_slice(&out.gradient_sum, &expect, 1e-8));
        assert_eq!(out.metrics.messages_used, 5);
        assert!(out.metrics.total_time > 0.0);
    }

    #[test]
    fn bcc_round_exact_and_early() {
        let g = generate(&SyntheticConfig::small(40, 4, 2));
        let units = UnitMap::grouped(40, 8);
        // 8 units, r=2 → 4 batches; 16 workers, coverage guaranteed by hand.
        let choices = vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3];
        let scheme = BccScheme::from_choices(8, 2, choices);
        let mut cluster = ThreadedCluster::new(fast_profile(16), 5, SCALE);
        let w = vec![0.0; 4];
        let out = cluster
            .run_round(&scheme, &units, &g.dataset, &LogisticLoss, &w)
            .unwrap();
        let mut expect = full_gradient(&g.dataset, &LogisticLoss, &w);
        bcc_linalg::vec_ops::scale(40.0, &mut expect);
        assert!(approx_eq_slice(&out.gradient_sum, &expect, 1e-8));
        assert!(
            out.metrics.messages_used < 16,
            "BCC should stop before hearing all workers"
        );
    }

    #[test]
    fn dead_worker_stalls_uncoded_with_timeout() {
        let g = generate(&SyntheticConfig::small(20, 3, 3));
        let units = UnitMap::grouped(20, 10);
        let scheme = UncodedScheme::new(10, 5);
        let mut cluster = ThreadedCluster::new(fast_profile(5), 7, SCALE)
            .configured(BackendConfig::new().recv_timeout(Duration::from_millis(300)));
        cluster.kill_workers([0]);
        let err = cluster
            .run_round(&scheme, &units, &g.dataset, &LogisticLoss, &[0.0; 3])
            .unwrap_err();
        assert!(matches!(err, ClusterError::Stalled { .. }));
    }

    #[test]
    fn consecutive_rounds_work() {
        let g = generate(&SyntheticConfig::small(20, 3, 4));
        let units = UnitMap::grouped(20, 10);
        let scheme = UncodedScheme::new(10, 5);
        let mut cluster = ThreadedCluster::new(fast_profile(5), 9, SCALE);
        let w = vec![0.0; 3];
        for _ in 0..3 {
            let out = cluster
                .run_round(&scheme, &units, &g.dataset, &LogisticLoss, &w)
                .unwrap();
            assert_eq!(out.metrics.messages_used, 5);
        }
    }

    #[test]
    fn incompletable_round_stalls_promptly_not_on_timeout() {
        // All live workers report but the scheme cannot complete (dead
        // worker under uncoded). The pool must detect "everyone spoke"
        // immediately rather than burning the receive timeout.
        let g = generate(&SyntheticConfig::small(20, 3, 13));
        let units = UnitMap::grouped(20, 10);
        let scheme = UncodedScheme::new(10, 5);
        let mut cluster = ThreadedCluster::new(fast_profile(5), 15, SCALE)
            .configured(BackendConfig::new().recv_timeout(Duration::from_secs(60)));
        cluster.kill_workers([3]);
        let start = Instant::now();
        let err = cluster
            .run_round(&scheme, &units, &g.dataset, &LogisticLoss, &[0.0; 3])
            .unwrap_err();
        assert!(
            matches!(
                err,
                ClusterError::Stalled { received: 4, ref reason }
                    if reason.contains("all live workers reported")
            ),
            "got {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "stall must not wait out the 60s receive timeout"
        );
    }

    #[test]
    fn batched_run_rounds_reuses_worker_pool() {
        let g = generate(&SyntheticConfig::small(30, 4, 6));
        let units = UnitMap::grouped(30, 10);
        let scheme = UncodedScheme::new(10, 5);
        let mut cluster = ThreadedCluster::new(fast_profile(5), 11, SCALE);
        let mut expect = full_gradient(&g.dataset, &LogisticLoss, &[0.2; 4]);
        bcc_linalg::vec_ops::scale(30.0, &mut expect);

        let mut driver = FixedPointDriver::new(vec![0.2; 4]);
        cluster
            .run_rounds(5, &scheme, &units, &g.dataset, &LogisticLoss, &mut driver)
            .unwrap();
        assert_eq!(driver.outcomes.len(), 5);
        for outcome in &driver.outcomes {
            assert!(approx_eq_slice(&outcome.gradient_sum, &expect, 1e-8));
            assert_eq!(outcome.metrics.messages_used, 5);
        }
    }
}
