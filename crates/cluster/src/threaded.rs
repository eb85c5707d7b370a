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
//! The round loop and all protocol logic are shared
//! ([`crate::round_loop`], [`crate::engine::RoundEngine`]); this file only
//! produces arrivals: its session keeps one thread per worker alive across
//! a whole run (fresh weights are broadcast each round instead of
//! re-spawning `n` threads per iteration), each running the shared
//! [`WorkerStep`] and pushing wire-encoded envelopes into a channel, and
//! the internal `ThreadedArrivals` transport decodes them, models the
//! serialized receive port, and hands them to the engine.
//!
//! [`StragglerModel`]: crate::straggler::StragglerModel

use crate::config::BackendConfig;
use crate::engine::{Arrival, ArrivalEvent, ArrivalSource};
use crate::error::ClusterError;
use crate::latency::{ClusterProfile, CommModel};
use crate::minibatch::UnitSelection;
use crate::round_loop::{BackendCore, RoundLoop, RoundSession, RoundTransport};
use crate::wire;
use crate::worker::{WorkerReport, WorkerStep};
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Threaded master/worker backend.
#[derive(Debug)]
pub struct ThreadedCluster {
    core: BackendCore,
    /// Real seconds slept per simulated second (e.g. `0.01` compresses a
    /// 1 s simulated straggler to 10 ms of wall time).
    time_scale: f64,
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
        Self {
            core: BackendCore::new(profile, seed),
            time_scale,
        }
    }

    /// Stores `config`; this backend reads the latency model, aggregation
    /// policy, observer, decode pool, minibatch sampler, and receive
    /// timeout. TCP-only knobs (heartbeat/connect timeouts, pipelining,
    /// job, auth token) are never read.
    #[must_use]
    pub fn configured(mut self, config: BackendConfig) -> Self {
        self.core.config.merge(config);
        self
    }

    /// Marks workers as dead (they never send) for failure injection.
    pub fn kill_workers(&mut self, workers: impl IntoIterator<Item = usize>) {
        self.core.dead_workers.extend(workers);
    }

    /// Revives all workers.
    pub fn revive_all(&mut self) {
        self.core.dead_workers.clear();
    }

    /// The profile in force.
    #[must_use]
    pub fn profile(&self) -> &ClusterProfile {
        self.core.profile()
    }
}

impl RoundSession for ThreadedCluster {
    const NAME: &'static str = "threaded";

    fn core(&mut self) -> &mut BackendCore {
        &mut self.core
    }

    /// Drives the rounds against a pool of persistent worker threads.
    fn session(&mut self, rounds: &mut RoundLoop<'_>) -> Result<(), ClusterError> {
        let ctx = rounds.ctx;
        let seed = self.core.seed();
        let time_scale = self.time_scale;
        let model = self.core.model();
        let (result_tx, result_rx) = unbounded::<PoolMessage>();
        // Workers watch this to abandon rounds the master already finished.
        let finished_before = AtomicU64::new(0);

        let outcome: Result<Result<(), ClusterError>, _> = crossbeam::scope(|scope| {
            let mut weight_txs = Vec::new();
            for worker in ctx.participants(&self.core.dead_workers) {
                let (weight_tx, weight_rx) = unbounded::<(u64, Arc<Vec<f64>>)>();
                weight_txs.push(weight_tx);
                let result_tx = result_tx.clone();
                let model = Arc::clone(&model);
                let finished_before = &finished_before;
                scope.spawn(move |_| {
                    // One thread serves the same worker for every round of
                    // the run: thread spawn cost is paid once, not per
                    // iteration.
                    let mut step = WorkerStep::new(ctx, worker, time_scale, finished_before);
                    while let Ok((round, weights)) = weight_rx.recv() {
                        // Round-local: minibatch rounds sample a fresh unit
                        // subset each round, so the latency-relevant load is
                        // the worker's *selected* unit count. Deriving the
                        // selection here (not at the master) keeps the wire
                        // format unchanged.
                        let selection = ctx.selection_for(round);
                        let delay =
                            ctx.compute_delay(&*model, seed, round, worker, selection.as_ref());
                        let message = match step.run(round, &weights, selection.as_ref(), delay) {
                            WorkerReport::Cancelled => continue,
                            WorkerReport::Skipped => PoolMessage::Skipped { round },
                            WorkerReport::Envelope(bytes) => {
                                PoolMessage::Envelope(bytes::Bytes::copy_from_slice(bytes))
                            }
                        };
                        // Receiver may already have hung up — that's fine.
                        let _ = result_tx.send(message);
                    }
                });
            }
            drop(result_tx);

            let mut transport = ThreadedArrivals {
                rx: &result_rx,
                weight_txs,
                finished_before: &finished_before,
                round: 0,
                comm: self.core.profile().comm,
                time_scale,
                recv_timeout: self.core.recv_timeout(),
                start: Instant::now(),
                reports: 0,
            };
            // Returning drops the transport and its weight senders: the
            // workers drain and exit, and the scope joins them.
            rounds.run(&mut transport)
        });

        outcome.map_err(|_| ClusterError::WorkerFailed { worker: usize::MAX })?
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

/// Arrival adapter: broadcasts each round's weights to the worker pool,
/// receives wire-encoded envelopes back, filters stale rounds, and models
/// the master's serialized receive port by occupying the thread for the
/// scaled transfer duration. Counts per-round reports so a round that
/// cannot complete stalls as soon as the last live participant has spoken,
/// not after the receive timeout.
struct ThreadedArrivals<'a> {
    rx: &'a Receiver<PoolMessage>,
    /// One weight channel per live participant (upper bound on reports).
    weight_txs: Vec<Sender<(u64, Arc<Vec<f64>>)>>,
    finished_before: &'a AtomicU64,
    round: u64,
    comm: CommModel,
    time_scale: f64,
    /// Master receive timeout in *real* time before declaring a stall.
    recv_timeout: Duration,
    start: Instant,
    /// Messages (delivered or skipped) seen for this round so far.
    reports: usize,
}

impl RoundTransport for ThreadedArrivals<'_> {
    fn begin_round(
        &mut self,
        round: u64,
        weights: Vec<f64>,
        _selection: Option<UnitSelection>,
    ) -> usize {
        let weights = Arc::new(weights);
        for weight_tx in &self.weight_txs {
            let _ = weight_tx.send((round, Arc::clone(&weights)));
        }
        self.round = round;
        self.reports = 0;
        self.start = Instant::now();
        self.weight_txs.len()
    }

    fn end_round(&mut self, round: u64) {
        // Wake sleeping stragglers of this round promptly.
        self.finished_before.store(round + 1, Ordering::Relaxed);
    }

    fn elapsed(&self) -> Option<f64> {
        Some(self.start.elapsed().as_secs_f64() / self.time_scale)
    }
}

impl ArrivalSource for ThreadedArrivals<'_> {
    fn next_arrival(&mut self) -> Result<ArrivalEvent, ClusterError> {
        loop {
            if self.reports >= self.weight_txs.len() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ClusterBackend;
    use crate::backend::FixedPointDriver;
    use crate::latency::{ClusterProfile, CommModel};
    use crate::units::UnitMap;
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
