//! The backend-agnostic round-protocol engine.
//!
//! The paper's protocol (§II eq. (9)–(10), §III-C) is one object: workers
//! encode partial gradients, the master feeds arrivals to the scheme's
//! decoder and stops the moment the completion condition holds. What differs
//! between runtimes is only *how messages arrive* — as a sorted schedule in
//! virtual time ([`crate::VirtualCluster`]), over crossbeam channels in
//! wall-clock time ([`crate::ThreadedCluster`]), or over TCP sockets (the
//! `bcc_net` crate's bound master and loopback fleet).
//!
//! [`RoundEngine`] owns everything backend-independent about one round:
//! payload-to-decoder feeding, completion detection, stall handling, and
//! [`RoundMetrics`] accumulation; the one loop that builds and drives it is
//! [`crate::round_loop`]. Backends implement [`ArrivalSource`] — a
//! pull-based stream of delivered messages — and collapse to thin arrival
//! adapters. Because all four run the *same* engine over the *same*
//! per-worker latency streams, a seed/scheme/profile triple yields
//! byte-identical decoded gradients and identical `messages_used` on every
//! backend (pinned by `tests/backend_equivalence.rs` and
//! `bcc_net`'s `tests/net_equivalence.rs`).

use crate::decode::DecodePool;
use crate::error::ClusterError;
use crate::latency::ClusterProfile;
use crate::metrics::{ArrivalStamp, RoundMetrics};
use crate::minibatch::{Minibatch, UnitSelection};
use crate::observer::{RoundEvent, RoundObserver};
use crate::packed::WorkerBlocks;
use crate::policy::{AggregatedGradient, AggregationPolicy, RoundVerdict, RoundView};
use crate::straggler::StragglerModel;
use crate::units::UnitMap;
use bcc_coding::{Decoder, GradientCodingScheme, Payload};
use bcc_data::Dataset;
use bcc_optim::{GradScratch, Loss};
use bcc_stats::rng::derive_rng;
use std::collections::HashSet;

/// One worker message delivered to the master.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Sending worker id.
    pub worker: usize,
    /// The coded payload.
    pub payload: Payload,
    /// Worker-reported compute duration in simulated seconds.
    pub compute_seconds: f64,
    /// Backend clock (simulated seconds since round start) when the
    /// transfer finished at the master's port.
    pub at: f64,
}

/// What an [`ArrivalSource`] reports next.
#[derive(Debug)]
pub enum ArrivalEvent {
    /// A message finished transferring to the master.
    Delivered(Arrival),
    /// No further messages will ever arrive (all live workers reported, a
    /// receive timeout fired, …). The engine turns this into
    /// [`ClusterError::Stalled`] with its received-message count.
    Exhausted {
        /// Human-readable cause for the stall report.
        reason: String,
    },
    /// A protocol side-note that is not a delivery: a stale frame from an
    /// already-settled round was credited to stats, or a dead worker was
    /// re-admitted mid-round. The engine forwards the event to the
    /// observer and keeps pulling — the decoder never sees it. This is the
    /// epoch plumbing pipelined transports use to report round-t tail
    /// traffic while round t+1 is in flight.
    Note(RoundEvent),
}

/// A backend's arrival stream for one round.
///
/// Implementations own the transport (channel receive + wire decode, or DES
/// event pump + port serialization) and nothing else: no decoder state, no
/// completion logic, no metrics.
pub trait ArrivalSource {
    /// Blocks (in the backend's notion of time) until the next delivery.
    ///
    /// # Errors
    /// Transport-level failures (wire decode errors, encode failures).
    fn next_arrival(&mut self) -> Result<ArrivalEvent, ClusterError>;
}

/// Live workers that hold data under `scheme`, in worker-id order — the
/// participant set every backend must agree on.
#[must_use]
pub fn participants(
    scheme: &dyn GradientCodingScheme,
    dead_workers: &HashSet<usize>,
) -> Vec<usize> {
    (0..scheme.num_workers())
        .filter(|w| !dead_workers.contains(w) && scheme.placement().load_of(*w) > 0)
        .collect()
}

/// Samples worker `worker`'s shift-exponential compute time for GD round
/// `round` — the baseline latency stream, keyed on `(seed, round, worker)`
/// so runs replay identically regardless of backend or thread scheduling.
/// Backends actually sample through a pluggable
/// [`StragglerModel`]; the default model
/// ([`ShiftedExpModel`](crate::straggler::ShiftedExpModel)) routes through
/// this exact stream, keeping the paper-model runs byte-identical.
#[must_use]
pub fn sample_compute_seconds(
    profile: &ClusterProfile,
    seed: u64,
    round: u64,
    worker: usize,
    load: usize,
) -> f64 {
    sample_compute_seconds_with(&profile.workers[worker], seed, round, worker, load)
}

/// [`sample_compute_seconds`] for a single worker's profile (used by worker
/// threads that only carry their own profile).
#[must_use]
pub fn sample_compute_seconds_with(
    worker_profile: &crate::latency::WorkerProfile,
    seed: u64,
    round: u64,
    worker: usize,
    load: usize,
) -> f64 {
    let mut rng = derive_rng(seed, latency_stream(round, worker));
    worker_profile.sample_compute_time(load, &mut rng)
}

/// The per-`(round, worker)` latency-stream label every sampler keys its
/// RNG with — the single source of truth for the derivation the
/// byte-identical replay contract rests on (the straggler zoo's stateless
/// draws and salted coins all route through it).
#[must_use]
pub(crate) fn latency_stream(round: u64, worker: usize) -> u64 {
    round.wrapping_mul(1_000_003) + worker as u64
}

/// The immutable problem a run of rounds executes against: the coding
/// scheme plus the data it codes over. Backends thread one of these through
/// a whole `run_rounds` call instead of four separate references.
#[derive(Clone, Copy)]
pub struct RoundContext<'a> {
    /// The gradient-coding scheme in force.
    pub scheme: &'a dyn GradientCodingScheme,
    /// Unit grouping the scheme codes over.
    pub units: &'a UnitMap,
    /// The training examples.
    pub data: &'a Dataset,
    /// Per-example loss.
    pub loss: &'a dyn Loss,
    /// Per-worker packed unit blocks (built once per run; see
    /// [`WorkerBlocks::build`]).
    pub packed: &'a WorkerBlocks,
    /// Per-round unit-subset sampler for minibatch rounds (`None` = the
    /// paper's full-partition rounds). Every master — and every worker
    /// thread or process — derives round `t`'s selection independently
    /// from this config, so no selection is ever communicated.
    pub minibatch: Option<Minibatch>,
}

impl RoundContext<'_> {
    /// Computes worker `worker`'s unit partial gradients at `weights` and
    /// encodes them with the scheme — the shared worker-side compute path.
    ///
    /// Streams the worker's packed blocks through `scratch`'s blocked
    /// kernels: bit-identical to the per-example path (pinned by
    /// `crates/optim/tests/packed_kernels.rs`), but a linear scan with no
    /// per-round allocation.
    ///
    /// # Errors
    /// Encoding failures ([`bcc_coding::CodingError`]) for malformed
    /// configs.
    pub fn compute_and_encode(
        &self,
        worker: usize,
        weights: &[f64],
        scratch: &mut GradScratch,
    ) -> Result<Payload, ClusterError> {
        let (x, y) = self.packed.arena(self.data);
        let partials =
            scratch.worker_partials(self.loss, x, y, self.packed.worker(worker), weights);
        self.scheme
            .encode(worker, partials)
            .map_err(ClusterError::from)
    }

    /// [`Self::compute_and_encode`] restricted to a round's sampled unit
    /// set: assigned units outside `selection` contribute **zero** partial
    /// gradients (the slot [`GradScratch::ensure_slots`] zeroed), so every
    /// linear scheme encodes/decodes the minibatch sum unchanged.
    ///
    /// `selection: None` is the full-partition path, byte-identical to
    /// [`Self::compute_and_encode`].
    ///
    /// # Errors
    /// Encoding failures ([`bcc_coding::CodingError`]) for malformed
    /// configs.
    pub fn compute_and_encode_selected(
        &self,
        worker: usize,
        weights: &[f64],
        scratch: &mut GradScratch,
        selection: Option<&UnitSelection>,
    ) -> Result<Payload, ClusterError> {
        let Some(sel) = selection else {
            return self.compute_and_encode(worker, weights, scratch);
        };
        let (x, y) = self.packed.arena(self.data);
        let unit_ids = self.scheme.placement().worker_examples(worker);
        let ranges = self.packed.worker(worker);
        scratch.ensure_slots(ranges.len(), weights.len());
        for (slot, (&unit, rows)) in unit_ids.iter().zip(ranges).enumerate() {
            if sel.contains(unit) {
                scratch.fill_partial(slot, self.loss, x, y, rows.clone(), weights);
            }
        }
        self.scheme
            .encode(worker, scratch.partials(ranges.len()))
            .map_err(ClusterError::from)
    }

    /// Round `round`'s sampled unit set, or `None` on full-partition runs.
    #[must_use]
    pub fn selection_for(&self, round: u64) -> Option<UnitSelection> {
        self.minibatch
            .map(|mb| mb.select(round, self.units.num_units()))
    }

    /// Worker `worker`'s simulated compute seconds for `round`, drawn from
    /// `model`'s `(seed, round, worker)` stream — the one `load → delay`
    /// sampler behind the virtual schedule, the threaded pool threads and
    /// the TCP masters' shipped delays. Minibatch rounds only charge
    /// compute for the worker's units that fall in `selection`.
    #[must_use]
    pub fn compute_delay(
        &self,
        model: &dyn StragglerModel,
        seed: u64,
        round: u64,
        worker: usize,
        selection: Option<&UnitSelection>,
    ) -> f64 {
        let placement = self.scheme.placement();
        let load = match selection {
            Some(sel) => sel.selected_load(placement.worker_examples(worker)),
            None => placement.load_of(worker),
        };
        // A worker whose units all fell outside the minibatch still encodes
        // and sends (coded messages mix selected and unselected units), but
        // computes nothing — the latency model is undefined at zero load,
        // so charge zero compute.
        if load == 0 {
            0.0
        } else {
            model.compute_seconds(seed, round, worker, load)
        }
    }

    /// Dataset examples backing `selection` — what the master divides the
    /// decoded minibatch sum by.
    #[must_use]
    pub fn examples_in(&self, selection: &UnitSelection) -> usize {
        selection
            .units()
            .iter()
            .map(|&u| self.units.unit_range(u).len())
            .sum()
    }

    /// Validates that scheme, unit map, and profile describe the same
    /// problem.
    ///
    /// # Panics
    /// On worker-count or unit-count mismatches — construction bugs, not
    /// data conditions. Checking both up front on every backend (a
    /// real-time backend would otherwise surface a unit mismatch later, as
    /// an encode-failure stall) is part of the engine's equal-semantics
    /// contract.
    pub fn validate(&self, profile: &ClusterProfile) {
        assert_eq!(
            self.scheme.num_workers(),
            profile.num_workers(),
            "scheme has {} workers but profile has {}",
            self.scheme.num_workers(),
            profile.num_workers()
        );
        assert_eq!(
            self.scheme.num_examples(),
            self.units.num_units(),
            "scheme units and unit map disagree"
        );
    }

    /// [`participants`] for this context's scheme.
    #[must_use]
    pub fn participants(&self, dead_workers: &HashSet<usize>) -> Vec<usize> {
        participants(self.scheme, dead_workers)
    }
}

/// Per-round protocol state shared by every backend.
pub struct RoundEngine<'a> {
    decoder: Box<dyn Decoder + 'a>,
    policy: &'a dyn AggregationPolicy,
    live_participants: usize,
    max_compute_used: f64,
    /// Clock of the latest delivery (the completion timestamp when the
    /// policy finishes a round on exhaustion).
    last_at: f64,
    complete: bool,
    pool: DecodePool,
    stamps: Vec<ArrivalStamp>,
}

impl<'a> RoundEngine<'a> {
    /// Fresh engine for one round of `scheme` with `live_participants`
    /// workers able to send, consulting `policy` for round completion and
    /// gradient aggregation.
    #[must_use]
    pub fn with_policy(
        scheme: &'a dyn GradientCodingScheme,
        live_participants: usize,
        policy: &'a dyn AggregationPolicy,
    ) -> Self {
        Self {
            decoder: scheme.decoder(),
            policy,
            live_participants,
            max_compute_used: 0.0,
            last_at: 0.0,
            complete: false,
            pool: DecodePool::default(),
            stamps: Vec::new(),
        }
    }

    /// Overrides the decode/aggregate thread budget (default: the serial
    /// fold, [`DecodePool::default`]; any thread count gives the same
    /// bits, see [`crate::decode`]).
    #[must_use]
    pub fn with_decode_pool(mut self, pool: DecodePool) -> Self {
        self.pool = pool;
        self
    }

    /// The policy's read-only view of the round.
    fn view(&self) -> RoundView<'_> {
        RoundView {
            decoder: &*self.decoder,
            live_participants: self.live_participants,
            now: self.last_at,
            pool: self.pool,
        }
    }

    /// Feeds one delivered message to the decoder and consults the policy.
    /// Returns `true` when the policy declared the round complete.
    ///
    /// # Errors
    /// Decoder rejections (unknown/duplicate worker, malformed payload).
    pub fn feed(&mut self, arrival: Arrival) -> Result<bool, ClusterError> {
        self.decoder.receive(arrival.worker, arrival.payload)?;
        self.max_compute_used = self.max_compute_used.max(arrival.compute_seconds);
        self.last_at = self.last_at.max(arrival.at);
        self.stamps.push(ArrivalStamp {
            worker: arrival.worker,
            compute_seconds: arrival.compute_seconds,
            at: arrival.at,
        });
        let done = matches!(self.policy.on_arrival(&self.view()), RoundVerdict::Complete);
        if done {
            self.complete = true;
        }
        Ok(done)
    }

    /// True once the policy declared the round complete.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// The messages fed so far, sorted by worker id — the round's arrival
    /// telemetry. Worker-id order (not delivery order) because threaded
    /// delivery order is subject to OS scheduling jitter while the consumed
    /// *set* is what the cross-backend equivalence contract pins; callers
    /// extract this before [`Self::finish`] consumes the engine.
    #[must_use]
    pub fn arrival_stamps(&self) -> Vec<ArrivalStamp> {
        let mut stamps = self.stamps.clone();
        stamps.sort_by_key(|s| s.worker);
        stamps
    }

    /// Messages consumed so far (the empirical `|W|`).
    #[must_use]
    pub fn messages_received(&self) -> usize {
        self.decoder.messages_received()
    }

    /// Builds the stall error for this round, carrying the received count.
    #[must_use]
    pub fn stalled(&self, reason: impl Into<String>) -> ClusterError {
        ClusterError::Stalled {
            received: self.decoder.messages_received(),
            reason: reason.into(),
        }
    }

    /// Drives the protocol: pulls arrivals from `source` and feeds the
    /// decoder until the policy completes the round or the source
    /// exhausts, emitting one [`RoundEvent`] per protocol transition to
    /// `observer` (`round` labels the events; it does not affect the
    /// protocol). Returns the clock reading of the completing arrival.
    ///
    /// # Errors
    /// [`ClusterError::Stalled`] when the source exhausts (or no live worker
    /// holds data) before the policy completes the round — unless the
    /// policy accepts exhaustion ([`AggregationPolicy::complete_on_exhausted`]
    /// with at least one message in hand) — plus any transport/decoder
    /// failure.
    pub fn run_observed(
        &mut self,
        source: &mut dyn ArrivalSource,
        round: u64,
        observer: &mut dyn RoundObserver,
    ) -> Result<f64, ClusterError> {
        observer.on_event(&RoundEvent::Broadcast {
            round,
            participants: self.live_participants,
        });
        if self.live_participants == 0 {
            let err = self.stalled("no live workers hold any data");
            observer.on_event(&RoundEvent::Stalled {
                round,
                received: 0,
                reason: "no live workers hold any data".into(),
            });
            return Err(err);
        }
        // Transport/decoder failures also terminate the round: emit the
        // terminal event before propagating, so subscribers never see a
        // round that neither completed nor stalled.
        fn fail(
            observer: &mut dyn RoundObserver,
            round: u64,
            received: usize,
            err: ClusterError,
        ) -> ClusterError {
            observer.on_event(&RoundEvent::Stalled {
                round,
                received,
                reason: format!("round failed: {err}"),
            });
            err
        }
        loop {
            let event = match source.next_arrival() {
                Ok(event) => event,
                Err(e) => return Err(fail(observer, round, self.decoder.messages_received(), e)),
            };
            match event {
                ArrivalEvent::Delivered(arrival) => {
                    let (worker, at) = (arrival.worker, arrival.at);
                    let done = match self.feed(arrival) {
                        Ok(done) => done,
                        Err(e) => {
                            return Err(fail(observer, round, self.decoder.messages_received(), e))
                        }
                    };
                    observer.on_event(&RoundEvent::Arrival {
                        round,
                        worker,
                        at,
                        messages: self.decoder.messages_received(),
                        coverage: self.decoder.coverage(),
                    });
                    if done {
                        observer.on_event(&RoundEvent::Complete {
                            round,
                            at,
                            messages: self.decoder.messages_received(),
                            coverage: self.decoder.coverage(),
                        });
                        return Ok(at);
                    }
                }
                ArrivalEvent::Note(event) => {
                    observer.on_event(&event);
                }
                ArrivalEvent::Exhausted { reason } => {
                    if self.policy.complete_on_exhausted() && self.decoder.messages_received() > 0 {
                        self.complete = true;
                        observer.on_event(&RoundEvent::Complete {
                            round,
                            at: self.last_at,
                            messages: self.decoder.messages_received(),
                            coverage: self.decoder.coverage(),
                        });
                        return Ok(self.last_at);
                    }
                    observer.on_event(&RoundEvent::Stalled {
                        round,
                        received: self.decoder.messages_received(),
                        reason: reason.clone(),
                    });
                    return Err(self.stalled(reason));
                }
            }
        }
    }

    /// Hands the round to the policy's aggregation and closes out the
    /// metrics. `total_time` is the backend's clock reading for the whole
    /// round (virtual: the completing delivery's timestamp; real-time
    /// backends: scaled wall clock at completion).
    ///
    /// # Errors
    /// Whatever the policy's [`AggregationPolicy::finish`] reports — for
    /// the default exact policy,
    /// [`bcc_coding::CodingError::NotComplete`] before completion or
    /// decoder solve failures.
    pub fn finish(
        self,
        total_time: f64,
    ) -> Result<(AggregatedGradient, RoundMetrics), ClusterError> {
        let aggregate = self.policy.finish(&self.view())?;
        let metrics = RoundMetrics {
            messages_used: self.decoder.messages_received(),
            communication_units: self.decoder.communication_units(),
            compute_time: self.max_compute_used,
            comm_time: (total_time - self.max_compute_used).max(0.0),
            total_time,
        };
        Ok((aggregate, metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{ClusterProfile, CommModel};
    use crate::observer::NullObserver;
    use crate::policy::WaitDecodable;
    use bcc_coding::scheme::test_support::{random_gradients, total_sum, worker_partials};
    use bcc_coding::UncodedScheme;

    /// Arrival source replaying a fixed schedule.
    struct Replay {
        arrivals: std::vec::IntoIter<Arrival>,
        end_reason: String,
    }

    impl ArrivalSource for Replay {
        fn next_arrival(&mut self) -> Result<ArrivalEvent, ClusterError> {
            Ok(match self.arrivals.next() {
                Some(a) => ArrivalEvent::Delivered(a),
                None => ArrivalEvent::Exhausted {
                    reason: self.end_reason.clone(),
                },
            })
        }
    }

    fn uncoded_arrivals(n: usize, take: usize) -> (UncodedScheme, Vec<Vec<f64>>, Vec<Arrival>) {
        let scheme = UncodedScheme::new(n, n);
        let grads = random_gradients(n, 3, 7);
        let arrivals = (0..take)
            .map(|w| Arrival {
                worker: w,
                payload: scheme
                    .encode(w, &worker_partials(scheme.placement(), w, &grads))
                    .unwrap(),
                compute_seconds: 0.1 * (w + 1) as f64,
                at: 0.2 * (w + 1) as f64,
            })
            .collect();
        (scheme, grads, arrivals)
    }

    #[test]
    fn runs_to_completion_and_decodes_exactly() {
        let (scheme, grads, arrivals) = uncoded_arrivals(4, 4);
        let mut engine = RoundEngine::with_policy(&scheme, 4, &WaitDecodable);
        let mut source = Replay {
            arrivals: arrivals.into_iter(),
            end_reason: "unreachable".into(),
        };
        let end = engine
            .run_observed(&mut source, 0, &mut NullObserver)
            .unwrap();
        assert!((end - 0.8).abs() < 1e-12, "completing arrival's clock");
        let (agg, metrics) = engine.finish(end).unwrap();
        assert_eq!(agg.gradient_sum, total_sum(&grads));
        assert!(agg.exact, "default policy decodes exactly");
        assert!(agg.coverage.is_full());
        assert_eq!(metrics.messages_used, 4);
        assert!((metrics.compute_time - 0.4).abs() < 1e-12);
        assert!(metrics.is_consistent());
    }

    #[test]
    fn exhaustion_becomes_stall_with_received_count() {
        let (scheme, _, arrivals) = uncoded_arrivals(4, 2);
        let mut engine = RoundEngine::with_policy(&scheme, 4, &WaitDecodable);
        let mut source = Replay {
            arrivals: arrivals.into_iter(),
            end_reason: "test exhaustion".into(),
        };
        let err = engine
            .run_observed(&mut source, 0, &mut NullObserver)
            .unwrap_err();
        assert!(
            matches!(err, ClusterError::Stalled { received: 2, ref reason } if reason == "test exhaustion"),
            "got {err:?}"
        );
    }

    #[test]
    fn zero_participants_stall_immediately() {
        let (scheme, _, _) = uncoded_arrivals(4, 0);
        let mut engine = RoundEngine::with_policy(&scheme, 0, &WaitDecodable);
        let mut source = Replay {
            arrivals: Vec::new().into_iter(),
            end_reason: "unused".into(),
        };
        let err = engine
            .run_observed(&mut source, 0, &mut NullObserver)
            .unwrap_err();
        assert!(
            matches!(err, ClusterError::Stalled { received: 0, ref reason }
                if reason.contains("no live workers")),
            "got {err:?}"
        );
    }

    #[test]
    fn participants_skip_dead_and_unloaded() {
        let scheme = UncodedScheme::new(6, 6);
        let dead: HashSet<usize> = [1, 4].into_iter().collect();
        assert_eq!(participants(&scheme, &dead), vec![0, 2, 3, 5]);
    }

    #[test]
    fn latency_stream_is_backend_free_and_replayable() {
        let profile = ClusterProfile::homogeneous(
            3,
            2.0,
            0.01,
            CommModel {
                per_message_overhead: 0.0,
                per_unit: 0.0,
            },
        );
        let a = sample_compute_seconds(&profile, 9, 4, 1, 5);
        let b = sample_compute_seconds(&profile, 9, 4, 1, 5);
        assert_eq!(a, b, "same (seed, round, worker) ⇒ same draw");
        assert_ne!(a, sample_compute_seconds(&profile, 9, 5, 1, 5));
    }
}
