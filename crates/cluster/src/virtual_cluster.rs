//! Virtual cluster: the round protocol replayed in virtual time.
//!
//! Per round: every participating worker `i` samples a compute time from
//! the installed [`StragglerModel`] (default: the paper's
//! `shift-exp(aᵢ·rᵢ, μᵢ/rᵢ)`) and "finishes" at `Tᵢ`; its message then
//! queues for the master's single receive port (transfer time
//! `overhead + units·per_unit`, one transfer at a time). The round loop and
//! all protocol logic — decoder feeding, completion, stalls, metrics — are
//! shared ([`crate::round_loop`], [`crate::engine::RoundEngine`]); this file
//! is only the arrival adapter. Identical protocol semantics to the
//! real-time backends by construction, minus the wall clock.
//!
//! Because every finish time is known when the round starts and the
//! receive port is strictly serial, the event calendar collapses to a
//! sort of `(finish time, worker)` walked in order — delivery timestamps
//! and arrival order are event-for-event identical to pumping a general
//! discrete-event queue, at a fraction of the per-round cost. Each entry
//! is one integer key, the finish time's `total_cmp` order above the
//! worker id, so an unstable sort of the keys is exactly the stable sort by
//! finish time.
//!
//! A worker's payload is computed when it is delivered, from a
//! [`UnitGradientCache`] that holds each unit's gradient at the round's
//! broadcast point: every replica of a unit reads one entry, and an
//! arriving worker's units not yet in that table are filled on the host's
//! cores when they are work enough — the paper's workers computing in
//! parallel, on as many cores as the host has. The table is keyed on the
//! broadcast point (the weights' bits and the minibatch selection), not on
//! the round ([`UnitGradientCache::begin_point`]): a round that broadcasts
//! the previous round's point reuses every entry, so a fixed-point run
//! computes each unit at most once.
//!
//! Where the scheme promises that several workers send one message
//! ([`GradientCodingScheme::message_slot`]: a BCC batch, a
//! fractional-repetition group), the first of them to arrive at a point
//! encodes it and every later one receives a copy; the copies are dropped
//! with the table when the point moves. So a round encodes each shared
//! message once, and a fixed-point run once per run. None of this changes
//! a bit.

use crate::config::BackendConfig;
use crate::engine::{Arrival, ArrivalEvent, ArrivalSource, RoundContext};
use crate::error::ClusterError;
use crate::latency::{ClusterProfile, CommModel};
use crate::minibatch::UnitSelection;
use crate::packed::UnitGradientCache;
use crate::round_loop::{BackendCore, RoundLoop, RoundSession, RoundTransport};
use crate::straggler::StragglerModel;
use bcc_coding::{GradientCodingScheme, Payload};
use bcc_data::Placement;
use bcc_linalg::parallel::Parallelism;
use bcc_optim::GradScratch;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Virtual (discrete-event) cluster backend.
#[derive(Debug, Clone)]
pub struct VirtualCluster {
    core: BackendCore,
}

impl VirtualCluster {
    /// Creates a virtual cluster with the given latency profile and seed,
    /// sampling compute times from the paper's shift-exponential model over
    /// the profile's per-worker parameters.
    #[must_use]
    pub fn new(profile: ClusterProfile, seed: u64) -> Self {
        Self {
            core: BackendCore::new(profile, seed),
        }
    }

    /// Stores `config`; this backend reads the latency model, aggregation
    /// policy, observer, and minibatch sampler. Network-only knobs
    /// (timeouts, pipelining, job, auth token) are never read — the virtual
    /// clock has no real network.
    #[must_use]
    pub fn configured(mut self, config: BackendConfig) -> Self {
        self.core.config.merge(config);
        self
    }

    /// Marks workers as dead for failure-injection experiments; they never
    /// produce messages.
    pub fn kill_workers(&mut self, workers: impl IntoIterator<Item = usize>) {
        self.core.dead_workers.extend(workers);
    }

    /// Revives all workers.
    pub fn revive_all(&mut self) {
        self.core.dead_workers.clear();
    }

    /// The latency profile in force.
    #[must_use]
    pub fn profile(&self) -> &ClusterProfile {
        self.core.profile()
    }
}

impl RoundSession for VirtualCluster {
    const NAME: &'static str = "virtual-des";

    fn core(&mut self) -> &mut BackendCore {
        &mut self.core
    }

    fn session(&mut self, rounds: &mut RoundLoop<'_>) -> Result<(), ClusterError> {
        let ctx = rounds.ctx;
        let participants = ctx.participants(&self.core.dead_workers);
        let (shared, slots) = shared_messages(ctx.scheme, &participants);
        // Amortized over the run: the participant set, the unit table, the
        // shared messages, the gradient scratch and the schedule buffer are
        // built once, not per round.
        let mut transport = VirtualArrivals {
            comm: self.core.profile().comm,
            model: self.core.model(),
            seed: self.core.seed(),
            participants,
            ctx,
            scratch: GradScratch::new(),
            cache: UnitGradientCache::new(ctx.units.num_units()),
            shared,
            messages: vec![None; slots],
            contiguous: contiguous_rows(ctx.scheme.placement()),
            schedule: Vec::new(),
            next: 0,
            port_free_at: 0.0,
            weights: Vec::new(),
            selection: None,
        };
        rounds.run(&mut transport)
    }
}

/// Per worker: its placement row as a range of unit ids when the ids
/// ascend by exactly 1 (every uncoded, BCC and fractional-repetition row;
/// cyclic rows that do not wrap around), else `None`. Such a row's
/// partials are a contiguous run of the unit-gradient table.
fn contiguous_rows(placement: &Placement) -> Vec<Option<Range<usize>>> {
    (0..placement.num_workers())
        .map(|worker| {
            let row = placement.worker_examples(worker);
            let first = *row.first()?;
            row.iter()
                .zip(first..)
                .all(|(&unit, expected)| unit == expected)
                .then(|| first..first + row.len())
        })
        .collect()
}

/// Per worker: an index into the shared-message memo when its
/// [`GradientCodingScheme::message_slot`] is also another participant's,
/// else `None`; and the number of such slots.
fn shared_messages(
    scheme: &dyn GradientCodingScheme,
    participants: &[usize],
) -> (Vec<Option<usize>>, usize) {
    let mut senders: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &worker in participants {
        if let Some(slot) = scheme.message_slot(worker) {
            senders.entry(slot).or_default().push(worker);
        }
    }
    let mut shared = vec![None; scheme.num_workers()];
    let mut slots = 0;
    for workers in senders.into_values().filter(|workers| workers.len() > 1) {
        for worker in workers {
            shared[worker] = Some(slots);
        }
        slots += 1;
    }
    (shared, slots)
}

/// The sign bit of an `f64`.
const SIGN: u64 = 1 << 63;

/// One schedule entry as a key whose integer order is the stable order of
/// `(worker, delay)` by `delay.total_cmp`: the delay's ordered bits above
/// the worker id. Participants ascend by worker id, so the id breaks ties
/// exactly as a stable sort of them by delay does. The ordered bits are
/// `total_cmp`'s own map (a negative value's magnitude bits flipped, which
/// is its own inverse) with the sign bit flipped, so that they compare as
/// unsigned integers.
fn schedule_key(worker: usize, delay: f64) -> u128 {
    let bits = delay.to_bits();
    let ordered = bits ^ ((((bits as i64) >> 63) as u64) >> 1) ^ SIGN;
    (u128::from(ordered) << 64) | worker as u128
}

/// The `(worker, delay)` a [`schedule_key`] was made from, bit for bit.
fn from_schedule_key(key: u128) -> (usize, f64) {
    let ordered = (key >> 64) as u64 ^ SIGN;
    let bits = ordered ^ ((((ordered as i64) >> 63) as u64) >> 1);
    (key as u64 as usize, f64::from_bits(bits))
}

/// Arrival adapter: walks the round's finish-time schedule in order,
/// modelling the master's serialized receive port, and materializes each
/// worker's payload at delivery time.
struct VirtualArrivals<'a> {
    comm: CommModel,
    model: Arc<dyn StragglerModel>,
    seed: u64,
    /// The run's fixed participant set, in worker-id order.
    participants: Vec<usize>,
    ctx: RoundContext<'a>,
    /// Reusable gradient buffers, carried across rounds.
    scratch: GradScratch,
    /// Every unit's gradient at the point `weights` and `selection` name.
    cache: UnitGradientCache,
    /// [`shared_messages`] of the participants.
    shared: Vec<Option<usize>>,
    /// Each shared slot's message at the point the table holds, once its
    /// first sender has arrived there; emptied with the table.
    messages: Vec<Option<Payload>>,
    /// [`contiguous_rows`] of the placement.
    contiguous: Vec<Option<Range<usize>>>,
    /// [`schedule_key`]s of `(worker, finish_time)`, sorted: FIFO port
    /// order. The buffer is reused across rounds.
    schedule: Vec<u128>,
    next: usize,
    port_free_at: f64,
    /// The round's broadcast point.
    weights: Vec<f64>,
    selection: Option<UnitSelection>,
}

impl RoundTransport for VirtualArrivals<'_> {
    fn begin_round(
        &mut self,
        round: u64,
        weights: Vec<f64>,
        selection: Option<UnitSelection>,
    ) -> usize {
        if self.cache.begin_point(&weights, selection.as_ref()) {
            self.messages.fill(None);
        }
        self.schedule.clear();
        for &worker in &self.participants {
            let delay =
                self.ctx
                    .compute_delay(&*self.model, self.seed, round, worker, selection.as_ref());
            self.schedule.push(schedule_key(worker, delay));
        }
        // Simultaneous finishers keep participant order (the keys' low
        // half), exactly like the FIFO tie-breaking of a discrete-event
        // calendar.
        self.schedule.sort_unstable();
        self.next = 0;
        self.port_free_at = 0.0;
        self.weights = weights;
        self.selection = selection;
        self.participants.len()
    }

    fn end_round(&mut self, _round: u64) {}
}

impl VirtualArrivals<'_> {
    /// The worker's message at the round's point: a copy of its slot's
    /// message when another sender of the slot already encoded it here,
    /// else freshly encoded (and kept when the slot is shared).
    fn message(&mut self, worker: usize) -> Result<Payload, ClusterError> {
        let Some(slot) = self.shared[worker] else {
            return self.compute_and_encode_cached(worker);
        };
        if let Some(message) = &self.messages[slot] {
            return Ok(message.clone());
        }
        let message = self.compute_and_encode_cached(worker)?;
        self.messages[slot] = Some(message.clone());
        Ok(message)
    }

    /// [`RoundContext::compute_and_encode_selected`] over the unit-gradient
    /// table: each unit is computed once per broadcast point, in place, and
    /// reused by every replica worker and every round at that point —
    /// bit-identical by construction, since every replica computes the same
    /// block at the same weights into the same zeroed accumulator. The
    /// worker's units not yet in the table are filled on up to
    /// [`Parallelism::available`] cores when they are work enough to share
    /// ([`UnitGradientCache::fill`]). A contiguous placement row is encoded
    /// straight from the table; any other row is gathered into scratch
    /// slots first.
    fn compute_and_encode_cached(&mut self, worker: usize) -> Result<Payload, ClusterError> {
        let cache = &mut self.cache;
        let unit_ids = self.ctx.scheme.placement().worker_examples(worker);
        let packed = self.ctx.packed;
        let (x, y) = packed.arena(self.ctx.data);
        let (loss, weights, selection) = (self.ctx.loss, &self.weights, self.selection.as_ref());
        let dim = weights.len();
        let selected = |unit: usize| selection.is_none_or(|sel| sel.contains(unit));
        // Units outside the round's minibatch read nothing and stay the
        // zero vector the entry was reset to.
        let work = |unit: usize| {
            if selected(unit) {
                packed.unit_range(unit).len() * dim
            } else {
                0
            }
        };
        cache.fill(
            unit_ids,
            dim,
            Parallelism::available(),
            work,
            |scratch, unit, acc| {
                if selected(unit) {
                    scratch.accumulate_rows(loss, x, y, packed.unit_range(unit), weights, acc);
                }
            },
        );
        let partials = match self.contiguous[worker].clone() {
            Some(units) => cache.filled_range(units),
            None => {
                self.scratch.ensure_slots(unit_ids.len(), dim);
                for (slot, &unit) in unit_ids.iter().enumerate() {
                    let grad = cache.get(unit).expect("filled above");
                    self.scratch.copy_partial_from(slot, grad);
                }
                self.scratch.partials(unit_ids.len())
            }
        };
        self.ctx
            .scheme
            .encode(worker, partials)
            .map_err(ClusterError::from)
    }
}

impl ArrivalSource for VirtualArrivals<'_> {
    fn next_arrival(&mut self) -> Result<ArrivalEvent, ClusterError> {
        let Some(&key) = self.schedule.get(self.next) else {
            return Ok(ArrivalEvent::Exhausted {
                reason: "all live workers reported without completing the scheme".into(),
            });
        };
        self.next += 1;
        let (worker, finish) = from_schedule_key(key);
        // Queue on the single receive port: the transfer starts when both
        // the message and the port are ready. Port order is finish order,
        // so delivery times are nondecreasing.
        let payload_units = self.ctx.scheme.message_units(worker);
        let start = self.port_free_at.max(finish);
        let done = start + self.comm.transfer_time(payload_units);
        self.port_free_at = done;
        let payload = self.message(worker)?;
        Ok(ArrivalEvent::Delivered(Arrival {
            worker,
            payload,
            compute_seconds: finish,
            at: done,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ClusterBackend;
    use crate::latency::{ClusterProfile, CommModel};
    use crate::units::UnitMap;
    use bcc_coding::{BccScheme, UncodedScheme};
    use bcc_data::synthetic::{generate, SyntheticConfig};
    use bcc_linalg::approx_eq_slice;
    use bcc_optim::gradient::full_gradient;
    use bcc_optim::LogisticLoss;

    fn profile(n: usize) -> ClusterProfile {
        ClusterProfile::homogeneous(
            n,
            2.0,
            0.001,
            CommModel {
                per_message_overhead: 0.001,
                per_unit: 0.01,
            },
        )
    }

    #[test]
    fn uncoded_round_matches_serial_gradient() {
        let g = generate(&SyntheticConfig::small(40, 6, 1));
        let units = UnitMap::grouped(40, 20);
        let scheme = UncodedScheme::new(20, 10);
        let mut cluster = VirtualCluster::new(profile(10), 7);
        let w = vec![0.05; 6];
        let out = cluster
            .run_round(&scheme, &units, &g.dataset, &LogisticLoss, &w)
            .unwrap();
        let mut expect = full_gradient(&g.dataset, &LogisticLoss, &w);
        bcc_linalg::vec_ops::scale(40.0, &mut expect);
        assert!(approx_eq_slice(&out.gradient_sum, &expect, 1e-8));
        assert_eq!(out.metrics.messages_used, 10);
        assert!(out.metrics.is_consistent());
        assert!(out.metrics.total_time > 0.0);
    }

    #[test]
    fn bcc_round_uses_fewer_messages_than_uncoded() {
        let g = generate(&SyntheticConfig::small(40, 4, 2));
        let m_units = 20;
        let units = UnitMap::grouped(40, m_units);
        let n = 40;
        let mut rng = bcc_stats::rng::derive_rng(3, 0);
        let scheme = loop {
            let s = BccScheme::new(m_units, n, 5, &mut rng);
            if s.covers_all_batches() {
                break s;
            }
        };
        let mut cluster = VirtualCluster::new(profile(n), 11);
        let w = vec![0.0; 4];
        let out = cluster
            .run_round(&scheme, &units, &g.dataset, &LogisticLoss, &w)
            .unwrap();
        // 4 batches: completion needs ≥ 4 and usually ≪ 40 messages.
        assert!(out.metrics.messages_used >= 4);
        assert!(out.metrics.messages_used < 40);
        let mut expect = full_gradient(&g.dataset, &LogisticLoss, &w);
        bcc_linalg::vec_ops::scale(40.0, &mut expect);
        assert!(approx_eq_slice(&out.gradient_sum, &expect, 1e-8));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generate(&SyntheticConfig::small(20, 3, 3));
        let units = UnitMap::grouped(20, 10);
        let scheme = UncodedScheme::new(10, 5);
        let w = vec![0.1; 3];
        let run = |seed| {
            let mut c = VirtualCluster::new(profile(5), seed);
            c.run_round(&scheme, &units, &g.dataset, &LogisticLoss, &w)
                .unwrap()
                .metrics
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).total_time, run(43).total_time);
    }

    #[test]
    fn dead_worker_stalls_uncoded() {
        let g = generate(&SyntheticConfig::small(20, 3, 4));
        let units = UnitMap::grouped(20, 10);
        let scheme = UncodedScheme::new(10, 5);
        let mut cluster = VirtualCluster::new(profile(5), 9);
        cluster.kill_workers([2]);
        let err = cluster
            .run_round(&scheme, &units, &g.dataset, &LogisticLoss, &[0.0; 3])
            .unwrap_err();
        assert!(matches!(err, ClusterError::Stalled { received: 4, .. }));
        cluster.revive_all();
        assert!(cluster
            .run_round(&scheme, &units, &g.dataset, &LogisticLoss, &[0.0; 3])
            .is_ok());
    }

    #[test]
    fn dead_worker_tolerated_by_bcc_when_covered() {
        let m_units = 4;
        let g = generate(&SyntheticConfig::small(8, 3, 5));
        let units = UnitMap::grouped(8, m_units);
        // r = 1 → 4 batches over 4 units; 8 workers, two per batch:
        // killing one worker keeps every batch covered.
        let scheme = BccScheme::from_choices(m_units, 1, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        let mut cluster = VirtualCluster::new(profile(8), 13);
        cluster.kill_workers([1]);
        let out = cluster
            .run_round(&scheme, &units, &g.dataset, &LogisticLoss, &[0.0; 3])
            .unwrap();
        assert!(out.metrics.messages_used >= m_units);
    }

    #[test]
    fn rounds_resample_latencies() {
        let g = generate(&SyntheticConfig::small(20, 3, 6));
        let units = UnitMap::grouped(20, 10);
        let scheme = UncodedScheme::new(10, 5);
        let mut cluster = VirtualCluster::new(profile(5), 21);
        let w = vec![0.0; 3];
        let t1 = cluster
            .run_round(&scheme, &units, &g.dataset, &LogisticLoss, &w)
            .unwrap()
            .metrics
            .total_time;
        let t2 = cluster
            .run_round(&scheme, &units, &g.dataset, &LogisticLoss, &w)
            .unwrap()
            .metrics
            .total_time;
        assert_ne!(t1, t2, "per-round latency streams must differ");
    }

    #[test]
    fn keyed_schedule_sorts_like_a_stable_total_cmp_sort() {
        let delays = [
            1.5,
            0.0,
            -0.0,
            1.5,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            0.0,
            -2.5,
            f64::MAX,
            f64::INFINITY,
            1.5,
            f64::MIN_POSITIVE,
            -0.0,
        ];
        let entries: Vec<(usize, f64)> = delays.iter().copied().enumerate().collect();
        let mut expected = entries.clone();
        expected.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut keys: Vec<u128> = entries.iter().map(|&(w, d)| schedule_key(w, d)).collect();
        keys.sort_unstable();
        let got: Vec<(usize, f64)> = keys.into_iter().map(from_schedule_key).collect();
        let bits = |v: &[(usize, f64)]| -> Vec<(usize, u64)> {
            v.iter().map(|&(w, d)| (w, d.to_bits())).collect()
        };
        assert_eq!(bits(&got), bits(&expected));
        for &(worker, delay) in &entries {
            let (w, d) = from_schedule_key(schedule_key(worker, delay));
            assert_eq!((w, d.to_bits()), (worker, delay.to_bits()));
        }
    }

    #[test]
    fn run_rounds_matches_sequential_run_round_calls() {
        let g = generate(&SyntheticConfig::small(30, 4, 8));
        let units = UnitMap::grouped(30, 10);
        let scheme = UncodedScheme::new(10, 5);
        let w = vec![0.1; 4];

        let mut sequential = VirtualCluster::new(profile(5), 33);
        let mut expected = Vec::new();
        for _ in 0..4 {
            expected.push(
                sequential
                    .run_round(&scheme, &units, &g.dataset, &LogisticLoss, &w)
                    .unwrap(),
            );
        }

        let mut batched = VirtualCluster::new(profile(5), 33);
        let mut driver = crate::backend::FixedPointDriver::new(w);
        batched
            .run_rounds(4, &scheme, &units, &g.dataset, &LogisticLoss, &mut driver)
            .unwrap();

        assert_eq!(driver.outcomes.len(), expected.len());
        for (got, want) in driver.outcomes.iter().zip(&expected) {
            assert_eq!(got.gradient_sum, want.gradient_sum);
            assert_eq!(got.metrics, want.metrics);
        }
    }
}
