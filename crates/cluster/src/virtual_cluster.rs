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
//! stable sort of `(finish time, worker)` walked in order — delivery
//! timestamps and arrival order are event-for-event identical to pumping a
//! general discrete-event queue, at a fraction of the per-round cost.
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
//! computes each unit at most once. None of this changes a bit.

use crate::config::BackendConfig;
use crate::engine::{Arrival, ArrivalEvent, ArrivalSource, RoundContext};
use crate::error::ClusterError;
use crate::latency::{ClusterProfile, CommModel};
use crate::minibatch::UnitSelection;
use crate::packed::UnitGradientCache;
use crate::round_loop::{BackendCore, RoundLoop, RoundSession, RoundTransport};
use crate::straggler::StragglerModel;
use bcc_coding::Payload;
use bcc_data::Placement;
use bcc_linalg::parallel::Parallelism;
use bcc_optim::GradScratch;
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
        // Amortized over the run: the participant set, the unit table, the
        // gradient scratch and the schedule buffer are built once, not per
        // round.
        let mut transport = VirtualArrivals {
            comm: self.core.profile().comm,
            model: self.core.model(),
            seed: self.core.seed(),
            participants: ctx.participants(&self.core.dead_workers),
            ctx,
            scratch: GradScratch::new(),
            cache: UnitGradientCache::new(ctx.units.num_units()),
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
    /// [`contiguous_rows`] of the placement.
    contiguous: Vec<Option<Range<usize>>>,
    /// `(worker, finish_time)` stably sorted by finish time — FIFO port
    /// order; the buffer is reused across rounds.
    schedule: Vec<(usize, f64)>,
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
        self.cache.begin_point(&weights, selection.as_ref());
        self.schedule.clear();
        for &worker in &self.participants {
            let delay =
                self.ctx
                    .compute_delay(&*self.model, self.seed, round, worker, selection.as_ref());
            self.schedule.push((worker, delay));
        }
        // Stable: simultaneous finishers keep participant order, exactly
        // like the FIFO tie-breaking of a discrete-event calendar.
        self.schedule.sort_by(|a, b| a.1.total_cmp(&b.1));
        self.next = 0;
        self.port_free_at = 0.0;
        self.weights = weights;
        self.selection = selection;
        self.participants.len()
    }

    fn end_round(&mut self, _round: u64) {}
}

impl VirtualArrivals<'_> {
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
        let Some(&(worker, finish)) = self.schedule.get(self.next) else {
            return Ok(ArrivalEvent::Exhausted {
                reason: "all live workers reported without completing the scheme".into(),
            });
        };
        self.next += 1;
        // Queue on the single receive port: the transfer starts when both
        // the message and the port are ready. Port order is finish order,
        // so delivery times are nondecreasing.
        let payload_units = self.ctx.scheme.message_units(worker);
        let start = self.port_free_at.max(finish);
        let done = start + self.comm.transfer_time(payload_units);
        self.port_free_at = done;
        let payload = self.compute_and_encode_cached(worker)?;
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
