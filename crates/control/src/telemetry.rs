//! The telemetry store controllers feed on: per-worker arrival-time history
//! with EWMA smoothing and a bounded streaming quantile estimator.
//!
//! Everything here is keyed on the **worker-reported compute time**
//! ([`ArrivalStamp::compute_seconds`]), never the backend clock
//! ([`ArrivalStamp::at`]): compute times are drawn from the deterministic
//! per-`(seed, round, worker)` latency stream and replay bit-identically on
//! the virtual, threaded, and TCP backends, so every statistic below — and
//! therefore every controller decision derived from it — is
//! backend-independent and thread-count-invariant by construction.
//!
//! **Censoring.** Rounds end when the aggregation policy completes them, so
//! a persistent straggler usually never appears in the arrival stream at
//! all — its compute draws are right-censored by the round cut. Straggler
//! detection therefore keys on *absence* as much as on observed times:
//! [`Telemetry::slow_worker_count`] counts a worker slow when its EWMA is a
//! `slow_factor` multiple of the median **or** when it arrived in fewer
//! than a third of observed rounds (including workers never seen at all).
//!
//! **Cost.** The store is dense — one slot per worker id, grown on first
//! sight — so folding a round in costs O(arrivals), and that fold is all
//! the `static` controller pays. The median EWMA behind
//! [`Telemetry::slow_worker_count`] is a selection
//! (`select_nth_unstable_by`), not a sort: a query costs O(highest worker
//! id), paid only by the controllers that ask. The selected value equals
//! sort-then-index, so every count and decision is the same as over a
//! sorted copy.

use bcc_cluster::ArrivalStamp;

/// EWMA smoothing factor in `(0, 1]`: the weight of the newest sample.
const ALPHA: f64 = 0.3;

/// Arrival-time summary of one worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerStats {
    /// Exponentially weighted moving average of the worker's compute times.
    pub ewma: f64,
    /// Latest observed compute time.
    pub last: f64,
    /// Number of arrivals folded in.
    pub samples: u64,
}

/// A bounded, deterministic streaming quantile estimator: retains up to a
/// fixed number of samples, decimating (keep-every-other after sorting) and
/// doubling its acceptance stride whenever the buffer fills. Quantiles are
/// exact over the retained sample set — no randomized sketching, so the
/// estimate replays identically on every backend.
#[derive(Debug, Clone)]
pub struct QuantileEstimator {
    samples: Vec<f64>,
    cap: usize,
    stride: u64,
    offered: u64,
}

impl QuantileEstimator {
    /// Estimator retaining at most `cap` samples (`cap ≥ 2`).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        Self {
            samples: Vec::new(),
            cap: cap.max(2),
            stride: 1,
            offered: 0,
        }
    }

    /// Offers one sample; accepted every `stride`-th call once decimation
    /// has kicked in.
    pub fn push(&mut self, x: f64) {
        self.offered += 1;
        if !self.offered.is_multiple_of(self.stride) {
            return;
        }
        self.samples.push(x);
        if self.samples.len() >= self.cap {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("compute times are finite"));
            let kept: Vec<f64> = self.samples.iter().copied().step_by(2).collect();
            self.samples = kept;
            self.stride = self.stride.saturating_mul(2);
        }
    }

    /// The `q`-quantile (nearest-rank over retained samples), `None` before
    /// any sample arrived.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("compute times are finite"));
        let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(sorted[idx])
    }

    /// Retained sample count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True before any sample was retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// The store: per-worker EWMA history and a global compute-time quantile
/// estimator, both fed once per round from the round's consumed
/// [`ArrivalStamp`]s.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Indexed by worker id; `None` until the worker first arrives.
    workers: Vec<Option<WorkerStats>>,
    /// Number of `Some` entries in `workers`.
    seen: usize,
    quantiles: QuantileEstimator,
    rounds_observed: u64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A fresh, empty store.
    #[must_use]
    pub fn new() -> Self {
        Self {
            workers: Vec::new(),
            seen: 0,
            quantiles: QuantileEstimator::new(512),
            rounds_observed: 0,
        }
    }

    /// Folds one round's consumed arrivals in (EWMA per worker, quantile
    /// samples). Workers missing from `arrivals` were censored by the
    /// round cut, the strongest straggler signal there is:
    /// [`Self::slow_worker_count`] reads it from the round count.
    pub fn observe(&mut self, arrivals: &[ArrivalStamp]) {
        self.rounds_observed += 1;
        for stamp in arrivals {
            self.quantiles.push(stamp.compute_seconds);
            if self.workers.len() <= stamp.worker {
                self.workers.resize(stamp.worker + 1, None);
            }
            let slot = &mut self.workers[stamp.worker];
            if slot.is_none() {
                self.seen += 1;
            }
            let stats = slot.get_or_insert(WorkerStats {
                ewma: stamp.compute_seconds,
                last: stamp.compute_seconds,
                samples: 0,
            });
            if stats.samples > 0 {
                stats.ewma = ALPHA * stamp.compute_seconds + (1.0 - ALPHA) * stats.ewma;
            }
            stats.last = stamp.compute_seconds;
            stats.samples += 1;
        }
    }

    /// One worker's summary, if it ever arrived.
    #[must_use]
    pub fn worker(&self, worker: usize) -> Option<&WorkerStats> {
        self.workers.get(worker)?.as_ref()
    }

    /// Every observed worker's summary, in worker-id order.
    pub fn workers(&self) -> impl Iterator<Item = (usize, &WorkerStats)> {
        self.workers
            .iter()
            .enumerate()
            .filter_map(|(w, s)| Some((w, s.as_ref()?)))
    }

    /// The `q`-quantile of observed compute times (`None` before data).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.quantiles.quantile(q)
    }

    /// Median of the per-worker EWMAs (`None` before data).
    #[must_use]
    pub fn median_ewma(&self) -> Option<f64> {
        let mut ewmas: Vec<f64> = self.workers().map(|(_, s)| s.ewma).collect();
        if ewmas.is_empty() {
            return None;
        }
        let mid = (ewmas.len() - 1) / 2;
        let (_, median, _) =
            ewmas.select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).expect("EWMAs are finite"));
        Some(*median)
    }

    /// The estimated persistent straggler population among `participants`
    /// workers: those whose EWMA exceeds `slow_factor ×` the median EWMA,
    /// plus those censoring hides — workers that arrived in fewer than a
    /// third of observed rounds (including workers never seen at all, whose
    /// every draw fell past the round cut).
    #[must_use]
    pub fn slow_worker_count(&self, slow_factor: f64, participants: usize) -> usize {
        if self.rounds_observed == 0 {
            return 0;
        }
        let never_seen = participants.saturating_sub(self.seen);
        let median = self.median_ewma();
        let observed_slow = self
            .workers()
            .filter(|(_, s)| {
                let ewma_slow = median.is_some_and(|m| s.ewma > slow_factor * m);
                let censored = 3 * s.samples < self.rounds_observed;
                ewma_slow || censored
            })
            .count();
        never_seen + observed_slow
    }

    /// Rounds folded in so far.
    #[must_use]
    pub fn rounds_observed(&self) -> u64 {
        self.rounds_observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(worker: usize, compute: f64) -> ArrivalStamp {
        ArrivalStamp {
            worker,
            compute_seconds: compute,
            at: compute + 0.01,
        }
    }

    #[test]
    fn ewma_tracks_per_worker_history() {
        let mut t = Telemetry::default();
        t.observe(&[stamp(0, 1.0), stamp(1, 2.0)]);
        t.observe(&[stamp(0, 2.0)]);
        let w0 = t.worker(0).unwrap();
        assert_eq!(w0.samples, 2);
        assert!((w0.ewma - (0.3 * 2.0 + 0.7 * 1.0)).abs() < 1e-12);
        assert_eq!(w0.last, 2.0);
        assert_eq!(t.worker(1).unwrap().ewma, 2.0, "first sample seeds EWMA");
        assert!(t.worker(7).is_none());
        assert_eq!(t.rounds_observed(), 2);
    }

    #[test]
    fn quantile_estimator_is_bounded_and_deterministic() {
        let mut q = QuantileEstimator::new(16);
        for i in 0..10_000 {
            q.push(f64::from(i % 100));
        }
        assert!(q.len() <= 16, "decimation bounds the buffer");
        let mid = q.quantile(0.5).unwrap();
        assert!((0.0..=99.0).contains(&mid));
        // Same stream → same estimate.
        let mut q2 = QuantileEstimator::new(16);
        for i in 0..10_000 {
            q2.push(f64::from(i % 100));
        }
        assert_eq!(q.quantile(0.5), q2.quantile(0.5));
        assert!(QuantileEstimator::new(8).quantile(0.5).is_none());
    }

    #[test]
    fn slow_workers_exceed_median_ewma() {
        let mut t = Telemetry::default();
        for _ in 0..3 {
            t.observe(&[stamp(0, 1.0), stamp(1, 1.2), stamp(2, 0.8), stamp(3, 10.0)]);
        }
        assert_eq!(t.slow_worker_count(3.0, 4), 1);
    }

    #[test]
    fn censored_stragglers_are_counted_by_absence() {
        // Worker 3 is so slow the round cut censors it: it never appears
        // in the arrival stream at all, yet must be counted slow.
        let mut t = Telemetry::default();
        for _ in 0..6 {
            t.observe(&[stamp(0, 1.0), stamp(1, 1.2), stamp(2, 0.8)]);
        }
        assert_eq!(t.slow_worker_count(3.0, 4), 1);

        // A worker seen in under a third of rounds is censored-slow too.
        let mut t = Telemetry::default();
        t.observe(&[stamp(0, 1.0), stamp(1, 1.0), stamp(2, 1.0), stamp(3, 1.1)]);
        for _ in 0..8 {
            t.observe(&[stamp(0, 1.0), stamp(1, 1.0), stamp(2, 1.0)]);
        }
        assert_eq!(t.slow_worker_count(3.0, 4), 1);

        // Full participation in a uniform cluster stays fast.
        let mut t = Telemetry::default();
        for _ in 0..6 {
            t.observe(&[stamp(0, 1.0), stamp(1, 1.2), stamp(2, 0.8), stamp(3, 1.1)]);
        }
        assert_eq!(t.slow_worker_count(3.0, 4), 0);
    }

    /// The store before it went dense: a `BTreeMap` keyed by worker id and
    /// a full sort of every EWMA per median — the oracle [`Telemetry`]
    /// must agree with bit for bit.
    struct SortedStore {
        workers: std::collections::BTreeMap<usize, WorkerStats>,
        quantiles: QuantileEstimator,
        rounds_observed: u64,
    }

    impl SortedStore {
        fn new() -> Self {
            Self {
                workers: std::collections::BTreeMap::new(),
                quantiles: QuantileEstimator::new(512),
                rounds_observed: 0,
            }
        }

        fn observe(&mut self, arrivals: &[ArrivalStamp]) {
            self.rounds_observed += 1;
            for stamp in arrivals {
                self.quantiles.push(stamp.compute_seconds);
                let stats = self
                    .workers
                    .entry(stamp.worker)
                    .or_insert_with(|| WorkerStats {
                        ewma: stamp.compute_seconds,
                        last: stamp.compute_seconds,
                        samples: 0,
                    });
                if stats.samples > 0 {
                    stats.ewma = ALPHA * stamp.compute_seconds + (1.0 - ALPHA) * stats.ewma;
                }
                stats.last = stamp.compute_seconds;
                stats.samples += 1;
            }
        }

        fn median_ewma(&self) -> Option<f64> {
            let mut ewmas: Vec<f64> = self.workers.values().map(|s| s.ewma).collect();
            if ewmas.is_empty() {
                return None;
            }
            ewmas.sort_by(|a, b| a.partial_cmp(b).expect("EWMAs are finite"));
            Some(ewmas[(ewmas.len() - 1) / 2])
        }

        fn slow_worker_count(&self, slow_factor: f64, participants: usize) -> usize {
            if self.rounds_observed == 0 {
                return 0;
            }
            let never_seen = participants.saturating_sub(self.workers.len());
            let median = self.median_ewma();
            let observed_slow = self
                .workers
                .values()
                .filter(|s| {
                    let ewma_slow = median.is_some_and(|m| s.ewma > slow_factor * m);
                    let censored = 3 * s.samples < self.rounds_observed;
                    ewma_slow || censored
                })
                .count();
            never_seen + observed_slow
        }

        /// The two acting controllers' decisions, each written out over
        /// this store's queries.
        fn decisions(
            &self,
            controllers: &(QuantileDeadline, AdaptiveK),
            participants: usize,
        ) -> [ControlAction; 2] {
            let (deadline, adaptive) = controllers;
            let deadline = if self.rounds_observed < deadline.warmup {
                ControlAction::Keep
            } else {
                match self.quantiles.quantile(deadline.q) {
                    Some(q) if q > 0.0 => {
                        ControlAction::SetPolicy(ChosenPolicy::deadline(q * deadline.margin))
                    }
                    _ => ControlAction::Keep,
                }
            };
            let adaptive = if self.rounds_observed < adaptive.warmup {
                ControlAction::Keep
            } else {
                match self.slow_worker_count(adaptive.slow_factor, participants) {
                    0 => ControlAction::Revert,
                    slow => ControlAction::SetPolicy(ChosenPolicy::fastest_k(
                        participants.saturating_sub(slow).max(adaptive.min_k),
                    )),
                }
            };
            [deadline, adaptive]
        }
    }

    use crate::controller::{
        AdaptiveK, ChosenPolicy, ControlAction, Controller, QuantileDeadline, RoundTelemetry,
    };
    use proptest::prelude::*;

    /// A worker id: mostly from a small pool (repeats across rounds), some
    /// sparse and far past every other id (the dense store grows holes).
    fn worker_id() -> impl Strategy<Value = usize> {
        prop_oneof![0usize..6, 0usize..40, 500usize..3000]
    }

    /// A compute time, with exact repeats so the median meets ties.
    fn compute_time() -> impl Strategy<Value = f64> {
        prop_oneof![0.0..10.0f64, Just(1.0), Just(0.25), Just(0.0)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn dense_store_matches_the_sorted_oracle(
            rounds in prop::collection::vec(
                (
                    0usize..3100,
                    prop::collection::vec((worker_id(), compute_time()), 0..14),
                ),
                1..30,
            ),
            slow_factor in 1.5..4.0f64,
            warmup in 0u64..4,
        ) {
            let controllers = (
                QuantileDeadline { q: 0.6, margin: 2.0, warmup },
                AdaptiveK { slow_factor, warmup, min_k: 2 },
            );
            let mut dense = Telemetry::new();
            let mut sorted = SortedStore::new();
            let mut ids = vec![0, 7, 5000];
            for (round, (participants, arrivals)) in rounds.iter().enumerate() {
                let arrivals: Vec<ArrivalStamp> =
                    arrivals.iter().map(|&(w, c)| stamp(w, c)).collect();
                dense.observe(&arrivals);
                sorted.observe(&arrivals);
                ids.extend(arrivals.iter().flat_map(|a| [a.worker, a.worker + 1]));

                for &id in &ids {
                    prop_assert_eq!(dense.worker(id), sorted.workers.get(&id), "worker {}", id);
                }
                let dense_all: Vec<(usize, WorkerStats)> =
                    dense.workers().map(|(w, s)| (w, *s)).collect();
                let sorted_all: Vec<(usize, WorkerStats)> =
                    sorted.workers.iter().map(|(&w, s)| (w, *s)).collect();
                prop_assert_eq!(dense_all, sorted_all);
                prop_assert_eq!(
                    dense.median_ewma().map(f64::to_bits),
                    sorted.median_ewma().map(f64::to_bits)
                );
                for factor in [2.0, 3.0, slow_factor] {
                    for p in [*participants, participants + 5] {
                        prop_assert_eq!(
                            dense.slow_worker_count(factor, p),
                            sorted.slow_worker_count(factor, p)
                        );
                    }
                }
                for q in [0.0, 0.5, 0.7, 1.0] {
                    prop_assert_eq!(
                        dense.quantile(q).map(f64::to_bits),
                        sorted.quantiles.quantile(q).map(f64::to_bits)
                    );
                }
                prop_assert_eq!(dense.rounds_observed(), sorted.rounds_observed);

                let seen = RoundTelemetry {
                    round: round as u64,
                    participants: *participants,
                    arrivals: &arrivals,
                    telemetry: &dense,
                };
                let (mut deadline, mut adaptive) = controllers;
                let got = [deadline.observe_round(&seen), adaptive.observe_round(&seen)];
                prop_assert_eq!(got, sorted.decisions(&controllers, *participants));
            }
        }
    }
}
