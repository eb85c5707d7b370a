//! Pluggable worker-straggling models — the "model zoo".
//!
//! The paper evaluates one latency family: the shift-exponential of §IV
//! eq. (15). Its claim, though — BCC's near-optimality over uncoded,
//! replication, and MDS schemes — is about *distributions of stragglers*,
//! and related work evaluates under heavy-tailed (Bitar et al.), Weibull
//! (Karakus et al.), and persistent/time-correlated models. This module
//! makes the latency family a first-class extension point:
//! [`StragglerModel`] is an object-safe sampler every backend consults for
//! every `(round, worker)` compute time, and the zoo ships five members:
//!
//! | model | tail | state |
//! |---|---|---|
//! | [`ShiftedExpModel`] | exponential (the paper's eq. 15) | none |
//! | [`ParetoModel`] | polynomial (heavy) | none |
//! | [`WeibullModel`] | stretched-exponential | none |
//! | [`BimodalModel`] | exponential × slowdown | fixed slow subset, i.i.d. per round |
//! | [`MarkovModel`] | exponential × slowdown | per-worker 2-state chain across rounds |
//!
//! ## Determinism contract
//!
//! A model's sample is a **pure function** of `(seed, round, worker,
//! load)`. Stateful models (bimodal's per-round slow coin, Markov's
//! cross-round chain) derive their state from dedicated seed streams, so
//! the same draw comes out regardless of which backend asks, in which
//! order, or on which thread. The chain's draw is still a pure function of
//! `(seed, round, worker)`: a per-worker cursor carries it forward (`O(1)`
//! amortised for forward access), and a backward seek or a new seed
//! replays it once from round 0. This is what lets the threaded backend's
//! free-running worker threads and the virtual backend's sorted schedule
//! stay event-for-event identical (`tests/backend_equivalence.rs`),
//! exactly as they do for the baseline model.
//!
//! [`ShiftedExpModel`] routes through the very RNG stream the backends used
//! before this trait existed, so running under it (which every backend does
//! by default) is byte-identical to the pre-trait hardcoded path — pinned by
//! `tests/straggler_models.rs`.

use crate::engine;
use crate::latency::{ClusterProfile, WorkerProfile};
use bcc_stats::dist::{Pareto, Sample, Weibull};
use bcc_stats::rng::{derive_rng, derive_seed};
use rand::{rngs::StdRng, Rng};
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Seed-stream tag for the bimodal model's per-round slow coin.
const BIMODAL_STREAM: u64 = 0xB1B0;
/// Seed-stream tag for the Markov model's per-worker state chain.
const MARKOV_STREAM: u64 = 0x4D4B;

/// A worker-latency model: how long worker `worker` takes to process `load`
/// units in round `round`.
///
/// Object-safe so backends can hold `Arc<dyn StragglerModel>`; `Send +
/// Sync` because the threaded backend samples from its per-worker OS
/// threads. Implementations must be pure functions of their arguments (see
/// the module docs' determinism contract) — all four backends rely on
/// replaying the same draw for the same `(seed, round, worker)`.
pub trait StragglerModel: fmt::Debug + Send + Sync {
    /// Samples the compute time (simulated seconds) for `load` units.
    fn compute_seconds(&self, seed: u64, round: u64, worker: usize, load: usize) -> f64;

    /// Short display name (`"shifted-exp"`, `"pareto"`, …).
    fn name(&self) -> &'static str;

    /// Closed-form mean compute time for `(worker, load)`, when the model
    /// has one (`None` for the Markov chain, whose marginal depends on the
    /// round).
    fn mean_compute_seconds(&self, worker: usize, load: usize) -> Option<f64>;
}

/// The per-`(round, worker)` latency RNG — the one stream every stateless
/// draw comes from, keyed by [`engine::latency_stream`] (the same
/// derivation the backends hardcoded before the trait existed).
fn round_rng(seed: u64, round: u64, worker: usize) -> StdRng {
    derive_rng(seed, engine::latency_stream(round, worker))
}

/// The paper's shift-exponential model (eq. 15), one [`WorkerProfile`] per
/// worker — the baseline member of the zoo and the model every backend
/// runs under by default.
///
/// Draws through the exact RNG stream the backends hardcoded before the
/// [`StragglerModel`] trait existed, so its samples are byte-identical to
/// that path.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftedExpModel {
    workers: Vec<WorkerProfile>,
}

impl ShiftedExpModel {
    /// Wraps the worker profiles of an existing cluster profile.
    #[must_use]
    pub fn from_profile(profile: &ClusterProfile) -> Self {
        Self {
            workers: profile.workers.clone(),
        }
    }

    /// Homogeneous cluster of `n` identical `(mu, a)` workers.
    #[must_use]
    pub fn homogeneous(n: usize, mu: f64, a: f64) -> Self {
        Self {
            workers: vec![WorkerProfile { mu, a }; n],
        }
    }
}

impl StragglerModel for ShiftedExpModel {
    fn compute_seconds(&self, seed: u64, round: u64, worker: usize, load: usize) -> f64 {
        engine::sample_compute_seconds_with(&self.workers[worker], seed, round, worker, load)
    }

    fn name(&self) -> &'static str {
        "shifted-exp"
    }

    fn mean_compute_seconds(&self, worker: usize, load: usize) -> Option<f64> {
        Some(self.workers[worker].mean_compute_time(load))
    }
}

/// Heavy-tailed Pareto compute: `T = load · Pareto(scale, shape)`.
///
/// Support starts at `load·scale` (the deterministic floor), and the
/// polynomial tail produces the rare order-of-magnitude stragglers EC2
/// traces exhibit. `shape ≤ 1` is allowed (every sample is still finite)
/// but has no finite mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoModel {
    dist: Pareto,
}

impl ParetoModel {
    /// Per-unit Pareto with minimum `scale > 0` seconds/unit and tail index
    /// `shape > 0`.
    ///
    /// # Panics
    /// Panics on non-positive or non-finite parameters.
    #[must_use]
    pub fn new(scale: f64, shape: f64) -> Self {
        Self {
            dist: Pareto::new(scale, shape),
        }
    }
}

impl StragglerModel for ParetoModel {
    fn compute_seconds(&self, seed: u64, round: u64, worker: usize, load: usize) -> f64 {
        let mut rng = round_rng(seed, round, worker);
        load as f64 * self.dist.sample(&mut rng)
    }

    fn name(&self) -> &'static str {
        "pareto"
    }

    fn mean_compute_seconds(&self, _worker: usize, load: usize) -> Option<f64> {
        let mean = self.dist.mean();
        mean.is_finite().then_some(load as f64 * mean)
    }
}

/// Weibull compute with a deterministic floor:
/// `T = load · (shift + Weibull(scale, shape))`.
///
/// `shape < 1` gives a stretched-exponential tail (occasional long
/// stalls), `shape ≫ 1` near-deterministic workers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeibullModel {
    dist: Weibull,
    shift: f64,
}

impl WeibullModel {
    /// Per-unit Weibull with scale `scale > 0`, shape `shape > 0`, and
    /// deterministic per-unit shift `shift ≥ 0` (seconds/unit).
    ///
    /// # Panics
    /// Panics on non-positive `scale`/`shape`, or a negative or non-finite
    /// `shift`.
    #[must_use]
    pub fn new(scale: f64, shape: f64, shift: f64) -> Self {
        assert!(
            shift >= 0.0 && shift.is_finite(),
            "Weibull shift must be non-negative and finite, got {shift}"
        );
        Self {
            dist: Weibull::new(scale, shape),
            shift,
        }
    }
}

impl StragglerModel for WeibullModel {
    fn compute_seconds(&self, seed: u64, round: u64, worker: usize, load: usize) -> f64 {
        let mut rng = round_rng(seed, round, worker);
        load as f64 * (self.shift + self.dist.sample(&mut rng))
    }

    fn name(&self) -> &'static str {
        "weibull"
    }

    fn mean_compute_seconds(&self, _worker: usize, load: usize) -> Option<f64> {
        Some(load as f64 * (self.shift + self.dist.mean()))
    }
}

/// Bimodal persistent-straggler model: workers `0..slow_workers` form a
/// fixed slow subset; each round, each of them independently straggles
/// with probability `slow_probability`, multiplying its base
/// shift-exponential draw by `slowdown`.
///
/// This is the "bad node" regime replication schemes are sized for: the
/// *identity* of potential stragglers persists across the whole run (think
/// a degraded VM), only whether the degradation bites varies per round.
/// The base draw uses the same stream as [`ShiftedExpModel`]; the slow
/// coin comes from its own seed stream.
#[derive(Debug, Clone, PartialEq)]
pub struct BimodalModel {
    base: Vec<WorkerProfile>,
    slow_workers: usize,
    slow_probability: f64,
    slowdown: f64,
}

impl BimodalModel {
    /// Homogeneous `(mu, a)` base over `n` workers, with workers
    /// `0..slow_workers` slow with probability `slow_probability` per round
    /// at factor `slowdown`.
    ///
    /// # Panics
    /// Panics when `slow_workers > n`, `slow_probability ∉ [0, 1]`, or
    /// `slowdown` is not positive and finite.
    #[must_use]
    pub fn homogeneous(
        n: usize,
        mu: f64,
        a: f64,
        slow_workers: usize,
        slow_probability: f64,
        slowdown: f64,
    ) -> Self {
        assert!(
            slow_workers <= n,
            "slow subset ({slow_workers}) exceeds the worker count ({n})"
        );
        assert!(
            (0.0..=1.0).contains(&slow_probability),
            "slow_probability must be in [0,1], got {slow_probability}"
        );
        assert!(
            slowdown > 0.0 && slowdown.is_finite(),
            "slowdown must be positive and finite, got {slowdown}"
        );
        Self {
            base: vec![WorkerProfile { mu, a }; n],
            slow_workers,
            slow_probability,
            slowdown,
        }
    }

    /// Whether `worker` straggles in `round` (the per-round slow coin).
    #[must_use]
    pub fn is_slow(&self, seed: u64, round: u64, worker: usize) -> bool {
        if worker >= self.slow_workers {
            return false;
        }
        let mut rng = round_rng(derive_seed(seed, BIMODAL_STREAM), round, worker);
        rng.gen::<f64>() < self.slow_probability
    }
}

impl StragglerModel for BimodalModel {
    fn compute_seconds(&self, seed: u64, round: u64, worker: usize, load: usize) -> f64 {
        let base =
            engine::sample_compute_seconds_with(&self.base[worker], seed, round, worker, load);
        if self.is_slow(seed, round, worker) {
            base * self.slowdown
        } else {
            base
        }
    }

    fn name(&self) -> &'static str {
        "bimodal"
    }

    fn mean_compute_seconds(&self, worker: usize, load: usize) -> Option<f64> {
        let base = self.base[worker].mean_compute_time(load);
        let factor = if worker < self.slow_workers {
            1.0 + self.slow_probability * (self.slowdown - 1.0)
        } else {
            1.0
        };
        Some(base * factor)
    }
}

/// Markov time-correlated model: every worker carries a two-state
/// fast/slow chain across rounds — `P(fast→slow) = p_slow`,
/// `P(slow→fast) = p_recover` — and a slow round multiplies the base
/// shift-exponential draw by `slowdown`.
///
/// This captures *bursty* stragglers (a worker that lagged last round
/// probably lags this one), the regime where per-round i.i.d. analyses are
/// most optimistic. Chains start in the fast state before round 0 and take
/// one transition per round.
///
/// The state at round `t` is the chain's state after `t + 1` transitions
/// on a dedicated `(seed, worker)` stream, so a draw is still a pure
/// function of `(seed, round, worker)` — which keeps the cross-backend
/// determinism contract (the threaded backend's workers sample rounds at
/// their own pace, so the model cannot rely on in-order calls). Each
/// worker's chain is carried forward by a cursor: forward access is `O(1)`
/// amortised, and a backward seek or a new seed replays once from round 0.
/// A clone starts with no cursors.
#[derive(Debug)]
pub struct MarkovModel {
    base: WorkerProfile,
    p_slow: f64,
    p_recover: f64,
    slowdown: f64,
    cursors: Mutex<Vec<Option<ChainCursor>>>,
}

/// One worker's chain position: `slow` is the state after `taken`
/// transitions of `seed`'s chain, and `rng` is positioned at the next one.
#[derive(Debug)]
struct ChainCursor {
    seed: u64,
    taken: u64,
    slow: bool,
    rng: StdRng,
}

impl Clone for MarkovModel {
    fn clone(&self) -> Self {
        Self {
            base: self.base,
            p_slow: self.p_slow,
            p_recover: self.p_recover,
            slowdown: self.slowdown,
            cursors: Mutex::new(Vec::new()),
        }
    }
}

impl MarkovModel {
    /// Homogeneous `(mu, a)` base with transition probabilities `p_slow`
    /// (fast→slow) and `p_recover` (slow→fast) and factor `slowdown`.
    ///
    /// # Panics
    /// Panics when a probability is outside `[0, 1]` or `slowdown` is not
    /// positive and finite.
    #[must_use]
    pub fn new(mu: f64, a: f64, p_slow: f64, p_recover: f64, slowdown: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_slow),
            "p_slow must be in [0,1], got {p_slow}"
        );
        assert!(
            (0.0..=1.0).contains(&p_recover),
            "p_recover must be in [0,1], got {p_recover}"
        );
        assert!(
            slowdown > 0.0 && slowdown.is_finite(),
            "slowdown must be positive and finite, got {slowdown}"
        );
        Self {
            base: WorkerProfile { mu, a },
            p_slow,
            p_recover,
            slowdown,
            cursors: Mutex::new(Vec::new()),
        }
    }

    /// The chain's stationary probability of the slow state,
    /// `p_slow / (p_slow + p_recover)`. The ratio is undefined when both
    /// probabilities are 0; the function returns 0 then, the fraction of
    /// the chain that never leaves fast.
    #[must_use]
    pub fn stationary_slow_fraction(&self) -> f64 {
        let denom = self.p_slow + self.p_recover;
        if denom == 0.0 {
            0.0
        } else {
            self.p_slow / denom
        }
    }

    /// Whether `worker` is in the slow state at `round`: the worker's
    /// cursor steps forward to `round`, restarting from round 0 first when
    /// it belongs to another seed or has already passed `round`.
    #[must_use]
    pub fn is_slow(&self, seed: u64, round: u64, worker: usize) -> bool {
        // A cursor is only ever a consistent tuple or replaced whole, so a
        // lock poisoned by a panicking sampler is safe to keep using.
        let mut cursors = self.cursors.lock().unwrap_or_else(PoisonError::into_inner);
        if cursors.len() <= worker {
            cursors.resize_with(worker + 1, || None);
        }
        let mut cursor = match cursors[worker].take() {
            Some(c) if c.seed == seed && c.taken <= round.saturating_add(1) => c,
            // The chain of `(seed, worker)` before its first transition.
            _ => ChainCursor {
                seed,
                taken: 0,
                slow: false,
                rng: derive_rng(derive_seed(seed, MARKOV_STREAM), worker as u64),
            },
        };
        while cursor.taken <= round {
            let u: f64 = cursor.rng.gen();
            cursor.slow = if cursor.slow {
                u >= self.p_recover
            } else {
                u < self.p_slow
            };
            cursor.taken += 1;
        }
        let slow = cursor.slow;
        cursors[worker] = Some(cursor);
        slow
    }

    /// The reference the cursor must match: the chain replayed from round 0.
    #[cfg(test)]
    fn replayed_is_slow(&self, seed: u64, round: u64, worker: usize) -> bool {
        let mut rng = derive_rng(derive_seed(seed, MARKOV_STREAM), worker as u64);
        let mut slow = false;
        for _ in 0..=round {
            let u: f64 = rng.gen();
            slow = if slow {
                u >= self.p_recover
            } else {
                u < self.p_slow
            };
        }
        slow
    }
}

impl StragglerModel for MarkovModel {
    fn compute_seconds(&self, seed: u64, round: u64, worker: usize, load: usize) -> f64 {
        let base = engine::sample_compute_seconds_with(&self.base, seed, round, worker, load);
        if self.is_slow(seed, round, worker) {
            base * self.slowdown
        } else {
            base
        }
    }

    fn name(&self) -> &'static str {
        "markov"
    }

    fn mean_compute_seconds(&self, _worker: usize, _load: usize) -> Option<f64> {
        // The marginal depends on the round (the chain has not mixed at
        // round 0); no single closed form fits the signature.
        None
    }
}

/// The zoo's members as `(name, one-line description)` pairs — the
/// discovery surface `repro list` prints.
pub const ZOO: [(&str, &str); 5] = [
    (
        "shifted-exp",
        "the paper's shift-exponential (eq. 15): deterministic per-unit shift + exponential tail (default)",
    ),
    (
        "pareto",
        "heavy polynomial tail: rare order-of-magnitude stragglers (Bitar et al.'s regime)",
    ),
    (
        "weibull",
        "stretched-exponential tail between shift-exp and Pareto (Karakus et al.'s regime)",
    ),
    (
        "bimodal",
        "fixed slow subset straggling by a slowdown factor with per-round coin flips",
    ),
    (
        "markov",
        "per-worker fast/slow 2-state chain: time-correlated straggling across rounds",
    ),
];

/// The default model for a profile: the paper's shift-exponential over the
/// profile's per-worker `(mu, a)` parameters — what every backend runs
/// under unless its config names another model.
#[must_use]
pub fn default_model(profile: &ClusterProfile) -> Arc<dyn StragglerModel> {
    Arc::new(ShiftedExpModel::from_profile(profile))
}

/// Seed-stream tag for the WAN link-latency draws.
const WAN_STREAM: u64 = 0x3A17;

/// Quantization steps of the WAN jitter draw (see [`WanLinkModel`]).
const WAN_JITTER_STEPS: u64 = 4;

/// A WAN overlay on any straggler model: per-`(round, worker)` link
/// latency added on top of the wrapped model's compute time.
///
/// `delay = inner + latency + jitter · (k / (S-1))` with `k ∈ 0..S`
/// drawn uniformly from a dedicated seed stream (`S = 4` quantization
/// steps). The draw is a pure function of `(seed, round, worker)`, so it
/// obeys the module's determinism contract; the quantization keeps the
/// jitter values coarse relative to the staircase profiles the gateable
/// benchmarks use, preserving unambiguous real-time arrival order.
///
/// The networked master ships the *combined* delay in the round frame and
/// the worker sleeps it over a real socket — which is exactly per-link
/// latency injection — while a virtual twin wrapped with the same model
/// replays the identical arrival schedule, keeping WAN rows bit-comparable
/// across backends.
#[derive(Debug, Clone)]
pub struct WanLinkModel {
    inner: Arc<dyn StragglerModel>,
    latency: f64,
    jitter: f64,
}

impl WanLinkModel {
    /// Wraps `inner`, adding `latency` fixed plus up to `jitter` of
    /// quantized per-`(round, worker)` variation (simulated seconds).
    ///
    /// # Panics
    /// Panics on negative or non-finite parameters.
    #[must_use]
    pub fn wrap(inner: Arc<dyn StragglerModel>, latency: f64, jitter: f64) -> Self {
        assert!(
            latency >= 0.0 && latency.is_finite() && jitter >= 0.0 && jitter.is_finite(),
            "WAN latency/jitter must be finite and non-negative"
        );
        Self {
            inner,
            latency,
            jitter,
        }
    }

    /// The deterministic link delay (simulated seconds) for one
    /// `(round, worker)` link, excluding the wrapped compute time.
    #[must_use]
    pub fn link_delay(&self, seed: u64, round: u64, worker: usize) -> f64 {
        if self.jitter == 0.0 {
            return self.latency;
        }
        let mut rng = round_rng(derive_seed(seed, WAN_STREAM), round, worker);
        let step = rng.gen_range(0..WAN_JITTER_STEPS);
        self.latency + self.jitter * step as f64 / (WAN_JITTER_STEPS - 1) as f64
    }
}

impl StragglerModel for WanLinkModel {
    fn compute_seconds(&self, seed: u64, round: u64, worker: usize, load: usize) -> f64 {
        self.inner.compute_seconds(seed, round, worker, load) + self.link_delay(seed, round, worker)
    }

    fn name(&self) -> &'static str {
        "wan"
    }

    fn mean_compute_seconds(&self, worker: usize, load: usize) -> Option<f64> {
        self.inner
            .mean_compute_seconds(worker, load)
            .map(|m| m + self.latency + self.jitter / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{ClusterProfile, CommModel};
    use bcc_stats::Summary;
    use proptest::prelude::*;

    fn profile(n: usize) -> ClusterProfile {
        ClusterProfile::homogeneous(
            n,
            2.0,
            0.01,
            CommModel {
                per_message_overhead: 0.0,
                per_unit: 0.0,
            },
        )
    }

    #[test]
    fn shifted_exp_model_is_byte_identical_to_the_legacy_stream() {
        let p = profile(4);
        let model = ShiftedExpModel::from_profile(&p);
        for round in 0..20 {
            for worker in 0..4 {
                let legacy = engine::sample_compute_seconds(&p, 9, round, worker, 5);
                let trait_draw = model.compute_seconds(9, round, worker, 5);
                assert_eq!(legacy.to_bits(), trait_draw.to_bits());
            }
        }
    }

    #[test]
    fn every_model_is_deterministic_in_its_key() {
        let models: Vec<Box<dyn StragglerModel>> = vec![
            Box::new(ShiftedExpModel::homogeneous(8, 2.0, 0.01)),
            Box::new(ParetoModel::new(0.01, 2.5)),
            Box::new(WeibullModel::new(0.01, 0.8, 0.005)),
            Box::new(BimodalModel::homogeneous(8, 2.0, 0.01, 2, 0.5, 10.0)),
            Box::new(MarkovModel::new(2.0, 0.01, 0.2, 0.4, 10.0)),
        ];
        for m in &models {
            let a = m.compute_seconds(7, 3, 1, 4);
            let b = m.compute_seconds(7, 3, 1, 4);
            assert_eq!(a.to_bits(), b.to_bits(), "{} must replay", m.name());
            assert!(a > 0.0 && a.is_finite());
            // Different rounds and workers decorrelate.
            assert_ne!(a, m.compute_seconds(7, 4, 1, 4), "{}", m.name());
            assert_ne!(a, m.compute_seconds(7, 3, 2, 4), "{}", m.name());
        }
    }

    #[test]
    fn pareto_and_weibull_means_match_empirics() {
        let pareto = ParetoModel::new(0.01, 3.0);
        let weibull = WeibullModel::new(0.02, 2.0, 0.005);
        for (name, m) in [
            ("pareto", &pareto as &dyn StragglerModel),
            ("weibull", &weibull),
        ] {
            let mean = m.mean_compute_seconds(0, 6).unwrap();
            let mut s = Summary::new();
            for round in 0..60_000 {
                s.push(m.compute_seconds(11, round, 0, 6));
            }
            assert!(
                (s.mean() - mean).abs() / mean < 0.02,
                "{name}: empirical {} vs closed-form {mean}",
                s.mean()
            );
        }
    }

    #[test]
    fn pareto_without_finite_mean_reports_none() {
        assert_eq!(ParetoModel::new(0.01, 1.0).mean_compute_seconds(0, 3), None);
    }

    #[test]
    fn bimodal_slow_subset_is_fixed_and_coin_matches_probability() {
        let m = BimodalModel::homogeneous(10, 2.0, 0.01, 3, 0.3, 10.0);
        // Fast workers never straggle.
        for round in 0..200 {
            for worker in 3..10 {
                assert!(!m.is_slow(5, round, worker));
            }
        }
        // Slow-set coin frequency ≈ p.
        let mut hits = 0u32;
        let rounds = 60_000u64;
        for round in 0..rounds {
            if m.is_slow(5, round, 0) {
                hits += 1;
            }
        }
        let freq = f64::from(hits) / rounds as f64;
        assert!((freq - 0.3).abs() < 0.01, "slow frequency {freq}");
        // Mean folds the mixture in: base·(1 + p·(slowdown−1)).
        let base = m.base[0].mean_compute_time(4);
        assert!((m.mean_compute_seconds(0, 4).unwrap() - base * 3.7).abs() < 1e-12);
        assert!((m.mean_compute_seconds(9, 4).unwrap() - base).abs() < 1e-12);
    }

    #[test]
    fn bimodal_mixture_mean_matches_empirics() {
        let m = BimodalModel::homogeneous(4, 2.0, 0.01, 1, 0.25, 8.0);
        let mean = m.mean_compute_seconds(0, 5).unwrap();
        let mut s = Summary::new();
        for round in 0..60_000 {
            s.push(m.compute_seconds(13, round, 0, 5));
        }
        assert!(
            (s.mean() - mean).abs() / mean < 0.02,
            "empirical {} vs {mean}",
            s.mean()
        );
    }

    #[test]
    fn markov_state_carries_across_rounds() {
        // With p_recover = 0 a worker that ever turns slow stays slow.
        let absorbing = MarkovModel::new(2.0, 0.01, 0.3, 0.0, 10.0);
        let mut seen_slow = false;
        for round in 0..200 {
            let slow = absorbing.is_slow(3, round, 0);
            if seen_slow {
                assert!(slow, "absorbing slow state must persist (round {round})");
            }
            seen_slow |= slow;
        }
        assert!(seen_slow, "p_slow = 0.3 over 200 rounds must trigger");
    }

    #[test]
    fn markov_chain_is_sticky() {
        // P(slow_t | slow_{t-1}) must be ≈ 1 − p_recover ≫ stationary π.
        let m = MarkovModel::new(2.0, 0.01, 0.05, 0.2, 10.0);
        let (mut slow_after_slow, mut slow_rounds) = (0u32, 0u32);
        for worker in 0..40 {
            for round in 0..1500 {
                if m.is_slow(17, round, worker) {
                    slow_rounds += 1;
                    if m.is_slow(17, round + 1, worker) {
                        slow_after_slow += 1;
                    }
                }
            }
        }
        let sticky = f64::from(slow_after_slow) / f64::from(slow_rounds);
        assert!(
            (sticky - 0.8).abs() < 0.03,
            "P(slow|slow) = {sticky}, want 1 − p_recover = 0.8"
        );
        assert!((m.stationary_slow_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn markov_long_run_frequency_approaches_stationary() {
        let m = MarkovModel::new(2.0, 0.01, 0.1, 0.3, 10.0);
        let mut slow = 0u32;
        let rounds = 2000u64;
        let workers = 30usize;
        for worker in 0..workers {
            for round in 0..rounds {
                if m.is_slow(23, round, worker) {
                    slow += 1;
                }
            }
        }
        let freq = f64::from(slow) / (rounds * workers as u64) as f64;
        assert!(
            (freq - m.stationary_slow_fraction()).abs() < 0.02,
            "long-run slow fraction {freq} vs stationary {}",
            m.stationary_slow_fraction()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn markov_cursor_matches_replay_in_any_access_order(
            ops in prop::collection::vec((0u8..8, 0u64..1000), 1..150),
        ) {
            let seeds = [23, 24];
            let oracle = MarkovModel::new(2.0, 0.01, 0.3, 0.4, 10.0);
            let mut models = vec![oracle.clone()];
            let (mut seed, mut worker, mut workers_seen, mut round) = (seeds[0], 0, 1, 0);
            for (kind, x) in ops {
                match kind {
                    // Forward steps (1–3 rounds), and the same round twice.
                    0 | 1 => round += 1 + x % 3,
                    2 => {}
                    // Backward seeks: to round 0 and to mid-run.
                    3 => round = 0,
                    4 => round = x % (round + 1),
                    // Interleaved workers: a seen one, or one beyond them all.
                    5 => worker = x as usize % workers_seen,
                    6 => {
                        worker = workers_seen + x as usize % 4;
                        workers_seen = worker + 1;
                    }
                    // Two interleaved seeds, and a clone taken mid-run.
                    _ if x % 2 == 0 => seed = seeds[(x / 2 % 2) as usize],
                    _ => models.push(models[x as usize % models.len()].clone()),
                }
                let want = oracle.replayed_is_slow(seed, round, worker);
                for (i, m) in models.iter().enumerate() {
                    prop_assert_eq!(
                        m.is_slow(seed, round, worker),
                        want,
                        "model {i}: seed {seed}, round {round}, worker {worker}"
                    );
                }
            }
        }
    }

    #[test]
    fn markov_cursor_matches_replay_across_threads() {
        let (seed, workers, rounds) = (31, 6usize, 120u64);
        let model = Arc::new(MarkovModel::new(2.0, 0.01, 0.2, 0.3, 10.0));
        let want: Vec<Vec<bool>> = (0..workers)
            .map(|w| {
                (0..rounds)
                    .map(|r| model.replayed_is_slow(seed, r, w))
                    .collect()
            })
            .collect();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (model, want) = (Arc::clone(&model), &want);
                s.spawn(move || {
                    // Every thread walks every worker forward from its own
                    // offset, so the threads overtake and rewind each
                    // other's cursors.
                    for step in 0..2 * rounds {
                        let worker = ((step + t) % workers as u64) as usize;
                        let round = (step / 2 + 7 * t) % rounds;
                        assert_eq!(
                            model.is_slow(seed, round, worker),
                            want[worker][round as usize],
                            "thread {t}: round {round}, worker {worker}"
                        );
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "slow subset")]
    fn bimodal_rejects_oversized_slow_set() {
        let _ = BimodalModel::homogeneous(4, 1.0, 0.0, 5, 0.5, 2.0);
    }

    #[test]
    #[should_panic(expected = "p_slow")]
    fn markov_rejects_bad_probability() {
        let _ = MarkovModel::new(1.0, 0.0, 1.5, 0.5, 2.0);
    }
}
