//! Aggregation policies: *when is a round done, and what gradient does the
//! master return?*
//!
//! The paper's master stops the moment the scheme's completion condition
//! holds and decodes the **exact** gradient sum — one point in a larger
//! design space. Stochastic Gradient Coding (Bitar et al.) and the
//! approximate schemes in Karakus et al. stop after the *fastest* workers
//! and train on a partial, rescaled gradient; deadline-driven systems cut a
//! round off at a time budget and take whatever coverage exists. An
//! [`AggregationPolicy`] makes that choice a first-class, user-extensible
//! object the [`RoundEngine`](crate::engine::RoundEngine) consults per
//! arrival:
//!
//! * [`AggregationPolicy::on_arrival`] — after each delivered message is
//!   fed to the decoder, decide [`RoundVerdict::Continue`] or
//!   [`RoundVerdict::Complete`];
//! * [`AggregationPolicy::complete_on_exhausted`] — whether "every live
//!   worker reported" finishes the round instead of stalling it;
//! * [`AggregationPolicy::finish`] — own the round's gradient: exact
//!   decode, coverage-rescaled partial sum, whatever the policy means.
//!
//! Four built-ins ship:
//!
//! | policy | stops | gradient |
//! |---|---|---|
//! | [`WaitDecodable`] | decoder completion (legacy default) | exact decode |
//! | [`FastestK`] | after `k` arrivals | partial sum × `m / covered` |
//! | [`Deadline`] | first arrival at/after the cutoff | exact if decodable, else rescaled partial |
//! | [`BestEffortAll`] | every live worker reported | exact if decodable, else rescaled partial |
//!
//! The coverage rescale multiplies the partial sum over the covered units
//! by `total_units / covered_units`. When every message covers the same
//! number of units and arrival order is exchangeable (the uncoded scheme
//! under i.i.d. compute times), this is inverse-probability weighting, so
//! the estimate is **unbiased in expectation** over arrival orders — pinned
//! by the proptest in `tests/policy_unbiased.rs`.
//!
//! `WaitDecodable` is installed by default everywhere, and its round
//! trajectory is byte-identical to the pre-policy engine (same decoder
//! feeding order, same completion arrival, same metrics) — pinned by
//! `tests/policy_equivalence.rs` and the checked-in
//! `BENCH_round_engine.json` replay.

use crate::decode::DecodePool;
use crate::error::ClusterError;
use bcc_coding::{Coverage, Decoder};
use std::fmt;
use std::sync::Arc;

/// The per-arrival decision an [`AggregationPolicy`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundVerdict {
    /// Keep pulling arrivals.
    Continue,
    /// The round is done; the engine stops consuming and calls
    /// [`AggregationPolicy::finish`].
    Complete,
}

/// The gradient a policy produced for one round.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatedGradient {
    /// The gradient **sum** the master hands to the optimizer (exact
    /// `Σ_j g_j`, or the policy's estimate of it).
    pub gradient_sum: Vec<f64>,
    /// How many coding units back the sum.
    pub coverage: Coverage,
    /// `true` when the sum is the exact decode (full coverage through the
    /// scheme's decoder), `false` for any estimate.
    pub exact: bool,
}

/// What a policy sees when consulted: the read-only decoder state plus the
/// round clock.
pub struct RoundView<'a> {
    /// The scheme's decoder after the latest arrival was fed.
    pub decoder: &'a dyn Decoder,
    /// Live workers that can still send this round.
    pub live_participants: usize,
    /// Backend clock (simulated seconds since round start) of the latest
    /// delivery; `0.0` before any.
    pub now: f64,
    /// Thread budget for decode/aggregate folds; policies should decode
    /// through it ([`DecodePool::decode`]/[`DecodePool::decode_partial`])
    /// so large rounds aggregate in parallel — bit-identical to the serial
    /// path by the [`crate::decode`] determinism contract.
    pub pool: DecodePool,
}

impl RoundView<'_> {
    /// Messages consumed so far (the empirical `|W|`).
    #[must_use]
    pub fn messages(&self) -> usize {
        self.decoder.messages_received()
    }

    /// Unit coverage so far.
    #[must_use]
    pub fn coverage(&self) -> Coverage {
        self.decoder.coverage()
    }
}

impl fmt::Debug for RoundView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoundView")
            .field("messages", &self.messages())
            .field("coverage", &self.coverage())
            .field("live_participants", &self.live_participants)
            .field("now", &self.now)
            .finish()
    }
}

/// When is a round done, and what gradient does it return?
///
/// Object-safe (backends hold `Arc<dyn AggregationPolicy>`), `Send + Sync`
/// because the threaded master consults it from its round loop.
/// Implementations must be deterministic functions of the view — all
/// backends rely on replaying identical verdicts for identical arrival
/// sequences (the cross-backend equivalence contract).
pub trait AggregationPolicy: fmt::Debug + Send + Sync {
    /// Policy name for reports and spec files.
    fn name(&self) -> &'static str;

    /// Consulted after each arrival has been fed to the decoder.
    fn on_arrival(&self, view: &RoundView<'_>) -> RoundVerdict;

    /// Whether source exhaustion (every live worker reported, or a receive
    /// timeout fired) completes the round with the coverage in hand instead
    /// of stalling it. Exhaustion with **zero** messages always stalls —
    /// there is no gradient to return. Default: stall, the legacy exact
    /// behaviour.
    fn complete_on_exhausted(&self) -> bool {
        false
    }

    /// Produces the round's gradient once the engine stopped consuming.
    ///
    /// # Errors
    /// [`ClusterError::Coding`] when the decoder cannot produce what the
    /// policy needs (e.g. a partial readout from a linear-combination code
    /// before its threshold).
    fn finish(&self, view: &RoundView<'_>) -> Result<AggregatedGradient, ClusterError>;
}

/// Exact decode when possible, coverage-rescaled partial sum otherwise —
/// the `finish` shared by every approximate built-in.
fn finish_rescaled(view: &RoundView<'_>) -> Result<AggregatedGradient, ClusterError> {
    if view.decoder.is_complete() {
        return Ok(AggregatedGradient {
            gradient_sum: view.pool.decode(view.decoder).map_err(ClusterError::from)?,
            coverage: view.coverage(),
            exact: true,
        });
    }
    let coverage = view.coverage();
    let mut gradient_sum = view
        .pool
        .decode_partial(view.decoder)
        .map_err(ClusterError::from)?;
    if coverage.covered_units == 0 {
        return Err(ClusterError::Stalled {
            received: view.messages(),
            reason: "round completed with zero unit coverage".into(),
        });
    }
    let scale = coverage.total_units as f64 / coverage.covered_units as f64;
    bcc_linalg::vec_ops::scale(scale, &mut gradient_sum);
    Ok(AggregatedGradient {
        gradient_sum,
        coverage,
        exact: false,
    })
}

/// The legacy default: pull arrivals until the scheme's decoder reports
/// decodable, then decode exactly (the paper's §II eq. (10) master).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitDecodable;

/// A fresh handle to the default policy ([`WaitDecodable`]) — what every
/// backend runs under unless its config names another.
#[must_use]
pub fn default_policy() -> Arc<dyn AggregationPolicy> {
    Arc::new(WaitDecodable)
}

impl AggregationPolicy for WaitDecodable {
    fn name(&self) -> &'static str {
        "wait-decodable"
    }

    fn on_arrival(&self, view: &RoundView<'_>) -> RoundVerdict {
        if view.decoder.is_complete() {
            RoundVerdict::Complete
        } else {
            RoundVerdict::Continue
        }
    }

    fn finish(&self, view: &RoundView<'_>) -> Result<AggregatedGradient, ClusterError> {
        Ok(AggregatedGradient {
            gradient_sum: view.pool.decode(view.decoder).map_err(ClusterError::from)?,
            coverage: view.coverage(),
            exact: true,
        })
    }
}

/// Stop after the fastest `k` arrivals (fewer if the source exhausts
/// first) and return the coverage-rescaled partial gradient — the
/// Stochastic-Gradient-Coding stopping rule.
///
/// Strictly `k` arrivals: the master does not stop earlier even when the
/// decoder completes before `k` (the extra messages only improve
/// coverage), so the gradient is exact whenever completion happened on the
/// way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastestK {
    /// Arrivals to wait for (`≥ 1`).
    pub k: usize,
}

impl FastestK {
    /// Policy waiting for the fastest `k` workers.
    ///
    /// # Panics
    /// Panics when `k == 0` (a round with no messages has no gradient).
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "FastestK needs k >= 1");
        Self { k }
    }
}

impl AggregationPolicy for FastestK {
    fn name(&self) -> &'static str {
        "fastest-k"
    }

    fn on_arrival(&self, view: &RoundView<'_>) -> RoundVerdict {
        if view.messages() >= self.k {
            RoundVerdict::Complete
        } else {
            RoundVerdict::Continue
        }
    }

    fn complete_on_exhausted(&self) -> bool {
        true
    }

    fn finish(&self, view: &RoundView<'_>) -> Result<AggregatedGradient, ClusterError> {
        finish_rescaled(view)
    }
}

/// Cut the round off at a simulated-time budget: the master completes on
/// the first arrival delivered at or after `deadline` seconds (it observes
/// the clock through deliveries), or exactly like [`WaitDecodable`] when
/// the decoder completes earlier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deadline {
    /// Round time budget in backend (simulated) seconds.
    pub seconds: f64,
}

impl Deadline {
    /// Policy with a round budget of `seconds` simulated seconds.
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite budget.
    #[must_use]
    pub fn new(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds > 0.0,
            "Deadline needs a positive finite budget"
        );
        Self { seconds }
    }
}

impl AggregationPolicy for Deadline {
    fn name(&self) -> &'static str {
        "deadline"
    }

    fn on_arrival(&self, view: &RoundView<'_>) -> RoundVerdict {
        if view.decoder.is_complete() || view.now >= self.seconds {
            RoundVerdict::Complete
        } else {
            RoundVerdict::Continue
        }
    }

    fn complete_on_exhausted(&self) -> bool {
        true
    }

    fn finish(&self, view: &RoundView<'_>) -> Result<AggregatedGradient, ClusterError> {
        finish_rescaled(view)
    }
}

/// Drain every live worker before finishing — the oracle baseline that
/// pays the full straggler tail for the best possible coverage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BestEffortAll;

impl AggregationPolicy for BestEffortAll {
    fn name(&self) -> &'static str {
        "best-effort-all"
    }

    fn on_arrival(&self, view: &RoundView<'_>) -> RoundVerdict {
        let _ = view;
        RoundVerdict::Continue
    }

    fn complete_on_exhausted(&self) -> bool {
        true
    }

    fn finish(&self, view: &RoundView<'_>) -> Result<AggregatedGradient, ClusterError> {
        finish_rescaled(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_coding::scheme::test_support::{random_gradients, total_sum, worker_partials};
    use bcc_coding::{GradientCodingScheme, UncodedScheme};

    fn fed_decoder<'a>(
        scheme: &'a UncodedScheme,
        grads: &[Vec<f64>],
        workers: &[usize],
    ) -> Box<dyn Decoder + 'a> {
        let mut dec = scheme.decoder();
        for &w in workers {
            let partials = worker_partials(scheme.placement(), w, grads);
            dec.receive(w, scheme.encode(w, &partials).unwrap())
                .unwrap();
        }
        dec
    }

    #[test]
    fn wait_decodable_completes_only_on_decoder() {
        let scheme = UncodedScheme::new(4, 4);
        let grads = random_gradients(4, 3, 1);
        let dec = fed_decoder(&scheme, &grads, &[0, 1]);
        let view = RoundView {
            decoder: &*dec,
            live_participants: 4,
            now: 0.5,
            pool: DecodePool::threads(2),
        };
        assert_eq!(WaitDecodable.on_arrival(&view), RoundVerdict::Continue);
        assert!(!WaitDecodable.complete_on_exhausted());
        let dec = fed_decoder(&scheme, &grads, &[0, 1, 2, 3]);
        let view = RoundView {
            decoder: &*dec,
            live_participants: 4,
            now: 0.9,
            pool: DecodePool::threads(2),
        };
        assert_eq!(WaitDecodable.on_arrival(&view), RoundVerdict::Complete);
        let agg = WaitDecodable.finish(&view).unwrap();
        assert!(agg.exact);
        assert!(agg.coverage.is_full());
        assert_eq!(agg.gradient_sum, total_sum(&grads));
    }

    #[test]
    fn fastest_k_rescales_partial_coverage() {
        // 4 equal shards of 2 units; 2 of 4 arrivals → scale = 8/4 = 2.
        let scheme = UncodedScheme::new(8, 4);
        let grads = random_gradients(8, 3, 2);
        let dec = fed_decoder(&scheme, &grads, &[1, 3]);
        let view = RoundView {
            decoder: &*dec,
            live_participants: 4,
            now: 0.2,
            pool: DecodePool::threads(2),
        };
        let policy = FastestK::new(2);
        assert_eq!(policy.on_arrival(&view), RoundVerdict::Complete);
        let agg = policy.finish(&view).unwrap();
        assert!(!agg.exact);
        assert_eq!(agg.coverage, Coverage::new(4, 8));
        let shard_sum = |w: usize| {
            let parts = worker_partials(scheme.placement(), w, &grads);
            bcc_linalg::vec_ops::sum_vectors(parts.iter().map(Vec::as_slice)).unwrap()
        };
        let mut expect = shard_sum(1);
        for (a, b) in expect.iter_mut().zip(shard_sum(3)) {
            *a = (*a + b) * 2.0;
        }
        assert_eq!(agg.gradient_sum, expect);
    }

    #[test]
    fn deadline_completes_at_cutoff_or_decodable() {
        let scheme = UncodedScheme::new(4, 4);
        let grads = random_gradients(4, 2, 3);
        let dec = fed_decoder(&scheme, &grads, &[0]);
        let policy = Deadline::new(0.5);
        let early = RoundView {
            decoder: &*dec,
            live_participants: 4,
            now: 0.2,
            pool: DecodePool::threads(2),
        };
        assert_eq!(policy.on_arrival(&early), RoundVerdict::Continue);
        let late = RoundView {
            decoder: &*dec,
            live_participants: 4,
            now: 0.5,
            pool: DecodePool::threads(2),
        };
        assert_eq!(policy.on_arrival(&late), RoundVerdict::Complete);
        let agg = policy.finish(&late).unwrap();
        assert!(!agg.exact);
        assert_eq!(agg.coverage, Coverage::new(1, 4));
    }

    #[test]
    fn best_effort_all_never_completes_on_arrival() {
        let scheme = UncodedScheme::new(4, 4);
        let grads = random_gradients(4, 2, 4);
        let dec = fed_decoder(&scheme, &grads, &[0, 1, 2, 3]);
        let view = RoundView {
            decoder: &*dec,
            live_participants: 4,
            now: 1.0,
            pool: DecodePool::threads(2),
        };
        assert_eq!(BestEffortAll.on_arrival(&view), RoundVerdict::Continue);
        assert!(BestEffortAll.complete_on_exhausted());
        // Exhaustion with full coverage decodes exactly.
        let agg = BestEffortAll.finish(&view).unwrap();
        assert!(agg.exact);
        assert_eq!(agg.gradient_sum, total_sum(&grads));
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn fastest_zero_rejected() {
        let _ = FastestK::new(0);
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn non_positive_deadline_rejected() {
        let _ = Deadline::new(0.0);
    }
}
