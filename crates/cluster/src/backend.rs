//! The backend trait all four runtimes implement (virtual, threaded, and
//! `bcc_net`'s bound and loopback TCP masters), the round outcome, and the
//! driver callbacks a run of rounds is steered by. The loop behind
//! [`ClusterBackend::run_rounds`] is shared: see [`crate::round_loop`].

use crate::error::ClusterError;
use crate::metrics::{ArrivalStamp, RoundMetrics, RoundSample};
use crate::policy::AggregatedGradient;
use crate::units::UnitMap;
use bcc_coding::{Coverage, GradientCodingScheme};
use bcc_data::Dataset;
use bcc_optim::Loss;

/// Result of one distributed-GD round.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// The gradient **sum** over all units `Σ_u g_u = Σ_j g_j` (the caller
    /// divides by the example count). Exact under the default
    /// [`WaitDecodable`](crate::policy::WaitDecodable) policy; an
    /// approximate policy's coverage-rescaled estimate otherwise (see
    /// [`Self::exact`]).
    pub gradient_sum: Vec<f64>,
    /// How many coding units back the gradient.
    pub coverage: Coverage,
    /// `true` when `gradient_sum` is the exact decode.
    pub exact: bool,
    /// Timing and load metrics for the round.
    pub metrics: RoundMetrics,
    /// Dataset examples the round's gradient sums over: `Some(count)` on
    /// minibatch rounds (divide `gradient_sum` by this, not the dataset
    /// size), `None` on full-partition rounds.
    pub examples_used: Option<usize>,
    /// The messages the master consumed, sorted by worker id — the
    /// per-worker arrival telemetry adaptive controllers feed on (see
    /// [`RoundEngine::take_arrival_stamps`](crate::engine::RoundEngine::take_arrival_stamps)).
    pub arrivals: Vec<ArrivalStamp>,
}

impl RoundOutcome {
    /// Assembles the outcome from a policy's aggregate and the round's
    /// metrics (full-partition round, no arrival telemetry: the round loop
    /// fills `examples_used` and `arrivals` in).
    #[must_use]
    pub fn new(aggregate: AggregatedGradient, metrics: RoundMetrics) -> Self {
        Self {
            gradient_sum: aggregate.gradient_sum,
            coverage: aggregate.coverage,
            exact: aggregate.exact,
            metrics,
            examples_used: None,
            arrivals: Vec::new(),
        }
    }

    /// The per-round observable sample for this outcome;
    /// `gradient_error` is the caller-computed `‖ĝ − g‖₂` of the mean
    /// gradient (`None` when not measured — exact rounds have none to
    /// measure). `staleness` starts at `0` (synchronous application); the
    /// stale-mode drivers overwrite it with the realized per-update
    /// staleness at merge time.
    #[must_use]
    pub fn sample(&self, gradient_error: Option<f64>) -> RoundSample {
        RoundSample {
            total_time: self.metrics.total_time,
            messages_used: self.metrics.messages_used,
            covered_units: self.coverage.covered_units,
            total_units: self.coverage.total_units,
            exact: self.exact,
            gradient_error,
            staleness: 0,
        }
    }
}

/// Supplies per-round evaluation points to [`ClusterBackend::run_rounds`]
/// and consumes each round's outcome.
///
/// Training loops are inherently sequential — round `t + 1`'s broadcast
/// weights depend on round `t`'s decoded gradient — so batching across
/// rounds has to invert control: the backend keeps its expensive per-run
/// state (worker threads, sockets, packed blocks) alive and calls back into
/// the driver between rounds.
pub trait RoundDriver {
    /// The model broadcast for `round` (0-based within this run).
    fn eval_point(&mut self, round: usize) -> Vec<f64>;

    /// Consumes the finished round's outcome (update the optimizer, record
    /// metrics, …).
    fn consume(&mut self, round: usize, outcome: RoundOutcome);
}

/// The trivial [`RoundDriver`]: broadcasts the same weights every round and
/// collects the outcomes. The fixture for measurements and tests that want
/// raw rounds without an optimizer in the loop.
#[derive(Debug, Clone, Default)]
pub struct FixedPointDriver {
    /// Weights broadcast each round.
    pub weights: Vec<f64>,
    /// Outcomes in round order.
    pub outcomes: Vec<RoundOutcome>,
}

impl FixedPointDriver {
    /// Driver broadcasting `weights` every round.
    #[must_use]
    pub fn new(weights: Vec<f64>) -> Self {
        Self {
            weights,
            outcomes: Vec::new(),
        }
    }
}

impl RoundDriver for FixedPointDriver {
    fn eval_point(&mut self, _round: usize) -> Vec<f64> {
        self.weights.clone()
    }

    fn consume(&mut self, _round: usize, outcome: RoundOutcome) {
        self.outcomes.push(outcome);
    }
}

/// A cluster backend: executes gradient rounds under a coding scheme.
///
/// The scheme codes over [`UnitMap`] units; `data` holds the raw examples.
/// A round (a) computes each worker's unit partial gradients, (b) encodes
/// them with the scheme, (c) delivers messages to the master under the
/// backend's timing model, and (d) stops as soon as the aggregation policy
/// reports completion. All backends run the one loop in
/// [`crate::round_loop`] over the shared [`crate::engine::RoundEngine`] and
/// differ only in how arrivals are produced.
pub trait ClusterBackend {
    /// Runs `rounds` consecutive rounds, keeping the expensive per-run state
    /// (packed worker blocks, worker threads, sockets) alive across them.
    ///
    /// Batching is a throughput optimization, never a protocol change:
    /// one call of `k` rounds uses the same per-round latency streams and
    /// the same engine as `k` calls of one, and a failing round leaves the
    /// round counter advanced by exactly the rounds attempted. On the
    /// virtual backend the outcomes are bit-identical (pinned by tests). On
    /// the real-time backends arrival order is subject to OS scheduling
    /// jitter either way; additionally, a pooled worker that is
    /// mid-computation when the master finishes its round starts the next
    /// round late by the leftover compute time — workers sleep their
    /// emulated delay *before* computing precisely to keep that window to
    /// the cancellation slice in the common case.
    ///
    /// # Errors
    /// Propagates the first round failure ([`ClusterError::Stalled`] when
    /// all live workers report without completing the scheme, plus
    /// coding/wire failures); earlier rounds' outcomes have already been
    /// handed to `driver`.
    fn run_rounds(
        &mut self,
        rounds: usize,
        scheme: &dyn GradientCodingScheme,
        units: &UnitMap,
        data: &Dataset,
        loss: &dyn Loss,
        driver: &mut dyn RoundDriver,
    ) -> Result<(), ClusterError>;

    /// Runs one round at `weights`, returning the decoded gradient sum and
    /// metrics: [`Self::run_rounds`] for a single round.
    ///
    /// # Errors
    /// Exactly [`Self::run_rounds`]'s.
    fn run_round(
        &mut self,
        scheme: &dyn GradientCodingScheme,
        units: &UnitMap,
        data: &Dataset,
        loss: &dyn Loss,
        weights: &[f64],
    ) -> Result<RoundOutcome, ClusterError> {
        let mut single = FixedPointDriver::new(weights.to_vec());
        self.run_rounds(1, scheme, units, data, loss, &mut single)?;
        Ok(single
            .outcomes
            .pop()
            .expect("a successful one-round run consumed one outcome"))
    }

    /// Human-readable backend name for reports.
    fn backend_name(&self) -> &'static str;
}
