//! The stale-mode driver: how SSP and ASGD reorder the round loop.
//!
//! The synchronous driver ([`SyncDriver`](crate::driver::SyncDriver))
//! blocks on every round: broadcast, wait for the scheme's completion
//! condition, apply, repeat. The stale modes instead let workers run ahead
//! of the master's applied model. Both reuse the existing backends
//! unchanged: [`StaleDriver`] drives the backend's ordinary sequential
//! round loop, but re-times it. The driver replicates each worker's
//! compute schedule from the same `(seed, round, worker)` latency stream
//! the backend samples, tracks when each worker's previous round actually
//! finishes on the overlapped timeline, and publishes the difference as a
//! per-`(round, worker)` offset through a shared [`OffsetTable`]. The
//! backend's straggler model is wrapped in an
//! [`OffsetModel`](bcc_cluster::OffsetModel) that adds those offsets, so
//! the gradients, coverage, and message counts it produces are exactly
//! what the overlapped execution would deliver — on *any* backend, since
//! all of them sample master-side from the same stream.
//!
//! Deliberate timing simplifications (documented, shared with the
//! backends' own conventions): the master's receive port is serialized
//! within a round but not across overlapping rounds; a straggler always
//! finishes the round it started (no cancellation); a worker whose units
//! all fall outside a minibatch sends instantly and occupies no compute
//! time.

use crate::driver::{empirical_risk_dyn, exact_mean_gradient, gradient_error_norm, RunOutput};
use bcc_cluster::{
    engine, Minibatch, OffsetTable, RoundDriver, RoundOutcome, RoundSample, RunMetrics,
    StragglerModel,
};
use bcc_coding::GradientCodingScheme;
use bcc_data::Dataset;
use bcc_linalg::vec_ops;
use bcc_optim::{ConvergenceTrace, Loss, Optimizer};
use std::collections::HashSet;
use std::sync::Arc;

/// A decoded update the backend delivered but the stale timeline has not
/// applied yet.
struct PendingUpdate {
    round: usize,
    /// Absolute simulated time at which this update merges into the model.
    applied_at: f64,
    /// The round's **mean** gradient (sum already divided by the example
    /// count, minibatch-aware).
    mean_gradient: Vec<f64>,
    /// Sample skeleton from the backend; `staleness`/`gradient_error` are
    /// filled at merge time.
    sample: RoundSample,
    /// How many updates had merged when this round's model was broadcast
    /// (`τ_u`) — realized staleness is the merge count at apply minus this.
    merges_at_broadcast: usize,
}

/// [`RoundDriver`] implementing bounded-staleness (SSP) and fully
/// asynchronous (ASGD) training over an unmodified sequential backend.
///
/// Per round `u` on the overlapped timeline:
///
/// - broadcast time `B_u = max(gate, min_w F_w)` where `F_w` is worker
///   `w`'s busy-until clock and the gate is `A_{u-1-s}` under SSP's bound
///   `s` (a worker may run at most `s` rounds ahead of the slowest applied
///   update) and absent under ASGD;
/// - every pending update with `applied_at ≤ B_u` merges first, in
///   `(applied_at, round)` order, so the broadcast model reflects exactly
///   the updates that have landed by `B_u`;
/// - each participant's backlog `max(0, F_w − B_u)` is published as its
///   offset for round `u`, and `F_w` advances by its fresh compute draw;
/// - completion `C_u = B_u +` the backend round's `total_time` (which
///   already includes the offsets); SSP applies in round order
///   (`A_u = max(C_u, A_{u-1})`), ASGD at completion (`A_u = C_u`).
///
/// The timeline is a pure function of the master seed, so replays are
/// byte-identical on every backend and at any thread count.
pub(crate) struct StaleDriver<'a> {
    optimizer: &'a mut dyn Optimizer,
    data: &'a Dataset,
    loss: &'a dyn Loss,
    record_risk: bool,
    /// `Some(s)` gates round starts on application progress (SSP); `None`
    /// never gates (ASGD).
    staleness_bound: Option<usize>,
    /// The *inner* straggler model (no offsets) — the driver re-samples
    /// the backend's own draws to replicate worker schedules.
    model: Arc<dyn StragglerModel>,
    backend_seed: u64,
    /// Shared with the backend's [`OffsetModel`](bcc_cluster::OffsetModel)
    /// wrapper; written in [`Self::eval_point`] before the backend samples.
    offsets: OffsetTable,
    participants: Vec<usize>,
    /// Unit ids each participant holds (minibatch load recomputation).
    worker_units: Vec<Vec<usize>>,
    full_loads: Vec<usize>,
    minibatch: Option<Minibatch>,
    num_units: usize,
    /// `F_w`: absolute time until which each participant's compute is busy.
    busy_until: Vec<f64>,
    /// `B_u` per round.
    broadcasts: Vec<f64>,
    /// Merge count at each broadcast (`τ_u`).
    broadcast_merges: Vec<usize>,
    /// `A_u` per round (SSP-clamped to round order).
    applies: Vec<f64>,
    pending: Vec<PendingUpdate>,
    /// Updates applied so far.
    merged: usize,
    trace: ConvergenceTrace,
    metrics: RunMetrics,
    /// Indexed by round; filled when the round's update merges.
    samples: Vec<Option<RoundSample>>,
    /// `max A_u` — the run's simulated wallclock.
    makespan: f64,
}

impl<'a> StaleDriver<'a> {
    /// Builds the driver for a **fresh** backend (the offset table keys on
    /// the backend's internal round counter, which must start at zero).
    #[allow(clippy::too_many_arguments)] // one-shot wiring, one arg per collaborator
    pub(crate) fn new(
        optimizer: &'a mut dyn Optimizer,
        data: &'a Dataset,
        loss: &'a dyn Loss,
        record_risk: bool,
        staleness_bound: Option<usize>,
        model: Arc<dyn StragglerModel>,
        backend_seed: u64,
        offsets: OffsetTable,
        scheme: &dyn GradientCodingScheme,
        minibatch: Option<Minibatch>,
        iterations: usize,
    ) -> Self {
        let participants = engine::participants(scheme, &HashSet::new());
        let placement = scheme.placement();
        let worker_units: Vec<Vec<usize>> = participants
            .iter()
            .map(|&w| placement.worker_examples(w).to_vec())
            .collect();
        let full_loads: Vec<usize> = participants.iter().map(|&w| placement.load_of(w)).collect();
        let busy_until = vec![0.0; participants.len()];
        Self {
            optimizer,
            data,
            loss,
            record_risk,
            staleness_bound,
            model,
            backend_seed,
            offsets,
            participants,
            worker_units,
            full_loads,
            minibatch,
            num_units: scheme.num_examples(),
            busy_until,
            broadcasts: Vec::with_capacity(iterations),
            broadcast_merges: Vec::with_capacity(iterations),
            applies: Vec::with_capacity(iterations),
            pending: Vec::new(),
            merged: 0,
            trace: ConvergenceTrace::new(),
            metrics: RunMetrics::new(),
            samples: vec![None; iterations],
            makespan: 0.0,
        }
    }

    /// Merges one update: realized staleness, gradient error at the
    /// application point, optimizer step, trace.
    fn apply_update(&mut self, up: PendingUpdate) {
        let mut sample = up.sample;
        sample.staleness = self.merged - up.merges_at_broadcast;
        // A stale (or policy-approximate) update's gradient no longer
        // matches the model it lands on; price that against the exact
        // mean gradient at the application point. Fresh exact updates are
        // error-free by construction, as under SSGD.
        sample.gradient_error = (sample.staleness > 0 || !sample.exact).then(|| {
            let exact = exact_mean_gradient(self.data, self.loss, self.optimizer.eval_point());
            gradient_error_norm(&exact, &up.mean_gradient)
        });
        let gnorm = vec_ops::norm2(&up.mean_gradient);
        self.optimizer.step(&up.mean_gradient);
        self.samples[up.round] = Some(sample);
        if self.record_risk {
            let risk = empirical_risk_dyn(self.data, self.loss, self.optimizer.iterate());
            self.trace.push(self.merged, risk, gnorm);
        }
        self.merged += 1;
    }

    /// Applies every pending update that lands by `now`, in
    /// `(applied_at, round)` order — the one global merge order both
    /// modes' timelines are consistent with.
    fn merge_ready(&mut self, now: f64) {
        self.pending.sort_by(|a, b| {
            a.applied_at
                .total_cmp(&b.applied_at)
                .then(a.round.cmp(&b.round))
        });
        while self.pending.first().is_some_and(|up| up.applied_at <= now) {
            let up = self.pending.remove(0);
            self.apply_update(up);
        }
    }

    /// Consumes the driver after the backend's round loop, merging the
    /// still-in-flight tail. The trace is in *application* order
    /// (iteration = merge index) and the simulated wallclock is when the
    /// last update was applied on the overlapped timeline — not the sum of
    /// round times, since rounds overlap.
    pub(crate) fn finalize(mut self) -> RunOutput {
        self.merge_ready(f64::INFINITY);
        RunOutput {
            weights: self.optimizer.iterate().to_vec(),
            trace: self.trace,
            metrics: self.metrics,
            round_samples: self.samples.into_iter().flatten().collect(),
            simulated_seconds: self.makespan,
        }
    }
}

impl RoundDriver for StaleDriver<'_> {
    fn eval_point(&mut self, round: usize) -> Vec<f64> {
        debug_assert_eq!(round, self.broadcasts.len(), "rounds must arrive in order");
        // B_u: the earliest any participant frees up, gated by SSP's bound.
        let min_free = self
            .busy_until
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let gate = match self.staleness_bound {
            Some(s) if round > s => self.applies[round - 1 - s],
            _ => 0.0,
        };
        let prev = self.broadcasts.last().copied().unwrap_or(0.0);
        let start = if self.participants.is_empty() {
            prev.max(gate)
        } else {
            min_free.max(gate).max(prev)
        };
        self.merge_ready(start);
        self.broadcasts.push(start);
        self.broadcast_merges.push(self.merged);

        // Publish each participant's backlog as its round offset and
        // advance its schedule with the same draw the backend will make.
        let selection = self
            .minibatch
            .map(|mb| mb.select(round as u64, self.num_units));
        for (i, &w) in self.participants.iter().enumerate() {
            let load = match &selection {
                Some(sel) => sel.selected_load(&self.worker_units[i]),
                None => self.full_loads[i],
            };
            // Zero-load minibatch round: the worker sends instantly and
            // its compute slot is untouched (the backend charges zero).
            if load == 0 {
                continue;
            }
            let offset = (self.busy_until[i] - start).max(0.0);
            self.offsets.set(round as u64, w, offset);
            let t = self
                .model
                .compute_seconds(self.backend_seed, round as u64, w, load);
            self.busy_until[i] = start + offset + t;
        }
        self.optimizer.eval_point().to_vec()
    }

    fn consume(&mut self, round: usize, outcome: RoundOutcome) {
        self.metrics.absorb(&outcome.metrics);
        // The backend's round time already includes the offsets, so the
        // completion lands on the overlapped timeline directly.
        let completion = self.broadcasts[round] + outcome.metrics.total_time;
        let applied_at = match self.staleness_bound {
            // SSP applies in round order; clamping keeps A monotone.
            Some(_) => completion.max(self.applies.last().copied().unwrap_or(0.0)),
            // ASGD applies each update the moment it decodes.
            None => completion,
        };
        self.applies.push(applied_at);
        self.makespan = self.makespan.max(applied_at);

        let m = outcome.examples_used.unwrap_or(self.data.len()) as f64;
        let sample = outcome.sample(None);
        let mut mean_gradient = outcome.gradient_sum;
        vec_ops::scale(1.0 / m, &mut mean_gradient);
        self.pending.push(PendingUpdate {
            round,
            applied_at,
            mean_gradient,
            sample,
            merges_at_broadcast: self.broadcast_merges[round],
        });
    }
}
