//! Mode drivers: how SSP, ASGD, and LocalSGD reorder the round loop.
//!
//! The synchronous driver ([`SyncDriver`](crate::driver::SyncDriver))
//! blocks on every round: broadcast, wait for the scheme's completion
//! condition, apply, repeat. The stale modes instead let workers run ahead
//! of the master's applied model, and LocalSGD trades per-round
//! communication for local iteration. All three reuse the existing
//! backends unchanged:
//!
//! - **SSP / ASGD** ([`StaleDriver`]) drive the backend's ordinary
//!   sequential round loop, but re-time it. The driver replicates each
//!   worker's compute schedule from the same `(seed, round, worker)`
//!   latency stream the backend samples, tracks when each worker's
//!   previous round actually finishes on the overlapped timeline, and
//!   publishes the difference as a per-`(round, worker)` offset through a
//!   shared [`OffsetTable`]. The backend's straggler model is wrapped in
//!   an [`OffsetModel`](bcc_cluster::OffsetModel) that adds those offsets,
//!   so the gradients, coverage, and message counts it produces are
//!   exactly what the overlapped execution would deliver — on *any*
//!   backend, since all three sample master-side from the same stream.
//! - **LocalSGD** ([`run_local_sgd`]) needs no round protocol at all:
//!   workers take `k` plain-GD steps on their own shard between
//!   synchronizations, so the master only averages parameters every `k`
//!   steps. It simulates the barrier directly against the straggler model
//!   and the master's serial receive port.
//!
//! Deliberate timing simplifications (documented, shared with the
//! backends' own conventions): the master's receive port is serialized
//! within a round but not across overlapping rounds; a straggler always
//! finishes the round it started (no cancellation); a worker whose units
//! all fall outside a minibatch sends instantly and occupies no compute
//! time.

use crate::driver::{empirical_risk_dyn, exact_mean_gradient, gradient_error_norm, RunOutput};
use bcc_cluster::{
    engine, CommModel, Minibatch, OffsetTable, RoundDriver, RoundMetrics, RoundOutcome,
    RoundSample, RunMetrics, StragglerModel, UnitMap, WorkerBlocks,
};
use bcc_coding::GradientCodingScheme;
use bcc_data::Dataset;
use bcc_linalg::vec_ops;
use bcc_optim::{ConvergenceTrace, GradScratch, LearningRate, Loss, Optimizer};
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

/// LocalSGD: every participant takes `local_steps` plain-GD steps on its
/// own shard between parameter-averaging barriers.
///
/// The timeline needs no round protocol: per synchronization round, each
/// participant's compute time is the sum of its per-step draws from the
/// same `(seed, step, worker)` latency stream the backends use, arrivals
/// serialize through the master's receive port in `(finish, worker)`
/// order at one communication unit each (a parameter vector is
/// gradient-sized), and the master averages uniformly. Local steps use
/// the optimizer spec's learning-rate schedule at the *global* step index
/// but are plain GD regardless of the outer optimizer family — momentum
/// state does not average meaningfully across diverged replicas.
///
/// `iterations` counts local steps, so a run makes
/// `ceil(iterations / local_steps)` synchronizations and every mode sees
/// the same gradient-step budget. The output carries one trace point,
/// metrics entry and sample per synchronization (trace iteration = last
/// global step the sync covers, its gradient-norm column the averaged
/// update's magnitude `‖w_before − w_after‖₂`); barriers never overlap, so
/// the simulated wallclock is the sum of their times.
#[allow(clippy::too_many_arguments)] // one-shot wiring, one arg per collaborator
pub(crate) fn run_local_sgd(
    scheme: &dyn GradientCodingScheme,
    units: &UnitMap,
    data: &Dataset,
    loss: &dyn Loss,
    comm: CommModel,
    model: &dyn StragglerModel,
    backend_seed: u64,
    rate: LearningRate,
    dim: usize,
    iterations: usize,
    local_steps: usize,
    record_risk: bool,
) -> RunOutput {
    let participants = engine::participants(scheme, &HashSet::new());
    debug_assert!(!participants.is_empty(), "schemes place data somewhere");
    let packed = WorkerBlocks::build(scheme, units, data);
    let (x, y) = packed.arena(data);
    let placement = scheme.placement();
    let total_units = scheme.num_examples();
    let covered_units = {
        let mut seen = vec![false; total_units];
        for &w in &participants {
            for &u in placement.worker_examples(w) {
                seen[u] = true;
            }
        }
        seen.iter().filter(|&&s| s).count()
    };

    let mut global = vec![0.0; dim];
    let mut scratch = GradScratch::new();
    let mut grad = vec![0.0; dim];
    let mut trace = ConvergenceTrace::new();
    let mut metrics = RunMetrics::new();
    let mut round_samples = Vec::with_capacity(iterations.div_ceil(local_steps));
    let mut clock = 0.0;
    let mut step = 0;
    while step < iterations {
        let steps_this_round = local_steps.min(iterations - step);
        let w_before = record_risk.then(|| global.clone());
        let mut arrivals: Vec<(f64, usize, Vec<f64>)> = Vec::with_capacity(participants.len());
        for &worker in &participants {
            let ranges = packed.worker(worker);
            let examples: usize = ranges.iter().map(|r| r.len()).sum();
            let load = placement.load_of(worker);
            let mut local = global.clone();
            let mut compute = 0.0;
            for j in 0..steps_this_round {
                let partials = scratch.worker_partials(loss, x, y, ranges, &local);
                grad.iter_mut().for_each(|g| *g = 0.0);
                for p in partials {
                    vec_ops::axpy(1.0, p, &mut grad);
                }
                vec_ops::scale(1.0 / examples as f64, &mut grad);
                vec_ops::axpy(-rate.at(step + j), &grad, &mut local);
                compute += model.compute_seconds(backend_seed, (step + j) as u64, worker, load);
            }
            arrivals.push((compute, worker, local));
        }
        arrivals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let compute_time = arrivals.last().map_or(0.0, |a| a.0);
        let mut port_free = 0.0_f64;
        for (finish, _, _) in &arrivals {
            port_free = port_free.max(*finish) + comm.transfer_time(1);
        }
        let total_time = port_free;

        let inv = 1.0 / arrivals.len() as f64;
        global.iter_mut().for_each(|v| *v = 0.0);
        for (_, _, local) in &arrivals {
            vec_ops::axpy(inv, local, &mut global);
        }

        step += steps_this_round;
        clock += total_time;
        metrics.absorb(&RoundMetrics {
            messages_used: arrivals.len(),
            communication_units: arrivals.len(),
            compute_time,
            comm_time: total_time - compute_time,
            total_time,
        });
        round_samples.push(RoundSample {
            total_time,
            messages_used: arrivals.len(),
            covered_units,
            total_units,
            exact: covered_units == total_units,
            gradient_error: None,
            staleness: 0,
        });
        if let Some(before) = w_before {
            let mut delta = before;
            vec_ops::axpy(-1.0, &global, &mut delta);
            let risk = empirical_risk_dyn(data, loss, &global);
            trace.push(step - 1, risk, vec_ops::norm2(&delta));
        }
    }
    RunOutput {
        weights: global,
        trace,
        metrics,
        round_samples,
        simulated_seconds: clock,
    }
}
