//! The typed [`Experiment`] builder: validate a spec, resolve its scheme
//! through the registry, and run it end to end.

use super::error::BuildError;
use super::registry::{
    ControllerFactory, ControllerRegistry, ModeRegistry, PolicyRegistry, Registries, SchemeRegistry,
};
use super::spec::{
    BackendSpec, ControllerSpec, DataSpec, ExperimentSpec, LatencySpec, LossSpec, ModeSpec,
    NetProfileSpec, OptimizerSpec, PolicySpec, SchemeSpec,
};
use crate::driver::SyncDriver;
use crate::error::BccError;
use crate::modes::StaleDriver;
use bcc_cluster::{
    AggregationPolicy, BackendConfig, BimodalModel, ClusterBackend, ClusterProfile, CommModel,
    MarkovModel, Minibatch, ModeSchedule, OffsetModel, OffsetTable, ParetoModel, RoundSample,
    RunMetrics, ShiftedExpModel, StragglerModel, ThreadedCluster, TrainingMode, UnitMap,
    VirtualCluster, WanLinkModel, WeibullModel,
};
use bcc_coding::GradientCodingScheme;
use bcc_control::{ChosenPolicy, ControlLoop, ControlRecord, SwitchablePolicy};
use bcc_data::synthetic::{generate, SyntheticConfig, SyntheticDataset};
use bcc_net::{auth_token, LocalNetCluster, TcpCluster};
use bcc_optim::{
    ConvergenceTrace, GradientDescent, LogisticLoss, Loss, Nesterov, Optimizer, SquaredLoss,
};
use bcc_stats::derive_seed;
use bcc_stats::rng::derive_rng;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Stream tag for the scheme-placement RNG derived from the spec seed.
const SCHEME_STREAM: u64 = 0xC0DE;
/// Stream tag for the backend latency seed derived from the spec seed.
const BACKEND_STREAM: u64 = 0x5EED;
/// Stream tag for the minibatch sampler seed derived from the spec seed.
const MINIBATCH_STREAM: u64 = 0xBA7C;

/// Outcome of running one [`Experiment`].
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// The resolved spec that produced this report (write it next to the
    /// results and the run replays via `repro scenario`).
    pub spec: ExperimentSpec,
    /// Resolved scheme name.
    pub scheme: String,
    /// Final model iterate (all zeros under
    /// [`OptimizerSpec::FixedPoint`]).
    pub weights: Vec<f64>,
    /// Convergence trace (empty when risk recording is off).
    pub trace: ConvergenceTrace,
    /// Aggregated round metrics — the Tables I/II quantities.
    pub metrics: RunMetrics,
    /// Per-round observables in round order (round time, messages used) —
    /// what percentile/distribution analyses need beyond the sums in
    /// `metrics`.
    pub round_samples: Vec<RoundSample>,
    /// Host wall-clock seconds spent inside the round loop (excludes data
    /// generation and scheme construction).
    pub wall_seconds: f64,
    /// Simulated (virtual-clock) seconds the run took. Equal to
    /// `metrics.total_time` under synchronous modes and the overlapped
    /// timeline's makespan under SSP/ASGD (rounds overlap, so the sum of
    /// round times overstates the wallclock).
    pub simulated_seconds: f64,
    /// Per-round straggler-controller decisions in round order (one per
    /// round under synchronous modes; empty under SSP/ASGD, whose
    /// overlapping rounds have no boundary to apply a decision at).
    pub controller_records: Vec<ControlRecord>,
    /// How many controller decisions changed the installed aggregation
    /// policy (always 0 for the `static` controller).
    pub controller_switches: usize,
}

/// A validated, ready-to-run experiment.
///
/// Construct through [`Experiment::builder`] or [`Experiment::from_spec`];
/// both resolve the scheme through a [`SchemeRegistry`] and surface every
/// structural constraint as a [`BuildError`] instead of a panic.
pub struct Experiment {
    spec: ExperimentSpec,
    scheme: Box<dyn GradientCodingScheme>,
    profile: ClusterProfile,
    model: Arc<dyn StragglerModel>,
    policy: Arc<dyn AggregationPolicy>,
    mode: Arc<dyn TrainingMode>,
    /// The resolved controller factory, kept past validation:
    /// [`Self::run`] builds a fresh (stateless-at-start) controller
    /// instance per run, so repeated runs of one experiment never leak
    /// telemetry into each other.
    controller: Arc<ControllerFactory>,
    /// Dataset cache: materialized by the first [`Self::run`] and reused by
    /// every later run. The data is a pure function of the spec, and the
    /// benchmarks re-run one experiment many times (warmup + repeated
    /// measurement), so regenerating per run would be pure waste.
    data: OnceLock<SyntheticDataset>,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("spec", &self.spec)
            .field("scheme", &self.scheme.name())
            .finish()
    }
}

impl Experiment {
    /// Starts a builder with every optional field at its default.
    #[must_use]
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::default()
    }

    /// Validates `spec` against the built-in registries.
    ///
    /// # Errors
    /// Any [`BuildError`] the builder reports.
    pub fn from_spec(spec: ExperimentSpec) -> Result<Self, BuildError> {
        Self::from_spec_with(spec, &Registries::default())
    }

    /// Validates `spec`, resolving every pluggable part — scheme,
    /// aggregation policy, training mode, and straggler controller —
    /// through caller-supplied `registries`.
    ///
    /// # Errors
    /// Any [`BuildError`] the builder reports.
    pub fn from_spec_with(
        spec: ExperimentSpec,
        registries: &Registries,
    ) -> Result<Self, BuildError> {
        validate_spec(&spec)?;
        let (profile, model) = resolve_latency(&spec.latency, spec.workers)?;
        let policy = registries.policies.build(&spec.policy)?;
        let mode = registries.modes.build(&spec.mode)?;
        validate_mode(&spec, mode.as_ref())?;
        let controller = Arc::clone(registries.controllers.factory(&spec.controller)?);
        validate_controller(&spec, mode.as_ref(), controller.as_ref())?;
        let mut rng = derive_rng(spec.seed, SCHEME_STREAM);
        let scheme = registries
            .schemes
            .build(&spec.scheme, spec.units, spec.workers, &mut rng)?;
        Ok(Self {
            spec,
            scheme,
            profile,
            model,
            policy,
            mode,
            controller,
            data: OnceLock::new(),
        })
    }

    /// The resolved spec.
    #[must_use]
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// The resolved scheme.
    #[must_use]
    pub fn scheme(&self) -> &dyn GradientCodingScheme {
        self.scheme.as_ref()
    }

    /// The resolved cluster profile (worker count and master link; when
    /// the spec selects a non-shift-exponential straggler model, compute
    /// times come from [`Self::straggler_model`], not the profile's
    /// per-worker parameters).
    #[must_use]
    pub fn profile(&self) -> &ClusterProfile {
        &self.profile
    }

    /// The resolved worker-straggling model the backends sample compute
    /// times from.
    #[must_use]
    pub fn straggler_model(&self) -> &dyn StragglerModel {
        self.model.as_ref()
    }

    /// The resolved aggregation policy the backends consult per arrival.
    #[must_use]
    pub fn aggregation_policy(&self) -> &dyn AggregationPolicy {
        self.policy.as_ref()
    }

    /// The resolved training mode ([`Self::run`] dispatches on its
    /// [`TrainingMode::schedule`]).
    #[must_use]
    pub fn mode(&self) -> &dyn TrainingMode {
        self.mode.as_ref()
    }

    /// The straggler model the networked backends sample from: the
    /// resolved model, wrapped in deterministic WAN-link emulation when
    /// `wan` is set. Exposed so reference (virtual) twins of a WAN run
    /// can sample the identical delay stream.
    #[must_use]
    pub fn net_model(&self, wan: Option<NetProfileSpec>) -> Arc<dyn StragglerModel> {
        match wan {
            Some(wan) => Arc::new(WanLinkModel::wrap(
                Arc::clone(&self.model),
                wan.latency,
                wan.jitter,
            )),
            None => Arc::clone(&self.model),
        }
    }

    /// The per-round minibatch sampler this spec resolves to (`None` for
    /// the paper's full-partition rounds). Derived from the spec seed
    /// exactly as [`Self::run`] derives it, so an external worker process
    /// samples the same unit selections as the master.
    #[must_use]
    pub fn minibatch(&self) -> Option<Minibatch> {
        self.spec
            .data
            .minibatch()
            .map(|k| Minibatch::new(k, derive_seed(self.spec.seed, MINIBATCH_STREAM)))
    }

    /// The materialized dataset (generated from the spec seed on first
    /// call, cached for later runs). External workers regenerate the same
    /// bytes from the same resolved spec — data is never shipped.
    #[must_use]
    pub fn dataset(&self) -> &bcc_data::Dataset {
        &self.synthetic().dataset
    }

    fn synthetic(&self) -> &SyntheticDataset {
        let spec = &self.spec;
        let (num_examples, dim) = spec.data.shape(spec.units);
        let DataSpec::Synthetic { separation, .. } = spec.data;
        self.data.get_or_init(|| {
            generate(&SyntheticConfig {
                num_examples,
                dim,
                separation,
                seed: spec.seed,
            })
        })
    }

    /// The [`ChosenPolicy`] label of the spec's configured aggregation
    /// policy — what the controller trace shows for round 0 and what a
    /// [`bcc_control::ControlAction::Revert`] returns to. Custom policy
    /// names pass through verbatim (the loop reverts to the live instance,
    /// not a rebuild from this label).
    fn initial_chosen_policy(&self) -> ChosenPolicy {
        ChosenPolicy {
            policy: self.spec.policy.name.clone(),
            k: self.spec.policy.k,
            deadline: self.spec.policy.deadline,
        }
    }

    /// Builds a fresh control loop (empty telemetry) for one run, plus the
    /// aggregation policy the backend should hold: the configured policy
    /// `Arc` untouched for the `static` controller — keeping those runs on
    /// the exact pre-controller code path — or a [`SwitchablePolicy`]
    /// handle the loop re-points between rounds for the adaptive ones.
    fn control_loop(&self) -> (ControlLoop, Arc<dyn AggregationPolicy>) {
        let controller = (self.controller)(&self.spec.controller)
            .expect("controller spec was validated at build time");
        let mut control =
            ControlLoop::new(controller, self.spec.workers, self.initial_chosen_policy());
        let policy: Arc<dyn AggregationPolicy> = if self.spec.controller.is_default() {
            Arc::clone(&self.policy)
        } else {
            let switchable = SwitchablePolicy::new(Arc::clone(&self.policy));
            control.attach(Arc::clone(&switchable));
            switchable
        };
        (control, policy)
    }

    /// The straggler model the spec's backend samples from: WAN-wrapped
    /// for TCP backends, the resolved model otherwise.
    fn backend_base_model(&self) -> Arc<dyn StragglerModel> {
        match &self.spec.backend {
            BackendSpec::Tcp { wan, .. } => self.net_model(*wan),
            _ => Arc::clone(&self.model),
        }
    }

    /// Spins up the spec's backend with `model` and `policy` installed —
    /// every backend gets the identical [`BackendConfig`], so mode wrappers
    /// (offsets) and the controller's switchable policy handle compose the
    /// same way everywhere.
    fn make_backend(
        &self,
        backend_seed: u64,
        model: Arc<dyn StragglerModel>,
        policy: Arc<dyn AggregationPolicy>,
    ) -> Result<Box<dyn ClusterBackend>, BccError> {
        let spec = &self.spec;
        // Minibatch rounds sample their unit subset from a dedicated
        // derived stream, so full and minibatch runs of the same seed
        // share data, placement, and latency draws.
        let mut config = BackendConfig::new()
            .straggler_model(model)
            .aggregation_policy(policy);
        if let Some(minibatch) = self.minibatch() {
            config = config.minibatch(minibatch);
        }
        Ok(match &spec.backend {
            BackendSpec::Virtual => {
                Box::new(VirtualCluster::new(self.profile.clone(), backend_seed).configured(config))
            }
            BackendSpec::Threaded { time_scale } => Box::new(
                ThreadedCluster::new(self.profile.clone(), backend_seed, *time_scale)
                    .configured(config),
            ),
            // Loopback TCP: an in-process worker fleet over real kernel
            // sockets — `Experiment::run` stays a one-call entry point.
            BackendSpec::Tcp {
                time_scale,
                addr: None,
                ..
            } => Box::new(
                LocalNetCluster::new(self.profile.clone(), backend_seed, *time_scale)
                    .configured(config),
            ),
            // Bound TCP: listen for external `bcc-worker` processes and
            // hand them the resolved spec as their job description. The
            // admission token derives from the user-visible spec seed, so
            // workers need nothing beyond the seed they were launched with.
            BackendSpec::Tcp {
                time_scale,
                addr: Some(addr),
                ..
            } => {
                let job = spec
                    .to_json_pretty()
                    .map_err(|e| BccError::Spec(format!("serializing worker job: {e}")))?;
                Box::new(
                    TcpCluster::bind(addr, self.profile.clone(), backend_seed, *time_scale)?
                        .configured(config.job(job).auth_token(auth_token(spec.seed))),
                )
            }
        })
    }

    /// Runs the experiment: generate data, spin up the backend, and drive
    /// `iterations` rounds through the optimizer under the spec's training
    /// mode.
    ///
    /// Deterministic on the virtual backend: the dataset derives from the
    /// spec seed, the scheme placement from `derive(seed, 0xC0DE)`, and the
    /// backend latency stream from `derive(seed, 0x5EED)`. The stale
    /// modes' overlapped timeline is a pure function of the same streams,
    /// so every mode replays byte-identically on all backends.
    ///
    /// # Errors
    /// [`BccError::Cluster`] when a round cannot complete (stall, worker
    /// failure, wire error).
    pub fn run(&self) -> Result<ExperimentReport, BccError> {
        let spec = &self.spec;
        let (num_examples, dim) = spec.data.shape(spec.units);
        let data = self.synthetic();
        let units = UnitMap::grouped(num_examples, spec.units);
        let loss: &dyn Loss = match spec.loss {
            LossSpec::Logistic => &LogisticLoss,
            LossSpec::Squared => &SquaredLoss,
        };
        let backend_seed = derive_seed(spec.seed, BACKEND_STREAM);
        let base_model = self.backend_base_model();

        let mut optimizer: Option<Box<dyn Optimizer>> = match spec.optimizer {
            OptimizerSpec::Nesterov { rate } => Some(Box::new(Nesterov::new(vec![0.0; dim], rate))),
            OptimizerSpec::GradientDescent { rate } => {
                Some(Box::new(GradientDescent::new(vec![0.0; dim], rate)))
            }
            OptimizerSpec::FixedPoint => None,
        };

        let start = Instant::now();
        let mut controller_records: Vec<ControlRecord> = Vec::new();
        let mut controller_switches = 0;
        let out = match self.mode.schedule() {
            ModeSchedule::Synchronous => {
                // The control loop observes each finished round's arrival
                // stamps and (for non-static controllers) re-points the
                // switchable policy before the next round starts — the
                // backends hold the handle, so the swap needs no backend
                // restart.
                let (mut control, policy) = self.control_loop();
                let mut backend = self.make_backend(backend_seed, base_model, policy)?;
                let mut driver = SyncDriver::new(
                    // `Option<&mut (dyn Optimizer + 'static)>` is invariant;
                    // shorten the object lifetime per element.
                    optimizer
                        .as_deref_mut()
                        .map(|opt| opt as &mut dyn Optimizer),
                    dim,
                    &data.dataset,
                    loss,
                    spec.record_risk,
                    spec.iterations,
                    &mut control,
                );
                backend.run_rounds(
                    spec.iterations,
                    self.scheme.as_ref(),
                    &units,
                    &data.dataset,
                    loss,
                    &mut driver,
                )?;
                let out = driver.finish();
                controller_switches = control.switches();
                controller_records = control.into_records();
                out
            }
            schedule @ (ModeSchedule::StaleBounded { .. } | ModeSchedule::Async) => {
                let bound = match schedule {
                    ModeSchedule::StaleBounded { staleness } => Some(staleness),
                    _ => None,
                };
                // The backend samples through an offset-adding wrapper;
                // the driver publishes each worker's backlog there before
                // the backend draws, so the synchronous round machinery
                // reproduces the overlapped execution's timing exactly.
                let offsets = OffsetTable::new();
                let wrapped: Arc<dyn StragglerModel> =
                    Arc::new(OffsetModel::wrap(Arc::clone(&base_model), offsets.clone()));
                let mut backend =
                    self.make_backend(backend_seed, wrapped, Arc::clone(&self.policy))?;
                let mut driver = StaleDriver::new(
                    optimizer
                        .as_deref_mut()
                        .expect("validated: stale modes require an optimizer"),
                    &data.dataset,
                    loss,
                    spec.record_risk,
                    bound,
                    base_model,
                    backend_seed,
                    offsets,
                    self.scheme.as_ref(),
                    self.minibatch(),
                    spec.iterations,
                );
                backend.run_rounds(
                    spec.iterations,
                    self.scheme.as_ref(),
                    &units,
                    &data.dataset,
                    loss,
                    &mut driver,
                )?;
                driver.finalize()
            }
        };
        let wall_seconds = start.elapsed().as_secs_f64();

        Ok(ExperimentReport {
            spec: spec.clone(),
            scheme: self.scheme.name().to_string(),
            weights: out.weights,
            trace: out.trace,
            metrics: out.metrics,
            round_samples: out.round_samples,
            wall_seconds,
            simulated_seconds: out.simulated_seconds,
            controller_records,
            controller_switches,
        })
    }
}

/// Typed builder over [`ExperimentSpec`] — see the crate-level example.
///
/// `workers`, `units`, and `scheme` are required; everything else defaults
/// to the paper's scenario settings (synthetic data, EC2-like latency,
/// virtual backend, logistic loss, Nesterov at 0.5, 100 iterations).
#[derive(Debug, Default)]
pub struct ExperimentBuilder {
    name: Option<String>,
    workers: Option<usize>,
    units: Option<usize>,
    scheme: Option<SchemeSpec>,
    data: Option<DataSpec>,
    latency: Option<LatencySpec>,
    backend: Option<BackendSpec>,
    loss: Option<LossSpec>,
    optimizer: Option<OptimizerSpec>,
    policy: Option<PolicySpec>,
    mode: Option<ModeSpec>,
    controller: Option<ControllerSpec>,
    iterations: Option<usize>,
    record_risk: Option<bool>,
    seed: Option<u64>,
    registries: Registries,
}

impl ExperimentBuilder {
    /// Display name for reports and artifacts.
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Number of workers `n` (required).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n);
        self
    }

    /// Number of coding units `m` (required).
    #[must_use]
    pub fn units(mut self, m: usize) -> Self {
        self.units = Some(m);
        self
    }

    /// The scheme (required): a [`SchemeSpec`] or anything convertible.
    #[must_use]
    pub fn scheme(mut self, scheme: impl Into<SchemeSpec>) -> Self {
        self.scheme = Some(scheme.into());
        self
    }

    /// Dataset shape.
    #[must_use]
    pub fn data(mut self, data: DataSpec) -> Self {
        self.data = Some(data);
        self
    }

    /// Worker-latency and link model.
    #[must_use]
    pub fn latency(mut self, latency: LatencySpec) -> Self {
        self.latency = Some(latency);
        self
    }

    /// Cluster runtime.
    #[must_use]
    pub fn backend(mut self, backend: BackendSpec) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Per-example loss.
    #[must_use]
    pub fn loss(mut self, loss: LossSpec) -> Self {
        self.loss = Some(loss);
        self
    }

    /// Gradient consumer.
    #[must_use]
    pub fn optimizer(mut self, optimizer: OptimizerSpec) -> Self {
        self.optimizer = Some(optimizer);
        self
    }

    /// Aggregation policy deciding round completion and the returned
    /// gradient (default: `wait-decodable`, the paper's exact master).
    #[must_use]
    pub fn policy(mut self, policy: impl Into<PolicySpec>) -> Self {
        self.policy = Some(policy.into());
        self
    }

    /// Training mode (default: `ssgd`, the paper's synchronous rounds).
    /// Accepts a [`ModeSpec`] or anything convertible (e.g. `"asgd"`).
    #[must_use]
    pub fn mode(mut self, mode: impl Into<ModeSpec>) -> Self {
        self.mode = Some(mode.into());
        self
    }

    /// Straggler controller re-tuning the round protocol between rounds
    /// (default: `static`, byte-identical to uncontrolled runs). Accepts a
    /// [`ControllerSpec`] or anything convertible (e.g. `"adaptive-k"`).
    #[must_use]
    pub fn controller(mut self, controller: impl Into<ControllerSpec>) -> Self {
        self.controller = Some(controller.into());
        self
    }

    /// GD iterations / measured rounds.
    #[must_use]
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.iterations = Some(iterations);
        self
    }

    /// Whether to record the empirical risk each iteration.
    #[must_use]
    pub fn record_risk(mut self, record: bool) -> Self {
        self.record_risk = Some(record);
        self
    }

    /// Master seed for data, placement, and latency streams.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Resolve the scheme through a custom registry instead of the
    /// built-ins.
    #[must_use]
    pub fn registry(mut self, registry: SchemeRegistry) -> Self {
        self.registries.schemes = registry;
        self
    }

    /// Resolve the aggregation policy through a custom registry instead of
    /// the built-ins.
    #[must_use]
    pub fn policy_registry(mut self, registry: PolicyRegistry) -> Self {
        self.registries.policies = registry;
        self
    }

    /// Resolve the training mode through a custom registry instead of the
    /// built-ins.
    #[must_use]
    pub fn mode_registry(mut self, registry: ModeRegistry) -> Self {
        self.registries.modes = registry;
        self
    }

    /// Resolve the straggler controller through a custom registry instead
    /// of the built-ins.
    #[must_use]
    pub fn controller_registry(mut self, registry: ControllerRegistry) -> Self {
        self.registries.controllers = registry;
        self
    }

    /// Validates and assembles the experiment.
    ///
    /// # Errors
    /// [`BuildError::MissingField`] for unset required fields, then every
    /// structural check [`Experiment::from_spec_with`] performs.
    pub fn build(self) -> Result<Experiment, BuildError> {
        let defaults = ExperimentSpec::with_required(
            self.workers
                .ok_or(BuildError::MissingField { field: "workers" })?,
            self.units
                .ok_or(BuildError::MissingField { field: "units" })?,
            self.scheme
                .ok_or(BuildError::MissingField { field: "scheme" })?,
        );
        let spec = ExperimentSpec {
            name: self.name.unwrap_or(defaults.name),
            data: self.data.unwrap_or(defaults.data),
            latency: self.latency.unwrap_or(defaults.latency),
            backend: self.backend.unwrap_or(defaults.backend),
            loss: self.loss.unwrap_or(defaults.loss),
            optimizer: self.optimizer.unwrap_or(defaults.optimizer),
            policy: self.policy.unwrap_or(defaults.policy),
            mode: self.mode.unwrap_or(defaults.mode),
            controller: self.controller.unwrap_or(defaults.controller),
            iterations: self.iterations.unwrap_or(defaults.iterations),
            record_risk: self.record_risk.unwrap_or(defaults.record_risk),
            seed: self.seed.unwrap_or(defaults.seed),
            workers: defaults.workers,
            units: defaults.units,
            scheme: defaults.scheme,
        };
        Experiment::from_spec_with(spec, &self.registries)
    }
}

/// Structural checks that do not need the registry.
fn validate_spec(spec: &ExperimentSpec) -> Result<(), BuildError> {
    let positive = |field: &'static str, value: usize| {
        if value == 0 {
            Err(BuildError::InvalidValue {
                field,
                reason: "must be positive".into(),
            })
        } else {
            Ok(())
        }
    };
    positive("workers", spec.workers)?;
    positive("units", spec.units)?;
    positive("iterations", spec.iterations)?;
    let DataSpec::Synthetic {
        points_per_unit,
        dim,
        separation,
        minibatch,
    } = spec.data;
    positive("data.points_per_unit", points_per_unit)?;
    positive("data.dim", dim)?;
    // The resident dataset is `units × points_per_unit` rows of `dim` f64s.
    // Release builds do not check overflow, so a shape whose byte size does
    // not fit `usize` would wrap into a wrong dataset, not fail.
    let bytes = spec
        .units
        .checked_mul(points_per_unit)
        .and_then(|rows| rows.checked_mul(dim))
        .and_then(|elements| elements.checked_mul(std::mem::size_of::<f64>()));
    if bytes.is_none() {
        return Err(BuildError::InvalidValue {
            field: "data",
            reason: format!(
                "{} units × {points_per_unit} points × dim {dim} × 8 bytes overflows usize",
                spec.units
            ),
        });
    }
    if !separation.is_finite() || separation <= 0.0 {
        return Err(BuildError::InvalidValue {
            field: "data.separation",
            reason: format!("must be positive and finite, got {separation}"),
        });
    }
    if let Some(k) = minibatch {
        positive("data.minibatch", k)?;
        if k > spec.units {
            return Err(BuildError::InvalidValue {
                field: "data.minibatch",
                reason: format!(
                    "minibatch of {k} units exceeds the {}-unit partition",
                    spec.units
                ),
            });
        }
    }
    match &spec.backend {
        BackendSpec::Virtual => {}
        BackendSpec::Threaded { time_scale } | BackendSpec::Tcp { time_scale, .. } => {
            if !time_scale.is_finite() || *time_scale <= 0.0 {
                return Err(BuildError::InvalidValue {
                    field: "backend.time_scale",
                    reason: format!("must be positive and finite, got {time_scale}"),
                });
            }
        }
    }
    if let BackendSpec::Tcp { wan: Some(wan), .. } = &spec.backend {
        for (field, value) in [
            ("backend.wan.latency", wan.latency),
            ("backend.wan.jitter", wan.jitter),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(BuildError::InvalidValue {
                    field,
                    reason: format!("must be non-negative and finite, got {value}"),
                });
            }
        }
    }
    Ok(())
}

/// Mode checks that need the resolved [`TrainingMode`] *and* the rest of
/// the spec (the registry already rejected missing/zero parameters for the
/// built-ins; these bounds also cover custom registrations).
fn validate_mode(spec: &ExperimentSpec, mode: &dyn TrainingMode) -> Result<(), BuildError> {
    match mode.schedule() {
        ModeSchedule::Synchronous => Ok(()),
        ModeSchedule::StaleBounded { staleness: 0 } => Err(BuildError::InvalidValue {
            field: "mode.staleness",
            reason: format!("mode `{}` needs a positive value", mode.name()),
        }),
        ModeSchedule::StaleBounded { staleness } if staleness > spec.iterations => {
            Err(BuildError::InvalidValue {
                field: "mode.staleness",
                reason: format!("{staleness} exceeds the {}-iteration run", spec.iterations),
            })
        }
        ModeSchedule::StaleBounded { .. } | ModeSchedule::Async => match spec.optimizer {
            OptimizerSpec::FixedPoint => Err(BuildError::InvalidValue {
                field: "optimizer",
                reason: format!(
                    "fixed-point metrics runs have no optimizer state for mode `{}` to update",
                    mode.name()
                ),
            }),
            _ => Ok(()),
        },
    }
}

/// Controller checks: the resolved factory must accept the spec (parameter
/// validation lives in the factories), and non-static controllers only make
/// sense under synchronous rounds — the stale modes overlap rounds, so
/// there is no boundary at which a policy swap takes clean effect.
fn validate_controller(
    spec: &ExperimentSpec,
    mode: &dyn TrainingMode,
    controller: &ControllerFactory,
) -> Result<(), BuildError> {
    // Build (and drop) one instance now so a bad spec fails at build time,
    // not mid-run.
    drop(controller(&spec.controller)?);
    if !spec.controller.is_default() && !matches!(mode.schedule(), ModeSchedule::Synchronous) {
        return Err(BuildError::InvalidValue {
            field: "controller",
            reason: format!(
                "controller `{}` re-tunes the round protocol at round boundaries, \
                 but mode `{}` overlaps rounds — adaptive control requires `ssgd`",
                spec.controller.name,
                mode.name()
            ),
        });
    }
    Ok(())
}

/// A positive-and-finite check shared by the latency validators.
fn positive_finite(field: &'static str, value: f64) -> Result<(), BuildError> {
    if !value.is_finite() || value <= 0.0 {
        return Err(BuildError::InvalidValue {
            field,
            reason: format!("must be positive and finite, got {value}"),
        });
    }
    Ok(())
}

/// A probability-in-`[0, 1]` check shared by the latency validators.
fn probability(field: &'static str, value: f64) -> Result<(), BuildError> {
    if !value.is_finite() || !(0.0..=1.0).contains(&value) {
        return Err(BuildError::InvalidValue {
            field,
            reason: format!("must be a probability in [0, 1], got {value}"),
        });
    }
    Ok(())
}

/// Resolves the latency spec into a concrete profile and straggler model
/// for `n` workers.
///
/// The profile always carries the master link and worker count. For the
/// shift-exponential variants the model wraps the profile's per-worker
/// `(mu, a)` parameters (byte-identical to the pre-trait backends); for
/// the zoo variants the model owns the compute-time distribution and the
/// profile's per-worker entries are placeholders the backends never
/// sample from.
fn resolve_latency(
    latency: &LatencySpec,
    n: usize,
) -> Result<(ClusterProfile, Arc<dyn StragglerModel>), BuildError> {
    let shifted = |profile: ClusterProfile| {
        let model: Arc<dyn StragglerModel> = Arc::new(ShiftedExpModel::from_profile(&profile));
        (profile, model)
    };
    match latency {
        LatencySpec::Ec2Like => Ok(shifted(ClusterProfile::ec2_like(n))),
        LatencySpec::Fig5Heterogeneous => {
            let profile = ClusterProfile::fig5_heterogeneous();
            if profile.num_workers() != n {
                return Err(BuildError::WorkerCountMismatch {
                    profile: profile.num_workers(),
                    workers: n,
                });
            }
            Ok(shifted(profile))
        }
        LatencySpec::Homogeneous {
            mu,
            a,
            per_message_overhead,
            per_unit,
        } => {
            positive_finite("latency.mu", *mu)?;
            Ok(shifted(ClusterProfile::homogeneous(
                n,
                *mu,
                *a,
                CommModel {
                    per_message_overhead: *per_message_overhead,
                    per_unit: *per_unit,
                },
            )))
        }
        LatencySpec::Explicit { workers, comm } => {
            if workers.len() != n {
                return Err(BuildError::WorkerCountMismatch {
                    profile: workers.len(),
                    workers: n,
                });
            }
            Ok(shifted(ClusterProfile {
                workers: workers.clone(),
                comm: *comm,
            }))
        }
        LatencySpec::Pareto {
            shape,
            scale,
            per_message_overhead,
            per_unit,
        } => {
            positive_finite("latency.shape", *shape)?;
            positive_finite("latency.scale", *scale)?;
            let comm = CommModel {
                per_message_overhead: *per_message_overhead,
                per_unit: *per_unit,
            };
            Ok((
                ClusterProfile::homogeneous(n, 1.0, 0.0, comm),
                Arc::new(ParetoModel::new(*scale, *shape)),
            ))
        }
        LatencySpec::Weibull {
            shape,
            scale,
            shift,
            per_message_overhead,
            per_unit,
        } => {
            positive_finite("latency.shape", *shape)?;
            positive_finite("latency.scale", *scale)?;
            if !shift.is_finite() || *shift < 0.0 {
                return Err(BuildError::InvalidValue {
                    field: "latency.shift",
                    reason: format!("must be non-negative and finite, got {shift}"),
                });
            }
            let comm = CommModel {
                per_message_overhead: *per_message_overhead,
                per_unit: *per_unit,
            };
            Ok((
                ClusterProfile::homogeneous(n, 1.0, 0.0, comm),
                Arc::new(WeibullModel::new(*scale, *shape, *shift)),
            ))
        }
        LatencySpec::Bimodal {
            mu,
            a,
            slow_workers,
            slow_probability,
            slowdown,
            per_message_overhead,
            per_unit,
        } => {
            positive_finite("latency.mu", *mu)?;
            probability("latency.slow_probability", *slow_probability)?;
            positive_finite("latency.slowdown", *slowdown)?;
            if *slow_workers > n {
                return Err(BuildError::InvalidValue {
                    field: "latency.slow_workers",
                    reason: format!("slow subset ({slow_workers}) exceeds the worker count ({n})"),
                });
            }
            let comm = CommModel {
                per_message_overhead: *per_message_overhead,
                per_unit: *per_unit,
            };
            Ok((
                ClusterProfile::homogeneous(n, *mu, *a, comm),
                Arc::new(BimodalModel::homogeneous(
                    n,
                    *mu,
                    *a,
                    *slow_workers,
                    *slow_probability,
                    *slowdown,
                )),
            ))
        }
        LatencySpec::Markov {
            mu,
            a,
            p_slow,
            p_recover,
            slowdown,
            per_message_overhead,
            per_unit,
        } => {
            positive_finite("latency.mu", *mu)?;
            probability("latency.p_slow", *p_slow)?;
            probability("latency.p_recover", *p_recover)?;
            positive_finite("latency.slowdown", *slowdown)?;
            let comm = CommModel {
                per_message_overhead: *per_message_overhead,
                per_unit: *per_unit,
            };
            Ok((
                ClusterProfile::homogeneous(n, *mu, *a, comm),
                Arc::new(MarkovModel::new(*mu, *a, *p_slow, *p_recover, *slowdown)),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_builder() -> ExperimentBuilder {
        Experiment::builder()
            .name("tiny")
            .workers(10)
            .units(10)
            .scheme(SchemeSpec::with_load("bcc", 2))
            .data(DataSpec::synthetic(5, 4))
            .iterations(8)
            .seed(7)
    }

    #[test]
    fn builder_runs_and_improves_risk() {
        let report = tiny_builder().build().unwrap().run().unwrap();
        assert_eq!(report.scheme, "bcc");
        assert_eq!(report.metrics.rounds, 8);
        assert!(report.trace.improved());
        assert!(report.metrics.avg_recovery_threshold() <= 10.0);
        assert!(report.wall_seconds > 0.0);
    }

    #[test]
    fn fixed_point_mode_only_measures() {
        let report = tiny_builder()
            .optimizer(OptimizerSpec::FixedPoint)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(report.trace.is_empty());
        assert!(report.weights.iter().all(|&w| w == 0.0));
        assert_eq!(report.metrics.rounds, 8);
    }

    #[test]
    fn runs_are_deterministic_on_the_virtual_backend() {
        let a = tiny_builder().build().unwrap().run().unwrap();
        let b = tiny_builder().build().unwrap().run().unwrap();
        assert_eq!(a.metrics.messages_used, b.metrics.messages_used);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.metrics.total_time, b.metrics.total_time);
    }

    #[test]
    fn spec_and_builder_paths_agree() {
        let built = tiny_builder().build().unwrap();
        let from_spec = Experiment::from_spec(built.spec().clone()).unwrap();
        let a = built.run().unwrap();
        let b = from_spec.run().unwrap();
        assert_eq!(a.metrics.messages_used, b.metrics.messages_used);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn json_spec_drives_the_same_run() {
        let built = tiny_builder().build().unwrap();
        let json = built.spec().to_json_pretty().unwrap();
        let reloaded = Experiment::from_spec(ExperimentSpec::from_json(&json).unwrap()).unwrap();
        let a = built.run().unwrap();
        let b = reloaded.run().unwrap();
        assert_eq!(a.metrics.messages_used, b.metrics.messages_used);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn missing_required_fields_are_typed() {
        let err = Experiment::builder().build().unwrap_err();
        assert_eq!(err, BuildError::MissingField { field: "workers" });
        let err = Experiment::builder().workers(4).build().unwrap_err();
        assert_eq!(err, BuildError::MissingField { field: "units" });
        let err = Experiment::builder()
            .workers(4)
            .units(4)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::MissingField { field: "scheme" });
    }

    #[test]
    fn explicit_profile_must_match_workers() {
        let err = tiny_builder()
            .latency(LatencySpec::from_profile(&ClusterProfile::ec2_like(3)))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::WorkerCountMismatch {
                profile: 3,
                workers: 10
            }
        );
    }

    #[test]
    fn minibatch_runs_are_deterministic_and_replay_from_json() {
        let mb = || tiny_builder().data(DataSpec::synthetic(5, 4).with_minibatch(4));
        let built = mb().build().unwrap();
        let json = built.spec().to_json_pretty().unwrap();
        let reloaded = Experiment::from_spec(ExperimentSpec::from_json(&json).unwrap()).unwrap();
        let a = built.run().unwrap();
        let b = reloaded.run().unwrap();
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.metrics.messages_used, b.metrics.messages_used);
        // Sampling 4 of 10 units must change the trajectory vs full rounds.
        let full = tiny_builder().build().unwrap().run().unwrap();
        assert_ne!(a.weights, full.weights);
    }

    #[test]
    fn minibatch_bounds_are_validated() {
        let err = tiny_builder()
            .data(DataSpec::synthetic(5, 4).with_minibatch(0))
            .build()
            .unwrap_err();
        assert!(
            matches!(
                &err,
                BuildError::InvalidValue { field, .. } if *field == "data.minibatch"
            ),
            "zero minibatch must be rejected, got {err:?}"
        );
        let err = tiny_builder()
            .data(DataSpec::synthetic(5, 4).with_minibatch(11))
            .build()
            .unwrap_err();
        assert!(
            matches!(
                &err,
                BuildError::InvalidValue { field, .. } if *field == "data.minibatch"
            ),
            "minibatch larger than the unit partition must be rejected, got {err:?}"
        );
    }

    #[test]
    fn every_mode_runs_and_improves_risk() {
        for mode in [
            ModeSpec::default(),
            ModeSpec::ssp(2),
            ModeSpec::named("asgd"),
        ] {
            let name = mode.name.clone();
            let report = tiny_builder().mode(mode).build().unwrap().run().unwrap();
            assert_eq!(report.metrics.rounds, 8, "{name}");
            assert!(report.trace.improved(), "{name} must reduce risk");
            assert!(report.simulated_seconds > 0.0, "{name}");
            assert_eq!(report.round_samples.len(), 8, "{name}");
        }
    }

    #[test]
    fn ssgd_simulated_seconds_is_the_round_time_sum() {
        let report = tiny_builder().build().unwrap().run().unwrap();
        assert_eq!(report.simulated_seconds, report.metrics.total_time);
    }

    #[test]
    fn stale_modes_overlap_rounds() {
        // Overlapped timelines finish no later than the synchronous sum of
        // the same rounds' durations, and record positive staleness
        // somewhere (otherwise the mode degenerated to SSGD).
        for mode in [ModeSpec::ssp(3), ModeSpec::named("asgd")] {
            let name = mode.name.clone();
            let report = tiny_builder()
                .mode(mode)
                .iterations(20)
                .build()
                .unwrap()
                .run()
                .unwrap();
            assert!(
                report.simulated_seconds <= report.metrics.total_time,
                "{name}: overlap cannot be slower than the serial sum \
                 ({} vs {})",
                report.simulated_seconds,
                report.metrics.total_time
            );
            assert!(
                report.round_samples.iter().any(|s| s.staleness > 0),
                "{name}: some update must land stale"
            );
        }
    }

    #[test]
    fn mode_bounds_are_validated() {
        // Zero dies in the registry factory, a bound beyond the iteration
        // budget in mode validation (tiny_builder runs 8 iterations).
        for mode in [ModeSpec::ssp(0), ModeSpec::ssp(9)] {
            let err = tiny_builder().mode(mode).build().unwrap_err();
            assert!(
                matches!(&err, BuildError::InvalidValue { field, .. } if *field == "mode.staleness"),
                "expected InvalidValue on mode.staleness, got {err:?}"
            );
        }
    }

    #[test]
    fn non_synchronous_modes_reject_fixed_point() {
        for mode in [ModeSpec::ssp(2), ModeSpec::named("asgd")] {
            let err = tiny_builder()
                .mode(mode)
                .optimizer(OptimizerSpec::FixedPoint)
                .build()
                .unwrap_err();
            assert!(
                matches!(&err, BuildError::InvalidValue { field, .. } if *field == "optimizer"),
                "fixed-point must be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn stale_modes_support_minibatch_rounds() {
        let run = |mode: ModeSpec| {
            tiny_builder()
                .mode(mode)
                .data(DataSpec::synthetic(5, 4).with_minibatch(4))
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        for mode in [ModeSpec::ssp(2), ModeSpec::named("asgd")] {
            let name = mode.name.clone();
            let a = run(mode.clone());
            let b = run(mode);
            assert_eq!(a.weights, b.weights, "{name} minibatch replay");
            assert_eq!(a.metrics.messages_used, b.metrics.messages_used);
        }
    }

    #[test]
    fn unknown_mode_is_a_typed_error() {
        let err = tiny_builder()
            .mode(ModeSpec::named("hogwild"))
            .build()
            .unwrap_err();
        assert!(
            matches!(&err, BuildError::UnknownMode { name, .. } if name == "hogwild"),
            "got {err:?}"
        );
    }

    /// Two persistent 20× stragglers under an uncoded scheme, so the
    /// default wait-decodable policy must wait for every worker and pays
    /// the stragglers each round — the regime adaptive controllers are
    /// built to exploit.
    fn straggler_builder() -> ExperimentBuilder {
        tiny_builder()
            .scheme(SchemeSpec::named("uncoded"))
            .latency(LatencySpec::Bimodal {
                mu: 100.0,
                a: 0.0001,
                slow_workers: 2,
                slow_probability: 1.0,
                slowdown: 20.0,
                per_message_overhead: 0.0001,
                per_unit: 0.0001,
            })
    }

    #[test]
    fn static_controller_is_the_default_and_changes_nothing() {
        let plain = tiny_builder().build().unwrap().run().unwrap();
        let pinned = tiny_builder()
            .controller("static")
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(plain.weights, pinned.weights);
        assert_eq!(plain.metrics.total_time, pinned.metrics.total_time);
        assert_eq!(plain.metrics.messages_used, pinned.metrics.messages_used);
        assert_eq!(plain.controller_switches, 0);
        assert_eq!(plain.controller_records.len(), 8);
        assert!(plain.controller_records.iter().all(|r| !r.switched));
    }

    #[test]
    fn adaptive_k_switches_and_beats_static_under_persistent_stragglers() {
        let fixed = straggler_builder()
            .optimizer(OptimizerSpec::FixedPoint)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let adaptive = straggler_builder()
            .optimizer(OptimizerSpec::FixedPoint)
            .controller(ControllerSpec::adaptive_k(3.0))
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(adaptive.controller_switches >= 1, "must switch policy");
        assert!(
            adaptive
                .controller_records
                .iter()
                .any(|r| r.policy.policy == "fastest-k"),
            "trace must show the chosen fastest-k policy"
        );
        assert!(
            adaptive.simulated_seconds < fixed.simulated_seconds,
            "adaptive-k must cut the simulated wallclock ({} vs {})",
            adaptive.simulated_seconds,
            fixed.simulated_seconds
        );
    }

    #[test]
    fn controller_runs_replay_deterministically() {
        let run = || {
            straggler_builder()
                .controller(ControllerSpec::quantile_deadline(0.7))
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.controller_records, b.controller_records);
        assert_eq!(a.controller_switches, b.controller_switches);
    }

    #[test]
    fn adaptive_controllers_require_ssgd() {
        for mode in [ModeSpec::ssp(2), ModeSpec::named("asgd")] {
            let err = tiny_builder()
                .mode(mode)
                .controller(ControllerSpec::adaptive_k(3.0))
                .build()
                .unwrap_err();
            assert!(
                matches!(&err, BuildError::InvalidValue { field, .. } if *field == "controller"),
                "adaptive control under a stale mode must be rejected, got {err:?}"
            );
        }
        // The static controller stays legal everywhere.
        tiny_builder()
            .mode(ModeSpec::ssp(2))
            .controller("static")
            .build()
            .unwrap();
    }

    #[test]
    fn unknown_controller_is_a_typed_error() {
        let err = tiny_builder()
            .controller(ControllerSpec::named("pid"))
            .build()
            .unwrap_err();
        assert!(
            matches!(&err, BuildError::UnknownController { name, .. } if name == "pid"),
            "got {err:?}"
        );
    }

    #[test]
    fn custom_registry_schemes_run() {
        let mut reg = SchemeRegistry::builtin();
        reg.register(
            "everyone",
            "uncoded by another name",
            |_spec, m, n, _rng| {
                Ok(Box::new(bcc_coding::UncodedScheme::new(m, n)) as Box<dyn GradientCodingScheme>)
            },
        );
        let report = tiny_builder()
            .scheme(SchemeSpec::named("everyone"))
            .registry(reg)
            .build()
            .unwrap()
            .run()
            .unwrap();
        // Uncoded waits for every worker.
        assert_eq!(report.metrics.avg_recovery_threshold(), 10.0);
    }
}
