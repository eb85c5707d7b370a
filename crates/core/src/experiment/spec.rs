//! The serde-able description of one experiment.
//!
//! An [`ExperimentSpec`] is the declarative form of everything the
//! [`Experiment`](super::Experiment) builder wires: worker/unit counts, the
//! scheme (by registry name), the dataset, the latency profile, the cluster
//! backend, the loss, and the optimizer. Specs round-trip through JSON, so
//! every scenario is reproducible from a file (`repro scenario <spec.json>`)
//! with no Rust changes.
//!
//! Deserialization is forgiving: only `workers`, `units`, and `scheme` are
//! required; every other field falls back to the paper's scenario defaults
//! (see [`ExperimentSpec`] field docs). Serialization always writes every
//! field, so a *resolved* spec written next to an artifact replays exactly.

use bcc_cluster::{ClusterProfile, CommModel, WorkerProfile};
use bcc_optim::LearningRate;
use serde::{Deserialize, Serialize, Value};

/// A scheme reference: registry name plus the optional computational load.
///
/// In JSON either a bare string (`"uncoded"`) or an object
/// (`{"name": "bcc", "r": 10}`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SchemeSpec {
    /// Registry name (`"bcc"`, `"uncoded"`, `"cyclic-repetition"`, … or a
    /// custom registration).
    pub name: String,
    /// Computational load `r` in units per worker; `None` for schemes that
    /// derive it (uncoded).
    pub r: Option<usize>,
}

impl SchemeSpec {
    /// A scheme referenced by name alone.
    #[must_use]
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            r: None,
        }
    }

    /// A scheme at computational load `r`.
    #[must_use]
    pub fn with_load(name: impl Into<String>, r: usize) -> Self {
        Self {
            name: name.into(),
            r: Some(r),
        }
    }
}

impl Deserialize for SchemeSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self {
            name: reference_name(v, "scheme", "{name, r}", None)?,
            r: opt_field(v, "r")?,
        })
    }
}

/// An aggregation-policy reference: registry name plus the optional
/// parameters the built-ins take.
///
/// In JSON either a bare string (`"wait-decodable"`) or an object
/// (`{"name": "fastest-k", "k": 30}` /
/// `{"name": "deadline", "deadline": 0.15}`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PolicySpec {
    /// Registry name (`"wait-decodable"`, `"fastest-k"`, `"deadline"`,
    /// `"best-effort-all"`, or a custom registration).
    pub name: String,
    /// Arrival count for `fastest-k`-style policies.
    pub k: Option<usize>,
    /// Simulated-seconds budget for `deadline`-style policies.
    pub deadline: Option<f64>,
}

impl PolicySpec {
    /// The default policy's registry name (the paper's exact master).
    pub const DEFAULT_NAME: &'static str = "wait-decodable";

    /// A policy referenced by name alone.
    #[must_use]
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            k: None,
            deadline: None,
        }
    }

    /// The built-in `fastest-k` policy at `k` arrivals.
    #[must_use]
    pub fn fastest_k(k: usize) -> Self {
        Self {
            name: "fastest-k".into(),
            k: Some(k),
            deadline: None,
        }
    }

    /// The built-in `deadline` policy with a budget of `seconds` simulated
    /// seconds.
    #[must_use]
    pub fn deadline(seconds: f64) -> Self {
        Self {
            name: "deadline".into(),
            k: None,
            deadline: Some(seconds),
        }
    }

    /// Whether this is the legacy default ([`Self::DEFAULT_NAME`]) — the
    /// configuration under which every artifact replays byte-identically
    /// to the pre-policy engine.
    #[must_use]
    pub fn is_default(&self) -> bool {
        self.name == Self::DEFAULT_NAME
    }
}

impl Default for PolicySpec {
    fn default() -> Self {
        Self::named(Self::DEFAULT_NAME)
    }
}

impl Deserialize for PolicySpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self {
            name: reference_name(v, "policy", "{name, k?, deadline?}", None)?,
            k: opt_field(v, "k")?,
            deadline: opt_field(v, "deadline")?,
        })
    }
}

/// A training-mode reference: registry name plus the optional parameters
/// the built-ins take.
///
/// In JSON either a bare string (`"ssgd"`) or an object
/// (`{"name": "ssp", "staleness": 4}`). The bare-string form only
/// admits the built-in names (a typo should fail at parse time, naming the
/// valid variants); the object form passes any name through to the
/// [`ModeRegistry`](super::ModeRegistry), so custom registrations stay
/// reachable from spec files.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ModeSpec {
    /// Registry name (`"ssgd"`, `"ssp"`, `"asgd"`, or a custom
    /// registration).
    pub name: String,
    /// Staleness bound for `ssp`-style modes.
    pub staleness: Option<usize>,
}

impl ModeSpec {
    /// The default mode's registry name (the paper's synchronous rounds).
    pub const DEFAULT_NAME: &'static str = "ssgd";

    /// A mode referenced by name alone.
    #[must_use]
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            staleness: None,
        }
    }

    /// The built-in `ssp` mode with a staleness bound of `staleness`
    /// rounds.
    #[must_use]
    pub fn ssp(staleness: usize) -> Self {
        Self {
            name: "ssp".into(),
            staleness: Some(staleness),
        }
    }

    /// Whether this is the default ([`Self::DEFAULT_NAME`]) — the plain
    /// synchronous round loop, under which every pre-mode artifact replays
    /// byte-identically.
    #[must_use]
    pub fn is_default(&self) -> bool {
        self.name == Self::DEFAULT_NAME
    }
}

impl Default for ModeSpec {
    fn default() -> Self {
        Self::named(Self::DEFAULT_NAME)
    }
}

impl From<&str> for ModeSpec {
    fn from(name: &str) -> Self {
        Self::named(name)
    }
}

impl From<String> for ModeSpec {
    fn from(name: String) -> Self {
        Self::named(name)
    }
}

impl Deserialize for ModeSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let shape = "{name, staleness?}";
        Ok(Self {
            name: reference_name(v, "mode", shape, Some(&bcc_cluster::mode::MODES))?,
            staleness: opt_field(v, "staleness")?,
        })
    }
}

/// A straggler-controller reference: registry name plus the optional tuning
/// parameters the built-ins take.
///
/// In JSON either a bare string (`"adaptive-k"`) or an object
/// (`{"name": "quantile-deadline", "q": 0.7, "margin": 3.0}`). The
/// bare-string form only admits the built-in names (a typo should fail at
/// parse time, naming the valid variants); the object form passes any name
/// through to the [`ControllerRegistry`](super::ControllerRegistry), so
/// custom registrations stay reachable from spec files.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ControllerSpec {
    /// Registry name (`"static"`, `"quantile-deadline"`, `"adaptive-k"`,
    /// or a custom registration).
    pub name: String,
    /// Compute-time quantile `quantile-deadline` tracks.
    pub q: Option<f64>,
    /// Budget multiplier for `quantile-deadline` (absorbs communication
    /// time on top of compute).
    pub margin: Option<f64>,
    /// Rounds to observe before acting (`quantile-deadline`,
    /// `adaptive-k`).
    pub warmup: Option<u64>,
    /// EWMA multiple of the median that marks a worker slow
    /// (`adaptive-k`).
    pub slow_factor: Option<f64>,
}

impl ControllerSpec {
    /// The default controller's registry name (the no-op, pinned
    /// bit-identical to uncontrolled runs).
    pub const DEFAULT_NAME: &'static str = "static";

    /// A controller referenced by name alone.
    #[must_use]
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            q: None,
            margin: None,
            warmup: None,
            slow_factor: None,
        }
    }

    /// The built-in `quantile-deadline` controller tracking quantile `q`.
    #[must_use]
    pub fn quantile_deadline(q: f64) -> Self {
        Self {
            q: Some(q),
            ..Self::named("quantile-deadline")
        }
    }

    /// The built-in `adaptive-k` controller marking workers slow at
    /// `slow_factor ×` the median EWMA.
    #[must_use]
    pub fn adaptive_k(slow_factor: f64) -> Self {
        Self {
            slow_factor: Some(slow_factor),
            ..Self::named("adaptive-k")
        }
    }

    /// Whether this is the no-op default ([`Self::DEFAULT_NAME`]) — the
    /// configuration under which every artifact replays byte-identically
    /// to uncontrolled runs (no switchable policy is even installed).
    #[must_use]
    pub fn is_default(&self) -> bool {
        self.name == Self::DEFAULT_NAME
    }
}

impl Default for ControllerSpec {
    fn default() -> Self {
        Self::named(Self::DEFAULT_NAME)
    }
}

impl From<&str> for ControllerSpec {
    fn from(name: &str) -> Self {
        Self::named(name)
    }
}

impl From<String> for ControllerSpec {
    fn from(name: String) -> Self {
        Self::named(name)
    }
}

impl Deserialize for ControllerSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let shape = "{name, q?, margin?, warmup?, slow_factor?}";
        Ok(Self {
            name: reference_name(v, "controller", shape, Some(&bcc_control::CONTROLLERS))?,
            q: opt_field(v, "q")?,
            margin: opt_field(v, "margin")?,
            warmup: opt_field(v, "warmup")?,
            slow_factor: opt_field(v, "slow_factor")?,
        })
    }
}

/// Where the training data comes from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum DataSpec {
    /// The paper's synthetic logistic model (§III-C), sized per coding unit.
    Synthetic {
        /// Data points per coding unit (paper: 100).
        points_per_unit: usize,
        /// Feature dimension.
        dim: usize,
        /// Class separation of the generative model.
        separation: f64,
        /// Units sampled per round: `Some(k)` makes every round a
        /// stochastic minibatch over `k` of the `units` coding units
        /// (seeded, replayable — see [`bcc_cluster::Minibatch`]); `None`
        /// is the paper's full-partition round. Validated against the
        /// spec's unit count (`1 ≤ k ≤ units`).
        minibatch: Option<usize>,
    },
}

impl DataSpec {
    /// The paper's per-unit batch shape at a laptop-friendly dimension.
    #[must_use]
    pub fn synthetic(points_per_unit: usize, dim: usize) -> Self {
        Self::Synthetic {
            points_per_unit,
            dim,
            separation: 1.5,
            minibatch: None,
        }
    }

    /// The same data, with rounds sampling `units_per_round` units instead
    /// of the full partition.
    #[must_use]
    pub fn with_minibatch(self, units_per_round: usize) -> Self {
        match self {
            Self::Synthetic {
                points_per_unit,
                dim,
                separation,
                ..
            } => Self::Synthetic {
                points_per_unit,
                dim,
                separation,
                minibatch: Some(units_per_round),
            },
        }
    }

    /// `(num_examples, dim)` for a problem with `units` coding units.
    #[must_use]
    pub fn shape(&self, units: usize) -> (usize, usize) {
        match *self {
            Self::Synthetic {
                points_per_unit,
                dim,
                ..
            } => (units * points_per_unit, dim),
        }
    }

    /// Units sampled per round; `None` for full-partition rounds.
    #[must_use]
    pub fn minibatch(&self) -> Option<usize> {
        match *self {
            Self::Synthetic { minibatch, .. } => minibatch,
        }
    }
}

impl Default for DataSpec {
    fn default() -> Self {
        Self::synthetic(100, 100)
    }
}

// Manual impl so pre-minibatch spec files (no `minibatch` key) keep
// parsing — the derived impl errors on absent fields.
impl Deserialize for DataSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let inner = match v {
            Value::Object(fields) if fields.len() == 1 && fields[0].0 == "Synthetic" => {
                &fields[0].1
            }
            other => {
                return Err(serde::Error::msg(format!(
                    "expected {{Synthetic: {{…}}}} data spec, got {other:?}"
                )))
            }
        };
        Ok(Self::Synthetic {
            points_per_unit: required(inner, "points_per_unit")?,
            dim: required(inner, "dim")?,
            separation: opt_field(inner, "separation")?.unwrap_or(1.5),
            minibatch: opt_field(inner, "minibatch")?,
        })
    }
}

/// The worker-latency and master-link model.
///
/// The first four variants describe the paper's shift-exponential family
/// over different cluster shapes; the remaining four select members of the
/// [straggler-model zoo](bcc_cluster::straggler) — alternative compute-time
/// distributions evaluated under the same protocol, link model, and seeded
/// streams.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum LatencySpec {
    /// [`ClusterProfile::ec2_like`] — the Tables I/II regime.
    #[default]
    Ec2Like,
    /// [`ClusterProfile::fig5_heterogeneous`] — §IV's 95-slow/5-fast cluster.
    Fig5Heterogeneous,
    /// Homogeneous workers with an explicit link model.
    Homogeneous {
        /// Straggling parameter `μ` (larger ⇒ lighter tail).
        mu: f64,
        /// Deterministic per-unit shift `a`.
        a: f64,
        /// Fixed per-message overhead at the master (seconds).
        per_message_overhead: f64,
        /// Seconds per communication unit at the master.
        per_unit: f64,
    },
    /// Fully explicit per-worker profiles (must match the spec's worker
    /// count).
    Explicit {
        /// One profile per worker.
        workers: Vec<WorkerProfile>,
        /// The master's receive link.
        comm: CommModel,
    },
    /// Heavy-tailed Pareto compute
    /// ([`ParetoModel`](bcc_cluster::ParetoModel)):
    /// `T = load · Pareto(scale, shape)`.
    Pareto {
        /// Tail index `α > 0` (smaller ⇒ heavier tail; mean finite only
        /// for `shape > 1`).
        shape: f64,
        /// Minimum compute seconds per unit of load (`scale > 0`).
        scale: f64,
        /// Fixed per-message overhead at the master (seconds).
        per_message_overhead: f64,
        /// Seconds per communication unit at the master.
        per_unit: f64,
    },
    /// Weibull compute ([`WeibullModel`](bcc_cluster::WeibullModel)):
    /// `T = load · (shift + Weibull(scale, shape))`.
    Weibull {
        /// Shape `k > 0` (`k < 1` stretches the tail, `k ≫ 1` is
        /// near-deterministic).
        shape: f64,
        /// Weibull scale `λ > 0`, seconds per unit of load.
        scale: f64,
        /// Deterministic per-unit shift (seconds, `≥ 0`).
        shift: f64,
        /// Fixed per-message overhead at the master (seconds).
        per_message_overhead: f64,
        /// Seconds per communication unit at the master.
        per_unit: f64,
    },
    /// Bimodal persistent stragglers
    /// ([`BimodalModel`](bcc_cluster::BimodalModel)): workers
    /// `0..slow_workers` straggle with probability `slow_probability` per
    /// round at factor `slowdown` over a homogeneous shift-exponential
    /// base.
    Bimodal {
        /// Base straggling parameter `μ` of every worker.
        mu: f64,
        /// Base deterministic per-unit shift `a`.
        a: f64,
        /// Size of the fixed slow subset (`≤` the spec's worker count).
        slow_workers: usize,
        /// Per-round probability a slow-set worker straggles (`[0, 1]`).
        slow_probability: f64,
        /// Compute-time multiplier in a slow round (`> 0`).
        slowdown: f64,
        /// Fixed per-message overhead at the master (seconds).
        per_message_overhead: f64,
        /// Seconds per communication unit at the master.
        per_unit: f64,
    },
    /// Markov time-correlated stragglers
    /// ([`MarkovModel`](bcc_cluster::MarkovModel)): each worker carries a
    /// fast/slow two-state chain across rounds over a homogeneous
    /// shift-exponential base.
    Markov {
        /// Base straggling parameter `μ` of every worker.
        mu: f64,
        /// Base deterministic per-unit shift `a`.
        a: f64,
        /// Transition probability fast→slow (`[0, 1]`).
        p_slow: f64,
        /// Transition probability slow→fast (`[0, 1]`).
        p_recover: f64,
        /// Compute-time multiplier while slow (`> 0`).
        slowdown: f64,
        /// Fixed per-message overhead at the master (seconds).
        per_message_overhead: f64,
        /// Seconds per communication unit at the master.
        per_unit: f64,
    },
}

impl LatencySpec {
    /// Captures an existing [`ClusterProfile`] as an explicit spec.
    #[must_use]
    pub fn from_profile(profile: &ClusterProfile) -> Self {
        Self::Explicit {
            workers: profile.workers.clone(),
            comm: profile.comm,
        }
    }

    /// Short zoo name of the latency family (`"shifted-exp"`, `"pareto"`,
    /// `"weibull"`, `"bimodal"`, `"markov"`) — matches
    /// [`StragglerModel::name`](bcc_cluster::StragglerModel::name) of the
    /// resolved model.
    #[must_use]
    pub fn model_name(&self) -> &'static str {
        match self {
            Self::Ec2Like
            | Self::Fig5Heterogeneous
            | Self::Homogeneous { .. }
            | Self::Explicit { .. } => "shifted-exp",
            Self::Pareto { .. } => "pareto",
            Self::Weibull { .. } => "weibull",
            Self::Bimodal { .. } => "bimodal",
            Self::Markov { .. } => "markov",
        }
    }
}

/// Deterministic WAN-link emulation for the networked backend.
///
/// Adds a fixed per-link latency plus bounded, quantized jitter to every
/// worker's compute delay (see [`WanLinkModel`](bcc_cluster::WanLinkModel)).
/// The extra delay is sampled from the experiment's seed, so a WAN run
/// replays bit-identically across backends and hosts — this emulates wide
/// links, it does not measure the real network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetProfileSpec {
    /// Fixed one-way link latency added per round (simulated seconds, ≥ 0).
    pub latency: f64,
    /// Peak deterministic jitter on top of `latency` (simulated seconds,
    /// ≥ 0; quantized to a few steps so arrival order stays reproducible).
    pub jitter: f64,
}

/// Which cluster runtime executes the rounds.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub enum BackendSpec {
    /// The deterministic DES runtime (`VirtualCluster`) — figures/sweeps.
    #[default]
    Virtual,
    /// The OS-thread runtime (`ThreadedCluster`) with real wire messages.
    Threaded {
        /// Wall seconds per simulated second of injected latency.
        time_scale: f64,
    },
    /// The networked runtime (`bcc_net`): a TCP master speaking the
    /// length-prefixed frame protocol to workers over real sockets.
    Tcp {
        /// Wall seconds per simulated second of injected latency.
        time_scale: f64,
        /// Listen address for external `bcc-worker` processes
        /// (e.g. `"127.0.0.1:4400"`). `None` runs an in-process loopback
        /// fleet (`bcc_net::LocalNetCluster`) — every byte still crosses
        /// a kernel TCP socket, but no processes need launching.
        addr: Option<String>,
        /// Optional WAN-link emulation layered over the latency model.
        wan: Option<NetProfileSpec>,
    },
}

impl BackendSpec {
    /// The valid backend names, for error messages and `repro list`.
    pub const VARIANTS: &'static str = "Virtual, Threaded, Tcp";

    /// The loopback TCP backend (in-process worker fleet on `127.0.0.1`).
    #[must_use]
    pub fn tcp_loopback(time_scale: f64) -> Self {
        Self::Tcp {
            time_scale,
            addr: None,
            wan: None,
        }
    }
}

// Manual impl so an unknown backend names the valid variants instead of
// the derive's generic error, and so `addr` stays optional in JSON.
impl Deserialize for BackendSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let unknown = |other: &str| {
            serde::Error::msg(format!(
                "unknown backend `{other}`: expected one of {}",
                Self::VARIANTS
            ))
        };
        match v {
            Value::Str(name) if name == "Virtual" => Ok(Self::Virtual),
            Value::Str(other) => Err(unknown(other)),
            Value::Object(fields) if fields.len() == 1 => {
                let (tag, inner) = &fields[0];
                match tag.as_str() {
                    "Virtual" => Ok(Self::Virtual),
                    "Threaded" => Ok(Self::Threaded {
                        time_scale: required(inner, "time_scale")?,
                    }),
                    "Tcp" => Ok(Self::Tcp {
                        time_scale: required(inner, "time_scale")?,
                        addr: opt_field(inner, "addr")?,
                        wan: opt_field(inner, "wan")?,
                    }),
                    other => Err(unknown(other)),
                }
            }
            other => Err(serde::Error::msg(format!(
                "expected backend name or single-variant object, got {other:?}"
            ))),
        }
    }
}

/// The per-example loss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum LossSpec {
    /// Logistic loss in the paper's ±1 convention.
    #[default]
    Logistic,
    /// Squared loss.
    Squared,
}

/// The gradient consumer driving the rounds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerSpec {
    /// Nesterov's accelerated method (the paper's optimizer).
    Nesterov {
        /// Learning-rate schedule.
        rate: LearningRate,
    },
    /// Vanilla gradient descent.
    GradientDescent {
        /// Learning-rate schedule.
        rate: LearningRate,
    },
    /// No optimizer: broadcast `w = 0` every round. Isolates the round
    /// process itself — recovery thresholds, loads, and times — from the
    /// optimization trajectory (the ablations' measurement mode).
    FixedPoint,
}

impl OptimizerSpec {
    /// Nesterov at a constant rate — the paper's configuration.
    #[must_use]
    pub fn nesterov(rate: f64) -> Self {
        Self::Nesterov {
            rate: LearningRate::Constant(rate),
        }
    }
}

impl Default for OptimizerSpec {
    fn default() -> Self {
        Self::nesterov(0.5)
    }
}

/// Declarative description of one experiment — the unit `repro scenario`
/// replays from JSON and the [`Experiment`](super::Experiment) builder
/// validates and runs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExperimentSpec {
    /// Display name (defaults to `"experiment"`).
    pub name: String,
    /// Number of workers `n` (required).
    pub workers: usize,
    /// Number of coding units `m` (required).
    pub units: usize,
    /// The scheme, by registry name (required).
    pub scheme: SchemeSpec,
    /// Dataset (default: synthetic, 100 points/unit × 100 features).
    pub data: DataSpec,
    /// Latency model (default: EC2-like).
    pub latency: LatencySpec,
    /// Cluster runtime (default: virtual DES).
    pub backend: BackendSpec,
    /// Loss (default: logistic).
    pub loss: LossSpec,
    /// Optimizer (default: Nesterov at constant rate 0.5).
    pub optimizer: OptimizerSpec,
    /// Aggregation policy deciding round completion and the returned
    /// gradient (default: `wait-decodable`, the paper's exact master —
    /// byte-identical to the pre-policy engine).
    pub policy: PolicySpec,
    /// Training mode relating rounds to optimizer steps (default: `ssgd`,
    /// the paper's synchronous protocol — the plain round loop).
    pub mode: ModeSpec,
    /// Straggler controller re-tuning the aggregation policy between
    /// rounds (default: `static`, the no-op — byte-identical to
    /// uncontrolled runs).
    pub controller: ControllerSpec,
    /// GD iterations / measured rounds (default: 100, the paper's count).
    pub iterations: usize,
    /// Record the empirical risk each iteration (default: true).
    pub record_risk: bool,
    /// Master seed; data, scheme placement, and backend latency streams all
    /// derive deterministically from it (default: 2024).
    pub seed: u64,
}

impl ExperimentSpec {
    /// Default display name.
    pub const DEFAULT_NAME: &'static str = "experiment";
    /// Default iteration count (the paper runs 100).
    pub const DEFAULT_ITERATIONS: usize = 100;
    /// Risk recording defaults to on.
    pub const DEFAULT_RECORD_RISK: bool = true;
    /// Default master seed.
    pub const DEFAULT_SEED: u64 = 2024;

    /// A spec from the three required fields, everything else at the paper
    /// defaults — the single source both the builder and the JSON
    /// deserializer fill from.
    #[must_use]
    pub fn with_required(workers: usize, units: usize, scheme: SchemeSpec) -> Self {
        Self {
            name: Self::DEFAULT_NAME.into(),
            workers,
            units,
            scheme,
            data: DataSpec::default(),
            latency: LatencySpec::default(),
            backend: BackendSpec::default(),
            loss: LossSpec::default(),
            optimizer: OptimizerSpec::default(),
            policy: PolicySpec::default(),
            mode: ModeSpec::default(),
            controller: ControllerSpec::default(),
            iterations: Self::DEFAULT_ITERATIONS,
            record_risk: Self::DEFAULT_RECORD_RISK,
            seed: Self::DEFAULT_SEED,
        }
    }

    /// Serializes to pretty-printed JSON.
    ///
    /// # Errors
    /// Propagates serializer failures.
    pub fn to_json_pretty(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a spec from JSON (missing optional fields take defaults).
    ///
    /// # Errors
    /// On malformed JSON or a shape that misses a required field.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

impl Deserialize for ExperimentSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        if !matches!(v, Value::Object(_)) {
            return Err(serde::Error::msg(format!(
                "expected experiment object, got {v:?}"
            )));
        }
        let defaults = Self::with_required(
            required(v, "workers")?,
            required(v, "units")?,
            required(v, "scheme")?,
        );
        Ok(Self {
            name: opt_field(v, "name")?.unwrap_or(defaults.name),
            data: opt_field(v, "data")?.unwrap_or(defaults.data),
            latency: opt_field(v, "latency")?.unwrap_or(defaults.latency),
            backend: opt_field(v, "backend")?.unwrap_or(defaults.backend),
            loss: opt_field(v, "loss")?.unwrap_or(defaults.loss),
            optimizer: opt_field(v, "optimizer")?.unwrap_or(defaults.optimizer),
            policy: opt_field(v, "policy")?.unwrap_or(defaults.policy),
            mode: opt_field(v, "mode")?.unwrap_or(defaults.mode),
            controller: opt_field(v, "controller")?.unwrap_or(defaults.controller),
            iterations: opt_field(v, "iterations")?.unwrap_or(defaults.iterations),
            record_risk: opt_field(v, "record_risk")?.unwrap_or(defaults.record_risk),
            seed: opt_field(v, "seed")?.unwrap_or(defaults.seed),
            workers: defaults.workers,
            units: defaults.units,
            scheme: defaults.scheme,
        })
    }
}

/// The registry name of a plug-in reference — the JSON shape the four
/// `*Spec` reference types share: a bare name (every parameter then reads
/// as absent) or an object carrying `name` next to the parameters `shape`
/// spells out. With a `(name, description)` table of `builtins`, a bare
/// name must be in it — a typo fails at parse time, naming the valid
/// variants — while the object form passes any name through to the
/// registry.
fn reference_name(
    v: &Value,
    kind: &str,
    shape: &str,
    builtins: Option<&[(&str, &str)]>,
) -> Result<String, serde::Error> {
    match (v, builtins) {
        (Value::Str(name), Some(table)) if !table.iter().any(|(n, _)| n == name) => {
            let variants: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            Err(serde::Error::msg(format!(
                "unknown {kind} `{name}`: expected one of {}",
                variants.join(", ")
            )))
        }
        (Value::Str(name), _) => Ok(name.clone()),
        (Value::Object(_), _) => String::from_value(v.field("name")?),
        (other, _) => Err(serde::Error::msg(format!(
            "expected {kind} name or {shape} object, got {other:?}"
        ))),
    }
}

/// A required spec field: absent or null is an error.
fn required<T: Deserialize>(v: &Value, key: &str) -> Result<T, serde::Error> {
    opt_field(v, key)?.ok_or_else(|| serde::Error::msg(format!("missing field `{key}`")))
}

/// An optional spec field: absent and `null` both read as `None`.
fn opt_field<T: Deserialize>(v: &Value, key: &str) -> Result<Option<T>, serde::Error> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => T::from_value(x).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_takes_defaults() {
        let spec =
            ExperimentSpec::from_json(r#"{"workers": 10, "units": 10, "scheme": "uncoded"}"#)
                .unwrap();
        assert_eq!(spec.workers, 10);
        assert_eq!(spec.scheme, SchemeSpec::named("uncoded"));
        assert_eq!(spec.name, "experiment");
        assert_eq!(spec.iterations, 100);
        assert_eq!(spec.latency, LatencySpec::Ec2Like);
        assert_eq!(spec.backend, BackendSpec::Virtual);
        assert!(spec.record_risk);
        assert_eq!(spec.seed, 2024);
        assert_eq!(spec.policy, PolicySpec::named("wait-decodable"));
        assert!(spec.policy.is_default());
        assert_eq!(spec.mode, ModeSpec::named("ssgd"));
        assert!(spec.mode.is_default());
        assert_eq!(spec.controller, ControllerSpec::named("static"));
        assert!(spec.controller.is_default());
    }

    #[test]
    fn controller_accepts_string_or_object() {
        let c: ControllerSpec = serde_json::from_str(r#""adaptive-k""#).unwrap();
        assert_eq!(c, ControllerSpec::named("adaptive-k"));
        let c: ControllerSpec =
            serde_json::from_str(r#"{"name": "quantile-deadline", "q": 0.7, "margin": 3.0}"#)
                .unwrap();
        assert_eq!(
            c,
            ControllerSpec {
                margin: Some(3.0),
                ..ControllerSpec::quantile_deadline(0.7)
            }
        );
        let c: ControllerSpec =
            serde_json::from_str(r#"{"name": "adaptive-k", "slow_factor": 2.5}"#).unwrap();
        assert_eq!(c, ControllerSpec::adaptive_k(2.5));
        // The object form defers name resolution to the registry, so custom
        // registrations stay reachable from spec files.
        let c: ControllerSpec = serde_json::from_str(r#"{"name": "my-controller"}"#).unwrap();
        assert_eq!(c, ControllerSpec::named("my-controller"));
    }

    /// The built-in names of a `(name, description)` table the way a
    /// parse error lists them.
    fn variants(table: &[(&str, &str)]) -> String {
        let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
        names.join(", ")
    }

    #[test]
    fn unknown_bare_controller_error_names_valid_variants() {
        let expected = variants(&bcc_control::CONTROLLERS);
        let err = serde_json::from_str::<ControllerSpec>(r#""pid""#).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown controller `pid`"), "got: {msg}");
        assert!(msg.contains(&expected), "got: {msg}");
        let err = ExperimentSpec::from_json(
            r#"{"workers": 4, "units": 4, "scheme": "uncoded", "controller": "pid"}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains(&expected));
    }

    #[test]
    fn mode_accepts_string_or_object() {
        let m: ModeSpec = serde_json::from_str(r#""asgd""#).unwrap();
        assert_eq!(m, ModeSpec::named("asgd"));
        let m: ModeSpec = serde_json::from_str(r#"{"name": "ssp", "staleness": 4}"#).unwrap();
        assert_eq!(m, ModeSpec::ssp(4));
        // A field the spec no longer has, written as null by an older
        // generator, reads as absent.
        let m: ModeSpec =
            serde_json::from_str(r#"{"name": "ssp", "staleness": 4, "retired": null}"#).unwrap();
        assert_eq!(m, ModeSpec::ssp(4));
        // The object form defers name resolution to the registry, so custom
        // registrations stay reachable from spec files.
        let m: ModeSpec = serde_json::from_str(r#"{"name": "my-mode"}"#).unwrap();
        assert_eq!(m, ModeSpec::named("my-mode"));
    }

    #[test]
    fn unknown_bare_mode_error_names_valid_variants() {
        let expected = variants(&bcc_cluster::mode::MODES);
        let err = serde_json::from_str::<ModeSpec>(r#""hogwild""#).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown mode `hogwild`"), "got: {msg}");
        assert!(msg.contains(&expected), "got: {msg}");
        let err = ExperimentSpec::from_json(
            r#"{"workers": 4, "units": 4, "scheme": "uncoded", "mode": "hogwild"}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains(&expected));
    }

    #[test]
    fn policy_accepts_string_or_object() {
        let p: PolicySpec = serde_json::from_str(r#""best-effort-all""#).unwrap();
        assert_eq!(p, PolicySpec::named("best-effort-all"));
        let p: PolicySpec = serde_json::from_str(r#"{"name": "fastest-k", "k": 12}"#).unwrap();
        assert_eq!(p, PolicySpec::fastest_k(12));
        let p: PolicySpec =
            serde_json::from_str(r#"{"name": "deadline", "deadline": 0.25}"#).unwrap();
        assert_eq!(p, PolicySpec::deadline(0.25));
    }

    #[test]
    fn scheme_accepts_string_or_object() {
        let s: SchemeSpec = serde_json::from_str(r#""bcc""#).unwrap();
        assert_eq!(s, SchemeSpec::named("bcc"));
        let s: SchemeSpec = serde_json::from_str(r#"{"name": "bcc", "r": 10}"#).unwrap();
        assert_eq!(s, SchemeSpec::with_load("bcc", 10));
    }

    #[test]
    fn data_spec_without_minibatch_key_parses() {
        // Pre-minibatch spec files must keep replaying unchanged.
        let d: DataSpec = serde_json::from_str(
            r#"{"Synthetic": {"points_per_unit": 100, "dim": 50, "separation": 1.5}}"#,
        )
        .unwrap();
        assert_eq!(d, DataSpec::synthetic(100, 50));
        assert_eq!(d.minibatch(), None);
    }

    #[test]
    fn data_spec_minibatch_roundtrips() {
        let d = DataSpec::synthetic(100, 50).with_minibatch(7);
        let json = serde_json::to_string(&d).unwrap();
        let back: DataSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.minibatch(), Some(7));
    }

    #[test]
    fn missing_required_field_is_an_error() {
        let err = ExperimentSpec::from_json(r#"{"workers": 10, "units": 10}"#).unwrap_err();
        assert!(err.to_string().contains("scheme"));
    }

    #[test]
    fn full_spec_roundtrips() {
        let spec = ExperimentSpec {
            name: "rt".into(),
            workers: 12,
            units: 12,
            scheme: SchemeSpec::with_load("cyclic-repetition", 3),
            data: DataSpec::synthetic(7, 5),
            latency: LatencySpec::Homogeneous {
                mu: 2.0,
                a: 0.01,
                per_message_overhead: 0.001,
                per_unit: 0.004,
            },
            backend: BackendSpec::Threaded { time_scale: 0.01 },
            loss: LossSpec::Squared,
            optimizer: OptimizerSpec::GradientDescent {
                rate: LearningRate::InverseSqrt { initial: 0.2 },
            },
            policy: PolicySpec::fastest_k(7),
            mode: ModeSpec::ssp(3),
            controller: ControllerSpec {
                margin: Some(2.5),
                warmup: Some(4),
                ..ControllerSpec::quantile_deadline(0.8)
            },
            iterations: 17,
            record_risk: false,
            seed: u64::MAX,
        };
        let json = spec.to_json_pretty().unwrap();
        let back = ExperimentSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn tcp_backend_roundtrips_with_and_without_addr() {
        let loopback = BackendSpec::tcp_loopback(0.02);
        let json = serde_json::to_string(&loopback).unwrap();
        let back: BackendSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, loopback);

        let bound = BackendSpec::Tcp {
            time_scale: 1.0,
            addr: Some("127.0.0.1:4400".into()),
            wan: None,
        };
        let json = serde_json::to_string(&bound).unwrap();
        let back: BackendSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, bound);

        let wan = BackendSpec::Tcp {
            time_scale: 0.05,
            addr: None,
            wan: Some(NetProfileSpec {
                latency: 0.04,
                jitter: 0.01,
            }),
        };
        let json = serde_json::to_string(&wan).unwrap();
        let back: BackendSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, wan);

        // `addr` and `wan` are optional in hand-written spec files.
        let b: BackendSpec = serde_json::from_str(r#"{"Tcp": {"time_scale": 1.0}}"#).unwrap();
        assert_eq!(b, BackendSpec::tcp_loopback(1.0));
    }

    #[test]
    fn unknown_backend_error_names_valid_variants() {
        for json in [r#""Quantum""#, r#"{"Quantum": {"time_scale": 1.0}}"#] {
            let err = serde_json::from_str::<BackendSpec>(json).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("unknown backend `Quantum`"), "got: {msg}");
            assert!(msg.contains("Virtual, Threaded, Tcp"), "got: {msg}");
        }
        let err = ExperimentSpec::from_json(
            r#"{"workers": 4, "units": 4, "scheme": "uncoded", "backend": "Quantum"}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("Virtual, Threaded, Tcp"));
    }

    #[test]
    fn explicit_latency_roundtrips() {
        let spec = LatencySpec::from_profile(&ClusterProfile::ec2_like(3));
        let json = serde_json::to_string(&spec).unwrap();
        let back: LatencySpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }
}
