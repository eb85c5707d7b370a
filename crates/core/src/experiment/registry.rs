//! The open scheme, aggregation-policy, training-mode, and
//! straggler-controller registries: name → (description, factory).
//!
//! One generic [`Registry`] owns the map and everything the four kinds
//! share — `empty` / `contains` / `names` / `descriptions`, the lookup that
//! answers an unknown name with the registered ones, `Default` = built-ins.
//! [`SchemeRegistry`], [`PolicyRegistry`], [`ModeRegistry`] and
//! [`ControllerRegistry`] are aliases of it; per kind there is only the
//! factory signature (`register` / `build`) and the built-in registrations:
//! the paper's comparison set (six [`bcc_coding`] schemes), the four members
//! of [`bcc_cluster::policy`], the three of [`bcc_cluster::mode`] and the
//! four of [`bcc_control`]. A built-in is one `register` call in its kind's
//! `builtin()` — nothing else in the workspace lists the names — so a new
//! scheme is one file in `crates/coding/src` plus one `register` line here.
//!
//! Downstream code extends any kind by registering its own factory under a
//! new name and handing the registry to the builder
//! ([`ExperimentBuilder::registry`](super::ExperimentBuilder::registry) /
//! [`policy_registry`](super::ExperimentBuilder::policy_registry) /
//! [`mode_registry`](super::ExperimentBuilder::mode_registry) /
//! [`controller_registry`](super::ExperimentBuilder::controller_registry))
//! or, as one [`Registries`] bundle, to
//! [`Experiment::from_spec_with`](super::Experiment::from_spec_with) — spec
//! files can then name custom schemes, policies, modes, and controllers
//! with no changes here.

use super::error::BuildError;
use super::spec::{ControllerSpec, ModeSpec, PolicySpec, SchemeSpec};
use bcc_cluster::{
    AggregationPolicy, Asgd, BestEffortAll, Deadline, FastestK, Ssgd, Ssp, TrainingMode,
    WaitDecodable,
};
use bcc_coding::{
    BccScheme, CyclicRepetitionScheme, FractionalRepetitionScheme, GradientCodingScheme,
    RandomSubsetScheme, UncodedScheme, UncompressedBccScheme,
};
use bcc_control::{AdaptiveK, Controller, QuantileDeadline, StaticController};
use rand::RngCore;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::sync::Arc;

mod kind {
    use super::{BuildError, Registry};

    /// What the one [`Registry`] is generic over — implemented by the four
    /// spec types, and by nothing outside this module.
    pub trait Kind: Sized {
        /// The kind's noun in validation messages (`"policy"`, …).
        const NOUN: &'static str;
        /// The factory signature entries of this kind are stored under.
        type Factory: ?Sized;
        /// The registry name a spec of this kind asks for.
        fn name(&self) -> &str;
        /// The kind's `Unknown…` error.
        fn unknown(name: String, known: Vec<String>) -> BuildError;
        /// The built-in registrations.
        fn builtin() -> Registry<Self>;
    }

    /// A [`Kind`] whose parameters are optional spec fields — policies,
    /// modes and controllers.
    pub trait Params: Kind {
        /// Every parameter field of the kind, by its qualified name
        /// (`"policy.k"`, …), with whether this spec sets it.
        fn params(&self) -> Vec<(&'static str, bool)>;
    }
}
use kind::{Kind, Params};

/// Name → (one-line description, factory) map resolving the specs of one
/// plug-in kind to instances.
pub struct Registry<S: Kind> {
    entries: BTreeMap<String, (String, Arc<S::Factory>)>,
}

impl<S: Kind> Registry<S> {
    /// A registry with no registrations.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            entries: BTreeMap::new(),
        }
    }

    /// The registry with every built-in of this kind registered under its
    /// report name.
    #[must_use]
    pub fn builtin() -> Self {
        S::builtin()
    }

    /// Whether `name` resolves.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Every registered name, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Every `(name, description)` pair, sorted by name (shown by
    /// `repro list`).
    #[must_use]
    pub fn descriptions(&self) -> Vec<(String, String)> {
        self.entries
            .iter()
            .map(|(name, (desc, _))| (name.clone(), desc.clone()))
            .collect()
    }

    fn insert(
        &mut self,
        name: impl Into<String>,
        description: impl Into<String>,
        factory: Arc<S::Factory>,
    ) {
        self.entries
            .insert(name.into(), (description.into(), factory));
    }

    /// The factory `spec` names, or the kind's `Unknown…` error listing
    /// every registration.
    pub(super) fn factory(&self, spec: &S) -> Result<&Arc<S::Factory>, BuildError> {
        self.entries
            .get(spec.name())
            .map(|(_, factory)| factory)
            .ok_or_else(|| S::unknown(spec.name().to_string(), self.names()))
    }
}

impl<S: Kind> Default for Registry<S> {
    fn default() -> Self {
        S::builtin()
    }
}

impl<S: Kind> std::fmt::Debug for Registry<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("kind", &S::NOUN)
            .field("names", &self.names())
            .finish()
    }
}

/// The parameter check every built-in factory goes through: `value` (the
/// spec's field, or its documented default) must be present and satisfy
/// `ok`; `expect` says what that is.
fn param<S: Kind, T: Copy + Display>(
    spec: &S,
    field: &'static str,
    value: Option<T>,
    ok: impl Fn(T) -> bool,
    expect: &str,
) -> Result<T, BuildError> {
    let (noun, name) = (S::NOUN, spec.name());
    let reason = match value {
        Some(value) if ok(value) => return Ok(value),
        Some(value) => format!("{noun} `{name}` needs {expect}, got {value}"),
        None => format!("{noun} `{name}` requires it ({expect})"),
    };
    Err(BuildError::InvalidValue { field, reason })
}

/// The other half of every built-in factory's parameter check: the
/// parameters it reads are `reads`, and any other one `spec` sets is an
/// error rather than silently dropped.
fn reads_only<S: Params>(spec: &S, reads: &[&str]) -> Result<(), BuildError> {
    let (noun, name) = (S::NOUN, spec.name());
    match spec
        .params()
        .into_iter()
        .find(|(field, set)| *set && !reads.contains(field))
    {
        None => Ok(()),
        Some((field, _)) => Err(BuildError::InvalidValue {
            field,
            reason: format!("{noun} `{name}` does not read it"),
        }),
    }
}

/// The kinds whose factories take the spec alone — policies, modes, and
/// controllers.
impl<S, P> Registry<S>
where
    S: Kind<Factory = dyn Fn(&S) -> Result<P, BuildError> + Send + Sync>,
{
    /// Registers (or replaces) a factory under `name` with a one-line
    /// `description`.
    pub fn register<F>(
        &mut self,
        name: impl Into<String>,
        description: impl Into<String>,
        factory: F,
    ) where
        F: Fn(&S) -> Result<P, BuildError> + Send + Sync + 'static,
    {
        self.insert(name, description, Arc::new(factory));
    }

    /// Resolves and builds what `spec` describes.
    ///
    /// # Errors
    /// The kind's `Unknown…` error ([`BuildError::UnknownPolicy`] /
    /// [`UnknownMode`](BuildError::UnknownMode) /
    /// [`UnknownController`](BuildError::UnknownController)) when the name
    /// has no registration, plus whatever parameter validation the factory
    /// reports.
    pub fn build(&self, spec: &S) -> Result<P, BuildError> {
        (self.factory(spec)?)(spec)
    }
}

/// A scheme factory: builds a scheme for `m` units over `n` workers from a
/// spec, drawing any randomized placement from `rng`.
pub type SchemeFactory = dyn Fn(
        &SchemeSpec,
        usize,
        usize,
        &mut dyn RngCore,
    ) -> Result<Box<dyn GradientCodingScheme>, BuildError>
    + Send
    + Sync;

/// Resolves [`SchemeSpec`]s to scheme instances.
pub type SchemeRegistry = Registry<SchemeSpec>;

impl Kind for SchemeSpec {
    const NOUN: &'static str = "scheme";
    type Factory = SchemeFactory;

    fn name(&self) -> &str {
        &self.name
    }

    fn unknown(name: String, known: Vec<String>) -> BuildError {
        BuildError::UnknownScheme { name, known }
    }

    /// Every scheme in the paper's comparison, under its report name: one
    /// `register` per scheme, each constructing its `bcc_coding` type
    /// directly after the structural checks that type's constructor would
    /// otherwise panic on.
    fn builtin() -> SchemeRegistry {
        let mut reg = SchemeRegistry::empty();
        reg.register(
            "uncoded",
            "disjoint shards, master waits for every worker (the baseline)",
            |_spec, m, n, _rng| Ok(Box::new(UncodedScheme::new(m, n))),
        );
        reg.register(
            "bcc",
            "Batched Coupon's Collector — random batch per worker, stop on coverage (this paper)",
            |spec, m, n, rng| redraw_until_covered(spec, m, n, |r| BccScheme::new(m, n, r, rng)),
        );
        reg.register(
            "bcc-uncompressed",
            "BCC placement with per-example messages (ablation of Remark 3's compression)",
            |spec, m, n, rng| {
                redraw_until_covered(spec, m, n, |r| UncompressedBccScheme::new(m, n, r, rng))
            },
        );
        reg.register(
            "random",
            "simple randomized subsets, per-example messages (Prior Art, eq. (5)-(6))",
            |spec, m, n, rng| {
                redraw_until_covered(spec, m, n, |r| RandomSubsetScheme::new(m, n, r, rng))
            },
        );
        reg.register(
            "cyclic-repetition",
            "cyclic-window gradient coding of Tandon et al. (m = n, any n-r+1 decode)",
            |spec, m, n, rng| {
                let r = load(spec)?;
                require_square(spec, m, n)?;
                require_load_within(spec, r, n)?;
                Ok(Box::new(CyclicRepetitionScheme::try_new(n, r, rng)?))
            },
        );
        reg.register(
            "fractional-repetition",
            "disjoint shard groups replicated r times (m = n, r | n)",
            |spec, m, n, _rng| {
                let r = load(spec)?;
                require_square(spec, m, n)?;
                if r == 0 || !n.is_multiple_of(r) {
                    return Err(BuildError::LoadNotDivisor {
                        scheme: spec.name.clone(),
                        r,
                        n,
                    });
                }
                Ok(Box::new(FractionalRepetitionScheme::try_new(n, r)?))
            },
        );
        reg
    }
}

/// Placement redraws before a randomized scheme reports
/// [`BuildError::CoverageFailed`].
const COVERAGE_ATTEMPTS: usize = 10_000;

/// The computational load a loaded scheme's spec must carry.
fn load(spec: &SchemeSpec) -> Result<usize, BuildError> {
    spec.r.ok_or_else(|| BuildError::MissingLoad {
        scheme: spec.name.clone(),
    })
}

/// `m = n`: the scheme codes over one unit per worker.
fn require_square(spec: &SchemeSpec, m: usize, n: usize) -> Result<(), BuildError> {
    if m == n {
        return Ok(());
    }
    Err(BuildError::SquareRequired {
        scheme: spec.name.clone(),
        m,
        n,
    })
}

/// `0 < r ≤ bound` (the worker count for the cyclic code, the unit count
/// for the batched and randomized ones).
fn require_load_within(spec: &SchemeSpec, r: usize, bound: usize) -> Result<(), BuildError> {
    if (1..=bound).contains(&r) {
        return Ok(());
    }
    Err(BuildError::LoadOutOfRange {
        scheme: spec.name.clone(),
        r,
        bound,
    })
}

/// Runs a randomized data-distribution step at the spec's load
/// (`0 < r ≤ m`) until every unit is stored by some worker. The paper
/// assumes `n` large enough that the uncovered probability vanishes; with
/// finite `n` a re-draw is the practical equivalent, and a placement that
/// cannot cover is a typed error.
fn redraw_until_covered<S: GradientCodingScheme + 'static>(
    spec: &SchemeSpec,
    m: usize,
    n: usize,
    mut draw: impl FnMut(usize) -> S,
) -> Result<Box<dyn GradientCodingScheme>, BuildError> {
    let r = load(spec)?;
    require_load_within(spec, r, m)?;
    for _ in 0..COVERAGE_ATTEMPTS {
        let scheme = draw(r);
        if scheme.placement().covers_all() {
            return Ok(Box::new(scheme));
        }
    }
    Err(BuildError::CoverageFailed {
        scheme: spec.name.clone(),
        m,
        n,
        r,
        attempts: COVERAGE_ATTEMPTS,
    })
}

impl SchemeRegistry {
    /// Registers (or replaces) a factory under `name` with a one-line
    /// `description`.
    pub fn register<F>(
        &mut self,
        name: impl Into<String>,
        description: impl Into<String>,
        factory: F,
    ) where
        F: Fn(
                &SchemeSpec,
                usize,
                usize,
                &mut dyn RngCore,
            ) -> Result<Box<dyn GradientCodingScheme>, BuildError>
            + Send
            + Sync
            + 'static,
    {
        self.insert(name, description, Arc::new(factory));
    }

    /// Resolves and builds the scheme for `m` units over `n` workers.
    ///
    /// # Errors
    /// [`BuildError::UnknownScheme`] when the name has no registration, plus
    /// whatever constraint error the factory reports.
    pub fn build(
        &self,
        spec: &SchemeSpec,
        m: usize,
        n: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn GradientCodingScheme>, BuildError> {
        (self.factory(spec)?)(spec, m, n, rng)
    }
}

/// An aggregation-policy factory: builds the policy a [`PolicySpec`]
/// describes, validating its parameters.
pub type PolicyFactory =
    dyn Fn(&PolicySpec) -> Result<Arc<dyn AggregationPolicy>, BuildError> + Send + Sync;

/// Resolves [`PolicySpec`]s to [`AggregationPolicy`] instances.
pub type PolicyRegistry = Registry<PolicySpec>;

impl Kind for PolicySpec {
    const NOUN: &'static str = "policy";
    type Factory = PolicyFactory;

    fn name(&self) -> &str {
        &self.name
    }

    fn unknown(name: String, known: Vec<String>) -> BuildError {
        BuildError::UnknownPolicy { name, known }
    }

    /// The four policies of [`bcc_cluster::policy`].
    fn builtin() -> PolicyRegistry {
        let mut reg = PolicyRegistry::empty();
        reg.register(
            "wait-decodable",
            "exact decode: stop at the scheme's completion condition (the paper's master; default)",
            |spec| {
                reads_only(spec, &[])?;
                Ok(Arc::new(WaitDecodable) as Arc<dyn AggregationPolicy>)
            },
        );
        reg.register(
            "fastest-k",
            "stop after the fastest k arrivals; coverage-rescaled unbiased estimate (requires `k`)",
            |spec| {
                reads_only(spec, &["policy.k"])?;
                let k = param(
                    spec,
                    "policy.k",
                    spec.k,
                    |k| k >= 1,
                    "an arrival count k >= 1",
                )?;
                Ok(Arc::new(FastestK::new(k)) as Arc<dyn AggregationPolicy>)
            },
        );
        reg.register(
            "deadline",
            "cut the round off at a simulated-time budget; rescaled partial gradient (requires `deadline`)",
            |spec| {
                reads_only(spec, &["policy.deadline"])?;
                let d = param(
                    spec,
                    "policy.deadline",
                    spec.deadline,
                    |d: f64| d.is_finite() && d > 0.0,
                    "a positive finite budget in simulated seconds",
                )?;
                Ok(Arc::new(Deadline::new(d)) as Arc<dyn AggregationPolicy>)
            },
        );
        reg.register(
            "best-effort-all",
            "drain every live worker before finishing; the oracle coverage baseline",
            |spec| {
                reads_only(spec, &[])?;
                Ok(Arc::new(BestEffortAll) as Arc<dyn AggregationPolicy>)
            },
        );
        reg
    }
}

impl Params for PolicySpec {
    fn params(&self) -> Vec<(&'static str, bool)> {
        vec![
            ("policy.k", self.k.is_some()),
            ("policy.deadline", self.deadline.is_some()),
        ]
    }
}

/// A training-mode factory: builds the mode a [`ModeSpec`] describes,
/// validating its parameters.
pub type ModeFactory = dyn Fn(&ModeSpec) -> Result<Arc<dyn TrainingMode>, BuildError> + Send + Sync;

/// Resolves [`ModeSpec`]s to [`TrainingMode`] instances.
pub type ModeRegistry = Registry<ModeSpec>;

/// The description a `(name, description)` table of built-ins gives `name`.
fn described(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, d)| *d)
        .expect("built-in missing from its description table")
}

impl Kind for ModeSpec {
    const NOUN: &'static str = "mode";
    type Factory = ModeFactory;

    fn name(&self) -> &str {
        &self.name
    }

    fn unknown(name: String, known: Vec<String>) -> BuildError {
        BuildError::UnknownMode { name, known }
    }

    /// The three modes of [`bcc_cluster::mode`] (descriptions from
    /// [`bcc_cluster::mode::MODES`]). `ssp` only requires its bound to be
    /// present and `>= 1`; the iterations-relative upper bound is the
    /// builder's job — the registry does not know the spec.
    fn builtin() -> ModeRegistry {
        let description = |name| described(&bcc_cluster::mode::MODES, name);
        let mut reg = ModeRegistry::empty();
        reg.register("ssgd", description("ssgd"), |spec| {
            reads_only(spec, &[])?;
            Ok(Arc::new(Ssgd) as Arc<dyn TrainingMode>)
        });
        reg.register("ssp", description("ssp"), |spec| {
            reads_only(spec, &["mode.staleness"])?;
            let staleness = param(
                spec,
                "mode.staleness",
                spec.staleness,
                |s| s >= 1,
                "a staleness bound >= 1",
            )?;
            Ok(Arc::new(Ssp { staleness }) as Arc<dyn TrainingMode>)
        });
        reg.register("asgd", description("asgd"), |spec| {
            reads_only(spec, &[])?;
            Ok(Arc::new(Asgd) as Arc<dyn TrainingMode>)
        });
        reg
    }
}

impl Params for ModeSpec {
    fn params(&self) -> Vec<(&'static str, bool)> {
        vec![("mode.staleness", self.staleness.is_some())]
    }
}

/// A controller factory: builds a straggler controller from its spec.
pub type ControllerFactory =
    dyn Fn(&ControllerSpec) -> Result<Box<dyn Controller>, BuildError> + Send + Sync;

/// Resolves [`ControllerSpec`]s to [`Controller`] instances.
pub type ControllerRegistry = Registry<ControllerSpec>;

impl Kind for ControllerSpec {
    const NOUN: &'static str = "controller";
    type Factory = ControllerFactory;

    fn name(&self) -> &str {
        &self.name
    }

    fn unknown(name: String, known: Vec<String>) -> BuildError {
        BuildError::UnknownController { name, known }
    }

    /// The three controllers of [`bcc_control`] (descriptions from
    /// [`bcc_control::CONTROLLERS`]); absent tuning fields take the
    /// controller's documented defaults.
    fn builtin() -> ControllerRegistry {
        let description = |name| described(&bcc_control::CONTROLLERS, name);
        let mut reg = ControllerRegistry::empty();
        reg.register("static", description("static"), |spec| {
            reads_only(spec, &[])?;
            Ok(Box::new(StaticController) as Box<dyn Controller>)
        });
        reg.register(
            "quantile-deadline",
            description("quantile-deadline"),
            |spec| {
                reads_only(
                    spec,
                    &["controller.q", "controller.margin", "controller.warmup"],
                )?;
                let defaults = QuantileDeadline::default();
                Ok(Box::new(QuantileDeadline {
                    q: param(
                        spec,
                        "controller.q",
                        spec.q.or(Some(defaults.q)),
                        |q: f64| q > 0.0 && q < 1.0,
                        "a quantile in (0, 1)",
                    )?,
                    margin: param(
                        spec,
                        "controller.margin",
                        spec.margin.or(Some(defaults.margin)),
                        |m: f64| m.is_finite() && m > 0.0,
                        "a positive budget multiplier",
                    )?,
                    warmup: spec.warmup.unwrap_or(defaults.warmup),
                }) as Box<dyn Controller>)
            },
        );
        reg.register("adaptive-k", description("adaptive-k"), |spec| {
            reads_only(spec, &["controller.slow_factor", "controller.warmup"])?;
            let defaults = AdaptiveK::default();
            Ok(Box::new(AdaptiveK {
                slow_factor: param(
                    spec,
                    "controller.slow_factor",
                    spec.slow_factor.or(Some(defaults.slow_factor)),
                    |s: f64| s.is_finite() && s > 1.0,
                    "a slow factor > 1",
                )?,
                warmup: spec.warmup.unwrap_or(defaults.warmup),
                min_k: defaults.min_k,
            }) as Box<dyn Controller>)
        });
        reg
    }
}

impl Params for ControllerSpec {
    fn params(&self) -> Vec<(&'static str, bool)> {
        vec![
            ("controller.q", self.q.is_some()),
            ("controller.margin", self.margin.is_some()),
            ("controller.warmup", self.warmup.is_some()),
            ("controller.slow_factor", self.slow_factor.is_some()),
        ]
    }
}

/// One registry per plug-in kind — everything an [`ExperimentSpec`]
/// resolves by name. `Default` is the four built-in sets.
///
/// [`ExperimentSpec`]: super::ExperimentSpec
#[derive(Debug, Default)]
pub struct Registries {
    /// Resolves [`ExperimentSpec::scheme`](super::ExperimentSpec::scheme).
    pub schemes: SchemeRegistry,
    /// Resolves [`ExperimentSpec::policy`](super::ExperimentSpec::policy).
    pub policies: PolicyRegistry,
    /// Resolves [`ExperimentSpec::mode`](super::ExperimentSpec::mode).
    pub modes: ModeRegistry,
    /// Resolves
    /// [`ExperimentSpec::controller`](super::ExperimentSpec::controller).
    pub controllers: ControllerRegistry,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_coding::UncodedScheme;
    use bcc_stats::rng::derive_rng;

    /// The name lookup every kind's `build` starts with, erased to what
    /// the cross-kind tests compare.
    fn lookup<S: Kind>(reg: &Registry<S>, spec: &S) -> Result<(), BuildError> {
        reg.factory(spec).map(|_| ())
    }

    /// A `(name, description)` table the way `descriptions()` lists it.
    fn sorted(table: &[(&str, &str)]) -> Vec<(String, String)> {
        let mut table: Vec<_> = table
            .iter()
            .map(|(n, d)| (n.to_string(), d.to_string()))
            .collect();
        table.sort();
        table
    }

    /// The built-in scheme names as `names()` lists them — a literal, so a
    /// registration added or dropped by accident fails here.
    const BUILTIN_SCHEMES: [&str; 6] = [
        "bcc",
        "bcc-uncompressed",
        "cyclic-repetition",
        "fractional-repetition",
        "random",
        "uncoded",
    ];

    #[test]
    fn builtin_schemes_cover_the_paper_comparison() {
        let reg = SchemeRegistry::builtin();
        assert_eq!(reg.names(), BUILTIN_SCHEMES);
        assert!(reg.descriptions().iter().all(|(_, desc)| !desc.is_empty()));
        assert!(reg.descriptions().contains(&(
            "bcc".into(),
            "Batched Coupon's Collector — random batch per worker, stop on coverage (this paper)"
                .into()
        )));
        let mut rng = derive_rng(1, 0);
        let scheme = reg
            .build(&SchemeSpec::with_load("bcc", 4), 20, 20, &mut rng)
            .unwrap();
        assert_eq!(scheme.name(), "bcc");
    }

    #[test]
    fn randomized_placements_are_redrawn_until_they_cover() {
        // 4 batches over 8 workers: a single draw misses a batch about one
        // time in two, the redraw loop never does.
        let reg = SchemeRegistry::builtin();
        for seed in 0..20 {
            let mut rng = derive_rng(3, seed);
            for name in ["bcc", "bcc-uncompressed", "random"] {
                let scheme = reg
                    .build(&SchemeSpec::with_load(name, 5), 20, 8, &mut rng)
                    .expect("retries reach coverage");
                assert!(scheme.placement().covers_all(), "{name}");
            }
        }
    }

    #[test]
    fn unknown_names_list_the_registrations_for_every_kind() {
        let regs = Registries::default();
        let known = |names: &[&str]| {
            let mut names: Vec<String> = names.iter().map(ToString::to_string).collect();
            names.sort();
            names
        };
        assert_eq!(
            lookup(&regs.schemes, &SchemeSpec::named("lt-codes")),
            Err(BuildError::UnknownScheme {
                name: "lt-codes".into(),
                known: known(&BUILTIN_SCHEMES),
            })
        );
        assert_eq!(
            lookup(&regs.policies, &PolicySpec::named("vote-majority")),
            Err(BuildError::UnknownPolicy {
                name: "vote-majority".into(),
                known: known(&["wait-decodable", "fastest-k", "deadline", "best-effort-all"]),
            })
        );
        assert_eq!(
            lookup(&regs.modes, &ModeSpec::named("hogwild")),
            Err(BuildError::UnknownMode {
                name: "hogwild".into(),
                known: known(&["asgd", "ssgd", "ssp"]),
            })
        );
        assert_eq!(
            lookup(&regs.controllers, &ControllerSpec::named("pid")),
            Err(BuildError::UnknownController {
                name: "pid".into(),
                known: known(&["adaptive-k", "quantile-deadline", "static"]),
            })
        );
    }

    #[test]
    fn custom_registrations_resolve_for_every_kind() {
        let mut regs = Registries::default();
        regs.schemes
            .register("everyone", "uncoded under another name", |_, m, n, _| {
                Ok(Box::new(UncodedScheme::new(m, n)) as Box<dyn GradientCodingScheme>)
            });
        regs.policies
            .register("always-two", "stop after two arrivals", |_spec| {
                Ok(Arc::new(FastestK::new(2)) as Arc<dyn AggregationPolicy>)
            });
        regs.modes
            .register("pipeline-two", "ssp at a fixed staleness of 2", |_spec| {
                Ok(Arc::new(Ssp { staleness: 2 }) as Arc<dyn TrainingMode>)
            });
        regs.controllers
            .register("eager-k", "adaptive-k with no warmup", |_spec| {
                Ok(Box::new(AdaptiveK {
                    warmup: 0,
                    ..AdaptiveK::default()
                }) as Box<dyn Controller>)
            });

        let mut rng = derive_rng(2, 0);
        let scheme = regs
            .schemes
            .build(&SchemeSpec::named("everyone"), 8, 4, &mut rng)
            .unwrap();
        assert_eq!(scheme.num_workers(), 4);
        let policy = regs.policies.build(&PolicySpec::named("always-two"));
        assert_eq!(policy.unwrap().name(), "fastest-k");
        let mode = regs.modes.build(&ModeSpec::named("pipeline-two")).unwrap();
        assert_eq!(
            mode.schedule(),
            bcc_cluster::ModeSchedule::StaleBounded { staleness: 2 }
        );
        let controller = regs.controllers.build(&ControllerSpec::named("eager-k"));
        assert_eq!(controller.unwrap().name(), "adaptive-k");

        let listed = |descriptions: Vec<(String, String)>, custom: &str| {
            descriptions
                .iter()
                .any(|(n, d)| n == custom && !d.is_empty())
        };
        assert!(listed(regs.schemes.descriptions(), "everyone"));
        assert!(listed(regs.policies.descriptions(), "always-two"));
        assert!(listed(regs.modes.descriptions(), "pipeline-two"));
        assert!(listed(regs.controllers.descriptions(), "eager-k"));
        assert!(regs.controllers.names().contains(&"eager-k".to_string()));
    }

    #[test]
    fn builtin_policies_resolve_with_descriptions() {
        let reg = PolicyRegistry::builtin();
        assert_eq!(reg.descriptions().len(), 4);
        assert!(reg.descriptions().iter().all(|(_, desc)| !desc.is_empty()));
        let p = reg.build(&PolicySpec::fastest_k(5)).unwrap();
        assert_eq!(p.name(), "fastest-k");
        let p = reg.build(&PolicySpec::deadline(0.3)).unwrap();
        assert_eq!(p.name(), "deadline");
        let p = reg.build(&PolicySpec::default()).unwrap();
        assert_eq!(p.name(), "wait-decodable");
        let p = reg.build(&PolicySpec::named("best-effort-all")).unwrap();
        assert_eq!(p.name(), "best-effort-all");
    }

    #[test]
    fn builtin_modes_resolve_with_descriptions() {
        let reg = ModeRegistry::builtin();
        assert_eq!(reg.descriptions(), sorted(&bcc_cluster::mode::MODES));
        let m = reg.build(&ModeSpec::default()).unwrap();
        assert_eq!(m.name(), "ssgd");
        let m = reg.build(&ModeSpec::ssp(4)).unwrap();
        assert_eq!(m.name(), "ssp");
        assert_eq!(
            m.schedule(),
            bcc_cluster::ModeSchedule::StaleBounded { staleness: 4 }
        );
        let m = reg.build(&ModeSpec::named("asgd")).unwrap();
        assert_eq!(m.schedule(), bcc_cluster::ModeSchedule::Async);
    }

    #[test]
    fn builtin_controllers_resolve_with_descriptions() {
        let reg = ControllerRegistry::builtin();
        assert_eq!(reg.descriptions(), sorted(&bcc_control::CONTROLLERS));
        for (spec, name) in [
            (ControllerSpec::default(), "static"),
            (ControllerSpec::quantile_deadline(0.8), "quantile-deadline"),
            (ControllerSpec::adaptive_k(4.0), "adaptive-k"),
            // Bare names take the controller's documented defaults.
            (
                ControllerSpec::named("quantile-deadline"),
                "quantile-deadline",
            ),
            (ControllerSpec::named("adaptive-k"), "adaptive-k"),
        ] {
            assert_eq!(reg.build(&spec).unwrap().name(), name);
        }
    }

    #[test]
    fn parameter_validation_is_typed_and_says_what_it_got() {
        let regs = Registries::default();
        let field_of = |err: BuildError| match err {
            BuildError::InvalidValue { field, reason } => (field, reason),
            other => panic!("expected InvalidValue, got {other:?}"),
        };
        for (spec, field) in [
            (PolicySpec::named("fastest-k"), "policy.k"),
            (PolicySpec::fastest_k(0), "policy.k"),
            (PolicySpec::named("deadline"), "policy.deadline"),
            (PolicySpec::deadline(-1.0), "policy.deadline"),
        ] {
            assert_eq!(field_of(regs.policies.build(&spec).unwrap_err()).0, field);
        }
        for (spec, field) in [
            (ModeSpec::named("ssp"), "mode.staleness"),
            (ModeSpec::ssp(0), "mode.staleness"),
        ] {
            assert_eq!(field_of(regs.modes.build(&spec).unwrap_err()).0, field);
        }
        for (spec, field) in [
            (ControllerSpec::quantile_deadline(0.0), "controller.q"),
            (ControllerSpec::quantile_deadline(1.5), "controller.q"),
            (ControllerSpec::quantile_deadline(f64::NAN), "controller.q"),
            (
                ControllerSpec {
                    margin: Some(-2.0),
                    ..ControllerSpec::named("quantile-deadline")
                },
                "controller.margin",
            ),
            (ControllerSpec::adaptive_k(1.0), "controller.slow_factor"),
            (
                ControllerSpec {
                    slow_factor: Some(f64::INFINITY),
                    ..ControllerSpec::named("adaptive-k")
                },
                "controller.slow_factor",
            ),
        ] {
            let err = regs.controllers.build(&spec).unwrap_err();
            assert_eq!(field_of(err).0, field, "{spec:?}");
        }
        // One message shape for every kind: a missing parameter names what
        // is required, a bad one what it got.
        let (_, reason) = field_of(regs.modes.build(&ModeSpec::named("ssp")).unwrap_err());
        assert_eq!(reason, "mode `ssp` requires it (a staleness bound >= 1)");
        let err = regs.controllers.build(&ControllerSpec::adaptive_k(0.5));
        let (_, reason) = field_of(err.unwrap_err());
        assert_eq!(
            reason,
            "controller `adaptive-k` needs a slow factor > 1, got 0.5"
        );
    }
}
