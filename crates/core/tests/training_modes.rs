//! Training-mode pins.
//!
//! Two guarantees the `mode` API makes and this file locks in:
//!
//! 1. **`ssgd` is the plain synchronous round loop.** Running an
//!    experiment under the default mode must be *byte-identical* (weights,
//!    message counts, simulated time) to a minimal [`RoundDriver`] wired
//!    onto the backend by hand — broadcast the optimizer's evaluation
//!    point, step on the decoded mean gradient — across schemes and
//!    aggregation policies.
//! 2. **Every mode is backend-invariant.** SSP/ASGD re-time rounds through
//!    offsets sampled master-side from the shared `(seed, round, worker)`
//!    latency stream, so the virtual, threaded, and loopback-TCP backends
//!    must produce byte-identical weights, message counts, and per-round
//!    staleness.

use bcc_cluster::{
    AggregationPolicy, BackendConfig, ClusterBackend, FastestK, RoundDriver, RoundOutcome,
    RunMetrics, UnitMap, VirtualCluster, WaitDecodable,
};
use bcc_core::experiment::LatencySpec;
use bcc_core::experiment::{
    BackendSpec, DataSpec, ExperimentBuilder, ModeSpec, OptimizerSpec, PolicySpec, SchemeSpec,
};
use bcc_core::Experiment;
use bcc_optim::{LearningRate, LogisticLoss, Nesterov, Optimizer};
use bcc_stats::derive_seed;
use std::sync::Arc;

/// The backend latency stream tag (`Experiment::run`'s documented
/// `derive(seed, 0x5EED)`).
const BACKEND_STREAM: u64 = 0x5EED;

/// Staircase latency: per-worker shift gaps ≫ the exponential tail, so
/// real-time arrival order on the threaded/TCP backends is unambiguous
/// (the `net_equivalence` convention for cross-backend pins).
fn staircase() -> LatencySpec {
    LatencySpec::Explicit {
        workers: (0..10)
            .map(|i| bcc_cluster::WorkerProfile {
                mu: 1e4,
                a: 0.02 * i as f64,
            })
            .collect(),
        comm: bcc_cluster::CommModel {
            per_message_overhead: 0.001,
            per_unit: 0.001,
        },
    }
}

fn builder(scheme: SchemeSpec, seed: u64) -> ExperimentBuilder {
    Experiment::builder()
        .name("mode-pin")
        .workers(10)
        .units(10)
        .scheme(scheme)
        .data(DataSpec::synthetic(6, 4))
        .latency(staircase())
        .optimizer(OptimizerSpec::nesterov(0.5))
        .iterations(10)
        .seed(seed)
}

fn assert_bitwise_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: component {i} differs ({x} vs {y})"
        );
    }
}

/// The independent reference: the synchronous round loop and nothing else.
struct HandWiredLoop {
    optimizer: Nesterov,
    examples: usize,
    metrics: RunMetrics,
}

impl RoundDriver for HandWiredLoop {
    fn eval_point(&mut self, _round: usize) -> Vec<f64> {
        self.optimizer.eval_point().to_vec()
    }

    fn consume(&mut self, _round: usize, outcome: RoundOutcome) {
        self.metrics.absorb(&outcome.metrics);
        let m = outcome.examples_used.unwrap_or(self.examples) as f64;
        let mean: Vec<f64> = outcome.gradient_sum.iter().map(|g| g * (1.0 / m)).collect();
        self.optimizer.step(&mean);
    }
}

#[test]
fn ssgd_mode_matches_a_hand_wired_round_loop() {
    type PolicyFactory = fn() -> Arc<dyn AggregationPolicy>;
    let policies: [(&str, PolicyFactory); 2] = [
        ("wait-decodable", || Arc::new(WaitDecodable)),
        ("fastest-k", || Arc::new(FastestK::new(7))),
    ];
    for scheme in [
        SchemeSpec::named("uncoded"),
        SchemeSpec::with_load("bcc", 2),
        SchemeSpec::with_load("fractional-repetition", 2),
    ] {
        for (policy_name, policy) in &policies {
            let mut b = builder(scheme.clone(), 41).policy(PolicySpec::named(*policy_name));
            if *policy_name == "fastest-k" {
                b = b.policy(PolicySpec::fastest_k(7));
            }
            let exp = b.build().unwrap();
            let via_mode = exp.run().unwrap();

            // The same rounds, wired by hand.
            let spec = exp.spec();
            let units = UnitMap::grouped(spec.data.shape(spec.units).0, spec.units);
            let mut backend = VirtualCluster::new(
                exp.profile().clone(),
                derive_seed(spec.seed, BACKEND_STREAM),
            )
            .configured(
                BackendConfig::new()
                    .straggler_model(exp.net_model(None))
                    .aggregation_policy(policy()),
            );
            let mut hand = HandWiredLoop {
                optimizer: Nesterov::new(vec![0.0; 4], LearningRate::Constant(0.5)),
                examples: exp.dataset().len(),
                metrics: RunMetrics::new(),
            };
            backend
                .run_rounds(
                    spec.iterations,
                    exp.scheme(),
                    &units,
                    exp.dataset(),
                    &LogisticLoss,
                    &mut hand,
                )
                .unwrap();

            let what = format!("{} / {policy_name}", scheme.name);
            assert_bitwise_eq(&via_mode.weights, hand.optimizer.iterate(), &what);
            assert_eq!(
                via_mode.metrics.messages_used, hand.metrics.messages_used,
                "{what}: messages_used"
            );
            assert_eq!(
                via_mode.metrics.total_time.to_bits(),
                hand.metrics.total_time.to_bits(),
                "{what}: total_time"
            );
        }
    }
}

/// The threaded/TCP backends run real sleeps: the staircase's gaps are far
/// wider than normal scheduler jitter, but a fully saturated host (the
/// whole workspace sweep in parallel) can overshoot them and slip one
/// extra arrival into a round. As in the `BENCH_net` replay pin, each
/// real-time backend retries a bounded number of times — transient jitter
/// passes on a retry, while a genuine mode-schedule change fails every
/// attempt deterministically. The modes are the built-in table, so a
/// built-in that bypasses the backend fails here, and one this test has no
/// spec for fails by name.
#[test]
fn every_mode_is_backend_invariant() {
    let backends = [
        BackendSpec::Threaded { time_scale: 0.1 },
        BackendSpec::Tcp {
            time_scale: 0.1,
            addr: None,
            wan: None,
        },
    ];
    for (name, _) in bcc_cluster::mode::MODES {
        let mode = match name {
            "ssgd" | "asgd" => ModeSpec::named(name),
            "ssp" => ModeSpec::ssp(3),
            other => panic!("built-in mode `{other}` has no spec here"),
        };
        let run = |backend: &BackendSpec| {
            builder(SchemeSpec::with_load("bcc", 2), 43)
                .mode(mode.clone())
                .backend(backend.clone())
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        let staleness = |r: &bcc_core::ExperimentReport| -> Vec<usize> {
            r.round_samples.iter().map(|s| s.staleness).collect()
        };
        let virtual_report = run(&BackendSpec::Virtual);

        let matches = |other: &bcc_core::ExperimentReport| -> Result<(), String> {
            if virtual_report
                .weights
                .iter()
                .zip(&other.weights)
                .any(|(x, y)| x.to_bits() != y.to_bits())
            {
                return Err("weights differ".into());
            }
            if virtual_report.metrics.messages_used != other.metrics.messages_used {
                return Err(format!(
                    "messages_used: {} vs {}",
                    virtual_report.metrics.messages_used, other.metrics.messages_used
                ));
            }
            if staleness(&virtual_report) != staleness(other) {
                return Err("per-round staleness differs".into());
            }
            Ok(())
        };
        for (i, backend) in backends.iter().enumerate() {
            let mut last_err = String::new();
            let ok = (0..3).any(|_| match matches(&run(backend)) {
                Ok(()) => true,
                Err(e) => {
                    last_err = e;
                    false
                }
            });
            assert!(
                ok,
                "{} on real-time backend #{i} diverged from the virtual \
                 backend on every attempt: {last_err}",
                mode.name
            );
        }
    }
}

#[test]
fn ssp_staleness_respects_the_bound() {
    for bound in [1usize, 3, 5] {
        let report = builder(SchemeSpec::with_load("bcc", 2), 47)
            .mode(ModeSpec::ssp(bound))
            .iterations(24)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(
            report.round_samples.iter().all(|s| s.staleness <= bound),
            "bound {bound}: staleness must stay within the SSP window, got {:?}",
            report
                .round_samples
                .iter()
                .map(|s| s.staleness)
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn stale_runs_replay_byte_identically() {
    for mode in [ModeSpec::ssp(4), ModeSpec::named("asgd")] {
        let run = || {
            builder(SchemeSpec::with_load("bcc", 2), 53)
                .mode(mode.clone())
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_bitwise_eq(&a.weights, &b.weights, &mode.name);
        assert_eq!(a.simulated_seconds.to_bits(), b.simulated_seconds.to_bits());
    }
}
