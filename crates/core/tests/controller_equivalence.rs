//! Controller cross-backend pins.
//!
//! The `bcc_control` determinism contract: controllers read only
//! per-worker `compute_seconds` (replayed from the master seed) and worker
//! identities, never wall-clock arrival stamps — so the virtual, threaded,
//! and loopback-TCP backends must produce the *identical* per-round
//! decision trace for every builtin controller.

use bcc_core::experiment::{
    BackendSpec, ControllerSpec, DataSpec, ExperimentBuilder, LatencySpec, OptimizerSpec,
    SchemeSpec,
};
use bcc_core::Experiment;

/// A two-tier staircase: eight fast workers with unambiguous per-worker
/// shift gaps plus two persistent ~10× stragglers. Gaps are far wider than
/// scheduler jitter (the `training_modes.rs` convention for real-time
/// pins), and the slow pair trips every adaptive builtin.
fn two_tier() -> LatencySpec {
    LatencySpec::Explicit {
        workers: (0..10)
            .map(|i| bcc_cluster::WorkerProfile {
                mu: 1e4,
                a: if i < 8 {
                    0.02 * i as f64
                } else {
                    0.5 + 0.1 * (i - 8) as f64
                },
            })
            .collect(),
        comm: bcc_cluster::CommModel {
            per_message_overhead: 0.001,
            per_unit: 0.001,
        },
    }
}

fn builder(controller: ControllerSpec) -> ExperimentBuilder {
    Experiment::builder()
        .name("controller-pin")
        .workers(10)
        .units(10)
        .scheme(SchemeSpec::named("uncoded"))
        .data(DataSpec::synthetic(6, 4))
        .latency(two_tier())
        .optimizer(OptimizerSpec::nesterov(0.5))
        .iterations(10)
        .seed(61)
        .controller(controller)
}

fn builtins() -> [ControllerSpec; 3] {
    [
        ControllerSpec::named("static"),
        ControllerSpec::quantile_deadline(0.7),
        ControllerSpec::adaptive_k(3.0),
    ]
}

/// Real-time backends run real sleeps; as in `training_modes.rs`, each
/// gets a bounded retry so transient scheduler jitter passes on a second
/// attempt while a genuine decision divergence fails every time.
#[test]
fn every_builtin_controller_is_backend_invariant() {
    let backends = [
        BackendSpec::Threaded { time_scale: 0.1 },
        BackendSpec::Tcp {
            time_scale: 0.1,
            addr: None,
            wan: None,
        },
    ];
    for controller in builtins() {
        let name = controller.name.clone();
        let run = |backend: &BackendSpec| {
            builder(controller.clone())
                .backend(backend.clone())
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        let reference = run(&BackendSpec::Virtual);
        assert_eq!(
            reference.controller_records.len(),
            10,
            "{name}: one decision per round"
        );

        let matches = |other: &bcc_core::ExperimentReport| -> Result<(), String> {
            if reference.controller_records != other.controller_records {
                return Err(format!(
                    "decision trace: {:?} vs {:?}",
                    reference.controller_records, other.controller_records
                ));
            }
            if reference.controller_switches != other.controller_switches {
                return Err(format!(
                    "switches: {} vs {}",
                    reference.controller_switches, other.controller_switches
                ));
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
                "{name} on real-time backend #{i} diverged from the virtual \
                 backend on every attempt: {last_err}"
            );
        }
    }
}

/// The two-tier staircase must actually exercise the adaptive builtins:
/// a trace that never switches would make the invariance pin vacuous.
#[test]
fn adaptive_builtins_act_on_the_two_tier_staircase() {
    for controller in builtins() {
        let name = controller.name.clone();
        let report = builder(controller).build().unwrap().run().unwrap();
        if name == "static" {
            assert_eq!(report.controller_switches, 0, "static never switches");
        } else {
            assert!(
                report.controller_switches >= 1,
                "{name} must act on two persistent 10x stragglers, trace {:?}",
                report.controller_records
            );
        }
    }
}

/// Controller runs replay byte-identically — weights and the decision
/// trace — from the same spec.
#[test]
fn controller_decisions_replay_deterministically() {
    for controller in builtins() {
        let name = controller.name.clone();
        let run = || builder(controller.clone()).build().unwrap().run().unwrap();
        let (a, b) = (run(), run());
        assert_eq!(a.controller_records, b.controller_records, "{name}");
        assert_eq!(a.controller_switches, b.controller_switches, "{name}");
        for (i, (x, y)) in a.weights.iter().zip(&b.weights).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{name}: weight {i}");
        }
    }
}
