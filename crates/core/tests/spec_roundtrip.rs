//! Property test: `ExperimentSpec` serde round-trip. For random specs,
//! spec → JSON → spec must reproduce the identical spec — scheme name,
//! computational load and seed included.

use bcc_core::experiment::{
    BackendSpec, ControllerSpec, DataSpec, ExperimentSpec, LatencySpec, LossSpec, ModeSpec,
    OptimizerSpec, PolicySpec, SchemeSpec,
};
use bcc_optim::LearningRate;
use proptest::prelude::*;

/// Any builtin scheme spec (loads need not fit any particular `n`; the
/// round-trip is about serialization, not construction).
fn scheme_strategy() -> impl Strategy<Value = SchemeSpec> {
    let r_max = 64usize;
    prop_oneof![
        Just(SchemeSpec::named("uncoded")),
        (1usize..r_max).prop_map(|r| SchemeSpec::with_load("bcc", r)),
        (1usize..r_max).prop_map(|r| SchemeSpec::with_load("bcc-uncompressed", r)),
        (1usize..r_max).prop_map(|r| SchemeSpec::with_load("random", r)),
        (1usize..r_max).prop_map(|r| SchemeSpec::with_load("cyclic-repetition", r)),
        (1usize..r_max).prop_map(|r| SchemeSpec::with_load("fractional-repetition", r)),
    ]
}

fn latency_strategy() -> impl Strategy<Value = LatencySpec> {
    prop_oneof![
        Just(LatencySpec::Ec2Like),
        (0.5f64..100.0, 0.0f64..0.01).prop_map(|(mu, a)| LatencySpec::Homogeneous {
            mu,
            a,
            per_message_overhead: 0.001,
            per_unit: 0.004,
        }),
        (1.1f64..4.0, 0.0005f64..0.01).prop_map(|(shape, scale)| LatencySpec::Pareto {
            shape,
            scale,
            per_message_overhead: 0.001,
            per_unit: 0.004,
        }),
        (0.5f64..3.0, 0.0005f64..0.01, 0.0f64..0.005).prop_map(|(shape, scale, shift)| {
            LatencySpec::Weibull {
                shape,
                scale,
                shift,
                per_message_overhead: 0.001,
                per_unit: 0.004,
            }
        }),
        (1usize..4, 0.0f64..1.0, 1.0f64..20.0).prop_map(|(slow_workers, p, slowdown)| {
            LatencySpec::Bimodal {
                mu: 100.0,
                a: 0.001,
                slow_workers,
                slow_probability: p,
                slowdown,
                per_message_overhead: 0.001,
                per_unit: 0.004,
            }
        }),
        (0.0f64..1.0, 0.0f64..1.0, 1.0f64..20.0).prop_map(|(p_slow, p_recover, slowdown)| {
            LatencySpec::Markov {
                mu: 100.0,
                a: 0.001,
                p_slow,
                p_recover,
                slowdown,
                per_message_overhead: 0.001,
                per_unit: 0.004,
            }
        }),
    ]
}

fn policy_strategy() -> impl Strategy<Value = PolicySpec> {
    prop_oneof![
        Just(PolicySpec::default()),
        Just(PolicySpec::named("best-effort-all")),
        (1usize..64).prop_map(PolicySpec::fastest_k),
        (0.01f64..2.0).prop_map(PolicySpec::deadline),
    ]
}

fn mode_strategy() -> impl Strategy<Value = ModeSpec> {
    prop_oneof![
        Just(ModeSpec::default()),
        Just(ModeSpec::named("asgd")),
        (1usize..64).prop_map(ModeSpec::ssp),
        // Custom registrations referenced by object form round-trip too.
        (0usize..3).prop_map(|i| ModeSpec::named(["my-mode", "pipeline-two", "hogwild"][i])),
    ]
}

fn controller_strategy() -> impl Strategy<Value = ControllerSpec> {
    prop_oneof![
        Just(ControllerSpec::default()),
        (0.01f64..0.99).prop_map(ControllerSpec::quantile_deadline),
        (1.01f64..16.0).prop_map(ControllerSpec::adaptive_k),
        (1.01f64..16.0, 0u64..10).prop_map(|(slow_factor, warmup)| ControllerSpec {
            warmup: Some(warmup),
            ..ControllerSpec::adaptive_k(slow_factor)
        }),
        // Partially-specified object forms: unset parameters stay None
        // through the round-trip and take the builtin defaults at build.
        (0.01f64..0.99, 1.0f64..8.0, 0u64..10).prop_map(|(q, margin, warmup)| ControllerSpec {
            margin: Some(margin),
            warmup: Some(warmup),
            ..ControllerSpec::quantile_deadline(q)
        }),
    ]
}

fn optimizer_strategy() -> impl Strategy<Value = OptimizerSpec> {
    prop_oneof![
        (0.01f64..1.0).prop_map(OptimizerSpec::nesterov),
        (0.01f64..1.0).prop_map(|rate| OptimizerSpec::GradientDescent {
            rate: LearningRate::InverseSqrt { initial: rate },
        }),
        Just(OptimizerSpec::FixedPoint),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spec_roundtrips_through_json(
        n in 4usize..64,
        scheme in scheme_strategy(),
        latency in latency_strategy(),
        optimizer in optimizer_strategy(),
        policy in policy_strategy(),
        mode in mode_strategy(),
        controller in controller_strategy(),
        threaded in proptest::prelude::any::<bool>(),
        squared in proptest::prelude::any::<bool>(),
        record_risk in proptest::prelude::any::<bool>(),
        iterations in 1usize..500,
        seed in proptest::prelude::any::<u64>(),
    ) {
        let spec = ExperimentSpec {
            name: format!("prop-{n}-{seed}"),
            workers: n,
            units: n,
            scheme,
            data: DataSpec::synthetic(3, 4),
            latency,
            backend: if threaded {
                BackendSpec::Threaded { time_scale: 0.25 }
            } else {
                BackendSpec::Virtual
            },
            loss: if squared { LossSpec::Squared } else { LossSpec::Logistic },
            optimizer,
            policy,
            mode,
            controller,
            iterations,
            record_risk,
            seed,
        };

        let json = spec.to_json_pretty().expect("specs serialize");
        let back = ExperimentSpec::from_json(&json).expect("round-trip parses");
        prop_assert_eq!(&back, &spec);
    }
}
