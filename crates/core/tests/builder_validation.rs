//! Builder validation: every invalid `(m, n, r)` combination yields the
//! *right* `BuildError` variant — the constraints that used to be scattered
//! panics.

use bcc_core::experiment::{
    BuildError, DataSpec, Experiment, ExperimentSpec, LatencySpec, SchemeSpec,
};

fn builder_for(m: usize, n: usize, scheme: SchemeSpec) -> Result<Experiment, BuildError> {
    Experiment::builder()
        .workers(n)
        .units(m)
        .scheme(scheme)
        .data(DataSpec::synthetic(2, 3))
        .iterations(2)
        .seed(1)
        .build()
}

#[test]
fn cyclic_repetition_needs_m_equals_n() {
    let err = builder_for(10, 5, SchemeSpec::with_load("cyclic-repetition", 2)).unwrap_err();
    assert_eq!(
        err,
        BuildError::SquareRequired {
            scheme: "cyclic-repetition".into(),
            m: 10,
            n: 5,
        }
    );
}

#[test]
fn the_deleted_cyclic_mds_is_unknown_at_build_time() {
    // It used to validate and then stall at run time from n ≈ 100; a spec
    // that still names it fails here, listing what the registry has.
    let err = builder_for(12, 12, SchemeSpec::with_load("cyclic-mds", 3)).unwrap_err();
    let known = [
        "bcc",
        "bcc-uncompressed",
        "cyclic-repetition",
        "fractional-repetition",
        "random",
        "uncoded",
    ];
    assert_eq!(
        err,
        BuildError::UnknownScheme {
            name: "cyclic-mds".into(),
            known: known.map(String::from).to_vec(),
        }
    );
}

#[test]
fn fractional_repetition_needs_m_equals_n() {
    let err = builder_for(9, 12, SchemeSpec::with_load("fractional-repetition", 3)).unwrap_err();
    assert_eq!(
        err,
        BuildError::SquareRequired {
            scheme: "fractional-repetition".into(),
            m: 9,
            n: 12,
        }
    );
}

#[test]
fn fractional_repetition_needs_r_dividing_n() {
    let err = builder_for(10, 10, SchemeSpec::with_load("fractional-repetition", 3)).unwrap_err();
    assert_eq!(
        err,
        BuildError::LoadNotDivisor {
            scheme: "fractional-repetition".into(),
            r: 3,
            n: 10,
        }
    );
    // r | n builds fine.
    assert!(builder_for(10, 10, SchemeSpec::with_load("fractional-repetition", 5)).is_ok());
}

#[test]
fn cyclic_loads_are_range_checked() {
    for (r, name) in [(0usize, "cyclic-repetition"), (11, "cyclic-repetition")] {
        let err = builder_for(10, 10, SchemeSpec::with_load(name, r)).unwrap_err();
        assert_eq!(
            err,
            BuildError::LoadOutOfRange {
                scheme: name.into(),
                r,
                bound: 10,
            },
            "({name}, r={r})"
        );
    }
}

#[test]
fn bcc_load_is_bounded_by_units() {
    let err = builder_for(10, 20, SchemeSpec::with_load("bcc", 11)).unwrap_err();
    assert_eq!(
        err,
        BuildError::LoadOutOfRange {
            scheme: "bcc".into(),
            r: 11,
            bound: 10,
        }
    );
}

#[test]
fn bcc_impossible_coverage_is_typed() {
    // 20 single-unit batches can never be covered by 2 draws.
    let err = builder_for(20, 2, SchemeSpec::with_load("bcc", 1)).unwrap_err();
    assert!(
        matches!(
            err,
            BuildError::CoverageFailed {
                m: 20,
                n: 2,
                r: 1,
                ..
            }
        ),
        "got {err:?}"
    );
}

#[test]
fn loaded_schemes_require_r() {
    for name in [
        "bcc",
        "bcc-uncompressed",
        "random",
        "cyclic-repetition",
        "fractional-repetition",
    ] {
        let err = builder_for(10, 10, SchemeSpec::named(name)).unwrap_err();
        assert_eq!(
            err,
            BuildError::MissingLoad {
                scheme: name.into()
            },
            "{name}"
        );
    }
}

#[test]
fn unknown_scheme_is_typed() {
    let err = builder_for(10, 10, SchemeSpec::named("lt-codes")).unwrap_err();
    assert!(matches!(err, BuildError::UnknownScheme { .. }));
}

#[test]
fn zero_sizes_are_rejected() {
    let err = builder_for(0, 10, SchemeSpec::named("uncoded")).unwrap_err();
    assert!(matches!(
        err,
        BuildError::InvalidValue { field: "units", .. }
    ));
    let err = builder_for(10, 0, SchemeSpec::named("uncoded")).unwrap_err();
    assert!(matches!(
        err,
        BuildError::InvalidValue {
            field: "workers",
            ..
        }
    ));
}

#[test]
fn spec_path_reports_the_same_errors_as_the_builder() {
    // from_spec and the builder share validation: the same invalid combo
    // fails identically from a deserialized spec file.
    let json = r#"{
        "workers": 10,
        "units": 20,
        "scheme": {"name": "cyclic-repetition", "r": 2}
    }"#;
    let spec = ExperimentSpec::from_json(json).unwrap();
    let err = Experiment::from_spec(spec).unwrap_err();
    assert_eq!(
        err,
        BuildError::SquareRequired {
            scheme: "cyclic-repetition".into(),
            m: 20,
            n: 10,
        }
    );
}

#[test]
fn a_dataset_shape_whose_size_overflows_is_rejected() {
    // Validation fails before anything is allocated: units × points
    // overflows, or the rows fit and only the byte size (× dim × 8) does not.
    let shapes = [(1usize << 40, 1usize << 30, 2usize), (1 << 30, 1 << 30, 4)];
    for (units, points_per_unit, dim) in shapes {
        let built = Experiment::builder()
            .workers(4)
            .units(units)
            .scheme(SchemeSpec::named("uncoded"))
            .data(DataSpec::synthetic(points_per_unit, dim))
            .build();
        let json = format!(
            r#"{{"workers": 4, "units": {units}, "scheme": "uncoded",
                "data": {{"Synthetic": {{"points_per_unit": {points_per_unit},
                                         "dim": {dim}, "separation": 1.5}}}}}}"#
        );
        let from_spec = Experiment::from_spec(ExperimentSpec::from_json(&json).unwrap());
        for (path, result) in [("builder", built), ("spec", from_spec)] {
            let err = result.unwrap_err();
            assert!(
                matches!(err, BuildError::InvalidValue { field: "data", .. }),
                "{path}, {units} × {points_per_unit} × {dim}: {err:?}"
            );
        }
    }
}

#[test]
fn fig5_profile_requires_its_worker_count() {
    let err = Experiment::builder()
        .workers(10)
        .units(10)
        .scheme(SchemeSpec::named("uncoded"))
        .latency(LatencySpec::Fig5Heterogeneous)
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        BuildError::WorkerCountMismatch {
            profile: 100,
            workers: 10,
        }
    );
}

/// Builder with a given latency spec over a valid 10×10 uncoded scenario.
fn latency_builder(latency: LatencySpec) -> Result<Experiment, BuildError> {
    Experiment::builder()
        .workers(10)
        .units(10)
        .scheme(SchemeSpec::named("uncoded"))
        .data(DataSpec::synthetic(2, 3))
        .latency(latency)
        .iterations(2)
        .seed(1)
        .build()
}

/// Asserts the build fails with `InvalidValue` on exactly `field`.
fn assert_invalid(latency: LatencySpec, field: &str) {
    match latency_builder(latency).unwrap_err() {
        BuildError::InvalidValue { field: got, .. } => assert_eq!(got, field),
        other => panic!("expected InvalidValue on `{field}`, got {other:?}"),
    }
}

#[test]
fn straggler_model_specs_build_and_run() {
    for latency in [
        LatencySpec::Pareto {
            shape: 2.0,
            scale: 0.002,
            per_message_overhead: 0.001,
            per_unit: 0.004,
        },
        LatencySpec::Weibull {
            shape: 0.8,
            scale: 0.002,
            shift: 0.001,
            per_message_overhead: 0.001,
            per_unit: 0.004,
        },
        LatencySpec::Bimodal {
            mu: 100.0,
            a: 0.001,
            slow_workers: 2,
            slow_probability: 0.5,
            slowdown: 5.0,
            per_message_overhead: 0.001,
            per_unit: 0.004,
        },
        LatencySpec::Markov {
            mu: 100.0,
            a: 0.001,
            p_slow: 0.2,
            p_recover: 0.5,
            slowdown: 5.0,
            per_message_overhead: 0.001,
            per_unit: 0.004,
        },
    ] {
        let name = latency.model_name();
        let experiment = latency_builder(latency).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(experiment.straggler_model().name(), name);
        let report = experiment.run().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.metrics.rounds, 2);
        assert_eq!(report.round_samples.len(), 2);
        assert!(report.round_samples.iter().all(|s| s.total_time > 0.0));
    }
}

#[test]
fn straggler_model_parameters_are_validated() {
    let comm = (0.001, 0.004);
    assert_invalid(
        LatencySpec::Pareto {
            shape: 0.0,
            scale: 0.002,
            per_message_overhead: comm.0,
            per_unit: comm.1,
        },
        "latency.shape",
    );
    assert_invalid(
        LatencySpec::Pareto {
            shape: 2.0,
            scale: -1.0,
            per_message_overhead: comm.0,
            per_unit: comm.1,
        },
        "latency.scale",
    );
    assert_invalid(
        LatencySpec::Weibull {
            shape: 1.0,
            scale: 0.002,
            shift: -0.1,
            per_message_overhead: comm.0,
            per_unit: comm.1,
        },
        "latency.shift",
    );
    assert_invalid(
        LatencySpec::Bimodal {
            mu: 100.0,
            a: 0.001,
            slow_workers: 11, // > the 10 workers
            slow_probability: 0.5,
            slowdown: 5.0,
            per_message_overhead: comm.0,
            per_unit: comm.1,
        },
        "latency.slow_workers",
    );
    assert_invalid(
        LatencySpec::Bimodal {
            mu: 100.0,
            a: 0.001,
            slow_workers: 2,
            slow_probability: 1.5,
            slowdown: 5.0,
            per_message_overhead: comm.0,
            per_unit: comm.1,
        },
        "latency.slow_probability",
    );
    assert_invalid(
        LatencySpec::Markov {
            mu: 100.0,
            a: 0.001,
            p_slow: 0.2,
            p_recover: -0.1,
            slowdown: 5.0,
            per_message_overhead: comm.0,
            per_unit: comm.1,
        },
        "latency.p_recover",
    );
    assert_invalid(
        LatencySpec::Markov {
            mu: 100.0,
            a: 0.001,
            p_slow: 0.2,
            p_recover: 0.5,
            slowdown: 0.0,
            per_message_overhead: comm.0,
            per_unit: comm.1,
        },
        "latency.slowdown",
    );
}

#[test]
fn shifted_exp_specs_keep_reporting_the_baseline_model() {
    let experiment = latency_builder(LatencySpec::Ec2Like).unwrap();
    assert_eq!(experiment.straggler_model().name(), "shifted-exp");
    // The default model's mean matches the profile's closed form.
    let expect = experiment.profile().workers[0].mean_compute_time(3);
    assert_eq!(
        experiment.straggler_model().mean_compute_seconds(0, 3),
        Some(expect)
    );
}

#[test]
fn policy_validation_flows_through_the_builder() {
    use bcc_core::experiment::PolicySpec;
    let with_policy = |policy: PolicySpec| {
        Experiment::builder()
            .workers(6)
            .units(6)
            .scheme(SchemeSpec::named("uncoded"))
            .data(DataSpec::synthetic(2, 3))
            .policy(policy)
            .iterations(2)
            .seed(1)
            .build()
    };
    // Builtins resolve...
    assert_eq!(
        with_policy(PolicySpec::fastest_k(3))
            .unwrap()
            .aggregation_policy()
            .name(),
        "fastest-k"
    );
    // ...unknown names are typed with the registration list...
    let err = with_policy(PolicySpec::named("vote-majority")).unwrap_err();
    assert!(
        matches!(err, BuildError::UnknownPolicy { ref name, ref known }
            if name == "vote-majority" && known.iter().any(|k| k == "deadline")),
        "got {err:?}"
    );
    // ...and parameter constraints surface as InvalidValue.
    let err = with_policy(PolicySpec::named("fastest-k")).unwrap_err();
    assert!(
        matches!(
            err,
            BuildError::InvalidValue {
                field: "policy.k",
                ..
            }
        ),
        "got {err:?}"
    );
    let err = with_policy(PolicySpec::deadline(f64::NAN)).unwrap_err();
    assert!(
        matches!(
            err,
            BuildError::InvalidValue {
                field: "policy.deadline",
                ..
            }
        ),
        "got {err:?}"
    );
}

#[test]
fn default_policy_is_wait_decodable() {
    let experiment = builder_for(6, 6, SchemeSpec::named("uncoded")).unwrap();
    assert_eq!(experiment.aggregation_policy().name(), "wait-decodable");
    assert!(experiment.spec().policy.is_default());
}

/// Every built-in policy, mode and controller reads a fixed set of
/// parameters; a spec that sets any other one fails the build naming the
/// field, instead of quietly running without it. One table, two paths: the
/// builder and a spec file.
#[test]
fn a_parameter_its_plug_in_does_not_read_is_rejected() {
    // (a spec's plug-in field, the parameter the build rejects)
    let cases = [
        (
            r#""policy": {"name": "wait-decodable", "k": 5}"#,
            Some("policy.k"),
        ),
        (
            r#""policy": {"name": "best-effort-all", "deadline": 0.5}"#,
            Some("policy.deadline"),
        ),
        (
            r#""policy": {"name": "fastest-k", "k": 3, "deadline": 0.5}"#,
            Some("policy.deadline"),
        ),
        (
            r#""policy": {"name": "deadline", "k": 3, "deadline": 0.5}"#,
            Some("policy.k"),
        ),
        (r#""policy": {"name": "fastest-k", "k": 3}"#, None),
        (
            r#""mode": {"name": "asgd", "staleness": 4}"#,
            Some("mode.staleness"),
        ),
        (
            r#""mode": {"name": "ssgd", "staleness": 2}"#,
            Some("mode.staleness"),
        ),
        (r#""mode": {"name": "ssp", "staleness": 2}"#, None),
        (
            r#""controller": {"name": "quantile-deadline", "slow_factor": 2.0}"#,
            Some("controller.slow_factor"),
        ),
        (
            r#""controller": {"name": "static", "q": 0.5}"#,
            Some("controller.q"),
        ),
        (
            r#""controller": {"name": "adaptive-k", "margin": 2.0}"#,
            Some("controller.margin"),
        ),
        (
            r#""controller": {"name": "quantile-deadline", "q": 0.7, "warmup": 2}"#,
            None,
        ),
    ];
    let outcome = |result: Result<Experiment, BuildError>| match result {
        Ok(_) => None,
        Err(BuildError::InvalidValue { field, .. }) => Some(field),
        Err(other) => panic!("expected InvalidValue, got {other:?}"),
    };
    for (field, expected) in cases {
        let spec = ExperimentSpec::from_json(&format!(
            r#"{{"workers": 6, "units": 6, "scheme": {{"name": "bcc", "r": 2}},
                "iterations": 4, {field}}}"#
        ))
        .unwrap();
        let built = Experiment::builder()
            .workers(6)
            .units(6)
            .scheme(SchemeSpec::with_load("bcc", 2))
            .iterations(4)
            .policy(spec.policy.clone())
            .mode(spec.mode.clone())
            .controller(spec.controller.clone())
            .build();
        assert_eq!(outcome(built), expected, "builder: {field}");
        let from_spec = Experiment::from_spec(spec);
        assert_eq!(outcome(from_spec), expected, "spec: {field}");
    }
    // The message names the plug-in that ignores the field.
    let err = Experiment::from_spec(
        ExperimentSpec::from_json(
            r#"{"workers": 6, "units": 6, "scheme": "uncoded",
                "mode": {"name": "asgd", "staleness": 4}}"#,
        )
        .unwrap(),
    )
    .unwrap_err();
    assert_eq!(
        err,
        BuildError::InvalidValue {
            field: "mode.staleness",
            reason: "mode `asgd` does not read it".into(),
        }
    );
    // A spec still naming the deleted `local-sgd` mode fails the build,
    // listing the modes there are.
    let err = Experiment::from_spec(
        ExperimentSpec::from_json(
            r#"{"workers": 6, "units": 6, "scheme": "uncoded", "mode": {"name": "local-sgd"}}"#,
        )
        .unwrap(),
    )
    .unwrap_err();
    assert_eq!(
        err,
        BuildError::UnknownMode {
            name: "local-sgd".into(),
            known: vec!["asgd".into(), "ssgd".into(), "ssp".into()],
        }
    );
}
