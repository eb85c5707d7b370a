//! The benchmark's self-tests: the names it emits are the names
//! `BENCHMARK.json` lists, every workload runs end to end and traced at a
//! tiny size, and the span tree it writes is well formed.

use bcc_benchmark::layers::per_layer;
use bcc_benchmark::measure::end_to_end;
use bcc_benchmark::names::{END_TO_END, PER_LAYER, WORKLOADS};
use bcc_benchmark::workload::{Expect, Workload};
use bcc_core::{BackendSpec, DataSpec};
use serde::Value;
use std::collections::HashSet;
use std::path::Path;

fn dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Value {
    let path = dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repo root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(value: &'a Value, key: &str) -> &'a [Value] {
    match value.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("BENCHMARK.json `{key}` is {other:?}, not a list"),
    }
}

fn text<'a>(value: &'a Value, key: &str) -> &'a str {
    match value.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` is {other:?}, not a string"),
    }
}

/// A name as the contract spells it: starts with a letter or digit, then at
/// most 63 more of letters, digits, `_`, `.`, `-`.
fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Held by the tests that time things: the test harness runs tests on
/// parallel threads, and a neighbour on the same two cores bends timings
/// (and the calibration loop streams half a gigabyte).
static TIMING: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn timing_lock() -> std::sync::MutexGuard<'static, ()> {
    // A poisoned lock only means another timing test failed.
    TIMING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The workload cut down to a size a test runs in milliseconds: same scheme,
/// backend, policy and controller, fewer rounds and smaller vectors.
fn tiny(name: &str) -> Workload {
    // Not the blessed seed: a shrunk run has other observables than the
    // full-size one the expect files hold.
    let full = Workload::load(dir(), name, 7).expect("checked-in workloads load");
    let mut spec = full.spec;
    spec.iterations = spec.iterations.min(24);
    let DataSpec::Synthetic {
        points_per_unit,
        dim,
        separation,
        minibatch,
    } = spec.data;
    spec.data = DataSpec::Synthetic {
        points_per_unit: points_per_unit.min(4),
        dim: dim.min(96),
        separation,
        minibatch,
    };
    Workload::from_spec(full.name, spec).expect("specs serialize")
}

#[test]
fn emitted_names_equal_benchmark_json_and_fit_the_contract() {
    let json = benchmark_json();
    let listed = |key: &str| -> Vec<(String, String)> {
        list(&json, key)
            .iter()
            .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
            .collect()
    };
    let emitted = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), emitted(&END_TO_END));
    assert_eq!(listed("per_layer"), emitted(&PER_LAYER));
    let workloads: Vec<&str> = list(&json, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let mut seen = HashSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(is_name(name), "`{name}` is not a contract name");
        assert!(is_unit(unit), "`{unit}` is not a contract unit");
        assert!(seen.insert(*name), "`{name}` is listed twice");
    }
    for workload in list(&json, "workloads") {
        assert!(is_name(text(workload, "name")));
        assert!(seen.insert(text(workload, "name")));
        let why = text(workload, "why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why of {workload:?}"
        );
    }
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);

    // Bounds: at most a quarter, set-up time present with the largest.
    let bound = |m: &Value| match m.get("bound") {
        Some(Value::Num(b)) => *b,
        other => panic!("bound is {other:?}"),
    };
    let bounds: Vec<(&str, f64)> = list(&json, "end_to_end")
        .iter()
        .map(|m| (text(m, "name"), bound(m)))
        .collect();
    assert!(bounds.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
    let setup = bounds
        .iter()
        .find(|(n, _)| *n == "setup_s")
        .expect("setup_s");
    assert!(bounds.iter().all(|(_, b)| *b <= setup.1));
    assert_eq!(list(&json, "paths"), [Value::Str("benchmark".to_string())]);
    assert!(matches!(json.get("run_seconds"), Some(Value::Uint(1..=60))));
}

#[test]
fn every_workload_has_a_spec_that_replays_and_a_blessed_expectation() {
    for name in WORKLOADS {
        let workload = Workload::load(dir(), name, 2024).unwrap();
        assert_eq!(workload.spec.seed, 2024);
        assert!(
            !workload.spec.record_risk,
            "{name}: timed runs record no risk"
        );
        let expect = Expect::read(dir(), name)
            .unwrap()
            .unwrap_or_else(|| panic!("{name} has no expect file; run `benchmark/run.sh --bless`"));
        assert_eq!(expect.seed, 2024, "{name} is blessed at the default seed");
        assert!(expect.mean_messages_used >= 1.0);
    }
    assert!(Workload::load(dir(), "no_such_workload", 1).is_err());
}

#[test]
fn every_workload_runs_end_to_end_at_a_tiny_size() {
    let _alone = timing_lock();
    for name in WORKLOADS {
        let workload = tiny(name);
        let e2e = end_to_end(&workload, dir(), 0.0, false).unwrap();
        assert_eq!(e2e.failed, 0, "{name}: {:?}", e2e.failures);
        // Warm-up, three timed repeats, verification.
        assert_eq!(e2e.attempted, 5 * workload.spec.iterations as u64, "{name}");
        assert_eq!(e2e.repeats, 3, "{name}");
        for (metric, value) in [
            ("setup_s", e2e.setup_s),
            ("round_wall_us", e2e.round_wall_us),
            ("cpu_us_per_round", e2e.cpu_us_per_round),
            ("peak_rss_mb", e2e.peak_rss_mb),
        ] {
            assert!(
                value.is_finite() && value >= 0.0,
                "{name} {metric} = {value}"
            );
        }
        assert!(e2e.setup_s > 0.0 && e2e.round_wall_us > 0.0 && e2e.peak_rss_mb > 0.0);
        let (q1, q3) = e2e.round_wall_us_quartiles;
        assert!(q1 <= e2e.round_wall_us && e2e.round_wall_us <= q3, "{name}");
    }
}

#[test]
fn a_wrong_expectation_fails_the_whole_verification_run() {
    let _alone = timing_lock();
    let scratch = std::env::temp_dir().join(format!("bcc-benchmark-test-{}", std::process::id()));
    std::fs::create_dir_all(scratch.join("workloads")).unwrap();
    let workload = tiny("adaptive_markov");
    let blessed = end_to_end(&workload, &scratch, 0.0, true).unwrap();
    assert_eq!(blessed.failed, 0, "{:?}", blessed.failures);
    let agreeing = end_to_end(&workload, &scratch, 0.0, false).unwrap();
    assert_eq!(agreeing.failed, 0, "{:?}", agreeing.failures);

    let path = Expect::path(&scratch, workload.name);
    let mut expect = Expect::read(&scratch, workload.name).unwrap().unwrap();
    expect.final_risk *= 1.0 + 1e-6;
    expect.write(&scratch, workload.name).unwrap();
    let disagreeing = end_to_end(&workload, &scratch, 0.0, false).unwrap();
    assert_eq!(disagreeing.failed, workload.spec.iterations as u64);
    assert!(
        disagreeing
            .failures
            .iter()
            .any(|f| f.contains("final risk")),
        "{:?}",
        disagreeing.failures
    );
    std::fs::remove_file(path).unwrap();
    std::fs::remove_dir_all(scratch).unwrap();
}

#[test]
fn traced_runs_emit_every_listed_metric_and_a_well_formed_span_tree() {
    let _alone = timing_lock();
    for name in WORKLOADS {
        let workload = tiny(name);
        let layers = per_layer(&workload, dir()).unwrap();
        assert_eq!(layers.failed, 0, "{name}: {:?}", layers.failures);
        assert!(
            layers.attempted >= 4 * workload.spec.iterations as u64,
            "{name}"
        );

        let emitted: Vec<&str> = layers.metrics.iter().map(|(n, _)| *n).collect();
        let listed: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(emitted, listed, "{name}");
        assert!(
            layers.metrics.iter().all(|(_, v)| v.is_finite()),
            "{name}: {:?}",
            layers.metrics
        );
        let metric = |wanted: &str| {
            layers
                .metrics
                .iter()
                .find(|(n, _)| *n == wanted)
                .map(|(_, v)| *v)
                .unwrap()
        };

        // The tree: one `round` root per round, children inside parents,
        // self time never negative.
        layers
            .trace
            .check()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let spans = layers.trace.spans();
        let roots: Vec<usize> = spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == "round")
            .map(|s| s.round)
            .collect();
        let every_round: Vec<usize> = (0..workload.spec.iterations).collect();
        assert_eq!(roots, every_round, "{name}: one root per round");
        assert!(spans
            .iter()
            .all(|s| s.parent.is_some() || s.name == "round" || s.name == "replay"));
        for (span, own) in spans.iter().zip(layers.trace.self_ns()) {
            assert!(own <= span.duration_ns(), "{name}: span {}", span.id);
            assert!(
                is_name(span.name) && is_name(span.layer),
                "{name}: {span:?}"
            );
        }
        assert_eq!(metric("trace.spans"), spans.len() as f64);
        assert!(metric("trace.replayed_rounds") >= 1.0);

        // What the replay attributes plus what it leaves to the engine is
        // the round: a replay that charged more than the round took would
        // show here. Only where costs are serial, i.e. on virtual time.
        // Where one layer owns nearly the whole round (the QR solve), host
        // noise alone puts the two a few percent apart, so a miss is
        // measured once more before it counts.
        if workload.spec.backend == BackendSpec::Virtual {
            let gap = |metrics: &[(&str, f64)]| {
                let metric = |wanted: &str| metrics.iter().find(|(n, _)| *n == wanted).unwrap().1;
                let round = metric("trace.round_us_mean");
                let accounted =
                    metric("trace.attributed_us") + metric("cluster.engine_residual_us");
                (accounted - round).abs() / round
            };
            let first = gap(&layers.metrics);
            assert!(
                first <= 0.1 || gap(&per_layer(&workload, dir()).unwrap().metrics) <= 0.1,
                "{name}: accounted time is {first:.3} of the round off it, twice"
            );
        }
        let shares: f64 = layers
            .metrics
            .iter()
            .filter(|(n, _)| n.starts_with("share."))
            .map(|(_, v)| *v)
            .sum();
        assert!(
            (shares - 1.0).abs() < 1e-9,
            "{name}: shares sum to {shares}"
        );

        // Layers off this workload's path read 0; layers on it do not.
        let on_sockets = matches!(workload.spec.backend, BackendSpec::Tcp { .. });
        assert_eq!(
            metric("net.bytes_sent_per_round") > 0.0,
            on_sockets,
            "{name}"
        );
        assert_eq!(
            metric("cluster.wire_bytes_per_msg") > 0.0,
            on_sockets,
            "{name}"
        );
        assert_eq!(
            metric("control.static_round_us") > 0.0,
            !workload.spec.controller.is_default(),
            "{name}"
        );
        assert_eq!(
            metric("linalg.qr_solve_us") > 0.0,
            workload.spec.scheme.name == "cyclic-repetition",
            "{name}"
        );
    }
}
