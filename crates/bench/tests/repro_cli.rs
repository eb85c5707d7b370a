//! CLI error-path tests for the `repro` binary: bad inputs must exit
//! non-zero with a readable message, never a panic, and the perf gate's
//! exit code must track its verdict.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("repro binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bcc_repro_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn unknown_scheme_in_spec_file_is_a_readable_error() {
    let dir = scratch("scheme");
    let spec = dir.join("bad_scheme.json");
    std::fs::write(
        &spec,
        r#"{"workers": 10, "units": 10, "scheme": "lt-codes", "iterations": 2}"#,
    )
    .unwrap();

    let out = repro(&["scenario", spec.to_str().unwrap()], &dir);
    assert!(!out.status.success(), "unknown scheme must exit non-zero");
    let err = stderr(&out);
    assert!(
        err.contains("unknown scheme") && err.contains("lt-codes"),
        "stderr must name the bad scheme: {err}"
    );
    assert!(
        err.contains("uncoded"),
        "stderr must list the registered schemes: {err}"
    );
    assert!(!err.contains("panicked"), "must not panic: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_straggler_model_in_spec_file_is_a_readable_error() {
    let dir = scratch("model");
    let spec = dir.join("bad_model.json");
    std::fs::write(
        &spec,
        r#"{"workers": 10, "units": 10, "scheme": "uncoded", "latency": "HeavyTail"}"#,
    )
    .unwrap();

    let out = repro(&["scenario", spec.to_str().unwrap()], &dir);
    assert!(!out.status.success(), "unknown model must exit non-zero");
    let err = stderr(&out);
    assert!(
        err.contains("HeavyTail") && err.contains("LatencySpec"),
        "stderr must name the bad latency variant: {err}"
    );
    assert!(!err.contains("panicked"), "must not panic: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_spec_file_is_a_readable_error() {
    let dir = scratch("missing");
    let out = repro(&["scenario", "does_not_exist.json"], &dir);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("does_not_exist.json"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_target_is_a_usage_error() {
    let dir = scratch("target");
    let out = repro(&["fig7"], &dir);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown target"), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gate_requires_a_baseline_dir() {
    let dir = scratch("gate_usage");
    let out = repro(&["gate"], &dir);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--baseline-dir"), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gate_exit_code_tracks_the_verdict() {
    // Build a baseline + current pair from the repo's checked-in BENCH
    // files, then inject a >1.5x drift and watch the exit code flip.
    let repo_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = scratch("gate_verdict");
    let (baseline, current) = (dir.join("baseline"), dir.join("current"));
    std::fs::create_dir_all(&baseline).unwrap();
    std::fs::create_dir_all(&current).unwrap();
    for name in bcc_bench::experiments::GRIDS.iter().map(|grid| grid.file()) {
        std::fs::copy(repo_root.join(&name), baseline.join(&name)).unwrap();
        std::fs::copy(repo_root.join(&name), current.join(&name)).unwrap();
    }

    // Identical measurements: pass, exit 0.
    let out = repro(
        &[
            "gate",
            "--baseline-dir",
            baseline.to_str().unwrap(),
            "--current-dir",
            current.to_str().unwrap(),
        ],
        &dir,
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    // Inject a relative 2x drift: halve every gated (simulated) reading in
    // the baseline copy, making `current` read twice the baseline per entry.
    let engine = baseline.join("BENCH_round_engine.json");
    let mut doc: bcc_bench::experiments::engine_bench::EngineBenchResult =
        serde_json::from_str(&std::fs::read_to_string(&engine).unwrap()).unwrap();
    for row in &mut doc.rows {
        row.simulated_seconds_per_round /= 2.0;
    }
    std::fs::write(&engine, serde_json::to_string_pretty(&doc).unwrap()).unwrap();

    let out = repro(
        &[
            "gate",
            "--baseline-dir",
            baseline.to_str().unwrap(),
            "--current-dir",
            current.to_str().unwrap(),
        ],
        &dir,
    );
    assert_eq!(
        out.status.code(),
        Some(1),
        "2x drift must fail the gate: {}",
        stderr(&out)
    );
    assert!(stderr(&out).contains("FAILED"), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn help_names_every_target_of_the_table() {
    let dir = scratch("help");
    let out = repro(&["--help"], &dir);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let usage: Vec<&str> = stdout
        .split(|c: char| !(c.is_alphanumeric() || c == '-'))
        .collect();
    for grid in &bcc_bench::experiments::GRIDS {
        assert!(
            usage.contains(&grid.target),
            "`{}` missing from --help:\n{stdout}",
            grid.target
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn list_enumerates_schemes_models_and_policies() {
    let dir = scratch("list");
    let out = repro(&["list"], &dir);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    for expected in [
        "bcc",
        "cyclic-repetition",
        "shifted-exp",
        "pareto",
        "markov",
        "wait-decodable",
        "fastest-k",
        "deadline",
        "best-effort-all",
        "ssgd",
        "ssp",
        "asgd",
        "training modes",
        "straggler controllers",
        "static",
        "quantile-deadline",
        "adaptive-k",
        "Batched Coupon's Collector",
        "in-memory",
        "minibatch",
        "Virtual",
        "Threaded",
        "Tcp",
        "bcc-worker",
    ] {
        assert!(stdout.contains(expected), "`{expected}` missing:\n{stdout}");
    }
    // No `DataSpec` variant selects a chunk-streamed path: none is listed.
    assert!(!stdout.contains("chunked"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn list_cannot_be_combined_with_targets() {
    let dir = scratch("list_combined");
    let out = repro(&["list", "engine"], &dir);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("cannot be combined"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn zero_minibatch_in_spec_file_is_a_readable_error() {
    let dir = scratch("minibatch_zero");
    let spec = dir.join("zero_minibatch.json");
    std::fs::write(
        &spec,
        r#"{"workers": 10, "units": 10, "scheme": "uncoded", "iterations": 2,
            "data": {"Synthetic": {"points_per_unit": 5, "dim": 4, "minibatch": 0}}}"#,
    )
    .unwrap();

    let out = repro(&["scenario", spec.to_str().unwrap()], &dir);
    assert_eq!(
        out.status.code(),
        Some(1),
        "zero minibatch must fail the run: {}",
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(
        err.contains("data.minibatch"),
        "stderr must name the bad field: {err}"
    );
    assert!(!err.contains("panicked"), "must not panic: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn oversized_minibatch_in_spec_file_is_a_readable_error() {
    let dir = scratch("minibatch_oversized");
    let spec = dir.join("oversized_minibatch.json");
    std::fs::write(
        &spec,
        r#"{"workers": 10, "units": 10, "scheme": "uncoded", "iterations": 2,
            "data": {"Synthetic": {"points_per_unit": 5, "dim": 4, "minibatch": 11}}}"#,
    )
    .unwrap();

    let out = repro(&["scenario", spec.to_str().unwrap()], &dir);
    assert_eq!(
        out.status.code(),
        Some(1),
        "oversized minibatch must fail the run: {}",
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(
        err.contains("data.minibatch") && err.contains("exceeds"),
        "stderr must explain the bound: {err}"
    );
    assert!(!err.contains("panicked"), "must not panic: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_backend_in_spec_file_is_a_readable_error() {
    let dir = scratch("backend");
    let spec = dir.join("bad_backend.json");
    std::fs::write(
        &spec,
        r#"{"workers": 10, "units": 10, "scheme": "uncoded", "iterations": 2,
            "backend": "Grpc"}"#,
    )
    .unwrap();

    let out = repro(&["scenario", spec.to_str().unwrap()], &dir);
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown backend is a spec error (usage exit code): {}",
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(
        err.contains("unknown backend") && err.contains("Grpc"),
        "stderr must name the bad backend: {err}"
    );
    assert!(
        err.contains("Virtual, Threaded, Tcp"),
        "stderr must list the valid backends: {err}"
    );
    assert!(!err.contains("panicked"), "must not panic: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_mode_in_spec_file_is_a_readable_error() {
    // The bare-string form validates at parse time: a typo'd mode name is
    // a spec error (usage exit code) naming every valid variant.
    let dir = scratch("mode");
    let spec = dir.join("bad_mode.json");
    std::fs::write(
        &spec,
        r#"{"workers": 10, "units": 10, "scheme": "uncoded", "mode": "hogwild", "iterations": 2}"#,
    )
    .unwrap();

    let out = repro(&["scenario", spec.to_str().unwrap()], &dir);
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown mode is a spec error (usage exit code): {}",
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(
        err.contains("unknown mode") && err.contains("hogwild"),
        "stderr must name the bad mode: {err}"
    );
    assert!(
        err.contains("ssgd, ssp, asgd"),
        "stderr must list the valid modes: {err}"
    );
    assert!(!err.contains("panicked"), "must not panic: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn invalid_mode_parameter_in_spec_file_is_a_readable_error() {
    // Object form passes parsing (custom registrations stay reachable) but
    // a zero staleness bound must fail the build with the field named.
    let dir = scratch("mode_param");
    let spec = dir.join("zero_staleness.json");
    std::fs::write(
        &spec,
        r#"{"workers": 10, "units": 10, "scheme": "uncoded", "iterations": 2,
            "mode": {"name": "ssp", "staleness": 0}}"#,
    )
    .unwrap();

    let out = repro(&["scenario", spec.to_str().unwrap()], &dir);
    assert!(
        !out.status.success(),
        "zero staleness must fail the run: {}",
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(
        err.contains("mode.staleness"),
        "stderr must name the bad field: {err}"
    );
    assert!(!err.contains("panicked"), "must not panic: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_controller_in_spec_file_is_a_readable_error() {
    // The bare-string form validates at parse time: a typo'd controller
    // name is a spec error (usage exit code) naming every builtin.
    let dir = scratch("controller");
    let spec = dir.join("bad_controller.json");
    std::fs::write(
        &spec,
        r#"{"workers": 10, "units": 10, "scheme": "uncoded", "controller": "pid", "iterations": 2}"#,
    )
    .unwrap();

    let out = repro(&["scenario", spec.to_str().unwrap()], &dir);
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown controller is a spec error (usage exit code): {}",
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(
        err.contains("unknown controller") && err.contains("pid"),
        "stderr must name the bad controller: {err}"
    );
    assert!(
        err.contains("static") && err.contains("quantile-deadline") && err.contains("adaptive-k"),
        "stderr must list the builtin controllers: {err}"
    );
    assert!(!err.contains("panicked"), "must not panic: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn adaptive_controller_under_stale_mode_is_a_readable_error() {
    // Object form passes parsing, but an adaptive controller under a
    // non-synchronous mode must fail the build with the field named.
    let dir = scratch("controller_mode");
    let spec = dir.join("adaptive_asgd.json");
    std::fs::write(
        &spec,
        r#"{"workers": 10, "units": 10, "scheme": "uncoded", "iterations": 2,
            "mode": "asgd", "controller": {"name": "adaptive-k", "slow_factor": 3.0}}"#,
    )
    .unwrap();

    let out = repro(&["scenario", spec.to_str().unwrap()], &dir);
    assert!(
        !out.status.success(),
        "adaptive control under asgd must fail the run: {}",
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(
        err.contains("controller") && err.contains("ssgd"),
        "stderr must name the field and the required mode: {err}"
    );
    assert!(!err.contains("panicked"), "must not panic: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_policy_in_spec_file_is_a_readable_error() {
    let dir = scratch("policy");
    let spec = dir.join("bad_policy.json");
    std::fs::write(
        &spec,
        r#"{"workers": 10, "units": 10, "scheme": "uncoded", "policy": "vote-majority", "iterations": 2}"#,
    )
    .unwrap();

    let out = repro(&["scenario", spec.to_str().unwrap()], &dir);
    assert!(!out.status.success(), "unknown policy must exit non-zero");
    let err = stderr(&out);
    assert!(
        err.contains("unknown aggregation policy") && err.contains("vote-majority"),
        "stderr must name the bad policy: {err}"
    );
    assert!(
        err.contains("wait-decodable"),
        "stderr must list the registered policies: {err}"
    );
    assert!(!err.contains("panicked"), "must not panic: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--fast` trims Table I/II to 20 iterations; the checked-in table specs
/// are the full configuration's, so a smoke run writes its result but no
/// spec.
#[test]
fn fast_table_runs_write_no_trimmed_spec() {
    let dir = scratch("fast_table");
    let out_dir = dir.join("out");
    let out = repro(
        &["table1", "--fast", "--out", out_dir.to_str().unwrap()],
        &dir,
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.contains("[--fast: skipping table1_scenario_one specs"),
        "{stdout}"
    );
    assert!(out_dir.join("table1_scenario_one.json").is_file());
    let written: Vec<String> = std::fs::read_dir(&out_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        !written.iter().any(|name| name.ends_with(".spec.json")),
        "a --fast run wrote a trimmed spec: {written:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
