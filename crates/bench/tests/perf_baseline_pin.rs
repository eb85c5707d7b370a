//! Regression pin: the shifted-exponential path under the new
//! `StragglerModel` trait must reproduce the *checked-in* engine-bench
//! artifact's simulated metrics byte-for-byte.
//!
//! `BENCH_round_engine.json` was generated before the straggler-model
//! refactor, so its `simulated_seconds_per_round` / message counts are a
//! fossil of the legacy hardcoded sampling path (wall-clock fields are
//! host-dependent and excluded). Running the same specs today must land on
//! exactly the same simulated numbers — this is the end-to-end guarantee
//! that the trait indirection changed no Table I/II behaviour.

use bcc_bench::experiments::engine_bench::EngineBenchResult;
use bcc_core::experiment::Experiment;
use std::path::PathBuf;

fn checked_in_artifact() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_round_engine.json")
}

#[test]
fn engine_artifact_simulated_metrics_replay_byte_identically() {
    let body = std::fs::read_to_string(checked_in_artifact()).expect("artifact is checked in");
    let artifact: EngineBenchResult = serde_json::from_str(&body).expect("artifact parses");
    let specs = artifact.config.specs();
    assert_eq!(specs.len(), artifact.rows.len(), "one spec per row");

    for (spec, row) in specs.into_iter().zip(&artifact.rows) {
        let report = Experiment::from_spec(spec)
            .expect("artifact specs build")
            .run()
            .expect("artifact specs complete");
        assert_eq!(report.scheme, row.scheme);
        assert_eq!(
            report.metrics.avg_round_time().to_bits(),
            row.simulated_seconds_per_round.to_bits(),
            "{}: simulated round time drifted from the checked-in artifact",
            row.scheme
        );
        assert_eq!(
            report.metrics.avg_recovery_threshold().to_bits(),
            row.avg_messages_used.to_bits(),
            "{}: recovery threshold drifted",
            row.scheme
        );
        assert_eq!(
            report.metrics.avg_communication_load().to_bits(),
            row.avg_communication_units.to_bits(),
            "{}: communication load drifted",
            row.scheme
        );
    }
}

/// The checked-in straggler-sweep artifact's simulated statistics must
/// replay bit-for-bit under the policy-layer engine: the sweep runs with
/// no `PolicySpec` (⇒ `wait-decodable`), so its cells are part of the
/// "every existing artifact is byte-identical" contract.
#[test]
fn sweep_artifact_shifted_exp_cells_replay_byte_identically() {
    use bcc_bench::experiments::sweep::SweepResult;
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_straggler_sweep.json");
    let body = std::fs::read_to_string(path).expect("artifact is checked in");
    let artifact: SweepResult = serde_json::from_str(&body).expect("artifact parses");

    let first_seed = artifact.config.seeds[0];
    let mut checked = 0;
    for (name, spec) in artifact.config.cells() {
        if !name.starts_with("shifted-exp") || spec.seed != first_seed {
            continue;
        }
        let report = Experiment::from_spec(spec)
            .expect("sweep cell builds")
            .run()
            .expect("sweep cell completes");
        let row = artifact
            .row("shifted-exp", &report.scheme, first_seed)
            .expect("cell row present");
        assert_eq!(
            report.metrics.avg_round_time().to_bits(),
            row.mean_round_time.to_bits(),
            "{name}: simulated round time drifted from the checked-in artifact"
        );
        assert_eq!(
            report.metrics.avg_recovery_threshold().to_bits(),
            row.avg_messages_used.to_bits(),
            "{name}: recovery threshold drifted"
        );
        checked += 1;
    }
    assert_eq!(checked, 3, "one cell per paper scheme");
}

/// The committed training-mode grid replays from its own config: one cell
/// per builtin mode, pinning the simulated wallclock (overlapped makespan
/// for the stale modes) and final risk bit-for-bit. Any drift is a change
/// in the mode schedule algebra itself — exactly what the artifact exists
/// to fossilize.
#[test]
fn modes_artifact_cells_replay_byte_identically() {
    use bcc_bench::experiments::modes::ModesResult;
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_modes.json");
    let body = std::fs::read_to_string(path).expect("artifact is checked in");
    let artifact: ModesResult = serde_json::from_str(&body).expect("artifact parses");

    // One cell per builtin mode keeps the debug-mode cost modest.
    for (model, scheme, mode) in [
        ("pareto", "bcc", "ssgd"),
        ("pareto", "bcc", "ssp"),
        ("bimodal", "bcc", "asgd"),
    ] {
        let (name, spec) = artifact
            .config
            .cells()
            .into_iter()
            .find(|(name, _)| name == &format!("{model}_{scheme}_{mode}"))
            .expect("cell in grid");
        let report = Experiment::from_spec(spec)
            .expect("mode cell builds")
            .run()
            .expect("mode cell completes");
        let row = artifact.row(model, scheme, mode).expect("row present");
        assert_eq!(
            report.simulated_seconds.to_bits(),
            row.simulated_seconds.to_bits(),
            "{name}: simulated wallclock drifted"
        );
        assert_eq!(
            report.trace.final_risk().expect("risk recorded").to_bits(),
            row.final_risk.to_bits(),
            "{name}: final risk drifted"
        );
    }
}

/// The committed networked-backend artifact replays from its own config:
/// the simulated metrics (messages per round, communication units) and the
/// cross-backend equivalence flag are deterministic on the staircase
/// latency profile, so re-running the cells over fresh loopback sockets
/// must land on the same numbers. Wall times and byte counts are host/
/// wire observables and excluded.
///
/// Unlike the virtual-backend pins above, this one runs real sleeps on
/// real sockets: the staircase's real-time gaps are far wider than normal
/// scheduler jitter, but a fully saturated host (e.g. the whole workspace
/// test sweep in parallel) can overshoot them and flip an arrival pair.
/// The replay therefore retries a bounded number of times — transient
/// jitter passes on a retry, while a genuine protocol change fails all
/// attempts deterministically.
#[test]
fn net_artifact_simulated_metrics_replay_byte_identically() {
    use bcc_bench::experiments::net_bench;
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_net.json");
    let body = std::fs::read_to_string(path).expect("artifact is checked in");
    let artifact: net_bench::NetBenchResult = serde_json::from_str(&body).expect("artifact parses");

    let replay_matches = |fresh: &net_bench::NetBenchResult| -> Result<(), String> {
        if fresh.rows.len() != artifact.rows.len() {
            return Err("cell count differs".into());
        }
        for row in &artifact.rows {
            let live = fresh.row(&row.cell).ok_or("cell missing")?;
            if !live.gradients_match_virtual {
                return Err(format!(
                    "{}: TCP backend no longer matches the virtual backend",
                    row.cell
                ));
            }
            if live.avg_messages_used.to_bits() != row.avg_messages_used.to_bits() {
                return Err(format!(
                    "{}: messages per round drifted from the checked-in artifact \
                     ({} vs {})",
                    row.cell, live.avg_messages_used, row.avg_messages_used
                ));
            }
            if live.avg_communication_units.to_bits() != row.avg_communication_units.to_bits() {
                return Err(format!("{}: communication load drifted", row.cell));
            }
            if live.deaths != row.deaths {
                return Err(format!("{}: death count drifted", row.cell));
            }
        }
        Ok(())
    };

    let mut last_err = String::new();
    for _attempt in 0..3 {
        match replay_matches(&net_bench::run(&artifact.config)) {
            Ok(()) => return,
            Err(e) => last_err = e,
        }
    }
    panic!("net artifact replay failed on every attempt: {last_err}");
}

/// The committed adaptive-control grid replays from its own config: one
/// cell per builtin controller plus the paper's rule, pinning the
/// simulated wallclock, final risk, and switch count bit-for-bit. The grid
/// runs on the virtual backend, so any drift is a change in the
/// telemetry/controller algebra itself. The pin also re-asserts both
/// clauses of the claim the artifact exists to carry: every adaptive
/// controller beats static + best-effort-all on wallclock at ≤ 1% risk
/// slack in at least four cells, and none beats static + wait-decodable
/// (the paper's rule) at equal-or-lower risk in any cell.
#[test]
fn control_artifact_cells_replay_byte_identically() {
    use bcc_bench::experiments::control::{ControlResult, PAPER_RULE, START_POLICY};
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_adaptive.json");
    let body = std::fs::read_to_string(path).expect("artifact is checked in");
    let artifact: ControlResult = serde_json::from_str(&body).expect("artifact parses");

    // One cell per builtin controller keeps the debug-mode cost modest;
    // static rides on the markov model, the adaptives and the paper's rule
    // on bimodal.
    for (model, scheme, controller, policy, stem) in [
        ("markov", "bcc", "static", START_POLICY, "static"),
        (
            "markov",
            "uncoded",
            "adaptive-k",
            START_POLICY,
            "adaptive-k",
        ),
        (
            "bimodal",
            "bcc",
            "quantile-deadline",
            START_POLICY,
            "quantile-deadline",
        ),
        (
            "bimodal",
            "fractional-repetition",
            "static",
            PAPER_RULE,
            "static_wait-decodable",
        ),
    ] {
        let (name, spec) = artifact
            .config
            .cells()
            .into_iter()
            .find(|(name, _)| name == &format!("{model}_{scheme}_{stem}"))
            .expect("cell in grid");
        assert_eq!(spec.policy.name, policy, "{name}: starting policy");
        let report = Experiment::from_spec(spec)
            .expect("control cell builds")
            .run()
            .expect("control cell completes");
        let row = artifact
            .row(model, scheme, controller, policy)
            .expect("row present");
        assert_eq!(
            report.simulated_seconds.to_bits(),
            row.simulated_seconds.to_bits(),
            "{name}: simulated wallclock drifted"
        );
        assert_eq!(
            report.trace.final_risk().expect("risk recorded").to_bits(),
            row.final_risk.to_bits(),
            "{name}: final risk drifted"
        );
        assert_eq!(
            report.controller_switches, row.switches,
            "{name}: switch count drifted"
        );
        assert_eq!(
            report.controller_records.len(),
            row.trace.len(),
            "{name}: decision trace length drifted"
        );
    }

    for controller in ["quantile-deadline", "adaptive-k"] {
        let wins = artifact
            .wins_over_static(START_POLICY, 0.01)
            .into_iter()
            .filter(|(r, _)| r.controller == controller)
            .count();
        assert!(
            wins >= 4,
            "checked-in artifact must show `{controller}` beating static in ≥ 4 cells (got {wins})"
        );
    }
    let over_rule = artifact.wins_over_static(PAPER_RULE, 0.0);
    assert!(
        over_rule.is_empty(),
        "checked-in artifact must show no row beating the paper's rule, got {over_rule:?}"
    );
}

/// Static bit-identity: threading an explicit `static` controller through
/// a pre-controller artifact's spec must change nothing. The modes grid
/// predates `bcc_control`, so replaying one of its cells with the
/// controller field spelled out pins the no-op guarantee end to end.
#[test]
fn explicit_static_controller_replays_pre_controller_artifact_bits() {
    use bcc_bench::experiments::modes::ModesResult;
    use bcc_core::experiment::ControllerSpec;
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_modes.json");
    let body = std::fs::read_to_string(path).expect("artifact is checked in");
    let artifact: ModesResult = serde_json::from_str(&body).expect("artifact parses");

    let (name, mut spec) = artifact
        .config
        .cells()
        .into_iter()
        .find(|(name, _)| name == "pareto_bcc_ssgd")
        .expect("cell in grid");
    spec.controller = ControllerSpec::named("static");
    let report = Experiment::from_spec(spec)
        .expect("mode cell builds with explicit static controller")
        .run()
        .expect("mode cell completes");
    let row = artifact.row("pareto", "bcc", "ssgd").expect("row present");
    assert_eq!(
        report.simulated_seconds.to_bits(),
        row.simulated_seconds.to_bits(),
        "{name}: explicit static controller changed the simulated wallclock"
    );
    assert_eq!(
        report.trace.final_risk().expect("risk recorded").to_bits(),
        row.final_risk.to_bits(),
        "{name}: explicit static controller changed the final risk"
    );
    assert_eq!(report.controller_switches, 0, "static never switches");
}

/// The committed policy-tradeoff artifact replays from its own config:
/// simulated times, coverage, and final risk are deterministic on the
/// virtual backend, so any drift is a behaviour change in the policy
/// layer itself.
#[test]
fn policy_artifact_cells_replay_byte_identically() {
    use bcc_bench::experiments::policy_sweep::PolicySweepResult;
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_policy_tradeoff.json");
    let body = std::fs::read_to_string(path).expect("artifact is checked in");
    let artifact: PolicySweepResult = serde_json::from_str(&body).expect("artifact parses");

    // One exact and one approximate cell keep the debug-mode cost modest.
    for (model, scheme, policy) in [
        ("shifted-exp", "uncoded", "fastest-k"),
        ("shifted-exp", "bcc", "wait-decodable"),
    ] {
        let (name, spec) = artifact
            .config
            .cells()
            .into_iter()
            .find(|(name, _)| name == &format!("{model}_{scheme}_{policy}"))
            .expect("cell in grid");
        let report = Experiment::from_spec(spec)
            .expect("policy cell builds")
            .run()
            .expect("policy cell completes");
        let row = artifact.row(model, scheme, policy).expect("row present");
        assert_eq!(
            report.metrics.avg_round_time().to_bits(),
            row.mean_round_time.to_bits(),
            "{name}: simulated round time drifted"
        );
        assert_eq!(
            report.metrics.total_time.to_bits(),
            row.total_time.to_bits(),
            "{name}: total simulated time drifted"
        );
        assert_eq!(
            report.trace.final_risk().expect("risk recorded").to_bits(),
            row.final_risk.to_bits(),
            "{name}: final risk drifted"
        );
    }
}
