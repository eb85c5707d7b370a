//! Spec-vs-code equivalence pin: the checked-in Table I spec file must
//! reproduce exactly what the hand-parameterized `table1` path
//! (`ScenarioConfig::scenario_one`) produces — same schemes, same
//! `messages_used`, bit-identical times. This is the guarantee that makes
//! `repro scenario experiments/table1_scenario_one.spec.json` a faithful
//! replay of the paper artifact.

use bcc_bench::experiments::{scenario, spec_run};
use std::path::PathBuf;

/// Iterations for the pinned comparison (the full artifact runs 100; the
/// equivalence property is per-round, so a short run pins it cheaply).
const ITERATIONS: usize = 8;

fn checked_in_spec() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../experiments/table1_scenario_one.spec.json")
}

#[test]
fn table1_spec_file_matches_the_code_path() {
    let mut spec = spec_run::load(&checked_in_spec()).expect("checked-in spec loads");
    assert_eq!(
        spec.experiments.len(),
        3,
        "Table I compares uncoded, CR, and BCC"
    );
    for exp in &mut spec.experiments {
        exp.iterations = ITERATIONS;
        exp.record_risk = false;
    }
    let from_spec = spec_run::run(&spec).expect("spec replay completes");

    let mut cfg = scenario::ScenarioConfig::scenario_one();
    cfg.iterations = ITERATIONS;
    let from_code = scenario::run(&cfg, false);

    assert_eq!(from_spec.rows.len(), from_code.rows.len());
    for (spec_row, code_row) in from_spec.rows.iter().zip(&from_code.rows) {
        assert_eq!(spec_row.scheme, code_row.scheme);
        // `messages_used` byte-for-byte: the average is messages/rounds, so
        // exact equality of the f64 pins the integer counts.
        assert_eq!(
            spec_row.recovery_threshold, code_row.recovery_threshold,
            "{}: spec replay diverged from the hand-parameterized path",
            spec_row.scheme
        );
        assert_eq!(spec_row.communication_load, code_row.communication_load);
        assert_eq!(spec_row.total_time, code_row.total_time);
        assert_eq!(spec_row.communication_time, code_row.communication_time);
        assert_eq!(spec_row.computation_time, code_row.computation_time);
    }
}

#[test]
fn checked_in_spec_matches_the_resolved_scenario() {
    // The checked-in file must stay in sync with what `repro table1`
    // resolves — otherwise the replay guarantee silently weakens.
    let spec = spec_run::load(&checked_in_spec()).expect("checked-in spec loads");
    let cfg = scenario::ScenarioConfig::scenario_one();
    for (exp, scheme) in spec.experiments.iter().zip(scenario::paper_schemes(cfg.r)) {
        let mut resolved = cfg.experiment_spec(scheme, false);
        // The artifact's iteration count tracks the repro invocation
        // (--fast trims it); everything else must match exactly.
        resolved.iterations = exp.iterations;
        assert_eq!(exp, &resolved);
    }
}
