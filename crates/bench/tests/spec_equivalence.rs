//! Spec-vs-code equivalence pins: every tracked paper spec file (Tables
//! I and II, and the three ablations a spec list describes) is byte for
//! byte what `repro fig4 table1 table2 ablations` writes, and the Table I
//! spec reproduces exactly what the hand-parameterized `table1` path
//! (`ScenarioConfig::scenario_one`) produces — same schemes, same
//! `messages_used`, bit-identical times. This is the guarantee that makes
//! `repro scenario experiments/table1_scenario_one.spec.json` a faithful
//! replay of the paper artifact.

use bcc_bench::experiments::{paper_specs, scenario, spec_run};
use bcc_bench::grid::Options;
use std::path::PathBuf;

/// Iterations for the pinned comparison (the full artifact runs 100; the
/// equivalence property is per-round, so a short run pins it cheaply).
const ITERATIONS: usize = 8;

fn experiments_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../experiments")
}

fn checked_in_spec() -> PathBuf {
    experiments_dir().join("table1_scenario_one.spec.json")
}

#[test]
fn every_paper_spec_file_is_what_repro_writes() {
    let specs = paper_specs(Options::default());
    let names: Vec<&str> = specs.iter().map(|&(_, name, _)| name).collect();
    assert_eq!(
        names,
        [
            "table1_scenario_one",
            "table2_scenario_two",
            "ablation_compression",
            "ablation_bandwidth",
            "ablation_random_stragglers",
        ]
    );
    for (_, name, spec) in specs {
        let path = experiments_dir().join(format!("{name}.spec.json"));
        let checked_in =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            checked_in == serde_json::to_string_pretty(&spec).unwrap(),
            "experiments/{name}.spec.json is not what repro writes — regenerate it"
        );
    }
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
