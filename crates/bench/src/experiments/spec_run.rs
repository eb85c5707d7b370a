//! Spec-file experiments: load a scenario from JSON and run it.
//!
//! The file format is either a single [`ExperimentSpec`] object or a
//! [`ScenarioSpec`] — `{"name": ..., "experiments": [...]}` — grouping the
//! rows of one table/figure. `repro scenario <spec.json>` goes through this
//! module, so any paper row (and arbitrary new scenarios) reproduces from a
//! file with no Rust changes.

use super::scenario::SchemeRow;
use crate::report::{f1, f3, Table};
use bcc_core::error::BccError;
use bcc_core::experiment::{Experiment, ExperimentSpec, Registries};
use serde::{Deserialize, Serialize, Value};
use std::path::Path;

/// A named group of experiments — the spec-file analogue of one table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioSpec {
    /// Display name.
    pub name: String,
    /// The experiments, in row order.
    pub experiments: Vec<ExperimentSpec>,
}

impl Deserialize for ScenarioSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        if v.get("experiments").is_some() {
            Ok(Self {
                name: match v.get("name") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => "scenario".into(),
                },
                experiments: Deserialize::from_value(v.field("experiments")?)?,
            })
        } else {
            // A bare experiment object is a one-row scenario.
            let spec = ExperimentSpec::from_value(v)?;
            Ok(Self {
                name: spec.name.clone(),
                experiments: vec![spec],
            })
        }
    }
}

/// Results of running a scenario spec: one Table I/II-style row per
/// experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecRunResult {
    /// The scenario name.
    pub name: String,
    /// One row per experiment, in spec order.
    pub rows: Vec<SchemeRow>,
    /// The resolved specs (replay inputs), aligned with `rows`.
    pub specs: Vec<ExperimentSpec>,
}

/// Parses a scenario (or single experiment) spec from JSON text.
///
/// # Errors
/// [`BccError::Spec`] on malformed JSON or a missing required field.
pub fn parse(json: &str) -> Result<ScenarioSpec, BccError> {
    serde_json::from_str(json).map_err(|e| BccError::Spec(e.to_string()))
}

/// Loads a scenario spec file.
///
/// # Errors
/// [`BccError::Spec`] on I/O or parse failure.
pub fn load(path: &Path) -> Result<ScenarioSpec, BccError> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| BccError::Spec(format!("cannot read {}: {e}", path.display())))?;
    parse(&body).map_err(|e| match e {
        // Prefix the path onto the inner message without re-wrapping the
        // whole Display (which would stutter "spec error: spec error: …").
        BccError::Spec(msg) => BccError::Spec(format!("{}: {msg}", path.display())),
        other => other,
    })
}

/// Runs every experiment of the scenario against the built-in registries.
///
/// # Errors
/// The first build or run failure, as [`BccError`].
pub fn run(spec: &ScenarioSpec) -> Result<SpecRunResult, BccError> {
    run_with(spec, &Registries::default())
}

/// Runs every experiment, resolving its plug-ins through `registries`.
///
/// # Errors
/// The first build or run failure, as [`BccError`].
pub fn run_with(spec: &ScenarioSpec, registries: &Registries) -> Result<SpecRunResult, BccError> {
    let mut rows = Vec::with_capacity(spec.experiments.len());
    for exp in &spec.experiments {
        let report = Experiment::from_spec_with(exp.clone(), registries)?.run()?;
        rows.push(SchemeRow::from_report(&report));
    }
    Ok(SpecRunResult {
        name: spec.name.clone(),
        rows,
        specs: spec.experiments.clone(),
    })
}

/// Renders the result in the Tables I/II layout.
#[must_use]
pub fn render(result: &SpecRunResult) -> Table {
    let mut t = Table::new(
        format!(
            "scenario `{}` ({} experiments)",
            result.name,
            result.rows.len()
        ),
        &[
            "scheme",
            "recovery threshold",
            "comm. load",
            "comm. time (s)",
            "comp. time (s)",
            "total time (s)",
        ],
    );
    for row in &result.rows {
        t.push_row(vec![
            row.scheme.clone(),
            f1(row.recovery_threshold),
            f1(row.communication_load),
            f3(row.communication_time),
            f3(row.computation_time),
            f3(row.total_time),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::scenario::{paper_schemes, ScenarioConfig};

    /// The tiny scenario as a spec-file scenario.
    fn tiny_scenario() -> ScenarioSpec {
        let cfg = ScenarioConfig::tiny();
        ScenarioSpec {
            name: cfg.name.clone(),
            experiments: paper_schemes(cfg.r)
                .into_iter()
                .map(|s| cfg.experiment_spec(s, false))
                .collect(),
        }
    }

    #[test]
    fn scenario_spec_roundtrips_and_runs() {
        let spec = tiny_scenario();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back = parse(&json).unwrap();
        assert_eq!(back, spec);
        let result = run(&back).unwrap();
        assert_eq!(result.rows.len(), 3);
        assert_eq!(result.rows[0].scheme, "uncoded");
        assert_eq!(render(&result).len(), 3);
    }

    #[test]
    fn bare_experiment_parses_as_one_row_scenario() {
        let json = r#"{"workers": 10, "units": 10, "scheme": "uncoded", "iterations": 2}"#;
        let spec = parse(json).unwrap();
        assert_eq!(spec.experiments.len(), 1);
        let result = run(&spec).unwrap();
        assert_eq!(result.rows[0].recovery_threshold, 10.0);
    }

    #[test]
    fn bad_json_is_a_spec_error() {
        assert!(matches!(parse("{"), Err(BccError::Spec(_))));
        assert!(matches!(parse(r#"{"workers": 1}"#), Err(BccError::Spec(_))));
    }
}
