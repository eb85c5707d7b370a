//! The perf-regression gate behind `repro gate`.
//!
//! Compares the freshly measured `BENCH_*.json` of every grid in the
//! [table](crate::experiments::GRIDS) against checked-in baselines, one
//! declared column per grid ([`Grid::GATED`]), and fails (non-zero exit in
//! the CLI) when any row's reading grew by more than the allowed factor or
//! a grid's extra claim ([`Grid::CLAIM`]) stopped holding. CI runs it right
//! after the snapshots, so a PR that drifts a deterministic simulated
//! metric — or loses the packed gradient kernels' edge over the per-example
//! path — cannot merge silently.
//!
//! Two safeguards keep the comparison honest:
//!
//! * **Config equality.** A baseline measured at one workload cannot be
//!   compared against a snapshot of another (e.g. `--fast` vs full); the
//!   gate rejects mismatched configs ([`Grid::comparable`]) with a readable
//!   error instead of passing vacuously.
//! * **Entry alignment.** Every baseline row must exist in the current
//!   measurement (keyed by [`Grid::key`]); a missing row is an error, not
//!   a pass.
//!
//! No gated column is an absolute host time: a baseline is read on whatever
//! host runs the gate, and a wall-clock reading only compares within one
//! machine class (host-time regressions are bounded in one place,
//! `BENCHMARK.json`). The simulated columns are deterministic, so on them
//! any ratio other than `1.00x` is a *behaviour* change, not host noise.
//! The one host-measured gated reading, `gradient_kernel`'s
//! packed ÷ per-example, divides two timings taken in the same process; the
//! default `1.5×` threshold leaves it headroom for runner noise while still
//! catching a lost vectorization.

use crate::experiments::GRIDS;
use crate::grid::{Artifact, Grid};
use crate::report::Table;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Default failure threshold: a per-entry slowdown beyond 1.5× fails.
pub const DEFAULT_MAX_SLOWDOWN: f64 = 1.5;

/// One gated metric comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateEntry {
    /// Which artifact the entry comes from ([`Grid::ARTIFACT`], e.g.
    /// `round_engine`).
    pub artifact: String,
    /// Entry key within the artifact ([`Grid::key`] + the gated column's
    /// unit).
    pub entry: String,
    /// Baseline measurement (ratio-compared, so units only need to agree
    /// between the two files).
    pub baseline: f64,
    /// Fresh measurement.
    pub current: f64,
    /// `current / baseline` (> 1 ⇒ slower).
    pub ratio: f64,
    /// Whether the entry stays within the allowed slowdown.
    pub ok: bool,
}

/// The gate's full verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateReport {
    /// The threshold applied.
    pub max_slowdown: f64,
    /// Every compared entry, in artifact order.
    pub entries: Vec<GateEntry>,
}

impl GateReport {
    /// True when every entry is within the allowed slowdown.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.entries.iter().all(|e| e.ok)
    }

    /// The entries that breached the threshold.
    #[must_use]
    pub fn failures(&self) -> Vec<&GateEntry> {
        self.entries.iter().filter(|e| !e.ok).collect()
    }
}

fn entry(
    artifact: &str,
    name: String,
    baseline: f64,
    current: f64,
    max_slowdown: f64,
) -> Result<GateEntry, String> {
    for (side, value) in [("baseline", baseline), ("current", current)] {
        if !(value.is_finite() && value > 0.0) {
            return Err(format!(
                "{artifact}: {side} entry `{name}` has non-positive measurement {value}"
            ));
        }
    }
    let ratio = current / baseline;
    Ok(GateEntry {
        artifact: artifact.to_string(),
        entry: name,
        baseline,
        current,
        ratio,
        ok: ratio <= max_slowdown,
    })
}

/// Compares a fresh artifact of grid `G` against its baseline: configs must
/// be [comparable](Grid::comparable), the grid's [claim](Grid::claim) must
/// hold on `current`, and every baseline row must have a current twin
/// whose reading in the [gated column](Grid::GATED) stays within
/// `max_slowdown`.
///
/// # Errors
/// A readable message when the configs differ, the claim broke, a baseline
/// row is missing from the current measurement, or a reading is not
/// positive — all conditions under which a pass would be meaningless.
pub fn compare<G: Grid>(
    baseline: &Artifact<G>,
    current: &Artifact<G>,
    max_slowdown: f64,
) -> Result<Vec<GateEntry>, String> {
    let artifact = G::ARTIFACT;
    let (column, unit) = G::GATED;
    let gated = |row: &G::Row| {
        let row = row.to_value();
        let reading = row.field(column).and_then(f64::from_value);
        reading.map_err(|e| format!("{artifact}: gated column `{column}`: {e}"))
    };
    baseline
        .config
        .comparable(&current.config)
        .and_then(|()| G::claim(current))
        .map_err(|e| format!("{artifact}: {e}"))?;
    baseline
        .rows
        .iter()
        .map(|b| {
            let key = G::key(b);
            let c = current
                .find(&key)
                .ok_or_else(|| format!("{artifact}: `{key}` missing from current measurement"))?;
            entry(
                artifact,
                format!("{key} {unit}"),
                gated(b)?,
                gated(c)?,
                max_slowdown,
            )
        })
        .collect()
}

/// Runs the full gate: for every grid of the
/// [table](crate::experiments::GRIDS), reads its `BENCH_<artifact>.json`
/// from both directories and [compares](compare) them.
///
/// # Errors
/// A readable message on missing/unparsable files, plus everything
/// [`compare`] rejects.
pub fn run(
    baseline_dir: &Path,
    current_dir: &Path,
    max_slowdown: f64,
) -> Result<GateReport, String> {
    if !(max_slowdown.is_finite() && max_slowdown >= 1.0) {
        return Err(format!(
            "max slowdown must be a finite factor ≥ 1, got {max_slowdown}"
        ));
    }
    let mut entries = Vec::new();
    for grid in &GRIDS {
        entries.extend((grid.compare)(baseline_dir, current_dir, max_slowdown)?);
    }
    Ok(GateReport {
        max_slowdown,
        entries,
    })
}

/// Renders the verdict as a console table.
#[must_use]
pub fn render(report: &GateReport) -> Table {
    let mut t = Table::new(
        format!(
            "perf gate — fail beyond {:.2}x per-entry slowdown",
            report.max_slowdown
        ),
        &[
            "artifact", "entry", "baseline", "current", "ratio", "verdict",
        ],
    );
    for e in &report.entries {
        t.push_row(vec![
            e.artifact.clone(),
            e.entry.clone(),
            format!("{:.3e}", e.baseline),
            format!("{:.3e}", e.current),
            format!("{:.2}x", e.ratio),
            if e.ok {
                "ok".into()
            } else {
                "REGRESSED".into()
            },
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::control::ControlConfig;
    use crate::experiments::net_bench::NetBenchConfig;
    use crate::experiments::scale::ScaleBenchConfig;
    use crate::grid::read;
    use serde::Value;
    use std::path::PathBuf;

    /// The checked-in artifacts are the fixtures: every grid of the table
    /// has one, at the full configuration.
    fn repo_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// A scratch directory holding a copy of every table artifact.
    fn checked_in_copy(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bcc_gate_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for grid in &GRIDS {
            std::fs::copy(repo_root().join(grid.file()), dir.join(grid.file())).unwrap();
        }
        dir
    }

    fn field<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
        match value {
            Value::Object(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
            other => panic!("expected an object with `{key}`, got {other:?}"),
        }
    }

    fn rows(doc: &mut Value) -> &mut Vec<Value> {
        match field(doc, "rows") {
            Value::Array(rows) => rows,
            other => panic!("rows must be an array, got {other:?}"),
        }
    }

    /// Multiplies the first number found under `value` (depth-first).
    fn scale_first_number(value: &mut Value, factor: f64) -> bool {
        match value {
            Value::Num(x) => *x *= factor,
            Value::Uint(x) => *x = (*x as f64 * factor) as u64,
            Value::Array(items) => return items.iter_mut().any(|v| scale_first_number(v, factor)),
            Value::Object(fields) => {
                return fields
                    .iter_mut()
                    .any(|(_, v)| scale_first_number(v, factor))
            }
            _ => return false,
        }
        true
    }

    /// Rewrites `dir/file` through `edit` on its JSON value.
    fn edit(dir: &Path, file: &str, edit: impl FnOnce(&mut Value)) {
        let path = dir.join(file);
        let mut doc = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        edit(&mut doc);
        std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap()).unwrap();
    }

    #[test]
    fn every_grid_passes_itself_fails_on_drift_and_rejects_misaligned_inputs() {
        let baseline = checked_in_copy("baseline");
        for grid in &GRIDS {
            let (file, column) = (grid.file(), grid.gated.0);
            let current = checked_in_copy(grid.artifact);
            let same = (grid.compare)(&baseline, &current, 1.5).unwrap();
            assert!(!same.is_empty(), "{file}");
            for e in &same {
                assert!(
                    e.ok && e.ratio == 1.0 && e.artifact == grid.artifact,
                    "{e:?}"
                );
                assert!(e.entry.ends_with(grid.gated.1), "{e:?}");
            }

            // An injected 2x on one row's gated column flips exactly that
            // entry: deterministic columns drift only when behaviour does.
            edit(&current, &file, |doc| {
                assert!(scale_first_number(field(&mut rows(doc)[0], column), 2.0));
            });
            let drifted = (grid.compare)(&baseline, &current, 1.5).unwrap();
            assert!(
                !drifted[0].ok && (drifted[0].ratio - 2.0).abs() < 1e-9,
                "{file}"
            );
            assert!(drifted[1..].iter().all(|e| e.ok), "{file}");

            // A baseline row with no current twin is an error, not a pass.
            // (The last `adaptive` row is a win its controller can spare,
            // so the claim check still holds and alignment is what fails.)
            edit(&current, &file, |doc| {
                rows(doc).pop();
            });
            let err = (grid.compare)(&baseline, &current, 1.5).unwrap_err();
            assert!(
                err.contains("missing") && err.contains(grid.artifact),
                "{err}"
            );

            // So is a baseline measured at another configuration (e.g.
            // full vs --fast).
            edit(&current, &file, |doc| {
                assert!(scale_first_number(field(doc, "config"), 2.0));
            });
            let err = (grid.compare)(&baseline, &current, 1.5).unwrap_err();
            assert!(
                err.contains("differ") && err.contains(grid.artifact),
                "{err}"
            );
            std::fs::remove_dir_all(&current).unwrap();
        }
        std::fs::remove_dir_all(&baseline).unwrap();
    }

    #[test]
    fn full_gate_reads_directories_and_flags_regressions() {
        let (baseline, current) = (checked_in_copy("run_base"), checked_in_copy("run_cur"));
        // Host wall time is not gated: a 10x slower host reads clean.
        edit(&current, "BENCH_round_engine.json", |doc| {
            for row in rows(doc) {
                assert!(scale_first_number(
                    field(row, "wall_seconds_per_round"),
                    10.0
                ));
            }
        });
        let clean = run(&baseline, &current, 1.5).unwrap();
        assert!(clean.passed() && clean.failures().is_empty());
        assert!(clean.entries.iter().all(|e| e.ratio == 1.0));
        let artifacts: Vec<&str> = GRIDS.iter().map(|grid| grid.artifact).collect();
        let mut seen: Vec<&str> = clean.entries.iter().map(|e| e.artifact.as_str()).collect();
        seen.dedup();
        assert_eq!(
            seen, artifacts,
            "one block of entries per grid, in table order"
        );

        // Kernel injected 1.6x slower: the gate fails on exactly that entry.
        edit(&current, "BENCH_gradient_kernel.json", |doc| {
            assert!(scale_first_number(
                field(&mut rows(doc)[0], "packed_over_per_example"),
                1.6
            ));
        });
        let report = run(&baseline, &current, 1.5).unwrap();
        assert_eq!(report.entries.len(), clean.entries.len());
        assert!(!report.passed());
        assert_eq!(report.failures().len(), 1);
        assert_eq!(report.failures()[0].artifact, "gradient_kernel");
        assert!(render(&report).render().contains("REGRESSED"));
        assert!(run(&baseline, &current, 1.7).unwrap().passed());

        // A deterministic column at 2x is a behaviour change: it fails.
        edit(&current, "BENCH_round_engine.json", |doc| {
            assert!(scale_first_number(
                field(&mut rows(doc)[0], "simulated_seconds_per_round"),
                2.0
            ));
        });
        let report = run(&baseline, &current, 1.7).unwrap();
        assert_eq!(report.failures().len(), 1);
        assert_eq!(report.failures()[0].artifact, "round_engine");

        // Missing files are errors, not passes.
        let empty = baseline.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let err = run(&empty, &current, 1.5).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        std::fs::remove_dir_all(&baseline).unwrap();
        std::fs::remove_dir_all(&current).unwrap();
    }

    #[test]
    fn thresholds_speedups_and_non_positive_readings() {
        assert!(entry("a", "x".into(), 1e-5, 1.4e-5, 1.5).unwrap().ok);
        assert!(!entry("a", "x".into(), 1e-5, 2e-5, 1.5).unwrap().ok);
        let faster = entry("a", "x".into(), 1000.0, 300.0, 1.5).unwrap();
        assert!(faster.ok && faster.ratio < 1.0);
        // A zeroed reading must not slip through as a "speedup".
        let err = entry("a", "x".into(), 1e-5, 0.0, 1.5).unwrap_err();
        assert!(
            err.contains("current") && err.contains("non-positive"),
            "{err}"
        );
        let err = entry("a", "x".into(), 0.0, 1e-5, 1.5).unwrap_err();
        assert!(
            err.contains("baseline") && err.contains("non-positive"),
            "{err}"
        );
        let err = run(Path::new("."), Path::new("."), 0.5).unwrap_err();
        assert!(err.contains("≥ 1"), "{err}");
    }

    #[test]
    fn scale_compares_on_the_grid_alone() {
        let baseline = read::<ScaleBenchConfig>(&repo_root()).unwrap();
        // The timing-rep knob may differ (--fast vs full): still comparable.
        let mut current = baseline.clone();
        current.config.decode_reps = 1;
        let entries = compare(&baseline, &current, 1.5).unwrap();
        assert!(entries.len() == baseline.rows.len() && entries.iter().all(|e| e.ok));
        // A different grid is not.
        current.config.grid.rounds += 1;
        let err = compare(&baseline, &current, 1.5).unwrap_err();
        assert!(err.contains("grids differ"), "{err}");
    }

    #[test]
    fn broken_claims_are_errors_not_passes() {
        let net = read::<NetBenchConfig>(&repo_root()).unwrap();
        let mut current = net.clone();
        current.rows[0].gradients_match_virtual = false;
        let err = compare(&net, &current, 1.5).unwrap_err();
        assert!(
            err.contains("no longer matches the virtual backend"),
            "{err}"
        );
        let mut current = net.clone();
        current.rows[0].pipelined_matches_serial = false;
        let err = compare(&net, &current, 1.5).unwrap_err();
        assert!(
            err.contains("no longer reproduces the serial path"),
            "{err}"
        );

        // An adaptive controller that stops beating static fails the gate
        // even when the allowance is wide enough for every ratio to pass.
        let adaptive = read::<ControlConfig>(&repo_root()).unwrap();
        let mut current = adaptive.clone();
        for row in &mut current.rows {
            if row.controller == "adaptive-k" {
                row.simulated_seconds *= 50.0;
            }
        }
        let err = compare(&adaptive, &current, 100.0).unwrap_err();
        assert!(
            err.contains("adaptive-k") && err.contains("claim broke"),
            "{err}"
        );
    }
}
