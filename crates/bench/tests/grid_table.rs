//! What must hold for every grid of the table (`experiments::GRIDS`) and
//! the files checked in on its behalf: artifacts, replayable specs, docs.
//! No experiment is run.

use bcc_bench::experiments::GRIDS;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn file_names(dir: &std::path::Path, suffix: &str) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(suffix))
        .collect()
}

#[test]
fn every_checked_in_artifact_belongs_to_the_table_and_reserializes_to_its_own_bytes() {
    let in_table: BTreeSet<String> = GRIDS.iter().map(|grid| grid.file()).collect();
    assert_eq!(in_table.len(), GRIDS.len(), "one artifact per grid");
    let checked_in: BTreeSet<String> = file_names(&repo_root(), ".json")
        .into_iter()
        .filter(|name| name.starts_with("BENCH_"))
        .collect();
    assert_eq!(
        checked_in, in_table,
        "a BENCH file outside the table is generated but never gated"
    );
    for grid in &GRIDS {
        let body = std::fs::read_to_string(repo_root().join(grid.file())).unwrap();
        let again = (grid.reserialize)(&body).unwrap_or_else(|e| panic!("{}: {e}", grid.file()));
        assert!(
            again == body,
            "{}: parse → serialize changed the bytes",
            grid.file()
        );
    }
}

#[test]
fn checked_in_specs_are_exactly_what_the_generator_writes() {
    // Directory (relative to experiments/) → the files `repro <target>`
    // writes there.
    let mut expected: BTreeMap<PathBuf, BTreeMap<String, String>> = BTreeMap::new();
    for grid in &GRIDS {
        for (stem, scenario) in (grid.spec_dump)() {
            let path = PathBuf::from(format!("{stem}.spec.json"));
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            let body = serde_json::to_string_pretty(&scenario).unwrap();
            let dir = path.parent().unwrap().to_path_buf();
            assert!(
                expected
                    .entry(dir)
                    .or_default()
                    .insert(name, body)
                    .is_none(),
                "{stem}: two grids dump the same spec file"
            );
        }
    }
    assert!(
        expected.len() >= 6,
        "sweep, policy, modes, control, scale, engine"
    );
    for (dir, files) in expected {
        let on_disk = repo_root().join("experiments").join(&dir);
        // Per-cell directories hold the grid's cells and nothing else; the
        // experiments/ root also holds the paper artifacts' specs.
        if !dir.as_os_str().is_empty() {
            let names: BTreeSet<String> = files.keys().cloned().collect();
            assert_eq!(
                file_names(&on_disk, ".spec.json"),
                names,
                "experiments/{}: file set differs from the grid's cells",
                dir.display()
            );
        }
        for (name, body) in files {
            let checked_in = std::fs::read_to_string(on_disk.join(&name))
                .unwrap_or_else(|e| panic!("experiments/{}/{name}: {e}", dir.display()));
            assert!(
                checked_in == body,
                "experiments/{}/{name} is not what the generator writes — regenerate it",
                dir.display()
            );
        }
    }
}

#[test]
fn readme_table_matches_the_table_of_grids() {
    let readme = std::fs::read_to_string(repo_root().join("README.md")).unwrap();
    for grid in &GRIDS {
        let claim = if grid.claim.is_empty() {
            "—"
        } else {
            grid.claim
        };
        let row = format!(
            "| `{}` | `{}` | `{}` | {claim} |",
            grid.target,
            grid.file(),
            grid.gated.0
        );
        assert!(readme.contains(&row), "README.md is missing the row\n{row}");
    }
}
