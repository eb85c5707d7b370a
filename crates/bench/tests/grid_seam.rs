//! The grid seam, proved from outside the crate: a toy grid declared in
//! this file alone — its cells naming a scheme registered in this file
//! alone — goes through the cell pool, the artifact write/read round trip
//! and the generic gate comparison with no edit anywhere else.

use bcc_bench::gate;
use bcc_bench::grid::{self, Artifact, Grid, Options};
use bcc_bench::report::Table;
use bcc_coding::{GradientCodingScheme, UncodedScheme};
use bcc_core::experiment::{
    DataSpec, Experiment, ExperimentSpec, OptimizerSpec, Registries, SchemeSpec,
};
use serde::{Deserialize, Serialize};

/// Two fixed-point cells of a custom scheme at two seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ToyConfig {
    workers: usize,
    rounds: usize,
    threads: usize,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ToyRow {
    seed: u64,
    mean_round_time: f64,
    avg_messages_used: f64,
}

impl Grid for ToyConfig {
    type Cell = ExperimentSpec;
    type Row = ToyRow;

    const TARGET: &'static str = "toy";
    const ARTIFACT: &'static str = "toy";
    const GATED: (&'static str, &'static str) = ("mean_round_time", "simulated s/round");

    fn config(_: Options) -> Self {
        Self {
            workers: 6,
            rounds: 3,
            threads: 2,
        }
    }

    fn threads(&self) -> Option<usize> {
        Some(self.threads)
    }

    fn cells(&self) -> Vec<ExperimentSpec> {
        let cell = |seed| ExperimentSpec {
            name: format!("toy / seed {seed}"),
            data: DataSpec::synthetic(2, 3),
            optimizer: OptimizerSpec::FixedPoint,
            iterations: self.rounds,
            record_risk: false,
            seed,
            ..ExperimentSpec::with_required(
                self.workers,
                self.workers,
                SchemeSpec::named("wait-for-everyone"),
            )
        };
        vec![cell(1), cell(2)]
    }

    fn run_cell(&self, spec: &ExperimentSpec) -> ToyRow {
        // The one registration: a scheme no registry in the workspace knows.
        let mut registries = Registries::default();
        registries.schemes.register(
            "wait-for-everyone",
            "uncoded under a name of this test's own",
            |_spec, m, n, _rng| {
                Ok(Box::new(UncodedScheme::new(m, n)) as Box<dyn GradientCodingScheme>)
            },
        );
        let report = Experiment::from_spec_with(spec.clone(), &registries)
            .expect("the toy scheme resolves through the test's registry")
            .run()
            .expect("toy rounds complete");
        ToyRow {
            seed: spec.seed,
            mean_round_time: report.metrics.avg_round_time(),
            avg_messages_used: report.metrics.avg_recovery_threshold(),
        }
    }

    fn key(row: &ToyRow) -> String {
        format!("s{}", row.seed)
    }

    fn cell_spec(&self, cell: &ExperimentSpec) -> Option<(String, ExperimentSpec)> {
        Some((format!("s{}", cell.seed), cell.clone()))
    }

    fn render(artifact: &Artifact<Self>) -> Table {
        let mut table = Table::new("toy", &["seed", "s/round"]);
        for row in &artifact.rows {
            table.push_row(vec![row.seed.to_string(), row.mean_round_time.to_string()]);
        }
        table
    }
}

#[test]
fn a_grid_declared_in_one_file_is_pooled_persisted_and_gated() {
    let config = ToyConfig::config(Options::default());
    // The builtin registries do not know the toy scheme: the cells only
    // run because the grid's own runner brings its registration.
    assert!(Experiment::from_spec(config.cells().remove(0)).is_err());

    // Pool: two cells over two workers, rows back in grid order; the
    // calling-thread path produces the same artifact.
    let artifact = grid::run(&config);
    assert_eq!(artifact.schema, "bcc/bench_toy/v1");
    assert_eq!(artifact.threads_used, Some(2));
    let seeds: Vec<u64> = artifact.rows.iter().map(|r| r.seed).collect();
    assert_eq!(seeds, [1, 2]);
    assert!(artifact.rows.iter().all(|r| r.avg_messages_used == 6.0));
    let serial = grid::run(&ToyConfig {
        threads: 1,
        ..config.clone()
    });
    assert_eq!(serial.rows, artifact.rows);
    assert_eq!(ToyConfig::render(&artifact).len(), 2);
    let dump = config.spec_dump();
    assert_eq!(dump.len(), 2);
    assert_eq!(dump[0].0, "toy/s1");

    // Artifact write → read round trip.
    let dir = std::env::temp_dir().join(format!("bcc_grid_seam_{}", std::process::id()));
    let path = grid::write(&dir, &artifact).unwrap();
    assert_eq!(path, dir.join("BENCH_toy.json"));
    let body = std::fs::read_to_string(&path).unwrap();
    assert!(body.contains("virtual-des") && !body.contains("host_threads"));
    let back: Artifact<ToyConfig> = grid::read(&dir).unwrap();
    assert_eq!(back, artifact);
    assert_eq!(serde_json::to_string_pretty(&back).unwrap(), body);
    std::fs::remove_dir_all(&dir).unwrap();

    // Gate: identical passes at 1.00x, keyed and labelled by the declaration.
    let entries = gate::compare(&artifact, &back, 1.5).unwrap();
    assert_eq!(entries.len(), 2);
    assert!(entries.iter().all(|e| e.ok && e.ratio == 1.0));
    assert_eq!(entries[0].artifact, "toy");
    assert_eq!(entries[0].entry, "s1 simulated s/round");

    // An injected 2x drift on one cell fails exactly that entry.
    let mut drifted = artifact.clone();
    drifted.rows[1].mean_round_time *= 2.0;
    let entries = gate::compare(&artifact, &drifted, 1.5).unwrap();
    assert!(entries[0].ok && !entries[1].ok);

    // A config mismatch and a missing cell are errors, not passes.
    let mut other_config = artifact.clone();
    other_config.config.rounds = 4;
    let err = gate::compare(&artifact, &other_config, 1.5).unwrap_err();
    assert!(
        err.contains("toy") && err.contains("configs differ"),
        "{err}"
    );
    let mut missing = artifact.clone();
    missing.rows.pop();
    let err = gate::compare(&artifact, &missing, 1.5).unwrap_err();
    assert!(err.contains("`s2` missing"), "{err}");
}
