//! The grid seam: what a `BENCH_*.json` experiment declares, and everything
//! that follows from the declaration.
//!
//! A grid experiment implements [`Grid`] on its configuration type: the
//! `repro` target and artifact it belongs to, its schema tag, how to build
//! the `--fast`/full configuration, its cells, how one cell becomes one
//! row, how rows are keyed, which column the perf gate compares, and any
//! claim beyond per-row ratios. From that one declaration this module
//! derives
//!
//! * the cell pool — [`run`]: one scoped worker pool for every grid whose
//!   cells are deterministic simulations, the calling thread alone for the
//!   host-timed ones;
//! * the [`Artifact`] envelope with its one serde implementation, and the
//!   one [`write()`] / [`read`] pair for `BENCH_<artifact>.json`;
//! * the replayable spec dump and its `--fast` rule ([`regenerate`]);
//! * through [`Entry`], the type-erased row of the
//!   [table of grids](crate::experiments::GRIDS) that `repro`'s dispatch,
//!   `--help` and known-target list, [`gate::run`], the README table, and
//!   the table-driven tests loop over.
//!
//! Adding a grid is one `impl Grid` plus one line in that table.

use crate::experiments::spec_run::ScenarioSpec;
use crate::gate::{self, GateEntry};
use crate::report::{persist, write_json, Table};
use bcc_core::experiment::{Experiment, ExperimentReport, ExperimentSpec};
use bcc_linalg::parallel::Parallelism;
use serde::{Deserialize, Serialize, Value};
use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The `repro` flags a grid's configuration may depend on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Options {
    /// `--fast`: the smoke configuration.
    pub fast: bool,
    /// `--wan`: add the networked grid's WAN cells.
    pub wan: bool,
}

impl Options {
    /// These options without `--fast`.
    #[must_use]
    pub fn full(self) -> Self {
        Self {
            fast: false,
            ..self
        }
    }

    /// The `fast` configuration under `--fast`, the `full` one otherwise.
    pub fn pick<T>(self, full: fn() -> T, fast: fn() -> T) -> T {
        if self.fast {
            fast()
        } else {
            full()
        }
    }
}

/// One grid experiment, declared on its configuration type.
pub trait Grid: Debug + Clone + PartialEq + Serialize + Deserialize + Sync {
    /// One unit of work: what [`Self::run_cell`] turns into a row.
    type Cell: Sync;
    /// One artifact row.
    type Row: Debug + Clone + PartialEq + Serialize + Deserialize + Send;

    /// The `repro` target that regenerates this grid (several grids may
    /// share one).
    const TARGET: &'static str;
    /// Artifact name: the file is `BENCH_<ARTIFACT>.json`, the schema tag
    /// `bcc/bench_<ARTIFACT>/v<VERSION>`, and gate rows carry it.
    const ARTIFACT: &'static str;
    /// Version of the artifact's schema tag.
    const VERSION: u32 = 1;
    /// Backend the rows were measured on, when the artifact records one.
    const BACKEND: Option<&'static str> = Some("virtual-des");
    /// The gated column — the numeric field of [`Self::Row`] the perf gate
    /// compares row by row — and the unit gate entries show after the row
    /// key.
    const GATED: (&'static str, &'static str);
    /// One line for the docs on what the gate checks beyond the column
    /// ratio (`""`: nothing).
    const CLAIM: &'static str = "";
    /// Whether the artifact records the measuring host's hardware threads
    /// — for grids with wall-clock columns that only read against them.
    const HOST_THREADS: bool = false;

    /// The configuration `repro` measures under `options`.
    fn config(options: Options) -> Self;

    /// Pool width for grids of deterministic simulated cells (`0` ⇒
    /// available parallelism); `None` for host-timed grids, whose cells
    /// run one at a time on the calling thread so they do not perturb
    /// each other's clocks.
    fn threads(&self) -> Option<usize> {
        None
    }

    /// Every cell, in row order.
    fn cells(&self) -> Vec<Self::Cell>;

    /// Measures one cell.
    ///
    /// # Panics
    /// May panic when the cell cannot build or complete: grids are
    /// structurally valid by construction, and a benchmark that cannot run
    /// its own cells has no artifact to write.
    fn run_cell(&self, cell: &Self::Cell) -> Self::Row;

    /// The row's key within the artifact (unique per row).
    fn key(row: &Self::Row) -> String;

    /// Whether rows measured at `self` compare against rows measured at
    /// `current` — by default only under equal configurations.
    ///
    /// # Errors
    /// What differs, for the gate to report.
    fn comparable(&self, current: &Self) -> Result<(), String> {
        if self == current {
            return Ok(());
        }
        Err(format!(
            "baseline and current configs differ — baseline {self:?} vs current {current:?}; \
             measure with the same configuration (did one side run --fast?)"
        ))
    }

    /// The claim a fresh artifact must keep holding beyond per-row ratios
    /// (described by [`Self::CLAIM`]).
    ///
    /// # Errors
    /// How the claim broke.
    fn claim(_current: &Artifact<Self>) -> Result<(), String> {
        Ok(())
    }

    /// The replayable spec behind one cell and its file stem, for grids
    /// whose cells each have one.
    fn cell_spec(&self, _cell: &Self::Cell) -> Option<(String, ExperimentSpec)> {
        None
    }

    /// The replayable specs behind the grid, as `(path stem under the
    /// output directory, scenario)` — written as `<stem>.spec.json`. By
    /// default one single-experiment scenario per [`Self::cell_spec`]
    /// under `<TARGET>/`, each replaying standalone via
    /// `repro scenario experiments/<TARGET>/<cell>.spec.json`.
    fn spec_dump(&self) -> Vec<(String, ScenarioSpec)> {
        let scenario = |(name, spec): (String, ExperimentSpec)| {
            let scenario = ScenarioSpec {
                name: spec.name.clone(),
                experiments: vec![spec],
            };
            (format!("{}/{name}", Self::TARGET), scenario)
        };
        let cells = self.cells();
        let specs = cells.iter().filter_map(|cell| self.cell_spec(cell));
        specs.map(scenario).collect()
    }

    /// The artifact as a console table.
    fn render(artifact: &Artifact<Self>) -> Table;
}

/// Builds and runs one cell's experiment.
///
/// # Panics
/// See [`Grid::run_cell`].
#[must_use]
pub fn run_spec(spec: &ExperimentSpec) -> ExperimentReport {
    Experiment::from_spec(spec.clone())
        .unwrap_or_else(|e| panic!("grid cell `{}` does not build: {e}", spec.name))
        .run()
        .unwrap_or_else(|e| panic!("grid cell `{}` did not complete: {e}", spec.name))
}

/// The envelope every `BENCH_*.json` shares.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact<G: Grid> {
    /// Schema tag for downstream tooling.
    pub schema: String,
    /// Backend measured ([`Grid::BACKEND`]).
    pub backend: Option<String>,
    /// Hardware threads of the measuring host ([`Grid::HOST_THREADS`]).
    pub host_threads: Option<usize>,
    /// The configuration measured.
    pub config: G,
    /// Worker threads the cell pool used (pooled grids).
    pub threads_used: Option<usize>,
    /// One row per cell, in [`Grid::cells`] order.
    pub rows: Vec<G::Row>,
}

/// The file an artifact called `artifact` is written to and read from.
fn file_name(artifact: &str) -> String {
    format!("BENCH_{artifact}.json")
}

impl<G: Grid> Artifact<G> {
    /// The row keyed `key` (see [`Grid::key`]).
    #[must_use]
    pub fn find(&self, key: &str) -> Option<&G::Row> {
        self.rows.iter().find(|r| G::key(r) == key)
    }

    /// The rows that beat their baseline twin — the row keyed
    /// `baseline_of(row)` — on the `(wallclock, risk)` pair `axes` reads:
    /// strictly faster, at a risk within `risk_slack` of the baseline's
    /// (`0.01` for 1 %). Baseline rows never beat themselves; rows
    /// without a twin are skipped. Each winner comes with its wallclock
    /// speedup.
    pub fn wins_over(
        &self,
        baseline_of: impl Fn(&G::Row) -> String,
        axes: impl Fn(&G::Row) -> (f64, f64),
        risk_slack: f64,
    ) -> Vec<(&G::Row, f64)> {
        let win = |row| {
            let ((time, risk), (base_time, base_risk)) =
                (axes(row), axes(self.find(&baseline_of(row))?));
            (time < base_time && risk <= base_risk * (1.0 + risk_slack))
                .then(|| (row, base_time / time))
        };
        self.rows.iter().filter_map(win).collect()
    }
}

// Written by hand because the in-tree derive takes no generic types. The
// field order — `schema`, `backend`, `host_threads`, `config`,
// `threads_used`, `rows`, absent ones skipped — is the checked-in files'.
impl<G: Grid> Serialize for Artifact<G> {
    fn to_value(&self) -> Value {
        let fields = [
            ("schema", Some(self.schema.to_value())),
            ("backend", self.backend.as_ref().map(Serialize::to_value)),
            ("host_threads", self.host_threads.map(|t| t.to_value())),
            ("config", Some(self.config.to_value())),
            ("threads_used", self.threads_used.map(|t| t.to_value())),
            ("rows", Some(self.rows.to_value())),
        ];
        Value::Object(
            fields
                .into_iter()
                .filter_map(|(key, value)| Some((key.to_string(), value?)))
                .collect(),
        )
    }
}

impl<G: Grid> Deserialize for Artifact<G> {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        fn optional<T: Deserialize>(v: &Value, key: &str) -> Result<Option<T>, serde::Error> {
            v.get(key).map(T::from_value).transpose()
        }
        Ok(Self {
            schema: String::from_value(v.field("schema")?)?,
            backend: optional(v, "backend")?,
            host_threads: optional(v, "host_threads")?,
            config: G::from_value(v.field("config")?)?,
            threads_used: optional(v, "threads_used")?,
            rows: Vec::from_value(v.field("rows")?)?,
        })
    }
}

/// Runs every cell of the grid and wraps the rows in its [`Artifact`].
///
/// Pooled grids ([`Grid::threads`]) claim cells off one atomic index
/// across a scoped worker pool and re-sort the rows into grid order, so
/// the artifact is identical for any thread count — only the wall clock
/// changes.
///
/// # Panics
/// Panics when a cell does (see [`Grid::run_cell`]).
#[must_use]
pub fn run<G: Grid>(config: &G) -> Artifact<G> {
    let cells = config.cells();
    let threads = config.threads().map(|threads| {
        let wanted = match threads {
            0 => Parallelism::available().get(),
            n => n,
        };
        wanted.min(cells.len()).max(1)
    });
    let rows = match threads {
        None | Some(1) => cells.iter().map(|cell| config.run_cell(cell)).collect(),
        Some(threads) => {
            let next = AtomicUsize::new(0);
            let mut indexed: Vec<(usize, G::Row)> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut done = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(cell) = cells.get(i) else { break };
                                done.push((i, config.run_cell(cell)));
                            }
                            done
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("grid worker panicked"))
                    .collect()
            });
            indexed.sort_by_key(|(i, _)| *i);
            indexed.into_iter().map(|(_, row)| row).collect()
        }
    };
    Artifact {
        schema: format!("bcc/bench_{}/v{}", G::ARTIFACT, G::VERSION),
        backend: G::BACKEND.map(Into::into),
        host_threads: G::HOST_THREADS.then(|| Parallelism::available().get()),
        config: config.clone(),
        threads_used: threads,
        rows,
    }
}

/// Writes `artifact` to `dir/BENCH_<artifact>.json`.
///
/// # Errors
/// I/O and serialization errors, for the caller to report.
pub fn write<G: Grid>(
    dir: &Path,
    artifact: &Artifact<G>,
) -> Result<PathBuf, Box<dyn std::error::Error>> {
    write_json(dir, &format!("BENCH_{}", G::ARTIFACT), artifact)
}

/// Reads the grid's artifact back from `dir`.
///
/// # Errors
/// A readable message when the file is missing or does not parse.
pub fn read<G: Grid>(dir: &Path) -> Result<Artifact<G>, String> {
    let path = dir.join(file_name(G::ARTIFACT));
    let body = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&body).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// `repro <target>` for one grid: measure, print, write the artifact at the
/// working directory (a fixed name at the repo root, not under `out_dir`,
/// so successive PRs overwrite and diff the same file), and write the spec
/// dump under `out_dir`.
///
/// Under `--fast` the dump is written only when it equals the full
/// configuration's ([`writes_specs`]).
///
/// # Panics
/// Panics when a cell does (see [`Grid::run_cell`]).
pub fn regenerate<G: Grid>(options: Options, out_dir: &Path) {
    let config = G::config(options);
    let artifact = run(&config);
    println!("{}", G::render(&artifact).render());
    match write(Path::new("."), &artifact) {
        Ok(_) => println!("[saved {}]\n", file_name(G::ARTIFACT)),
        Err(e) => eprintln!("[warn] could not write {}: {e}", file_name(G::ARTIFACT)),
    }
    let dump = config.spec_dump();
    let full = G::config(options.full()).spec_dump();
    if writes_specs(options, G::ARTIFACT, &dump, &full) {
        for (stem, scenario) in dump {
            persist(out_dir, &format!("{stem}.spec"), &scenario);
        }
    }
}

/// Whether a run under `options` writes the specs `dump` of `what`: under
/// `--fast` only when they equal `full`, the full configuration's, which
/// the checked-in specs describe. Prints a note when it skips them.
pub fn writes_specs<T: PartialEq>(options: Options, what: &str, dump: &T, full: &T) -> bool {
    if options.fast && dump != full {
        println!("[--fast: skipping {what} specs (checked-in specs are full-config)]");
        return false;
    }
    true
}

/// One grid of the [table](crate::experiments::GRIDS) with its types
/// erased: the declaration's constants, plus the generic operations
/// instantiated for it.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// [`Grid::TARGET`].
    pub target: &'static str,
    /// [`Grid::ARTIFACT`].
    pub artifact: &'static str,
    /// [`Grid::GATED`].
    pub gated: (&'static str, &'static str),
    /// [`Grid::CLAIM`].
    pub claim: &'static str,
    /// Whether [`run`] pools the grid's cells ([`Grid::threads`] of the
    /// full configuration).
    pub pooled: fn() -> bool,
    /// [`regenerate`].
    pub regenerate: fn(Options, &Path),
    /// [`gate::compare`] over the artifacts [`read`] from a baseline and a
    /// current directory.
    pub compare: fn(&Path, &Path, f64) -> Result<Vec<GateEntry>, String>,
    /// Parses artifact JSON and serializes it back (pretty-printed).
    pub reserialize: fn(&str) -> Result<String, String>,
    /// [`Grid::spec_dump`] of the full configuration.
    pub spec_dump: fn() -> Vec<(String, ScenarioSpec)>,
}

impl Entry {
    /// The table row of grid `G`.
    #[must_use]
    pub const fn of<G: Grid>() -> Self {
        Self {
            target: G::TARGET,
            artifact: G::ARTIFACT,
            gated: G::GATED,
            claim: G::CLAIM,
            pooled: || G::config(Options::default()).threads().is_some(),
            regenerate: regenerate::<G>,
            compare: |baseline, current, max_slowdown| {
                gate::compare::<G>(&read(baseline)?, &read(current)?, max_slowdown)
            },
            reserialize: |json| {
                let artifact: Artifact<G> =
                    serde_json::from_str(json).map_err(|e| e.to_string())?;
                serde_json::to_string_pretty(&artifact).map_err(|e| e.to_string())
            },
            spec_dump: || G::config(Options::default()).spec_dump(),
        }
    }

    /// `BENCH_<artifact>.json`.
    #[must_use]
    pub fn file(&self) -> String {
        file_name(self.artifact)
    }
}
