//! `repro` — regenerates every table and figure of the paper, and replays
//! arbitrary scenarios from spec files.
//!
//! ```text
//! repro all                  # every paper artifact (default) + ablations + every grid
//! repro fig2                 # tradeoff curves
//! repro fig4                 # runtime comparison (both scenarios)
//! repro table1               # scenario-one breakdown
//! repro table2               # scenario-two breakdown
//! repro fig5                 # heterogeneous cluster
//! repro ablations            # design-choice ablations (beyond the paper)
//! repro <grid>               # one grid target → its BENCH_<artifact>.json:
//!                            # engine | policy | modes | scale | net [--wan] |
//!                            # control | sweep (the README's table; --wan
//!                            # adds deterministic-latency WAN cells)
//! repro list                 # registered schemes, models, policies, modes,
//!                            # controllers, data paths, backends
//! repro scenario SPEC.json   # replay a spec file (table row or custom scenario)
//! repro gate --baseline-dir DIR [--current-dir DIR] [--max-slowdown X]
//!                            # perf-regression gate over the BENCH files
//! repro --fast ...           # reduced trial counts for smoke runs
//! ```
//!
//! Results print as console tables and persist as JSON under
//! `experiments/`. Every experiment that runs gradient rounds additionally
//! writes its **resolved `ExperimentSpec`s** as `<name>.spec.json` next to
//! its results, so each artifact is replayable byte-for-byte via
//! `repro scenario experiments/<name>.spec.json`. The grid targets — the
//! [table](bcc_bench::experiments::GRIDS) — write their perf-trajectory
//! files `BENCH_<artifact>.json` at the working directory.

use bcc_bench::experiments::{ablation, fig2, fig5, paper_specs, scenario, spec_run, GRIDS};
use bcc_bench::gate;
use bcc_bench::grid::{writes_specs, Options};
use bcc_bench::report::{persist, Table};
use bcc_core::experiment::Registries;
use std::path::PathBuf;

struct Args {
    targets: Vec<String>,
    spec_files: Vec<PathBuf>,
    options: Options,
    out_dir: PathBuf,
    baseline_dir: Option<PathBuf>,
    current_dir: PathBuf,
    max_slowdown: f64,
}

fn parse_args() -> Args {
    let mut targets = Vec::new();
    let mut spec_files = Vec::new();
    let mut options = Options::default();
    let mut out_dir = PathBuf::from("experiments");
    let mut baseline_dir = None;
    let mut current_dir = PathBuf::from(".");
    let mut max_slowdown = gate::DEFAULT_MAX_SLOWDOWN;
    let mut args = std::env::args().skip(1);
    let next_value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fast" => options.fast = true,
            "--wan" => options.wan = true,
            "--out" => out_dir = PathBuf::from(next_value(&mut args, "--out")),
            "--baseline-dir" => {
                baseline_dir = Some(PathBuf::from(next_value(&mut args, "--baseline-dir")));
            }
            "--current-dir" => current_dir = PathBuf::from(next_value(&mut args, "--current-dir")),
            "--max-slowdown" => {
                let raw = next_value(&mut args, "--max-slowdown");
                max_slowdown = raw.parse().unwrap_or_else(|_| {
                    eprintln!("--max-slowdown needs a number, got `{raw}`");
                    std::process::exit(2);
                });
            }
            "scenario" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("scenario requires a spec file (JSON)");
                    std::process::exit(2);
                });
                spec_files.push(PathBuf::from(path));
            }
            "-h" | "--help" => {
                println!(
                    "usage: repro [--fast] [--wan] [--out DIR] [{}]... \
                     [scenario SPEC.json]... \
                     [list] \
                     [gate --baseline-dir DIR [--current-dir DIR] [--max-slowdown X]]",
                    known_targets().join("|")
                );
                std::process::exit(0);
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() && spec_files.is_empty() {
        targets.push("all".into());
    }
    Args {
        targets,
        spec_files,
        options,
        out_dir,
        baseline_dir,
        current_dir,
        max_slowdown,
    }
}

fn print_table(t: &Table) {
    println!("{}", t.render());
}

/// Every named artifact target: the paper's, then the table's.
fn known_targets() -> Vec<&'static str> {
    let mut targets = vec![
        "all",
        "fig2",
        "fig4",
        "table1",
        "table2",
        "fig5",
        "ablations",
    ];
    for grid in &GRIDS {
        if !targets.contains(&grid.target) {
            targets.push(grid.target);
        }
    }
    targets
}

fn main() {
    let args = parse_args();
    // `gate` is a verdict, not an artifact: it runs alone and its exit
    // code is the result.
    if args.targets.iter().any(|t| t == "gate") {
        if args.targets.len() > 1 || !args.spec_files.is_empty() {
            eprintln!("`gate` cannot be combined with other targets");
            std::process::exit(2);
        }
        run_gate(&args);
    }
    // `list` is a discovery surface, not an artifact: print the
    // registries and exit.
    if args.targets.iter().any(|t| t == "list") {
        if args.targets.len() > 1 || !args.spec_files.is_empty() {
            eprintln!("`list` cannot be combined with other targets");
            std::process::exit(2);
        }
        run_list();
        std::process::exit(0);
    }
    let unknown: Vec<&String> = args
        .targets
        .iter()
        .filter(|t| !known_targets().contains(&t.as_str()))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "unknown target(s) {unknown:?}; expected {} or `scenario SPEC.json` or `gate`",
            known_targets().join("|")
        );
        std::process::exit(2);
    }
    let all = args.targets.iter().any(|t| t == "all");
    let want = |name: &str| all || args.targets.iter().any(|t| t == name);
    let mut ran_any = false;

    for path in &args.spec_files {
        ran_any = true;
        run_scenario_file(path, &args.out_dir);
    }

    if want("fig2") {
        ran_any = true;
        let result = fig2::run(&fig2::Fig2Config::default());
        print_table(&fig2::render(&result));
        persist(&args.out_dir, "fig2_tradeoff", &result);
    }

    // fig4 shares its runs with table1/table2; compute each scenario once.
    let mut one = None;
    let mut two = None;
    let iterations = scenario::table_iterations(args.options);
    if want("fig4") || want("table1") {
        let mut cfg = scenario::ScenarioConfig::scenario_one();
        cfg.iterations = iterations;
        one = Some(scenario::run(&cfg, false));
    }
    if want("fig4") || want("table2") {
        let mut cfg = scenario::ScenarioConfig::scenario_two();
        cfg.iterations = iterations;
        two = Some(scenario::run(&cfg, false));
    }
    if want("table1") {
        ran_any = true;
        let one = one.as_ref().expect("computed above");
        print_table(&scenario::render(one));
        persist(&args.out_dir, "table1_scenario_one", one);
    }
    if want("table2") {
        ran_any = true;
        let two = two.as_ref().expect("computed above");
        print_table(&scenario::render(two));
        persist(&args.out_dir, "table2_scenario_two", two);
    }
    if want("fig4") {
        ran_any = true;
        let one = one.as_ref().unwrap();
        let two = two.as_ref().unwrap();
        print_table(&scenario::render_figure4(one, two));
        persist(&args.out_dir, "fig4_runtime", &(one.clone(), two.clone()));
    }

    if want("fig5") {
        ran_any = true;
        let trials = if args.options.fast { 100 } else { 1_000 };
        let result = fig5::run(trials, 2024);
        print_table(&fig5::render(&result));
        persist(&args.out_dir, "fig5_hetero", &result);
    }

    if want("ablations") {
        ran_any = true;
        let comp = ablation::compression(ablation::SEED);
        let bw = ablation::bandwidth_sweep(ablation::SEED);
        let batches = ablation::batch_count_scan(ablation::SEED);
        let rs = ablation::random_stragglers(ablation::SEED);
        for table in ablation::render_all(&comp, &bw, &batches, &rs) {
            print_table(&table);
        }
        persist(&args.out_dir, "ablation_compression", &comp);
        persist(&args.out_dir, "ablation_bandwidth", &bw);
        persist(&args.out_dir, "ablation_batch_count", &batches);
        persist(&args.out_dir, "ablation_random_stragglers", &rs);
    }
    // The resolved specs of the paper artifacts just run (under `--fast`,
    // only those the smoke configuration leaves at their full form).
    let full = paper_specs(args.options.full());
    for ((target, name, spec), (_, _, full)) in paper_specs(args.options).into_iter().zip(full) {
        if want(target) && writes_specs(args.options, name, &spec, &full) {
            persist(&args.out_dir, &format!("{name}.spec"), &spec);
        }
    }

    for grid in GRIDS.iter().filter(|grid| want(grid.target)) {
        ran_any = true;
        (grid.regenerate)(args.options, &args.out_dir);
    }

    // Unreachable unless the target list and the dispatch above drift.
    assert!(ran_any, "validated targets must all dispatch");
}

/// Prints every registered scheme, straggler model, aggregation policy,
/// training mode, and controller, then the data paths and backends, each
/// with a one-line description — the spec-author's discovery surface.
fn run_list() {
    let registries = Registries::default();
    let fixed = |rows: &[(&str, &str)]| -> Vec<(String, String)> {
        let owned =
            |(name, description): &(&str, &str)| (name.to_string(), description.to_string());
        rows.iter().map(owned).collect()
    };
    let data = [
        (
            "in-memory",
            "resident Dataset (its storage is the worker arena); the data path of every experiment",
        ),
        (
            "minibatch knob",
            "data.minibatch = k: each round samples k of the coding units (seeded, \
             replayable); 1 ≤ k ≤ units",
        ),
    ];
    let backends = [
        (
            "Virtual",
            "discrete-event simulation; deterministic reference timing, no threads",
        ),
        (
            "Threaded",
            "one OS thread per worker, channel transport; real concurrency, emulated \
             latency via time_scale",
        ),
        (
            "Tcp",
            "TCP master/worker round protocol; addr = null spawns a loopback fleet \
             in-process, addr = \"host:port\" listens for external bcc-worker processes",
        ),
        (
            "Tcp + wan",
            "WAN profile: deterministic per-link latency ± jitter (seeded from \
             (seed, round, worker)) layered over any straggler model; set \
             `backend.wan = {latency, jitter}` in a spec or run `repro net --wan`",
        ),
    ];
    for (title, rows) in [
        (
            "schemes (SchemeSpec name)",
            registries.schemes.descriptions(),
        ),
        (
            "straggler models (LatencySpec family)",
            fixed(&bcc_cluster::straggler::ZOO),
        ),
        (
            "aggregation policies (PolicySpec name)",
            registries.policies.descriptions(),
        ),
        (
            "training modes (ModeSpec name)",
            registries.modes.descriptions(),
        ),
        (
            "straggler controllers (ControllerSpec name)",
            registries.controllers.descriptions(),
        ),
        ("data paths (DataSpec)", fixed(&data)),
        ("backends (BackendSpec)", fixed(&backends)),
    ] {
        let mut table = Table::new(title, &["name", "description"]);
        for (name, description) in rows {
            table.push_row(vec![name, description]);
        }
        print_table(&table);
    }
}

/// Runs the perf-regression gate and exits with its verdict (0 pass,
/// 1 regression, 2 usage error, 3 unreadable/incomparable inputs).
fn run_gate(args: &Args) -> ! {
    let Some(baseline_dir) = &args.baseline_dir else {
        eprintln!("gate requires --baseline-dir DIR (directory holding the baseline BENCH files)");
        std::process::exit(2);
    };
    match gate::run(baseline_dir, &args.current_dir, args.max_slowdown) {
        Ok(report) => {
            print_table(&gate::render(&report));
            if report.passed() {
                println!(
                    "perf gate passed: every entry within {:.2}x",
                    report.max_slowdown
                );
                std::process::exit(0);
            }
            eprintln!(
                "perf gate FAILED: {} entr{} regressed beyond {:.2}x:",
                report.failures().len(),
                if report.failures().len() == 1 {
                    "y"
                } else {
                    "ies"
                },
                report.max_slowdown
            );
            for f in report.failures() {
                eprintln!(
                    "  {} / {}: {:.3e} -> {:.3e} ({:.2}x)",
                    f.artifact, f.entry, f.baseline, f.current, f.ratio
                );
            }
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("perf gate could not compare: {e}");
            std::process::exit(3);
        }
    }
}

/// Replays one spec file and persists the rows next to it-style results.
fn run_scenario_file(path: &std::path::Path, out_dir: &std::path::Path) {
    let spec = spec_run::load(path).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    println!(
        "replaying `{}` ({} experiments) from {}\n",
        spec.name,
        spec.experiments.len(),
        path.display()
    );
    let result = spec_run::run(&spec).unwrap_or_else(|e| {
        eprintln!("scenario failed: {e}");
        std::process::exit(1);
    });
    print_table(&spec_run::render(&result));
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("scenario")
        .trim_end_matches(".spec");
    persist(out_dir, &format!("{stem}.result"), &result);
}
