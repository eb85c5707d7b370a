//! Command line of the benchmark (`benchmark/run.sh` builds and execs it).
//!
//! Two modes. With `--workload NAME` and `--trace 0|1` it is one measuring
//! process: it measures that workload, prints every metric by name and
//! unit, and ends standard output with the one-line JSON result. Otherwise
//! it runs a full set: each workload in a measuring process of its own
//! (a second one for the traced run when `--trace` is given bare), a
//! summary, and `benchmark/out/results.json`.

use bcc_benchmark::layers::per_layer;
use bcc_benchmark::measure::end_to_end;
use bcc_benchmark::names::{END_TO_END, WORKLOADS};
use bcc_benchmark::report::Outcome;
use bcc_benchmark::workload::Workload;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "\
usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                        [--bless] [--repeat K]

  --workload NAME  measure one workload (default: all five, each in its own process)
  --seed N         replaces the seed of every workload spec (default 2024)
  --seconds S      seconds of timed repeats per workload (default 10)
  --trace          also run the traced, per-layer measurement and write
                   benchmark/out/<workload>.trace.jsonl
  --trace 0|1      with --workload: be one measuring process, tracing off (end-to-end
                   metrics) or on (per-layer metrics); the last line of output is the
                   JSON result
  --bless          write benchmark/workloads/<workload>.expect.json from the
                   verification run instead of comparing against it
  --repeat K       run K full sets on the same build and compare each end-to-end
                   metric of the later sets with the first, against its bound";

/// Where the benchmark's files live, relative to the repo root `run.sh`
/// changes into.
const DIR: &str = "benchmark";

/// How `--trace` was given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceArg {
    /// Not at all: end-to-end metrics only.
    Absent,
    /// Without a value: a full set that adds the traced runs.
    Bare,
    /// As `--trace 0` or `--trace 1`: be one measuring process.
    Explicit(bool),
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: TraceArg,
    bless: bool,
    repeat: usize,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 2024,
        seconds: 10.0,
        trace: TraceArg::Absent,
        bless: false,
        repeat: 1,
    };
    let mut args = std::iter::from_fn(move || args.next()).peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                parsed.trace = match args.next_if(|v| v == "0" || v == "1") {
                    Some(value) => TraceArg::Explicit(value == "1"),
                    None => TraceArg::Bare,
                };
            }
            "--bless" => parsed.bless = true,
            "--repeat" => {
                parsed.repeat = value("a count")?
                    .parse()
                    .ok()
                    .filter(|k| *k >= 1)
                    .ok_or("--repeat needs a count of at least 1")?;
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// One measuring process: measure, print, end with the result line.
fn measure(name: &str, args: &Args, traced: bool) -> Result<(), String> {
    let dir = Path::new(DIR);
    let workload = Workload::load(dir, name, args.seed)?;
    let (metrics, attempted, failed, failures) = if traced {
        let layers = per_layer(&workload, dir)?;
        let out = dir.join("out");
        std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        layers
            .trace
            .write_jsonl(&out.join(format!("{name}.trace.jsonl")))?;
        (
            layers.metrics,
            layers.attempted,
            layers.failed,
            layers.failures,
        )
    } else {
        let e2e = end_to_end(&workload, dir, args.seconds, args.bless)?;
        println!(
            "  round_wall_us quartiles {:.3} .. {:.3} over n={} repeats; setup_s over n={} set-ups",
            e2e.round_wall_us_quartiles.0, e2e.round_wall_us_quartiles.1, e2e.repeats, e2e.setups
        );
        (
            vec![
                ("setup_s", e2e.setup_s),
                ("round_wall_us", e2e.round_wall_us),
                ("cpu_us_per_round", e2e.cpu_us_per_round),
                ("peak_rss_mb", e2e.peak_rss_mb),
            ],
            e2e.attempted,
            e2e.failed,
            e2e.failures,
        )
    };
    let outcome = Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: metrics
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect(),
    };
    print!("{}", outcome.to_table());
    println!(
        "  {:<32} {:>16.6} ratio   ({failed} of {attempted} rounds)",
        "failed_share",
        outcome.failed_share()
    );
    for why in &failures {
        println!("  FAILED: {why}");
    }
    println!("{}", outcome.to_line());
    Ok(())
}

/// Runs one measuring process and returns the result it ended with.
fn spawn(name: &str, args: &Args, traced: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.bless {
        command.arg("--bless");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (human, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{human}");
    if !output.status.success() {
        return Err(format!("measuring `{name}` ended with {}", output.status));
    }
    Outcome::from_line(line)
}

/// The `bound` of every end-to-end metric, from `BENCHMARK.json` at the
/// repo root — the one place bounds are written down.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let value: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Array(metrics)) = value.get("end_to_end") else {
        return Err("BENCHMARK.json: no `end_to_end` list".to_string());
    };
    metrics
        .iter()
        .map(|metric| match (metric.get("name"), metric.get("bound")) {
            (Some(Value::Str(name)), Some(Value::Num(bound))) => Ok((name.clone(), *bound)),
            _ => Err("BENCHMARK.json: an end-to-end metric lacks name or bound".to_string()),
        })
        .collect()
}

/// One set's results: per workload, the end-to-end outcome and the traced
/// one when there was one.
type Set = Vec<(&'static str, Outcome, Option<Outcome>)>;

fn write_results(args: &Args, sets: &[Set], wall_seconds: f64) -> Result<PathBuf, String> {
    let sets = sets
        .iter()
        .map(|set| {
            Value::Object(
                set.iter()
                    .map(|(name, e2e, layers)| {
                        let mut fields = vec![("end_to_end".to_string(), e2e.to_value())];
                        if let Some(layers) = layers {
                            fields.push(("per_layer".to_string(), layers.to_value()));
                        }
                        (name.to_string(), Value::Object(fields))
                    })
                    .collect(),
            )
        })
        .collect();
    let results = Value::Object(vec![
        ("seed".to_string(), Value::Uint(args.seed)),
        ("seconds".to_string(), Value::Num(args.seconds)),
        ("set_wall_seconds".to_string(), Value::Num(wall_seconds)),
        ("sets".to_string(), Value::Array(sets)),
    ]);
    let out = Path::new(DIR).join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join("results.json");
    let text = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Runs `--repeat` full sets. `Ok(false)` when a run was incorrect or two
/// sets disagreed by more than a bound.
fn run_sets(args: &Args) -> Result<bool, String> {
    let names: Vec<&'static str> = match &args.workload {
        Some(name) => vec![Workload::load(Path::new(DIR), name, args.seed)?.name],
        None => WORKLOADS.to_vec(),
    };
    let traced = args.trace != TraceArg::Absent;
    let mut healthy = true;
    let mut sets: Vec<Set> = Vec::new();
    let mut set_wall_seconds = 0.0;
    for set in 0..args.repeat {
        let started = Instant::now();
        let mut results = Set::new();
        for &name in &names {
            println!("== set {} · {name} · end to end (tracing off)", set + 1);
            let e2e = spawn(name, args, false)?;
            let layers = if traced {
                println!("== set {} · {name} · per layer (traced)", set + 1);
                Some(spawn(name, args, true)?)
            } else {
                None
            };
            healthy &= e2e.correct && layers.as_ref().is_none_or(|l| l.correct);
            results.push((name, e2e, layers));
        }
        set_wall_seconds = started.elapsed().as_secs_f64();
        println!(
            "== set {} took {set_wall_seconds:.1} s of wall time (build excluded)",
            set + 1
        );
        sets.push(results);
    }

    println!("\n== summary (set 1)");
    println!(
        "{:<16} {:>12} {:>16} {:>18} {:>12} {:>13}",
        "workload", "setup_s", "round_wall_us", "cpu_us_per_round", "peak_rss_mb", "failed_share"
    );
    for (name, e2e, _) in &sets[0] {
        let metric = |m: &str| e2e.metric(m).unwrap_or(f64::NAN);
        println!(
            "{name:<16} {:>12.5} {:>16.2} {:>18.2} {:>12.2} {:>13.6}",
            metric("setup_s"),
            metric("round_wall_us"),
            metric("cpu_us_per_round"),
            metric("peak_rss_mb"),
            e2e.failed_share()
        );
    }

    if sets.len() > 1 {
        let bounds = bounds()?;
        println!("\n== repeatability: later sets against set 1, beside each bound");
        for (index, set) in sets.iter().enumerate().skip(1) {
            for ((name, first, _), (_, later, _)) in sets[0].iter().zip(set) {
                for (metric, _) in END_TO_END {
                    let (Some(a), Some(b)) = (first.metric(metric), later.metric(metric)) else {
                        continue;
                    };
                    let bound = bounds
                        .iter()
                        .find(|(n, _)| n == metric)
                        .map(|(_, b)| *b)
                        .ok_or_else(|| format!("BENCHMARK.json has no bound for `{metric}`"))?;
                    let difference = (b - a).abs() / a;
                    let verdict = if difference <= bound { "ok" } else { "EXCEEDS" };
                    healthy &= difference <= bound;
                    println!(
                        "set {} {name:<16} {metric:<18} {a:>14.4} -> {b:>14.4}  {:>7.3} % of {:>5.1} %  {verdict}",
                        index + 1,
                        100.0 * difference,
                        100.0 * bound
                    );
                }
                if later.failed > first.failed {
                    healthy = false;
                    println!(
                        "set {} {name:<16} failed rounds rose from {} to {}  EXCEEDS",
                        index + 1,
                        first.failed,
                        later.failed
                    );
                }
            }
        }
    }
    let path = write_results(args, &sets, set_wall_seconds)?;
    println!("\nresults written to {}", path.display());
    Ok(healthy)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) if why.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let done = match (&args.workload, args.trace) {
        (Some(name), TraceArg::Explicit(traced)) => measure(name, &args, traced).map(|()| true),
        _ => run_sets(&args),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn the_drivers_command_line_selects_one_measuring_process() {
        let args = parse(&[
            "--workload",
            "wire_tcp",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("wire_tcp"));
        assert_eq!((args.seed, args.seconds), (7, 10.0));
        assert_eq!(args.trace, TraceArg::Explicit(true));
        let args = parse(&["--trace", "0", "--workload", "wire_tcp"]).unwrap();
        assert_eq!(args.trace, TraceArg::Explicit(false));
    }

    #[test]
    fn a_bare_trace_flag_asks_a_full_set_for_the_traced_runs() {
        let args = parse(&["--trace", "--repeat", "2", "--bless"]).unwrap();
        assert_eq!(args.trace, TraceArg::Bare);
        assert_eq!((args.repeat, args.bless, args.seed), (2, true, 2024));
        assert_eq!(parse(&["--trace"]).unwrap().trace, TraceArg::Bare);
        assert_eq!(parse(&[]).unwrap().trace, TraceArg::Absent);
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        assert!(parse(&["--seed"]).unwrap_err().contains("--seed needs"));
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--seconds", "-1"]).is_err());
        assert!(parse(&["--repeat", "0"]).is_err());
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("unknown argument"));
        assert_eq!(parse(&["--help"]).unwrap_err(), "");
    }
}
