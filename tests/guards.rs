//! The repo's deletion guards and its orphan scan, run by `cargo test` at
//! the root.
//!
//! Each row of [`GUARDS`] holds one past deletion (or one structural
//! count) over the files under its paths: a banned token must not come
//! back, a counted one must stay at its count, and [`Rule::NoOrphans`]
//! keeps every public `fn` and `const` of the library reached by
//! something other than itself. The tree is walked with `std::fs`; `target/`
//! directories and this file are skipped, every other file is read.
//!
//! To add a guard, append a row: a name, the commit that set it, why, the
//! paths it covers (directories or files, relative to the repo root) and
//! its rule. A failure names the row and every offending `file:line`.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::Path;

/// This file, relative to the repo root: it names every banned token, so
/// the walk skips it.
const SELF: &str = "tests/guards.rs";

/// What a row checks over the files under its paths.
enum Rule {
    /// No line contains any of these tokens.
    Banned(&'static [&'static str]),
    /// No line contains any of these tokens ending at a word boundary.
    BannedWord(&'static [&'static str]),
    /// Exactly this many lines contain the token.
    Count(&'static str, usize),
    /// No public `fn` or `const` of the library is an orphan (see
    /// [`orphans`]); the paths are the files that count as its users.
    NoOrphans,
}

struct Guard {
    name: &'static str,
    /// The commit that set the guard, with its subject.
    set_by: &'static str,
    why: &'static str,
    paths: &'static [&'static str],
    rule: Rule,
}

/// The library and the root package's binaries, tests and examples.
const CODE: &[&str] = &["crates", "src", "tests", "examples"];

/// Everything the walk reads: [`CODE`] and the benchmark's sources and
/// tests, which count as users of the library.
const SCANNED: &[&str] = &[
    "crates",
    "src",
    "tests",
    "examples",
    "benchmark/src",
    "benchmark/tests",
];

const GUARDS: &[Guard] = &[
    Guard {
        name: "No resting deprecations",
        set_by: "6244929: one synchronous round driver",
        why: "a deprecation is a one-change state: the change after the one \
              that deprecates an item deletes it",
        paths: &["crates", "src"],
        rule: Rule::Banned(&["#[deprecated"]),
    },
    Guard {
        name: "Two decoders — coverage and the cyclic-repetition solve",
        set_by: "fe35e5e: one collector, one table",
        why: "the paper's master is one rule, written once: a coverage scheme \
              hands its slot table to the shared decoder in scheme.rs, and only \
              cyclic repetition (a linear solve) brings its own",
        paths: &["crates/coding/src"],
        rule: Rule::Count("impl Decoder for", 2),
    },
    Guard {
        name: "No SchemeConfig, no complex payload",
        set_by: "fe35e5e: one collector, one table",
        why: "the registry is the only scheme table (no closed enum beside \
              it), and no scheme needs a complex payload or complex matrices",
        paths: CODE,
        rule: Rule::Banned(&["SchemeConfig", "LinearComplex", "CMatrix"]),
    },
    Guard {
        name: "One resident data path, no orphan numeric modules",
        set_by: "5790bb1: one resident data path",
        why: "the resident arena is the only data path, and a numeric module \
              stays only while a run reaches it: no chunk-streamed twin, no \
              ridge / power-iteration / Cholesky helpers, no chunk-parallel \
              gradient sum",
        paths: CODE,
        rule: Rule::Banned(&[
            "ChunkedDataset",
            "StreamedContext",
            "build_streamed",
            "PackedBlock",
            "L2Regularized",
            "auto_constant_rate",
            "dominant_eigen",
            "solve_spd",
            "par_sum_vectors",
        ]),
    },
    Guard {
        name: "One coverage clock — no private §IV simulator",
        set_by: "1f844ce: one coverage clock",
        why: "coverage time (eq. (16)) has one clock, the round engine: Fig. 5 \
              and Theorem 2 run `hetero::schemes` through `Experiment`",
        paths: CODE,
        rule: Rule::Banned(&[
            "simulate_gbcc_coverage_time",
            "simulate_lb_completion_time",
            "Fig5Config",
            "CoverageStats",
        ]),
    },
    Guard {
        name: "Theorem 1 is computed — no private §III simulator",
        set_by: "4845e1e: Theorem 1 is computed, not sampled",
        why: "Fig. 2 and tests/theorem1.rs read the exact coupon laws, and no \
              Monte-Carlo beside the round engine estimates a threshold or an \
              order statistic",
        paths: CODE,
        rule: Rule::Banned(&[
            "simulate_draws",
            "simulate_expected_draws",
            "simulate_random_subset",
            "sample_kth",
            "derive_rng2",
            "bcc_simulated",
            "random_simulated",
        ]),
    },
    Guard {
        name: "No round_straggler_count",
        set_by: "5181164: a round pays only for what it reads",
        why: "the regime tracker votes on `Telemetry::slow_worker_count`; the \
              per-round median count that claimed to be its input is gone",
        paths: CODE,
        rule: Rule::Banned(&["round_straggler_count"]),
    },
    Guard {
        name: "No zero-filled frame read buffer",
        set_by: "8ed4536: one bulk pass per hop",
        why: "a received frame is read once into a buffer of its length; the \
              zero-filled staging copy `read_message` used to make stays gone",
        paths: &["crates/net/src/frame.rs"],
        rule: Rule::Banned(&["vec![0u8; len]"]),
    },
    Guard {
        name: "One broadcast body — no per-worker Round copy",
        set_by: "20aa208: encode once, copy once",
        why: "a broadcast encodes the round's weights once into one body every \
              worker's Round frame shares; the per-worker copy of an encoded \
              template, patched with its delay, stays gone",
        paths: CODE,
        rule: Rule::Banned(&["patch_round_delay"]),
    },
    Guard {
        name: "No dense B_F in the cyclic decoder",
        set_by: "4b3d1e1: the cyclic decode reads only its bands",
        why: "the cyclic decoder hands the solver its rows straight from the \
              coding windows and checks the residual over them; the dense \
              `B_F` and its transposed check live on only as the oracle under \
              tests/",
        paths: &["crates/coding/src/cyclic_repetition.rs"],
        rule: Rule::Banned(&["select_rows", "gemv_t"]),
    },
    Guard {
        name: "No orphan linalg kernels",
        set_by: "74ecf0f: the gradient kernel reads each example once",
        why: "the packed gradient path calls `gemv_rows_into` over a unit's \
              range and `axpy` per row; the whole-matrix kernel and the unused \
              scaled sum beside them stay deleted",
        paths: CODE,
        rule: Rule::BannedWord(&["fn gemv_into", "fn axpby"]),
    },
    Guard {
        name: "Host parallelism read in one place",
        set_by: "the virtual backend fills a worker's unit-gradient table on every core",
        why: "`Parallelism::available` is the one host query, and it is \
              memoized once per process, so a hot path may call it: an \
              unmemoized per-round `available_parallelism()` call cost three \
              workloads 13–21 % of their round wall before it was removed",
        paths: CODE,
        rule: Rule::Count("available_parallelism", 1),
    },
    Guard {
        name: "One scoped splitter",
        set_by: "one scoped splitter, one threshold, one host read",
        why: "the unit-gradient fill, the generator and the weighted sum cut \
              their work with `bcc_linalg::parallel::split_runs` under its one \
              `MIN_WORK` threshold; their private thresholds, the per-run fill \
              budget and the weighted sum's column-chunk pool stay gone",
        paths: CODE,
        rule: Rule::Banned(&[
            "PARALLEL_FILL_MIN_WORK",
            "PARALLEL_GENERATE_MIN_WORK",
            "WEIGHTED_SUM_MIN_WORK",
            "WEIGHTED_SUM_COL_CHUNK",
            "fill_threads",
            "max_row_work",
        ]),
    },
    Guard {
        name: "One scoped splitter — one thread scope",
        set_by: "one scoped splitter, one threshold, one host read",
        why: "`split_runs` is the only scoped spawn of the data-parallel paths; \
              a second one beside it is a hand-written splitter come back",
        paths: &[
            "crates/linalg/src",
            "crates/data/src",
            "crates/cluster/src/packed.rs",
            "crates/cluster/src/virtual_cluster.rs",
        ],
        rule: Rule::Count("thread::scope", 1),
    },
    Guard {
        name: "One round clock — no private LocalSGD barrier",
        set_by: "every training mode runs on the round engine",
        why: "every mode builds a backend and runs its rounds through \
              `run_rounds`; the local-steps mode and its barrier simulator, \
              which ignored the backend, the policy and the code and lost \
              all six cells of BENCH_modes.json to `ssp` and `asgd`, stay gone",
        paths: CODE,
        rule: Rule::Banned(&[
            "run_local_sgd",
            "LocalSteps",
            "LocalSgd",
            "local_sgd",
            "local_steps",
        ]),
    },
    Guard {
        name: "Real-time workers recompute every round",
        set_by: "the virtual backend computes each unit gradient once per broadcast point",
        why: "only the virtual backend memoizes unit gradients across rounds; \
              the threaded and TCP workers compute their whole row every round \
              on purpose, because their wall time is what `repro net` and \
              ROADMAP item 20 measure",
        paths: &[
            "crates/cluster/src/worker.rs",
            "crates/cluster/src/threaded.rs",
            "crates/net/src",
        ],
        rule: Rule::Banned(&["UnitGradientCache"]),
    },
    Guard {
        name: "One decode on the master",
        set_by: "the master decodes on one path",
        why: "a policy's `finish` calls the decoder's own `decode` / \
              `decode_partial`; the opt-in threaded fold of \
              `partial_sum_terms`, its `BackendConfig` knob and its \
              `RoundEngine` setter are gone. Measured on a 2-core host it was \
              1.3–1.9× slower at n = 50 × dim 10240 and 1.3–1.6× slower at \
              n = 1000 × dim 1024, and won (1.13–1.40×) only at n = 1000 × \
              dim 10240, where no run used it. A threaded fold returns only \
              with an automatic size threshold and a benchmark workload on \
              each side of it, never as a knob",
        paths: CODE,
        rule: Rule::Banned(&[
            "partial_sum_terms",
            "decode_pool",
            "with_decode_pool",
            "DecodePool::threads",
        ]),
    },
    Guard {
        name: "Nothing unreached — every public fn and const has a user",
        set_by: "the workspace orphan sweep",
        why: "an item only its own unit tests call is code no run reaches; \
              delete it with those tests, or give it an ALLOW entry",
        paths: SCANNED,
        rule: Rule::NoOrphans,
    },
];

/// Names the orphan scan exempts, each with its reason: a test holds other
/// code to the item as a reference, or a ROADMAP item names it.
const ALLOW: &[(&str, &str)] = &[
    (
        "tail_bound",
        "coupon's unit tests hold the exact law's tail to Lemma 2's bound",
    ),
    (
        "variance_draws",
        "coupon's unit tests hold the exact law's variance to this closed form",
    ),
    (
        "stationary_slow_fraction",
        "the chain-frequency test holds the Markov model's visits to it",
    ),
    (
        "idle",
        "the pool-recycling test watches `take` and `put` through it",
    ),
    (
        "wins_over_ssgd",
        "the modes grid's headline-claim test evaluates the grid through it",
    ),
];

/// One file of the tree, its path relative to the repo root with `/`
/// separators.
struct Source {
    path: String,
    text: String,
}

/// Every file under `tops`, in path order.
fn load(tops: &[&str]) -> Vec<Source> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for top in tops {
        walk(root, top, &mut files);
    }
    files
}

fn walk(root: &Path, rel: &str, out: &mut Vec<Source>) {
    let full = root.join(rel);
    if full.is_file() {
        let bytes = fs::read(&full).unwrap_or_else(|e| panic!("read {rel}: {e}"));
        out.push(Source {
            path: rel.to_string(),
            text: String::from_utf8_lossy(&bytes).into_owned(),
        });
        return;
    }
    let Ok(entries) = fs::read_dir(&full) else {
        return;
    };
    let mut names: Vec<String> = entries
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    for name in names {
        let child = format!("{rel}/{name}");
        if name == "target" || child == SELF {
            continue;
        }
        walk(root, &child, out);
    }
}

fn under(path: &str, root: &str) -> bool {
    path == root || path.strip_prefix(root).is_some_and(|r| r.starts_with('/'))
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Every `file:line` under `paths` holding one of `tokens`; with
/// `word_end`, only where the token is not followed by an identifier
/// character.
fn hits(files: &[Source], paths: &[&str], tokens: &[&str], word_end: bool) -> Vec<String> {
    let mut out = Vec::new();
    for file in files
        .iter()
        .filter(|f| paths.iter().any(|p| under(&f.path, p)))
    {
        for (i, line) in file.text.lines().enumerate() {
            let found = tokens.iter().any(|t| {
                line.match_indices(t)
                    .any(|(at, _)| !word_end || !line[at + t.len()..].starts_with(is_ident))
            });
            if found {
                out.push(format!("{}:{}: {}", file.path, i + 1, line.trim()));
            }
        }
    }
    out
}

/// A library file: `src/**` or `crates/*/src/**`.
fn is_library(path: &str) -> bool {
    under(path, "src")
        || path
            .strip_prefix("crates/")
            .and_then(|r| r.split_once('/'))
            .is_some_and(|(_, r)| r.starts_with("src/"))
}

/// The lines above a file's first `#[cfg(test)]`.
fn non_test_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
}

fn words(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !is_ident(c)).filter(|w| !w.is_empty())
}

/// The item a line defines when it is a `pub` or `pub(crate)` `fn` or
/// `const`.
fn definition(line: &str) -> Option<&str> {
    let line = line.trim_start();
    let rest = line
        .strip_prefix("pub(crate) ")
        .or_else(|| line.strip_prefix("pub "))?;
    let rest = ["const fn ", "unsafe fn ", "async fn ", "fn ", "const "]
        .iter()
        .find_map(|kind| rest.strip_prefix(kind))?;
    words(rest).next()
}

/// Every public `fn` and `const` in the non-test part of a library file
/// whose name, as a whole word, appears in no other file among `users` and
/// nowhere else in the non-test part of its own file, reported as
/// `file:line: name`. Names in `allow` are exempt.
fn orphans(files: &[Source], users: &[&str], allow: &[&str]) -> Vec<String> {
    let users: Vec<&Source> = files
        .iter()
        .filter(|f| users.iter().any(|p| under(&f.path, p)))
        .collect();
    let mut seen_in: HashMap<&str, HashSet<usize>> = HashMap::new();
    for (i, file) in users.iter().enumerate() {
        for word in words(&file.text) {
            seen_in.entry(word).or_default().insert(i);
        }
    }
    let mut out = Vec::new();
    for (i, file) in users.iter().enumerate() {
        if !is_library(&file.path) {
            continue;
        }
        let lines: Vec<&str> = non_test_lines(&file.text).collect();
        for (at, line) in lines.iter().enumerate() {
            let Some(name) = definition(line) else {
                continue;
            };
            if allow.contains(&name) || seen_in[name].iter().any(|&j| j != i) {
                continue;
            }
            let uses = lines
                .iter()
                .enumerate()
                .filter(|&(other, _)| other != at)
                .flat_map(|(_, l)| words(l))
                .filter(|w| *w == name)
                .count();
            if uses == 0 {
                out.push(format!("{}:{}: {name}", file.path, at + 1));
            }
        }
    }
    out
}

fn check(guard: &Guard, files: &[Source]) -> Option<String> {
    let (found, expected) = match guard.rule {
        Rule::Banned(tokens) => (hits(files, guard.paths, tokens, false), 0),
        Rule::BannedWord(tokens) => (hits(files, guard.paths, tokens, true), 0),
        Rule::Count(token, n) => (hits(files, guard.paths, &[token], false), n),
        Rule::NoOrphans => {
            let allow: Vec<&str> = ALLOW.iter().map(|&(name, _)| name).collect();
            (orphans(files, guard.paths, &allow), 0)
        }
    };
    (found.len() != expected).then(|| {
        format!(
            "guard \"{}\" ({}) expects {expected} matching lines, found {}:\n  {}\n  why: {}",
            guard.name,
            guard.set_by,
            found.len(),
            found.join("\n  "),
            guard.why,
        )
    })
}

#[test]
fn every_guard_holds() {
    let files = load(SCANNED);
    assert!(
        files
            .iter()
            .any(|f| f.path == "crates/coding/src/scheme.rs"),
        "the walk found no library"
    );
    let failures: Vec<String> = GUARDS.iter().filter_map(|g| check(g, &files)).collect();
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

#[test]
fn every_allow_entry_names_a_reason_and_a_live_item() {
    let files = load(&["crates", "src"]);
    for &(name, reason) in ALLOW {
        assert!(!reason.is_empty(), "ALLOW entry {name} gives no reason");
        let defined = files
            .iter()
            .filter(|f| is_library(&f.path))
            .any(|f| non_test_lines(&f.text).any(|l| definition(l) == Some(name)));
        assert!(defined, "ALLOW entry {name} names no public fn or const");
    }
}

fn fixture(files: &[(&str, &str)]) -> Vec<Source> {
    files
        .iter()
        .map(|&(path, text)| Source {
            path: path.to_string(),
            text: text.to_string(),
        })
        .collect()
}

const USERS: &[&str] = &["crates", "src", "tests"];

#[test]
fn orphan_scan_reports_an_unreached_item_with_its_line() {
    let files = fixture(&[(
        "crates/a/src/lib.rs",
        "//! A crate.\n\npub fn planted() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() { super::planted(); }\n}\n",
    )]);
    assert_eq!(
        orphans(&files, USERS, &[]),
        ["crates/a/src/lib.rs:3: planted"]
    );
}

#[test]
fn orphan_scan_spares_items_reached_from_elsewhere_or_allowed() {
    let files = fixture(&[
        (
            "crates/a/src/lib.rs",
            "pub fn from_test() {}\npub(crate) fn from_own_code() {}\npub const LIMIT: usize = 3;\n\
             pub fn exempt() {}\nfn private() { from_own_code(); }\n",
        ),
        ("crates/a/tests/it.rs", "use a::from_test;\n"),
        ("src/lib.rs", "pub const fn uses_limit() -> usize { a::LIMIT }\n"),
        ("tests/facade.rs", "bcc::uses_limit();\n"),
    ]);
    assert!(orphans(&files, USERS, &["exempt"]).is_empty());
}

#[test]
fn orphan_scan_matches_whole_words_only() {
    let files = fixture(&[
        (
            "crates/a/src/lib.rs",
            "pub fn load() {}\npub fn total_load() {}\n",
        ),
        ("tests/x.rs", "fn f() { total_load(); load_all(); }\n"),
    ]);
    assert_eq!(orphans(&files, USERS, &[]), ["crates/a/src/lib.rs:1: load"]);
}

#[test]
fn orphan_scan_counts_only_listed_users() {
    let files = fixture(&[
        ("crates/a/src/lib.rs", "pub fn shown() {}\n"),
        ("README.md", "`shown` is documented here.\n"),
    ]);
    assert_eq!(
        orphans(&files, USERS, &[]),
        ["crates/a/src/lib.rs:1: shown"]
    );
}

#[test]
fn banned_word_stops_at_a_word_boundary() {
    let files = fixture(&[(
        "crates/a/src/lib.rs",
        "fn gemv_into_rows() {}\nfn gemv_into(x: f64) {}\n",
    )]);
    assert_eq!(
        hits(&files, &["crates"], &["fn gemv_into"], true),
        ["crates/a/src/lib.rs:2: fn gemv_into(x: f64) {}"]
    );
    assert_eq!(hits(&files, &["crates"], &["fn gemv_into"], false).len(), 2);
}
