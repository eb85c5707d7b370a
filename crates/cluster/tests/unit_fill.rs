//! The virtual backend's kernel work per round, counted.
//!
//! A replicated unit's gradient is computed once per round into the
//! backend's unit-gradient table, and a worker whose unfilled units are
//! large enough is filled on several threads. Both are invisible in the
//! output (bit-identical by construction), so this suite watches the
//! kernel itself: a recording loss logs every row range
//! `Loss::add_gradient_rows` receives, on whichever thread, and each round
//! must have handed it exactly the cache-sized row blocks of the distinct
//! units of the workers the master consumed — every block once. A fill
//! that recomputes a filled unit, skips one, or hands the kernel a whole
//! unit instead of its blocks fails here.
//!
//! The workloads sit above the parallel-fill threshold (2¹⁸ feature
//! elements on one worker's row), so on a multi-core host the fill must
//! also have run on more than one thread.

use bcc_cluster::{
    ClusterBackend, ClusterProfile, CommModel, RoundDriver, RoundOutcome, UnitMap, VirtualCluster,
    WorkerProfile,
};
use bcc_coding::{BccScheme, CyclicRepetitionScheme, GradientCodingScheme};
use bcc_data::synthetic::{generate, SyntheticConfig};
use bcc_data::Dataset;
use bcc_linalg::parallel::Parallelism;
use bcc_linalg::Matrix;
use bcc_optim::{LogisticLoss, Loss};
use std::collections::{BTreeSet, HashSet};
use std::ops::Range;
use std::sync::Mutex;
use std::thread::ThreadId;

const DIM: usize = 1024;

/// Rows per kernel block at [`DIM`]: the largest multiple of four rows
/// within 64 KiB of features (`GradScratch::accumulate_rows`' split).
const BLOCK_ROWS: usize = 8;

/// Delegates to `inner` and logs every range `add_gradient_rows` receives,
/// with the thread that called it.
struct Recording<'a> {
    inner: &'a dyn Loss,
    calls: Mutex<Vec<(ThreadId, Range<usize>)>>,
}

impl Loss for Recording<'_> {
    fn value(&self, x: &[f64], y: f64, w: &[f64]) -> f64 {
        self.inner.value(x, y, w)
    }
    fn add_gradient(&self, x: &[f64], y: f64, w: &[f64], out: &mut [f64]) {
        self.inner.add_gradient(x, y, w, out);
    }
    fn add_gradient_rows(
        &self,
        x: &Matrix,
        y: &[f64],
        rows: Range<usize>,
        w: &[f64],
        margins: &mut Vec<f64>,
        acc: &mut [f64],
    ) {
        self.calls
            .lock()
            .unwrap()
            .push((std::thread::current().id(), rows.clone()));
        self.inner.add_gradient_rows(x, y, rows, w, margins, acc);
    }
}

/// Checks each round's kernel calls against its consumed workers.
struct Counter<'a> {
    scheme: &'a dyn GradientCodingScheme,
    units: &'a UnitMap,
    recording: &'a Recording<'a>,
    weights: Vec<f64>,
    rounds: usize,
    /// Rounds in which a consumed worker's row was already entirely in the
    /// table when it arrived (so a recomputing fill would show).
    rounds_with_a_full_hit: usize,
    threads: HashSet<ThreadId>,
}

impl RoundDriver for Counter<'_> {
    fn eval_point(&mut self, _round: usize) -> Vec<f64> {
        self.weights.clone()
    }

    fn consume(&mut self, round: usize, outcome: RoundOutcome) {
        let placement = self.scheme.placement();
        let mut distinct = BTreeSet::new();
        let mut full_hit = false;
        // Arrival stamps are sorted by worker id; the fill order is the
        // delivery order.
        let mut consumed = outcome.arrivals.clone();
        consumed.sort_by(|a, b| a.at.total_cmp(&b.at));
        for stamp in &consumed {
            let row = placement.worker_examples(stamp.worker);
            full_hit |= row.iter().all(|unit| distinct.contains(unit));
            distinct.extend(row.iter().copied());
        }
        self.rounds_with_a_full_hit += usize::from(full_hit);
        let mut expected: Vec<(usize, usize)> = distinct
            .iter()
            .flat_map(|&unit| {
                let rows = self.units.unit_range(unit);
                (rows.start..rows.end)
                    .step_by(BLOCK_ROWS)
                    .map(move |start| (start, rows.end.min(start + BLOCK_ROWS)))
            })
            .collect();
        let calls = std::mem::take(&mut *self.recording.calls.lock().unwrap());
        self.threads.extend(calls.iter().map(|(thread, _)| *thread));
        let mut seen: Vec<(usize, usize)> = calls.iter().map(|(_, r)| (r.start, r.end)).collect();
        expected.sort_unstable();
        seen.sort_unstable();
        assert_eq!(
            seen, expected,
            "round {round}: the kernel must see each block of the consumed \
             workers' distinct units {distinct:?} exactly once"
        );
        self.rounds += 1;
    }
}

fn dataset(units: usize, rows_per_unit: usize) -> Dataset {
    generate(&SyntheticConfig {
        num_examples: units * rows_per_unit,
        dim: DIM,
        separation: 1.5,
        seed: 5,
    })
    .dataset
}

/// A staircase of per-worker shifts (negligible exponential tail), so
/// arrival order is fixed: worker `i` finishes `order[i]`-th.
fn staircase(order: &[usize]) -> ClusterProfile {
    ClusterProfile {
        workers: order
            .iter()
            .map(|&k| WorkerProfile {
                mu: 1e4,
                a: 0.005 * (k + 1) as f64,
            })
            .collect(),
        comm: CommModel {
            per_message_overhead: 0.001,
            per_unit: 0.001,
        },
    }
}

/// Runs `rounds` rounds of `scheme` on the virtual backend through the
/// counter; returns the rounds checked, the rounds in which some arrival's
/// row was already filled, and the threads the kernel ran on.
fn count(
    scheme: &dyn GradientCodingScheme,
    profile: ClusterProfile,
    rows_per_unit: usize,
    rounds: usize,
) -> (usize, usize, HashSet<ThreadId>) {
    let placement = scheme.placement();
    let m = placement.num_examples();
    let data = dataset(m, rows_per_unit);
    let units = UnitMap::grouped(m * rows_per_unit, m);
    let busiest = (0..placement.num_workers())
        .map(|w| placement.load_of(w))
        .max()
        .unwrap();
    assert!(
        busiest * rows_per_unit * DIM >= 1 << 18,
        "the workload must reach the parallel-fill threshold"
    );
    let recording = Recording {
        inner: &LogisticLoss,
        calls: Mutex::new(Vec::new()),
    };
    let mut counter = Counter {
        scheme,
        units: &units,
        recording: &recording,
        weights: (0..DIM).map(|j| 0.01 * (j as f64 * 0.3).cos()).collect(),
        rounds: 0,
        rounds_with_a_full_hit: 0,
        threads: HashSet::new(),
    };
    VirtualCluster::new(profile, 17)
        .run_rounds(rounds, scheme, &units, &data, &recording, &mut counter)
        .expect("virtual run completes");
    (
        counter.rounds,
        counter.rounds_with_a_full_hit,
        counter.threads,
    )
}

fn assert_threads(threads: &HashSet<ThreadId>) {
    if Parallelism::available().get() > 1 {
        assert!(
            threads.len() > 1,
            "a fill above the threshold must use more than one core"
        );
    } else {
        assert_eq!(threads.len(), 1);
    }
}

#[test]
fn bcc_rounds_compute_each_consumed_unit_once_in_blocks() {
    // 8 units in two batches of 4 (80 rows each: 4 × 80 × 1024 f64 per
    // row); workers 0 and 2 hold batch 0 and finish first, so the second
    // arrival finds its whole row in the table.
    let scheme = BccScheme::from_choices(8, 4, vec![0, 1, 0, 1, 1, 0]);
    let profile = staircase(&[0, 2, 1, 3, 4, 5]);
    let (rounds, full_hits, threads) = count(&scheme, profile, 80, 3);
    assert_eq!(rounds, 3);
    assert_eq!(full_hits, 3, "every round reuses a filled batch");
    assert_threads(&threads);
}

#[test]
fn cyclic_rounds_compute_each_consumed_unit_once_in_blocks() {
    // n = m = 6, r = 3: rows overlap their neighbours' and the last two
    // wrap around, so most arrivals find part of their row filled.
    let mut rng = bcc_stats::rng::derive_rng(11, 0);
    let scheme = CyclicRepetitionScheme::new(6, 3, &mut rng);
    let profile = staircase(&[4, 0, 5, 1, 2, 3]);
    let (rounds, _, threads) = count(&scheme, profile, 96, 3);
    assert_eq!(rounds, 3);
    assert_threads(&threads);
}
