//! The virtual backend's kernel work, counted.
//!
//! A unit's gradient is computed once per broadcast point into the
//! backend's unit-gradient table — once for all its replicas in a round,
//! and once for every round that broadcasts the same weights over the same
//! minibatch — and a worker whose unfilled units are large enough is filled
//! on several threads. All of it is invisible in the output (bit-identical
//! by construction), so this suite watches the kernel itself: a recording
//! loss logs every row range `Loss::add_gradient_rows` receives, on
//! whichever thread, and each round must have handed it exactly the
//! cache-sized row blocks of the consumed workers' units that the table did
//! not hold yet — every block once. The suite states for each round whether
//! its point is new (the table starts empty) or the previous round's (the
//! table carries over). A fill that recomputes a filled unit, skips one,
//! keeps a table across a moved point, or hands the kernel a whole unit
//! instead of its blocks fails here.
//!
//! The per-round workloads sit above the parallel-fill threshold (2¹⁸
//! feature elements on one worker's row), so on a multi-core host the fill
//! must also have run on more than one thread.

use bcc_cluster::{
    BackendConfig, ClusterBackend, ClusterProfile, CommModel, Minibatch, RoundDriver, RoundOutcome,
    UnitMap, VirtualCluster, WorkerProfile,
};
use bcc_coding::{
    BccScheme, CyclicRepetitionScheme, FractionalRepetitionScheme, GradientCodingScheme,
    UncodedScheme,
};
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
/// within 64 KiB of features (`GradScratch::accumulate_rows`' split). A
/// unit of at most four rows is one block at any width.
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

/// One run's broadcast points and minibatch, as the test states them.
struct Plan {
    /// The weights broadcast in each round.
    points: Vec<Vec<f64>>,
    /// Per round: true when its point (weights or selection) differs from
    /// the previous round's, so the table must start empty.
    fresh: Vec<bool>,
    minibatch: Option<Minibatch>,
}

impl Plan {
    /// `rounds` rounds at one point.
    fn fixed(point: Vec<f64>, rounds: usize) -> Self {
        Self::moving(vec![point; rounds], &[0])
    }

    /// One round at each of `points`; the point is new at the rounds in
    /// `fresh`.
    fn moving(points: Vec<Vec<f64>>, fresh: &[usize]) -> Self {
        Self {
            fresh: (0..points.len()).map(|r| fresh.contains(&r)).collect(),
            points,
            minibatch: None,
        }
    }
}

/// Checks each round's kernel calls against the table the plan implies.
struct Counter<'a> {
    scheme: &'a dyn GradientCodingScheme,
    units: &'a UnitMap,
    recording: &'a Recording<'a>,
    plan: &'a Plan,
    /// The units filled since the plan's last fresh round.
    table: BTreeSet<usize>,
    tally: Tally,
}

/// What a run's kernel calls added up to.
#[derive(Default)]
struct Tally {
    rounds: usize,
    /// Rounds in which a consumed worker's row was already entirely in the
    /// table when it arrived (so a recomputing fill would show).
    rounds_with_a_full_hit: usize,
    /// Kernel calls over the whole run.
    calls: usize,
    /// Every unit some consumed worker holds, over the whole run.
    consumed: BTreeSet<usize>,
    threads: HashSet<ThreadId>,
}

impl RoundDriver for Counter<'_> {
    fn eval_point(&mut self, round: usize) -> Vec<f64> {
        self.plan.points[round].clone()
    }

    fn consume(&mut self, round: usize, outcome: RoundOutcome) {
        if self.plan.fresh[round] {
            self.table.clear();
        }
        let selection = self
            .plan
            .minibatch
            .map(|mb| mb.select(round as u64, self.units.num_units()));
        let placement = self.scheme.placement();
        let mut computed = BTreeSet::new();
        let mut full_hit = false;
        // Arrival stamps are sorted by worker id; the fill order is the
        // delivery order.
        let mut consumed = outcome.arrivals.clone();
        consumed.sort_by(|a, b| a.at.total_cmp(&b.at));
        for stamp in &consumed {
            let row = placement.worker_examples(stamp.worker);
            full_hit |= row.iter().all(|unit| self.table.contains(unit));
            for &unit in row {
                // A unit outside the minibatch is filled with zeros and
                // reads no row.
                let selected = selection.as_ref().is_none_or(|sel| sel.contains(unit));
                if self.table.insert(unit) && selected {
                    computed.insert(unit);
                }
            }
            self.tally.consumed.extend(row.iter().copied());
        }
        self.tally.rounds_with_a_full_hit += usize::from(full_hit);
        let mut expected: Vec<(usize, usize)> = computed
            .iter()
            .flat_map(|&unit| {
                let rows = self.units.unit_range(unit);
                (rows.start..rows.end)
                    .step_by(BLOCK_ROWS)
                    .map(move |start| (start, rows.end.min(start + BLOCK_ROWS)))
            })
            .collect();
        let calls = std::mem::take(&mut *self.recording.calls.lock().unwrap());
        self.tally.calls += calls.len();
        self.tally
            .threads
            .extend(calls.iter().map(|(thread, _)| *thread));
        let mut seen: Vec<(usize, usize)> = calls.iter().map(|(_, r)| (r.start, r.end)).collect();
        expected.sort_unstable();
        seen.sort_unstable();
        assert_eq!(
            seen, expected,
            "round {round}: the kernel must see each block of the consumed \
             workers' units the table lacked, {computed:?}, exactly once"
        );
        self.tally.rounds += 1;
    }
}

fn dataset(units: usize, rows_per_unit: usize, dim: usize) -> Dataset {
    generate(&SyntheticConfig {
        num_examples: units * rows_per_unit,
        dim,
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

/// A weight vector of `dim` irregular entries.
fn point(dim: usize) -> Vec<f64> {
    (0..dim).map(|j| 0.01 * (j as f64 * 0.3).cos()).collect()
}

/// Runs `plan` with `scheme` over units of `rows_per_unit` rows of width
/// `dim` on the virtual backend, checking every round through the counter.
fn count(
    scheme: &dyn GradientCodingScheme,
    profile: ClusterProfile,
    rows_per_unit: usize,
    dim: usize,
    plan: &Plan,
) -> Tally {
    let m = scheme.placement().num_examples();
    let data = dataset(m, rows_per_unit, dim);
    let units = UnitMap::grouped(m * rows_per_unit, m);
    let recording = Recording {
        inner: &LogisticLoss,
        calls: Mutex::new(Vec::new()),
    };
    let mut counter = Counter {
        scheme,
        units: &units,
        recording: &recording,
        plan,
        table: BTreeSet::new(),
        tally: Tally::default(),
    };
    let mut config = BackendConfig::new();
    if let Some(minibatch) = plan.minibatch {
        config = config.minibatch(minibatch);
    }
    VirtualCluster::new(profile, 17)
        .configured(config)
        .run_rounds(
            plan.points.len(),
            scheme,
            &units,
            &data,
            &recording,
            &mut counter,
        )
        .expect("virtual run completes");
    assert_eq!(counter.tally.rounds, plan.points.len());
    counter.tally
}

/// [`count`] over three rounds whose point moves every round (weight 0
/// steps by 10⁻³), so each round fills its table afresh: the per-round
/// fill, above the parallel-fill threshold.
fn count_moving(
    scheme: &dyn GradientCodingScheme,
    profile: ClusterProfile,
    rows_per_unit: usize,
) -> Tally {
    let placement = scheme.placement();
    let busiest = (0..placement.num_workers())
        .map(|w| placement.load_of(w))
        .max()
        .unwrap();
    assert!(
        busiest * rows_per_unit * DIM >= 1 << 18,
        "the workload must reach the parallel-fill threshold"
    );
    let points = (0..3)
        .map(|round| {
            let mut w = point(DIM);
            w[0] += round as f64 * 1e-3;
            w
        })
        .collect();
    count(
        scheme,
        profile,
        rows_per_unit,
        DIM,
        &Plan::moving(points, &[0, 1, 2]),
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

/// The kernel calls of a run that fills every consumed unit once: one
/// block per unit of at most [`BLOCK_ROWS`] rows.
fn once_each(tally: &Tally) {
    assert_eq!(
        tally.calls,
        tally.consumed.len(),
        "each unit consumed over the run is computed once"
    );
}

#[test]
fn bcc_rounds_compute_each_consumed_unit_once_in_blocks() {
    // 8 units in two batches of 4 (80 rows each: 4 × 80 × 1024 f64 per
    // row); workers 0 and 2 hold batch 0 and finish first, so the second
    // arrival finds its whole row in the table.
    let scheme = BccScheme::from_choices(8, 4, vec![0, 1, 0, 1, 1, 0]);
    let profile = staircase(&[0, 2, 1, 3, 4, 5]);
    let tally = count_moving(&scheme, profile, 80);
    assert_eq!(
        tally.rounds_with_a_full_hit, 3,
        "every round reuses a filled batch"
    );
    assert_threads(&tally.threads);
}

#[test]
fn cyclic_rounds_compute_each_consumed_unit_once_in_blocks() {
    // n = m = 6, r = 3: rows overlap their neighbours' and the last two
    // wrap around, so most arrivals find part of their row filled.
    let mut rng = bcc_stats::rng::derive_rng(11, 0);
    let scheme = CyclicRepetitionScheme::new(6, 3, &mut rng);
    let profile = staircase(&[4, 0, 5, 1, 2, 3]);
    let tally = count_moving(&scheme, profile, 96);
    assert_threads(&tally.threads);
}

#[test]
fn fixed_point_bcc_run_computes_each_consumed_unit_once() {
    // Random arrival order over six rounds: later rounds consume workers
    // the earlier ones did not, and only their new units reach the kernel.
    let mut rng = bcc_stats::rng::derive_rng(23, 0);
    let scheme = loop {
        let s = BccScheme::new(12, 16, 3, &mut rng);
        if s.covers_all_batches() {
            break s;
        }
    };
    let tally = count(
        &scheme,
        ClusterProfile::ec2_like(16),
        4,
        DIM,
        &Plan::fixed(point(DIM), 6),
    );
    once_each(&tally);
    assert!(
        tally.rounds_with_a_full_hit >= 5,
        "rounds 1–5 reuse round 0"
    );
}

#[test]
fn fixed_point_uncoded_run_computes_each_unit_once() {
    // Replication-free: every unit has one holder, and every round
    // consumes all of them. Rounds 1–4 reach the kernel not at all.
    let scheme = UncodedScheme::new(12, 4);
    let tally = count(
        &scheme,
        ClusterProfile::ec2_like(4),
        4,
        DIM,
        &Plan::fixed(point(DIM), 5),
    );
    once_each(&tally);
    assert_eq!(tally.calls, 12);
    assert_eq!(tally.rounds_with_a_full_hit, 4);
}

#[test]
fn engine_fanout_shaped_fixed_point_run_computes_a_thousand_units() {
    // n = m = 1000, fractional repetition at r = 10, units of 2 rows × 32
    // features: a recomputing table makes rounds × 1000 kernel calls, the
    // memoized one the run's 1000 distinct consumed units.
    let scheme = FractionalRepetitionScheme::new(1000, 10);
    let tally = count(
        &scheme,
        ClusterProfile::ec2_like(1000),
        2,
        32,
        &Plan::fixed(point(32), 5),
    );
    assert_eq!(tally.consumed.len(), 1000);
    assert_eq!(tally.calls, 1000, "kernel evaluations over five rounds");
}

#[test]
fn a_moved_point_recomputes_even_by_the_sign_of_a_zero() {
    let scheme = BccScheme::from_choices(8, 4, vec![0, 1, 0, 1, 1, 0]);
    let mut before = point(DIM);
    before[3] = 0.0;
    let mut stepped = before.clone();
    stepped[0] += 1e-3;
    let mut negated = before.clone();
    negated[3] = -0.0;
    for after in [stepped, negated] {
        // Rounds 0–1 at one point, rounds 2–4 at another: round 2 finds
        // nothing it can reuse from round 1.
        let points = [vec![before.clone(); 2], vec![after; 3]].concat();
        let tally = count(
            &scheme,
            staircase(&[0, 2, 1, 3, 4, 5]),
            4,
            DIM,
            &Plan::moving(points, &[0, 2]),
        );
        assert_eq!(tally.calls, 16, "8 units at each of two points");
    }
}

#[test]
fn a_fixed_point_minibatch_run_recomputes_when_the_selection_moves() {
    // 4 units, 3 a round: four possible selections over twelve rounds, so
    // the selection both repeats and moves. BCC with one unit per batch and
    // two holders each.
    let scheme = BccScheme::from_choices(4, 1, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    let minibatch = Minibatch::new(3, 99);
    let rounds = 12;
    let selections: Vec<_> = (0..rounds).map(|r| minibatch.select(r, 4)).collect();
    let fresh: Vec<usize> = (0..selections.len())
        .filter(|&r| r == 0 || selections[r] != selections[r - 1])
        .collect();
    assert!(
        fresh.len() > 1 && fresh.len() < selections.len(),
        "the selection must both move and repeat: fresh at {fresh:?}"
    );
    let plan = Plan {
        minibatch: Some(minibatch),
        ..Plan::moving(vec![point(DIM); selections.len()], &fresh)
    };
    let tally = count(&scheme, staircase(&[0, 1, 2, 3, 4, 5, 6, 7]), 4, DIM, &plan);
    assert_eq!(
        tally.calls,
        3 * fresh.len(),
        "3 selected units per new selection"
    );
}
