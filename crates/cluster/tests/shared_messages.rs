//! The virtual backend's encode work, counted.
//!
//! Where a scheme promises that several workers send one message
//! (`GradientCodingScheme::message_slot`), the virtual backend encodes that
//! message once per broadcast point: the first of its senders to arrive
//! encodes, every later one receives a copy, and the copies are dropped
//! when the point moves. All of it is invisible in the output, so this
//! suite watches `encode` itself: a counting scheme forwards every method
//! to a real one and logs the worker of every `encode` call, and each
//! round's log must be exactly what that rule predicts from the round's
//! consumed workers, in delivery order. A memo that is never read, or one
//! that outlives its point, fails here.

use bcc_cluster::{
    ClusterBackend, ClusterProfile, RoundDriver, RoundOutcome, UnitMap, VirtualCluster,
};
use bcc_coding::{
    BccScheme, CodingError, CyclicRepetitionScheme, Decoder, FractionalRepetitionScheme,
    GradientCodingScheme, Payload, UncodedScheme,
};
use bcc_data::synthetic::{generate, SyntheticConfig};
use bcc_data::Placement;
use bcc_optim::LogisticLoss;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

const DIM: usize = 8;

/// Forwards every method to `inner` and logs the worker of each `encode`.
#[derive(Debug)]
struct Counting<'a> {
    inner: &'a dyn GradientCodingScheme,
    encodes: Mutex<Vec<usize>>,
}

impl GradientCodingScheme for Counting<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn placement(&self) -> &Placement {
        self.inner.placement()
    }
    fn num_workers(&self) -> usize {
        self.inner.num_workers()
    }
    fn num_examples(&self) -> usize {
        self.inner.num_examples()
    }
    fn encode(&self, worker: usize, partials: &[Vec<f64>]) -> Result<Payload, CodingError> {
        self.encodes.lock().unwrap().push(worker);
        self.inner.encode(worker, partials)
    }
    fn decoder(&self) -> Box<dyn Decoder + '_> {
        self.inner.decoder()
    }
    fn analytic_recovery_threshold(&self) -> Option<f64> {
        self.inner.analytic_recovery_threshold()
    }
    fn message_units(&self, worker: usize) -> usize {
        self.inner.message_units(worker)
    }
    fn message_slot(&self, worker: usize) -> Option<usize> {
        self.inner.message_slot(worker)
    }
}

/// One round as the counter saw it.
struct Round {
    /// The workers `encode` was called for, in call order.
    encoded: Vec<usize>,
    /// The workers the master consumed, in delivery order.
    consumed: Vec<usize>,
}

/// Broadcasts `points[round]` and records each round's encodes.
struct Recorder<'a> {
    scheme: &'a Counting<'a>,
    points: Vec<Vec<f64>>,
    rounds: Vec<Round>,
}

impl RoundDriver for Recorder<'_> {
    fn eval_point(&mut self, round: usize) -> Vec<f64> {
        self.points[round].clone()
    }

    fn consume(&mut self, _round: usize, outcome: RoundOutcome) {
        let mut stamps = outcome.arrivals;
        stamps.sort_by(|a, b| a.at.total_cmp(&b.at));
        self.rounds.push(Round {
            encoded: std::mem::take(&mut *self.scheme.encodes.lock().unwrap()),
            consumed: stamps.iter().map(|s| s.worker).collect(),
        });
    }
}

/// A weight vector of irregular entries.
fn point() -> Vec<f64> {
    (0..DIM).map(|j| 0.01 * (j as f64 * 0.3).cos()).collect()
}

/// `rounds` points; weight 0 steps by 10⁻³ every round when `moving`.
fn points(rounds: usize, moving: bool) -> Vec<Vec<f64>> {
    (0..rounds)
        .map(|round| {
            let mut w = point();
            if moving {
                w[0] += round as f64 * 1e-3;
            }
            w
        })
        .collect()
}

/// Runs `scheme` over `points` on the virtual backend, `dead` killed, two
/// rows per unit.
fn run(scheme: &dyn GradientCodingScheme, dead: &[usize], points: Vec<Vec<f64>>) -> Vec<Round> {
    let m = scheme.num_examples();
    let data = generate(&SyntheticConfig {
        num_examples: 2 * m,
        dim: DIM,
        separation: 1.5,
        seed: 5,
    })
    .dataset;
    let units = UnitMap::grouped(2 * m, m);
    let counting = Counting {
        inner: scheme,
        encodes: Mutex::new(Vec::new()),
    };
    let rounds = points.len();
    let mut recorder = Recorder {
        scheme: &counting,
        points,
        rounds: Vec::new(),
    };
    let mut cluster = VirtualCluster::new(ClusterProfile::ec2_like(scheme.num_workers()), 19);
    cluster.kill_workers(dead.iter().copied());
    cluster
        .run_rounds(
            rounds,
            &counting,
            &units,
            &data,
            &LogisticLoss,
            &mut recorder,
        )
        .expect("virtual run completes");
    assert_eq!(recorder.rounds.len(), rounds);
    recorder.rounds
}

/// The slots two or more live workers name.
fn shared_slots(scheme: &dyn GradientCodingScheme, dead: &[usize]) -> BTreeSet<usize> {
    let mut senders = BTreeMap::<usize, usize>::new();
    for worker in (0..scheme.num_workers()).filter(|w| !dead.contains(w)) {
        if let Some(slot) = scheme.message_slot(worker) {
            *senders.entry(slot).or_default() += 1;
        }
    }
    senders
        .into_iter()
        .filter_map(|(slot, count)| (count > 1).then_some(slot))
        .collect()
}

/// Checks every round's encodes against the rule: a consumed worker encodes
/// unless its slot is shared and already encoded at this point. `fresh`
/// says, per round, whether its point differs from the previous round's.
/// Returns the encodes and the consumed messages over the run.
fn check(
    scheme: &dyn GradientCodingScheme,
    dead: &[usize],
    rounds: &[Round],
    fresh: impl Fn(usize) -> bool,
) -> (usize, usize) {
    let shared = shared_slots(scheme, dead);
    let mut memo = BTreeSet::new();
    let (mut encodes, mut consumed) = (0, 0);
    for (index, round) in rounds.iter().enumerate() {
        if fresh(index) {
            memo.clear();
        }
        let expected: Vec<usize> = round
            .consumed
            .iter()
            .copied()
            .filter(|&worker| match scheme.message_slot(worker) {
                Some(slot) if shared.contains(&slot) => memo.insert(slot),
                _ => true,
            })
            .collect();
        assert_eq!(
            round.encoded, expected,
            "round {index}: the encodes of consumed workers {:?}",
            round.consumed
        );
        encodes += round.encoded.len();
        consumed += round.consumed.len();
    }
    (encodes, consumed)
}

#[test]
fn fixed_point_fractional_repetition_encodes_each_slot_once_per_run() {
    // n = 40, r = 4: ten groups of four. Round 0 must consume every group
    // and encode each once; rounds 1–5 encode nothing.
    let scheme = FractionalRepetitionScheme::new(40, 4);
    let rounds = run(&scheme, &[], points(6, false));
    let (encodes, consumed) = check(&scheme, &[], &rounds, |round| round == 0);
    let slots: BTreeSet<_> = rounds[0]
        .encoded
        .iter()
        .map(|&w| scheme.message_slot(w).unwrap())
        .collect();
    assert_eq!((rounds[0].encoded.len(), slots.len()), (10, 10));
    assert_eq!(encodes, 10, "the run's encodes");
    assert!(consumed > 6 * 10, "some rounds consumed a group twice");
}

#[test]
fn engine_fanout_shaped_fixed_point_run_encodes_a_hundred_messages() {
    // n = m = 1000, fractional repetition at r = 10: 100 shared slots,
    // hundreds of arrivals a round, and one encode per slot over the run.
    let scheme = FractionalRepetitionScheme::new(1000, 10);
    let rounds = run(&scheme, &[], points(5, false));
    let (encodes, consumed) = check(&scheme, &[], &rounds, |round| round == 0);
    assert_eq!(encodes, 100);
    assert!(consumed > 5 * 100);
}

#[test]
fn a_moving_point_encodes_each_consumed_slot_once_a_round() {
    // Twelve workers over six batches of two units; batch 5 has one
    // holder, and killing worker 11 leaves batch 4 with one live holder, so
    // both encode on every arrival while the other batches encode once a
    // round.
    let scheme = BccScheme::from_choices(12, 2, vec![0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 0, 4]);
    let dead = [11];
    assert_eq!(shared_slots(&scheme, &dead), BTreeSet::from([0, 1, 2, 3]));
    let rounds = run(&scheme, &dead, points(8, true));
    let (encodes, consumed) = check(&scheme, &dead, &rounds, |_| true);
    assert!(
        encodes < consumed,
        "some round consumed a batch twice: {encodes} encodes, {consumed} messages"
    );
}

#[test]
fn schemes_without_a_shared_slot_encode_every_consumed_message() {
    // Cyclic repetition names no slot; uncoded names one per worker. Both
    // encode once per consumed message, at a fixed point too.
    let mut rng = bcc_stats::rng::derive_rng(11, 0);
    let cyclic = CyclicRepetitionScheme::new(8, 3, &mut rng);
    let uncoded = UncodedScheme::new(12, 4);
    for scheme in [&cyclic as &dyn GradientCodingScheme, &uncoded] {
        assert!(shared_slots(scheme, &[]).is_empty(), "{}", scheme.name());
        let rounds = run(scheme, &[], points(4, false));
        let (encodes, consumed) = check(scheme, &[], &rounds, |round| round == 0);
        assert_eq!(encodes, consumed, "{}", scheme.name());
        for round in &rounds {
            assert_eq!(round.encoded, round.consumed, "{}", scheme.name());
        }
    }
}
