//! Aggregation-policy equivalence suite.
//!
//! Three contracts:
//!
//! 1. **Legacy equivalence.** The default engine path *is*
//!    [`WaitDecodable`]: a backend with no policy installed and one with
//!    `WaitDecodable` installed explicitly must produce byte-identical
//!    gradients, metrics, and coverage on **every** builtin scheme — the
//!    guarantee that promoting the stopping rule to a trait changed
//!    nothing (the checked-in `BENCH_round_engine.json` replay in
//!    `crates/bench/tests/perf_baseline_pin.rs` pins the same property
//!    end-to-end against the pre-refactor artifact).
//! 2. **Cross-backend equivalence per policy.** Under a deterministic
//!    staircase of worker latencies (arrival order fixed by construction,
//!    as in `backend_equivalence.rs`), the threaded and virtual backends
//!    must agree byte-for-byte under *every* builtin policy, not just the
//!    exact one.
//! 3. **Row-shape equivalence.** The virtual backend reads replicated
//!    partials from a unit-gradient table — borrowed for
//!    contiguous placement rows, gathered for wrap-around and scattered
//!    ones. Over several rounds at moving weights, with and without a
//!    minibatch, every row shape must replay the threaded backend (which
//!    computes each worker's partials itself) bit for bit.

use bcc_cluster::backend::FixedPointDriver;
use bcc_cluster::{
    AggregationPolicy, BackendConfig, BestEffortAll, ClusterBackend, ClusterProfile, CommModel,
    Deadline, EventLog, FastestK, Minibatch, RoundDriver, RoundEvent, RoundOutcome,
    ThreadedCluster, UnitMap, VirtualCluster, WaitDecodable, WorkerProfile,
};
use bcc_coding::{
    BccScheme, CyclicRepetitionScheme, FractionalRepetitionScheme, GradientCodingScheme,
    RandomSubsetScheme, UncodedScheme, UncompressedBccScheme,
};
use bcc_data::synthetic::{generate, SyntheticConfig};
use bcc_optim::LogisticLoss;
use bcc_stats::rng::derive_rng;
use std::sync::Arc;

/// Every builtin scheme at `m = n = 10`, `r = 2` (coverage-retried for the
/// randomized ones).
fn builtin_schemes() -> Vec<Box<dyn GradientCodingScheme>> {
    let (m, n, r) = (10usize, 10usize, 2usize);
    let mut rng = derive_rng(91, 0);
    let bcc = loop {
        let s = BccScheme::new(m, n, r, &mut rng);
        if s.covers_all_batches() {
            break s;
        }
    };
    let bcc_uncompressed = loop {
        let s = UncompressedBccScheme::new(m, n, r, &mut rng);
        if s.covers_all_batches() {
            break s;
        }
    };
    let random = loop {
        let s = RandomSubsetScheme::new(m, n, r, &mut rng);
        if s.placement().covers_all() {
            break s;
        }
    };
    vec![
        Box::new(UncodedScheme::new(m, n)),
        Box::new(bcc),
        Box::new(bcc_uncompressed),
        Box::new(random),
        Box::new(CyclicRepetitionScheme::new(n, r, &mut rng)),
        Box::new(FractionalRepetitionScheme::new(n, r)),
    ]
}

fn assert_outcomes_identical(a: &RoundOutcome, b: &RoundOutcome, tag: &str) {
    assert_eq!(a.metrics, b.metrics, "{tag}: metrics diverged");
    assert_eq!(a.coverage, b.coverage, "{tag}: coverage diverged");
    assert_eq!(a.exact, b.exact, "{tag}: exactness diverged");
    assert_eq!(
        a.gradient_sum.len(),
        b.gradient_sum.len(),
        "{tag}: gradient dims"
    );
    for (i, (x, y)) in a.gradient_sum.iter().zip(&b.gradient_sum).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{tag}: gradient component {i} differs ({x} vs {y})"
        );
    }
}

#[test]
fn explicit_wait_decodable_replays_the_default_path_on_every_builtin_scheme() {
    let profile = ClusterProfile::ec2_like(10);
    let units = UnitMap::grouped(40, 10);
    let data = generate(&SyntheticConfig::small(40, 5, 17));
    let w = vec![0.05; 5];
    for scheme in builtin_schemes() {
        let run = |policy: Option<Arc<dyn AggregationPolicy>>| {
            let mut cluster = VirtualCluster::new(profile.clone(), 23);
            if let Some(p) = policy {
                cluster = cluster.configured(BackendConfig::new().aggregation_policy(p));
            }
            let mut driver = FixedPointDriver::new(w.clone());
            cluster
                .run_rounds(
                    3,
                    scheme.as_ref(),
                    &units,
                    &data.dataset,
                    &LogisticLoss,
                    &mut driver,
                )
                .expect("rounds complete");
            driver.outcomes
        };
        let default_path = run(None);
        let explicit = run(Some(Arc::new(WaitDecodable)));
        assert_eq!(default_path.len(), explicit.len());
        for (round, (a, b)) in default_path.iter().zip(&explicit).enumerate() {
            assert_outcomes_identical(a, b, &format!("{}/round {round}", scheme.name()));
            assert!(
                a.exact,
                "{}: exact policy must decode exactly",
                scheme.name()
            );
            assert!(
                a.coverage.is_full(),
                "{}: exact decode covers every unit",
                scheme.name()
            );
        }
    }
}

/// A staircase profile: arrival order fixed by deterministic shifts
/// (gaps ≫ OS jitter, microsecond exponential tail).
fn staircase_profile(shifts: &[f64]) -> ClusterProfile {
    ClusterProfile {
        workers: shifts
            .iter()
            .map(|&a| WorkerProfile { mu: 1e4, a })
            .collect(),
        comm: CommModel {
            per_message_overhead: 0.001,
            per_unit: 0.001,
        },
    }
}

fn cross_backend_case(
    scheme: &dyn GradientCodingScheme,
    units: &UnitMap,
    policy: Arc<dyn AggregationPolicy>,
    seed: u64,
) -> (RoundOutcome, RoundOutcome) {
    let shifts: Vec<f64> = (0..scheme.num_workers())
        .map(|i| 0.005 * (((i * 7) % scheme.num_workers()) + 1) as f64)
        .collect();
    cross_backend_case_with(scheme, units, policy, seed, &shifts)
}

fn cross_backend_case_with(
    scheme: &dyn GradientCodingScheme,
    units: &UnitMap,
    policy: Arc<dyn AggregationPolicy>,
    seed: u64,
    shifts: &[f64],
) -> (RoundOutcome, RoundOutcome) {
    let profile = staircase_profile(shifts);
    let data = generate(&SyntheticConfig::small(units.num_examples(), 4, seed));
    let w = vec![0.05; 4];

    let mut virtual_cluster = VirtualCluster::new(profile.clone(), seed)
        .configured(BackendConfig::new().aggregation_policy(Arc::clone(&policy)));
    let virtual_out = virtual_cluster
        .run_round(scheme, units, &data.dataset, &LogisticLoss, &w)
        .expect("virtual round completes");

    let mut threaded_cluster = ThreadedCluster::new(profile, seed, 1.0)
        .configured(BackendConfig::new().aggregation_policy(policy));
    let threaded_out = threaded_cluster
        .run_round(scheme, units, &data.dataset, &LogisticLoss, &w)
        .expect("threaded round completes");
    (virtual_out, threaded_out)
}

/// Cross-backend agreement on everything except the clock fields (the
/// threaded backend's times are wall-clock; message sets and gradients
/// must still match bit-for-bit).
fn assert_backend_agreement(v: &RoundOutcome, t: &RoundOutcome, tag: &str) {
    assert_eq!(v.metrics.messages_used, t.metrics.messages_used, "{tag}");
    assert_eq!(
        v.metrics.communication_units, t.metrics.communication_units,
        "{tag}"
    );
    assert_eq!(
        v.metrics.compute_time.to_bits(),
        t.metrics.compute_time.to_bits(),
        "{tag}: same latency stream"
    );
    assert_eq!(v.coverage, t.coverage, "{tag}: coverage diverged");
    assert_eq!(v.exact, t.exact, "{tag}: exactness diverged");
    for (i, (a, b)) in v.gradient_sum.iter().zip(&t.gradient_sum).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{tag}: gradient component {i}");
    }
}

/// How a placement row lays over the unit ids `0..m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RowShape {
    /// `s, s+1, …, s+len−1`.
    Contiguous,
    /// A run of consecutive ids modulo `m` that wraps past `m − 1`.
    Wrap,
    /// Anything else.
    Scattered,
}

fn row_shape(row: &[usize], m: usize) -> RowShape {
    let is_run_from = |start: usize| (0..row.len()).all(|k| row.contains(&((start + k) % m)));
    if row
        .iter()
        .zip(row.first().copied().unwrap_or(0)..)
        .all(|(&u, e)| u == e)
    {
        RowShape::Contiguous
    } else if row.iter().any(|&start| is_run_from(start)) {
        RowShape::Wrap
    } else {
        RowShape::Scattered
    }
}

/// Takes a small gradient step after every round, so each round evaluates
/// a fresh point — a unit-gradient table carried over from the previous
/// round would show.
struct StepDriver {
    weights: Vec<f64>,
    outcomes: Vec<RoundOutcome>,
}

impl RoundDriver for StepDriver {
    fn eval_point(&mut self, _round: usize) -> Vec<f64> {
        self.weights.clone()
    }

    fn consume(&mut self, _round: usize, outcome: RoundOutcome) {
        for (w, g) in self.weights.iter_mut().zip(&outcome.gradient_sum) {
            *w -= 0.01 * g;
        }
        self.outcomes.push(outcome);
    }
}

#[test]
fn virtual_replays_threaded_on_every_row_shape() {
    // Odd multiples of 8 ms: a one-unit finish (a·1) and a two-unit
    // finish (a·2, an even multiple) never collide, so the threaded
    // backend's real arrival order is the virtual order. Distinct finishes
    // lie at least 8 ms apart: at 4 ms a scheduling stall on a loaded
    // 2-core host once reordered two arrivals. A 9-of-10 minibatch keeps
    // at most one worker at zero load (and zero compute).
    let shifts: Vec<f64> = (0..10)
        .map(|i| 0.008 * (2 * ((i * 7) % 10) + 1) as f64)
        .collect();
    let profile = staircase_profile(&shifts);
    let units = UnitMap::grouped(40, 10);
    let data = generate(&SyntheticConfig::small(40, 4, 97));
    let mut shapes = std::collections::HashSet::new();
    for scheme in builtin_schemes() {
        let placement = scheme.placement();
        shapes.extend(
            (0..placement.num_workers())
                .map(|w| row_shape(placement.worker_examples(w), placement.num_examples())),
        );
        for minibatch in [None, Some(Minibatch::new(9, 41))] {
            let config = || match minibatch {
                Some(mb) => BackendConfig::new().minibatch(mb),
                None => BackendConfig::new(),
            };
            let run = |cluster: &mut dyn ClusterBackend| {
                let mut driver = StepDriver {
                    weights: vec![0.05; 4],
                    outcomes: Vec::new(),
                };
                cluster
                    .run_rounds(
                        4,
                        scheme.as_ref(),
                        &units,
                        &data.dataset,
                        &LogisticLoss,
                        &mut driver,
                    )
                    .expect("rounds complete");
                driver.outcomes
            };
            let virtual_out =
                run(&mut VirtualCluster::new(profile.clone(), 29).configured(config()));
            let threaded_out =
                run(&mut ThreadedCluster::new(profile.clone(), 29, 1.0).configured(config()));
            assert_eq!(virtual_out.len(), threaded_out.len());
            for (round, (v, t)) in virtual_out.iter().zip(&threaded_out).enumerate() {
                let tag = format!(
                    "{}/minibatch {:?}/round {round}",
                    scheme.name(),
                    minibatch.map(|mb| mb.units_per_round)
                );
                assert_backend_agreement(v, t, &tag);
            }
        }
    }
    assert_eq!(
        shapes.len(),
        3,
        "the schemes must cover contiguous, wrap and scattered rows: {shapes:?}"
    );
}

#[test]
fn fastest_k_is_backend_invariant_on_uncoded() {
    let units = UnitMap::grouped(30, 10);
    let scheme = UncodedScheme::new(10, 10);
    let (v, t) = cross_backend_case(&scheme, &units, Arc::new(FastestK::new(6)), 53);
    assert_backend_agreement(&v, &t, "fastest-k/uncoded");
    assert_eq!(v.metrics.messages_used, 6);
    assert!(!v.exact, "6 of 10 shards cannot decode exactly");
    assert_eq!(v.coverage.covered_units, 6, "6 of the 10 unit shards");
    assert_eq!(v.coverage.total_units, 10);
}

#[test]
fn best_effort_all_is_backend_invariant_on_bcc() {
    let units = UnitMap::grouped(40, 10);
    let scheme = BccScheme::from_choices(10, 2, vec![0, 1, 2, 3, 4, 4, 3, 2, 1, 0]);
    let (v, t) = cross_backend_case(&scheme, &units, Arc::new(BestEffortAll), 59);
    assert_backend_agreement(&v, &t, "best-effort-all/bcc");
    // Drained everyone, and full coverage decodes exactly.
    assert_eq!(v.metrics.messages_used, 10);
    assert!(v.exact);
}

#[test]
fn deadline_is_backend_invariant_on_uncoded() {
    // A coarse staircase (40 ms steps): the threaded backend's delivery
    // clocks differ from the virtual ones only by scheduler noise well
    // under a step, and the deadline sits mid-step, so both backends cut
    // at the same arrival.
    let shifts: Vec<f64> = (0..10).map(|i| 0.04 * (i + 1) as f64).collect();
    let units = UnitMap::grouped(30, 10);
    let scheme = UncodedScheme::new(10, 10);
    let (v, t) =
        cross_backend_case_with(&scheme, &units, Arc::new(Deadline::new(0.19)), 61, &shifts);
    assert_backend_agreement(&v, &t, "deadline/uncoded");
    assert!(!v.exact);
    assert_eq!(
        v.metrics.messages_used, 5,
        "first delivery at/after 0.19 s is the fifth (0.04 s staircase)"
    );
}

#[test]
fn best_effort_all_completes_where_exact_policies_stall() {
    // A dead worker under uncoded: the exact policy stalls, the drain-all
    // policy returns the surviving coverage, rescaled.
    let units = UnitMap::grouped(30, 10);
    let scheme = UncodedScheme::new(10, 10);
    let profile = ClusterProfile::ec2_like(10);
    let data = generate(&SyntheticConfig::small(30, 4, 67));

    let mut exact = VirtualCluster::new(profile.clone(), 67);
    exact.kill_workers([4]);
    let err = exact
        .run_round(&scheme, &units, &data.dataset, &LogisticLoss, &[0.0; 4])
        .unwrap_err();
    assert!(matches!(err, bcc_cluster::ClusterError::Stalled { .. }));

    let mut tolerant = VirtualCluster::new(profile, 67)
        .configured(BackendConfig::new().aggregation_policy(Arc::new(BestEffortAll)));
    tolerant.kill_workers([4]);
    let out = tolerant
        .run_round(&scheme, &units, &data.dataset, &LogisticLoss, &[0.0; 4])
        .expect("best-effort completes on exhaustion");
    assert_eq!(out.metrics.messages_used, 9);
    assert!(!out.exact);
    assert_eq!(out.coverage.covered_units, 9, "9 of the 10 unit shards");
}

#[test]
fn observer_sees_the_round_event_stream() {
    let units = UnitMap::grouped(30, 10);
    let scheme = UncodedScheme::new(10, 10);
    let profile = ClusterProfile::ec2_like(10);
    let data = generate(&SyntheticConfig::small(30, 4, 71));
    let log = EventLog::shared();

    let mut observed = VirtualCluster::new(profile.clone(), 71)
        .configured(BackendConfig::new().observer(log.clone() as bcc_cluster::SharedObserver));
    let observed_out = observed
        .run_round(&scheme, &units, &data.dataset, &LogisticLoss, &[0.0; 4])
        .unwrap();

    // Observation must not perturb the protocol.
    let mut unobserved = VirtualCluster::new(profile, 71);
    let unobserved_out = unobserved
        .run_round(&scheme, &units, &data.dataset, &LogisticLoss, &[0.0; 4])
        .unwrap();
    assert_outcomes_identical(&observed_out, &unobserved_out, "observed vs unobserved");

    let log = log.lock().unwrap();
    // Broadcast, 10 arrivals, completion.
    assert_eq!(log.events.len(), 12, "events: {:?}", log.events);
    assert!(matches!(
        log.events[0],
        RoundEvent::Broadcast {
            round: 0,
            participants: 10
        }
    ));
    let mut last_messages = 0;
    let mut last_at = 0.0;
    for event in &log.events[1..11] {
        let RoundEvent::Arrival {
            at,
            messages,
            coverage,
            ..
        } = event
        else {
            panic!("expected arrival, got {event:?}");
        };
        assert!(*messages == last_messages + 1, "messages monotone");
        assert!(*at >= last_at, "delivery clocks nondecreasing");
        assert!(coverage.covered_units <= coverage.total_units);
        last_messages = *messages;
        last_at = *at;
    }
    let RoundEvent::Complete {
        messages,
        coverage,
        at,
        ..
    } = &log.events[11]
    else {
        panic!("expected completion, got {:?}", log.events[11]);
    };
    assert_eq!(*messages, 10);
    assert!(coverage.is_full());
    assert_eq!(at.to_bits(), observed_out.metrics.total_time.to_bits());
}

#[test]
fn stall_emits_a_stalled_event() {
    let units = UnitMap::grouped(30, 10);
    let scheme = UncodedScheme::new(10, 10);
    let log = EventLog::shared();
    let mut cluster = VirtualCluster::new(ClusterProfile::ec2_like(10), 73)
        .configured(BackendConfig::new().observer(log.clone() as bcc_cluster::SharedObserver));
    cluster.kill_workers([2]);
    let data = generate(&SyntheticConfig::small(30, 4, 73));
    let _ = cluster
        .run_round(&scheme, &units, &data.dataset, &LogisticLoss, &[0.0; 4])
        .unwrap_err();
    let log = log.lock().unwrap();
    assert!(
        matches!(
            log.events.last(),
            Some(RoundEvent::Stalled { received: 9, .. })
        ),
        "{:?}",
        log.events.last()
    );
}
