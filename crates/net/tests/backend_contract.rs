//! The [`ClusterBackend`] contract, checked on all four backends through
//! `Box<dyn ClusterBackend>` — the one crate that sees them all. Every
//! backend runs the one round loop in `bcc_cluster::round_loop`, so what a
//! caller may rely on is the same everywhere:
//!
//! * `k` sequential `run_round` calls are `run_rounds(k)` — bit for bit on
//!   the virtual backend; on the real-time backends the same consumed worker
//!   set, the same `compute_seconds` stamps, the same `messages_used` and the
//!   same gradient to 1e-9 (accumulation order follows arrival order) —
//!   with and without minibatch rounds;
//! * a stalled round advances the round counter by exactly one, and a run
//!   whose session set-up fails (a bound master nobody registers with)
//!   attempts no round and advances it by none;
//! * `run_rounds(0)` is `Ok` and never touches the driver.
//!
//! Profiles are the deterministic "staircases" of `net_equivalence.rs`
//! (with wider steps for the ten-worker one), so real-time arrival order is
//! unambiguous.

use bcc_cluster::backend::FixedPointDriver;
use bcc_cluster::engine::RoundContext;
use bcc_cluster::policy::{AggregatedGradient, RoundVerdict, RoundView};
use bcc_cluster::{
    AggregationPolicy, ArrivalStamp, BackendConfig, BestEffortAll, ClusterBackend, ClusterError,
    ClusterProfile, CommModel, Minibatch, RoundDriver, RoundOutcome, ThreadedCluster, UnitMap,
    VirtualCluster, WorkerBlocks, WorkerProfile,
};
use bcc_coding::{BccScheme, GradientCodingScheme, UncodedScheme};
use bcc_data::synthetic::{generate, SyntheticConfig};
use bcc_data::Dataset;
use bcc_net::{
    auth_token, connect_with_retry, handshake, serve_rounds, LocalNetCluster, TcpCluster,
    WorkerConfig,
};
use bcc_optim::{LogisticLoss, Loss};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const DIM: usize = 4;

/// Scheme + data, leaked to `'static` because the bound master's worker
/// threads outlive any one call.
struct Problem {
    scheme: Box<dyn GradientCodingScheme>,
    units: UnitMap,
    data: Dataset,
    packed: WorkerBlocks,
    profile: ClusterProfile,
}

fn problem(
    scheme: Box<dyn GradientCodingScheme>,
    examples: usize,
    shifts: &[f64],
) -> &'static Problem {
    let units = UnitMap::grouped(examples, scheme.num_examples());
    let data = generate(&SyntheticConfig::small(examples, DIM, 5)).dataset;
    let packed = WorkerBlocks::build(scheme.as_ref(), &units, &data);
    // Staircase: arrival order fixed by deterministic shifts, while the
    // (tiny) exponential tail still differs from round to round.
    let profile = ClusterProfile {
        workers: shifts
            .iter()
            .map(|&a| WorkerProfile { mu: 1e4, a })
            .collect(),
        comm: CommModel {
            per_message_overhead: 0.001,
            per_unit: 0.001,
        },
    };
    Box::leak(Box::new(Problem {
        scheme,
        units,
        data,
        packed,
        profile,
    }))
}

/// Ten workers, early stopping: BCC completes once every batch is covered.
///
/// The steps are 20 ms, four times `net_equivalence.rs`'s 5 ms: on a loaded
/// 2-core host a threaded worker can wake 5–10 ms late, which at 5 ms
/// steps swaps two arrivals about once in a hundred runs and changes the
/// consumed set the exact comparison below checks.
fn bcc_problem() -> &'static Problem {
    let shifts: Vec<f64> = (0..10)
        .map(|i| 0.020 * (((i * 7) % 10) + 1) as f64)
        .collect();
    let scheme = BccScheme::from_choices(10, 2, vec![0, 1, 2, 3, 4, 4, 3, 2, 1, 0]);
    problem(Box::new(scheme), 40, &shifts)
}

/// Five workers, no redundancy: one death stalls an exact round.
fn uncoded_problem() -> &'static Problem {
    problem(
        Box::new(UncodedScheme::new(10, 5)),
        30,
        &[0.025, 0.005, 0.020, 0.010, 0.015],
    )
}

impl Problem {
    fn run_round(&self, backend: &mut dyn ClusterBackend) -> Result<RoundOutcome, ClusterError> {
        let w = [0.05; DIM];
        backend.run_round(
            self.scheme.as_ref(),
            &self.units,
            &self.data,
            &LogisticLoss,
            &w,
        )
    }

    fn run_rounds(
        &self,
        backend: &mut dyn ClusterBackend,
        rounds: usize,
        driver: &mut dyn RoundDriver,
    ) -> Result<(), ClusterError> {
        let loss: &dyn Loss = &LogisticLoss;
        backend.run_rounds(
            rounds,
            self.scheme.as_ref(),
            &self.units,
            &self.data,
            loss,
            driver,
        )
    }
}

const SEED: u64 = 61;

/// One table row: a backend's name, whether its outcomes replay bit for
/// bit, and how to stand one up with `dead` workers killed up front.
type Build = fn(&'static Problem, BackendConfig, &[usize]) -> Box<dyn ClusterBackend>;
const BACKENDS: [(&str, bool, Build); 4] = [
    ("virtual-des", true, |p, config, dead| {
        let mut b = VirtualCluster::new(p.profile.clone(), SEED).configured(config);
        b.kill_workers(dead.iter().copied());
        Box::new(b)
    }),
    ("threaded", false, |p, config, dead| {
        let mut b = ThreadedCluster::new(p.profile.clone(), SEED, 1.0).configured(config);
        b.kill_workers(dead.iter().copied());
        Box::new(b)
    }),
    ("tcp-local", false, |p, config, dead| {
        let mut b = LocalNetCluster::new(p.profile.clone(), SEED, 1.0).configured(config);
        b.kill_workers(dead.iter().copied());
        Box::new(b)
    }),
    ("tcp", false, |p, config, dead| {
        Box::new(BoundTcp::new(p, config, dead))
    }),
];

/// A bound [`TcpCluster`] with its own fleet of worker threads, each running
/// the `bcc-worker` loop over a real socket for as long as the master lives.
struct BoundTcp {
    master: TcpCluster,
    workers: Vec<JoinHandle<()>>,
}

impl BoundTcp {
    fn new(p: &'static Problem, config: BackendConfig, dead: &[usize]) -> Self {
        let minibatch = config.minibatch;
        let mut master = TcpCluster::bind("127.0.0.1:0", p.profile.clone(), SEED, 1.0)
            .expect("bind master")
            .configured(config);
        master.kill_workers(dead.iter().copied());
        Self::serving(p, master, minibatch, dead)
    }

    /// Starts the fleet of an already bound `master`.
    fn serving(
        p: &'static Problem,
        master: TcpCluster,
        minibatch: Option<Minibatch>,
        dead: &[usize],
    ) -> Self {
        let ctx = RoundContext {
            scheme: p.scheme.as_ref(),
            units: &p.units,
            data: &p.data,
            loss: &LogisticLoss,
            packed: &p.packed,
            minibatch,
        };
        let addr = master.local_addr().to_string();
        let workers = ctx
            .participants(&dead.iter().copied().collect())
            .into_iter()
            .map(|worker| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut stream =
                        connect_with_retry(&addr, Duration::from_secs(10)).expect("connect");
                    handshake(&mut stream, worker, auth_token(SEED)).expect("admitted");
                    let _ = serve_rounds(stream, &ctx, &WorkerConfig::new(worker, 1.0));
                })
            })
            .collect();
        Self { master, workers }
    }
}

impl ClusterBackend for BoundTcp {
    fn run_rounds(
        &mut self,
        rounds: usize,
        scheme: &dyn GradientCodingScheme,
        units: &UnitMap,
        data: &Dataset,
        loss: &dyn Loss,
        driver: &mut dyn RoundDriver,
    ) -> Result<(), ClusterError> {
        self.master
            .run_rounds(rounds, scheme, units, data, loss, driver)
    }

    fn backend_name(&self) -> &'static str {
        self.master.backend_name()
    }
}

impl Drop for BoundTcp {
    fn drop(&mut self) {
        // Workers must see Shutdown before they can be joined.
        self.master.shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The deterministic part of a round's arrival telemetry: who was consumed
/// and the simulated compute time each reported (`at` is wall clock on the
/// real-time backends).
fn stamps(outcome: &RoundOutcome) -> Vec<(usize, u64)> {
    let key = |s: &ArrivalStamp| (s.worker, s.compute_seconds.to_bits());
    outcome.arrivals.iter().map(key).collect()
}

fn assert_same_round(name: &str, bitwise: bool, a: &RoundOutcome, b: &RoundOutcome) {
    assert_eq!(stamps(a), stamps(b), "{name}: consumed set and stamps");
    assert_eq!(a.metrics.messages_used, b.metrics.messages_used, "{name}");
    assert_eq!(a.examples_used, b.examples_used, "{name}");
    assert_eq!((a.exact, a.coverage), (b.exact, b.coverage), "{name}");
    if bitwise {
        assert_eq!(a.gradient_sum, b.gradient_sum, "{name}: gradient bits");
        assert_eq!(
            a.metrics, b.metrics,
            "{name}: every metric, clocks included"
        );
        assert_eq!(a.arrivals, b.arrivals, "{name}: delivery timestamps");
    } else {
        for (x, y) in a.gradient_sum.iter().zip(&b.gradient_sum) {
            assert!((x - y).abs() <= 1e-9, "{name}: gradient {x} vs {y}");
        }
    }
}

#[test]
fn sequential_run_round_calls_equal_one_run_rounds_call() {
    const ROUNDS: usize = 3;
    let p = bcc_problem();
    for minibatch in [None, Some(Minibatch::new(6, 17))] {
        let mut config = BackendConfig::new();
        if let Some(minibatch) = minibatch {
            config = config.minibatch(minibatch);
        }
        for (name, bitwise, build) in BACKENDS {
            let mut one_by_one = build(p, config.clone(), &[]);
            assert_eq!(one_by_one.backend_name(), name);
            let sequential: Vec<RoundOutcome> = (0..ROUNDS)
                .map(|_| p.run_round(one_by_one.as_mut()).expect("round completes"))
                .collect();

            let mut batched = FixedPointDriver::new(vec![0.05; DIM]);
            p.run_rounds(build(p, config.clone(), &[]).as_mut(), ROUNDS, &mut batched)
                .expect("batched run completes");

            assert_eq!(batched.outcomes.len(), ROUNDS, "{name}");
            for (a, b) in sequential.iter().zip(&batched.outcomes) {
                assert_eq!(a.examples_used.is_some(), minibatch.is_some(), "{name}");
                assert_same_round(name, bitwise, a, b);
            }
            assert_ne!(
                stamps(&sequential[0]),
                stamps(&sequential[1]),
                "{name}: each round draws its own latency stream"
            );
        }
    }
}

/// [`BestEffortAll`], except that the first exhausted round stalls — what
/// the default exact policy does with an uncoded scheme and a dead worker —
/// so that the *next* round of the same backend completes and shows which
/// latency stream it drew.
#[derive(Debug, Default)]
struct StallFirstExhaustion(AtomicBool);

impl AggregationPolicy for StallFirstExhaustion {
    fn name(&self) -> &'static str {
        "stall-first-exhaustion"
    }

    fn on_arrival(&self, view: &RoundView<'_>) -> RoundVerdict {
        BestEffortAll.on_arrival(view)
    }

    fn complete_on_exhausted(&self) -> bool {
        self.0.swap(true, Ordering::SeqCst)
    }

    fn finish(&self, view: &RoundView<'_>) -> Result<AggregatedGradient, ClusterError> {
        BestEffortAll.finish(view)
    }
}

#[test]
fn a_stalled_round_advances_the_round_counter_by_exactly_one() {
    let p = uncoded_problem();
    let dead = [2];
    for (name, _, build) in BACKENDS {
        let stalling = BackendConfig::new()
            .aggregation_policy(Arc::new(StallFirstExhaustion::default()))
            .recv_timeout(Duration::from_secs(60));
        let mut backend = build(p, stalling, &dead);
        let err = p.run_round(backend.as_mut()).expect_err("round 0 stalls");
        assert!(
            matches!(err, ClusterError::Stalled { received: 4, .. }),
            "{name}: got {err:?}"
        );
        let after_stall = p.run_round(backend.as_mut()).expect("next round completes");

        let plain = BackendConfig::new().aggregation_policy(Arc::new(BestEffortAll));
        let mut twin = build(p, plain, &dead);
        let twin_round_0 = p.run_round(twin.as_mut()).expect("twin round 0");
        let twin_round_1 = p.run_round(twin.as_mut()).expect("twin round 1");

        assert_eq!(after_stall.metrics.messages_used, 4, "{name}");
        assert_eq!(
            stamps(&after_stall),
            stamps(&twin_round_1),
            "{name}: the round after a stall is round 1"
        );
        assert_ne!(
            stamps(&after_stall),
            stamps(&twin_round_0),
            "{name}: … and not round 0 again"
        );
    }
}

#[test]
fn a_failed_set_up_attempts_no_round() {
    // Only the bound master has a set-up that can fail on demand: its first
    // run waits `connect_timeout` for workers that were never started.
    let p = uncoded_problem();
    let impatient = BackendConfig::new().connect_timeout(Duration::from_millis(50));
    let mut master = TcpCluster::bind("127.0.0.1:0", p.profile.clone(), SEED, 1.0)
        .expect("bind master")
        .configured(impatient);
    let err = p.run_round(&mut master).expect_err("nobody registered");
    assert!(matches!(err, ClusterError::Net(_)), "got {err:?}");

    let patient = BackendConfig::new().connect_timeout(Duration::from_secs(30));
    let mut backend = BoundTcp::serving(p, master.configured(patient), None, &[]);
    let first = p.run_round(&mut backend).expect("round completes");
    let mut twin = BoundTcp::new(p, BackendConfig::new(), &[]);
    let twin_round_0 = p.run_round(&mut twin).expect("twin round 0");
    let twin_round_1 = p.run_round(&mut twin).expect("twin round 1");
    assert_eq!(
        stamps(&first),
        stamps(&twin_round_0),
        "no round was attempted, so the first one that runs is round 0"
    );
    assert_ne!(stamps(&first), stamps(&twin_round_1));
}

/// A driver nobody may call.
struct Untouchable;

impl RoundDriver for Untouchable {
    fn eval_point(&mut self, round: usize) -> Vec<f64> {
        panic!("eval_point({round}) on a zero-round run");
    }

    fn consume(&mut self, round: usize, _outcome: RoundOutcome) {
        panic!("consume({round}) on a zero-round run");
    }
}

#[test]
fn zero_rounds_is_ok_and_leaves_the_driver_untouched() {
    let p = uncoded_problem();
    for (name, _, build) in BACKENDS {
        let mut backend = build(p, BackendConfig::new(), &[]);
        p.run_rounds(backend.as_mut(), 0, &mut Untouchable)
            .unwrap_or_else(|e| panic!("{name}: zero rounds failed: {e}"));
        // … and the backend is still at round 0: its first round is a fresh
        // twin's first round.
        let first = p.run_round(backend.as_mut()).expect("round 0");
        let twin = p
            .run_round(build(p, BackendConfig::new(), &[]).as_mut())
            .expect("twin round 0");
        assert_eq!(stamps(&first), stamps(&twin), "{name}");
    }
}
