//! Loopback deployment of the TCP backend: real sockets, in-process
//! workers.
//!
//! [`LocalNetCluster`] is the networked twin of
//! [`bcc_cluster::ThreadedCluster`]: per run it binds a [`TcpCluster`]
//! master on an ephemeral `127.0.0.1` port and spawns one worker *thread*
//! per live participant, each of which connects, handshakes, and runs the
//! exact [`crate::worker::serve_rounds`] loop the `bcc-worker` binary
//! runs. Every weight broadcast and gradient envelope crosses a genuine
//! kernel TCP socket — which makes this the backend the cross-backend
//! equivalence suite (`tests/net_equivalence.rs`) pins byte-identical to
//! the virtual and threaded backends, without needing multi-process
//! orchestration inside unit tests.
//!
//! Fault injection: [`LocalNetCluster::fail_worker_at`] arms a worker to
//! drop its connection upon receiving a given round's frame, exercising
//! the master's mid-round death detection end to end;
//! [`LocalNetCluster::rejoin_worker_at`] makes the worker immediately
//! reconnect afterwards, exercising mid-round re-admission.

use crate::frame::auth_token;
use crate::master::TcpCluster;
use crate::stats::NetStats;
use crate::worker::{connect_with_retry, handshake, serve_rounds, WorkerConfig};
use bcc_cluster::backend::{ClusterBackend, FixedPointDriver, RoundDriver, RoundOutcome};
use bcc_cluster::config::BackendConfig;
use bcc_cluster::decode::DecodePool;
use bcc_cluster::engine::RoundContext;
use bcc_cluster::latency::ClusterProfile;
use bcc_cluster::minibatch::Minibatch;
use bcc_cluster::observer::SharedObserver;
use bcc_cluster::packed::WorkerBlocks;
use bcc_cluster::policy::AggregationPolicy;
use bcc_cluster::straggler::{self, StragglerModel};
use bcc_cluster::units::UnitMap;
use bcc_cluster::ClusterError;
use bcc_coding::GradientCodingScheme;
use bcc_data::Dataset;
use bcc_optim::Loss;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// How long loopback workers keep retrying their connect — generous,
/// because the master's listener is already bound before any worker
/// thread starts.
const LOOPBACK_CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// TCP master/worker cluster with loopback worker threads.
#[derive(Debug)]
pub struct LocalNetCluster {
    profile: ClusterProfile,
    model: Arc<dyn StragglerModel>,
    policy: Arc<dyn AggregationPolicy>,
    observer: Option<SharedObserver>,
    seed: u64,
    round: u64,
    time_scale: f64,
    recv_timeout: Duration,
    dead_workers: HashSet<usize>,
    decode_pool: DecodePool,
    minibatch: Option<Minibatch>,
    /// Armed faults: worker → round at which it drops its connection.
    fail_at: HashMap<usize, u64>,
    /// Armed rejoins: workers in this set reconnect right after their
    /// `fail_at` death and serve rounds again.
    rejoin: HashSet<usize>,
    /// Whether the master runs the pipelined fan-out (the default) or the
    /// serial write-per-peer reference path.
    pipelined: bool,
    /// Transport counters of the most recent run.
    last_stats: Option<NetStats>,
}

impl LocalNetCluster {
    /// Creates a loopback TCP cluster.
    ///
    /// # Panics
    /// Panics on a non-positive `time_scale`.
    #[must_use]
    pub fn new(profile: ClusterProfile, seed: u64, time_scale: f64) -> Self {
        assert!(
            time_scale > 0.0 && time_scale.is_finite(),
            "time_scale must be positive"
        );
        let model = straggler::default_model(&profile);
        Self {
            profile,
            model,
            policy: bcc_cluster::policy::default_policy(),
            observer: None,
            seed,
            round: 0,
            time_scale,
            recv_timeout: Duration::from_secs(5),
            dead_workers: HashSet::new(),
            decode_pool: DecodePool::default(),
            minibatch: None,
            fail_at: HashMap::new(),
            rejoin: HashSet::new(),
            pipelined: true,
            last_stats: None,
        }
    }

    /// Applies every [`BackendConfig`] knob this backend implements:
    /// latency model, aggregation policy, observer, decode pool, minibatch
    /// sampler, receive timeout, and pipelining. Bound-master-only knobs
    /// (heartbeat/connect timeouts, job, auth token) are ignored — the
    /// loopback fleet handshakes with the seed-derived token and holds the
    /// problem in-process.
    #[must_use]
    pub fn configured(mut self, config: BackendConfig) -> Self {
        if let Some(model) = config.straggler_model {
            self.model = model;
        }
        if let Some(policy) = config.aggregation_policy {
            self.policy = policy;
        }
        if let Some(observer) = config.observer {
            self.observer = Some(observer);
        }
        if let Some(pool) = config.decode_pool {
            self.decode_pool = pool;
        }
        if let Some(minibatch) = config.minibatch {
            self.minibatch = Some(minibatch);
        }
        if let Some(timeout) = config.recv_timeout {
            self.recv_timeout = timeout;
        }
        if let Some(pipelined) = config.pipelining {
            self.pipelined = pipelined;
        }
        self
    }

    /// Marks workers as dead up front: they are never spawned, mirroring
    /// the other backends' `kill_workers` fault hook.
    pub fn kill_workers(&mut self, workers: impl IntoIterator<Item = usize>) {
        self.dead_workers.extend(workers);
    }

    /// Revives all workers and disarms every fault.
    pub fn revive_all(&mut self) {
        self.dead_workers.clear();
        self.fail_at.clear();
        self.rejoin.clear();
    }

    /// Arms `worker` to drop its connection upon receiving `round`'s
    /// frame — a genuine mid-round death over the socket.
    pub fn fail_worker_at(&mut self, worker: usize, round: u64) {
        self.fail_at.insert(worker, round);
    }

    /// Arms `worker` to drop its connection upon receiving `round`'s
    /// frame and then immediately reconnect — a genuine mid-training
    /// crash/restart over the socket. The master re-admits it with the
    /// in-flight round's model, so it keeps contributing without waiting
    /// for a round boundary.
    pub fn rejoin_worker_at(&mut self, worker: usize, round: u64) {
        self.fail_at.insert(worker, round);
        self.rejoin.insert(worker);
    }

    /// The profile in force.
    #[must_use]
    pub fn profile(&self) -> &ClusterProfile {
        &self.profile
    }

    /// Transport counters of the most recent run (`None` before any run).
    #[must_use]
    pub fn last_net_stats(&self) -> Option<NetStats> {
        self.last_stats
    }

    /// Spins up a master + worker threads over loopback TCP and drives
    /// `rounds` rounds, mirroring the threaded backend's pool semantics.
    fn run_loopback(
        &mut self,
        first_round: u64,
        rounds: usize,
        ctx: RoundContext<'_>,
        driver: &mut dyn RoundDriver,
        attempted: &mut u64,
    ) -> Result<(), ClusterError> {
        let participants = ctx.participants(&self.dead_workers);
        let mut config = BackendConfig::new()
            .decode_pool(self.decode_pool)
            .straggler_model(Arc::clone(&self.model))
            .aggregation_policy(Arc::clone(&self.policy))
            .recv_timeout(self.recv_timeout)
            .pipelining(self.pipelined);
        if let Some(minibatch) = self.minibatch {
            config = config.minibatch(minibatch);
        }
        if let Some(observer) = &self.observer {
            config = config.observer(Arc::clone(observer));
        }
        let mut master = TcpCluster::bind(
            "127.0.0.1:0",
            self.profile.clone(),
            self.seed,
            self.time_scale,
        )?
        .configured(config);
        master.kill_workers(self.dead_workers.iter().copied());
        let addr = master.local_addr().to_string();
        let token = auth_token(self.seed);

        let outcome: Result<Result<(), ClusterError>, _> = crossbeam::scope(|scope| {
            for &worker in &participants {
                let addr = addr.clone();
                let mut cfg = WorkerConfig::new(worker, self.time_scale);
                if let Some(&round) = self.fail_at.get(&worker) {
                    cfg = cfg.with_die_at_round(round);
                }
                let rejoins = self.rejoin.contains(&worker);
                scope.spawn(move |_| {
                    // A worker that cannot reach its own master is a dead
                    // worker; the master's death detection owns the
                    // fallout, so failures here are simply dropped.
                    let Ok(mut stream) = connect_with_retry(&addr, LOOPBACK_CONNECT_TIMEOUT) else {
                        return;
                    };
                    // Loopback workers already hold the problem
                    // in-process; the job string is empty and ignored.
                    if handshake(&mut stream, worker, token).is_err() {
                        return;
                    }
                    let _ = serve_rounds(stream, &ctx, &cfg);
                    if !rejoins {
                        return;
                    }
                    // Crash/restart: come straight back on a fresh socket
                    // (without the armed fault) and keep serving.
                    let Ok(mut stream) = connect_with_retry(&addr, LOOPBACK_CONNECT_TIMEOUT) else {
                        return;
                    };
                    if handshake(&mut stream, worker, token).is_err() {
                        return;
                    }
                    let cfg = WorkerConfig::new(worker, cfg.time_scale);
                    let _ = serve_rounds(stream, &ctx, &cfg);
                });
            }
            let result = master.run_batch(first_round, rounds, ctx, driver, attempted);
            // Workers must see Shutdown before the scope can join them.
            master.shutdown();
            result
        });
        self.last_stats = Some(master.stats());
        outcome.map_err(|_| ClusterError::WorkerFailed { worker: usize::MAX })?
    }
}

impl ClusterBackend for LocalNetCluster {
    fn run_round(
        &mut self,
        scheme: &dyn GradientCodingScheme,
        units: &UnitMap,
        data: &Dataset,
        loss: &dyn Loss,
        weights: &[f64],
    ) -> Result<RoundOutcome, ClusterError> {
        let packed = WorkerBlocks::build(scheme, units, data);
        let ctx = RoundContext {
            scheme,
            units,
            data,
            loss,
            packed: &packed,
            minibatch: self.minibatch,
        };
        ctx.validate(&self.profile);
        let round = self.round;
        self.round += 1;
        let mut single = FixedPointDriver::new(weights.to_vec());
        self.run_loopback(round, 1, ctx, &mut single, &mut 0)?;
        Ok(single
            .outcomes
            .pop()
            .expect("run_loopback consumed one round"))
    }

    fn run_rounds(
        &mut self,
        rounds: usize,
        scheme: &dyn GradientCodingScheme,
        units: &UnitMap,
        data: &Dataset,
        loss: &dyn Loss,
        driver: &mut dyn RoundDriver,
    ) -> Result<(), ClusterError> {
        let packed = WorkerBlocks::build(scheme, units, data);
        let ctx = RoundContext {
            scheme,
            units,
            data,
            loss,
            packed: &packed,
            minibatch: self.minibatch,
        };
        ctx.validate(&self.profile);
        if rounds == 0 {
            return Ok(());
        }
        let first_round = self.round;
        let mut attempted = 0;
        let result = self.run_loopback(first_round, rounds, ctx, driver, &mut attempted);
        self.round = first_round + attempted;
        result
    }

    fn backend_name(&self) -> &'static str {
        "tcp-local"
    }
}
