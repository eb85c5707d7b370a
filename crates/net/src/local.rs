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

use crate::master::TcpCluster;
use crate::stats::NetStats;
use crate::worker::{connect_with_retry, handshake, serve_rounds, WorkerConfig};
use bcc_cluster::config::BackendConfig;
use bcc_cluster::latency::ClusterProfile;
use bcc_cluster::round_loop::{BackendCore, RoundLoop, RoundSession};
use bcc_cluster::ClusterError;
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// How long loopback workers keep retrying their connect — generous,
/// because the master's listener is already bound before any worker
/// thread starts.
const LOOPBACK_CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// TCP master/worker cluster with loopback worker threads.
#[derive(Debug)]
pub struct LocalNetCluster {
    core: BackendCore,
    time_scale: f64,
    /// Armed faults: worker → round at which it drops its connection.
    fail_at: HashMap<usize, u64>,
    /// Armed rejoins: workers in this set reconnect right after their
    /// `fail_at` death and serve rounds again.
    rejoin: HashSet<usize>,
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
        Self {
            core: BackendCore::new(profile, seed),
            time_scale,
            fail_at: HashMap::new(),
            rejoin: HashSet::new(),
            last_stats: None,
        }
    }

    /// Stores `config`; every run's master gets it unchanged, so this
    /// backend implements exactly the knobs [`TcpCluster::configured`]
    /// does. The loopback workers hold the problem in-process (a `job`
    /// string is shipped and ignored) and echo whatever auth token their
    /// master expects.
    #[must_use]
    pub fn configured(mut self, config: BackendConfig) -> Self {
        self.core.config.merge(config);
        self
    }

    /// Marks workers as dead up front: they are never spawned, mirroring
    /// the other backends' `kill_workers` fault hook.
    pub fn kill_workers(&mut self, workers: impl IntoIterator<Item = usize>) {
        self.core.dead_workers.extend(workers);
    }

    /// Revives all workers and disarms every fault.
    pub fn revive_all(&mut self) {
        self.core.dead_workers.clear();
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
        self.core.profile()
    }

    /// Transport counters of the most recent run (`None` before any run).
    #[must_use]
    pub fn last_net_stats(&self) -> Option<NetStats> {
        self.last_stats
    }
}

impl RoundSession for LocalNetCluster {
    const NAME: &'static str = "tcp-local";

    fn core(&mut self) -> &mut BackendCore {
        &mut self.core
    }

    /// Spins up a master + worker threads over loopback TCP and drives the
    /// rounds, mirroring the threaded backend's pool semantics.
    fn session(&mut self, rounds: &mut RoundLoop<'_>) -> Result<(), ClusterError> {
        let ctx = rounds.ctx;
        let participants = ctx.participants(&self.core.dead_workers);
        let core = &self.core;
        let mut master = TcpCluster::bind(
            "127.0.0.1:0",
            core.profile().clone(),
            core.seed(),
            self.time_scale,
        )?
        .configured(core.config.clone());
        // The master works on its own copy of the dead set: a worker that
        // dies during this run is spawned afresh by the next one.
        master.kill_workers(core.dead_workers.iter().copied());
        let addr = master.local_addr().to_string();
        let token = master.expected_token();

        let outcome: Result<Result<(), ClusterError>, _> = crossbeam::scope(|scope| {
            for &worker in &participants {
                let addr = addr.clone();
                let mut cfg = WorkerConfig::new(worker, self.time_scale);
                if let Some(&round) = self.fail_at.get(&worker) {
                    cfg = cfg.with_die_at_round(round);
                }
                // Crash/restart: a rejoining worker comes straight back on
                // a fresh socket (without the armed fault) and keeps
                // serving.
                let rejoin = self.rejoin.contains(&worker);
                let lives = [
                    Some(cfg),
                    rejoin.then(|| WorkerConfig::new(worker, self.time_scale)),
                ];
                scope.spawn(move |_| {
                    for cfg in lives.into_iter().flatten() {
                        // A worker that cannot reach its own master is a
                        // dead worker; the master's death detection owns
                        // the fallout, so failures here are simply dropped.
                        let Ok(mut stream) = connect_with_retry(&addr, LOOPBACK_CONNECT_TIMEOUT)
                        else {
                            return;
                        };
                        // Loopback workers already hold the problem
                        // in-process; the job string is ignored.
                        if handshake(&mut stream, worker, token).is_err() {
                            return;
                        }
                        let _ = serve_rounds(stream, &ctx, &cfg);
                    }
                });
            }
            let result = master.session(rounds);
            // Workers must see Shutdown before the scope can join them.
            master.shutdown();
            result
        });
        self.last_stats = Some(master.stats());
        outcome.map_err(|_| ClusterError::WorkerFailed { worker: usize::MAX })?
    }
}
