//! The TCP master: listener, worker registry, and the networked round
//! driver.
//!
//! [`TcpCluster`] binds a listener, admits workers through the
//! `Hello`/`Job` handshake (an acceptor thread validates the job auth
//! token and feeds a registration channel), and spawns **one reader
//! thread per worker** that turns incoming frames into `MasterEvent`s on
//! a single shared channel. The round loop is the same shape as every
//! other backend: sample each live worker's compute delay from the shared
//! `(seed, round, worker)` latency stream, broadcast `Round` frames, and
//! feed the shared [`RoundEngine`] from a private `NetArrivals` source
//! until the aggregation policy completes the round.
//!
//! **Fan-out** is pipelined by default: every connection also owns a
//! writer thread fed by a bounded queue of pooled, pre-encoded frames.
//! The shared Round body is encoded once per round and the per-worker
//! compute delay patched in, so broadcast is a handful of queue pushes —
//! a stalled peer fills its own queue (surfacing as
//! `NetStats::backpressure_events`) instead of head-of-line-blocking the
//! other workers, and round `t+1`'s fan-out overlaps round `t`'s tail
//! arrivals, which the broadcast-epoch tag keeps out of the decoder.
//! [`BackendConfig::pipelining`]`(false)` restores the serial
//! write-and-flush-per-peer path as a measurement reference; both paths
//! produce bit-identical training outcomes because everything the
//! decoder sees is ordered by the simulated delays, not by socket
//! scheduling.
//!
//! **Death detection** has two tiers: a disconnect (EOF/reset seen by the
//! reader thread) produces an immediate `Down` event, and a worker whose
//! socket stays silent past the heartbeat timeout is declared dead at the
//! next poll. Either way the worker leaves the round's live set, and once
//! every remaining live worker has reported the source exhausts — which
//! the policy layer turns into best-effort completion
//! ([`bcc_cluster::BestEffortAll`]) or a typed
//! [`ClusterError::Stalled`] ([`bcc_cluster::WaitDecodable`]). The master
//! never hangs on a dead worker. A worker that *reconnects* mid-round is
//! re-admitted immediately with the in-flight round's model and its
//! deterministic delay (emitting [`RoundEvent::Rejoined`]) instead of
//! idling until the next round boundary.

use crate::frame::{self, auth_token, FramePool, NetMessage};
use crate::stats::{CountingReader, NetStats, SharedStats};
use bcc_cluster::backend::{ClusterBackend, FixedPointDriver, RoundDriver, RoundOutcome};
use bcc_cluster::config::BackendConfig;
use bcc_cluster::decode::DecodePool;
use bcc_cluster::engine::{Arrival, ArrivalEvent, ArrivalSource, RoundContext, RoundEngine};
use bcc_cluster::latency::{ClusterProfile, CommModel};
use bcc_cluster::minibatch::Minibatch;
use bcc_cluster::observer::{NullObserver, RoundEvent, RoundObserver, SharedObserver};
use bcc_cluster::packed::WorkerBlocks;
use bcc_cluster::policy::AggregationPolicy;
use bcc_cluster::straggler::{self, StragglerModel};
use bcc_cluster::units::UnitMap;
use bcc_cluster::{wire, ClusterError, Envelope};
use bcc_coding::{GradientCodingScheme, Payload};
use bcc_data::Dataset;
use bcc_optim::Loss;
use bytes::BytesMut;
use crossbeam_channel::{
    bounded, unbounded, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::io::ErrorKind;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Accept-loop poll cadence and the arrival loop's channel poll slice.
const POLL_SLICE: Duration = Duration::from_millis(10);

/// How long the acceptor waits for a freshly connected socket to speak
/// its `Hello` before dropping it.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

/// Per-worker send-queue capacity (frames). Deep enough that a healthy
/// peer never fills it; shallow enough that a wedged peer surfaces as
/// backpressure within one round.
const QUEUE_CAP: usize = 64;

/// Drain-burst depth at which a writer thread sends a
/// [`NetMessage::Backpressure`] advisory to its peer.
const BACKPRESSURE_BURST: usize = 16;

/// Write timeout on writer-thread sockets: a peer that accepts no bytes
/// for this long is treated as dead rather than blocking the writer
/// forever.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a blocking enqueue waits on a full send queue before the
/// caller declares the worker dead.
const ENQUEUE_STALL_TIMEOUT: Duration = Duration::from_secs(5);

/// A registration produced by the acceptor thread: a socket that
/// completed its `Hello` (including the auth-token check).
struct Registration {
    worker: usize,
    stream: TcpStream,
}

/// What per-worker reader/writer threads feed the round loop.
enum MasterEvent {
    /// A decoded frame from `worker`.
    Frame { worker: usize, msg: NetMessage },
    /// `worker`'s connection (generation `gen`) dropped — EOF, reset,
    /// framing error, or a stalled write. The generation lets the round
    /// loop ignore a stale socket's death after the worker already
    /// reconnected on a fresh one.
    Down { worker: usize, gen: u64 },
}

/// One registered worker connection: the registry's stream clone (serial
/// writes + socket shutdown), the writer thread's frame queue, and the
/// connection generation.
struct Conn {
    stream: TcpStream,
    tx: SyncSender<BytesMut>,
    writer: JoinHandle<()>,
    gen: u64,
}

/// Networked master/worker backend over real TCP sockets.
///
/// Construction binds the listener immediately ([`TcpCluster::bind`]), so
/// `local_addr` is known before any worker starts; workers register
/// asynchronously and the first round blocks (up to the connect timeout)
/// until every live participant has completed its handshake.
pub struct TcpCluster {
    profile: ClusterProfile,
    model: Arc<dyn StragglerModel>,
    policy: Arc<dyn AggregationPolicy>,
    observer: Option<SharedObserver>,
    seed: u64,
    round: u64,
    time_scale: f64,
    /// Real time without *any* progress (message or death) before a round
    /// exhausts with "no message".
    recv_timeout: Duration,
    /// Real silence (no frame of any kind) before a worker is declared
    /// dead. Must comfortably exceed the workers' heartbeat cadence.
    heartbeat_timeout: Duration,
    /// How long the first round waits for missing participants to
    /// register.
    connect_timeout: Duration,
    dead_workers: HashSet<usize>,
    decode_pool: DecodePool,
    minibatch: Option<Minibatch>,
    /// Handshake payload for registering workers (a JSON experiment spec;
    /// empty for the loopback harness).
    job: String,
    local_addr: std::net::SocketAddr,
    conns: BTreeMap<usize, Conn>,
    ever_registered: HashSet<usize>,
    reg_rx: Receiver<Registration>,
    events_tx: Sender<MasterEvent>,
    events_rx: Receiver<MasterEvent>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    readers: Vec<JoinHandle<()>>,
    stats: SharedStats,
    pool: FramePool,
    /// Writer-thread fan-out + speculative next-round broadcast (the
    /// default); `false` restores the serial write-per-peer seed path.
    pipelined: bool,
    /// Monotonic connection-generation counter (see [`MasterEvent::Down`]).
    conn_gen: u64,
    /// Monotonic broadcast-epoch counter; bumped once per fan-out,
    /// including mid-round rejoin re-broadcasts.
    epoch_counter: u64,
    /// The auth token workers must echo in `Hello` (shared with the
    /// acceptor thread).
    expected_token: Arc<AtomicU64>,
    shut_down: bool,
}

impl TcpCluster {
    /// Binds a listener on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral
    /// loopback port) and starts accepting worker registrations. The
    /// expected auth token defaults to [`auth_token`]`(seed)`.
    ///
    /// # Errors
    /// [`ClusterError::Net`] when the bind fails.
    ///
    /// # Panics
    /// Panics on a non-positive `time_scale`.
    pub fn bind(
        addr: &str,
        profile: ClusterProfile,
        seed: u64,
        time_scale: f64,
    ) -> Result<Self, ClusterError> {
        assert!(
            time_scale > 0.0 && time_scale.is_finite(),
            "time_scale must be positive"
        );
        let listener = TcpListener::bind(addr)
            .map_err(|e| ClusterError::Net(format!("bind {addr} failed: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| ClusterError::Net(format!("local_addr failed: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ClusterError::Net(format!("set_nonblocking failed: {e}")))?;
        let (reg_tx, reg_rx) = unbounded::<Registration>();
        let (events_tx, events_rx) = unbounded::<MasterEvent>();
        let stop = Arc::new(AtomicBool::new(false));
        let stats = SharedStats::default();
        let expected_token = Arc::new(AtomicU64::new(auth_token(seed)));
        let acceptor = spawn_acceptor(
            listener,
            reg_tx,
            Arc::clone(&stop),
            profile.num_workers(),
            Arc::clone(&expected_token),
            stats.clone(),
        );
        let model = straggler::default_model(&profile);
        Ok(Self {
            profile,
            model,
            policy: bcc_cluster::policy::default_policy(),
            observer: None,
            seed,
            round: 0,
            time_scale,
            recv_timeout: Duration::from_secs(5),
            heartbeat_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(30),
            dead_workers: HashSet::new(),
            decode_pool: DecodePool::default(),
            minibatch: None,
            job: String::new(),
            local_addr,
            conns: BTreeMap::new(),
            ever_registered: HashSet::new(),
            reg_rx,
            events_tx,
            events_rx,
            stop,
            acceptor: Some(acceptor),
            readers: Vec::new(),
            stats,
            pool: FramePool::new(),
            pipelined: true,
            conn_gen: 0,
            epoch_counter: 0,
            expected_token,
            shut_down: false,
        })
    }

    /// The bound listener address (resolves `:0` to the actual port).
    #[must_use]
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Snapshot of the transport counters so far.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.stats.snapshot()
    }

    /// Applies every [`BackendConfig`] knob — the TCP master implements
    /// the full set (latency model, aggregation policy, observer, decode
    /// pool, minibatch, receive/heartbeat/connect timeouts, pipelining,
    /// job string, auth token).
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
        if let Some(timeout) = config.heartbeat_timeout {
            self.heartbeat_timeout = timeout;
        }
        if let Some(timeout) = config.connect_timeout {
            self.connect_timeout = timeout;
        }
        if let Some(pipelined) = config.pipelining {
            self.pipelined = pipelined;
        }
        if let Some(job) = config.job {
            self.job = job;
        }
        if let Some(token) = config.auth_token {
            self.expected_token.store(token, Ordering::Relaxed);
        }
        self
    }

    /// Marks workers as dead up front (failure injection): they are
    /// excluded from the participant set and never waited on.
    pub fn kill_workers(&mut self, workers: impl IntoIterator<Item = usize>) {
        self.dead_workers.extend(workers);
    }

    /// The profile in force.
    #[must_use]
    pub fn profile(&self) -> &ClusterProfile {
        &self.profile
    }

    /// Sends `Shutdown` to every registered worker and tears down the
    /// writer, acceptor, and reader threads. Called by `Drop`; call it
    /// explicitly when worker threads must exit before a scope join.
    pub fn shutdown(&mut self) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        self.stop.store(true, Ordering::Relaxed);
        for (_, conn) in std::mem::take(&mut self.conns) {
            let Conn {
                stream, tx, writer, ..
            } = conn;
            // Dropping the queue lets the writer drain what's in flight
            // and exit; Shutdown then goes out on the quiesced socket.
            drop(tx);
            let _ = writer.join();
            let _ = send_frame(&stream, &NetMessage::Shutdown, &self.stats);
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        for handle in self.readers.drain(..) {
            let _ = handle.join();
        }
    }

    fn next_epoch(&mut self) -> u64 {
        self.epoch_counter += 1;
        self.epoch_counter
    }

    /// Admits a registration: store the connection, ship the job, spawn
    /// the reader and writer threads. A re-registration of a previously
    /// seen worker counts as a reconnect and clears its death mark.
    fn register(&mut self, reg: Registration) {
        let Registration { worker, stream } = reg;
        if worker >= self.profile.num_workers() {
            return; // unknown id: drop the socket
        }
        if send_frame(&stream, &NetMessage::Job(self.job.clone()), &self.stats).is_err() {
            return; // died during the handshake; the worker can retry
        }
        if self.ever_registered.contains(&worker) {
            self.stats.record_reconnect();
            self.dead_workers.remove(&worker);
        }
        self.ever_registered.insert(worker);
        let reader_stream = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let writer_stream = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        if writer_stream
            .set_write_timeout(Some(WRITE_STALL_TIMEOUT))
            .is_err()
        {
            return;
        }
        self.conn_gen += 1;
        let gen = self.conn_gen;
        self.readers.push(spawn_reader(
            reader_stream,
            worker,
            gen,
            self.events_tx.clone(),
            self.stats.clone(),
        ));
        let (tx, rx) = bounded::<BytesMut>(QUEUE_CAP);
        let writer = spawn_writer(
            writer_stream,
            worker,
            gen,
            rx,
            self.pool.clone(),
            self.events_tx.clone(),
            self.stats.clone(),
        );
        // Replacing an existing entry drops the old socket and queue,
        // which also winds down the old writer; the old reader exits on
        // the EOF the worker's reconnect produced, and its late `Down`
        // carries a stale generation.
        self.conns.insert(
            worker,
            Conn {
                stream,
                tx,
                writer,
                gen,
            },
        );
    }

    /// Drains pending registrations without blocking — reconnects are
    /// admitted at round boundaries (and mid-round by `NetArrivals`).
    fn admit_reconnects(&mut self) {
        while let Ok(reg) = self.reg_rx.try_recv() {
            self.register(reg);
        }
    }

    /// Blocks until every worker in `participants` has registered, up to
    /// the connect timeout.
    fn ensure_registered(&mut self, participants: &[usize]) -> Result<(), ClusterError> {
        let deadline = Instant::now() + self.connect_timeout;
        loop {
            let missing: Vec<usize> = participants
                .iter()
                .copied()
                .filter(|w| !self.conns.contains_key(w))
                .collect();
            if missing.is_empty() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(ClusterError::Net(format!(
                    "workers {missing:?} did not register within {:?}",
                    self.connect_timeout
                )));
            }
            match self
                .reg_rx
                .recv_timeout(POLL_SLICE.max(Duration::from_millis(20)))
            {
                Ok(reg) => self.register(reg),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ClusterError::Net("acceptor thread died".into()));
                }
            }
        }
    }

    /// Queues an encoded frame on `worker`'s writer thread. On a full
    /// queue this records backpressure and, when `block` is set, retries
    /// until [`ENQUEUE_STALL_TIMEOUT`]; `false` means the worker is
    /// unreachable (no connection, closed queue, or stalled peer).
    fn enqueue_frame(&self, worker: usize, frame: BytesMut, block: bool) -> bool {
        let Some(conn) = self.conns.get(&worker) else {
            self.pool.put(frame);
            return false;
        };
        match conn.tx.try_send(frame) {
            Ok(()) => true,
            Err(TrySendError::Disconnected(buf)) => {
                self.pool.put(buf);
                false
            }
            Err(TrySendError::Full(buf)) => {
                self.stats.record_backpressure();
                if !block {
                    self.pool.put(buf);
                    return false;
                }
                let deadline = Instant::now() + ENQUEUE_STALL_TIMEOUT;
                let mut pending = buf;
                loop {
                    std::thread::sleep(Duration::from_millis(2));
                    match conn.tx.try_send(pending) {
                        Ok(()) => return true,
                        Err(TrySendError::Disconnected(buf)) => {
                            self.pool.put(buf);
                            return false;
                        }
                        Err(TrySendError::Full(buf)) => {
                            if Instant::now() >= deadline {
                                self.pool.put(buf);
                                return false;
                            }
                            pending = buf;
                        }
                    }
                }
            }
        }
    }

    /// Ships an already-encoded frame to `worker`: queued on its writer
    /// thread in pipelined mode, written synchronously (write + flush,
    /// the seed path) otherwise. The buffer returns to the pool either
    /// way.
    fn ship_frame(&self, worker: usize, buf: BytesMut, block: bool) -> bool {
        if self.pipelined {
            return self.enqueue_frame(worker, buf, block);
        }
        let ok = self.conns.get(&worker).is_some_and(|conn| {
            let mut sink = &conn.stream;
            frame::write_frame_bytes(&mut sink, buf.as_ref()).is_ok()
        });
        if ok {
            self.stats.record_send(buf.len());
            self.stats.record_flush();
        }
        self.pool.put(buf);
        ok
    }

    /// Drives `rounds` rounds over the registered workers — the networked
    /// analogue of the threaded backend's worker-pool loop. `attempted`
    /// counts rounds started so the caller can advance its round counter
    /// exactly as sequential `run_round` calls would.
    pub(crate) fn run_batch(
        &mut self,
        first_round: u64,
        rounds: usize,
        ctx: RoundContext<'_>,
        driver: &mut dyn RoundDriver,
        attempted: &mut u64,
    ) -> Result<(), ClusterError> {
        self.ensure_registered(&ctx.participants(&self.dead_workers))?;
        // Clone the shared handles up front so the engine and the arrival
        // source never borrow `self` mutably mid-round.
        let policy = Arc::clone(&self.policy);
        let model = Arc::clone(&self.model);
        let observer_handle = self.observer.clone();
        let decode_pool = self.decode_pool;
        let comm = self.profile.comm;
        for index in 0..rounds {
            let round = first_round + index as u64;
            *attempted = index as u64 + 1;
            self.admit_reconnects();
            let live = ctx.participants(&self.dead_workers);
            let weights = driver.eval_point(index);
            let selection = ctx.selection_for(round);
            // Sample every participant's delay, not just the live set: a
            // worker rejoining mid-round is re-admitted with the same
            // deterministic delay a boundary broadcast would have shipped.
            let all = ctx.participants(&HashSet::new());
            let mut delays = BTreeMap::new();
            for &worker in &all {
                // The master samples the worker's simulated compute delay
                // from the shared latency stream and ships it — the load
                // is selection-aware exactly like the in-process backends.
                let load = match &selection {
                    Some(sel) => sel.selected_load(ctx.scheme.placement().worker_examples(worker)),
                    None => ctx.scheme.placement().load_of(worker),
                };
                let delay = if load == 0 {
                    0.0
                } else {
                    model.compute_seconds(self.seed, round, worker, load)
                };
                delays.insert(worker, delay);
            }
            // Encode the shared Round body once; per worker the pooled
            // copy only gets its delay patched in.
            let epoch = self.next_epoch();
            let broadcast_started = Instant::now();
            let mut template = self.pool.take();
            frame::encode_round_into(&mut template, round, epoch, 0.0, &weights);
            let mut live_sent = Vec::with_capacity(live.len());
            let mut epoch_of = HashMap::new();
            for &worker in &live {
                let mut buf = self.pool.take();
                buf.clear();
                buf.extend_from_slice(template.as_ref());
                frame::patch_round_delay(buf.as_mut(), delays[&worker]);
                if self.ship_frame(worker, buf, true) {
                    live_sent.push(worker);
                    epoch_of.insert(worker, epoch);
                } else {
                    // Already-dead socket: record the death now so the
                    // round never waits on it.
                    self.dead_workers.insert(worker);
                    self.stats.record_death();
                }
            }
            self.pool.put(template);
            self.stats
                .record_broadcast_wall(broadcast_started.elapsed());
            let now = Instant::now();
            let mut source = NetArrivals {
                round,
                comm,
                time_scale: self.time_scale,
                recv_timeout: self.recv_timeout,
                heartbeat_timeout: self.heartbeat_timeout,
                start: now,
                weights: &weights,
                delays,
                participants: all.iter().copied().collect(),
                epoch_of,
                live: live_sent.iter().copied().collect(),
                reported: HashSet::new(),
                pending: BTreeMap::new(),
                last_seen: live_sent.iter().map(|&w| (w, now)).collect(),
                deaths: Vec::new(),
                last_progress: now,
                master: self,
            };
            let mut engine = RoundEngine::with_policy(ctx.scheme, live_sent.len(), &*policy)
                .with_decode_pool(decode_pool);
            let result = {
                let mut null = NullObserver;
                let mut guard = observer_handle
                    .as_ref()
                    .map(|o| o.lock().expect("round observer lock poisoned"));
                let observer: &mut dyn RoundObserver = match guard.as_deref_mut() {
                    Some(o) => o,
                    None => &mut null,
                };
                engine.run_observed(&mut source, round, observer)
            };
            let start = source.start;
            let deaths = std::mem::take(&mut source.deaths);
            drop(source);
            // Wake sleeping stragglers of this round promptly, dead or
            // not (sends to dead sockets are ignored). In pipelined mode
            // this is a queue push and round t+1's fan-out follows while
            // t's tail arrivals are still draining.
            for &worker in self.conns.keys() {
                let mut buf = self.pool.take();
                frame::encode_into(
                    &NetMessage::Finished {
                        before_round: round + 1,
                    },
                    &mut buf,
                );
                let _ = self.ship_frame(worker, buf, false);
            }
            self.dead_workers.extend(deaths);
            result?;
            let total_time = start.elapsed().as_secs_f64() / self.time_scale;
            let arrivals = engine.arrival_stamps();
            let (aggregate, metrics) = engine.finish(total_time)?;
            let examples_used = ctx.selection_for(round).map(|sel| ctx.examples_in(&sel));
            driver.consume(
                index,
                RoundOutcome::new(aggregate, metrics)
                    .with_examples_used(examples_used)
                    .with_arrivals(arrivals),
            );
        }
        Ok(())
    }
}

impl Drop for TcpCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for TcpCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpCluster")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.profile.num_workers())
            .field("registered", &self.conns.len())
            .field("seed", &self.seed)
            .field("round", &self.round)
            .field("time_scale", &self.time_scale)
            .field("pipelined", &self.pipelined)
            .finish_non_exhaustive()
    }
}

/// Writes one frame to a registered connection, crediting the counters.
/// Takes `&TcpStream` (std implements `Write` for it) so the registry
/// needs no locking. The cold path — handshakes and shutdown; round
/// traffic goes through the pooled buffers.
fn send_frame(
    stream: &TcpStream,
    msg: &NetMessage,
    stats: &SharedStats,
) -> Result<(), ClusterError> {
    let mut w = stream;
    let n = frame::write_message(&mut w, msg)?;
    stats.record_send(n);
    Ok(())
}

/// Acceptor thread: polls the nonblocking listener, completes the `Hello`
/// half of the handshake, and forwards registrations. A wrong auth token
/// or an out-of-range worker id is answered with a `Reject` frame (typed
/// on the worker side as [`ClusterError::AuthRejected`]) — never a silent
/// drop; sockets that stay silent past [`HELLO_TIMEOUT`] or speak
/// garbage are dropped.
fn spawn_acceptor(
    listener: TcpListener,
    reg_tx: Sender<Registration>,
    stop: Arc<AtomicBool>,
    num_workers: usize,
    expected_token: Arc<AtomicU64>,
    stats: SharedStats,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    // Accepted sockets may inherit the listener's
                    // nonblocking flag on some platforms; force blocking.
                    if stream.set_nonblocking(false).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_read_timeout(Some(HELLO_TIMEOUT)).is_err() {
                        continue;
                    }
                    let (worker, token) = match frame::read_message(&mut stream) {
                        Ok(Some(NetMessage::Hello { worker, token })) => (worker as usize, token),
                        _ => continue, // silent, malformed, or closed
                    };
                    if token != expected_token.load(Ordering::Relaxed) {
                        stats.record_auth_reject();
                        let _ = frame::write_message(
                            &mut (&stream),
                            &NetMessage::Reject("auth token mismatch".into()),
                        );
                        continue;
                    }
                    if worker >= num_workers {
                        let _ = frame::write_message(
                            &mut (&stream),
                            &NetMessage::Reject(format!(
                                "worker id {worker} out of range (cluster has {num_workers})"
                            )),
                        );
                        continue;
                    }
                    if stream.set_read_timeout(None).is_err() {
                        continue;
                    }
                    if reg_tx.send(Registration { worker, stream }).is_err() {
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_SLICE);
                }
                Err(_) => std::thread::sleep(POLL_SLICE),
            }
        }
    })
}

/// Per-worker reader thread: decodes frames into [`MasterEvent`]s until
/// the socket closes, then reports the worker down. All received bytes
/// are credited through [`CountingReader`].
fn spawn_reader(
    stream: TcpStream,
    worker: usize,
    gen: u64,
    events_tx: Sender<MasterEvent>,
    stats: SharedStats,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut reader = CountingReader::new(stream, stats.clone());
        loop {
            match frame::read_message(&mut reader) {
                Ok(Some(msg)) => {
                    stats.record_frame_received();
                    if events_tx.send(MasterEvent::Frame { worker, msg }).is_err() {
                        return;
                    }
                }
                Ok(None) | Err(_) => {
                    let _ = events_tx.send(MasterEvent::Down { worker, gen });
                    return;
                }
            }
        }
    })
}

/// Per-worker writer thread: drains its bounded queue in bursts, writes
/// every frame, and flushes once per burst (the coalescing win the
/// `flushes` counter makes visible). Deep bursts additionally send the
/// peer a [`NetMessage::Backpressure`] advisory. A write error or stall
/// reports the connection down and keeps draining buffers back to the
/// pool so enqueuers never wedge.
fn spawn_writer(
    stream: TcpStream,
    worker: usize,
    gen: u64,
    rx: Receiver<BytesMut>,
    pool: FramePool,
    events_tx: Sender<MasterEvent>,
    stats: SharedStats,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut sink = &stream;
        let mut burst: Vec<BytesMut> = Vec::new();
        loop {
            match rx.recv() {
                Ok(first) => burst.push(first),
                Err(_) => return, // registry dropped the queue: clean exit
            }
            while let Ok(frame) = rx.try_recv() {
                burst.push(frame);
            }
            let depth = burst.len();
            stats.observe_queue_depth(depth);
            let mut failed = false;
            for buf in burst.drain(..) {
                if !failed {
                    match frame::write_frame_bytes_no_flush(&mut sink, buf.as_ref()) {
                        Ok(()) => stats.record_send(buf.len()),
                        Err(_) => failed = true,
                    }
                }
                pool.put(buf);
            }
            if !failed && depth >= BACKPRESSURE_BURST {
                let advisory = frame::encode(&NetMessage::Backpressure {
                    queued: depth as u64,
                });
                match frame::write_frame_bytes_no_flush(&mut sink, &advisory) {
                    Ok(()) => stats.record_send(advisory.len()),
                    Err(_) => failed = true,
                }
            }
            if !failed {
                match frame::flush_stream(&mut sink) {
                    Ok(()) => stats.record_flush(),
                    Err(_) => failed = true,
                }
            }
            if failed {
                let _ = events_tx.send(MasterEvent::Down { worker, gen });
                // Keep draining so enqueuers never block on a dead queue;
                // the channel closes when the registry drops this conn.
                while let Ok(buf) = rx.recv() {
                    pool.put(buf);
                }
                return;
            }
        }
    })
}

/// Arrival adapter for one round: consumes [`MasterEvent`]s, filters
/// stale rounds and superseded broadcast epochs (crediting them to
/// [`NetStats::stale_frames`] via [`RoundEvent::StaleFrame`]), admits
/// mid-round rejoins, models the master's serialized receive port, tracks
/// per-round reports, and maps disconnects and heartbeat silence onto the
/// live set. Exhausts when every remaining live worker has reported or
/// when no progress happens within the receive timeout.
struct NetArrivals<'a> {
    round: u64,
    comm: CommModel,
    time_scale: f64,
    recv_timeout: Duration,
    heartbeat_timeout: Duration,
    start: Instant,
    /// The broadcast weights, kept for mid-round rejoin re-broadcasts.
    weights: &'a [f64],
    /// Deterministic per-worker compute delays for *every* participant.
    delays: BTreeMap<usize, f64>,
    /// All of the round's scheduled participants (dead or alive).
    participants: BTreeSet<usize>,
    /// The broadcast epoch each worker's Data must echo to count.
    epoch_of: HashMap<usize, u64>,
    /// Workers still able to report this round.
    live: BTreeSet<usize>,
    /// Workers that reported (data or skip) this round.
    reported: HashSet<usize>,
    /// Data received but not yet released to the decoder, keyed by
    /// simulated arrival order `(delay bits, worker)`. The decoder
    /// consumes arrivals in *simulated-time* order: a frame is held until
    /// every live, unreported worker with a smaller delay has reported or
    /// died, so OS scheduling inversions on a loaded host (single-core CI
    /// included) cannot change which messages complete the round.
    pending: BTreeMap<(u64, usize), (usize, Payload, f64)>,
    /// Last frame of any kind per live worker (heartbeats count).
    last_seen: HashMap<usize, Instant>,
    /// Workers declared dead during this round.
    deaths: Vec<usize>,
    /// Last delivery or death — the no-progress clock.
    last_progress: Instant,
    master: &'a mut TcpCluster,
}

impl NetArrivals<'_> {
    fn mark_dead(&mut self, worker: usize) {
        if self.live.remove(&worker) {
            self.deaths.push(worker);
            self.master.stats.record_death();
            self.last_progress = Instant::now();
        }
    }

    /// Registers a mid-round reconnect and — when the worker is one of
    /// this round's participants that has not reported — re-admits it
    /// with the in-flight round's model under a fresh broadcast epoch.
    fn try_admit(&mut self, reg: Registration) -> Option<RoundEvent> {
        let worker = reg.worker;
        self.master.register(reg);
        if !self.master.conns.contains_key(&worker)
            || !self.participants.contains(&worker)
            || self.reported.contains(&worker)
            || self.live.contains(&worker)
        {
            return None;
        }
        let delay = *self.delays.get(&worker)?;
        let epoch = self.master.next_epoch();
        let mut buf = self.master.pool.take();
        frame::encode_round_into(&mut buf, self.round, epoch, delay, self.weights);
        if !self.master.ship_frame(worker, buf, true) {
            return None;
        }
        let now = Instant::now();
        self.epoch_of.insert(worker, epoch);
        self.live.insert(worker);
        // If it died earlier this round, the rejoin supersedes the death.
        self.deaths.retain(|w| *w != worker);
        self.last_seen.insert(worker, now);
        self.last_progress = now;
        self.master.stats.record_rejoin();
        Some(RoundEvent::Rejoined {
            round: self.round,
            worker,
        })
    }

    fn exhausted_reason(&self) -> String {
        if self.deaths.is_empty() {
            "all live workers reported without completing the scheme".into()
        } else {
            format!(
                "all live workers reported without completing the scheme ({} died mid-round)",
                self.deaths.len()
            )
        }
    }

    /// The simulated arrival order of `worker`: shipped delay first,
    /// worker id as the tie-break — the order the virtual backend
    /// delivers in. Delays are non-negative and finite, so the bit
    /// pattern orders exactly like the float.
    fn arrival_key(&self, worker: usize) -> (u64, usize) {
        (
            self.delays.get(&worker).copied().unwrap_or(0.0).to_bits(),
            worker,
        )
    }

    /// Releases the earliest pending arrival once nothing earlier can
    /// still show up (`force` skips that gate — the stall path flushes
    /// whatever is in hand before exhausting).
    fn release_pending(&mut self, force: bool) -> Option<Arrival> {
        let (&key, _) = self.pending.iter().next()?;
        let gate_open = force
            || self
                .live
                .iter()
                .all(|&u| self.reported.contains(&u) || self.arrival_key(u) > key);
        if !gate_open {
            return None;
        }
        let (worker, payload, compute_seconds) = self.pending.remove(&key)?;
        // Serialized receive port, same as the other backends: the
        // transfer occupies the master.
        let transfer = self.comm.transfer_time(payload.units());
        std::thread::sleep(Duration::from_secs_f64(transfer * self.time_scale));
        Some(Arrival {
            worker,
            payload,
            compute_seconds,
            at: self.start.elapsed().as_secs_f64() / self.time_scale,
        })
    }
}

impl ArrivalSource for NetArrivals<'_> {
    fn next_arrival(&mut self) -> Result<ArrivalEvent, ClusterError> {
        loop {
            // Mid-round rejoin: a reconnecting worker is re-admitted into
            // the in-flight round instead of idling to the next boundary.
            if let Ok(reg) = self.master.reg_rx.try_recv() {
                if let Some(event) = self.try_admit(reg) {
                    return Ok(ArrivalEvent::Note(event));
                }
                continue;
            }
            // Deliver in simulated-time order: the earliest held frame
            // goes to the decoder as soon as nothing earlier can still
            // arrive. Socket scheduling never decides decoder input.
            if let Some(arrival) = self.release_pending(false) {
                return Ok(ArrivalEvent::Delivered(arrival));
            }
            if self.pending.is_empty() && self.live.iter().all(|w| self.reported.contains(w)) {
                return Ok(ArrivalEvent::Exhausted {
                    reason: self.exhausted_reason(),
                });
            }
            match self.master.events_rx.recv_timeout(POLL_SLICE) {
                Ok(MasterEvent::Frame { worker, msg }) => {
                    self.last_seen.insert(worker, Instant::now());
                    match msg {
                        NetMessage::Data { epoch, payload } => {
                            let envelope: Envelope = wire::decode(payload)?;
                            let expected = self.epoch_of.get(&envelope.worker).copied();
                            if envelope.iteration != self.round || expected != Some(epoch) {
                                // A settled round's tail or a superseded
                                // broadcast: credit the transport stats,
                                // never the decoder.
                                self.master.stats.record_stale_frame();
                                return Ok(ArrivalEvent::Note(RoundEvent::StaleFrame {
                                    round: self.round,
                                    worker: envelope.worker,
                                    frame_round: envelope.iteration,
                                }));
                            }
                            if !self.live.contains(&envelope.worker)
                                || !self.reported.insert(envelope.worker)
                            {
                                continue; // dead sender or duplicate
                            }
                            self.last_progress = Instant::now();
                            // Stash; the top of the loop releases it in
                            // simulated-time order.
                            self.pending.insert(
                                self.arrival_key(envelope.worker),
                                (envelope.worker, envelope.payload, envelope.compute_seconds),
                            );
                        }
                        NetMessage::Skipped { round }
                            if round == self.round && self.live.contains(&worker) =>
                        {
                            self.reported.insert(worker);
                            self.last_progress = Instant::now();
                        }
                        // Heartbeats only refresh `last_seen`; everything
                        // else on a worker socket is a protocol mixup we
                        // tolerate.
                        _ => {}
                    }
                }
                Ok(MasterEvent::Down { worker, gen }) => {
                    // Disconnect: the fast path of death detection. A
                    // stale generation is a replaced socket's obituary
                    // arriving after the worker already reconnected.
                    if self
                        .master
                        .conns
                        .get(&worker)
                        .is_some_and(|conn| conn.gen == gen)
                    {
                        self.mark_dead(worker);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Slow path: declare silence past the heartbeat
                    // timeout a death (covers frozen-but-connected peers).
                    let now = Instant::now();
                    let stale: Vec<usize> =
                        self.live
                            .iter()
                            .copied()
                            .filter(|w| {
                                !self.reported.contains(w)
                                    && self.last_seen.get(w).is_none_or(|t| {
                                        now.duration_since(*t) > self.heartbeat_timeout
                                    })
                            })
                            .collect();
                    for worker in stale {
                        self.mark_dead(worker);
                    }
                    if self.last_progress.elapsed() > self.recv_timeout {
                        // Flush held frames (in order) before giving up:
                        // a stalled gate must not swallow data in hand.
                        if let Some(arrival) = self.release_pending(true) {
                            return Ok(ArrivalEvent::Delivered(arrival));
                        }
                        return Ok(ArrivalEvent::Exhausted {
                            reason: format!(
                                "no message within {:?} (dead workers?)",
                                self.recv_timeout
                            ),
                        });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Ok(ArrivalEvent::Exhausted {
                        reason: "master event channel closed".into(),
                    });
                }
            }
        }
    }
}

impl ClusterBackend for TcpCluster {
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
        self.run_batch(round, 1, ctx, &mut single, &mut 0)?;
        Ok(single.outcomes.pop().expect("run_batch consumed one round"))
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
        let result = self.run_batch(first_round, rounds, ctx, driver, &mut attempted);
        self.round = first_round + attempted;
        result
    }

    fn backend_name(&self) -> &'static str {
        "tcp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_resolves_ephemeral_port_and_shuts_down() {
        let profile = ClusterProfile::homogeneous(
            2,
            4.0,
            0.001,
            CommModel {
                per_message_overhead: 0.001,
                per_unit: 0.001,
            },
        );
        let mut master = TcpCluster::bind("127.0.0.1:0", profile, 1, 1.0).unwrap();
        assert_ne!(master.local_addr().port(), 0);
        master.shutdown();
        master.shutdown(); // idempotent
    }

    #[test]
    fn missing_workers_fail_registration_within_timeout() {
        let profile = ClusterProfile::homogeneous(
            2,
            4.0,
            0.001,
            CommModel {
                per_message_overhead: 0.001,
                per_unit: 0.001,
            },
        );
        let mut master = TcpCluster::bind("127.0.0.1:0", profile, 1, 1.0)
            .unwrap()
            .configured(BackendConfig::new().connect_timeout(Duration::from_millis(100)));
        let err = master.ensure_registered(&[0, 1]).unwrap_err();
        assert!(
            matches!(err, ClusterError::Net(ref msg) if msg.contains("did not register")),
            "got {err:?}"
        );
    }
}
