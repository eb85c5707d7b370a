//! The TCP master: listener, worker registry, and the networked round
//! driver.
//!
//! [`TcpCluster`] binds a listener, admits workers through the
//! `Hello`/`Job` handshake (an acceptor thread validates the job auth
//! token and feeds a registration channel), and spawns **one reader
//! thread per worker** that turns incoming frames into `MasterEvent`s on
//! a single shared channel. The round loop is every other backend's
//! ([`bcc_cluster::round_loop`]); this file's part is the private
//! `NetArrivals` transport: sample each participant's compute delay from
//! the shared `(seed, round, worker)` latency stream, broadcast `Round`
//! frames, and feed the shared `RoundEngine` until the aggregation policy
//! completes the round.
//!
//! **Fan-out** is pipelined by default: every connection also owns a
//! writer thread fed by a bounded queue of pre-encoded frames. A round's
//! weights are encoded once into one shared body; each worker's queue
//! gets its own 37-byte Round head (round, epoch, its compute delay,
//! weight count) plus a handle to that body, and its writer sends the
//! head and then the body. Broadcast is a handful of queue pushes that
//! copy no weights — a stalled peer fills its own queue (surfacing as
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
use bcc_cluster::config::BackendConfig;
use bcc_cluster::engine::{Arrival, ArrivalEvent, ArrivalSource, RoundContext};
use bcc_cluster::latency::ClusterProfile;
use bcc_cluster::minibatch::UnitSelection;
use bcc_cluster::observer::RoundEvent;
use bcc_cluster::round_loop::{BackendCore, RoundLoop, RoundSession, RoundTransport};
use bcc_cluster::straggler::StragglerModel;
use bcc_cluster::{wire, ClusterError, Envelope};
use bcc_coding::Payload;
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

/// One frame on a writer queue, sent as its head and then its body.
enum Outgoing {
    /// A fully encoded control frame in a pooled buffer.
    Frame(BytesMut),
    /// A Round frame: this worker's head, then the round's weight body,
    /// which every worker's Round frame of one broadcast shares.
    Round {
        head: [u8; frame::ROUND_HEAD_LEN],
        body: Arc<BytesMut>,
    },
}

impl Outgoing {
    /// Writes the frame, head then body, without flushing; returns its
    /// length.
    fn write_to(&self, sink: &mut impl std::io::Write) -> Result<usize, ClusterError> {
        let (head, body): (&[u8], &[u8]) = match self {
            Self::Frame(buf) => (buf.as_ref(), &[]),
            Self::Round { head, body } => (head, body.as_ref().as_ref()),
        };
        frame::write_frame_parts(sink, head, body)?;
        Ok(head.len() + body.len())
    }

    /// Returns a pooled buffer to `pool`; a Round frame only drops its
    /// handle on the shared body.
    fn recycle(self, pool: &FramePool) {
        if let Self::Frame(buf) = self {
            pool.put(buf);
        }
    }
}

/// One registered worker connection: the registry's stream clone (serial
/// writes + socket shutdown), the writer thread's frame queue, and the
/// connection generation.
struct Conn {
    stream: TcpStream,
    tx: SyncSender<Outgoing>,
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
    core: BackendCore,
    time_scale: f64,
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
        Ok(Self {
            core: BackendCore::new(profile, seed),
            time_scale,
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

    /// Stores `config` — the TCP master reads the full set (latency model,
    /// aggregation policy, observer, minibatch, receive/heartbeat/connect
    /// timeouts, pipelining, job string, auth token). The token is also
    /// published to the acceptor thread, which has been checking `Hello`s
    /// since [`TcpCluster::bind`].
    #[must_use]
    pub fn configured(mut self, config: BackendConfig) -> Self {
        self.core.config.merge(config);
        if let Some(token) = self.core.config.auth_token {
            self.expected_token.store(token, Ordering::Relaxed);
        }
        self
    }

    /// Marks workers as dead up front (failure injection): they are
    /// excluded from the participant set and never waited on.
    pub fn kill_workers(&mut self, workers: impl IntoIterator<Item = usize>) {
        self.core.dead_workers.extend(workers);
    }

    /// The profile in force.
    #[must_use]
    pub fn profile(&self) -> &ClusterProfile {
        self.core.profile()
    }

    /// The token a `Hello` must carry right now.
    pub(crate) fn expected_token(&self) -> u64 {
        self.expected_token.load(Ordering::Relaxed)
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
        if worker >= self.core.profile().num_workers() {
            return; // unknown id: drop the socket
        }
        // The handshake payload: a JSON experiment spec for self-building
        // workers; empty for the loopback harness.
        let job = self.core.config.job.clone().unwrap_or_default();
        if send_frame(&stream, &NetMessage::Job(job), &self.stats).is_err() {
            return; // died during the handshake; the worker can retry
        }
        if self.ever_registered.contains(&worker) {
            self.stats.record_reconnect();
            self.core.dead_workers.remove(&worker);
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
        let (tx, rx) = bounded::<Outgoing>(QUEUE_CAP);
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
        let connect_timeout = self.core.connect_timeout();
        let deadline = Instant::now() + connect_timeout;
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
                    "workers {missing:?} did not register within {connect_timeout:?}"
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

    /// Queues a frame on `worker`'s writer thread. On a full queue this
    /// records backpressure and, when `block` is set, retries until
    /// [`ENQUEUE_STALL_TIMEOUT`]; `false` means the worker is unreachable
    /// (no connection, closed queue, or stalled peer).
    fn enqueue_frame(&self, worker: usize, frame: Outgoing, block: bool) -> bool {
        let Some(conn) = self.conns.get(&worker) else {
            frame.recycle(&self.pool);
            return false;
        };
        match conn.tx.try_send(frame) {
            Ok(()) => true,
            Err(TrySendError::Disconnected(frame)) => {
                frame.recycle(&self.pool);
                false
            }
            Err(TrySendError::Full(frame)) => {
                self.stats.record_backpressure();
                if !block {
                    frame.recycle(&self.pool);
                    return false;
                }
                let deadline = Instant::now() + ENQUEUE_STALL_TIMEOUT;
                let mut pending = frame;
                loop {
                    std::thread::sleep(Duration::from_millis(2));
                    match conn.tx.try_send(pending) {
                        Ok(()) => return true,
                        Err(TrySendError::Disconnected(frame)) => {
                            frame.recycle(&self.pool);
                            return false;
                        }
                        Err(TrySendError::Full(frame)) => {
                            if Instant::now() >= deadline {
                                frame.recycle(&self.pool);
                                return false;
                            }
                            pending = frame;
                        }
                    }
                }
            }
        }
    }

    /// Ships a frame to `worker`: queued on its writer thread in pipelined
    /// mode, written synchronously (head, body, flush — the seed path)
    /// otherwise. A pooled buffer returns to the pool either way.
    fn ship_frame(&self, worker: usize, frame: Outgoing, block: bool) -> bool {
        if self.core.pipelined() {
            return self.enqueue_frame(worker, frame, block);
        }
        let sent = self.conns.get(&worker).and_then(|conn| {
            let mut sink = &conn.stream;
            let len = frame.write_to(&mut sink).ok()?;
            frame::flush_stream(&mut sink).ok().map(|()| len)
        });
        if let Some(len) = sent {
            self.stats.record_send(len);
            self.stats.record_flush();
        }
        frame.recycle(&self.pool);
        sent.is_some()
    }

    /// Ships `worker` its Round frame: its own head (its `delay_seconds`
    /// under `epoch`) and a handle to the round's shared weight `body`.
    fn ship_round(
        &self,
        worker: usize,
        round: u64,
        epoch: u64,
        delay_seconds: f64,
        body: &Arc<BytesMut>,
    ) -> bool {
        let head = frame::round_head(round, epoch, delay_seconds, body.len() / 8);
        let body = Arc::clone(body);
        self.ship_frame(worker, Outgoing::Round { head, body }, true)
    }

    /// Fans round `round` out to `live` under one fresh broadcast epoch.
    /// The weights are encoded once, into one shared body, and every
    /// worker gets its own head plus a handle to it ([`Self::ship_round`]).
    /// A worker whose socket is already gone is marked dead now, so the
    /// round never waits on it. Returns the epoch, the body (kept for
    /// mid-round rejoins) and the workers reached.
    fn broadcast_round(
        &mut self,
        round: u64,
        weights: &[f64],
        live: Vec<usize>,
        delays: &BTreeMap<usize, f64>,
    ) -> (u64, Arc<BytesMut>, Vec<usize>) {
        let epoch = self.next_epoch();
        let started = Instant::now();
        let body = Arc::new(frame::encode_round_body(weights));
        let mut reached = Vec::with_capacity(live.len());
        for worker in live {
            if self.ship_round(worker, round, epoch, delays[&worker], &body) {
                reached.push(worker);
            } else {
                self.core.dead_workers.insert(worker);
                self.stats.record_death();
            }
        }
        self.stats.record_broadcast_wall(started.elapsed());
        (epoch, body, reached)
    }
}

impl RoundSession for TcpCluster {
    const NAME: &'static str = "tcp";

    fn core(&mut self) -> &mut BackendCore {
        &mut self.core
    }

    /// Waits for the run's participants to register, then drives the rounds
    /// over the registered workers — the networked analogue of the threaded
    /// backend's worker-pool session.
    fn session(&mut self, rounds: &mut RoundLoop<'_>) -> Result<(), ClusterError> {
        let ctx = rounds.ctx;
        self.ensure_registered(&ctx.participants(&self.core.dead_workers))?;
        let now = Instant::now();
        let mut transport = NetArrivals {
            ctx,
            model: self.core.model(),
            participants: ctx.participants(&HashSet::new()).into_iter().collect(),
            master: self,
            round: 0,
            start: now,
            body: Arc::default(),
            delays: BTreeMap::new(),
            epoch_of: HashMap::new(),
            live: BTreeSet::new(),
            reported: HashSet::new(),
            pending: BTreeMap::new(),
            last_seen: HashMap::new(),
            deaths: Vec::new(),
            last_progress: now,
        };
        rounds.run(&mut transport)
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
            .field("workers", &self.core.profile().num_workers())
            .field("registered", &self.conns.len())
            .field("seed", &self.core.seed())
            .field("round", &self.core.round())
            .field("time_scale", &self.time_scale)
            .field("pipelined", &self.core.pipelined())
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
    rx: Receiver<Outgoing>,
    pool: FramePool,
    events_tx: Sender<MasterEvent>,
    stats: SharedStats,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut sink = &stream;
        let mut burst: Vec<Outgoing> = Vec::new();
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
            for frame in burst.drain(..) {
                if !failed {
                    match frame.write_to(&mut sink) {
                        Ok(len) => stats.record_send(len),
                        Err(_) => failed = true,
                    }
                }
                frame.recycle(&pool);
            }
            if !failed && depth >= BACKPRESSURE_BURST {
                let advisory = frame::encode(&NetMessage::Backpressure {
                    queued: depth as u64,
                });
                match frame::write_frame_parts(&mut sink, &advisory, &[]) {
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
                while let Ok(frame) = rx.recv() {
                    frame.recycle(&pool);
                }
                return;
            }
        }
    })
}

/// Arrival adapter: fans each round out, then consumes [`MasterEvent`]s,
/// filters stale rounds and superseded broadcast epochs (crediting them to
/// [`NetStats::stale_frames`] via [`RoundEvent::StaleFrame`]), admits
/// mid-round rejoins, models the master's serialized receive port, tracks
/// per-round reports, and maps disconnects and heartbeat silence onto the
/// live set. Exhausts when every remaining live worker has reported or
/// when no progress happens within the receive timeout.
struct NetArrivals<'a> {
    master: &'a mut TcpCluster,
    ctx: RoundContext<'a>,
    model: Arc<dyn StragglerModel>,
    /// All of the scheme's scheduled participants (dead or alive).
    participants: BTreeSet<usize>,
    round: u64,
    start: Instant,
    /// The round's encoded weights, kept for mid-round rejoin
    /// re-broadcasts.
    body: Arc<BytesMut>,
    /// Deterministic per-worker compute delays for *every* participant.
    delays: BTreeMap<usize, f64>,
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
}

impl RoundTransport for NetArrivals<'_> {
    fn begin_round(
        &mut self,
        round: u64,
        weights: Vec<f64>,
        selection: Option<UnitSelection>,
    ) -> usize {
        let master = &mut *self.master;
        master.admit_reconnects();
        let live = self.ctx.participants(&master.core.dead_workers);
        // The master samples every participant's simulated compute delay
        // from the shared latency stream and ships it — not just the live
        // set's: a worker rejoining mid-round is re-admitted with the same
        // deterministic delay a boundary broadcast would have shipped.
        let ctx = self.ctx;
        let model = &*self.model;
        let seed = master.core.seed();
        let batch = selection.as_ref();
        let delay = |&w: &usize| (w, ctx.compute_delay(model, seed, round, w, batch));
        self.delays = self.participants.iter().map(delay).collect();
        let (epoch, body, reached) = master.broadcast_round(round, &weights, live, &self.delays);
        self.epoch_of = reached.iter().map(|&w| (w, epoch)).collect();
        self.live = reached.into_iter().collect();
        let now = Instant::now();
        self.round = round;
        self.body = body;
        self.start = now;
        self.last_progress = now;
        self.reported.clear();
        self.pending.clear();
        self.last_seen = self.live.iter().map(|&w| (w, now)).collect();
        self.live.len()
    }

    fn end_round(&mut self, round: u64) {
        // Wake sleeping stragglers of this round promptly, dead or not
        // (sends to dead sockets are ignored). In pipelined mode this is a
        // queue push and round t+1's fan-out follows while t's tail
        // arrivals are still draining.
        for &worker in self.master.conns.keys() {
            let mut buf = self.master.pool.take();
            frame::encode_into(
                &NetMessage::Finished {
                    before_round: round + 1,
                },
                &mut buf,
            );
            let _ = self.master.ship_frame(worker, Outgoing::Frame(buf), false);
        }
        self.master.core.dead_workers.extend(self.deaths.drain(..));
    }

    fn elapsed(&self) -> Option<f64> {
        Some(self.start.elapsed().as_secs_f64() / self.master.time_scale)
    }
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
        if !self
            .master
            .ship_round(worker, self.round, epoch, delay, &self.body)
        {
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
        let comm = self.master.core.profile().comm;
        let transfer = comm.transfer_time(payload.units());
        let time_scale = self.master.time_scale;
        std::thread::sleep(Duration::from_secs_f64(transfer * time_scale));
        Some(Arrival {
            worker,
            payload,
            compute_seconds,
            at: self.start.elapsed().as_secs_f64() / time_scale,
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
                    let heartbeat_timeout = self.master.core.heartbeat_timeout();
                    let stale: Vec<usize> = self
                        .live
                        .iter()
                        .copied()
                        .filter(|w| {
                            !self.reported.contains(w)
                                && self
                                    .last_seen
                                    .get(w)
                                    .is_none_or(|t| now.duration_since(*t) > heartbeat_timeout)
                        })
                        .collect();
                    for worker in stale {
                        self.mark_dead(worker);
                    }
                    let recv_timeout = self.master.core.recv_timeout();
                    if self.last_progress.elapsed() > recv_timeout {
                        // Flush held frames (in order) before giving up:
                        // a stalled gate must not swallow data in hand.
                        if let Some(arrival) = self.release_pending(true) {
                            return Ok(ArrivalEvent::Delivered(arrival));
                        }
                        return Ok(ArrivalEvent::Exhausted {
                            reason: format!("no message within {recv_timeout:?} (dead workers?)"),
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

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_cluster::latency::CommModel;
    use std::net::TcpListener;

    fn profile(workers: usize) -> ClusterProfile {
        ClusterProfile::homogeneous(
            workers,
            4.0,
            0.001,
            CommModel {
                per_message_overhead: 0.001,
                per_unit: 0.001,
            },
        )
    }

    #[test]
    fn bind_resolves_ephemeral_port_and_shuts_down() {
        let mut master = TcpCluster::bind("127.0.0.1:0", profile(2), 1, 1.0).unwrap();
        assert_ne!(master.local_addr().port(), 0);
        master.shutdown();
        master.shutdown(); // idempotent
    }

    #[test]
    fn missing_workers_fail_registration_within_timeout() {
        let mut master = TcpCluster::bind("127.0.0.1:0", profile(2), 1, 1.0)
            .unwrap()
            .configured(BackendConfig::new().connect_timeout(Duration::from_millis(100)));
        let err = master.ensure_registered(&[0, 1]).unwrap_err();
        assert!(
            matches!(err, ClusterError::Net(ref msg) if msg.contains("did not register")),
            "got {err:?}"
        );
    }

    /// Every Round frame one broadcast queues holds a handle to the same
    /// body, so the weights are encoded once and copied for no worker;
    /// each worker's head plus that body is exactly its Round frame.
    #[test]
    fn broadcast_queues_one_shared_body_for_every_worker() {
        for n in [2, 8] {
            let mut master = TcpCluster::bind("127.0.0.1:0", profile(n), 1, 1.0).unwrap();
            // Stand-in connections: real sockets, but the test holds each
            // writer queue's receiving end.
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut queues = Vec::new();
            let mut peers = Vec::new();
            for worker in 0..n {
                peers.push(TcpStream::connect(listener.local_addr().unwrap()).unwrap());
                let (stream, _) = listener.accept().unwrap();
                let (tx, rx) = bounded::<Outgoing>(QUEUE_CAP);
                let writer = std::thread::spawn(|| {});
                master.conns.insert(
                    worker,
                    Conn {
                        stream,
                        tx,
                        writer,
                        gen: 0,
                    },
                );
                queues.push(rx);
            }
            let weights: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.25 - 7.0).collect();
            let delays: BTreeMap<usize, f64> = (0..n).map(|w| (w, 0.5 + w as f64)).collect();
            let (epoch, body, reached) =
                master.broadcast_round(3, &weights, (0..n).collect(), &delays);
            assert_eq!(reached, (0..n).collect::<Vec<_>>());
            for (worker, rx) in queues.iter().enumerate() {
                let Ok(Outgoing::Round { head, body: queued }) = rx.try_recv() else {
                    panic!("n = {n}: worker {worker} got no Round frame");
                };
                assert!(
                    Arc::ptr_eq(&queued, &body),
                    "n = {n}: worker {worker}'s Round frame copies the body"
                );
                let mut bytes = head.to_vec();
                bytes.extend_from_slice(queued.as_ref().as_ref());
                let expect = frame::encode(&NetMessage::Round {
                    round: 3,
                    epoch,
                    delay_seconds: delays[&worker],
                    weights: weights.clone(),
                });
                assert_eq!(bytes, expect, "n = {n}: worker {worker}'s bytes");
                assert!(rx.try_recv().is_err(), "one frame per worker");
            }
            assert_eq!(Arc::strong_count(&body), 1, "n = {n}: every handle dropped");
            master.shutdown();
        }
    }

    /// Head then body is one frame on the wire and in `NetStats`, on the
    /// writer threads and on the serial write-and-flush path alike.
    #[test]
    fn a_round_head_and_its_body_count_as_one_frame() {
        let n = 3;
        let weights: Vec<f64> = (0..500).map(|i| f64::from(i) - 1.5).collect();
        let round_len = frame::ROUND_HEAD_LEN + 8 * weights.len();
        let control_len = frame::encode(&NetMessage::Shutdown).len();
        for pipelined in [true, false] {
            let mut master = TcpCluster::bind("127.0.0.1:0", profile(n), 1, 1.0)
                .unwrap()
                .configured(BackendConfig::new().pipelining(pipelined));
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut peers = Vec::new();
            for worker in 0..n {
                let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                let (stream, _) = listener.accept().unwrap();
                master.register(Registration { worker, stream });
                let job = frame::read_message(&mut peer).unwrap();
                assert_eq!(job, Some(NetMessage::Job(String::new())));
                peers.push(peer);
            }
            let delays: BTreeMap<usize, f64> = (0..n).map(|w| (w, 0.25 * w as f64)).collect();
            let (epoch, _, reached) =
                master.broadcast_round(9, &weights, (0..n).collect(), &delays);
            assert_eq!(reached.len(), n);
            for (worker, peer) in peers.iter_mut().enumerate() {
                let got = frame::read_message(peer).unwrap();
                let expect = NetMessage::Round {
                    round: 9,
                    epoch,
                    delay_seconds: delays[&worker],
                    weights: weights.clone(),
                };
                assert_eq!(got, Some(expect), "pipelined = {pipelined}");
            }
            master.shutdown();
            // Per worker: the Job, the Round and the Shutdown frame; one
            // flush for the Round.
            let stats = master.stats();
            assert_eq!(stats.frames_sent, 3 * n as u64, "pipelined = {pipelined}");
            assert_eq!(
                stats.bytes_sent,
                (n * (round_len + 2 * control_len)) as u64,
                "pipelined = {pipelined}"
            );
            assert_eq!(stats.flushes, n as u64, "pipelined = {pipelined}");
        }
    }
}
