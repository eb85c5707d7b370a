//! Worker side of the TCP round protocol.
//!
//! A worker is one socket plus three concerns:
//!
//! 1. a **reader thread** that turns incoming frames into channel events
//!    and folds `Finished` frames into a shared cancellation watermark,
//! 2. a **heartbeat thread** that keeps a liveness beacon flowing so the
//!    master can distinguish "slow" from "gone", and
//! 3. the **round loop** ([`serve_rounds`]): for each `Round` frame it
//!    derives the minibatch selection locally, runs the shared
//!    [`WorkerStep`] (cancellable sleep of the shipped compute delay, then
//!    compute + encode of the coded partial gradient), and ships the wire
//!    envelope back as a `Data` frame.
//!
//! The same loop serves both deployments: the `bcc-worker` binary (one OS
//! process per worker) and [`crate::LocalNetCluster`]'s loopback threads.

use crate::frame::{self, NetMessage};
use bcc_cluster::engine::RoundContext;
use bcc_cluster::worker::{cancellable_sleep, WorkerReport, WorkerStep};
use bcc_cluster::ClusterError;
use crossbeam_channel::{unbounded, Receiver, Sender};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Cap on the heartbeat back-off multiplier a `Backpressure` advisory can
/// drive (each advisory doubles the interval up to this; the next `Round`
/// resets it).
const MAX_HEARTBEAT_BACKOFF: u64 = 8;

/// Per-worker runtime knobs for [`serve_rounds`].
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// This worker's id (the registry key announced in `Hello`).
    pub worker: usize,
    /// Real seconds slept per simulated second of the shipped delay.
    pub time_scale: f64,
    /// Cadence of `Heartbeat` frames.
    pub heartbeat_interval: Duration,
    /// Fault injection: on receiving the `Round` frame for this round the
    /// worker drops its connection without reporting — the master observes
    /// a genuine mid-round death.
    pub die_at_round: Option<u64>,
}

impl WorkerConfig {
    /// A config with the default heartbeat cadence and no fault injection.
    ///
    /// # Panics
    /// Panics on a non-positive `time_scale`.
    #[must_use]
    pub fn new(worker: usize, time_scale: f64) -> Self {
        assert!(
            time_scale > 0.0 && time_scale.is_finite(),
            "time_scale must be positive"
        );
        Self {
            worker,
            time_scale,
            heartbeat_interval: Duration::from_millis(200),
            die_at_round: None,
        }
    }

    /// Arms the mid-round death fault injection (see
    /// [`WorkerConfig::die_at_round`]).
    #[must_use]
    pub fn with_die_at_round(mut self, round: u64) -> Self {
        self.die_at_round = Some(round);
        self
    }
}

/// Connects to `addr`, retrying on refusal until `timeout` elapses —
/// workers typically race the master's `bind`, so the first attempts may
/// land before the listener exists.
///
/// # Errors
/// [`ClusterError::Net`] when no attempt succeeds within `timeout`.
pub fn connect_with_retry(addr: &str, timeout: Duration) -> Result<TcpStream, ClusterError> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream
                    .set_nodelay(true)
                    .map_err(|e| ClusterError::Net(format!("set_nodelay failed: {e}")))?;
                return Ok(stream);
            }
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(ClusterError::Net(format!(
                        "connect to {addr} failed after {timeout:?}: {e}"
                    )));
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

/// Performs the worker side of the handshake: announce the worker id and
/// the auth token (derived from the job seed via [`frame::auth_token`]),
/// await the job assignment. Returns the job string (a JSON experiment
/// spec; empty under the loopback harness, which already holds the
/// problem in-process).
///
/// # Errors
/// [`ClusterError::AuthRejected`] when the master answers with a `Reject`
/// frame (token mismatch or bad worker id); [`ClusterError::Net`] on IO
/// failure or any other non-`Job` reply.
pub fn handshake(
    stream: &mut TcpStream,
    worker: usize,
    token: u64,
) -> Result<String, ClusterError> {
    frame::write_message(
        stream,
        &NetMessage::Hello {
            worker: worker as u64,
            token,
        },
    )?;
    match frame::read_message(stream)? {
        Some(NetMessage::Job(job)) => Ok(job),
        Some(NetMessage::Reject(reason)) => Err(ClusterError::AuthRejected { worker, reason }),
        Some(other) => Err(ClusterError::Net(format!(
            "expected a Job frame after Hello, got {other:?}"
        ))),
        None => Err(ClusterError::Net(
            "master closed the connection during the handshake".into(),
        )),
    }
}

/// Serves rounds on an established (handshaken) connection until the
/// master sends `Shutdown`, the connection drops, or the armed
/// `die_at_round` fault fires.
///
/// The round body is the threaded backend's pool worker's ([`WorkerStep`]:
/// sleep the delay cancellably, re-check the finished watermark, compute +
/// encode, re-check), then send. The one difference is where the delay
/// comes from — the master samples it from the shared latency stream and
/// ships it in the `Round` frame, which is what keeps a networked run
/// byte-identical to the simulated backends.
///
/// # Errors
/// [`ClusterError::Net`] on a send failure mid-run. A master-initiated
/// shutdown, a clean disconnect, and an injected death all return
/// `Ok(())`.
pub fn serve_rounds(
    stream: TcpStream,
    ctx: &RoundContext<'_>,
    cfg: &WorkerConfig,
) -> Result<(), ClusterError> {
    let finished_before = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    // Heartbeat back-off multiplier, driven by the master's Backpressure
    // advisories (see MAX_HEARTBEAT_BACKOFF).
    let heartbeat_backoff = Arc::new(AtomicU64::new(1));
    // All sends (data, heartbeats) serialize through one writer so frames
    // never interleave; the reader thread owns an OS-level clone.
    let writer =
        Arc::new(Mutex::new(stream.try_clone().map_err(|e| {
            ClusterError::Net(format!("socket clone failed: {e}"))
        })?));
    // The reader forwards `Round` frames whole, and one `Shutdown` when the
    // master says so or the socket ends.
    let (event_tx, event_rx) = unbounded::<NetMessage>();

    let reader = spawn_reader(
        stream,
        event_tx,
        Arc::clone(&finished_before),
        Arc::clone(&heartbeat_backoff),
    );
    let heartbeat = spawn_heartbeat(
        Arc::clone(&writer),
        cfg.worker as u64,
        cfg.heartbeat_interval,
        Arc::clone(&stop),
        Arc::clone(&heartbeat_backoff),
    );

    let result = round_loop(&event_rx, ctx, cfg, &finished_before, &writer);

    stop.store(true, Ordering::Relaxed);
    // Unblock the reader's blocking read; every clone shares the socket.
    let _ = writer
        .lock()
        .expect("worker writer lock poisoned")
        .shutdown(Shutdown::Both);
    let _ = heartbeat.join();
    let _ = reader.join();
    result
}

/// Reader thread: frames in, events out. `Finished` frames advance the
/// cancellation watermark directly (no round-loop involvement, so a
/// worker mid-sleep still wakes promptly), and `Backpressure` advisories
/// double the heartbeat back-off (a fresh `Round` resets it — the master
/// is reading again). EOF and socket errors surface as a `Shutdown`
/// event — from the worker's point of view a vanished master and an
/// orderly stop end the same way.
fn spawn_reader(
    mut stream: TcpStream,
    event_tx: Sender<NetMessage>,
    finished_before: Arc<AtomicU64>,
    heartbeat_backoff: Arc<AtomicU64>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        loop {
            match frame::read_message(&mut stream) {
                Ok(Some(round @ NetMessage::Round { .. })) => {
                    heartbeat_backoff.store(1, Ordering::Relaxed);
                    if event_tx.send(round).is_err() {
                        return;
                    }
                }
                Ok(Some(NetMessage::Finished { before_round })) => {
                    finished_before.fetch_max(before_round, Ordering::Relaxed);
                }
                Ok(Some(NetMessage::Backpressure { .. })) => {
                    let backoff = heartbeat_backoff.load(Ordering::Relaxed);
                    heartbeat_backoff
                        .store((backoff * 2).min(MAX_HEARTBEAT_BACKOFF), Ordering::Relaxed);
                }
                Ok(Some(NetMessage::Shutdown)) | Ok(None) | Err(_) => {
                    let _ = event_tx.send(NetMessage::Shutdown);
                    return;
                }
                // A confused master is not fatal to the worker; ignore
                // frames that only flow worker→master.
                Ok(Some(_)) => {}
            }
        }
    })
}

/// Heartbeat thread: a liveness beacon every `interval`, stopping (and
/// swallowing send errors — the round loop notices the dead socket on its
/// own) when `stop` flips.
fn spawn_heartbeat(
    writer: Arc<Mutex<TcpStream>>,
    worker: u64,
    interval: Duration,
    stop: Arc<AtomicBool>,
    backoff: Arc<AtomicU64>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            let factor = backoff
                .load(Ordering::Relaxed)
                .clamp(1, MAX_HEARTBEAT_BACKOFF);
            cancellable_sleep(interval * factor as u32, || stop.load(Ordering::Relaxed));
            if stop.load(Ordering::Relaxed) {
                return;
            }
            let mut w = writer.lock().expect("worker writer lock poisoned");
            if frame::write_message(&mut *w, &NetMessage::Heartbeat { worker }).is_err() {
                return;
            }
        }
    })
}

fn round_loop(
    event_rx: &Receiver<NetMessage>,
    ctx: &RoundContext<'_>,
    cfg: &WorkerConfig,
    finished_before: &AtomicU64,
    writer: &Mutex<TcpStream>,
) -> Result<(), ClusterError> {
    // Reused across rounds: the step's gradient scratch and wire staging
    // buffer — after warm-up the data path allocates nothing per round.
    let mut step = WorkerStep::new(*ctx, cfg.worker, cfg.time_scale, finished_before);
    while let Ok(event) = event_rx.recv() {
        let NetMessage::Round {
            round,
            epoch,
            delay_seconds,
            weights,
        } = event
        else {
            return Ok(()); // Shutdown
        };
        if cfg.die_at_round == Some(round) {
            // Injected fault: vanish after the master committed to this
            // round but before reporting — the hard case for the master's
            // death detection.
            return Ok(());
        }
        // Minibatch rounds derive the unit selection locally from the
        // round id — nothing extra on the wire.
        let selection = ctx.selection_for(round);
        match step.run(round, &weights, selection.as_ref(), delay_seconds) {
            WorkerReport::Cancelled => continue, // master settled this round first
            // The Data head echoing the broadcast epoch, then the envelope
            // straight from its staging buffer, under one hold of the
            // writer lock so a heartbeat cannot land between them.
            WorkerReport::Envelope(envelope) => {
                let head = frame::data_head(epoch, envelope.len());
                let mut w = writer.lock().expect("worker writer lock poisoned");
                frame::write_frame_parts(&mut *w, &head, envelope)?;
                frame::flush_stream(&mut *w)?;
            }
            WorkerReport::Skipped => {
                let mut w = writer.lock().expect("worker writer lock poisoned");
                frame::write_message(&mut *w, &NetMessage::Skipped { round })?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn connect_with_retry_times_out_on_dead_port() {
        // Reserve a port, then close the listener so nothing accepts.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let err = connect_with_retry(&addr, Duration::from_millis(80)).unwrap_err();
        assert!(matches!(err, ClusterError::Net(msg) if msg.contains("connect")));
    }

    #[test]
    fn handshake_exchanges_hello_for_job() {
        let token = frame::auth_token(41);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let master = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let hello = frame::read_message(&mut conn).unwrap().unwrap();
            assert_eq!(hello, NetMessage::Hello { worker: 3, token });
            frame::write_message(&mut conn, &NetMessage::Job("{}".into())).unwrap();
        });
        let mut stream = connect_with_retry(&addr, Duration::from_secs(2)).unwrap();
        let job = handshake(&mut stream, 3, token).unwrap();
        assert_eq!(job, "{}");
        master.join().unwrap();
    }

    #[test]
    fn handshake_rejects_non_job_reply() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let master = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let _ = frame::read_message(&mut conn).unwrap();
            frame::write_message(&mut conn, &NetMessage::Shutdown).unwrap();
        });
        let mut stream = connect_with_retry(&addr, Duration::from_secs(2)).unwrap();
        let err = handshake(&mut stream, 0, frame::auth_token(0)).unwrap_err();
        assert!(matches!(err, ClusterError::Net(msg) if msg.contains("expected a Job")));
        master.join().unwrap();
    }

    #[test]
    fn handshake_surfaces_reject_as_typed_auth_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let master = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let _ = frame::read_message(&mut conn).unwrap();
            frame::write_message(&mut conn, &NetMessage::Reject("auth token mismatch".into()))
                .unwrap();
        });
        let mut stream = connect_with_retry(&addr, Duration::from_secs(2)).unwrap();
        let err = handshake(&mut stream, 5, 0xBAD).unwrap_err();
        assert_eq!(
            err,
            ClusterError::AuthRejected {
                worker: 5,
                reason: "auth token mismatch".into()
            }
        );
        master.join().unwrap();
    }
}
