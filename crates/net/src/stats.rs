//! Transport accounting for the TCP backend.
//!
//! The master tracks actual bytes/frames on the wire plus fault-protocol
//! events (deaths, reconnects); `repro net` publishes a [`NetStats`]
//! snapshot per cell in `BENCH_net.json` so the simulated
//! communication-load accounting can be cross-checked against physical
//! traffic.

use serde::{Deserialize, Serialize};
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Point-in-time snapshot of a cluster's transport counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Bytes the master wrote to worker sockets.
    pub bytes_sent: u64,
    /// Bytes the master read from worker sockets.
    pub bytes_received: u64,
    /// Frames the master sent.
    pub frames_sent: u64,
    /// Frames the master received.
    pub frames_received: u64,
    /// Workers declared dead (disconnect or heartbeat timeout).
    pub deaths: u64,
    /// Workers re-admitted after a disconnect.
    pub reconnects: u64,
    /// Broadcasts that found a worker's send queue full and had to fall
    /// back to a (timed) blocking enqueue — slow-reader pressure made
    /// visible instead of a silent head-of-line stall.
    pub backpressure_events: u64,
    /// Deepest send-queue occupancy any writer thread observed.
    pub max_queue_depth: u64,
    /// Socket flushes issued by writer threads. Coalescing makes this
    /// strictly ≤ `frames_sent`; the gap is the win from burst draining.
    pub flushes: u64,
    /// Data frames that arrived for an already-settled round or a
    /// superseded broadcast epoch — credited here, never decoded.
    pub stale_frames: u64,
    /// Handshakes refused for a bad auth token.
    pub auth_rejects: u64,
    /// Workers re-admitted *mid-round* with the in-flight round's model
    /// (a subset of `reconnects`, which also counts boundary rejoins).
    pub rejoins: u64,
    /// Cumulative wall nanoseconds the master spent fanning rounds out
    /// (body encode → last frame handed to its writer queue). With
    /// writer threads this is queue-push time, not socket time — the
    /// number `repro net` publishes as the broadcast wall.
    pub broadcast_wall_nanos: u64,
}

impl NetStats {
    /// [`Self::broadcast_wall_nanos`] in seconds.
    #[must_use]
    pub fn broadcast_wall_seconds(&self) -> f64 {
        self.broadcast_wall_nanos as f64 / 1e9
    }
}

/// Shared, thread-safe counters behind a [`NetStats`] snapshot. Reader
/// threads and the master all hold clones of one `SharedStats`.
#[derive(Debug, Clone, Default)]
pub(crate) struct SharedStats {
    inner: Arc<StatsInner>,
}

#[derive(Debug, Default)]
struct StatsInner {
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    deaths: AtomicU64,
    reconnects: AtomicU64,
    backpressure_events: AtomicU64,
    max_queue_depth: AtomicU64,
    flushes: AtomicU64,
    stale_frames: AtomicU64,
    auth_rejects: AtomicU64,
    rejoins: AtomicU64,
    broadcast_wall_nanos: AtomicU64,
}

impl SharedStats {
    pub(crate) fn record_send(&self, bytes: usize) {
        self.inner
            .bytes_sent
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.inner.frames_sent.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_frame_received(&self) {
        self.inner.frames_received.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_bytes_received(&self, bytes: usize) {
        self.inner
            .bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_death(&self) {
        self.inner.deaths.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_reconnect(&self) {
        self.inner.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_backpressure(&self) {
        self.inner
            .backpressure_events
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn observe_queue_depth(&self, depth: usize) {
        self.inner
            .max_queue_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_flush(&self) {
        self.inner.flushes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_stale_frame(&self) {
        self.inner.stale_frames.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_auth_reject(&self) {
        self.inner.auth_rejects.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_rejoin(&self) {
        self.inner.rejoins.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_broadcast_wall(&self, elapsed: std::time::Duration) {
        self.inner
            .broadcast_wall_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> NetStats {
        NetStats {
            bytes_sent: self.inner.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.inner.bytes_received.load(Ordering::Relaxed),
            frames_sent: self.inner.frames_sent.load(Ordering::Relaxed),
            frames_received: self.inner.frames_received.load(Ordering::Relaxed),
            deaths: self.inner.deaths.load(Ordering::Relaxed),
            reconnects: self.inner.reconnects.load(Ordering::Relaxed),
            backpressure_events: self.inner.backpressure_events.load(Ordering::Relaxed),
            max_queue_depth: self.inner.max_queue_depth.load(Ordering::Relaxed),
            flushes: self.inner.flushes.load(Ordering::Relaxed),
            stale_frames: self.inner.stale_frames.load(Ordering::Relaxed),
            auth_rejects: self.inner.auth_rejects.load(Ordering::Relaxed),
            rejoins: self.inner.rejoins.load(Ordering::Relaxed),
            broadcast_wall_nanos: self.inner.broadcast_wall_nanos.load(Ordering::Relaxed),
        }
    }
}

/// `Read` adapter crediting every byte read to the shared counters — how
/// per-worker reader threads account received traffic without re-counting
/// inside the frame codec.
pub(crate) struct CountingReader<R> {
    inner: R,
    stats: SharedStats,
}

impl<R: Read> CountingReader<R> {
    pub(crate) fn new(inner: R, stats: SharedStats) -> Self {
        Self { inner, stats }
    }
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.stats.record_bytes_received(n);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let stats = SharedStats::default();
        stats.record_send(10);
        stats.record_send(5);
        stats.record_frame_received();
        stats.record_death();
        stats.record_reconnect();
        stats.record_backpressure();
        stats.observe_queue_depth(3);
        stats.observe_queue_depth(9);
        stats.observe_queue_depth(5);
        stats.record_flush();
        stats.record_stale_frame();
        stats.record_auth_reject();
        stats.record_rejoin();
        stats.record_broadcast_wall(std::time::Duration::from_micros(2));
        let mut reader = CountingReader::new(Cursor::new(vec![0u8; 7]), stats.clone());
        let mut buf = [0u8; 7];
        reader.read_exact(&mut buf).unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.bytes_sent, 15);
        assert_eq!(snap.frames_sent, 2);
        assert_eq!(snap.frames_received, 1);
        assert_eq!(snap.bytes_received, 7);
        assert_eq!(snap.deaths, 1);
        assert_eq!(snap.reconnects, 1);
        assert_eq!(snap.backpressure_events, 1);
        assert_eq!(snap.max_queue_depth, 9, "fetch_max keeps the peak");
        assert_eq!(snap.flushes, 1);
        assert_eq!(snap.stale_frames, 1);
        assert_eq!(snap.auth_rejects, 1);
        assert_eq!(snap.rejoins, 1);
        assert_eq!(snap.broadcast_wall_nanos, 2_000);
        assert!((snap.broadcast_wall_seconds() - 2e-6).abs() < 1e-12);
    }
}
