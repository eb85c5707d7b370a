//! Length-prefixed control/data frames for the TCP round protocol.
//!
//! Every message on a master↔worker socket is one frame:
//!
//! ```text
//! len  u32 le   — length of tag + body, 1 ..= MAX_FRAME_LEN
//! tag  u8       — message discriminant (see NetMessage)
//! body per tag  — little-endian fields, exact length (no trailing bytes)
//! ```
//!
//! The codec is split in two layers so hardening tests hit pure functions:
//! [`encode_into`]/[`decode_frame`] translate between [`NetMessage`] and
//! bytes with no IO, and [`read_message`]/[`write_message`] move whole
//! frames over any `Read`/`Write`. Corrupted input — truncated bodies,
//! trailing garbage, absurd length claims — always returns
//! [`ClusterError::Net`]; the length prefix is capped at
//! [`MAX_FRAME_LEN`] before any allocation, so a hostile length can never
//! over-allocate or over-read (pinned by `tests/frame_proptests.rs`).
//!
//! Gradient payloads are **not** re-encoded here: a [`NetMessage::Data`]
//! body (after its epoch word) is byte-for-byte a [`bcc_cluster::wire`]
//! envelope, the same codec the threaded backend ships through its
//! channels.
//!
//! # Hot-path encoding
//!
//! The serial seed protocol allocated a fresh `Vec` per frame. The master
//! instead encodes control frames into pooled [`bytes::BytesMut`] staging
//! buffers ([`FramePool`]) via [`encode_into`], and sends a frame whose
//! bulk is shared or already encoded as a small fixed-size head followed
//! by that bulk:
//! - a Round frame is [`round_head`] (length, tag, round, epoch, delay,
//!   weight count: [`ROUND_HEAD_LEN`] bytes) then [`encode_round_body`]'s
//!   weight bytes. The master encodes the body once per round and every
//!   worker's queue holds a handle to it, so the weights are serialized
//!   once and copied never, whatever the fleet size;
//! - a Data frame is [`data_head`] (length, tag, epoch: [`DATA_HEAD_LEN`]
//!   bytes) then the worker's already-encoded wire envelope, written
//!   straight from the staging buffer it was encoded into.
//!
//! Head plus body is byte for byte the frame [`encode`] produces, and
//! [`encode_round_into`] / [`encode_data_frame_into`] are the one-buffer
//! spellings of the same bytes. After warm-up no frame *encode* path
//! allocates except the one Round body per round; weight vectors go
//! through [`bcc_cluster::wire`]'s bulk f64 codec, one block copy per 64
//! values.
//!
//! # Receive path
//!
//! The read path does allocate. [`read_message`] reads each frame once,
//! into a buffer it allocates at the frame's length (after the
//! [`MAX_FRAME_LEN`] check, with no zero-fill), and decodes from that
//! buffer:
//! - a Data frame keeps it — the payload is a [`Bytes`] view into the read
//!   buffer (plus the view's small shared handle), so the envelope is
//!   copied only when `wire::decode` unpacks its vector;
//! - a Round frame allocates its weight vector, one bulk pass over the
//!   body;
//! - control frames allocate only a Job/Reject string.
//!
//! These counts are pinned by `tests/frame_allocs.rs`.

use bcc_cluster::{wire, ClusterError};
use bytes::{Buf, Bytes, BytesMut};
use std::io::{ErrorKind, Read, Write};
use std::sync::{Arc, Mutex};

/// Hard cap on a frame's tag+body length (64 MiB) — far above any real
/// gradient message, low enough that a corrupted length prefix cannot
/// drive an allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// One protocol message between master and worker.
#[derive(Debug, Clone, PartialEq)]
pub enum NetMessage {
    /// Worker → master, first frame on a connection: announces the worker
    /// id the registry keys on and echoes the job's auth token (derived
    /// from the job seed via [`auth_token`]). A mismatched token is
    /// answered with [`NetMessage::Reject`], never silently dropped.
    Hello {
        /// The sender's worker id.
        worker: u64,
        /// The auth token the worker derived from its job seed.
        token: u64,
    },
    /// Master → worker, handshake reply: the job assignment as a JSON
    /// experiment spec. Empty when the worker already holds the problem
    /// in-process (the loopback harness).
    Job(String),
    /// Master → worker, handshake refusal: the connection is being closed
    /// because the handshake was invalid (bad auth token, duplicate or
    /// out-of-range worker id). The string is the operator-facing reason.
    Reject(String),
    /// Master → worker: start round `round` at the broadcast weights,
    /// emulating `delay_seconds` of compute (sampled at the master from
    /// the shared latency stream so every backend replays identically).
    ///
    /// Body layout (after the 4-byte length prefix and 1-byte tag):
    ///
    /// ```text
    /// round  u64 le   — frame offset  5..13
    /// epoch  u64 le   — frame offset 13..21
    /// delay  f64 le   — frame offset 21..29   (per worker)
    /// count  u64 le   — frame offset 29..37
    /// w[i]   f64 le   — 8 bytes each
    /// ```
    Round {
        /// Global round id.
        round: u64,
        /// Broadcast epoch: incremented on every master fan-out (including
        /// mid-round rejoin re-broadcasts). Workers echo it in
        /// [`NetMessage::Data`] so a pipelined master can credit late
        /// frames from a superseded broadcast to stats without ever
        /// feeding them to the decoder.
        epoch: u64,
        /// Simulated compute duration to emulate before sending.
        delay_seconds: f64,
        /// The evaluation point `w`.
        weights: Vec<f64>,
    },
    /// Worker → master: a wire-encoded [`bcc_cluster::Envelope`] carrying
    /// the coded gradient payload, tagged with the broadcast epoch of the
    /// Round it answers.
    Data {
        /// The `epoch` of the [`NetMessage::Round`] this payload answers.
        epoch: u64,
        /// The wire-encoded envelope.
        payload: Bytes,
    },
    /// Worker → master: no payload for `round` (encode failure) — lets the
    /// master count the worker as reported instead of waiting it out.
    Skipped {
        /// The round the worker is skipping.
        round: u64,
    },
    /// Worker → master: liveness beacon.
    Heartbeat {
        /// The sender's worker id.
        worker: u64,
    },
    /// Master → worker: every round below `before_round` is settled —
    /// abandon their sleeps/compute.
    Finished {
        /// First round that is still (or not yet) in flight.
        before_round: u64,
    },
    /// Master → worker: the run is over; exit cleanly.
    Shutdown,
    /// Master → worker, advisory: the master's send queue for this worker
    /// reached `queued` frames before draining — the peer is reading
    /// slowly. Workers respond by backing off their heartbeat cadence
    /// until the next Round arrives; the master never blocks broadcast on
    /// it (that is the writer threads' job).
    Backpressure {
        /// Queue depth observed when the signal was raised.
        queued: u64,
    },
}

const TAG_HELLO: u8 = 0;
const TAG_JOB: u8 = 1;
const TAG_ROUND: u8 = 2;
const TAG_DATA: u8 = 3;
const TAG_SKIPPED: u8 = 4;
const TAG_HEARTBEAT: u8 = 5;
const TAG_FINISHED: u8 = 6;
const TAG_SHUTDOWN: u8 = 7;
const TAG_REJECT: u8 = 8;
const TAG_BACKPRESSURE: u8 = 9;

/// Length of a Round frame's head: length prefix 4 + tag 1 + round 8 +
/// epoch 8 + delay 8 + weight count 8. The weights follow it.
pub const ROUND_HEAD_LEN: usize = 4 + 1 + 8 + 8 + 8 + 8;

/// Length of a Data frame's head: length prefix 4 + tag 1 + epoch 8. The
/// wire envelope follows it.
pub const DATA_HEAD_LEN: usize = 4 + 1 + 8;

/// Offset of a Data frame's envelope after the length prefix (tag 1 +
/// epoch 8).
const DATA_PAYLOAD_OFFSET: usize = DATA_HEAD_LEN - 4;

fn err(msg: impl Into<String>) -> ClusterError {
    ClusterError::Net(msg.into())
}

/// Derives the job auth token workers must echo in [`NetMessage::Hello`].
///
/// A splitmix64-style finalizer over the job seed: cheap, deterministic
/// across master and workers, and unrelated to any of the experiment's
/// RNG streams (different constant schedule), so learning the token
/// reveals nothing about sampled latencies. This is integrity against
/// mis-wired fleets — a worker pointed at the wrong master, or launched
/// with the wrong spec — not cryptographic security (the wire is
/// plaintext).
#[must_use]
pub fn auth_token(seed: u64) -> u64 {
    let mut z = seed ^ 0xB5C0_17E5_A117_0CE5;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn body_len(msg: &NetMessage) -> usize {
    match msg {
        NetMessage::Hello { .. } => 16,
        NetMessage::Job(job) => job.len(),
        NetMessage::Reject(reason) => reason.len(),
        NetMessage::Round { weights, .. } => 8 + 8 + 8 + 8 + 8 * weights.len(),
        NetMessage::Data { payload, .. } => 8 + payload.len(),
        NetMessage::Skipped { .. }
        | NetMessage::Heartbeat { .. }
        | NetMessage::Finished { .. }
        | NetMessage::Backpressure { .. } => 8,
        NetMessage::Shutdown => 0,
    }
}

/// Serializes a message into `buf` as one complete frame (length prefix
/// included), reusing `buf`'s capacity. Returns the frame length.
///
/// The buffer is cleared first; after the call it holds exactly the
/// frame. This is the allocation-free hot path — warm buffers from a
/// [`FramePool`] never reallocate for steady-state frame sizes.
pub fn encode_into(msg: &NetMessage, buf: &mut BytesMut) -> usize {
    let body_len = body_len(msg);
    buf.clear();
    buf.reserve(4 + 1 + body_len);
    buf.extend_from_slice(&frame_len(1 + body_len));
    match msg {
        NetMessage::Hello { worker, token } => {
            buf.extend_from_slice(&[TAG_HELLO]);
            buf.extend_from_slice(&worker.to_le_bytes());
            buf.extend_from_slice(&token.to_le_bytes());
        }
        NetMessage::Job(job) => {
            buf.extend_from_slice(&[TAG_JOB]);
            buf.extend_from_slice(job.as_bytes());
        }
        NetMessage::Reject(reason) => {
            buf.extend_from_slice(&[TAG_REJECT]);
            buf.extend_from_slice(reason.as_bytes());
        }
        NetMessage::Round {
            round,
            epoch,
            delay_seconds,
            weights,
        } => {
            buf.extend_from_slice(&[TAG_ROUND]);
            buf.extend_from_slice(&round.to_le_bytes());
            buf.extend_from_slice(&epoch.to_le_bytes());
            buf.extend_from_slice(&delay_seconds.to_le_bytes());
            buf.extend_from_slice(&(weights.len() as u64).to_le_bytes());
            wire::put_f64s_le(buf, weights);
        }
        NetMessage::Data { epoch, payload } => {
            buf.extend_from_slice(&[TAG_DATA]);
            buf.extend_from_slice(&epoch.to_le_bytes());
            buf.extend_from_slice(payload.as_ref());
        }
        NetMessage::Skipped { round } => {
            buf.extend_from_slice(&[TAG_SKIPPED]);
            buf.extend_from_slice(&round.to_le_bytes());
        }
        NetMessage::Heartbeat { worker } => {
            buf.extend_from_slice(&[TAG_HEARTBEAT]);
            buf.extend_from_slice(&worker.to_le_bytes());
        }
        NetMessage::Finished { before_round } => {
            buf.extend_from_slice(&[TAG_FINISHED]);
            buf.extend_from_slice(&before_round.to_le_bytes());
        }
        NetMessage::Shutdown => buf.extend_from_slice(&[TAG_SHUTDOWN]),
        NetMessage::Backpressure { queued } => {
            buf.extend_from_slice(&[TAG_BACKPRESSURE]);
            buf.extend_from_slice(&queued.to_le_bytes());
        }
    }
    debug_assert_eq!(buf.len(), 4 + 1 + body_len);
    buf.len()
}

/// Serializes a message to one complete frame (length prefix included).
///
/// The allocating convenience spelling of [`encode_into`] — handshakes,
/// tests, and other cold paths.
#[must_use]
pub fn encode(msg: &NetMessage) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(4 + 1 + body_len(msg));
    encode_into(msg, &mut buf);
    buf.as_ref().to_vec()
}

/// The head of a Round frame carrying `weights` weights: everything
/// before the weights. A worker's Round frame is this head followed by
/// [`encode_round_body`]'s bytes.
#[must_use]
pub fn round_head(
    round: u64,
    epoch: u64,
    delay_seconds: f64,
    weights: usize,
) -> [u8; ROUND_HEAD_LEN] {
    let mut head = [0u8; ROUND_HEAD_LEN];
    head[..4].copy_from_slice(&frame_len(ROUND_HEAD_LEN - 4 + 8 * weights));
    head[4] = TAG_ROUND;
    head[5..13].copy_from_slice(&round.to_le_bytes());
    head[13..21].copy_from_slice(&epoch.to_le_bytes());
    head[21..29].copy_from_slice(&delay_seconds.to_le_bytes());
    head[29..37].copy_from_slice(&(weights as u64).to_le_bytes());
    head
}

/// The body of a Round frame: the weights, 8 little-endian bytes each —
/// what follows a [`round_head`]. The one part of a Round frame every
/// worker shares.
#[must_use]
pub fn encode_round_body(weights: &[f64]) -> BytesMut {
    let mut body = BytesMut::with_capacity(8 * weights.len());
    wire::put_f64s_le(&mut body, weights);
    body
}

/// Serializes a Round frame into `buf` directly from borrowed weights
/// ([`NetMessage::Round`] would force the caller to clone the weight
/// vector just to encode it): [`round_head`] then the weights. Returns the
/// frame length.
pub fn encode_round_into(
    buf: &mut BytesMut,
    round: u64,
    epoch: u64,
    delay_seconds: f64,
    weights: &[f64],
) -> usize {
    buf.clear();
    buf.reserve(ROUND_HEAD_LEN + 8 * weights.len());
    buf.extend_from_slice(&round_head(round, epoch, delay_seconds, weights.len()));
    wire::put_f64s_le(buf, weights);
    buf.len()
}

/// The head of a Data frame wrapping an `envelope_len`-byte wire
/// envelope. A worker's Data frame is this head followed by the envelope.
#[must_use]
pub fn data_head(epoch: u64, envelope_len: usize) -> [u8; DATA_HEAD_LEN] {
    let mut head = [0u8; DATA_HEAD_LEN];
    head[..4].copy_from_slice(&frame_len(DATA_HEAD_LEN - 4 + envelope_len));
    head[4] = TAG_DATA;
    head[5..].copy_from_slice(&epoch.to_le_bytes());
    head
}

/// Serializes a Data frame into `buf` from an already-encoded wire
/// envelope: [`data_head`] then the envelope. Returns the frame length.
pub fn encode_data_frame_into(buf: &mut BytesMut, epoch: u64, envelope: &[u8]) -> usize {
    buf.clear();
    buf.reserve(DATA_HEAD_LEN + envelope.len());
    buf.extend_from_slice(&data_head(epoch, envelope.len()));
    buf.extend_from_slice(envelope);
    buf.len()
}

/// A frame's length prefix for a tag + body of `len` bytes.
fn frame_len(len: usize) -> [u8; 4] {
    u32::try_from(len).expect("frame fits u32").to_le_bytes()
}

/// A free-list of frame staging buffers shared between the broadcast
/// path and the per-worker writer threads.
///
/// `take` hands out a warm buffer (or a fresh one when the list is dry);
/// `put` returns it after the bytes are on the wire. Buffers keep their
/// grown capacity, so after one round of warm-up the master's frame path
/// performs zero allocations per frame.
#[derive(Debug, Clone, Default)]
pub struct FramePool {
    free: Arc<Mutex<Vec<BytesMut>>>,
}

impl FramePool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A warm buffer from the pool, or a fresh one when none is free.
    #[must_use]
    pub fn take(&self) -> BytesMut {
        self.free
            .lock()
            .expect("frame pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a buffer to the pool for reuse.
    pub fn put(&self, buf: BytesMut) {
        self.free.lock().expect("frame pool poisoned").push(buf);
    }

    /// Buffers currently parked in the pool (for tests and diagnostics).
    #[must_use]
    pub fn idle(&self) -> usize {
        self.free.lock().expect("frame pool poisoned").len()
    }
}

/// Decodes one frame's payload (tag + body, the bytes *after* the length
/// prefix).
///
/// # Errors
/// [`ClusterError::Net`] on an empty payload, unknown tag, truncated body,
/// trailing bytes, or invalid UTF-8 in a job/reject string — never a
/// panic, and never a read past `payload`.
pub fn decode_frame(payload: &[u8]) -> Result<NetMessage, ClusterError> {
    let (&tag, mut body) = payload
        .split_first()
        .ok_or_else(|| err("empty frame (missing tag)"))?;
    let take_u64 = |b: &mut &[u8], what: &str| -> Result<u64, ClusterError> {
        if b.remaining() < 8 {
            return Err(err(format!("truncated frame reading {what}")));
        }
        Ok(b.get_u64_le())
    };
    let msg = match tag {
        TAG_HELLO => NetMessage::Hello {
            worker: take_u64(&mut body, "hello worker id")?,
            token: take_u64(&mut body, "hello auth token")?,
        },
        TAG_JOB => {
            let job = String::from_utf8(body.to_vec())
                .map_err(|_| err("job frame is not valid UTF-8"))?;
            body = &[];
            NetMessage::Job(job)
        }
        TAG_REJECT => {
            let reason = String::from_utf8(body.to_vec())
                .map_err(|_| err("reject frame is not valid UTF-8"))?;
            body = &[];
            NetMessage::Reject(reason)
        }
        TAG_ROUND => {
            let round = take_u64(&mut body, "round id")?;
            let epoch = take_u64(&mut body, "round epoch")?;
            if body.remaining() < 8 {
                return Err(err("truncated frame reading round delay"));
            }
            let delay_seconds = body.get_f64_le();
            let len = take_u64(&mut body, "weight count")? as usize;
            if body.remaining() != len.saturating_mul(8) {
                return Err(err(format!(
                    "round frame claims {len} weights but carries {} bytes",
                    body.remaining()
                )));
            }
            let weights = wire::f64s_from_le(body);
            body = &[];
            NetMessage::Round {
                round,
                epoch,
                delay_seconds,
                weights,
            }
        }
        TAG_DATA => {
            let epoch = take_u64(&mut body, "data epoch")?;
            let payload = Bytes::copy_from_slice(body);
            body = &[];
            NetMessage::Data { epoch, payload }
        }
        TAG_SKIPPED => NetMessage::Skipped {
            round: take_u64(&mut body, "skipped round id")?,
        },
        TAG_HEARTBEAT => NetMessage::Heartbeat {
            worker: take_u64(&mut body, "heartbeat worker id")?,
        },
        TAG_FINISHED => NetMessage::Finished {
            before_round: take_u64(&mut body, "finished round id")?,
        },
        TAG_SHUTDOWN => NetMessage::Shutdown,
        TAG_BACKPRESSURE => NetMessage::Backpressure {
            queued: take_u64(&mut body, "backpressure depth")?,
        },
        other => return Err(err(format!("unknown frame tag {other}"))),
    };
    if body.remaining() != 0 {
        return Err(err(format!(
            "{} trailing bytes after frame body",
            body.remaining()
        )));
    }
    Ok(msg)
}

/// Reads one complete frame from `r`.
///
/// Returns `Ok(None)` on a clean end-of-stream (EOF exactly at a frame
/// boundary — how a peer's orderly close appears).
///
/// # Errors
/// [`ClusterError::Net`] on mid-frame EOF, socket errors, a zero or
/// over-[`MAX_FRAME_LEN`] length prefix, or a malformed payload. The
/// length check happens before any allocation.
///
/// The frame is read once into a buffer of exactly its length (not
/// zero-filled first). A Data frame's payload is a view into that buffer;
/// every other frame is decoded from it by [`decode_frame`].
pub fn read_message(r: &mut impl Read) -> Result<Option<NetMessage>, ClusterError> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_eof(r, &mut len_buf)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Filled => {}
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 {
        return Err(err("zero-length frame"));
    }
    if len > MAX_FRAME_LEN {
        return Err(err(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    let mut frame = Vec::with_capacity(len);
    let read = r
        .take(len as u64)
        .read_to_end(&mut frame)
        .map_err(|e| err(format!("receive failed: {e}")))?;
    if read < len {
        return Err(err("connection closed mid-frame"));
    }
    if frame[0] == TAG_DATA && len >= DATA_PAYLOAD_OFFSET {
        let epoch = (&frame[1..DATA_PAYLOAD_OFFSET]).get_u64_le();
        let payload = Bytes::from(frame).slice(DATA_PAYLOAD_OFFSET..len);
        return Ok(Some(NetMessage::Data { epoch, payload }));
    }
    decode_frame(&frame).map(Some)
}

/// Writes one complete frame to `w` and flushes, returning the bytes put
/// on the wire.
///
/// # Errors
/// [`ClusterError::Net`] wrapping the underlying IO error.
pub fn write_message(w: &mut impl Write, msg: &NetMessage) -> Result<usize, ClusterError> {
    let frame = encode(msg);
    write_frame_parts(w, &frame, &[])?;
    flush_stream(w)?;
    Ok(frame.len())
}

/// Writes one frame given as `head` then `body` (`body` may be empty),
/// without flushing. A Round or Data frame goes out as its small head and
/// then its shared or staged bulk, with no copy joining the two; a writer
/// draining a burst flushes once at its end ([`flush_stream`]).
///
/// # Errors
/// [`ClusterError::Net`] wrapping the underlying IO error.
pub fn write_frame_parts(w: &mut impl Write, head: &[u8], body: &[u8]) -> Result<(), ClusterError> {
    w.write_all(head)
        .and_then(|()| w.write_all(body))
        .map_err(|e| err(format!("send failed: {e}")))
}

/// Flushes `w` with [`ClusterError::Net`] errors — the tail of a frame
/// or of a coalesced burst.
///
/// # Errors
/// [`ClusterError::Net`] wrapping the underlying IO error.
pub fn flush_stream(w: &mut impl Write) -> Result<(), ClusterError> {
    w.flush().map_err(|e| err(format!("flush failed: {e}")))
}

enum ReadOutcome {
    Filled,
    Eof,
}

/// Fills `buf` completely, reporting a clean EOF only when zero bytes were
/// read; EOF mid-buffer is a framing error.
fn read_exact_or_eof<R: Read + ?Sized>(
    r: &mut R,
    buf: &mut [u8],
) -> Result<ReadOutcome, ClusterError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(ReadOutcome::Eof),
            Ok(0) => return Err(err("connection closed mid-frame")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(err(format!("receive failed: {e}"))),
        }
    }
    Ok(ReadOutcome::Filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn examples() -> Vec<NetMessage> {
        vec![
            NetMessage::Hello {
                worker: 7,
                token: auth_token(2024),
            },
            NetMessage::Job(String::new()),
            NetMessage::Job("{\"workers\": 4}".into()),
            NetMessage::Reject("auth token mismatch".into()),
            NetMessage::Round {
                round: 12,
                epoch: 31,
                delay_seconds: 0.75,
                weights: vec![1.0, -2.5, 0.0],
            },
            NetMessage::Round {
                round: 0,
                epoch: 0,
                delay_seconds: 0.0,
                weights: vec![],
            },
            NetMessage::Data {
                epoch: 9,
                payload: Bytes::copy_from_slice(&[0xBC, 0xC0, 0x17, 0xE5, 1]),
            },
            NetMessage::Skipped { round: 3 },
            NetMessage::Heartbeat { worker: 11 },
            NetMessage::Finished { before_round: 42 },
            NetMessage::Shutdown,
            NetMessage::Backpressure { queued: 64 },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in examples() {
            let frame = encode(&msg);
            let decoded = decode_frame(&frame[4..]).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_capacity() {
        let mut buf = BytesMut::new();
        for msg in examples() {
            let n = encode_into(&msg, &mut buf);
            assert_eq!(buf.as_ref(), encode(&msg).as_slice());
            assert_eq!(n, buf.len());
        }
        // A warm buffer re-encoding a same-size frame must not grow.
        let msg = NetMessage::Round {
            round: 1,
            epoch: 2,
            delay_seconds: 0.5,
            weights: vec![0.0; 16],
        };
        encode_into(&msg, &mut buf);
        let cap = buf.capacity();
        encode_into(&msg, &mut buf);
        assert_eq!(buf.capacity(), cap, "warm re-encode must not reallocate");
    }

    #[test]
    fn round_template_fast_path_matches_generic_encoder() {
        let weights = [1.0, -2.5, 0.0];
        let mut buf = BytesMut::new();
        let n = encode_round_into(&mut buf, 12, 31, 0.75, &weights);
        let generic = encode(&NetMessage::Round {
            round: 12,
            epoch: 31,
            delay_seconds: 0.75,
            weights: weights.to_vec(),
        });
        assert_eq!(buf.as_ref(), generic.as_slice());
        assert_eq!(n, generic.len());
    }

    #[test]
    fn data_frame_fast_path_matches_generic_encoder() {
        let envelope = [0xBC, 0xC0, 0x17, 0xE5, 1, 2, 3];
        let mut buf = BytesMut::new();
        let n = encode_data_frame_into(&mut buf, 23, &envelope);
        let generic = encode(&NetMessage::Data {
            epoch: 23,
            payload: Bytes::copy_from_slice(&envelope),
        });
        assert_eq!(buf.as_ref(), generic.as_slice());
        assert_eq!(n, generic.len());
    }

    #[test]
    fn frame_pool_recycles_buffers() {
        let pool = FramePool::new();
        assert_eq!(pool.idle(), 0);
        let mut buf = pool.take();
        encode_into(&NetMessage::Heartbeat { worker: 1 }, &mut buf);
        let cap = buf.capacity();
        pool.put(buf);
        assert_eq!(pool.idle(), 1);
        let buf = pool.take();
        assert_eq!(pool.idle(), 0);
        assert_eq!(buf.capacity(), cap, "pool returns the warm buffer");
    }

    #[test]
    fn auth_token_is_deterministic_and_seed_sensitive() {
        assert_eq!(auth_token(2024), auth_token(2024));
        assert_ne!(auth_token(2024), auth_token(2025));
        assert_ne!(auth_token(0), 0, "token must not leak the seed directly");
    }

    #[test]
    fn stream_of_frames_reads_back_in_order() {
        let mut wire = Vec::new();
        for msg in examples() {
            let n = write_message(&mut wire, &msg).unwrap();
            assert_eq!(n, encode(&msg).len());
        }
        let mut cursor = Cursor::new(wire);
        for expected in examples() {
            assert_eq!(read_message(&mut cursor).unwrap().unwrap(), expected);
        }
        assert!(read_message(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_frames_error_at_every_cut() {
        let frame = encode(&NetMessage::Round {
            round: 5,
            epoch: 2,
            delay_seconds: 1.5,
            weights: vec![3.0, 4.0],
        });
        for cut in 1..frame.len() {
            let mut cursor = Cursor::new(frame[..cut].to_vec());
            let result = read_message(&mut cursor);
            assert!(result.is_err(), "cut at {cut} must be a framing error");
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.push(TAG_SHUTDOWN);
        let e = read_message(&mut Cursor::new(wire)).unwrap_err();
        assert!(matches!(e, ClusterError::Net(msg) if msg.contains("cap")));
    }

    #[test]
    fn zero_length_and_unknown_tag_rejected() {
        let e = read_message(&mut Cursor::new(0u32.to_le_bytes().to_vec())).unwrap_err();
        assert!(matches!(e, ClusterError::Net(msg) if msg.contains("zero-length")));
        let e = decode_frame(&[99]).unwrap_err();
        assert!(matches!(e, ClusterError::Net(msg) if msg.contains("unknown frame tag")));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = encode(&NetMessage::Skipped { round: 1 })[4..].to_vec();
        payload.push(0xAB);
        let e = decode_frame(&payload).unwrap_err();
        assert!(matches!(e, ClusterError::Net(msg) if msg.contains("trailing")));
    }

    #[test]
    fn round_weight_count_must_match_body() {
        let mut payload = encode(&NetMessage::Round {
            round: 1,
            epoch: 0,
            delay_seconds: 0.5,
            weights: vec![1.0, 2.0],
        })[4..]
            .to_vec();
        // Claim 3 weights while carrying 2 (count sits after round+epoch+delay).
        payload[25..33].copy_from_slice(&3u64.to_le_bytes());
        assert!(decode_frame(&payload).is_err());
    }
}
