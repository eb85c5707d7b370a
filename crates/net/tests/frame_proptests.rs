//! Property tests hardening the TCP frame codec: arbitrary messages
//! round-trip bit-exactly through the length-prefixed framing, and
//! arbitrary corruption — truncation, byte flips, garbage, hostile length
//! prefixes — always yields a typed [`ClusterError::Net`], never a panic,
//! hang, or over-read.
//!
//! Companion to `crates/cluster/tests/wire_proptests.rs`, which hardens
//! the inner gradient-envelope codec the same way; a `Data` frame's body
//! is exactly such an envelope, so the two suites together cover the full
//! master↔worker byte path.
//!
//! The read path is also driven through a socket that trickles 1–7 bytes
//! per call and interrupts itself, and at full size: a 131 072-weight
//! Round frame and a 1 MiB Data frame. Round frames are held to the
//! per-element encoder the bulk f64 codec replaced, and the head-then-body
//! frames the master and the workers send to the one-buffer encoders.

use bcc_cluster::ClusterError;
use bcc_net::frame::{self, NetMessage};
use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use std::io::{self, Cursor, ErrorKind, Read};

fn finite_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>().prop_filter("finite", |v| v.is_finite()),
        Just(0.0),
        Just(-0.0),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
    ]
}

fn message_strategy() -> impl Strategy<Value = NetMessage> {
    prop_oneof![
        (any::<u64>(), any::<u64>())
            .prop_map(|(worker, token)| NetMessage::Hello { worker, token }),
        (any::<u64>(), 0..3usize).prop_map(|(n, style)| {
            NetMessage::Job(match style {
                0 => String::new(),
                1 => format!("{{\"seed\": {n}}}"),
                _ => format!("job-{n}-\u{2713}"),
            })
        }),
        (any::<u64>(), 0..2usize).prop_map(|(n, style)| {
            NetMessage::Reject(match style {
                0 => String::new(),
                _ => format!("auth token mismatch ({n})"),
            })
        }),
        (
            any::<u64>(),
            any::<u64>(),
            finite_f64(),
            prop::collection::vec(finite_f64(), 0..32)
        )
            .prop_map(|(round, epoch, delay_seconds, weights)| NetMessage::Round {
                round,
                epoch,
                delay_seconds,
                weights,
            }),
        (any::<u64>(), prop::collection::vec(any::<u8>(), 0..64)).prop_map(|(epoch, raw)| {
            NetMessage::Data {
                epoch,
                payload: Bytes::from(raw),
            }
        }),
        any::<u64>().prop_map(|round| NetMessage::Skipped { round }),
        any::<u64>().prop_map(|worker| NetMessage::Heartbeat { worker }),
        any::<u64>().prop_map(|before_round| NetMessage::Finished { before_round }),
        Just(NetMessage::Shutdown),
        any::<u64>().prop_map(|queued| NetMessage::Backpressure { queued }),
    ]
}

/// A socket at its most awkward: each `read` returns 1–7 bytes, cycling
/// through `sizes`, and every `interrupt_every`-th call fails with
/// `ErrorKind::Interrupted` instead.
struct Trickle {
    inner: Cursor<Vec<u8>>,
    sizes: Vec<usize>,
    interrupt_every: usize,
    calls: usize,
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls += 1;
        if self.calls.is_multiple_of(self.interrupt_every) {
            return Err(ErrorKind::Interrupted.into());
        }
        let n = self.sizes[self.calls % self.sizes.len()].min(buf.len());
        self.inner.read(&mut buf[..n])
    }
}

/// The per-element Round encoder the bulk codec replaced: one
/// `extend_from_slice` per weight.
fn oracle_round_frame(round: u64, epoch: u64, delay_seconds: f64, weights: &[f64]) -> Vec<u8> {
    let mut frame = ((1 + 32 + 8 * weights.len()) as u32).to_le_bytes().to_vec();
    frame.push(2); // TAG_ROUND
    frame.extend_from_slice(&round.to_le_bytes());
    frame.extend_from_slice(&epoch.to_le_bytes());
    frame.extend_from_slice(&delay_seconds.to_le_bytes());
    frame.extend_from_slice(&(weights.len() as u64).to_le_bytes());
    for w in weights {
        frame.extend_from_slice(&w.to_le_bytes());
    }
    frame
}

fn weight_bits(msg: &NetMessage) -> Vec<u64> {
    match msg {
        NetMessage::Round { weights, .. } => weights.iter().map(|w| w.to_bits()).collect(),
        other => panic!("expected a Round frame, got {other:?}"),
    }
}

/// Any f64 bit pattern, weighted towards NaN payloads, ±0, subnormals and
/// ±∞ — the values a value-level codec could mangle.
fn any_bits_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>(),
        0x7FF0_0000_0000_0001..0x8000_0000_0000_0000u64,
        0xFFF0_0000_0000_0001..u64::MAX,
        1..0x0010_0000_0000_0000u64,
        Just(0x8000_0000_0000_0000u64),
        Just(f64::INFINITY.to_bits()),
        Just(f64::NEG_INFINITY.to_bits()),
    ]
    .prop_map(f64::from_bits)
}

const LARGE_WEIGHTS: usize = 131_072;

fn large_round_frame() -> Vec<u8> {
    let weights: Vec<f64> = (0..LARGE_WEIGHTS).map(|i| i as f64 * 0.5 - 7.0).collect();
    frame::encode(&NetMessage::Round {
        round: 3,
        epoch: 4,
        delay_seconds: 0.25,
        weights,
    })
}

fn large_data_frame() -> Vec<u8> {
    let payload: Vec<u8> = (0..1 << 20).map(|i: u32| (i * 31 % 251) as u8).collect();
    frame::encode(&NetMessage::Data {
        epoch: 9,
        payload: Bytes::from(payload),
    })
}

#[test]
fn large_frames_roundtrip() {
    for frame in [large_round_frame(), large_data_frame()] {
        let decoded = frame::decode_frame(&frame[4..]).unwrap();
        assert_eq!(frame::encode(&decoded), frame);
        let mut cursor = Cursor::new(frame.as_slice());
        assert_eq!(frame::read_message(&mut cursor).unwrap().unwrap(), decoded);
        assert!(frame::read_message(&mut cursor).unwrap().is_none());
    }
}

/// Truncation of the large frames: every cut in the first and last 64
/// bytes (the header, the tag, the first and last values), and a
/// prime-stride sweep in between. A full sweep re-reads up to 1 MiB per cut,
/// quadratic in the frame, so the middle is sampled at every residue mod 8.
#[test]
fn large_frames_truncated_anywhere_are_net_errors() {
    for frame in [large_round_frame(), large_data_frame()] {
        let len = frame.len();
        let cuts = (1..64)
            .chain((64..len - 64).step_by(509))
            .chain(len - 64..len);
        for cut in cuts {
            let result = frame::read_message(&mut Cursor::new(&frame[..cut]));
            assert!(
                matches!(result, Err(ClusterError::Net(_))),
                "cut at {cut} of {len} must be ClusterError::Net, got {result:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_message_roundtrips_through_framing(msg in message_strategy()) {
        let frame = frame::encode(&msg);
        // Pure codec layer.
        prop_assert_eq!(frame::decode_frame(&frame[4..]).unwrap(), msg.clone());
        // Stream layer.
        let mut cursor = Cursor::new(frame);
        prop_assert_eq!(frame::read_message(&mut cursor).unwrap().unwrap(), msg);
    }

    #[test]
    fn a_stream_of_messages_reads_back_in_order(
        msgs in prop::collection::vec(message_strategy(), 0..8)
    ) {
        let mut wire = Vec::new();
        for msg in &msgs {
            frame::write_message(&mut wire, msg).unwrap();
        }
        let mut cursor = Cursor::new(wire);
        for msg in &msgs {
            prop_assert_eq!(&frame::read_message(&mut cursor).unwrap().unwrap(), msg);
        }
        prop_assert!(frame::read_message(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn truncation_at_any_point_is_a_typed_error(
        msg in message_strategy(),
        cut_fraction in 0.0..1.0f64,
    ) {
        let frame = frame::encode(&msg);
        let cut = ((frame.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut > 0 && cut < frame.len());
        let mut cursor = Cursor::new(frame[..cut].to_vec());
        let result = frame::read_message(&mut cursor);
        prop_assert!(
            matches!(result, Err(ClusterError::Net(_))),
            "cut at {} of {} must be ClusterError::Net, got {:?}",
            cut, frame.len(), result
        );
    }

    #[test]
    fn flipping_any_byte_never_panics(
        msg in message_strategy(),
        position_fraction in 0.0..1.0f64,
        flip in 1..255u8,
    ) {
        let mut frame = frame::encode(&msg);
        let position = ((frame.len() as f64) * position_fraction) as usize % frame.len();
        frame[position] ^= flip;
        // A flipped byte may still be a valid frame (e.g. a changed worker
        // id) or corrupt the length prefix; either way: no panic, no
        // over-read past the buffer, and errors stay typed.
        let mut cursor = Cursor::new(frame);
        match frame::read_message(&mut cursor) {
            Ok(_) => {}
            Err(e) => prop_assert!(matches!(e, ClusterError::Net(_))),
        }
    }

    #[test]
    fn garbage_bytes_never_panic_or_overread(
        garbage in prop::collection::vec(any::<u8>(), 0..128)
    ) {
        // Stream layer over raw garbage.
        let mut cursor = Cursor::new(garbage.clone());
        match frame::read_message(&mut cursor) {
            Ok(_) => {}
            Err(e) => prop_assert!(matches!(e, ClusterError::Net(_))),
        }
        // Pure codec layer over the same garbage as a frame payload.
        match frame::decode_frame(&garbage) {
            Ok(_) => {}
            Err(e) => prop_assert!(matches!(e, ClusterError::Net(_))),
        }
    }

    #[test]
    fn hostile_length_prefixes_reject_before_allocation(len in any::<u32>()) {
        prop_assume!(len as usize > frame::MAX_FRAME_LEN || len == 0);
        let mut wire = len.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 16]);
        let e = frame::read_message(&mut Cursor::new(wire)).unwrap_err();
        prop_assert!(matches!(e, ClusterError::Net(_)));
    }

    #[test]
    fn unknown_tags_from_future_versions_error_cleanly(
        tag_offset in 0..246u8,
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // A frame from a newer protocol version must be a typed error on
        // this side, never a panic or a misparse as some known message.
        let tag = 10 + tag_offset; // every tag beyond the known 0..=9
        let mut payload = vec![tag];
        payload.extend_from_slice(&body);
        let e = frame::decode_frame(&payload).unwrap_err();
        prop_assert!(matches!(e, ClusterError::Net(_)));
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);
        let e = frame::read_message(&mut Cursor::new(wire)).unwrap_err();
        prop_assert!(matches!(e, ClusterError::Net(_)));
    }

    #[test]
    fn pooled_encoder_agrees_with_cold_encoder(msg in message_strategy()) {
        // The zero-copy hot path (encode_into over a reused BytesMut) must
        // produce the identical bytes the cold Vec encoder produces.
        let mut buf = bytes::BytesMut::with_capacity(0);
        let len = frame::encode_into(&msg, &mut buf);
        prop_assert_eq!(len, buf.as_ref().len());
        let cold = frame::encode(&msg);
        prop_assert_eq!(buf.as_ref(), cold.as_slice());
    }

    #[test]
    fn round_head_then_shared_body_is_the_round_frame(
        round in any::<u64>(),
        epoch in any::<u64>(),
        delay_seconds in any_bits_f64(),
        weights in prop::collection::vec(any_bits_f64(), 0..64),
    ) {
        // Broadcast encodes the weights once into a body every worker
        // shares and gives each worker its own head; the two written back
        // to back must be the frame the generic encoder produces.
        let head = frame::round_head(round, epoch, delay_seconds, weights.len());
        let mut sent = head.to_vec();
        sent.extend_from_slice(frame::encode_round_body(&weights).as_ref());
        let direct = frame::encode(&NetMessage::Round {
            round,
            epoch,
            delay_seconds,
            weights,
        });
        prop_assert_eq!(sent, direct);
    }

    #[test]
    fn data_head_then_envelope_is_the_data_frame(
        epoch in any::<u64>(),
        envelope in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        // A worker writes the Data head and then its staged envelope; the
        // two must be the bytes `encode_data_frame_into` builds in one
        // buffer.
        let mut sent = frame::data_head(epoch, envelope.len()).to_vec();
        sent.extend_from_slice(&envelope);
        let mut buf = BytesMut::with_capacity(0);
        let len = frame::encode_data_frame_into(&mut buf, epoch, &envelope);
        prop_assert_eq!(len, sent.len());
        prop_assert_eq!(sent.as_slice(), buf.as_ref());
    }

    #[test]
    fn any_stream_reads_back_through_a_trickling_interrupting_socket(
        msgs in prop::collection::vec(message_strategy(), 1..6),
        sizes in prop::collection::vec(1..8usize, 1..8),
        interrupt_every in 2..6usize,
    ) {
        let mut wire = Vec::new();
        for msg in &msgs {
            frame::write_message(&mut wire, msg).unwrap();
        }
        let mut socket = Trickle {
            inner: Cursor::new(wire),
            sizes,
            interrupt_every,
            calls: 0,
        };
        for msg in &msgs {
            prop_assert_eq!(&frame::read_message(&mut socket).unwrap().unwrap(), msg);
        }
        prop_assert!(frame::read_message(&mut socket).unwrap().is_none());
    }

    #[test]
    fn data_frames_read_zero_copy_equal_decode_frame(
        epoch in any::<u64>(),
        raw in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        let frame = frame::encode(&NetMessage::Data {
            epoch,
            payload: Bytes::from(raw),
        });
        let read = frame::read_message(&mut Cursor::new(frame.as_slice()))
            .unwrap()
            .unwrap();
        prop_assert_eq!(read, frame::decode_frame(&frame[4..]).unwrap());
    }

    #[test]
    fn bulk_round_codec_matches_the_per_element_oracle(
        round in any::<u64>(),
        epoch in any::<u64>(),
        delay_seconds in any_bits_f64(),
        weights in prop::collection::vec(any_bits_f64(), 0..301),
    ) {
        let oracle = oracle_round_frame(round, epoch, delay_seconds, &weights);
        let mut buf = BytesMut::with_capacity(0);
        frame::encode_round_into(&mut buf, round, epoch, delay_seconds, &weights);
        prop_assert_eq!(buf.as_ref(), oracle.as_slice());
        let msg = NetMessage::Round { round, epoch, delay_seconds, weights };
        frame::encode_into(&msg, &mut buf);
        prop_assert_eq!(buf.as_ref(), oracle.as_slice());

        let decoded = frame::decode_frame(&oracle[4..]).unwrap();
        prop_assert_eq!(weight_bits(&decoded), weight_bits(&msg));
        let read = frame::read_message(&mut Cursor::new(oracle.as_slice()))
            .unwrap()
            .unwrap();
        prop_assert_eq!(weight_bits(&read), weight_bits(&msg));
    }
}
