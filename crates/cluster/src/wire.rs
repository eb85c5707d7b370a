//! Byte-level wire codec for worker messages.
//!
//! The threaded runtime ships every message through this codec so that
//! (a) the communication-load accounting can be cross-checked in actual
//! bytes and (b) the runtime exercises a realistic serialize → channel →
//! deserialize path rather than passing Rust objects by pointer.
//!
//! Format (little-endian):
//!
//! ```text
//! magic  u32 = 0xBCC0_17E5
//! ver    u8  = 1
//! kind   u8  : 0 Sum | 1 Linear | 3 PerExample
//!              (2 was the complex payload of the deleted cyclic-MDS scheme;
//!              it stays unassigned so the other kinds keep their bytes, and
//!              decodes to `ClusterError::Wire` like any unknown kind)
//! iter   u64
//! worker u64
//! compute_seconds f64
//! body   (per kind, see encode_payload)
//! ```

use crate::error::ClusterError;
use crate::message::Envelope;
use bcc_coding::Payload;
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: u32 = 0xBCC0_17E5;
const VERSION: u8 = 1;

/// Header size: magic + version + kind + iter + worker + compute_seconds.
const HEADER_LEN: usize = 4 + 1 + 1 + 8 + 8 + 8;

/// Exact wire size of a payload body, so encode buffers reserve once and
/// never grow mid-message.
#[must_use]
fn payload_body_len(p: &Payload) -> usize {
    match p {
        Payload::Sum { vector, .. } => 8 + 8 + 8 * vector.len(),
        Payload::Linear { vector } => 8 + 8 * vector.len(),
        Payload::PerExample { entries } => {
            8 + entries
                .iter()
                .map(|(_, g)| 8 + 8 + 8 * g.len())
                .sum::<usize>()
        }
    }
}

/// Serializes an envelope to bytes (fresh exact-size buffer).
#[must_use]
pub fn encode(envelope: &Envelope) -> Bytes {
    let mut buf = BytesMut::with_capacity(HEADER_LEN + payload_body_len(&envelope.payload));
    encode_into(envelope, &mut buf);
    buf.freeze()
}

/// Serializes an envelope into a reusable staging buffer: clears `buf`,
/// reserves the exact message size, and writes the envelope. Workers keep
/// one `BytesMut` alive across rounds so steady-state encoding never grows
/// a buffer.
pub fn encode_into(envelope: &Envelope, buf: &mut BytesMut) {
    buf.clear();
    buf.reserve(HEADER_LEN + payload_body_len(&envelope.payload));
    buf.put_u32_le(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(payload_kind(&envelope.payload));
    buf.put_u64_le(envelope.iteration);
    buf.put_u64_le(envelope.worker as u64);
    buf.put_f64_le(envelope.compute_seconds);
    encode_payload(&envelope.payload, buf);
    debug_assert_eq!(
        buf.len(),
        HEADER_LEN + payload_body_len(&envelope.payload),
        "payload_body_len must stay in sync with encode_payload"
    );
}

fn payload_kind(p: &Payload) -> u8 {
    match p {
        Payload::Sum { .. } => 0,
        Payload::Linear { .. } => 1,
        Payload::PerExample { .. } => 3,
    }
}

fn encode_payload(p: &Payload, buf: &mut BytesMut) {
    match p {
        Payload::Sum { unit, vector } => {
            buf.put_u64_le(*unit as u64);
            put_vec(buf, vector);
        }
        Payload::Linear { vector } => put_vec(buf, vector),
        Payload::PerExample { entries } => {
            buf.put_u64_le(entries.len() as u64);
            for (j, g) in entries {
                buf.put_u64_le(*j as u64);
                put_vec(buf, g);
            }
        }
    }
}

fn put_vec(buf: &mut BytesMut, v: &[f64]) {
    buf.put_u64_le(v.len() as u64);
    put_f64s_le(buf, v);
}

/// Values staged per `extend_from_slice` in [`put_f64s_le`] (512 bytes).
const F64_BLOCK: usize = 64;

/// Appends `values` to `buf` as little-endian f64s, 8 bytes each with no
/// length word — the one f64 encode loop on the wire (envelope vectors
/// here, Round-frame weights in `bcc_net::frame`). Values are staged in a
/// stack block and appended one block per `extend_from_slice`, so the loop
/// body is a fixed-size copy the compiler vectorises.
pub fn put_f64s_le(buf: &mut BytesMut, values: &[f64]) {
    let mut block = [0u8; 8 * F64_BLOCK];
    for chunk in values.chunks(F64_BLOCK) {
        for (dst, x) in block.chunks_exact_mut(8).zip(chunk) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
        buf.extend_from_slice(&block[..8 * chunk.len()]);
    }
}

/// Reads little-endian f64s back from `bytes`, the inverse of
/// [`put_f64s_le`]: one bulk pass into an exact-size `Vec` (bit patterns,
/// NaN payloads included, are preserved). Callers check `bytes.len()`
/// against the count their format carries.
///
/// # Panics
/// Panics when `bytes.len()` is not a multiple of 8.
#[must_use]
pub fn f64s_from_le(bytes: &[u8]) -> Vec<f64> {
    assert!(
        bytes.len().is_multiple_of(8),
        "f64 block must be whole values"
    );
    bytes
        .chunks_exact(8)
        .map(|b| {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(b);
            f64::from_le_bytes(raw)
        })
        .collect()
}

/// Deserializes an envelope from bytes.
///
/// # Errors
/// [`ClusterError::Wire`] on truncation, bad magic, or unknown versions.
pub fn decode(mut bytes: Bytes) -> Result<Envelope, ClusterError> {
    let need = |b: &Bytes, n: usize, what: &str| -> Result<(), ClusterError> {
        if b.remaining() < n {
            Err(ClusterError::Wire(format!("truncated reading {what}")))
        } else {
            Ok(())
        }
    };

    need(&bytes, 4 + 1 + 1 + 8 + 8 + 8, "header")?;
    let magic = bytes.get_u32_le();
    if magic != MAGIC {
        return Err(ClusterError::Wire(format!("bad magic {magic:#x}")));
    }
    let version = bytes.get_u8();
    if version != VERSION {
        return Err(ClusterError::Wire(format!("unsupported version {version}")));
    }
    let kind = bytes.get_u8();
    let iteration = bytes.get_u64_le();
    let worker = bytes.get_u64_le() as usize;
    let compute_seconds = bytes.get_f64_le();

    let payload = match kind {
        0 => {
            need(&bytes, 8, "sum unit")?;
            let unit = bytes.get_u64_le() as usize;
            let vector = get_vec(&mut bytes)?;
            Payload::Sum { unit, vector }
        }
        1 => Payload::Linear {
            vector: get_vec(&mut bytes)?,
        },
        3 => {
            need(&bytes, 8, "entry count")?;
            let count = bytes.get_u64_le() as usize;
            let mut entries = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                need(&bytes, 8, "entry index")?;
                let j = bytes.get_u64_le() as usize;
                entries.push((j, get_vec(&mut bytes)?));
            }
            Payload::PerExample { entries }
        }
        k => return Err(ClusterError::Wire(format!("unknown payload kind {k}"))),
    };

    Ok(Envelope {
        iteration,
        worker,
        compute_seconds,
        payload,
    })
}

fn get_vec(bytes: &mut Bytes) -> Result<Vec<f64>, ClusterError> {
    if bytes.remaining() < 8 {
        return Err(ClusterError::Wire("truncated reading vec len".into()));
    }
    let body_len = (bytes.get_u64_le() as usize).saturating_mul(8);
    if bytes.remaining() < body_len {
        return Err(ClusterError::Wire("truncated reading vec body".into()));
    }
    let v = f64s_from_le(&bytes.chunk()[..body_len]);
    bytes.advance(body_len);
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(payload: Payload) -> Envelope {
        Envelope {
            iteration: 9,
            worker: 4,
            compute_seconds: 1.25,
            payload,
        }
    }

    #[test]
    fn roundtrip_sum() {
        let e = env(Payload::Sum {
            unit: 3,
            vector: vec![1.0, -2.5, 3.25],
        });
        let decoded = decode(encode(&e)).unwrap();
        assert_eq!(decoded, e);
    }

    #[test]
    fn roundtrip_linear() {
        let e = env(Payload::Linear {
            vector: vec![0.0; 17],
        });
        assert_eq!(decode(encode(&e)).unwrap(), e);
    }

    #[test]
    fn retired_kind_two_is_an_unknown_kind() {
        // Byte 5 is the kind; 2 once meant a complex payload. A frame from a
        // peer that still sends it is rejected, not reinterpreted.
        let e = env(Payload::Linear {
            vector: vec![1.0, -1.0, 0.5, 2.0],
        });
        let mut bytes = encode(&e).to_vec();
        assert_eq!(bytes[5], 1);
        bytes[5] = 2;
        assert!(matches!(
            decode(Bytes::from(bytes)),
            Err(ClusterError::Wire(msg)) if msg.contains("unknown payload kind 2")
        ));
    }

    #[test]
    fn payload_kind_bytes_are_pinned() {
        for (payload, kind) in [
            (
                Payload::Sum {
                    unit: 0,
                    vector: vec![],
                },
                0,
            ),
            (Payload::Linear { vector: vec![] }, 1),
            (Payload::PerExample { entries: vec![] }, 3),
        ] {
            assert_eq!(encode(&env(payload)).to_vec()[5], kind);
        }
    }

    #[test]
    fn roundtrip_per_example() {
        let e = env(Payload::PerExample {
            entries: vec![(0, vec![1.0]), (5, vec![2.0, 3.0])],
        });
        assert_eq!(decode(encode(&e)).unwrap(), e);
    }

    #[test]
    fn roundtrip_empty_vectors() {
        let e = env(Payload::Linear { vector: vec![] });
        assert_eq!(decode(encode(&e)).unwrap(), e);
        let e = env(Payload::PerExample { entries: vec![] });
        assert_eq!(decode(encode(&e)).unwrap(), e);
    }

    #[test]
    fn bad_magic_rejected() {
        let e = env(Payload::Linear { vector: vec![1.0] });
        let mut bytes = encode(&e).to_vec();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            decode(Bytes::from(bytes)),
            Err(ClusterError::Wire(_))
        ));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let e = env(Payload::PerExample {
            entries: vec![(1, vec![1.0, 2.0, 3.0])],
        });
        let full = encode(&e);
        for cut in 0..full.len() {
            let partial = full.slice(0..cut);
            assert!(
                decode(partial).is_err(),
                "decode of {cut}-byte prefix should fail"
            );
        }
    }

    #[test]
    fn unknown_version_rejected() {
        let e = env(Payload::Linear { vector: vec![] });
        let mut bytes = encode(&e).to_vec();
        bytes[4] = 99;
        assert!(matches!(
            decode(Bytes::from(bytes)),
            Err(ClusterError::Wire(msg)) if msg.contains("version")
        ));
    }

    #[test]
    fn encode_into_reuses_buffer_across_messages() {
        let mut buf = BytesMut::with_capacity(0);
        let big = env(Payload::Linear {
            vector: vec![1.5; 64],
        });
        let small = env(Payload::Sum {
            unit: 1,
            vector: vec![-2.0; 3],
        });
        for e in [&big, &small, &big] {
            encode_into(e, &mut buf);
            let bytes = Bytes::copy_from_slice(buf.as_ref());
            assert_eq!(&decode(bytes).unwrap(), e, "reused buffer round-trips");
        }
    }

    #[test]
    fn per_example_is_proportionally_larger() {
        // The wire-level counterpart of eq. (6): r per-example entries cost
        // ~r× the bytes of one summed message of the same dimension.
        let dim = 64;
        let summed = env(Payload::Sum {
            unit: 0,
            vector: vec![1.0; dim],
        });
        let r = 10;
        let per_example = env(Payload::PerExample {
            entries: (0..r).map(|j| (j, vec![1.0; dim])).collect(),
        });
        let ratio = encode(&per_example).len() as f64 / encode(&summed).len() as f64;
        assert!(
            (ratio - r as f64).abs() < 1.0,
            "byte ratio {ratio} should be ≈ {r}"
        );
    }
}
