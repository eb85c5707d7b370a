//! Property tests for the wire codec: arbitrary envelopes roundtrip
//! bit-exactly, arbitrary byte garbage never panics the decoder, and the
//! bulk f64 codec writes and reads exactly the bytes of the per-element
//! loops it replaced (kept below as the oracle).

use bcc_cluster::message::Envelope;
use bcc_cluster::wire;
use bcc_coding::Payload;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use proptest::prelude::*;

/// The per-element envelope encoder the bulk codec replaced: one
/// `put_f64_le` per value.
fn oracle_encode(env: &Envelope) -> Vec<u8> {
    fn put_vec(buf: &mut BytesMut, v: &[f64]) {
        buf.put_u64_le(v.len() as u64);
        for x in v {
            buf.put_f64_le(*x);
        }
    }
    let mut buf = BytesMut::new();
    buf.put_u32_le(0xBCC0_17E5);
    buf.put_u8(1);
    buf.put_u8(match env.payload {
        Payload::Sum { .. } => 0,
        Payload::Linear { .. } => 1,
        Payload::PerExample { .. } => 3,
    });
    buf.put_u64_le(env.iteration);
    buf.put_u64_le(env.worker as u64);
    buf.put_f64_le(env.compute_seconds);
    match &env.payload {
        Payload::Sum { unit, vector } => {
            buf.put_u64_le(*unit as u64);
            put_vec(&mut buf, vector);
        }
        Payload::Linear { vector } => put_vec(&mut buf, vector),
        Payload::PerExample { entries } => {
            buf.put_u64_le(entries.len() as u64);
            for (j, g) in entries {
                buf.put_u64_le(*j as u64);
                put_vec(&mut buf, g);
            }
        }
    }
    buf.as_ref().to_vec()
}

/// The per-element decoder the bulk codec replaced, over a well-formed
/// envelope: every vector in payload order, one `get_f64_le` per value.
fn oracle_vectors(mut b: Bytes) -> Vec<Vec<f64>> {
    fn get_vec(b: &mut Bytes) -> Vec<f64> {
        let len = b.get_u64_le() as usize;
        (0..len).map(|_| b.get_f64_le()).collect()
    }
    b.advance(4 + 1);
    let kind = b.get_u8();
    b.advance(8 + 8 + 8);
    match kind {
        0 => {
            b.advance(8);
            vec![get_vec(&mut b)]
        }
        1 => vec![get_vec(&mut b)],
        _ => {
            let count = b.get_u64_le();
            (0..count)
                .map(|_| {
                    b.advance(8);
                    get_vec(&mut b)
                })
                .collect()
        }
    }
}

fn vectors(p: &Payload) -> Vec<&[f64]> {
    match p {
        Payload::Sum { vector, .. } | Payload::Linear { vector } => vec![vector],
        Payload::PerExample { entries } => entries.iter().map(|(_, g)| g.as_slice()).collect(),
    }
}

fn bits(vs: &[&[f64]]) -> Vec<Vec<u64>> {
    vs.iter()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// Any f64 bit pattern, weighted towards the ones a value-level codec
/// could mangle: NaN payloads of both signs, ±0, subnormals, ±∞.
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

/// Lengths 0..=300 cross the 64-value encode block on both sides.
fn block_crossing_vec() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(any_bits_f64(), 0..301)
}

fn bulk_payload_strategy() -> impl Strategy<Value = Payload> {
    prop_oneof![
        (any::<u16>(), block_crossing_vec()).prop_map(|(unit, vector)| Payload::Sum {
            unit: unit as usize,
            vector
        }),
        block_crossing_vec().prop_map(|vector| Payload::Linear { vector }),
        prop::collection::vec((any::<u16>(), block_crossing_vec()), 0..4).prop_map(|entries| {
            Payload::PerExample {
                entries: entries.into_iter().map(|(j, g)| (j as usize, g)).collect(),
            }
        }),
    ]
}

fn vec_f64(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            any::<f64>().prop_filter("finite", |v| v.is_finite()),
            Just(0.0),
            Just(-0.0),
            Just(f64::MIN_POSITIVE),
            Just(f64::MAX),
        ],
        0..max_len,
    )
}

fn payload_strategy() -> impl Strategy<Value = Payload> {
    prop_oneof![
        (any::<u16>(), vec_f64(32)).prop_map(|(unit, vector)| Payload::Sum {
            unit: unit as usize,
            vector
        }),
        vec_f64(32).prop_map(|vector| Payload::Linear { vector }),
        prop::collection::vec((any::<u16>(), vec_f64(8)), 0..8).prop_map(|entries| {
            Payload::PerExample {
                entries: entries.into_iter().map(|(j, g)| (j as usize, g)).collect(),
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip_any_envelope(
        iteration in any::<u32>(),
        worker in any::<u16>(),
        compute_seconds in 0.0..1e6f64,
        payload in payload_strategy(),
    ) {
        let env = Envelope {
            iteration: u64::from(iteration),
            worker: worker as usize,
            compute_seconds,
            payload,
        };
        let bytes = wire::encode(&env);
        let back = wire::decode(bytes).expect("own encoding must decode");
        prop_assert_eq!(back, env);
    }

    #[test]
    fn garbage_bytes_never_panic(garbage in prop::collection::vec(any::<u8>(), 0..256)) {
        // Decoding arbitrary bytes may fail, but must never panic or hang.
        let _ = wire::decode(bytes::Bytes::from(garbage));
    }

    #[test]
    fn truncations_of_valid_messages_fail_cleanly(
        payload in payload_strategy(),
        cut_fraction in 0.0..1.0f64,
    ) {
        let env = Envelope {
            iteration: 1,
            worker: 2,
            compute_seconds: 3.0,
            payload,
        };
        let full = wire::encode(&env);
        let cut = ((full.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < full.len());
        prop_assert!(wire::decode(full.slice(0..cut)).is_err());
    }

    #[test]
    fn corrupting_the_kind_byte_is_rejected_or_structural(
        vector in vec_f64(16),
        // 2 is the retired complex kind: unassigned, like everything ≥ 4.
        bad_kind in prop_oneof![Just(2u8), 4u8..255],
    ) {
        let env = Envelope {
            iteration: 0,
            worker: 0,
            compute_seconds: 0.0,
            payload: Payload::Linear { vector },
        };
        let mut bytes = wire::encode(&env).to_vec();
        bytes[5] = bad_kind; // kind byte position per the format doc
        prop_assert!(wire::decode(bytes::Bytes::from(bytes)).is_err());
    }

    #[test]
    fn bulk_codec_matches_the_per_element_oracle(
        payload in bulk_payload_strategy(),
        compute_seconds in any_bits_f64(),
    ) {
        let env = Envelope {
            iteration: 7,
            worker: 3,
            compute_seconds,
            payload,
        };
        let oracle = oracle_encode(&env);
        prop_assert_eq!(wire::encode(&env).to_vec(), oracle.clone());
        let mut warm = BytesMut::with_capacity(0);
        wire::encode_into(&env, &mut warm);
        prop_assert_eq!(warm.as_ref(), oracle.as_slice());

        let decoded = wire::decode(Bytes::from(oracle.clone())).expect("oracle bytes decode");
        let expected = oracle_vectors(Bytes::from(oracle));
        let expected: Vec<&[f64]> = expected.iter().map(Vec::as_slice).collect();
        prop_assert_eq!(bits(&vectors(&decoded.payload)), bits(&expected));
        prop_assert_eq!(bits(&vectors(&decoded.payload)), bits(&vectors(&env.payload)));
        prop_assert_eq!(decoded.compute_seconds.to_bits(), compute_seconds.to_bits());
    }

    #[test]
    fn bulk_helpers_invert_each_other(values in block_crossing_vec()) {
        let mut buf = BytesMut::new();
        wire::put_f64s_le(&mut buf, &values);
        let mut oracle = BytesMut::new();
        for x in &values {
            oracle.put_f64_le(*x);
        }
        prop_assert_eq!(buf.as_ref(), oracle.as_ref());
        let back = wire::f64s_from_le(buf.as_ref());
        prop_assert_eq!(bits(&[&back]), bits(&[&values]));
    }
}
