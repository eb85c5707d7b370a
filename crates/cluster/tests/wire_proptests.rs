//! Property tests for the wire codec: arbitrary envelopes roundtrip
//! bit-exactly, and arbitrary byte garbage never panics the decoder.

use bcc_cluster::message::Envelope;
use bcc_cluster::wire;
use bcc_coding::Payload;
use proptest::prelude::*;

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
}
