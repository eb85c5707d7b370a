//! The `GradientCodingScheme` / `Decoder` contract, checked for every scheme
//! a registry knows — the table is `hetero::schemes(&profile).names()`: the
//! built-ins plus §IV's `generalized-bcc` and `load-balanced` on a graded
//! 20-worker cluster, so a newly registered scheme is covered without
//! touching this file.
//!
//! Per scheme, over random arrival orders × seeds at `m = n = 20`, `r = 4`
//! (workers a placement leaves empty never report, as in the round engine):
//! exact recovery, `NotComplete` from an empty or incomplete decoder,
//! truthful monotone coverage, the partial readout, and `receive` rejecting
//! hostile input atomically — and the promise behind
//! `GradientCodingScheme::message_slot`: workers naming one slot send one
//! message, bit for bit, under the tag their decoder files it in.

use bcc_cluster::ClusterProfile;
use bcc_coding::scheme::test_support::{random_gradients, total_sum, worker_partials};
use bcc_coding::{CodingError, Decoder, GradientCodingScheme, Payload};
use bcc_core::{hetero, SchemeSpec};
use bcc_stats::rng::derive_rng;
use rand::seq::SliceRandom;
use std::collections::{BTreeMap, BTreeSet};

const M: usize = 20;
const N: usize = 20;
const R: usize = 4;
const SEEDS: u64 = 6;
const ORDERS: u64 = 3;

type Scheme = Box<dyn GradientCodingScheme>;

/// Speeds 1..=5: P2 loads of 3 to 5 examples for generalized BCC, and a
/// load-balanced split that leaves the slowest workers empty.
fn profile() -> ClusterProfile {
    let free_link = ClusterProfile::fig5_heterogeneous().comm;
    let mut profile = ClusterProfile::homogeneous(N, 1.0, 1.0, free_link);
    for (i, worker) in profile.workers.iter_mut().enumerate() {
        worker.mu += (i % 5) as f64;
    }
    profile
}

fn schemes_under_test(seed: u64) -> Vec<Scheme> {
    let registry = hetero::schemes(&profile());
    let mut rng = derive_rng(seed, 0x5c4e);
    registry
        .names()
        .iter()
        .map(|name| {
            let scheme = registry
                .build(&SchemeSpec::with_load(name, R), M, N, &mut rng)
                .unwrap_or_else(|e| panic!("`{name}` builds at ({M}, {N}, {R}): {e}"));
            assert_eq!(scheme.name(), name, "report name = registry name");
            assert_eq!((scheme.num_examples(), scheme.num_workers()), (M, N));
            assert!(scheme.placement().covers_all(), "{name}");
            scheme
        })
        .collect()
}

/// The loaded workers in a random order.
fn arrival_order(scheme: &dyn GradientCodingScheme, seed: u64, k: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..N).collect();
    order.shuffle(&mut derive_rng(seed, 0x0a11 + k));
    order.retain(|&worker| scheme.placement().load_of(worker) > 0);
    order
}

fn encode(scheme: &dyn GradientCodingScheme, worker: usize, grads: &[Vec<f64>]) -> Payload {
    let partials = worker_partials(scheme.placement(), worker, grads);
    let payload = scheme.encode(worker, &partials).expect("encode");
    assert_eq!(
        payload.units(),
        scheme.message_units(worker),
        "{}: message_units must price the payload encode builds",
        scheme.name()
    );
    payload
}

/// `Σ_{j ∈ units} g_j`, folded in unit order.
fn sum_over(units: &[bool], grads: &[Vec<f64>]) -> Vec<f64> {
    let covered = grads.iter().zip(units).filter(|(_, c)| **c).map(|(g, _)| g);
    total_sum(&covered.cloned().collect::<Vec<_>>())
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Everything a caller can observe of a decoder, bit-exact.
fn observables(dec: &dyn Decoder) -> impl PartialEq + std::fmt::Debug {
    (
        dec.messages_received(),
        dec.communication_units(),
        dec.coverage(),
        dec.is_complete(),
        dec.decode_partial().map(|v| bits(&v)),
        dec.decode().map(|v| bits(&v)),
    )
}

#[test]
fn every_registered_scheme_decodes_and_covers() {
    for seed in 0..SEEDS {
        for scheme in schemes_under_test(seed) {
            let grads = random_gradients(M, 9, seed ^ 0x9e);
            for k in 0..ORDERS {
                let what = format!("{} (seed {seed}, order {k})", scheme.name());
                let mut dec = scheme.decoder();
                let nothing = Err(CodingError::NotComplete { received: 0 });
                assert_eq!(dec.decode(), nothing, "{what}: empty decode");
                assert_eq!(dec.decode_partial(), nothing, "{what}: empty readout");
                let mut heard = vec![false; M];
                let mut covered_before = 0;
                for worker in arrival_order(scheme.as_ref(), seed, k) {
                    let done = dec
                        .receive(worker, encode(scheme.as_ref(), worker, &grads))
                        .expect("receive");
                    assert_eq!(done, dec.is_complete(), "{what}");
                    for &unit in scheme.placement().worker_examples(worker) {
                        heard[unit] = true;
                    }
                    let heard_units = heard.iter().filter(|h| **h).count();

                    // Coverage: monotone, truthful, full no later than
                    // completion. A decoder either counts exactly the units
                    // of the workers heard or (all-or-nothing) none yet.
                    let coverage = dec.coverage();
                    assert_eq!(coverage.total_units, M, "{what}");
                    assert!(coverage.covered_units >= covered_before, "{what}");
                    covered_before = coverage.covered_units;
                    assert!(!done || coverage.is_full(), "{what}: complete ⇒ full");
                    if !done {
                        assert_eq!(
                            dec.decode(),
                            Err(CodingError::NotComplete {
                                received: dec.messages_received()
                            }),
                            "{what}: no exact decode before completion"
                        );
                    }
                    let partial = dec.decode_partial();
                    if coverage.covered_units == 0 {
                        assert_eq!(
                            partial,
                            Err(CodingError::NotComplete {
                                received: dec.messages_received()
                            }),
                            "{what}: nothing covered, nothing to read out"
                        );
                    } else {
                        assert_eq!(coverage.covered_units, heard_units, "{what}");
                        let partial = partial.expect("covered units read out");
                        let expect = sum_over(&heard, &grads);
                        assert!(
                            bcc_linalg::approx_eq_slice(&partial, &expect, 1e-6),
                            "{what}: partial readout ≠ Σ over the covered units"
                        );
                    }
                }

                // Everyone reported: decode ≡ Σ gⱼ.
                assert!(dec.is_complete(), "{what}: all loaded workers must suffice");
                let decoded = dec.decode().expect("decode");
                assert!(
                    bcc_linalg::approx_eq_slice(&decoded, &total_sum(&grads), 1e-6),
                    "{what}: decode ≠ Σ gⱼ"
                );
            }
        }
    }
}

/// A payload of a variant `valid`'s scheme does not speak.
fn other_variant(valid: &Payload) -> Payload {
    match valid {
        Payload::Linear { vector } => Payload::Sum {
            unit: 0,
            vector: vector.clone(),
        },
        other => Payload::Linear {
            vector: vec![0.0; other.dim()],
        },
    }
}

/// `valid` with its slot ids tampered: each result names slots other than
/// exactly the ones the placement assigns the sender.
fn wrong_slots(valid: &Payload) -> Vec<Payload> {
    match valid {
        Payload::Sum { unit, vector } => vec![
            Payload::Sum {
                unit: usize::from(*unit == 0),
                vector: vector.clone(),
            },
            Payload::Sum {
                unit: usize::MAX,
                vector: vector.clone(),
            },
        ],
        Payload::PerExample { entries } => {
            let with_last = |id: usize| {
                let mut entries = entries.clone();
                entries.last_mut().expect("r ≥ 1 entries").0 = id;
                Payload::PerExample { entries }
            };
            let not_assigned = (0..M).find(|j| entries.iter().all(|(id, _)| id != j));
            let mut short = entries.clone();
            short.pop();
            vec![
                // Leading entries valid, last id out of range: the case the
                // per-example decoders used to half-apply.
                with_last(M),
                with_last(not_assigned.expect("r < m")),
                // A repeated id within one message.
                with_last(entries[0].0),
                Payload::PerExample { entries: short },
            ]
        }
        // No slot ids to tamper with.
        Payload::Linear { .. } => vec![],
    }
}

#[test]
fn rejected_messages_leave_every_registered_decoder_untouched() {
    for seed in 0..SEEDS {
        for scheme in schemes_under_test(seed) {
            let what = format!("{} (seed {seed})", scheme.name());
            let grads = random_gradients(M, 5, seed ^ 0x7a);
            let order = arrival_order(scheme.as_ref(), seed, 0);
            // The heaviest other worker: a tampered per-example message
            // needs two entries to repeat an id in.
            let load = |worker: &&usize| scheme.placement().load_of(**worker);
            let (first, sender) = (order[0], *order[1..].iter().max_by_key(load).unwrap());
            let mut dec = scheme.decoder();
            dec.receive(first, encode(scheme.as_ref(), first, &grads))
                .expect("first message");
            let valid = encode(scheme.as_ref(), sender, &grads);
            let before = observables(dec.as_ref());

            let mut hostile = vec![(sender, other_variant(&valid), "wrong variant")];
            for payload in wrong_slots(&valid) {
                hostile.push((sender, payload, "wrong slots"));
            }
            for (worker, payload, why) in hostile {
                let err = dec.receive(worker, payload).expect_err(why);
                assert!(
                    matches!(err, CodingError::MalformedPayload { .. }),
                    "{what}: {why} → {err:?}"
                );
                assert_eq!(observables(dec.as_ref()), before, "{what}: {why}");
            }
            assert_eq!(
                dec.receive(N, valid.clone()),
                Err(CodingError::UnknownWorker {
                    worker: N,
                    num_workers: N
                }),
                "{what}"
            );
            assert_eq!(
                dec.receive(first, encode(scheme.as_ref(), first, &grads)),
                Err(CodingError::DuplicateWorker { worker: first }),
                "{what}"
            );
            assert_eq!(
                observables(dec.as_ref()),
                before,
                "{what}: unknown / duplicate"
            );

            // None of the rejections marked `sender` as heard.
            dec.receive(sender, valid)
                .expect("the valid message still lands");
            assert_eq!(dec.messages_received(), 2, "{what}");
        }
    }
}

#[test]
fn workers_naming_one_message_slot_send_one_message() {
    let mut sharing = BTreeSet::new();
    for seed in 0..SEEDS {
        for scheme in schemes_under_test(seed) {
            let name = scheme.name();
            let grads = random_gradients(M, 7, seed ^ 0x51);
            let mut senders: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for worker in 0..N {
                if let Some(slot) = scheme.message_slot(worker) {
                    senders.entry(slot).or_default().push(worker);
                }
            }
            for (&slot, workers) in &senders {
                let what = format!("{name} (seed {seed}, slot {slot})");
                let tag_and_bits = |payload: &Payload| match payload {
                    Payload::Sum { unit, vector } => (*unit, bits(vector)),
                    other => panic!("{what}: a slot's message is a Sum, got {other:?}"),
                };
                let (_, first) = tag_and_bits(&encode(scheme.as_ref(), workers[0], &grads));
                for &worker in workers {
                    assert_eq!(
                        scheme.placement().worker_examples(worker),
                        scheme.placement().worker_examples(workers[0]),
                        "{what}: one slot, one placement row"
                    );
                    let payload = encode(scheme.as_ref(), worker, &grads);
                    assert_eq!(
                        tag_and_bits(&payload),
                        (slot, first.clone()),
                        "{what}: worker {worker} sends the slot's message, bit for bit"
                    );
                    scheme
                        .decoder()
                        .receive(worker, payload)
                        .unwrap_or_else(|e| panic!("{what}: worker {worker} rejected: {e}"));
                }
                if workers.len() > 1 {
                    sharing.insert(name);
                }
            }
        }
    }
    for name in ["bcc", "fractional-repetition"] {
        assert!(
            sharing.contains(name),
            "{name} shares a slot at ({M}, {N}, {R}): {sharing:?}"
        );
    }
}

#[test]
fn equal_rows_with_other_coefficients_name_no_slot() {
    // Cyclic repetition at r = n: every worker holds every unit, but each
    // row of the coding matrix weighs them differently, so equal placement
    // rows are no promise of one message.
    let registry = hetero::schemes(&profile());
    let scheme = registry
        .build(
            &SchemeSpec::with_load("cyclic-repetition", N),
            M,
            N,
            &mut derive_rng(3, 0x5c4e),
        )
        .expect("cyclic repetition builds at r = n");
    let grads = random_gradients(M, 7, 0x51);
    let first = encode(scheme.as_ref(), 0, &grads);
    for worker in 0..N {
        assert_eq!(
            scheme.placement().worker_examples(worker),
            scheme.placement().worker_examples(0)
        );
        assert_eq!(scheme.message_slot(worker), None, "worker {worker}");
    }
    assert_ne!(
        encode(scheme.as_ref(), 1, &grads),
        first,
        "equal rows, different messages"
    );
}
