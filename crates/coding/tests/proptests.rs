//! Property tests: every scheme recovers the exact gradient sum under
//! arbitrary straggler patterns — the core correctness invariant of the
//! reproduction (the README's "Reproduction scope", "Exact recovery").

use bcc_coding::scheme::test_support::{random_gradients, total_sum, worker_partials};
use bcc_coding::{
    BccScheme, CyclicRepetitionScheme, FractionalRepetitionScheme, GradientCodingScheme,
    RandomSubsetScheme, UncodedScheme,
};
use bcc_stats::rng::derive_rng;
use proptest::prelude::*;

/// Feeds workers to the decoder in the given arrival order until complete;
/// returns (decoded sum, messages used) or None if never complete.
fn drive(
    scheme: &dyn GradientCodingScheme,
    grads: &[Vec<f64>],
    order: &[usize],
) -> Option<(Vec<f64>, usize)> {
    let mut dec = scheme.decoder();
    for &i in order {
        // Workers holding no data do not participate in the round.
        if scheme.placement().worker_examples(i).is_empty() {
            continue;
        }
        let partials = worker_partials(scheme.placement(), i, grads);
        let payload = scheme.encode(i, &partials).expect("encode");
        if dec.receive(i, payload).expect("receive") {
            return Some((dec.decode().expect("decode"), dec.messages_received()));
        }
    }
    None
}

fn shuffled_order(n: usize, seed: u64) -> Vec<usize> {
    use rand::seq::SliceRandom;
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut derive_rng(seed, 77));
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bcc_exact_recovery(
        m in 4usize..40,
        r_div in 1usize..6,
        seed in 0u64..1000,
    ) {
        let r = (m / r_div.min(m)).max(1);
        let nb = m.div_ceil(r);
        // Enough workers to guarantee coverage almost surely; retry if not.
        let n = nb * 6;
        let mut rng = derive_rng(seed, 1);
        let mut scheme = BccScheme::new(m, n, r, &mut rng);
        for _ in 0..20 {
            if scheme.covers_all_batches() { break; }
            scheme = BccScheme::new(m, n, r, &mut rng);
        }
        prop_assume!(scheme.covers_all_batches());
        let grads = random_gradients(m, 3, seed ^ 0xab);
        let order = shuffled_order(n, seed);
        let (sum, used) = drive(&scheme, &grads, &order).expect("covering BCC completes");
        prop_assert!(bcc_linalg::approx_eq_slice(&sum, &total_sum(&grads), 1e-7));
        prop_assert!(used >= nb, "needs at least one message per batch");
    }

    #[test]
    fn cyclic_repetition_exact_under_random_stragglers(
        n in 3usize..14,
        seed in 0u64..1000,
    ) {
        let r = 1 + (seed as usize % n.min(5));
        let mut rng = derive_rng(seed, 2);
        let scheme = CyclicRepetitionScheme::new(n, r, &mut rng);
        let grads = random_gradients(n, 2, seed ^ 0xcd);
        let order = shuffled_order(n, seed);
        let (sum, used) = drive(&scheme, &grads, &order).expect("full arrival completes");
        prop_assert!(bcc_linalg::approx_eq_slice(&sum, &total_sum(&grads), 1e-4));
        prop_assert!(used >= scheme.recovery_threshold());
    }

    #[test]
    fn fractional_exact_recovery(
        shards in 2usize..6,
        r in 1usize..5,
        seed in 0u64..1000,
    ) {
        let n = shards * r;
        let scheme = FractionalRepetitionScheme::new(n, r);
        let grads = random_gradients(n, 2, seed ^ 0x11);
        let order = shuffled_order(n, seed);
        let (sum, _) = drive(&scheme, &grads, &order).expect("full arrival completes");
        prop_assert!(bcc_linalg::approx_eq_slice(&sum, &total_sum(&grads), 1e-8));
    }

    #[test]
    fn random_subset_exact_recovery(
        m in 3usize..25,
        seed in 0u64..1000,
    ) {
        let r = 1 + (seed as usize % m.min(6));
        let n = m * 4;
        let mut rng = derive_rng(seed, 3);
        let mut scheme = RandomSubsetScheme::new(m, n, r, &mut rng);
        for _ in 0..20 {
            if scheme.placement().covers_all() { break; }
            scheme = RandomSubsetScheme::new(m, n, r, &mut rng);
        }
        prop_assume!(scheme.placement().covers_all());
        let grads = random_gradients(m, 2, seed ^ 0x22);
        let order = shuffled_order(n, seed);
        let (sum, used) = drive(&scheme, &grads, &order).expect("covering placement completes");
        prop_assert!(bcc_linalg::approx_eq_slice(&sum, &total_sum(&grads), 1e-8));
        // Communication load is r units per message (eq. (6) blow-up).
        prop_assert!(used * r >= m);
    }

    #[test]
    fn uncoded_exact_recovery(
        m in 1usize..40,
        n in 1usize..12,
        seed in 0u64..1000,
    ) {
        let scheme = UncodedScheme::new(m, n);
        let grads = random_gradients(m, 2, seed ^ 0x33);
        let order = shuffled_order(n, seed);
        let (sum, used) = drive(&scheme, &grads, &order).expect("all workers complete");
        prop_assert!(bcc_linalg::approx_eq_slice(&sum, &total_sum(&grads), 1e-8));
        prop_assert_eq!(used, scheme.required_workers().min(n));
    }

    #[test]
    fn all_single_unit_schemes_report_units_equal_messages(
        n in 4usize..10,
        seed in 0u64..500,
    ) {
        // Communication-load accounting: for Sum/Linear payload schemes the
        // units equal the message count (L = K in Theorem 1 / eq. (8)).
        let r = 2;
        let mut rng = derive_rng(seed, 4);
        let cr = CyclicRepetitionScheme::new(n, r, &mut rng);
        let grads = random_gradients(n, 2, seed);
        let mut dec = cr.decoder();
        let mut fed = 0;
        for i in shuffled_order(n, seed) {
            let partials = worker_partials(cr.placement(), i, &grads);
            fed += 1;
            if dec.receive(i, cr.encode(i, &partials).unwrap()).unwrap() {
                break;
            }
        }
        prop_assert_eq!(dec.messages_received(), fed);
        prop_assert_eq!(dec.communication_units(), fed);
    }
}
