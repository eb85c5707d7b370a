//! Property tests across the whole stack: for random problem sizes, loads,
//! schemes, and seeds, a virtual-cluster round must decode the exact serial
//! gradient and report self-consistent metrics.

use bcc::cluster::{ClusterBackend, ClusterProfile, CommModel, UnitMap, VirtualCluster};
use bcc::core::{SchemeRegistry, SchemeSpec};
use bcc::data::synthetic::{generate, SyntheticConfig};
use bcc::optim::gradient::full_gradient;
use bcc::optim::LogisticLoss;
use bcc::stats::rng::derive_rng;
use proptest::prelude::*;

fn scheme_strategy() -> impl Strategy<Value = SchemeSpec> {
    prop_oneof![
        Just(SchemeSpec::named("uncoded")),
        (2usize..5).prop_map(|r| SchemeSpec::with_load("bcc", r)),
        (2usize..5).prop_map(|r| SchemeSpec::with_load("bcc-uncompressed", r)),
        (2usize..5).prop_map(|r| SchemeSpec::with_load("random", r)),
        (2usize..5).prop_map(|r| SchemeSpec::with_load("cyclic-repetition", r)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_scheme_round_decodes_exact_gradient(
        spec in scheme_strategy(),
        units_count in 8usize..20,
        per_unit_examples in 1usize..6,
        seed in 0u64..500,
    ) {
        let n = units_count; // m = n so every scheme is constructible
        let examples = units_count * per_unit_examples;
        let data = generate(&SyntheticConfig::small(examples, 5, seed));
        let units = UnitMap::grouped(examples, units_count);
        let mut rng = derive_rng(seed, 3);
        let scheme = SchemeRegistry::builtin()
            .build(&spec, units_count, n, &mut rng)
            .expect("strategy yields constructible schemes");
        let profile = ClusterProfile::homogeneous(
            n,
            3.0,
            0.001,
            CommModel { per_message_overhead: 0.001, per_unit: 0.002 },
        );
        let mut backend = VirtualCluster::new(profile, seed);
        let w: Vec<f64> = (0..5).map(|k| ((k as f64) + seed as f64).sin() * 0.2).collect();

        let out = backend
            .run_round(scheme.as_ref(), &units, &data.dataset, &LogisticLoss, &w)
            .expect("round completes");

        // Exactness: decoded sum / m == serial full gradient.
        let mut decoded = out.gradient_sum.clone();
        bcc::linalg::vec_ops::scale(1.0 / examples as f64, &mut decoded);
        let exact = full_gradient(&data.dataset, &LogisticLoss, &w);
        prop_assert!(
            bcc::linalg::approx_eq_slice(&decoded, &exact, 1e-5),
            "{}: decoded gradient differs from serial", scheme.name()
        );

        // Metric consistency.
        let m = &out.metrics;
        prop_assert!(m.is_consistent(), "{}: inconsistent metrics {m:?}", scheme.name());
        prop_assert!(m.messages_used >= 1);
        prop_assert!(m.messages_used <= n);
        prop_assert!(m.communication_units >= m.messages_used);
        prop_assert!(m.total_time > 0.0);
    }

    #[test]
    fn recovery_threshold_never_below_information_limit(
        r in 2usize..6,
        seed in 0u64..300,
    ) {
        // Any completing round must use at least ⌈m/r⌉ messages for BCC
        // (one per batch) — the information-theoretic floor of Theorem 1.
        let m = 24usize;
        let n = 48usize;
        let data = generate(&SyntheticConfig::small(m, 4, seed));
        let units = UnitMap::identity(m);
        let mut rng = derive_rng(seed, 5);
        let scheme = SchemeRegistry::builtin()
            .build(&SchemeSpec::with_load("bcc", r), m, n, &mut rng)
            .expect("n = 2m covers every batch");
        let profile = ClusterProfile::homogeneous(
            n, 3.0, 0.001,
            CommModel { per_message_overhead: 0.0, per_unit: 0.001 },
        );
        let mut backend = VirtualCluster::new(profile, seed);
        let out = backend
            .run_round(scheme.as_ref(), &units, &data.dataset, &LogisticLoss, &[0.0; 4])
            .expect("covering BCC completes");
        prop_assert!(out.metrics.messages_used >= m.div_ceil(r));
    }
}
