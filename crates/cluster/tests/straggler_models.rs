//! Straggler-model integration: the pluggable sampler must not change
//! *anything* for the baseline model, and must keep the cross-backend
//! determinism contract for the stateful zoo members.
//!
//! * Installing [`ShiftedExpModel`] explicitly is byte-identical to the
//!   default path (which is itself the pre-trait hardcoded behaviour —
//!   the unit pin lives in `src/straggler.rs`).
//! * Under the Markov time-correlated model, the threaded and virtual
//!   backends still produce byte-identical gradients and identical
//!   message accounting: the chain is a pure function of its keyed stream,
//!   so free-running worker threads and the sorted virtual schedule cannot
//!   diverge — nor can two clusters at different seeds sharing one model.
//! * Every zoo member runs rounds that are deterministic in the seed and
//!   visibly reshape round-time behaviour.

use bcc_cluster::{
    BackendConfig, BimodalModel, ClusterBackend, ClusterProfile, CommModel, MarkovModel,
    ParetoModel, ShiftedExpModel, StragglerModel, ThreadedCluster, UnitMap, VirtualCluster,
    WeibullModel,
};
use bcc_coding::UncodedScheme;
use bcc_data::synthetic::{generate, SyntheticConfig};
use bcc_optim::LogisticLoss;
use std::sync::Arc;

fn profile(n: usize) -> ClusterProfile {
    ClusterProfile::homogeneous(
        n,
        2.0,
        0.01,
        CommModel {
            per_message_overhead: 0.001,
            per_unit: 0.01,
        },
    )
}

#[test]
fn explicit_shifted_exp_model_is_byte_identical_to_the_default_path() {
    let g = generate(&SyntheticConfig::small(30, 4, 2));
    let units = UnitMap::grouped(30, 10);
    let scheme = UncodedScheme::new(10, 5);
    let w = vec![0.07; 4];

    let mut default_cluster = VirtualCluster::new(profile(5), 17);
    let mut explicit_cluster = VirtualCluster::new(profile(5), 17).configured(
        BackendConfig::new().straggler_model(Arc::new(ShiftedExpModel::from_profile(&profile(5)))),
    );

    for _ in 0..3 {
        let a = default_cluster
            .run_round(&scheme, &units, &g.dataset, &LogisticLoss, &w)
            .unwrap();
        let b = explicit_cluster
            .run_round(&scheme, &units, &g.dataset, &LogisticLoss, &w)
            .unwrap();
        assert_eq!(a.gradient_sum, b.gradient_sum);
        assert_eq!(a.metrics, b.metrics, "trait path must not perturb metrics");
    }
}

#[test]
fn markov_model_is_backend_invariant_for_uncoded() {
    // Uncoded waits for every worker, so the outcome is insensitive to
    // arrival-order jitter in the threaded backend — what must agree is
    // the sampled latency stream (compute_time = max over workers) and
    // the decoded gradient, both byte-level.
    let n = 5;
    let g = generate(&SyntheticConfig::small(20, 3, 6));
    let units = UnitMap::grouped(20, 10);
    let scheme = UncodedScheme::new(10, n);
    let w = vec![0.05; 3];
    let model =
        || -> Arc<dyn StragglerModel> { Arc::new(MarkovModel::new(100.0, 0.02, 0.4, 0.3, 5.0)) };

    let mut virtual_cluster = VirtualCluster::new(profile(n), 23)
        .configured(BackendConfig::new().straggler_model(model()));
    let mut threaded_cluster = ThreadedCluster::new(profile(n), 23, 0.02)
        .configured(BackendConfig::new().straggler_model(model()));

    // Enough rounds that the chains leave the fast state and come back.
    for round in 0..60 {
        let v = virtual_cluster
            .run_round(&scheme, &units, &g.dataset, &LogisticLoss, &w)
            .unwrap();
        let t = threaded_cluster
            .run_round(&scheme, &units, &g.dataset, &LogisticLoss, &w)
            .unwrap();
        assert_eq!(v.metrics.messages_used, t.metrics.messages_used);
        assert_eq!(
            v.metrics.compute_time.to_bits(),
            t.metrics.compute_time.to_bits(),
            "round {round}: both backends must replay the same chain + draws"
        );
        assert_eq!(v.gradient_sum, t.gradient_sum, "round {round}");
    }
}

#[test]
fn one_markov_model_serves_two_seeds_interleaved() {
    // The model's per-worker cursors are keyed on the seed as well: two
    // clusters sharing one model at different seeds, run round by round in
    // turn, must each see the chain a model of their own would give them.
    let n = 5;
    let g = generate(&SyntheticConfig::small(20, 3, 6));
    let units = UnitMap::grouped(20, 10);
    let scheme = UncodedScheme::new(10, n);
    let w = vec![0.05; 3];
    let model = || Arc::new(MarkovModel::new(100.0, 0.02, 0.4, 0.3, 5.0));
    let cluster = |seed, model: Arc<MarkovModel>| {
        VirtualCluster::new(profile(n), seed)
            .configured(BackendConfig::new().straggler_model(model))
    };

    let shared = model();
    let mut shared_clusters = [
        cluster(23, Arc::clone(&shared)),
        cluster(24, Arc::clone(&shared)),
    ];
    let mut own_clusters = [cluster(23, model()), cluster(24, model())];
    for round in 0..60 {
        for (shared_cluster, own_cluster) in shared_clusters.iter_mut().zip(&mut own_clusters) {
            let a = shared_cluster
                .run_round(&scheme, &units, &g.dataset, &LogisticLoss, &w)
                .unwrap();
            let b = own_cluster
                .run_round(&scheme, &units, &g.dataset, &LogisticLoss, &w)
                .unwrap();
            assert_eq!(a.metrics, b.metrics, "round {round}");
            assert_eq!(a.gradient_sum, b.gradient_sum, "round {round}");
        }
    }
}

#[test]
fn zoo_members_run_deterministically_on_the_virtual_backend() {
    let n = 8;
    let g = generate(&SyntheticConfig::small(16, 3, 9));
    let units = UnitMap::grouped(16, 8);
    let scheme = UncodedScheme::new(8, n);
    let w = vec![0.0; 3];
    let models: Vec<(&str, Arc<dyn StragglerModel>)> = vec![
        ("pareto", Arc::new(ParetoModel::new(0.01, 2.0))),
        ("weibull", Arc::new(WeibullModel::new(0.01, 0.7, 0.005))),
        (
            "bimodal",
            Arc::new(BimodalModel::homogeneous(n, 2.0, 0.01, 2, 0.5, 10.0)),
        ),
        (
            "markov",
            Arc::new(MarkovModel::new(2.0, 0.01, 0.3, 0.4, 10.0)),
        ),
    ];
    for (name, model) in models {
        let run = |seed: u64| {
            let mut cluster = VirtualCluster::new(profile(n), seed)
                .configured(BackendConfig::new().straggler_model(Arc::clone(&model)));
            cluster
                .run_round(&scheme, &units, &g.dataset, &LogisticLoss, &w)
                .unwrap()
                .metrics
        };
        assert_eq!(run(42), run(42), "{name}: same seed must replay");
        assert_ne!(
            run(42).total_time,
            run(43).total_time,
            "{name}: different seeds must differ"
        );
    }
}

#[test]
fn bimodal_slowdown_stretches_the_round() {
    // Same base profile, same seed: adding a certain slowdown on one
    // always-slow worker must strictly lengthen the uncoded round (which
    // waits for everyone).
    let n = 4;
    let g = generate(&SyntheticConfig::small(8, 3, 11));
    let units = UnitMap::grouped(8, 4);
    let scheme = UncodedScheme::new(4, n);
    let w = vec![0.0; 3];
    let run = |model: Arc<dyn StragglerModel>| {
        let mut cluster = VirtualCluster::new(profile(n), 31)
            .configured(BackendConfig::new().straggler_model(model));
        cluster
            .run_round(&scheme, &units, &g.dataset, &LogisticLoss, &w)
            .unwrap()
            .metrics
            .total_time
    };
    let baseline = run(Arc::new(ShiftedExpModel::homogeneous(n, 2.0, 0.01)));
    let slowed = run(Arc::new(BimodalModel::homogeneous(
        n, 2.0, 0.01, 1, 1.0, 50.0,
    )));
    assert!(
        slowed > baseline,
        "certain 50x straggler must lengthen the round ({slowed} vs {baseline})"
    );
}
