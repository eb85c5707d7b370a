//! Table II bench: prints the scenario-two breakdown (n = 100 workers),
//! then times the full 100-worker round for each scheme plus the wire codec
//! at scenario-two message sizes.

use bcc_bench::experiments::scenario::{self, ScenarioConfig};
use bcc_cluster::{
    message::Envelope, wire, ClusterBackend, ClusterProfile, UnitMap, VirtualCluster,
};
use bcc_coding::Payload;
use bcc_data::synthetic::{generate, SyntheticConfig};
use bcc_optim::LogisticLoss;
use bcc_stats::rng::derive_rng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn print_table() {
    let mut cfg = ScenarioConfig::scenario_two();
    cfg.iterations = 50;
    let result = scenario::run(&cfg, false);
    println!("\n{}", scenario::render(&result).render());
}

fn bench_scenario_two(c: &mut Criterion) {
    print_table();

    let cfg = ScenarioConfig::scenario_two();
    let data = generate(&SyntheticConfig {
        num_examples: cfg.num_examples(),
        dim: cfg.dim,
        separation: 1.5,
        seed: cfg.seed,
    });
    let units = UnitMap::grouped(cfg.num_examples(), cfg.units);
    let w = vec![0.0; cfg.dim];

    let mut group = c.benchmark_group("table2");
    for scheme_cfg in scenario::paper_schemes(cfg.r) {
        let mut rng = derive_rng(cfg.seed, 0xC0DE);
        let scheme = scheme_cfg
            .try_build(cfg.units, cfg.workers, &mut rng)
            .expect("paper scheme fits the scenario");
        group.bench_with_input(
            BenchmarkId::new("round_n100", scheme.name()),
            &scheme,
            |b, scheme| {
                let mut backend = VirtualCluster::new(ClusterProfile::ec2_like(cfg.workers), 17);
                b.iter(|| {
                    let out = backend
                        .run_round(scheme.as_ref(), &units, &data.dataset, &LogisticLoss, &w)
                        .expect("round completes");
                    black_box(out.metrics.messages_used)
                });
            },
        );
    }

    // Wire codec at a realistic message size (one summed gradient, p=8000
    // as in the paper's full-scale experiments).
    let envelope = Envelope {
        iteration: 1,
        worker: 42,
        compute_seconds: 0.01,
        payload: Payload::Sum {
            unit: 7,
            vector: vec![1.0; 8000],
        },
    };
    group.bench_function("wire_encode_p8000", |b| {
        b.iter(|| black_box(wire::encode(&envelope)));
    });
    let bytes = wire::encode(&envelope);
    group.bench_function("wire_decode_p8000", |b| {
        b.iter(|| black_box(wire::decode(bytes.clone()).expect("decode")));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_scenario_two
}
criterion_main!(benches);
