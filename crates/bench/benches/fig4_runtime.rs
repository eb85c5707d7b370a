//! Fig. 4 bench: prints the runtime-comparison table (both scenarios), then
//! times one full distributed-GD round per scheme on the virtual cluster —
//! the kernel whose repetition produces the figure.

use bcc_bench::experiments::scenario::{self, ScenarioConfig};
use bcc_cluster::{ClusterBackend, ClusterProfile, UnitMap, VirtualCluster};
use bcc_data::synthetic::{generate, SyntheticConfig};
use bcc_optim::LogisticLoss;
use bcc_stats::rng::derive_rng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn print_figure() {
    let mut one = ScenarioConfig::scenario_one();
    let mut two = ScenarioConfig::scenario_two();
    // Keep the printed preview quick; `repro fig4` runs the full 100.
    one.iterations = 50;
    two.iterations = 50;
    let r_one = scenario::run(&one, false);
    let r_two = scenario::run(&two, false);
    println!("\n{}", scenario::render_figure4(&r_one, &r_two).render());
}

fn bench_round(c: &mut Criterion) {
    print_figure();

    let cfg = ScenarioConfig::scenario_one();
    let data = generate(&SyntheticConfig {
        num_examples: cfg.num_examples(),
        dim: cfg.dim,
        separation: 1.5,
        seed: cfg.seed,
    });
    let units = UnitMap::grouped(cfg.num_examples(), cfg.units);
    let w = vec![0.0; cfg.dim];

    let mut group = c.benchmark_group("fig4_one_round");
    for scheme_cfg in scenario::paper_schemes(cfg.r) {
        let mut rng = derive_rng(cfg.seed, 0xC0DE);
        let scheme = scheme_cfg
            .try_build(cfg.units, cfg.workers, &mut rng)
            .expect("paper scheme fits the scenario");
        group.bench_with_input(
            BenchmarkId::new("round", scheme.name()),
            &scheme,
            |b, scheme| {
                let mut backend = VirtualCluster::new(ClusterProfile::ec2_like(cfg.workers), 9);
                b.iter(|| {
                    let out = backend
                        .run_round(scheme.as_ref(), &units, &data.dataset, &LogisticLoss, &w)
                        .expect("round completes");
                    black_box(out.metrics.total_time)
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_round
}
criterion_main!(benches);
