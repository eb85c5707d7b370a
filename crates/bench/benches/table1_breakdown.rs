//! Table I bench: prints the scenario-one breakdown (recovery threshold,
//! communication/computation/total time per scheme), then times the
//! scheme-layer kernels that dominate a round: worker encode and master
//! decode for each scheme.

use bcc_bench::experiments::scenario::{self, ScenarioConfig};
use bcc_coding::scheme::test_support::{random_gradients, worker_partials};
use bcc_stats::rng::derive_rng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn print_table() {
    let mut cfg = ScenarioConfig::scenario_one();
    cfg.iterations = 50;
    let result = scenario::run(&cfg, false);
    println!("\n{}", scenario::render(&result).render());
}

fn bench_kernels(c: &mut Criterion) {
    print_table();

    let cfg = ScenarioConfig::scenario_one();
    let dim = 128; // gradient dimension for the kernel microbench
    let grads = random_gradients(cfg.units, dim, 3);

    let mut group = c.benchmark_group("table1_kernels");
    for scheme_cfg in scenario::paper_schemes(cfg.r) {
        let mut rng = derive_rng(cfg.seed, 0xBE);
        let scheme = scheme_cfg
            .try_build(cfg.units, cfg.workers, &mut rng)
            .expect("paper scheme fits the scenario");
        let name = scheme.name().to_string();

        // Worker-side encode of worker 0's partial gradients.
        let partials = worker_partials(scheme.placement(), 0, &grads);
        group.bench_with_input(BenchmarkId::new("encode", &name), &scheme, |b, scheme| {
            b.iter(|| black_box(scheme.encode(0, &partials).expect("encode")));
        });

        // Full master-side decode (feed workers in order until complete).
        group.bench_with_input(
            BenchmarkId::new("decode_round", &name),
            &scheme,
            |b, scheme| {
                b.iter(|| {
                    let mut dec = scheme.decoder();
                    for i in 0..scheme.num_workers() {
                        if scheme.placement().worker_examples(i).is_empty() {
                            continue;
                        }
                        let p = worker_partials(scheme.placement(), i, &grads);
                        let payload = scheme.encode(i, &p).expect("encode");
                        if dec.receive(i, payload).expect("receive") {
                            break;
                        }
                    }
                    black_box(dec.decode().expect("decode"))
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kernels
}
criterion_main!(benches);
