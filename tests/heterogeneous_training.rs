//! §IV end-to-end: generalized BCC running *through the full cluster stack*
//! on a heterogeneous profile — P2 loads, random placement, uncoded
//! communication, real logistic gradients — beating the load-balancing
//! baseline in round time, and meeting the policies, a controller and the
//! TCP backend the homogeneous schemes already run under. Both §IV schemes
//! arrive by name through `hetero::schemes`.

use bcc::cluster::{ClusterBackend, ClusterError, ClusterProfile, UnitMap, VirtualCluster};
use bcc::core::hetero;
use bcc::experiment::{
    BackendSpec, ControllerSpec, DataSpec, Experiment, ExperimentBuilder, ExperimentReport,
    LatencySpec, OptimizerSpec, PolicySpec, SchemeSpec,
};
use bcc::optim::{LearningRate, LogisticLoss};

/// 1/5-scale Fig. 5 cluster: 19 slow (μ=1) + 1 fast (μ=20), a = 20.
fn profile() -> ClusterProfile {
    let mut profile = ClusterProfile::fig5_heterogeneous();
    profile.workers.drain(19..99);
    profile
}

const M: usize = 100;
const DIM: usize = 5;
const ROUNDS: usize = 25;

/// `ROUNDS` gradient-descent iterations of `scheme` on the cluster.
fn training(scheme: &str) -> ExperimentBuilder {
    let profile = profile();
    Experiment::builder()
        .workers(profile.num_workers())
        .units(M)
        .scheme(SchemeSpec::named(scheme))
        .data(DataSpec::synthetic(1, DIM))
        .latency(LatencySpec::Explicit {
            workers: profile.workers.clone(),
            comm: profile.comm,
        })
        .optimizer(OptimizerSpec::GradientDescent {
            rate: LearningRate::Constant(0.5),
        })
        .iterations(ROUNDS)
        .seed(2)
        .registry(hetero::schemes(&profile))
}

fn run(builder: ExperimentBuilder) -> ExperimentReport {
    builder
        .build()
        .expect("a valid heterogeneous spec")
        .run()
        .expect("the run completes")
}

#[test]
fn generalized_bcc_round_is_exact_and_faster_than_lb_uncoded() {
    // Generalized BCC with P2-optimal loads for s = ⌊m·log m⌋ against the
    // LB baseline: the paper's speed-proportional disjoint split, shipped
    // through the same uncoded communication.
    let gbcc = run(training("generalized-bcc"));
    let lb = run(training("load-balanced"));
    for report in [&gbcc, &lb] {
        assert_eq!(report.scheme, report.spec.scheme.name);
        assert!(
            report.round_samples.iter().all(|s| s.exact),
            "{}: every round decodes exactly",
            report.scheme
        );
    }
    // Exact gradients every round: the two runs walk the same path.
    assert!(bcc::linalg::approx_eq_slice(
        &gbcc.weights,
        &lb.weights,
        1e-9
    ));

    // LB hears from every worker, so no round of its is shorter than the
    // largest deterministic shift aᵢ·rᵢ — the fast worker's 20 · 51.
    assert!(lb
        .round_samples
        .iter()
        .all(|s| s.messages_used == 20 && s.total_time >= 1020.0));

    let (gbcc_avg, lb_avg) = (
        gbcc.metrics.total_time / ROUNDS as f64,
        lb.metrics.total_time / ROUNDS as f64,
    );
    assert!(
        gbcc_avg < lb_avg,
        "generalized BCC ({gbcc_avg:.1}) must beat LB placement ({lb_avg:.1})"
    );
    // The Fig. 5 mechanism: the reduction is double-digit percent.
    let reduction = (1.0 - gbcc_avg / lb_avg) * 100.0;
    assert!(
        reduction > 10.0,
        "expected a Fig. 5-sized gain, got {reduction:.1}%"
    );
}

#[test]
fn policies_a_controller_and_sockets_run_the_heterogeneous_cluster() {
    // Cut short — after five arrivals, or at a deadline few slow workers
    // make (every shift a·r is at least 480) — a round reports the
    // coverage it really has and is priced.
    for policy in [PolicySpec::fastest_k(5), PolicySpec::deadline(490.0)] {
        let report = run(training("generalized-bcc").policy(policy));
        assert_eq!(report.round_samples.len(), ROUNDS);
        for sample in &report.round_samples {
            assert!(!sample.exact && sample.covered_units < sample.total_units);
            assert!(sample.gradient_error.is_some_and(|e| e > 0.0));
        }
    }

    let adaptive = run(training("generalized-bcc").controller(ControllerSpec::adaptive_k(2.0)));
    assert_eq!(adaptive.controller_records.len(), ROUNDS);

    // ~500 simulated seconds a round, slept as ~5 ms.
    let tcp = run(training("generalized-bcc").backend(BackendSpec::tcp_loopback(1e-5)));
    let virt = run(training("generalized-bcc"));
    assert_eq!(tcp.metrics.messages_used, virt.metrics.messages_used);
    assert_eq!(tcp.weights, virt.weights);
}

#[test]
fn arrivals_that_cannot_cover_stall_the_round() {
    // Loads that do not union to the dataset never reach coverage: with
    // the fast worker dead, LB's survivors hold 49 of the 100 examples.
    let lb = training("load-balanced").build().unwrap();
    let mut cluster = VirtualCluster::new(profile(), 9);
    cluster.kill_workers([19]);
    let units = UnitMap::identity(M);
    let err = cluster
        .run_round(
            lb.scheme(),
            &units,
            lb.dataset(),
            &LogisticLoss,
            &[0.0; DIM],
        )
        .unwrap_err();
    assert!(matches!(err, ClusterError::Stalled { received: 19, .. }));
}

#[test]
fn uncoded_on_heterogeneous_cluster_pays_the_slowest_worker() {
    // Sanity: a plain uncoded even split on the same cluster waits for the
    // slow workers' shifted tails every round — every worker holds 5
    // examples, so the shift alone is a·r = 100.
    let report = run(training("uncoded"));
    assert!(report
        .round_samples
        .iter()
        .all(|s| s.messages_used == 20 && s.total_time >= 100.0));
}
