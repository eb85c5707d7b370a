//! End-to-end distributed training across every scheme and both cluster
//! backends. Because every decoder recovers the *exact* gradient, the
//! optimization trajectory must be identical across schemes AND backends —
//! coding changes the waiting, never the math.

use bcc::experiment::{BackendSpec, DataSpec, Experiment, LatencySpec, OptimizerSpec, SchemeSpec};
use bcc::optim::{LearningRate, LogisticLoss, Nesterov, Optimizer};

const UNITS: usize = 12;
const WORKERS: usize = 12;
const POINTS_PER_UNIT: usize = 10;
const DIM: usize = 6;
const ITERS: usize = 15;

fn all_schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::named("uncoded"),
        SchemeSpec::with_load("bcc", 3),
        SchemeSpec::with_load("random", 3),
        SchemeSpec::with_load("cyclic-repetition", 3),
        SchemeSpec::with_load("fractional-repetition", 3),
    ]
}

fn experiment(backend: BackendSpec, scheme: SchemeSpec, seed: u64) -> Experiment {
    Experiment::builder()
        .workers(WORKERS)
        .units(UNITS)
        .scheme(scheme)
        .data(DataSpec::synthetic(POINTS_PER_UNIT, DIM))
        .latency(LatencySpec::Homogeneous {
            mu: 50.0,
            a: 0.0002,
            per_message_overhead: 0.0005,
            per_unit: 0.001,
        })
        .backend(backend)
        .optimizer(OptimizerSpec::nesterov(0.4))
        .iterations(ITERS)
        .seed(seed)
        .build()
        .expect("valid experiment")
}

fn train(exp: &Experiment) -> (Vec<f64>, f64) {
    let report = exp.run().expect("training completes");
    assert!(
        report.trace.improved(),
        "{}: risk must improve",
        report.scheme
    );
    (report.weights, report.trace.final_risk().unwrap())
}

#[test]
fn every_scheme_trains_identically_on_virtual_cluster() {
    let mut reference: Option<Vec<f64>> = None;
    for scheme in all_schemes() {
        let (w, _) = train(&experiment(BackendSpec::Virtual, scheme.clone(), 42));
        match &reference {
            None => reference = Some(w),
            Some(r) => assert!(
                bcc::linalg::approx_eq_slice(r, &w, 1e-6),
                "{}: weights diverged from reference",
                scheme.name
            ),
        }
    }
}

#[test]
fn threaded_and_virtual_backends_agree_exactly() {
    // Timing differs; the decoded gradients — hence the weights — must not.
    for scheme in [
        SchemeSpec::named("uncoded"),
        SchemeSpec::with_load("bcc", 3),
    ] {
        let (w_virtual, risk_v) = train(&experiment(BackendSpec::Virtual, scheme.clone(), 51));
        let threaded = BackendSpec::Threaded { time_scale: 0.002 };
        let (w_threaded, risk_t) = train(&experiment(threaded, scheme.clone(), 51));
        assert!(
            bcc::linalg::approx_eq_slice(&w_virtual, &w_threaded, 1e-9),
            "{}: backends must produce identical trajectories",
            scheme.name
        );
        assert!((risk_v - risk_t).abs() < 1e-12);
    }
}

#[test]
fn distributed_matches_centralized_gradient_descent() {
    // The distributed run must equal a single-machine Nesterov loop using
    // exact full gradients.
    let exp = experiment(BackendSpec::Virtual, SchemeSpec::with_load("bcc", 3), 13);
    let mut centralized = Nesterov::new(vec![0.0; DIM], LearningRate::Constant(0.4));
    for _ in 0..ITERS {
        let g = bcc::optim::gradient::full_gradient(
            exp.dataset(),
            &LogisticLoss,
            centralized.eval_point(),
        );
        centralized.step(&g);
    }

    let (w_distributed, _) = train(&exp);
    assert!(
        bcc::linalg::approx_eq_slice(centralized.iterate(), &w_distributed, 1e-9),
        "distributed BCC must replicate centralized GD exactly"
    );
}

#[test]
fn training_improves_classification_accuracy() {
    let exp = experiment(BackendSpec::Virtual, SchemeSpec::with_load("bcc", 3), 17);
    let acc_before = exp.dataset().sign_accuracy(&[0.0; DIM]);
    let (w, _) = train(&exp);
    let acc_after = exp.dataset().sign_accuracy(&w);
    assert!(
        acc_after > acc_before.max(0.6),
        "accuracy should rise: {acc_before} → {acc_after}"
    );
}
