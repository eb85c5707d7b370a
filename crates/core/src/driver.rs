//! The distributed gradient-descent training loop.
//!
//! Mirrors the paper's experimental protocol (§III-C): training examples are
//! placed on the workers **once** before iterations start; each iteration
//! the master broadcasts the latest model, the workers compute and encode
//! their partial gradients, and the master updates the model as soon as the
//! scheme's completion condition holds. The optimizer is pluggable — the
//! paper uses Nesterov's accelerated gradient method.

use bcc_cluster::{RoundDriver, RoundOutcome, RoundSample, RunMetrics};
use bcc_control::ControlLoop;
use bcc_data::Dataset;
use bcc_linalg::vec_ops;
use bcc_optim::{ConvergenceTrace, Loss, Optimizer};

/// What every schedule arm of
/// [`Experiment::run`](crate::experiment::Experiment::run) hands back.
pub(crate) struct RunOutput {
    /// Final model iterate.
    pub(crate) weights: Vec<f64>,
    /// Risk trace (one point per applied update).
    pub(crate) trace: ConvergenceTrace,
    /// Aggregated round metrics — the Tables I/II quantities.
    pub(crate) metrics: RunMetrics,
    /// Per-round observables in round order.
    pub(crate) round_samples: Vec<RoundSample>,
    /// Simulated wallclock: the sum of round times under synchronous
    /// rounds, the overlapped timeline's makespan under SSP/ASGD.
    pub(crate) simulated_seconds: f64,
}

/// The synchronous round loop as a [`RoundDriver`]: broadcasts the
/// optimizer's evaluation point each round and feeds the decoded gradient
/// back into it. Without an optimizer
/// ([`OptimizerSpec::FixedPoint`](crate::experiment::OptimizerSpec::FixedPoint))
/// the broadcast stays at the origin and rounds are only measured.
pub(crate) struct SyncDriver<'a> {
    /// `None` runs the round process without optimization.
    optimizer: Option<&'a mut dyn Optimizer>,
    /// The fixed-point broadcast (and final weights): all zeros.
    origin: Vec<f64>,
    /// Exact mean gradient at `origin`, computed on a fixed-point run's
    /// first non-exact round — the broadcast never moves.
    exact_at_origin: Option<Vec<f64>>,
    data: &'a Dataset,
    loss: &'a dyn Loss,
    record_risk: bool,
    trace: ConvergenceTrace,
    metrics: RunMetrics,
    round_samples: Vec<RoundSample>,
    /// Straggler-control loop fed at each round boundary (the decision it
    /// applies is in force from the next round).
    control: &'a mut ControlLoop,
}

impl<'a> SyncDriver<'a> {
    pub(crate) fn new(
        optimizer: Option<&'a mut dyn Optimizer>,
        dim: usize,
        data: &'a Dataset,
        loss: &'a dyn Loss,
        record_risk: bool,
        iterations: usize,
        control: &'a mut ControlLoop,
    ) -> Self {
        Self {
            optimizer,
            origin: vec![0.0; dim],
            exact_at_origin: None,
            data,
            loss,
            record_risk,
            trace: ConvergenceTrace::new(),
            metrics: RunMetrics::new(),
            round_samples: Vec::with_capacity(iterations),
            control,
        }
    }

    /// Consumes the driver after the backend's round loop.
    pub(crate) fn finish(self) -> RunOutput {
        RunOutput {
            weights: match self.optimizer {
                Some(optimizer) => optimizer.iterate().to_vec(),
                None => self.origin,
            },
            trace: self.trace,
            simulated_seconds: self.metrics.total_time,
            metrics: self.metrics,
            round_samples: self.round_samples,
        }
    }
}

impl RoundDriver for SyncDriver<'_> {
    fn eval_point(&mut self, _round: usize) -> Vec<f64> {
        match &self.optimizer {
            Some(optimizer) => optimizer.eval_point().to_vec(),
            None => self.origin.clone(),
        }
    }

    fn consume(&mut self, round: usize, outcome: RoundOutcome) {
        self.control.observe_round(round as u64, &outcome.arrivals);
        self.metrics.absorb(&outcome.metrics);

        let mut sample = outcome.sample(None);
        if self.optimizer.is_none() && sample.exact {
            // Nothing reads an exact fixed-point round's gradient.
            self.round_samples.push(sample);
            return;
        }

        // eq. (1): ∇L = (1/m)·Σ g_j — on a minibatch round, m is the
        // sampled example count, so the estimate stays an unbiased mean.
        let m = outcome.examples_used.unwrap_or(self.data.len()) as f64;
        let mut gradient = outcome.gradient_sum;
        vec_ops::scale(1.0 / m, &mut gradient);

        // Exact rounds have zero gradient error by construction; only an
        // approximate policy's rounds pay the extra data pass to measure
        // `‖ĝ − g‖₂` of the mean gradient. The optimizer has not stepped
        // yet, so its evaluation point is still this round's broadcast.
        sample.gradient_error = (!sample.exact).then(|| match &self.optimizer {
            Some(optimizer) => {
                let exact = exact_mean_gradient(self.data, self.loss, optimizer.eval_point());
                gradient_error_norm(&exact, &gradient)
            }
            None => {
                let exact = self
                    .exact_at_origin
                    .get_or_insert_with(|| exact_mean_gradient(self.data, self.loss, &self.origin));
                gradient_error_norm(exact, &gradient)
            }
        });
        self.round_samples.push(sample);

        let Some(optimizer) = self.optimizer.as_deref_mut() else {
            return;
        };
        let gnorm = vec_ops::norm2(&gradient);
        optimizer.step(&gradient);

        if self.record_risk {
            let risk = empirical_risk_dyn(self.data, self.loss, optimizer.iterate());
            self.trace.push(round, risk, gnorm);
        }
    }
}

/// The exact mean gradient `(1/m)·Σ_j ∇ℓ_j(w)` for `&dyn Loss` — the
/// reference an approximate round's gradient is priced against.
#[must_use]
pub(crate) fn exact_mean_gradient(data: &Dataset, loss: &dyn Loss, w: &[f64]) -> Vec<f64> {
    let mut g = vec![0.0; w.len()];
    for j in 0..data.len() {
        loss.add_gradient(data.x(j), data.y(j), w, &mut g);
    }
    vec_ops::scale(1.0 / data.len() as f64, &mut g);
    g
}

/// `‖ĝ − g‖₂` between an estimated and the exact **mean** gradient — the
/// one definition of the `RoundSample::gradient_error` norm, shared by the
/// synchronous and stale drivers.
#[must_use]
pub(crate) fn gradient_error_norm(exact_mean: &[f64], estimate_mean: &[f64]) -> f64 {
    let mut diff = exact_mean.to_vec();
    vec_ops::axpy(-1.0, estimate_mean, &mut diff);
    vec_ops::norm2(&diff)
}

/// `bcc_optim::gradient::empirical_risk` for `&dyn Loss` (the generic
/// version requires `Sized`) — shared with the mode drivers.
pub(crate) fn empirical_risk_dyn(data: &Dataset, loss: &dyn Loss, w: &[f64]) -> f64 {
    (0..data.len())
        .map(|j| loss.value(data.x(j), data.y(j), w))
        .sum::<f64>()
        / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::{ControlLoop, RoundDriver, RoundOutcome, SyncDriver};
    use crate::experiment::{
        DataSpec, Experiment, ExperimentBuilder, ExperimentReport, LatencySpec, OptimizerSpec,
        PolicySpec, SchemeSpec,
    };
    use bcc_cluster::{BackendConfig, ClusterBackend, FastestK, UnitMap, VirtualCluster};
    use bcc_control::{ChosenPolicy, StaticController};
    use bcc_linalg::vec_ops;
    use bcc_optim::gradient::full_gradient;
    use bcc_optim::LogisticLoss;
    use bcc_stats::derive_seed;
    use std::sync::Arc;

    fn builder(scheme: SchemeSpec, seed: u64) -> ExperimentBuilder {
        Experiment::builder()
            .workers(20)
            .units(20)
            .scheme(scheme)
            .data(DataSpec::synthetic(10, 8))
            .latency(LatencySpec::Homogeneous {
                mu: 100.0,
                a: 0.0001,
                per_message_overhead: 0.001,
                per_unit: 0.004,
            })
            .iterations(40)
            .seed(seed)
    }

    fn train_with(scheme: SchemeSpec, seed: u64) -> ExperimentReport {
        builder(scheme, seed).build().unwrap().run().unwrap()
    }

    #[test]
    fn training_reduces_risk_for_every_scheme() {
        for scheme in [
            SchemeSpec::named("uncoded"),
            SchemeSpec::with_load("bcc", 4),
            SchemeSpec::with_load("random", 4),
            SchemeSpec::with_load("cyclic-repetition", 4),
            SchemeSpec::with_load("fractional-repetition", 4),
        ] {
            let report = train_with(scheme, 11);
            assert!(
                report.trace.improved(),
                "{}: risk must decrease ({:?} → {:?})",
                report.scheme,
                report.trace.initial_risk(),
                report.trace.final_risk()
            );
            assert_eq!(report.metrics.rounds, 40);
        }
    }

    #[test]
    fn all_schemes_converge_to_same_model() {
        // Every decoder recovers the *exact* gradient, so with matched
        // optimizer state the trajectories are identical across schemes.
        let reports: Vec<ExperimentReport> = [
            SchemeSpec::named("uncoded"),
            SchemeSpec::with_load("bcc", 4),
            SchemeSpec::with_load("cyclic-repetition", 4),
        ]
        .into_iter()
        .map(|scheme| train_with(scheme, 13))
        .collect();
        for pair in reports.windows(2) {
            assert!(
                bcc_linalg::approx_eq_slice(&pair[0].weights, &pair[1].weights, 1e-5),
                "gradient coding must not change the optimization path"
            );
        }
    }

    #[test]
    fn bcc_uses_fewer_messages_than_uncoded() {
        let uncoded = train_with(SchemeSpec::named("uncoded"), 17);
        let bcc = train_with(SchemeSpec::with_load("bcc", 4), 17);
        assert!(
            bcc.metrics.avg_recovery_threshold() < uncoded.metrics.avg_recovery_threshold(),
            "BCC {} vs uncoded {}",
            bcc.metrics.avg_recovery_threshold(),
            uncoded.metrics.avg_recovery_threshold()
        );
        assert!(bcc.metrics.total_time < uncoded.metrics.total_time);
    }

    #[test]
    fn risk_recording_can_be_disabled() {
        let report = builder(SchemeSpec::named("uncoded"), 23)
            .iterations(5)
            .record_risk(false)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(report.trace.is_empty());
        assert_eq!(report.metrics.rounds, 5);
    }

    /// Forwards to the wrapped driver, keeping each round's consumed
    /// workers — the arrival stamps a run report does not retain.
    struct Recording<'a>(SyncDriver<'a>, Vec<Vec<usize>>);

    impl RoundDriver for Recording<'_> {
        fn eval_point(&mut self, round: usize) -> Vec<f64> {
            self.0.eval_point(round)
        }

        fn consume(&mut self, round: usize, outcome: RoundOutcome) {
            let workers = outcome.arrivals.iter().map(|stamp| stamp.worker);
            self.1.push(workers.collect());
            self.0.consume(round, outcome);
        }
    }

    #[test]
    fn fixed_point_under_an_approximate_policy_prices_every_round() {
        let exp = builder(SchemeSpec::named("uncoded"), 29)
            .optimizer(OptimizerSpec::FixedPoint)
            .policy(PolicySpec::fastest_k(12))
            .iterations(6)
            .record_risk(true)
            .build()
            .unwrap();
        // `Experiment::run`'s wiring by hand, so the driver can be wrapped.
        let data = exp.dataset();
        let mut control = ControlLoop::new(
            Box::new(StaticController),
            20,
            ChosenPolicy::wait_decodable(),
        );
        let sync = SyncDriver::new(None, 8, data, &LogisticLoss, true, 6, &mut control);
        let mut driver = Recording(sync, Vec::new());
        let config = BackendConfig::new()
            .straggler_model(exp.net_model(None))
            .aggregation_policy(Arc::new(FastestK::new(12)));
        VirtualCluster::new(exp.profile().clone(), derive_seed(29, 0x5EED))
            .configured(config)
            .run_rounds(
                6,
                exp.scheme(),
                &UnitMap::grouped(data.len(), 20),
                data,
                &LogisticLoss,
                &mut driver,
            )
            .unwrap();
        let (consumed, report) = (driver.1, driver.0.finish());
        assert_eq!(report.round_samples, exp.run().unwrap().round_samples);
        assert!(report.trace.is_empty(), "no optimizer, no risk trace");
        assert_eq!(report.weights, vec![0.0; 8]);
        assert_eq!(report.round_samples.len(), 6);

        // The coverage-rescaled partial sum of an uncoded round is the mean
        // gradient over the examples of the workers that made the cut
        // (worker → units from the placement, unit `u` → examples
        // `10u..10(u + 1)`), so the test can price it independently.
        let placement = exp.scheme().placement();
        let origin = [0.0; 8];
        let exact = full_gradient(data, &LogisticLoss, &origin);
        for (sample, workers) in report.round_samples.iter().zip(&consumed) {
            assert!(!sample.exact);
            assert_eq!(workers.len(), 12);
            let covered: Vec<usize> = workers
                .iter()
                .flat_map(|&worker| placement.worker_examples(worker))
                .flat_map(|&unit| unit * 10..(unit + 1) * 10)
                .collect();
            let mut diff = full_gradient(&data.subset(&covered), &LogisticLoss, &origin);
            vec_ops::axpy(-1.0, &exact, &mut diff);
            let expected = vec_ops::norm2(&diff);
            let got = sample.gradient_error.expect("non-exact rounds are priced");
            assert!(got > 0.0);
            assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
        }
    }
}
