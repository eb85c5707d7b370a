//! One cluster, three straggler controllers and the paper's rule: the
//! fixed `best-effort-all` baseline (`static`) and the paper's
//! `wait-decodable` rule against the telemetry-driven builtins
//! (`quantile-deadline`, `adaptive-k`).
//!
//! ```sh
//! cargo run --release --example adaptive_control
//! ```
//!
//! Everything except the controller and its starting policy is held
//! fixed — same coded scheme, same seed, same Markov time-correlated
//! straggler chain (a worker that is slow this round tends to stay slow,
//! the regime the adaptive controllers exist for) — so the wallclock
//! column isolates what *online re-tuning* buys. The static baseline
//! drains every worker every round and pays the full straggler tail. The
//! adaptive controllers watch per-worker arrival telemetry (EWMA compute
//! times, streaming quantiles) and cut the tail once the evidence is in:
//! `quantile-deadline` caps each round at a margin over the fleet's
//! 70th-percentile compute time, `adaptive-k` waits only for the workers
//! the telemetry still trusts. With r = 4-fold coded redundancy the cut
//! workers' partitions are still covered, so the risk column shows the
//! speedup is not bought with gradient quality. The last row is the
//! paper's own rule — stop once the received batches cover every unit —
//! which needs no telemetry and, on this coded scheme, is faster still.

use bcc::experiment::{
    ControllerSpec, DataSpec, Experiment, LatencySpec, OptimizerSpec, PolicySpec, SchemeSpec,
};

fn main() {
    let run = |controller: ControllerSpec, policy: &str| {
        Experiment::builder()
            .name(format!("adaptive control / {} / {policy}", controller.name))
            .workers(20)
            .units(20)
            .scheme(SchemeSpec::with_load("bcc", 4))
            .data(DataSpec::synthetic(10, 16))
            .latency(LatencySpec::Markov {
                mu: 1000.0,
                a: 0.001,
                p_slow: 0.027,
                p_recover: 0.15,
                slowdown: 15.0,
                per_message_overhead: 0.0002,
                per_unit: 0.0005,
            })
            .policy(PolicySpec::named(policy))
            .optimizer(OptimizerSpec::GradientDescent {
                rate: bcc::optim::LearningRate::Constant(0.2),
            })
            .controller(controller)
            .iterations(30)
            .record_risk(true)
            .seed(2027)
            .build()
            .expect("valid scenario")
            .run()
            .expect("run completes")
    };

    println!(
        "{:>18}  {:>15}  {:>6}  {:>11}  {:>8}  {:>8}  {:>10}  last policy",
        "controller", "start policy", "rounds", "wallclock s", "speedup", "switches", "final risk"
    );
    let mut static_seconds = None;
    for (controller, policy) in [
        (ControllerSpec::default(), "best-effort-all"),
        (ControllerSpec::quantile_deadline(0.7), "best-effort-all"),
        (ControllerSpec::adaptive_k(3.0), "best-effort-all"),
        (ControllerSpec::default(), "wait-decodable"),
    ] {
        let name = controller.name.clone();
        let report = run(controller, policy);
        let base = *static_seconds.get_or_insert(report.simulated_seconds);
        let last = report
            .controller_records
            .last()
            .map_or_else(|| "-".into(), |r| describe(&r.policy));
        println!(
            "{:>18}  {:>15}  {:>6}  {:>11.3}  {:>7.2}x  {:>8}  {:>10.4}  {}",
            name,
            policy,
            report.metrics.rounds,
            report.simulated_seconds,
            base / report.simulated_seconds,
            report.controller_switches,
            report.trace.final_risk().expect("risk recorded"),
            last,
        );
    }
}

fn describe(policy: &bcc::experiment::ChosenPolicy) -> String {
    match (&policy.k, &policy.deadline) {
        (Some(k), _) => format!("{} (k = {k})", policy.policy),
        (_, Some(d)) => format!("{} (budget = {d:.4} s)", policy.policy),
        _ => policy.policy.clone(),
    }
}
