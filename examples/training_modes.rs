//! One experiment, three training modes: the paper's synchronous rounds
//! (`ssgd`) against bounded staleness (`ssp`) and fully asynchronous
//! updates (`asgd`).
//!
//! ```sh
//! cargo run --release --example training_modes
//! ```
//!
//! Everything except the `mode` field is held fixed — same scheme, same
//! seed, same heavy-tail straggler stream — so the wallclock column
//! isolates what the *schedule* buys. Under a Pareto tail the synchronous
//! driver pays the slowest worker every round; SSP and ASGD overlap
//! rounds, so the tail worker's backlog arrives stale instead of stalling
//! the fleet. The staleness column shows the price: stale updates drift
//! from the exact gradient at their application point, which is why SSP
//! bounds the window. Every mode runs the same coded rounds on the same
//! backend; only when each decoded gradient is applied changes.

use bcc::experiment::{DataSpec, Experiment, LatencySpec, ModeSpec, OptimizerSpec, SchemeSpec};

fn main() {
    let run = |mode: ModeSpec| {
        let report = Experiment::builder()
            .name(format!("training modes / {}", mode.name))
            .workers(20)
            .units(20)
            .scheme(SchemeSpec::with_load("bcc", 4))
            .data(DataSpec::synthetic(10, 16))
            .latency(LatencySpec::Pareto {
                shape: 1.5,
                scale: 0.0015,
                per_message_overhead: 0.002,
                per_unit: 0.004,
            })
            .optimizer(OptimizerSpec::GradientDescent {
                rate: bcc::optim::LearningRate::Constant(0.2),
            })
            .mode(mode)
            .iterations(30)
            .record_risk(true)
            .seed(11)
            .build()
            .expect("valid scenario")
            .run()
            .expect("run completes");
        report
    };

    println!(
        "{:>9}  {:>7}  {:>11}  {:>9}  {:>9}  {:>10}",
        "mode", "rounds", "wallclock s", "speedup", "staleness", "final risk"
    );
    let mut ssgd_seconds = None;
    for mode in [
        ModeSpec::default(),
        ModeSpec::ssp(3),
        ModeSpec::named("asgd"),
    ] {
        let name = mode.name.clone();
        let report = run(mode);
        let baseline = *ssgd_seconds.get_or_insert(report.simulated_seconds);
        let max_staleness = report
            .round_samples
            .iter()
            .map(|s| s.staleness)
            .max()
            .unwrap_or(0);
        println!(
            "{:>9}  {:>7}  {:>11.3}  {:>8.2}x  {:>9}  {:>10.4}",
            name,
            report.round_samples.len(),
            report.simulated_seconds,
            baseline / report.simulated_seconds,
            max_staleness,
            report.trace.final_risk().expect("risk recorded"),
        );
    }

    // The same switch is one line in a JSON spec — `"mode": "asgd"` or
    // `{"name": "ssp", "staleness": 3}` — replayable via `repro scenario`.
    let ssp = ModeSpec::ssp(3);
    println!(
        "\nspec form: \"mode\": {}",
        serde_json::to_string(&ssp).expect("modes serialize")
    );
}
