//! The paper's EC2 experiment at example scale: train logistic regression
//! with Nesterov's accelerated gradient method under the uncoded, cyclic
//! repetition, and BCC schemes — on the **threaded** cluster runtime (real
//! worker threads, channels, wire-encoded messages, injected stragglers).
//!
//! ```sh
//! cargo run --release --example logistic_regression
//! ```

use bcc::core::theory;
use bcc::experiment::{BackendSpec, DataSpec, Experiment, SchemeSpec};

fn main() {
    // Scaled-down scenario one: 20 workers, 20 units × 50 points, r = 4.
    let (workers, units, r, iterations) = (20usize, 20usize, 4usize, 30usize);

    println!(
        "training logistic regression: {} examples × 32 features, \
         {workers} worker threads, {iterations} Nesterov iterations\n",
        units * 50
    );
    println!(
        "{:<20} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "scheme", "avg K", "comm (s)", "comp (s)", "total (s)", "final risk"
    );

    for scheme in [
        SchemeSpec::named("uncoded"),
        SchemeSpec::with_load("cyclic-repetition", r),
        SchemeSpec::with_load("bcc", r),
    ] {
        let report = Experiment::builder()
            .name("logistic regression")
            .workers(workers)
            .units(units)
            .scheme(scheme)
            .data(DataSpec::synthetic(50, 32))
            // time_scale 0.004: 1 simulated second ≈ 4 ms of wall time.
            .backend(BackendSpec::Threaded { time_scale: 0.004 })
            .iterations(iterations)
            .seed(2024)
            .build()
            .expect("paper schemes build at (20, 20, 4)")
            .run()
            .expect("rounds complete");

        println!(
            "{:<20} {:>10.1} {:>12.3} {:>12.3} {:>12.3} {:>10.4}",
            report.scheme,
            report.metrics.avg_recovery_threshold(),
            report.metrics.comm_time,
            report.metrics.compute_time,
            report.metrics.total_time,
            report.trace.final_risk().expect("risk recorded"),
        );
    }

    println!(
        "\nAll three schemes compute identical gradients — only the waiting\n\
         differs. BCC's average recovery threshold tracks ⌈m/r⌉·H_(m/r) = {:.1}.",
        theory::k_bcc(units, r)
    );
}
