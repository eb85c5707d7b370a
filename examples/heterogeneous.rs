//! Fig. 5 at example scale: heterogeneous cluster, load-balancing baseline
//! vs the generalized BCC random assignment (§IV) — two experiments on the
//! round engine, their schemes registered for the cluster's profile.
//!
//! ```sh
//! cargo run --release --example heterogeneous
//! ```

use bcc::cluster::ClusterProfile;
use bcc::core::hetero::{self, coverage_budget, optimal_loads, theorem2_bounds};
use bcc::experiment::{DataSpec, Experiment, LatencySpec, OptimizerSpec, SchemeSpec};

/// Dataset size `m`.
const M: usize = 500;
/// Measured rounds per scheme.
const ROUNDS: usize = 500;

fn main() {
    // The paper's cluster: 100 workers, aᵢ = 20; 95 slow (μ = 1), 5 fast
    // (μ = 20); m = 500 examples. Its link is free, so a round's time is
    // its coverage time (eq. (16)).
    let profile = ClusterProfile::fig5_heterogeneous();
    let measure = |scheme: &str| {
        let experiment = Experiment::builder()
            .workers(profile.num_workers())
            .units(M)
            .scheme(SchemeSpec::named(scheme))
            .data(DataSpec::synthetic(1, 2))
            .latency(LatencySpec::Fig5Heterogeneous)
            .optimizer(OptimizerSpec::FixedPoint)
            .iterations(ROUNDS)
            .seed(77)
            .registry(hetero::schemes(&profile))
            .build()
            .expect("a valid Fig. 5 spec");
        let report = experiment.run().expect("a covering placement completes");
        (experiment, report.metrics.total_time / ROUNDS as f64)
    };

    // Generalized BCC: P2-optimal loads for s = ⌊m·ln m⌋ deliveries.
    let s = coverage_budget(M);
    let solution = optimal_loads(&profile.workers, s, M);
    println!(
        "P2 solution for s = {s}: slow workers store {} examples, \
         fast workers {} (τ* = {:.1})",
        solution.loads[0], solution.loads[99], solution.tau
    );

    let (_, gbcc_time) = measure("generalized-bcc");
    let (lb, lb_time) = measure("load-balanced");
    println!("\naverage completion time over {ROUNDS} rounds:");
    println!("  load balancing (LB): {lb_time:8.1}");
    println!(
        "  generalized BCC:     {gbcc_time:8.1}   ({:.2}% faster)",
        (1.0 - gbcc_time / lb_time) * 100.0
    );

    // Theorem 2's sandwich on the optimal coverage time.
    let bounds = theorem2_bounds(&profile.workers, M, 200, 3);
    println!(
        "\nTheorem 2: min E[T] ∈ [{:.1}, {:.1}]  (c = {:.2})",
        bounds.lower, bounds.upper, bounds.c
    );

    // Why LB loses: it piles load onto the fast workers, whose
    // deterministic shift a·r then dominates.
    let lb_fast_load = lb.scheme().placement().load_of(99);
    println!(
        "\nwhy: LB gives each fast worker {lb_fast_load} examples → its shift \
         alone is a·r = {:.0}, already above GBCC's total {gbcc_time:.0}.",
        profile.workers[99].a * lb_fast_load as f64
    );
}
