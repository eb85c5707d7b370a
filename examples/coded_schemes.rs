//! Tour of the scheme registry: every built-in gradient-coding scheme —
//! placement shape, per-worker message, completion condition, and exact
//! recovery under a random straggler pattern — plus a custom registration.
//!
//! ```sh
//! cargo run --example coded_schemes
//! ```

use bcc::coding::scheme::test_support::{random_gradients, total_sum, worker_partials};
use bcc::coding::{GradientCodingScheme, UncodedScheme};
use bcc::experiment::{Experiment, SchemeRegistry, SchemeSpec};
use bcc::stats::rng::derive_rng;
use rand::seq::SliceRandom;

fn main() {
    let (m, n, r) = (12usize, 12usize, 3usize);
    let grads = random_gradients(m, 4, 7);
    let expect = total_sum(&grads);

    println!(
        "{} units over {} workers at computational load r = {}\n",
        m, n, r
    );
    println!(
        "{:<22} {:>6} {:>12} {:>10} {:>12}",
        "scheme", "K*", "messages", "units", "max error"
    );

    // Resolve every scheme by its registry name — the same names spec files
    // use. Uncoded derives its load; everything else runs at r.
    let registry = SchemeRegistry::builtin();
    for name in registry.names() {
        let spec = if name == "uncoded" {
            SchemeSpec::named(name.clone())
        } else {
            SchemeSpec::with_load(name.clone(), r)
        };
        let mut rng = derive_rng(99, 0);
        let scheme = registry
            .build(&spec, m, n, &mut rng)
            .expect("built-in schemes build at (12, 12, 3)");

        // Random arrival order = random stragglers.
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut derive_rng(99, 1));

        let mut decoder = scheme.decoder();
        for &i in &order {
            if scheme.placement().worker_examples(i).is_empty() {
                continue;
            }
            let partials = worker_partials(scheme.placement(), i, &grads);
            let payload = scheme.encode(i, &partials).expect("encode");
            if decoder.receive(i, payload).expect("receive") {
                break;
            }
        }
        let decoded = decoder.decode().expect("decode");
        let err = decoded
            .iter()
            .zip(&expect)
            .fold(0.0f64, |acc, (a, b)| acc.max((a - b).abs()));

        println!(
            "{:<22} {:>6} {:>12} {:>10} {:>12.2e}",
            scheme.name(),
            scheme
                .analytic_recovery_threshold()
                .map_or("—".into(), |k| format!("{k:.1}")),
            decoder.messages_received(),
            decoder.communication_units(),
            err
        );
        assert!(err < 1e-4, "every scheme must recover the exact sum");
    }

    println!(
        "\nNote the 'units' column: the randomized scheme ships r units per\n\
         message (eq. (6)'s m·log m blow-up) while every other scheme ships 1."
    );

    // The registry is open: register a custom scheme under a new name and
    // any spec file can reference it — no changes to the library.
    let mut registry = SchemeRegistry::builtin();
    registry.register(
        "wait-for-everyone",
        "uncoded under a custom name",
        |_spec, m, n, _rng| Ok(Box::new(UncodedScheme::new(m, n)) as Box<dyn GradientCodingScheme>),
    );
    let report = Experiment::builder()
        .workers(n)
        .units(m)
        .scheme(SchemeSpec::named("wait-for-everyone"))
        .registry(registry)
        .iterations(5)
        .seed(99)
        .build()
        .expect("custom schemes build like built-ins")
        .run()
        .expect("rounds complete");
    println!(
        "\ncustom registration 'wait-for-everyone': avg K = {:.1} (all {} workers, as built)",
        report.metrics.avg_recovery_threshold(),
        n
    );
}
