//! A whole experiment, pinned, on the data-parallel paths of the library.
//!
//! The synthetic generator and the virtual backend's unit-gradient fill
//! both cut their work into contiguous runs over the host's cores once it
//! reaches `bcc_linalg::parallel::MIN_WORK` elements. Their own unit tests
//! hold each at fixed thread counts; this test holds the whole path — spec
//! → dataset → rounds → report — to one hash, which every thread count
//! must reproduce.
//!
//! The scenario is sized so both paths cross the threshold: the dataset
//! holds 8 × 64 × 1024 = 2¹⁹ feature elements, and every BCC worker's row
//! (one batch of 4 units) holds 4 × 64 × 1024 = 2¹⁸. On a multi-core host a
//! splitter that hands a run the wrong rows or ids moves the hash (or
//! panics); on one core both paths stay serial and the pin still holds.

use bcc::experiment::{DataSpec, Experiment, LatencySpec, OptimizerSpec, SchemeSpec};

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[test]
fn a_run_across_the_parallel_thresholds_is_pinned() {
    let experiment = Experiment::builder()
        .name("parallel replay")
        .workers(8)
        .units(8)
        .scheme(SchemeSpec::with_load("bcc", 4))
        .data(DataSpec::synthetic(64, 1024))
        .latency(LatencySpec::Ec2Like)
        .optimizer(OptimizerSpec::nesterov(0.5))
        .iterations(4)
        .seed(46)
        .build()
        .expect("a valid scenario");
    let report = experiment.run().expect("BCC rounds complete");

    // Every deterministic field of the report; `wall_seconds` is host time.
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for w in &report.weights {
        hash = fnv1a(hash, &w.to_bits().to_le_bytes());
    }
    hash = fnv1a(hash, &report.simulated_seconds.to_bits().to_le_bytes());
    let fields = [
        serde_json::to_string(&report.trace),
        serde_json::to_string(&report.metrics),
        serde_json::to_string(&report.round_samples),
        serde_json::to_string(&report.controller_records),
    ];
    for json in fields {
        hash = fnv1a(hash, json.expect("report fields serialize").as_bytes());
    }
    assert_eq!(report.metrics.rounds, 4);
    assert_eq!(hash, 0x0c51_c719_818a_df72, "report hash {hash:#018x}");
}
