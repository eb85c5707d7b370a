//! Every workload and metric name the benchmark emits, with its unit.
//!
//! `BENCHMARK.json` lists the same names; `tests/contract.rs` fails when the
//! two drift apart.

/// The workloads, in the order a full set runs them.
pub const WORKLOADS: [&str; 5] = [
    "kernel_dense",
    "engine_fanout",
    "decode_solve",
    "wire_tcp",
    "adaptive_markov",
];

/// End-to-end metrics `(name, unit)`, measured with tracing off.
///
/// The issue's fifth metric, `failed_share`, is 0 on a healthy run and the
/// benchmark contract forbids metrics that read 0, so it travels as the
/// result line's `failed` / `attempted` counts instead.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("round_wall_us", "us"),
    ("cpu_us_per_round", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, measured by the traced run. The prefix
/// is the crate the number belongs to. A metric whose layer is not on a
/// workload's path (sockets on a `Virtual` run, the QR solve under BCC)
/// reads 0 there.
pub const PER_LAYER: [(&str, &str); 76] = [
    ("stats.derive_rng_ns", "ns"),
    ("stats.draws_per_round", "count"),
    ("linalg.calib_gflops", "GFLOP/s"),
    ("linalg.calib_gbps", "GB/s"),
    ("linalg.calib_triad_mb", "MB"),
    ("linalg.gemv_gbps", "GB/s"),
    ("linalg.accumulate_gbps", "GB/s"),
    ("linalg.weighted_sum_gbps", "GB/s"),
    ("linalg.qr_solve_us", "us"),
    ("data.generate_ms", "ms"),
    ("data.generate_mb_per_s", "MB/s"),
    ("optim.grad_ns_per_example", "ns"),
    ("optim.grad_gflops", "GFLOP/s"),
    ("optim.grad_gbps", "GB/s"),
    ("optim.grad_roofline_share", "ratio"),
    ("optim.step_us", "us"),
    ("optim.rounds_to_target", "count"),
    ("coding.build_ms", "ms"),
    ("coding.encode_us", "us"),
    ("coding.receive_us", "us"),
    ("coding.decode_us", "us"),
    ("coding.decode_partial_us", "us"),
    ("coding.messages_used", "count"),
    ("coding.comm_units", "count"),
    ("coding.redundant_unit_share", "ratio"),
    ("cluster.latency_draw_ns", "ns"),
    ("cluster.pack_ms", "ms"),
    ("cluster.wire_encode_us", "us"),
    ("cluster.wire_decode_us", "us"),
    ("cluster.wire_bytes_per_msg", "B"),
    ("cluster.round_us_p50", "us"),
    ("cluster.round_us_p95", "us"),
    ("cluster.round_us_max", "us"),
    ("cluster.round_drift_ratio", "ratio"),
    ("cluster.turnaround_us", "us"),
    ("cluster.collect_us", "us"),
    ("cluster.finish_us", "us"),
    ("cluster.engine_residual_us", "us"),
    ("cluster.sim_s_per_round", "s"),
    ("cluster.trace_overhead_share", "ratio"),
    ("cluster.virtual_round_us", "us"),
    ("cluster.threaded_round_us", "us"),
    ("net.fleet_up_ms", "ms"),
    ("net.frame_encode_us", "us"),
    ("net.frame_decode_us", "us"),
    ("net.broadcast_us", "us"),
    ("net.transport_us", "us"),
    ("net.loopback_gbps", "GB/s"),
    ("net.bytes_sent_per_round", "B"),
    ("net.bytes_received_per_round", "B"),
    ("net.frames_per_round", "count"),
    ("net.flushes_per_round", "count"),
    ("net.backpressure_events", "count"),
    ("net.stale_frames", "count"),
    ("net.deaths", "count"),
    ("net.pipelined_round_us", "us"),
    ("net.serial_round_us", "us"),
    ("control.observe_us", "us"),
    ("control.switches", "count"),
    ("control.static_round_us", "us"),
    ("core.spec_parse_us", "us"),
    ("core.build_ms", "ms"),
    ("core.run_overhead_us", "us"),
    ("share.optim_linalg", "ratio"),
    ("share.coding", "ratio"),
    ("share.latency_draw", "ratio"),
    ("share.cluster_engine", "ratio"),
    ("share.net", "ratio"),
    ("share.control", "ratio"),
    ("host.cores", "count"),
    ("host.llc_mb", "MB"),
    ("host.timer_ns", "ns"),
    ("trace.spans", "count"),
    ("trace.replayed_rounds", "count"),
    ("trace.round_us_mean", "us"),
    ("trace.attributed_us", "us"),
];

/// The unit of a metric name from either table.
///
/// # Panics
/// On a name neither table lists: emitting an unlisted metric is a bug in
/// the benchmark, not a condition of the run.
#[must_use]
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("metric `{name}` is not listed in names.rs"))
}
