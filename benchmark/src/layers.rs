//! The per-layer measurement of one workload: a traced, hand-wired run
//! whose rounds are split into spans from outside, the same rounds replayed
//! by direct calls into each layer at the workload's shapes and call
//! counts, twins of the run with one layer swapped out, and calibration
//! loops run in the same process.
//!
//! Layers are the workspace crates. A number here moves when its layer's
//! code moves; which end-to-end metric it should move, and on which
//! workload, is tabulated in the README.

use crate::measure::{drift_ratio, set_up};
use crate::procfs;
use crate::timing::{bench_batched_ns, bench_ns, mean, quantile, timer_overhead_ns};
use crate::trace::Trace;
use crate::wired::{self, loss_of, Options, Run, Runtime, Sample, BACKEND_STREAM};
use crate::workload::{Expect, Workload};
use bcc_cluster::packed::UnitGradientCache;
use bcc_cluster::{wire, DecodePool, Envelope, UnitMap, WorkerBlocks};
use bcc_core::{BackendSpec, DataSpec, Experiment, ExperimentSpec, OptimizerSpec, SchemeRegistry};
use bcc_data::synthetic::{generate, SyntheticConfig};
use bcc_linalg::parallel::{par_weighted_sum, Parallelism};
use bcc_linalg::{qr, Matrix};
use bcc_net::frame::{self, NetMessage};
use bcc_optim::GradScratch;
use bcc_stats::derive_seed;
use bcc_stats::rng::derive_rng;
use bytes::BytesMut;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Stream tag `bcc_core` derives the scheme-placement RNG with (private
/// there).
const SCHEME_STREAM: u64 = 0xC0DE;

/// Rounds of the traced run that are replayed call by call, spread evenly
/// over the run so that costs that grow with the round index (the Markov
/// chain replay) are sampled along it.
const REPLAYED_ROUNDS: usize = 16;
/// Time one replayed micro-measurement may take.
const MICRO_BUDGET: Duration = Duration::from_millis(60);
/// Cap on the calibration triad's three arrays together. The rule is four
/// times the last-level cache; a virtual machine can advertise a host-wide
/// cache of hundreds of megabytes, and the cap keeps the loop's memory
/// sane there. Both sizes are reported.
const TRIAD_CAP_BYTES: usize = 512 << 20;
/// A training run has reached its target when the empirical risk is within
/// this factor of the blessed final risk.
const TARGET_RISK_FACTOR: f64 = 1.1;

/// The per-layer result of one workload.
#[derive(Debug)]
pub struct Layers {
    /// Every name of [`crate::names::PER_LAYER`], with its value.
    pub metrics: Vec<(&'static str, f64)>,
    /// The spans the numbers were computed from.
    pub trace: Trace,
    /// Rounds attempted over the traced run and its twins.
    pub attempted: u64,
    /// Rounds of runs that returned an error.
    pub failed: u64,
    /// Why rounds failed, one line each.
    pub failures: Vec<String>,
}

/// Named values, each set once.
#[derive(Debug, Default)]
struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            self.0.iter().all(|(n, _)| *n != name),
            "metric `{name}` set twice"
        );
        // The unit lookup panics on a name the tables do not list.
        let _ = crate::names::unit_of(name);
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }));
    }

    /// Every listed per-layer metric in table order; the ones this
    /// workload's path never reaches read 0.
    fn complete(self) -> Vec<(&'static str, f64)> {
        crate::names::PER_LAYER
            .iter()
            .map(|(name, _)| {
                let value = self
                    .0
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, v)| *v);
                (*name, value)
            })
            .collect()
    }
}

/// Runs and counts: every hand-wired run of the traced measurement goes
/// through here so that a failed one is accounted, not lost.
struct Runner<'a> {
    experiment: &'a Experiment,
    origin: Instant,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Runner<'_> {
    fn run(&mut self, what: &str, options: &Options) -> Result<Run, String> {
        let iterations = self.experiment.spec().iterations as u64;
        let run = wired::run(self.experiment, options, self.origin)?;
        self.attempted += iterations;
        if let Some(e) = &run.error {
            self.failed += iterations - run.rounds.len() as u64;
            self.failures.push(format!("{what}: {e}"));
        }
        Ok(run)
    }
}

/// Wall nanoseconds of each round (`eval_point` entry to `consume` return).
fn round_ns(run: &Run) -> Vec<f64> {
    run.rounds
        .iter()
        .map(|r| (r.consume_end - r.eval_start) as f64)
        .collect()
}

/// Mean wall microseconds of a round, backend bring-up excluded.
fn mean_round_us(run: &Run) -> f64 {
    mean(&round_ns(run)) / 1e3
}

/// Turns the traced run's clock readings into one span tree per round:
/// `round ⊃ {turnaround, collect, finish, consume ⊃ {observe, step}}`.
fn record_rounds(trace: &mut Trace, run: &Run) {
    for (i, r) in run.rounds.iter().enumerate() {
        let root = trace.add(None, i, "cluster", "round", r.eval_start, r.consume_end);
        let broadcast = r.broadcast.clamp(r.eval_start, r.consume_start);
        let complete = r.complete.clamp(broadcast, r.consume_start);
        // Asking for the weights, latency draws, schedule or frame fan-out.
        trace.add(
            Some(root),
            i,
            "cluster",
            "turnaround",
            r.eval_start,
            broadcast,
        );
        // Waiting for and feeding the K-th of n parallel parts.
        trace.add(Some(root), i, "cluster", "collect", broadcast, complete);
        // Policy aggregation (the decode) and outcome assembly.
        trace.add(
            Some(root),
            i,
            "cluster",
            "finish",
            complete,
            r.consume_start,
        );
        let consume = trace.add(
            Some(root),
            i,
            "harness",
            "consume",
            r.consume_start,
            r.consume_end,
        );
        trace.add(
            Some(consume),
            i,
            "control",
            "observe",
            r.consume_start,
            r.observe_end,
        );
        trace.add(Some(consume), i, "optim", "step", r.step_start, r.step_end);
    }
}

/// What the replay of the sampled rounds added up to.
#[derive(Debug, Default)]
struct Replay {
    draws: usize,
    examples: usize,
    messages: usize,
    wire_bytes: usize,
}

/// Rebuilds each sampled round by direct calls — latency draws, gradient
/// kernel, encode, the wire and frame codecs where the runtime has them,
/// receive, decode — at the round's own weights and consumed workers,
/// recording one span per call under a `replay` root.
fn replay(
    trace: &mut Trace,
    experiment: &Experiment,
    traced: &Run,
    samples: &[Sample],
) -> Result<Replay, String> {
    let spec = experiment.spec();
    let scheme = experiment.scheme();
    let placement = scheme.placement();
    let data = experiment.dataset();
    let loss = loss_of(spec.loss);
    let (num_examples, _) = spec.data.shape(spec.units);
    let units = UnitMap::grouped(num_examples, spec.units);
    let packed = WorkerBlocks::build(scheme, &units, data);
    let (x, y) = packed.arena(data);
    let (on_wire, in_frames, wan) = match &spec.backend {
        BackendSpec::Virtual => (false, false, None),
        BackendSpec::Threaded { .. } => (true, false, None),
        BackendSpec::Tcp { wan, .. } => (true, true, *wan),
    };
    let model = experiment.net_model(wan);
    let seed = derive_seed(spec.seed, BACKEND_STREAM);
    let participants: Vec<usize> = (0..scheme.num_workers())
        .filter(|&w| placement.load_of(w) > 0)
        .collect();
    // The virtual runtime memoizes a unit's gradient within a round when
    // units are replicated; threads and sockets compute every copy.
    let mut cache = (!on_wire && placement.replication_counts().iter().any(|&c| c > 1))
        .then(|| UnitGradientCache::new(units.num_units()));
    let mut scratch = GradScratch::new();
    let mut envelope_buf = BytesMut::new();
    let mut frame_buf = BytesMut::new();
    let mut totals = Replay::default();

    for sample in samples {
        let round = sample.round;
        let weights = &sample.weights;
        let root = trace.open(None, round, "harness", "replay");
        let at = Some(root);

        trace.timed(at, round, "cluster", "latency_draws", || {
            for &w in &participants {
                black_box(model.compute_seconds(seed, round as u64, w, placement.load_of(w)));
            }
        });
        totals.draws += participants.len();

        if in_frames {
            // The master encodes the round's broadcast once; every live
            // worker decodes it.
            trace.timed(at, round, "net", "frame_encode", || {
                frame::encode_round_into(&mut frame_buf, round as u64, 0, 0.0, weights)
            });
            for _ in &participants {
                let decoded = trace.timed(at, round, "net", "frame_decode", || {
                    frame::decode_frame(&frame_buf.as_ref()[4..])
                });
                black_box(decoded.map_err(|e| e.to_string())?);
            }
        }

        let mut decoder = scheme.decoder();
        if let Some(cache) = cache.as_mut() {
            cache.begin_round();
        }
        for &worker in &sample.consumed {
            let ranges = packed.worker(worker);
            let unit_ids = placement.worker_examples(worker);
            let computed = trace.timed(at, round, "optim", "worker_partials", || {
                let Some(cache) = cache.as_mut() else {
                    scratch.worker_partials(loss, x, y, ranges, weights);
                    return ranges.iter().map(ExactSizeIterator::len).sum::<usize>();
                };
                let mut computed = 0;
                scratch.ensure_slots(ranges.len(), weights.len());
                for (slot, (&unit, rows)) in unit_ids.iter().zip(ranges).enumerate() {
                    if let Some(gradient) = cache.get(unit) {
                        scratch.copy_partial_from(slot, gradient);
                    } else {
                        scratch.fill_partial(slot, loss, x, y, rows.clone(), weights);
                        cache.store(unit, scratch.partial(slot));
                        computed += rows.len();
                    }
                }
                computed
            });
            totals.examples += computed;
            let mut payload = trace
                .timed(at, round, "coding", "encode", || {
                    scheme.encode(worker, scratch.partials(ranges.len()))
                })
                .map_err(|e| e.to_string())?;
            if on_wire {
                let envelope = Envelope {
                    iteration: round as u64,
                    worker,
                    compute_seconds: 0.0,
                    payload,
                };
                trace.timed(at, round, "cluster", "wire_encode", || {
                    wire::encode_into(&envelope, &mut envelope_buf);
                });
                totals.wire_bytes += envelope_buf.len();
                let mut bytes = bytes::Bytes::copy_from_slice(envelope_buf.as_ref());
                if in_frames {
                    trace.timed(at, round, "net", "frame_encode", || {
                        frame::encode_data_frame_into(&mut frame_buf, 0, envelope_buf.as_ref())
                    });
                    let message = trace
                        .timed(at, round, "net", "frame_decode", || {
                            frame::decode_frame(&frame_buf.as_ref()[4..])
                        })
                        .map_err(|e| e.to_string())?;
                    let NetMessage::Data { payload, .. } = message else {
                        return Err("a data frame decoded to another message".to_string());
                    };
                    bytes = payload;
                }
                payload = trace
                    .timed(at, round, "cluster", "wire_decode", || wire::decode(bytes))
                    .map_err(|e| e.to_string())?
                    .payload;
            }
            trace
                .timed(at, round, "coding", "receive", || {
                    decoder.receive(worker, payload)
                })
                .map_err(|e| e.to_string())?;
            totals.messages += 1;
        }
        // The round's policy decoded either exactly or partially; replay
        // the one it used (serial pool: the cost of the fold itself).
        let exact = traced.rounds.get(round).is_some_and(|r| r.exact);
        let pool = DecodePool::serial();
        let decoded = if exact {
            trace.timed(at, round, "coding", "decode", || pool.decode(&*decoder))
        } else {
            trace.timed(at, round, "coding", "decode_partial", || {
                pool.decode_partial(&*decoder)
            })
        };
        black_box(decoded.map_err(|e| e.to_string())?);
        trace.close(root);
    }
    Ok(totals)
}

/// Same-process calibration: peak fused-multiply-add rate of one core and
/// the streaming rate of memory, the two ceilings a kernel's achieved rate
/// is compared against. Returns `(GFLOP/s, GB/s, triad megabytes)`.
fn calibrate(llc_bytes: usize) -> (f64, f64, f64) {
    // Eight independent 4-lane chains: enough to cover the FMA latency on
    // two issue ports.
    const LANES: usize = 32;
    const STEPS: usize = 200_000;
    let mut acc = [1.0f64; LANES];
    let (a, b) = (black_box(0.999_999), black_box(1e-9));
    let fma_ns = bench_ns(MICRO_BUDGET, 5, || {
        for _ in 0..STEPS {
            for lane in &mut acc {
                *lane = lane.mul_add(a, b);
            }
        }
        black_box(&mut acc);
    });
    let gflops = (2 * LANES * STEPS) as f64 / fma_ns;

    let len = (4 * llc_bytes).min(TRIAD_CAP_BYTES) / (3 * 8);
    let mut out = vec![0.0f64; len];
    let left = vec![1.0f64; len];
    let right = vec![2.0f64; len];
    let scale = black_box(3.0);
    let triad_ns = bench_ns(MICRO_BUDGET, 3, || {
        for ((o, l), r) in out.iter_mut().zip(&left).zip(&right) {
            *o = r.mul_add(scale, *l);
        }
        black_box(&mut out);
    });
    let bytes = (3 * 8 * len) as f64;
    (gflops, bytes / triad_ns, bytes / 1e6)
}

/// The first round (1-based) whose risk is within [`TARGET_RISK_FACTOR`] of
/// the blessed final risk; the iteration count plus one when no round got
/// there, and 0 when there is no blessed risk to aim for.
fn rounds_to_target(risks: &[f64], expect: Option<&Expect>) -> f64 {
    let Some(target) = expect
        .map(|e| e.final_risk * TARGET_RISK_FACTOR)
        .filter(|t| *t > 0.0)
    else {
        return 0.0;
    };
    risks
        .iter()
        .position(|risk| *risk <= target)
        .map_or(risks.len() + 1, |i| i + 1) as f64
}

/// Measures `workload` layer by layer.
///
/// # Errors
/// A workload that cannot be set up or wired, or a replayed call that
/// fails. Runs that fail mid-way are counted in [`Layers::failed`].
pub fn per_layer(workload: &Workload, dir: &Path) -> Result<Layers, String> {
    let spec = &workload.spec;
    let iterations = spec.iterations;
    let rounds = iterations as f64;
    let mut m = Metrics::default();

    // Host facts the other numbers depend on.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let llc_bytes = procfs::last_level_cache_bytes();
    let timer_ns = timer_overhead_ns();
    m.set("host.cores", cores as f64);
    m.set("host.llc_mb", llc_bytes as f64 / 1e6);
    m.set("host.timer_ns", timer_ns);
    let (calib_gflops, calib_gbps, triad_mb) = calibrate(llc_bytes);
    m.set("linalg.calib_gflops", calib_gflops);
    m.set("linalg.calib_gbps", calib_gbps);
    m.set("linalg.calib_triad_mb", triad_mb);

    // Set-up, piece by piece.
    m.set(
        "core.spec_parse_us",
        bench_ns(MICRO_BUDGET, 5, || {
            black_box(ExperimentSpec::from_json(&workload.json).is_ok());
        }) / 1e3,
    );
    m.set(
        "core.build_ms",
        bench_ns(MICRO_BUDGET, 3, || {
            black_box(Experiment::from_spec(spec.clone()).is_ok());
        }) / 1e6,
    );
    let DataSpec::Synthetic { separation, .. } = spec.data;
    let (num_examples, dim) = spec.data.shape(spec.units);
    let generate_ns = bench_ns(MICRO_BUDGET, 2, || {
        black_box(generate(&SyntheticConfig {
            num_examples,
            dim,
            separation,
            seed: spec.seed,
        }));
    });
    m.set("data.generate_ms", generate_ns / 1e6);
    m.set(
        "data.generate_mb_per_s",
        (num_examples * dim * 8) as f64 / 1e6 / (generate_ns / 1e9),
    );
    let registry = SchemeRegistry::builtin();
    m.set(
        "coding.build_ms",
        bench_ns(MICRO_BUDGET, 3, || {
            let mut rng = derive_rng(spec.seed, SCHEME_STREAM);
            black_box(
                registry
                    .build(&spec.scheme, spec.units, spec.workers, &mut rng)
                    .is_ok(),
            );
        }) / 1e6,
    );
    let experiment = set_up(&workload.json)?;
    let scheme = experiment.scheme();
    let data = experiment.dataset();
    let units = UnitMap::grouped(num_examples, spec.units);
    m.set(
        "cluster.pack_ms",
        bench_ns(MICRO_BUDGET, 3, || {
            black_box(WorkerBlocks::build(scheme, &units, data));
        }) / 1e6,
    );

    // The traced run, its untraced twin, and the library's own entry point.
    let mut trace = Trace::new();
    let mut runner = Runner {
        experiment: &experiment,
        origin: trace.origin(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    // Warm-up, as in the end-to-end measurement.
    runner.run("warm-up run", &Options::plain())?;
    let traced = runner.run(
        "traced run",
        &Options {
            observe: true,
            samples: REPLAYED_ROUNDS,
            ..Options::plain()
        },
    )?;
    let plain = runner.run("untraced run", &Options::plain())?;
    if plain.rounds.is_empty() || traced.rounds.is_empty() {
        return Err(format!(
            "`{}` finished no round: {:?}",
            workload.name, runner.failures
        ));
    }
    runner.attempted += iterations as u64;
    match experiment.run() {
        Ok(report) => m.set(
            "core.run_overhead_us",
            report.wall_seconds * 1e6 / rounds - plain.round_wall_us(),
        ),
        Err(e) => {
            runner.failed += iterations as u64;
            runner.failures.push(format!("Experiment::run(): {e}"));
        }
    }

    record_rounds(&mut trace, &traced);
    let replayed = replay(&mut trace, &experiment, &traced, &traced.samples)?;
    trace.check()?;

    // In-situ numbers.
    let mut plain_round_ns = round_ns(&plain);
    plain_round_ns.sort_by(f64::total_cmp);
    m.set("cluster.round_us_p50", quantile(&plain_round_ns, 0.5) / 1e3);
    m.set(
        "cluster.round_us_p95",
        quantile(&plain_round_ns, 0.95) / 1e3,
    );
    m.set("cluster.round_us_max", quantile(&plain_round_ns, 1.0) / 1e3);
    m.set("cluster.round_drift_ratio", drift_ratio(&plain));
    m.set("cluster.sim_s_per_round", plain.sim_s_per_round());
    m.set(
        "cluster.trace_overhead_share",
        traced.round_wall_us() / plain.round_wall_us() - 1.0,
    );
    let per_round_us =
        |name: &str| trace.total_ns(name).0 as f64 / 1e3 / traced.rounds.len() as f64;
    m.set("cluster.turnaround_us", per_round_us("turnaround"));
    m.set("cluster.collect_us", per_round_us("collect"));
    m.set("cluster.finish_us", per_round_us("finish"));
    let step_us = per_round_us("step");
    let observe_us = per_round_us("observe");
    m.set("optim.step_us", step_us);
    m.set("coding.messages_used", plain.mean_messages_used());
    m.set(
        "coding.comm_units",
        plain
            .rounds
            .iter()
            .map(|r| r.comm_units as f64)
            .sum::<f64>()
            / plain.rounds.len() as f64,
    );
    let covered: usize = plain.rounds.iter().map(|r| r.covered_units).sum();
    let carried: usize = plain.rounds.iter().map(|r| r.carried_units).sum();
    m.set(
        "coding.redundant_unit_share",
        1.0 - covered as f64 / carried.max(1) as f64,
    );
    m.set(
        "stats.draws_per_round",
        (replayed.draws / traced.samples.len().max(1)) as f64,
    );
    m.set(
        "stats.derive_rng_ns",
        bench_batched_ns(MICRO_BUDGET, 1000, {
            let mut stream = 0u64;
            move || {
                stream += 1;
                black_box(derive_rng(spec.seed, stream));
            }
        }),
    );

    // Replayed numbers. A span closes with one clock reading, which the
    // short calls must not be charged for.
    let replayed_rounds = traced.samples.len().max(1) as f64;
    let net_ns = |name: &str| {
        let (ns, calls) = trace.total_ns(name);
        (ns as f64 - calls as f64 * timer_ns).max(0.0)
    };
    let call_us = |name: &str| net_ns(name) / 1e3 / trace.total_ns(name).1.max(1) as f64;
    let per_replayed_round_us = |name: &str| net_ns(name) / 1e3 / replayed_rounds;
    m.set(
        "cluster.latency_draw_ns",
        net_ns("latency_draws") / replayed.draws.max(1) as f64,
    );
    m.set("coding.encode_us", call_us("encode"));
    m.set("coding.receive_us", call_us("receive"));
    m.set("coding.decode_us", call_us("decode"));
    m.set("coding.decode_partial_us", call_us("decode_partial"));
    m.set("cluster.wire_encode_us", call_us("wire_encode"));
    m.set("cluster.wire_decode_us", call_us("wire_decode"));
    m.set(
        "cluster.wire_bytes_per_msg",
        replayed.wire_bytes as f64 / replayed.messages.max(1) as f64,
    );
    m.set("net.frame_encode_us", call_us("frame_encode"));
    m.set("net.frame_decode_us", call_us("frame_decode"));

    // The gradient kernel against the calibrated roofline. Operation and
    // byte counts are computed from the shapes, not measured: per example
    // one dot product and one scaled accumulation over `dim` features
    // (4·dim flops) reading the example's row once (8·dim bytes).
    let kernel_ns = net_ns("worker_partials");
    if replayed.examples > 0 && kernel_ns > 0.0 {
        let examples = replayed.examples as f64;
        let grad_gflops = 4.0 * dim as f64 * examples / kernel_ns;
        let flop_per_byte = 0.5;
        m.set("optim.grad_ns_per_example", kernel_ns / examples);
        m.set("optim.grad_gflops", grad_gflops);
        m.set("optim.grad_gbps", 8.0 * dim as f64 * examples / kernel_ns);
        m.set(
            "optim.grad_roofline_share",
            grad_gflops / calib_gflops.min(calib_gbps * flop_per_byte),
        );
    }

    // The linalg calls under the kernel and the decode, at this workload's
    // shapes.
    let features = data.features();
    let matrix_bytes = (features.rows() * features.cols() * 8) as f64;
    let point = vec![0.01; dim];
    let mut margins = Vec::new();
    m.set(
        "linalg.gemv_gbps",
        matrix_bytes
            / bench_ns(MICRO_BUDGET, 3, || {
                features.gemv_rows_into(0..features.rows(), &point, &mut margins);
                black_box(&mut margins);
            }),
    );
    let coefficients = vec![0.5; features.rows()];
    let mut accumulator = vec![0.0; dim];
    m.set(
        "linalg.accumulate_gbps",
        matrix_bytes
            / bench_ns(MICRO_BUDGET, 3, || {
                features.accumulate_scaled_rows(&coefficients, &mut accumulator);
                black_box(&mut accumulator);
            }),
    );
    let terms_count = (plain.mean_messages_used().round() as usize).max(1);
    let vectors: Vec<Vec<f64>> = (0..terms_count).map(|i| vec![i as f64; dim]).collect();
    let terms: Vec<(f64, &[f64])> = vectors.iter().map(|v| (1.0, v.as_slice())).collect();
    m.set(
        "linalg.weighted_sum_gbps",
        (terms_count * dim * 8) as f64
            / bench_ns(MICRO_BUDGET, 3, || {
                black_box(par_weighted_sum(Parallelism::sequential(), &terms));
            }),
    );
    if scheme.name() == "cyclic-repetition" {
        // The decoder's solve: combination coefficients over the received
        // workers' coding rows, a (messages × workers) system.
        let mut rng_state = spec.seed | 1;
        let coding_rows = Matrix::from_fn(terms_count, spec.workers, |_, _| {
            // xorshift: any dense full-rank matrix costs the same to factor.
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        });
        let ones = vec![1.0; spec.workers];
        m.set(
            "linalg.qr_solve_us",
            bench_ns(MICRO_BUDGET, 3, || {
                black_box(qr::solve_row_combination(&coding_rows, &ones).is_ok());
            }) / 1e3,
        );
    }

    // Twins: the same rounds with one layer swapped out.
    let round_us = mean_round_us(&plain);
    let mut net_us = 0.0;
    let mut in_process_us = round_us;
    if matches!(spec.backend, BackendSpec::Tcp { .. }) {
        let twin = |runtime| Options {
            runtime,
            ..Options::plain()
        };
        in_process_us = mean_round_us(&runner.run("virtual twin", &twin(Runtime::Virtual))?);
        let threaded_us = mean_round_us(&runner.run("threaded twin", &twin(Runtime::Threaded))?);
        let serial = runner.run(
            "serial fan-out twin",
            &Options {
                pipelining: Some(false),
                ..Options::plain()
            },
        )?;
        net_us = (round_us - threaded_us).max(0.0);
        m.set("cluster.virtual_round_us", in_process_us);
        m.set("cluster.threaded_round_us", threaded_us);
        m.set("net.transport_us", net_us);
        m.set("net.pipelined_round_us", round_us);
        m.set("net.serial_round_us", mean_round_us(&serial));
        let first_ns = (plain.rounds[0].consume_end - plain.start_ns) as f64;
        m.set("net.fleet_up_ms", (first_ns / 1e3 - round_us) / 1e3);
        if let Some(net) = plain.net {
            let finished = plain.rounds.len() as f64;
            m.set(
                "net.broadcast_us",
                net.broadcast_wall_nanos as f64 / 1e3 / finished,
            );
            m.set(
                "net.loopback_gbps",
                (net.bytes_sent + net.bytes_received) as f64 / 1e9 / plain.wall_seconds(),
            );
            m.set("net.bytes_sent_per_round", net.bytes_sent as f64 / finished);
            m.set(
                "net.bytes_received_per_round",
                net.bytes_received as f64 / finished,
            );
            m.set(
                "net.frames_per_round",
                (net.frames_sent + net.frames_received) as f64 / finished,
            );
            m.set("net.flushes_per_round", net.flushes as f64 / finished);
            m.set("net.backpressure_events", net.backpressure_events as f64);
            m.set("net.stale_frames", net.stale_frames as f64);
            m.set("net.deaths", net.deaths as f64);
        }
    }
    let mut control_us = 0.0;
    if !spec.controller.is_default() {
        control_us = observe_us;
        m.set("control.observe_us", observe_us);
        m.set("control.switches", plain.switches as f64);
        let twin = runner.run(
            "static-controller twin",
            &Options {
                static_controller: true,
                ..Options::plain()
            },
        )?;
        m.set("control.static_round_us", mean_round_us(&twin));
    }
    if spec.optimizer != OptimizerSpec::FixedPoint {
        let risks = runner
            .run(
                "risk-recording run",
                &Options {
                    record_risk: true,
                    ..Options::plain()
                },
            )?
            .risks;
        let expect = Expect::read(dir, workload.name)?;
        m.set(
            "optim.rounds_to_target",
            rounds_to_target(&risks, expect.as_ref()),
        );
    }

    // Who owns the round. The replayed costs are serial, so against an
    // in-process round (the run itself on virtual time, its virtual twin on
    // sockets) they add up directly and the engine keeps what no lower
    // layer owns. On sockets the transport's share is the round minus its
    // threaded twin, and the in-process costs (plus the wire codec the
    // virtual twin lacks) share the rest in proportion, because the
    // workers there overlap.
    let kernel_us = per_replayed_round_us("worker_partials") + step_us;
    let coding_us = ["encode", "receive", "decode", "decode_partial"]
        .iter()
        .map(|name| per_replayed_round_us(name))
        .sum::<f64>();
    let draws_us = per_replayed_round_us("latency_draws");
    let wire_us = per_replayed_round_us("wire_encode") + per_replayed_round_us("wire_decode");
    let attributed_us = kernel_us + coding_us + draws_us + control_us;
    let residual_us = (in_process_us - attributed_us).max(0.0);
    m.set("cluster.engine_residual_us", residual_us);
    m.set("trace.round_us_mean", in_process_us);
    m.set("trace.attributed_us", attributed_us);
    m.set("trace.spans", trace.spans().len() as f64);
    m.set("trace.replayed_rounds", traced.samples.len() as f64);
    let net_share = net_us / round_us;
    let scale = (1.0 - net_share) / (attributed_us + residual_us + wire_us);
    m.set("share.optim_linalg", kernel_us * scale);
    m.set("share.coding", coding_us * scale);
    m.set("share.latency_draw", draws_us * scale);
    m.set("share.cluster_engine", (residual_us + wire_us) * scale);
    m.set("share.control", control_us * scale);
    m.set("share.net", net_share);

    Ok(Layers {
        metrics: m.complete(),
        trace,
        attempted: runner.attempted,
        failed: runner.failed,
        failures: runner.failures,
    })
}
