//! The worker side of a round, shared by the real-time backends.
//!
//! A threaded pool thread and a TCP worker (process or loopback thread)
//! do the same thing with a broadcast: sleep the sampled compute delay,
//! compute and encode, stage the wire envelope — abandoning the round the
//! moment the master's *finished watermark* passes it. [`WorkerStep`] is
//! that body; what differs is only where the delay comes from (sampled in
//! the pool thread, shipped in the TCP `Round` frame) and where the staged
//! bytes go (a channel, a socket).

use crate::engine::RoundContext;
use crate::message::Envelope;
use crate::minibatch::UnitSelection;
use crate::wire;
use bcc_optim::GradScratch;
use bytes::BytesMut;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Granularity of cancellable sleeps.
const SLEEP_SLICE: Duration = Duration::from_millis(2);

/// Sleeps `duration`, waking early when `cancelled` reports true — lets
/// straggler threads abandon a round as soon as the master completed it.
pub fn cancellable_sleep(duration: Duration, cancelled: impl Fn() -> bool) {
    let deadline = Instant::now() + duration;
    while Instant::now() < deadline {
        if cancelled() {
            return;
        }
        std::thread::sleep(SLEEP_SLICE.min(deadline.saturating_duration_since(Instant::now())));
    }
}

/// What a worker has to say about one round. Unless the master cancels the
/// round first, every round produces exactly one report, which is what lets
/// the master detect "all live workers reported without completing"
/// promptly instead of burning its receive timeout.
#[derive(Debug, PartialEq, Eq)]
pub enum WorkerReport<'a> {
    /// The master settled the round first: send nothing.
    Cancelled,
    /// Encoding failed (malformed config): report the round as skipped so
    /// the master can stall promptly and accurately.
    Skipped,
    /// The wire-encoded [`Envelope`], staged in the step's reused buffer.
    Envelope(&'a [u8]),
}

/// One worker's round body plus its per-run reusable state: the gradient
/// scratch and the wire staging buffer live for the whole run, so the
/// steady-state round loop allocates nothing here.
pub struct WorkerStep<'a> {
    ctx: RoundContext<'a>,
    worker: usize,
    /// Real seconds slept per simulated second of delay.
    time_scale: f64,
    /// Rounds below this are settled at the master.
    finished_before: &'a AtomicU64,
    scratch: GradScratch,
    wire_buf: BytesMut,
}

impl<'a> WorkerStep<'a> {
    /// Step for `worker`, watching `finished_before` for cancellation.
    #[must_use]
    pub fn new(
        ctx: RoundContext<'a>,
        worker: usize,
        time_scale: f64,
        finished_before: &'a AtomicU64,
    ) -> Self {
        Self {
            ctx,
            worker,
            time_scale,
            finished_before,
            scratch: GradScratch::new(),
            wire_buf: BytesMut::with_capacity(0),
        }
    }

    /// Serves `round`: emulate `delay_seconds` of compute, then do the real
    /// work at `weights` over the round's `selection`.
    pub fn run(
        &mut self,
        round: u64,
        weights: &[f64],
        selection: Option<&UnitSelection>,
        delay_seconds: f64,
    ) -> WorkerReport<'_> {
        let finished_before = self.finished_before;
        let settled = || finished_before.load(Ordering::Relaxed) > round;
        // Emulated straggling first: the delay models the worker's compute
        // duration, and sleeping before the real work keeps cancellation
        // responsive — a straggler whose round the master already finished
        // wakes within a sleep slice and never starts computing, so its
        // next round is not delayed.
        cancellable_sleep(
            Duration::from_secs_f64(delay_seconds * self.time_scale),
            settled,
        );
        if settled() {
            return WorkerReport::Cancelled;
        }
        // Real computation: the worker's unit partial gradients
        // (packed-kernel path), encoded with the scheme and staged through
        // the reused wire buffer.
        let computed = self.ctx.compute_and_encode_selected(
            self.worker,
            weights,
            &mut self.scratch,
            selection,
        );
        let report = match computed {
            Ok(payload) => {
                let envelope = Envelope {
                    iteration: round,
                    worker: self.worker,
                    compute_seconds: delay_seconds,
                    payload,
                };
                wire::encode_into(&envelope, &mut self.wire_buf);
                WorkerReport::Envelope(self.wire_buf.as_ref())
            }
            Err(_) => WorkerReport::Skipped,
        };
        if settled() {
            return WorkerReport::Cancelled; // round completed while we computed
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::WorkerBlocks;
    use crate::units::UnitMap;
    use bcc_coding::{CodingError, Decoder, GradientCodingScheme, Payload, UncodedScheme};
    use bcc_data::synthetic::{generate, SyntheticConfig};
    use bcc_data::{Dataset, Placement};
    use bcc_optim::LogisticLoss;

    /// Uncoded placement and decoder, but every `encode` fails — the
    /// malformed-config case a worker must report rather than hide.
    #[derive(Debug)]
    struct EncodeFails(UncodedScheme);

    impl GradientCodingScheme for EncodeFails {
        fn name(&self) -> &'static str {
            "encode-fails"
        }
        fn placement(&self) -> &Placement {
            self.0.placement()
        }
        fn encode(&self, _worker: usize, _partials: &[Vec<f64>]) -> Result<Payload, CodingError> {
            Err(CodingError::InvalidConfig {
                reason: "test scheme never encodes".into(),
            })
        }
        fn decoder(&self) -> Box<dyn Decoder + '_> {
            self.0.decoder()
        }
    }

    /// Runs `f` on a step for worker 1 of a 3-worker problem under `scheme`.
    fn with_step<R>(
        scheme: &dyn GradientCodingScheme,
        finished_before: u64,
        f: impl FnOnce(&mut WorkerStep<'_>, RoundContext<'_>) -> R,
    ) -> R {
        let data: Dataset = generate(&SyntheticConfig::small(12, 3, 9)).dataset;
        let units = UnitMap::grouped(12, 6);
        let packed = WorkerBlocks::build(scheme, &units, &data);
        let ctx = RoundContext {
            scheme,
            units: &units,
            data: &data,
            loss: &LogisticLoss,
            packed: &packed,
            minibatch: None,
        };
        let watermark = AtomicU64::new(finished_before);
        f(&mut WorkerStep::new(ctx, 1, 1.0, &watermark), ctx)
    }

    #[test]
    fn a_round_settled_before_compute_sends_nothing() {
        let scheme = UncodedScheme::new(6, 3);
        // Round 4 is already below the watermark: even an hour of emulated
        // delay returns at once, without computing.
        let started = Instant::now();
        let report = with_step(&scheme, 5, |step, _| {
            step.run(4, &[0.1; 3], None, 3600.0) == WorkerReport::Cancelled
        });
        assert!(report, "a settled round must be reported as cancelled");
        assert!(started.elapsed() < Duration::from_secs(60));
    }

    #[test]
    fn an_encode_failure_reports_skipped() {
        let scheme = EncodeFails(UncodedScheme::new(6, 3));
        with_step(&scheme, 0, |step, _| {
            assert_eq!(step.run(0, &[0.1; 3], None, 0.0), WorkerReport::Skipped);
        });
    }

    #[test]
    fn the_staged_bytes_are_the_wire_encoding_of_the_envelope() {
        let scheme = UncodedScheme::new(6, 3);
        with_step(&scheme, 0, |step, ctx| {
            let weights = [0.1, -0.2, 0.3];
            let payload = ctx
                .compute_and_encode(1, &weights, &mut GradScratch::new())
                .unwrap();
            let expected = wire::encode(&Envelope {
                iteration: 7,
                worker: 1,
                compute_seconds: 0.001,
                payload,
            });
            // Twice, so the second round goes through a warm staging buffer.
            for _ in 0..2 {
                match step.run(7, &weights, None, 0.001) {
                    WorkerReport::Envelope(bytes) => assert_eq!(bytes, expected.as_ref()),
                    other => panic!("expected an envelope, got {other:?}"),
                }
            }
        });
    }
}
