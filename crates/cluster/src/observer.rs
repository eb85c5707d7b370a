//! The round event stream: metrics, tracing, and experiment drivers as
//! *subscribers* of the protocol instead of fields threaded through it.
//!
//! The [`RoundEngine`](crate::engine::RoundEngine) emits one
//! [`RoundEvent`] per protocol transition — round start, each delivery,
//! completion, stall — with the backend clock, the sending worker, and the
//! decoder's unit coverage at that instant. Anything that wants to watch a
//! run (an event log for tests, a tracing bridge, a live dashboard)
//! implements [`RoundObserver`] and is installed on a backend via
//! [`BackendConfig::observer`](crate::BackendConfig::observer); the protocol itself never changes, which is what keeps
//! observed and unobserved runs byte-identical.
//!
//! Observers are shared as [`SharedObserver`] (`Arc<Mutex<…>>`) because the
//! threaded backend's master loop and the caller live on different
//! lifetimes; the engine locks once per round, so the per-event cost is a
//! plain method call.

use bcc_coding::Coverage;
use std::sync::{Arc, Mutex};

/// One protocol transition of one round.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundEvent {
    /// The master broadcast the evaluation point and the round began.
    Broadcast {
        /// Global round id.
        round: u64,
        /// Live workers that may send this round.
        participants: usize,
    },
    /// A worker message was delivered and fed to the decoder.
    Arrival {
        /// Global round id.
        round: u64,
        /// Sending worker.
        worker: usize,
        /// Backend clock (simulated seconds since round start) of the
        /// delivery.
        at: f64,
        /// Messages consumed so far, this one included.
        messages: usize,
        /// Decoder unit coverage after this message.
        coverage: Coverage,
    },
    /// The aggregation policy declared the round complete.
    Complete {
        /// Global round id.
        round: u64,
        /// Clock of the completing delivery (or of the last delivery when
        /// the policy completed on exhaustion).
        at: f64,
        /// Messages consumed.
        messages: usize,
        /// Final unit coverage.
        coverage: Coverage,
    },
    /// The round stalled: the arrival source exhausted before the policy
    /// completed the round.
    Stalled {
        /// Global round id.
        round: u64,
        /// Messages received before the stall.
        received: usize,
        /// Human-readable cause.
        reason: String,
    },
    /// A frame from an already-settled round (or a superseded broadcast
    /// epoch) arrived while this round was in flight. Pipelined masters
    /// credit it to transport stats but never feed it to the decoder —
    /// this event is that credit made observable.
    StaleFrame {
        /// The round in flight when the late frame arrived.
        round: u64,
        /// The sending worker.
        worker: usize,
        /// The round the late frame was computed for.
        frame_round: u64,
    },
    /// A previously dead (or disconnected) worker re-registered while this
    /// round was in flight and was re-admitted with the current round's
    /// model — it may still contribute to *this* round.
    Rejoined {
        /// The round the worker was re-admitted into.
        round: u64,
        /// The rejoining worker.
        worker: usize,
    },
}

impl RoundEvent {
    /// The event's round id.
    #[must_use]
    pub fn round(&self) -> u64 {
        match self {
            Self::Broadcast { round, .. }
            | Self::Arrival { round, .. }
            | Self::Complete { round, .. }
            | Self::Stalled { round, .. }
            | Self::StaleFrame { round, .. }
            | Self::Rejoined { round, .. } => *round,
        }
    }
}

/// A subscriber of the round event stream.
///
/// `Send` because the threaded backend emits from its master loop (and
/// `Debug` so backends holding an observer stay debuggable). Keep handlers
/// cheap — they run inside the round hot path.
pub trait RoundObserver: std::fmt::Debug + Send {
    /// Called once per protocol transition, in event order.
    fn on_event(&mut self, event: &RoundEvent);
}

/// The no-op observer every unobserved run uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl RoundObserver for NullObserver {
    fn on_event(&mut self, _event: &RoundEvent) {}
}

/// An observer that records every event — the fixture for tests and
/// offline trace analyses.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// Every event seen, in emission order.
    pub events: Vec<RoundEvent>,
}

impl EventLog {
    /// A fresh, shareable log: install the handle on a backend with
    /// [`BackendConfig::observer`](crate::BackendConfig::observer), read
    /// `events` after the run.
    #[must_use]
    pub fn shared() -> Arc<Mutex<Self>> {
        Arc::new(Mutex::new(Self::default()))
    }
}

impl RoundObserver for EventLog {
    fn on_event(&mut self, event: &RoundEvent) {
        self.events.push(event.clone());
    }
}

/// The shareable observer handle backends hold.
pub type SharedObserver = Arc<Mutex<dyn RoundObserver>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_records_events_in_order() {
        let mut log = EventLog::default();
        log.on_event(&RoundEvent::Broadcast {
            round: 0,
            participants: 3,
        });
        log.on_event(&RoundEvent::Arrival {
            round: 0,
            worker: 2,
            at: 0.1,
            messages: 1,
            coverage: Coverage::new(1, 3),
        });
        log.on_event(&RoundEvent::Broadcast {
            round: 1,
            participants: 3,
        });
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.events[1].round(), 0);
    }
}
