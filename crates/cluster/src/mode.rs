//! Training modes: how rounds relate to optimizer steps.
//!
//! The paper's protocol is **synchronous**: round `t + 1`'s broadcast waits
//! for round `t`'s decoded gradient, so the straggler tail is paid once per
//! iteration — that cost is exactly what coded redundancy buys back. The
//! straggler-mitigation literature's other lever is *staleness*: let
//! workers run ahead and apply late gradients to newer weights. This module
//! names three points on that axis as an object-safe [`TrainingMode`]
//! (the experiment layer's `ModeSpec`/`ModeRegistry` resolve to one):
//!
//! | mode | step rule | blocking |
//! |---|---|---|
//! | [`Ssgd`] | one exact step per completed round | every round |
//! | [`Ssp`] | stale steps allowed up to `staleness` rounds behind | only at the bound |
//! | [`Asgd`] | every decodable arrival applied as it lands | never |
//!
//! A mode is *policy*, not *mechanism*: the round engine, arrival sources,
//! and backends are untouched. SSP/ASGD overlap rounds by scheduling each
//! round's **start offset** — how long a worker is still busy with earlier
//! rounds when the new broadcast reaches it — through an [`OffsetTable`]
//! consumed by an [`OffsetModel`] wrapper around the installed
//! [`StragglerModel`]. Because every backend (including the TCP master,
//! which samples delays master-side and patches them into round frames)
//! draws per-`(round, worker)` compute times from the installed model, one
//! wrapper pipelines rounds identically across all of them.
//!
//! The drivers that interpret a [`ModeSchedule`] live in the experiment
//! layer (`bcc::experiment`), next to the optimizer loop they reorder.

use crate::straggler::StragglerModel;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// What a [`TrainingMode`] asks of the driver loop — the mode's entire
/// behavioural contract, so custom [`TrainingMode`] implementations can
/// reuse the built-in drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeSchedule {
    /// One optimizer step per completed round; round `t + 1` broadcasts
    /// round `t`'s post-step weights (the paper's protocol).
    Synchronous,
    /// Rounds overlap; a round may start while up to `staleness` earlier
    /// rounds are still in flight, and their gradients are applied stale.
    StaleBounded {
        /// Maximum rounds a broadcast may run ahead of the slowest
        /// unapplied round (`0` degenerates to [`ModeSchedule::Synchronous`]
        /// scheduling with completion-order applies).
        staleness: usize,
    },
    /// Parameter-server style: no staleness bound at all — every round
    /// starts as soon as any prior round completes, and each decodable
    /// completion is applied the moment it lands.
    Async,
}

/// A training mode: the round-to-step relationship an experiment runs
/// under.
///
/// Object-safe so the experiment layer can hold `Arc<dyn TrainingMode>`
/// resolved from a spec string; `Send + Sync` because experiments fan out
/// across sweep threads. The behavioural contract is entirely in
/// [`TrainingMode::schedule`] — `name`/`description` feed reports and
/// `repro list`.
pub trait TrainingMode: fmt::Debug + Send + Sync {
    /// Spec-facing mode name (`"ssgd"`, `"ssp"`, …).
    fn name(&self) -> &str;

    /// One-line description for `repro list`.
    fn description(&self) -> &str;

    /// The schedule the driver loop must implement.
    fn schedule(&self) -> ModeSchedule;
}

/// Synchronous SGD — the paper's per-round step: the plain round loop,
/// nothing retimed (pinned bit-for-bit by the perf-baseline replays and the
/// `ssgd`-equals-hand-wired-loop test).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ssgd;

impl TrainingMode for Ssgd {
    fn name(&self) -> &str {
        "ssgd"
    }

    fn description(&self) -> &str {
        "synchronous rounds: one exact step per decoded round (the paper's protocol, default)"
    }

    fn schedule(&self) -> ModeSchedule {
        ModeSchedule::Synchronous
    }
}

/// Stale-synchronous parallel: rounds pipeline up to `staleness` deep, the
/// master applies coverage-rescaled stale gradients in arrival order and
/// blocks only when the bound is hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ssp {
    /// Maximum in-flight rounds ahead of the slowest unapplied one.
    pub staleness: usize,
}

impl TrainingMode for Ssp {
    fn name(&self) -> &str {
        "ssp"
    }

    fn description(&self) -> &str {
        "stale-synchronous: rounds pipeline up to `staleness` deep, blocking only at the bound"
    }

    fn schedule(&self) -> ModeSchedule {
        ModeSchedule::StaleBounded {
            staleness: self.staleness,
        }
    }
}

/// Asynchronous SGD (parameter-server style): every decodable round result
/// is applied the moment it lands; nothing ever blocks on a straggler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Asgd;

impl TrainingMode for Asgd {
    fn name(&self) -> &str {
        "asgd"
    }

    fn description(&self) -> &str {
        "asynchronous parameter server: apply each decodable round as it lands, unbounded staleness"
    }

    fn schedule(&self) -> ModeSchedule {
        ModeSchedule::Async
    }
}

/// Shared per-`(round, worker)` start-offset table — the channel through
/// which a pipelining mode driver tells the backend *when each worker can
/// start each round*.
///
/// Cloning shares the underlying table (it is an `Arc` inside), so the
/// driver and the backend's [`OffsetModel`] observe the same entries.
///
/// ## Determinism contract
///
/// [`StragglerModel`] draws must be pure functions of their key. The table
/// preserves that contract operationally: the driver publishes a round's
/// offsets **before** the backend starts the round and never rewrites an
/// entry, so every query for a `(round, worker)` key observes one value for
/// the life of the run. [`OffsetTable::set`] panics on rewrite attempts.
#[derive(Debug, Clone, Default)]
pub struct OffsetTable {
    offsets: Arc<Mutex<HashMap<(u64, usize), f64>>>,
}

impl OffsetTable {
    /// Empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes the start offset (simulated seconds) for `worker` in
    /// `round`.
    ///
    /// # Panics
    /// Panics when the entry was already published with a different value
    /// (rewrites would break the straggler-model determinism contract), or
    /// on a negative/non-finite offset.
    pub fn set(&self, round: u64, worker: usize, offset: f64) {
        assert!(
            offset >= 0.0 && offset.is_finite(),
            "start offset must be non-negative and finite, got {offset}"
        );
        let mut table = self.offsets.lock().expect("offset table lock poisoned");
        if let Some(old) = table.insert((round, worker), offset) {
            assert!(
                old.to_bits() == offset.to_bits(),
                "offset for (round {round}, worker {worker}) rewritten: {old} -> {offset}"
            );
        }
    }

    /// The published start offset for `(round, worker)`; `0` when none was
    /// published (synchronous rounds need no entry).
    #[must_use]
    pub fn get(&self, round: u64, worker: usize) -> f64 {
        self.offsets
            .lock()
            .expect("offset table lock poisoned")
            .get(&(round, worker))
            .copied()
            .unwrap_or(0.0)
    }

    /// Number of published entries (test/diagnostic surface).
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets
            .lock()
            .expect("offset table lock poisoned")
            .len()
    }

    /// Whether no entry was ever published.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A [`StragglerModel`] wrapper adding each worker's scheduled start offset
/// (from an [`OffsetTable`]) to the wrapped model's compute time.
///
/// This is how SSP/ASGD pipeline rounds without touching any backend: a
/// worker that is still `d` seconds busy with earlier rounds when round `t`
/// is broadcast behaves, from the master's point of view, exactly like a
/// worker whose round-`t` compute takes `d` seconds longer. Installing the
/// wrapper via [`BackendConfig`](crate::config::BackendConfig) therefore
/// works uniformly on the virtual, threaded, and TCP backends — the TCP
/// master samples delays from the installed model master-side and patches
/// them into the round frames it sends.
///
/// `name()` delegates to the wrapped model so reports keep naming the
/// latency family; the offsets are schedule bookkeeping, not latency.
#[derive(Debug, Clone)]
pub struct OffsetModel {
    inner: Arc<dyn StragglerModel>,
    offsets: OffsetTable,
}

impl OffsetModel {
    /// Wraps `inner`, adding offsets published to `offsets`.
    #[must_use]
    pub fn wrap(inner: Arc<dyn StragglerModel>, offsets: OffsetTable) -> Self {
        Self { inner, offsets }
    }

    /// The shared offset table (clone to publish from a driver).
    #[must_use]
    pub fn table(&self) -> &OffsetTable {
        &self.offsets
    }
}

impl StragglerModel for OffsetModel {
    fn compute_seconds(&self, seed: u64, round: u64, worker: usize, load: usize) -> f64 {
        self.inner.compute_seconds(seed, round, worker, load) + self.offsets.get(round, worker)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn mean_compute_seconds(&self, worker: usize, load: usize) -> Option<f64> {
        // Offsets are schedule state, not part of the latency family's
        // closed form.
        self.inner.mean_compute_seconds(worker, load)
    }
}

/// The built-in modes as `(name, one-line description)` pairs — the
/// discovery surface `repro list` prints (mirrors
/// [`crate::straggler::ZOO`]).
pub const MODES: [(&str, &str); 3] = [
    (
        "ssgd",
        "synchronous rounds: one exact step per decoded round (the paper's protocol, default)",
    ),
    (
        "ssp",
        "stale-synchronous: rounds pipeline up to `staleness` deep, blocking only at the bound",
    ),
    (
        "asgd",
        "asynchronous parameter server: apply each decodable round as it lands, unbounded staleness",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::straggler::ShiftedExpModel;

    #[test]
    fn builtin_names_match_the_discovery_table() {
        let modes: [&dyn TrainingMode; 3] = [&Ssgd, &Ssp { staleness: 2 }, &Asgd];
        for (mode, (name, description)) in modes.iter().zip(MODES) {
            assert_eq!(mode.name(), name);
            assert_eq!(mode.description(), description);
        }
    }

    #[test]
    fn schedules_carry_their_parameters() {
        assert_eq!(Ssgd.schedule(), ModeSchedule::Synchronous);
        assert_eq!(
            Ssp { staleness: 3 }.schedule(),
            ModeSchedule::StaleBounded { staleness: 3 }
        );
        assert_eq!(Asgd.schedule(), ModeSchedule::Async);
    }

    #[test]
    fn offset_model_adds_published_offsets_and_keeps_the_inner_name() {
        let inner = Arc::new(ShiftedExpModel::homogeneous(4, 2.0, 0.01));
        let table = OffsetTable::new();
        let model = OffsetModel::wrap(inner.clone(), table.clone());
        let base = inner.compute_seconds(7, 1, 2, 3);
        assert_eq!(model.compute_seconds(7, 1, 2, 3).to_bits(), base.to_bits());
        table.set(1, 2, 0.25);
        assert_eq!(
            model.compute_seconds(7, 1, 2, 3).to_bits(),
            (base + 0.25).to_bits()
        );
        // Other keys stay untouched.
        assert_eq!(
            model.compute_seconds(7, 1, 3, 3).to_bits(),
            inner.compute_seconds(7, 1, 3, 3).to_bits()
        );
        assert_eq!(model.name(), "shifted-exp");
        assert_eq!(
            model.mean_compute_seconds(2, 3),
            inner.mean_compute_seconds(2, 3)
        );
    }

    #[test]
    fn offset_table_allows_idempotent_republish() {
        let table = OffsetTable::new();
        table.set(0, 1, 0.5);
        table.set(0, 1, 0.5);
        assert_eq!(table.len(), 1);
        assert!((table.get(0, 1) - 0.5).abs() < 1e-12);
        assert_eq!(table.get(9, 9), 0.0);
    }

    #[test]
    #[should_panic(expected = "rewritten")]
    fn offset_table_rejects_rewrites() {
        let table = OffsetTable::new();
        table.set(0, 1, 0.5);
        table.set(0, 1, 0.75);
    }
}
