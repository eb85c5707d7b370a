//! The common scheme trait and decoder interface.

use crate::error::CodingError;
use crate::payload::Payload;
use bcc_data::Placement;
use bcc_linalg::vec_ops;

/// A gradient-coding scheme: data distribution + worker encoding + master
/// decoding, per §II's `(φᵢ, ψ)` formulation.
///
/// Encoders receive the worker's partial gradients **in the order of
/// [`Placement::worker_examples`]** for that worker; decoders recover the
/// exact sum `Σ_{j=1}^{m} g_j` over all examples.
pub trait GradientCodingScheme: std::fmt::Debug + Send + Sync {
    /// Human-readable scheme name (used in reports and benches).
    fn name(&self) -> &'static str;

    /// The data placement this scheme prescribed.
    fn placement(&self) -> &Placement;

    /// Number of workers `n`.
    fn num_workers(&self) -> usize {
        self.placement().num_workers()
    }

    /// Number of examples `m` (or coded units when `m = n` grouping is in
    /// effect).
    fn num_examples(&self) -> usize {
        self.placement().num_examples()
    }

    /// Worker `i`'s encoding function `φᵢ` (eq. (9)): turns the partial
    /// gradients of `Gᵢ` (in placement order) into a message payload.
    ///
    /// # Errors
    /// [`CodingError::UnknownWorker`] or [`CodingError::MalformedPayload`]
    /// when `partials` does not match the worker's assignment.
    fn encode(&self, worker: usize, partials: &[Vec<f64>]) -> Result<Payload, CodingError>;

    /// Fresh decoder state `ψ` for one iteration (eq. (10)).
    fn decoder(&self) -> Box<dyn Decoder + '_>;

    /// The scheme's *analytic* recovery threshold, when known in closed form:
    /// expected number of workers the master waits for.
    fn analytic_recovery_threshold(&self) -> Option<f64> {
        None
    }

    /// Communication units of worker `i`'s message (Definition 3), without
    /// materializing the payload — used by the cluster backends to charge
    /// transfer time. Default: one combined vector per message; per-example
    /// schemes override with the worker's load.
    fn message_units(&self, worker: usize) -> usize {
        let _ = worker;
        1
    }
}

/// How much of the gradient sum a decoder has recovered so far, counted in
/// coding units (Definition 1's `m`).
///
/// Exact decoders report all-or-nothing coverage; sum/coverage-structured
/// decoders (uncoded shards, BCC batches, fractional-repetition groups,
/// per-example schemes) report the exact number of units whose partial sums
/// are already in hand. Aggregation policies use these counts to rescale
/// partial gradients into unbiased estimates (see
/// `bcc_cluster::policy::FastestK`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// Units whose partial-gradient information is recovered.
    pub covered_units: usize,
    /// Units the scheme codes over (`m`).
    pub total_units: usize,
}

impl Coverage {
    /// Coverage of `covered` out of `total` units.
    #[must_use]
    pub fn new(covered: usize, total: usize) -> Self {
        Self {
            covered_units: covered,
            total_units: total,
        }
    }

    /// All-or-nothing coverage: everything when `complete`, else nothing —
    /// the shape an exact linear decoder (CR) reports.
    #[must_use]
    pub fn all_or_nothing(complete: bool, total: usize) -> Self {
        Self::new(if complete { total } else { 0 }, total)
    }

    /// Covered fraction in `[0, 1]` (`1.0` for the degenerate zero-unit
    /// problem).
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.total_units == 0 {
            1.0
        } else {
            self.covered_units as f64 / self.total_units as f64
        }
    }

    /// Whether every unit is covered.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.covered_units == self.total_units
    }
}

/// Incremental master-side decoder for one iteration.
pub trait Decoder {
    /// Feeds one worker message. Returns `true` when the master can now
    /// recover the gradient (the completion condition holds).
    ///
    /// # Errors
    /// Unknown/duplicate workers and malformed payloads are rejected.
    fn receive(&mut self, worker: usize, payload: Payload) -> Result<bool, CodingError>;

    /// True when enough messages have been received to decode.
    fn is_complete(&self) -> bool;

    /// Recovers the exact gradient **sum** `Σ_{j=1}^{m} g_j`.
    ///
    /// # Errors
    /// [`CodingError::NotComplete`] before completion;
    /// [`CodingError::DecodingFailed`] when the linear solve breaks (never
    /// expected for valid constructions).
    fn decode(&self) -> Result<Vec<f64>, CodingError>;

    /// Number of worker messages received so far (the empirical `|W|`).
    fn messages_received(&self) -> usize;

    /// Total communication units received so far (Definition 3 accounting).
    fn communication_units(&self) -> usize;

    /// How many coding units the messages received so far cover.
    ///
    /// Must be monotone in received messages and reach
    /// [`Coverage::is_full`] no later than [`Decoder::is_complete`].
    fn coverage(&self) -> Coverage;

    /// Recovers the **partial** gradient sum over the covered units only —
    /// what approximate aggregation policies consume before the completion
    /// condition holds.
    ///
    /// The default routes through [`Decoder::decode`]: exact decoders whose
    /// intermediate state is not a per-unit sum (the linear-combination
    /// codes) support no partial readout, so before completion they report
    /// [`CodingError::NotComplete`]. Sum-structured decoders override this
    /// with the running sum of their covered units.
    ///
    /// # Errors
    /// [`CodingError::NotComplete`] when nothing recoverable has arrived
    /// (or, for the default, before completion), plus any decode failure.
    fn decode_partial(&self) -> Result<Vec<f64>, CodingError> {
        self.decode()
    }
}

/// The argument check every `encode` starts with: `worker` exists and
/// `partials` holds one gradient per example the placement assigns it.
/// Returns those examples, in placement order.
pub(crate) fn assigned_examples<'p>(
    placement: &'p Placement,
    worker: usize,
    partials: &[Vec<f64>],
) -> Result<&'p [usize], CodingError> {
    if worker >= placement.num_workers() {
        return Err(CodingError::UnknownWorker {
            worker,
            num_workers: placement.num_workers(),
        });
    }
    let examples = placement.worker_examples(worker);
    if partials.len() != examples.len() {
        return Err(CodingError::MalformedPayload {
            reason: format!(
                "worker {worker} expected {} partial gradients, got {}",
                examples.len(),
                partials.len()
            ),
        });
    }
    Ok(examples)
}

/// eq. (12): worker `i` compresses its whole load into the one sum
/// `z_i = Σ_{j ∈ G_i} g_j`, tagged with the slot `of_worker[i]` it fills (the
/// table [`Slots::Summed`] takes). A worker holding nothing (an uncoded
/// shard when `n > m`) sends the empty vector.
pub(crate) fn encode_sum(
    placement: &Placement,
    of_worker: &[usize],
    worker: usize,
    partials: &[Vec<f64>],
) -> Result<Payload, CodingError> {
    assigned_examples(placement, worker, partials)?;
    Ok(Payload::Sum {
        unit: of_worker[worker],
        vector: vec_ops::sum_vectors(partials.iter().map(Vec::as_slice)).unwrap_or_default(),
    })
}

/// §IV-A: `z_i = {g_j : j ∈ G_i}`, every partial gradient shipped
/// individually under its example id.
pub(crate) fn encode_per_example(
    placement: &Placement,
    worker: usize,
    partials: &[Vec<f64>],
) -> Result<Payload, CodingError> {
    let examples = assigned_examples(placement, worker, partials)?;
    Ok(Payload::PerExample {
        entries: examples
            .iter()
            .copied()
            .zip(partials.iter().cloned())
            .collect(),
    })
}

/// Shared bookkeeping for decoders: tracks seen workers and unit counts.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReceiveLog {
    seen: Vec<bool>,
    messages: usize,
    units: usize,
}

impl ReceiveLog {
    pub(crate) fn new(num_workers: usize) -> Self {
        Self {
            seen: vec![false; num_workers],
            messages: 0,
            units: 0,
        }
    }

    /// Validates and records an arrival; returns an error for unknown or
    /// duplicate workers.
    pub(crate) fn record(&mut self, worker: usize, units: usize) -> Result<(), CodingError> {
        if worker >= self.seen.len() {
            return Err(CodingError::UnknownWorker {
                worker,
                num_workers: self.seen.len(),
            });
        }
        if self.seen[worker] {
            return Err(CodingError::DuplicateWorker { worker });
        }
        self.seen[worker] = true;
        self.messages += 1;
        self.units += units;
        Ok(())
    }

    pub(crate) fn messages(&self) -> usize {
        self.messages
    }

    pub(crate) fn units(&self) -> usize {
        self.units
    }
}

/// The coupons a coverage scheme collects: which slot(s) the placement lets
/// worker `i` fill, and with which payload variant.
pub(crate) enum Slots<'a> {
    /// `count` slots (batches / shards); worker `i` sends one
    /// [`Payload::Sum`] over its whole load into slot `of_worker[i]`.
    Summed {
        /// Number of slots.
        count: usize,
        /// The slot each worker's placement row is.
        of_worker: &'a [usize],
    },
    /// One slot per example; worker `i` sends a [`Payload::PerExample`]
    /// filling exactly the examples of its placement row.
    Examples,
}

/// The paper's master, once (§III; eq. (16) for §IV): keep the first message
/// per slot, discard repeats, complete on coverage. Uncoded shards, BCC
/// batches, fractional-repetition groups and the per-example schemes differ
/// only in their [`Slots`].
pub(crate) struct CoverageDecoder<'a> {
    placement: &'a Placement,
    slots: Slots<'a>,
    log: ReceiveLog,
    /// The kept message of each slot; summed in slot order by `decode`.
    kept: Vec<Option<Vec<f64>>>,
    /// Examples inside the kept slots (slots may be ragged).
    covered_units: usize,
}

impl<'a> CoverageDecoder<'a> {
    pub(crate) fn new(placement: &'a Placement, slots: Slots<'a>) -> Self {
        let count = match slots {
            Slots::Summed { count, .. } => count,
            Slots::Examples => placement.num_examples(),
        };
        Self {
            placement,
            slots,
            log: ReceiveLog::new(placement.num_workers()),
            kept: vec![None; count],
            covered_units: 0,
        }
    }

    /// "it discards the message if the master has received the result from
    /// processing the same batch before, and keeps it otherwise." A slot
    /// holding no example (an empty uncoded shard) is no coupon at all.
    fn keep(&mut self, slot: usize, units: usize, vector: Vec<f64>) {
        if units > 0 && self.kept[slot].is_none() {
            self.kept[slot] = Some(vector);
            self.covered_units += units;
        }
    }

    fn kept_vectors(&self) -> impl Iterator<Item = &[f64]> {
        self.kept.iter().flatten().map(Vec::as_slice)
    }
}

impl Decoder for CoverageDecoder<'_> {
    /// Rejects, before touching any state, a payload of the other variant, an
    /// unknown worker, slot ids that are not exactly the ones the placement
    /// assigns the worker, and a worker's second message.
    fn receive(&mut self, worker: usize, payload: Payload) -> Result<bool, CodingError> {
        let malformed = |reason: String| Err(CodingError::MalformedPayload { reason });
        let known = worker < self.placement.num_workers();
        match (&self.slots, payload) {
            (Slots::Summed { of_worker, .. }, Payload::Sum { unit, vector }) => {
                if known && unit != of_worker[worker] {
                    return malformed(format!(
                        "worker {worker} claims slot {unit} but was assigned {}",
                        of_worker[worker]
                    ));
                }
                self.log.record(worker, 1)?;
                self.keep(unit, self.placement.load_of(worker), vector);
            }
            (Slots::Examples, Payload::PerExample { entries }) => {
                if known
                    && !entries
                        .iter()
                        .map(|(j, _)| j)
                        .eq(self.placement.worker_examples(worker))
                {
                    return malformed(format!(
                        "worker {worker} must send exactly its assigned examples {:?}",
                        self.placement.worker_examples(worker)
                    ));
                }
                // Communication cost: every entry, kept or not (eq. (6)).
                self.log.record(worker, entries.len())?;
                for (example, gradient) in entries {
                    self.keep(example, 1, gradient);
                }
            }
            (Slots::Summed { .. }, _) => return malformed("expected a Sum payload".into()),
            (Slots::Examples, _) => return malformed("expected a PerExample payload".into()),
        }
        Ok(self.is_complete())
    }

    fn is_complete(&self) -> bool {
        self.covered_units == self.placement.num_examples()
    }

    fn decode(&self) -> Result<Vec<f64>, CodingError> {
        if !self.is_complete() {
            return Err(CodingError::NotComplete {
                received: self.log.messages(),
            });
        }
        vec_ops::sum_vectors(self.kept_vectors()).ok_or_else(|| CodingError::DecodingFailed {
            reason: "nothing collected".into(),
        })
    }

    fn messages_received(&self) -> usize {
        self.log.messages()
    }

    fn communication_units(&self) -> usize {
        self.log.units()
    }

    fn coverage(&self) -> Coverage {
        Coverage::new(self.covered_units, self.placement.num_examples())
    }

    fn decode_partial(&self) -> Result<Vec<f64>, CodingError> {
        vec_ops::sum_vectors(self.kept_vectors()).ok_or(CodingError::NotComplete {
            received: self.log.messages(),
        })
    }
}

/// Test helpers shared by scheme unit tests and integration tests.
///
/// Not part of the public API contract; exposed (doc-hidden) so the
/// workspace's integration tests and property tests can drive schemes with
/// synthetic partial gradients without a full dataset.
#[doc(hidden)]
pub mod test_support {
    use bcc_data::Placement;
    use bcc_stats::rng::derive_rng;
    use rand::Rng;

    /// `m` synthetic partial gradients of dimension `p`, deterministic in
    /// `seed`.
    #[must_use]
    pub fn random_gradients(m: usize, p: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = derive_rng(seed, 0x9e37);
        (0..m)
            .map(|_| (0..p).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect()
    }

    /// The partial gradients worker `i` would compute, in placement order.
    #[must_use]
    pub fn worker_partials(
        placement: &Placement,
        worker: usize,
        grads: &[Vec<f64>],
    ) -> Vec<Vec<f64>> {
        placement
            .worker_examples(worker)
            .iter()
            .map(|&j| grads[j].clone())
            .collect()
    }

    /// Exact sum `Σ_j g_j` of all partial gradients.
    #[must_use]
    pub fn total_sum(grads: &[Vec<f64>]) -> Vec<f64> {
        bcc_linalg::vec_ops::sum_vectors(grads.iter().map(Vec::as_slice))
            .expect("non-empty gradient set")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receive_log_counts() {
        let mut log = ReceiveLog::new(3);
        log.record(0, 1).unwrap();
        log.record(2, 5).unwrap();
        assert_eq!(log.messages(), 2);
        assert_eq!(log.units(), 6);
    }

    #[test]
    fn receive_log_rejects_duplicates() {
        let mut log = ReceiveLog::new(2);
        log.record(1, 1).unwrap();
        assert!(matches!(
            log.record(1, 1),
            Err(CodingError::DuplicateWorker { worker: 1 })
        ));
    }

    #[test]
    fn receive_log_rejects_unknown() {
        let mut log = ReceiveLog::new(2);
        assert!(matches!(
            log.record(5, 1),
            Err(CodingError::UnknownWorker { worker: 5, .. })
        ));
    }
}
