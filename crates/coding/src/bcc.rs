//! The **Batched Coupon's Collector** scheme (§III) — the paper's
//! contribution.
//!
//! Data distribution: partition the `m` examples into `⌈m/r⌉` batches of
//! size `r`; each worker independently and uniformly at random selects one
//! batch (decentralized, coordination-free). Communication: each worker
//! sends the *sum* of its batch's partial gradients (eq. (12)) — one
//! communication unit. Aggregation: the master keeps the first message per
//! batch, discards repeats, and finishes when all batches are covered; the
//! final gradient sum is the sum of the kept messages.
//!
//! Theorem 1: the expected number of workers the master hears from is
//! `⌈m/r⌉·H_{⌈m/r⌉}` — within a `log` factor of the `m/r` lower bound — and
//! the communication load equals the recovery threshold.

use crate::error::CodingError;
use crate::payload::Payload;
use crate::scheme::{encode_sum, CoverageDecoder, Decoder, GradientCodingScheme, Slots};
use bcc_data::{Batching, Placement};
use bcc_stats::coupon;
use rand::Rng;

/// The Batched Coupon's Collector scheme.
#[derive(Debug, Clone)]
pub struct BccScheme {
    batching: Batching,
    placement: Placement,
    /// `choices[i]` = batch selected by worker `i`.
    choices: Vec<usize>,
}

impl BccScheme {
    /// Runs the decentralized data-distribution step: every one of the `n`
    /// workers picks one of the `⌈m/r⌉` batches uniformly at random.
    ///
    /// `rng` drives the batch choices; pass a derived per-round RNG for
    /// reproducibility.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(m: usize, n: usize, r: usize, rng: &mut R) -> Self {
        let batching = Batching::even(m, r);
        let (placement, choices) = Placement::bcc_batched(&batching, n, rng);
        Self {
            batching,
            placement,
            choices,
        }
    }

    /// Builds a scheme from explicit batch choices (used by tests and by the
    /// DES backend to replay a specific realization).
    ///
    /// # Panics
    /// Panics when any choice is out of range.
    #[must_use]
    pub fn from_choices(m: usize, r: usize, choices: Vec<usize>) -> Self {
        let batching = Batching::even(m, r);
        let nb = batching.num_batches();
        assert!(
            choices.iter().all(|&b| b < nb),
            "batch choice out of range (have {nb} batches)"
        );
        let assignments = choices.iter().map(|&b| batching.batch_indices(b)).collect();
        let placement = Placement::new(m, assignments);
        Self {
            batching,
            placement,
            choices,
        }
    }

    /// The batch partition.
    #[must_use]
    pub fn batching(&self) -> &Batching {
        &self.batching
    }

    /// Batch chosen by each worker.
    #[must_use]
    pub fn choices(&self) -> &[usize] {
        &self.choices
    }

    /// Whether this realization can complete at all: with finitely many
    /// workers, random selection may leave a batch unchosen (probability
    /// vanishes as `n` grows — Theorem 1's "sufficiently large n").
    #[must_use]
    pub fn covers_all_batches(&self) -> bool {
        let mut seen = vec![false; self.batching.num_batches()];
        for &b in &self.choices {
            seen[b] = true;
        }
        seen.iter().all(|s| *s)
    }
}

impl GradientCodingScheme for BccScheme {
    fn name(&self) -> &'static str {
        "bcc"
    }

    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn encode(&self, worker: usize, partials: &[Vec<f64>]) -> Result<Payload, CodingError> {
        encode_sum(&self.placement, &self.choices, worker, partials)
    }

    fn decoder(&self) -> Box<dyn Decoder + '_> {
        Box::new(CoverageDecoder::new(
            &self.placement,
            Slots::Summed {
                count: self.batching.num_batches(),
                of_worker: &self.choices,
            },
        ))
    }

    /// `K_BCC(r) = ⌈m/r⌉ · H_{⌈m/r⌉}` (eq. (2) / Theorem 1).
    fn analytic_recovery_threshold(&self) -> Option<f64> {
        Some(coupon::expected_draws(self.batching.num_batches()))
    }

    /// The batch the worker chose: the slot its decoder files the message in.
    fn message_slot(&self, worker: usize) -> Option<usize> {
        self.choices.get(worker).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::test_support::{random_gradients, total_sum, worker_partials};
    use bcc_stats::rng::derive_rng;

    fn run_all_workers(scheme: &BccScheme, grads: &[Vec<f64>], order: &[usize]) -> Vec<f64> {
        let mut dec = scheme.decoder();
        for &i in order {
            let partials = worker_partials(scheme.placement(), i, grads);
            let payload = scheme.encode(i, &partials).unwrap();
            if dec.receive(i, payload).unwrap() {
                break;
            }
        }
        dec.decode().unwrap()
    }

    #[test]
    fn decode_recovers_exact_sum() {
        let (m, n, r, p) = (20, 40, 5, 3);
        let mut rng = derive_rng(7, 0);
        // Retry the random distribution until it covers (n ≫ batches ⇒ rare).
        let scheme = loop {
            let s = BccScheme::new(m, n, r, &mut rng);
            if s.covers_all_batches() {
                break s;
            }
        };
        let grads = random_gradients(m, p, 11);
        let order: Vec<usize> = (0..n).collect();
        let sum = run_all_workers(&scheme, &grads, &order);
        assert!(bcc_linalg::approx_eq_slice(&sum, &total_sum(&grads), 1e-9));
    }

    #[test]
    fn arrival_order_does_not_change_result() {
        let m = 12;
        let r = 4;
        // 3 batches; 6 workers with fixed choices covering all batches twice.
        let scheme = BccScheme::from_choices(m, r, vec![0, 1, 2, 0, 1, 2]);
        let grads = random_gradients(m, 2, 5);
        let forward = run_all_workers(&scheme, &grads, &[0, 1, 2, 3, 4, 5]);
        let backward = run_all_workers(&scheme, &grads, &[5, 4, 3, 2, 1, 0]);
        let interleaved = run_all_workers(&scheme, &grads, &[3, 1, 5, 0, 2, 4]);
        assert!(bcc_linalg::approx_eq_slice(&forward, &backward, 1e-9));
        assert!(bcc_linalg::approx_eq_slice(&forward, &interleaved, 1e-9));
        assert!(bcc_linalg::approx_eq_slice(
            &forward,
            &total_sum(&grads),
            1e-9
        ));
    }

    #[test]
    fn completes_early_with_duplicates_discarded() {
        // Workers 0..3 all pick batch 0; worker 4 picks batch 1.
        let scheme = BccScheme::from_choices(8, 4, vec![0, 0, 0, 0, 1]);
        let grads = random_gradients(8, 2, 9);
        let mut dec = scheme.decoder();
        for i in 0..4 {
            let partials = worker_partials(scheme.placement(), i, &grads);
            let done = dec
                .receive(i, scheme.encode(i, &partials).unwrap())
                .unwrap();
            assert!(!done, "batch 1 still missing");
        }
        let partials = worker_partials(scheme.placement(), 4, &grads);
        assert!(dec
            .receive(4, scheme.encode(4, &partials).unwrap())
            .unwrap());
        // 5 messages received, 5 communication units, 2 kept.
        assert_eq!(dec.messages_received(), 5);
        assert_eq!(dec.communication_units(), 5);
        assert!(bcc_linalg::approx_eq_slice(
            &dec.decode().unwrap(),
            &total_sum(&grads),
            1e-9
        ));
    }

    #[test]
    fn ragged_last_batch_exact() {
        // m = 10, r = 4 → batches {0..4},{4..8},{8..10}; last is short.
        let scheme = BccScheme::from_choices(10, 4, vec![0, 1, 2]);
        let grads = random_gradients(10, 3, 13);
        let sum = run_all_workers(&scheme, &grads, &[0, 1, 2]);
        assert!(bcc_linalg::approx_eq_slice(&sum, &total_sum(&grads), 1e-9));
    }

    #[test]
    fn theoretical_threshold_matches_formula() {
        // m/r = 10 batches: K = 10·H_10 ≈ 29.29.
        let k = coupon::expected_draws(10);
        let scheme = BccScheme::from_choices(100, 10, (0..10).collect());
        assert_eq!(scheme.analytic_recovery_threshold(), Some(k));
        assert!((k - 10.0 * bcc_stats::harmonic::harmonic(10)).abs() < 1e-12);
        assert!((k - 29.289_682_539_682_54).abs() < 1e-9);
        // r = m → one batch → K = 1.
        let whole = BccScheme::from_choices(50, 50, vec![0]);
        assert_eq!(whole.analytic_recovery_threshold(), Some(1.0));
    }

    #[test]
    fn empirical_threshold_matches_coupon_collector() {
        // Feed workers in random arrival order; count messages until
        // coverage. Average should approach ⌈m/r⌉·H_{⌈m/r⌉} for n → ∞.
        let (m, r) = (40usize, 8); // 5 batches → K = 5·H_5 ≈ 11.416
        let expect = coupon::expected_draws(m.div_ceil(r));
        let grads = random_gradients(m, 1, 3);
        let mut rng = derive_rng(21, 0);
        let trials = 400;
        let mut total = 0usize;
        for _ in 0..trials {
            // Effectively infinite workers: draw batch choices on demand.
            let mut dec_choices = Vec::new();
            loop {
                use rand::Rng;
                dec_choices.push(rng.gen_range(0..m.div_ceil(r)));
                let scheme = BccScheme::from_choices(m, r, dec_choices.clone());
                if scheme.covers_all_batches() {
                    let mut dec = scheme.decoder();
                    for i in 0..dec_choices.len() {
                        let partials = worker_partials(scheme.placement(), i, &grads);
                        dec.receive(i, scheme.encode(i, &partials).unwrap())
                            .unwrap();
                    }
                    total += dec.messages_received();
                    break;
                }
            }
        }
        let avg = total as f64 / trials as f64;
        assert!(
            (avg - expect).abs() < 1.0,
            "empirical {avg} vs theoretical {expect}"
        );
    }

    #[test]
    fn decode_before_complete_errors() {
        let scheme = BccScheme::from_choices(8, 4, vec![0, 1]);
        let dec = scheme.decoder();
        assert!(matches!(
            dec.decode(),
            Err(CodingError::NotComplete { received: 0 })
        ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_choices_validates() {
        let _ = BccScheme::from_choices(8, 4, vec![5]);
    }
}
