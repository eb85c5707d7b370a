//! Ablation scheme: BCC *without* in-worker summation.
//!
//! Remark 3 of the paper credits part of BCC's win to each worker
//! compressing its batch into a single summed message. This ablation keeps
//! BCC's batched random placement and coverage-based completion but ships
//! the batch's partial gradients **individually** — the recovery threshold
//! is unchanged while the communication load multiplies by `r`, isolating
//! the contribution of the summation step.

use crate::bcc::BccScheme;
use crate::error::CodingError;
use crate::payload::Payload;
use crate::scheme::{encode_per_example, CoverageDecoder, Decoder, GradientCodingScheme, Slots};
use bcc_data::Placement;
use rand::Rng;

/// BCC placement with per-example (uncompressed) messages.
#[derive(Debug, Clone)]
pub struct UncompressedBccScheme {
    /// The batching, placement and batch choices are BCC's own.
    bcc: BccScheme,
}

impl UncompressedBccScheme {
    /// Same decentralized data distribution as [`crate::BccScheme`].
    #[must_use]
    pub fn new<R: Rng + ?Sized>(m: usize, n: usize, r: usize, rng: &mut R) -> Self {
        Self {
            bcc: BccScheme::new(m, n, r, rng),
        }
    }

    /// Builds from explicit batch choices (tests / replay).
    ///
    /// # Panics
    /// Panics when any choice is out of range.
    #[must_use]
    pub fn from_choices(m: usize, r: usize, choices: Vec<usize>) -> Self {
        Self {
            bcc: BccScheme::from_choices(m, r, choices),
        }
    }

    /// True when every batch was selected by some worker.
    #[must_use]
    pub fn covers_all_batches(&self) -> bool {
        self.bcc.covers_all_batches()
    }
}

impl GradientCodingScheme for UncompressedBccScheme {
    fn name(&self) -> &'static str {
        "bcc-uncompressed"
    }

    fn placement(&self) -> &Placement {
        self.bcc.placement()
    }

    fn encode(&self, worker: usize, partials: &[Vec<f64>]) -> Result<Payload, CodingError> {
        encode_per_example(self.placement(), worker, partials)
    }

    fn decoder(&self) -> Box<dyn Decoder + '_> {
        Box::new(CoverageDecoder::new(self.placement(), Slots::Examples))
    }

    fn analytic_recovery_threshold(&self) -> Option<f64> {
        // Same coverage process as BCC — identical K, r× the load.
        self.bcc.analytic_recovery_threshold()
    }

    fn message_units(&self, worker: usize) -> usize {
        self.placement().load_of(worker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::test_support::{random_gradients, total_sum, worker_partials};

    #[test]
    fn same_threshold_r_times_the_load() {
        // 3 batches of r = 4 over 12 units; 6 workers, two per batch.
        let choices = vec![0, 1, 2, 0, 1, 2];
        let compressed = crate::BccScheme::from_choices(12, 4, choices.clone());
        let uncompressed = UncompressedBccScheme::from_choices(12, 4, choices);
        let grads = random_gradients(12, 2, 1);

        let run = |scheme: &dyn GradientCodingScheme| {
            let mut dec = scheme.decoder();
            for i in 0..6 {
                let p = worker_partials(scheme.placement(), i, &grads);
                if dec.receive(i, scheme.encode(i, &p).unwrap()).unwrap() {
                    break;
                }
            }
            (
                dec.decode().unwrap(),
                dec.messages_received(),
                dec.communication_units(),
            )
        };
        let (sum_c, k_c, l_c) = run(&compressed);
        let (sum_u, k_u, l_u) = run(&uncompressed);
        assert!(bcc_linalg::approx_eq_slice(&sum_c, &sum_u, 1e-9));
        assert!(bcc_linalg::approx_eq_slice(
            &sum_c,
            &total_sum(&grads),
            1e-9
        ));
        // Identical coverage behaviour, r× the communication.
        assert_eq!(k_c, k_u);
        assert_eq!(l_c, k_c);
        assert_eq!(l_u, k_u * 4);
    }

    #[test]
    fn message_units_equal_load() {
        let s = UncompressedBccScheme::from_choices(8, 4, vec![0, 1]);
        assert_eq!(s.message_units(0), 4);
        assert!(s.covers_all_batches());
    }

    #[test]
    fn analytic_threshold_matches_bcc() {
        let s = UncompressedBccScheme::from_choices(20, 5, vec![0, 1, 2, 3]);
        assert_eq!(
            s.analytic_recovery_threshold(),
            Some(bcc_stats::coupon::expected_draws(4))
        );
    }
}
