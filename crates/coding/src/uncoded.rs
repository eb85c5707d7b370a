//! The uncoded baseline: disjoint shards, wait for everyone.
//!
//! §III-C: "there is no repetition in data among the workers and the master
//! has to wait for all the workers to finish their computations."

use crate::error::CodingError;
use crate::payload::Payload;
use crate::scheme::{encode_sum, CoverageDecoder, Decoder, GradientCodingScheme, Slots};
use bcc_data::Placement;

/// Uncoded scheme: worker `i` owns shard `i` (disjoint), sends the shard's
/// gradient sum; the master waits for every non-empty shard.
#[derive(Debug, Clone)]
pub struct UncodedScheme {
    placement: Placement,
    non_empty: usize,
    /// Worker `i` owns shard `i`.
    shard_of: Vec<usize>,
}

impl UncodedScheme {
    /// Splits `m` examples evenly across `n` workers.
    #[must_use]
    pub fn new(m: usize, n: usize) -> Self {
        let placement = Placement::disjoint_shards(m, n);
        let non_empty = (0..n).filter(|&i| placement.load_of(i) > 0).count();
        Self {
            placement,
            non_empty,
            shard_of: (0..n).collect(),
        }
    }

    /// Number of workers holding at least one example (all must report).
    #[must_use]
    pub fn required_workers(&self) -> usize {
        self.non_empty
    }
}

impl GradientCodingScheme for UncodedScheme {
    fn name(&self) -> &'static str {
        "uncoded"
    }

    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn encode(&self, worker: usize, partials: &[Vec<f64>]) -> Result<Payload, CodingError> {
        encode_sum(&self.placement, &self.shard_of, worker, partials)
    }

    fn decoder(&self) -> Box<dyn Decoder + '_> {
        Box::new(CoverageDecoder::new(
            &self.placement,
            Slots::Summed {
                count: self.shard_of.len(),
                of_worker: &self.shard_of,
            },
        ))
    }

    fn analytic_recovery_threshold(&self) -> Option<f64> {
        Some(self.non_empty as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::test_support::{random_gradients, worker_partials};

    #[test]
    fn decode_recovers_exact_sum() {
        let (m, n, p) = (23, 5, 4);
        let scheme = UncodedScheme::new(m, n);
        let grads = random_gradients(m, p, 42);
        let mut dec = scheme.decoder();
        for i in 0..n {
            let partials = worker_partials(scheme.placement(), i, &grads);
            let payload = scheme.encode(i, &partials).unwrap();
            dec.receive(i, payload).unwrap();
        }
        assert!(dec.is_complete());
        let sum = dec.decode().unwrap();
        let expect = bcc_linalg::vec_ops::sum_vectors(grads.iter().map(Vec::as_slice)).unwrap();
        assert!(bcc_linalg::approx_eq_slice(&sum, &expect, 1e-9));
        assert_eq!(dec.messages_received(), n);
        assert_eq!(dec.communication_units(), n);
    }

    #[test]
    fn incomplete_until_all_nonempty_report() {
        let scheme = UncodedScheme::new(10, 4);
        let grads = random_gradients(10, 3, 1);
        let mut dec = scheme.decoder();
        for i in 0..3 {
            let partials = worker_partials(scheme.placement(), i, &grads);
            let done = dec
                .receive(i, scheme.encode(i, &partials).unwrap())
                .unwrap();
            assert!(!done, "must wait for all workers");
        }
        assert!(matches!(
            dec.decode(),
            Err(CodingError::NotComplete { received: 3 })
        ));
        let partials = worker_partials(scheme.placement(), 3, &grads);
        assert!(dec
            .receive(3, scheme.encode(3, &partials).unwrap())
            .unwrap());
    }

    #[test]
    fn more_workers_than_examples() {
        // Workers with empty shards are not required.
        let scheme = UncodedScheme::new(3, 5);
        assert_eq!(scheme.required_workers(), 3);
        assert_eq!(scheme.analytic_recovery_threshold(), Some(3.0));
        let grads = random_gradients(3, 2, 2);
        let mut dec = scheme.decoder();
        for i in 0..3 {
            let partials = worker_partials(scheme.placement(), i, &grads);
            dec.receive(i, scheme.encode(i, &partials).unwrap())
                .unwrap();
        }
        assert!(dec.is_complete());
    }

    #[test]
    fn encode_validates_partial_count() {
        let scheme = UncodedScheme::new(10, 2);
        assert!(matches!(
            scheme.encode(0, &[]),
            Err(CodingError::MalformedPayload { .. })
        ));
        assert!(matches!(
            scheme.encode(7, &[]),
            Err(CodingError::UnknownWorker { .. })
        ));
    }
}
