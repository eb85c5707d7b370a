//! The **generalized BCC** scheme for heterogeneous clusters (§IV).
//!
//! Data distribution: given per-worker loads `(r₁,…,rₙ)` (from the P2
//! solver), worker `i` independently selects `rᵢ` examples uniformly at
//! random without replacement — no batching, fully decentralized.
//! Communication (§IV-A): *uncoded* — each locally computed partial gradient
//! is shipped individually. The master reaches **coverage** (eq. (16)) when
//! the received gradients span all `m` examples.

use crate::error::CodingError;
use crate::payload::Payload;
use crate::scheme::{encode_per_example, CoverageDecoder, Decoder, GradientCodingScheme, Slots};
use bcc_data::Placement;
use rand::Rng;

/// Generalized BCC: heterogeneous random placement + uncoded communication.
#[derive(Debug, Clone)]
pub struct GeneralizedBccScheme {
    name: &'static str,
    placement: Placement,
}

impl GeneralizedBccScheme {
    /// Runs the decentralized data distribution for the given loads,
    /// redrawing until the union covers the dataset (the practical
    /// counterpart of §IV's conditioning on achievable coverage).
    ///
    /// Returns `None` when no covering placement exists (`Σ rᵢ < m`) or
    /// none was found within the retry budget.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(m: usize, loads: &[usize], rng: &mut R) -> Option<Self> {
        if loads.iter().sum::<usize>() < m {
            return None;
        }
        for _ in 0..10_000 {
            let placement = Placement::heterogeneous_random(m, loads, rng);
            if placement.covers_all() {
                return Some(Self::from_placement("generalized-bcc", placement));
            }
        }
        None
    }

    /// Builds from an explicit placement under the report name `name` —
    /// §IV-A's uncoded communication over any covering assignment (the
    /// load-balanced baseline of §IV-C, tests, replay).
    ///
    /// # Panics
    /// Panics when the placement does not cover the dataset.
    #[must_use]
    pub fn from_placement(name: &'static str, placement: Placement) -> Self {
        assert!(placement.covers_all(), "placement must cover the dataset");
        Self { name, placement }
    }
}

impl GradientCodingScheme for GeneralizedBccScheme {
    fn name(&self) -> &'static str {
        self.name
    }

    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn encode(&self, worker: usize, partials: &[Vec<f64>]) -> Result<Payload, CodingError> {
        encode_per_example(&self.placement, worker, partials)
    }

    fn decoder(&self) -> Box<dyn Decoder + '_> {
        Box::new(CoverageDecoder::new(&self.placement, Slots::Examples))
    }

    fn message_units(&self, worker: usize) -> usize {
        self.placement.load_of(worker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::test_support::{random_gradients, total_sum, worker_partials};
    use bcc_stats::rng::derive_rng;

    #[test]
    fn decodes_exact_sum_with_heterogeneous_loads() {
        let m = 20;
        let loads = vec![2, 5, 8, 12, 3, 7];
        let mut rng = derive_rng(1, 0);
        let scheme = GeneralizedBccScheme::new(m, &loads, &mut rng).expect("coverable");
        let grads = random_gradients(m, 3, 2);
        let mut dec = scheme.decoder();
        for i in 0..loads.len() {
            let partials = worker_partials(scheme.placement(), i, &grads);
            if dec
                .receive(i, scheme.encode(i, &partials).unwrap())
                .unwrap()
            {
                break;
            }
        }
        assert!(dec.is_complete());
        assert!(bcc_linalg::approx_eq_slice(
            &dec.decode().unwrap(),
            &total_sum(&grads),
            1e-9
        ));
    }

    #[test]
    fn message_units_equal_per_worker_loads() {
        let m = 10;
        let loads = vec![3, 7, 10];
        let mut rng = derive_rng(3, 0);
        let scheme = GeneralizedBccScheme::new(m, &loads, &mut rng).unwrap();
        for (i, &l) in loads.iter().enumerate() {
            assert_eq!(scheme.message_units(i), l);
        }
    }

    #[test]
    fn insufficient_total_load_is_none() {
        let mut rng = derive_rng(4, 0);
        assert!(GeneralizedBccScheme::new(10, &[2, 3], &mut rng).is_none());
    }

    #[test]
    fn completes_early_when_fast_workers_cover() {
        // One worker holds everything; hearing from it alone completes.
        let m = 6;
        let placement = Placement::new(m, vec![vec![0, 1, 2, 3, 4, 5], vec![0, 1], vec![2, 3]]);
        let scheme = GeneralizedBccScheme::from_placement("explicit", placement);
        assert_eq!(scheme.name(), "explicit");
        let grads = random_gradients(m, 2, 5);
        let mut dec = scheme.decoder();
        let partials = worker_partials(scheme.placement(), 0, &grads);
        assert!(dec
            .receive(0, scheme.encode(0, &partials).unwrap())
            .unwrap());
        assert_eq!(dec.messages_received(), 1);
        assert_eq!(dec.communication_units(), 6);
    }

    #[test]
    #[should_panic(expected = "cover")]
    fn from_placement_requires_coverage() {
        let placement = Placement::new(4, vec![vec![0, 1]]);
        let _ = GeneralizedBccScheme::from_placement("explicit", placement);
    }
}
