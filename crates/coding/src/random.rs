//! The *simple randomized* prior-art scheme (§I "Prior Art", eqs. (5)–(6)).
//!
//! Each worker selects `r` of the `m` examples uniformly at random and
//! communicates **each computed partial gradient individually** — no
//! in-worker compression. Coverage of examples (not batches) completes the
//! round. Recovery threshold is near-optimal (`≈ (m/r)·log m`) but the
//! communication load blows up to `≈ m·log m` because every message carries
//! `r` gradient-sized units.

use crate::error::CodingError;
use crate::payload::Payload;
use crate::scheme::{encode_per_example, CoverageDecoder, Decoder, GradientCodingScheme, Slots};
use bcc_data::Placement;
use rand::Rng;

/// Simple randomized scheme: uniform `r`-subsets, per-example messages.
#[derive(Debug, Clone)]
pub struct RandomSubsetScheme {
    placement: Placement,
    m: usize,
    r: usize,
}

impl RandomSubsetScheme {
    /// Draws each worker's `r`-subset uniformly at random.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(m: usize, n: usize, r: usize, rng: &mut R) -> Self {
        let placement = Placement::random_subsets(m, n, r, rng);
        Self { placement, m, r }
    }

    /// Builds from an explicit placement (tests / replay).
    ///
    /// # Panics
    /// Panics when the placement is not `r`-uniform.
    #[must_use]
    pub fn from_placement(placement: Placement, r: usize) -> Self {
        for i in 0..placement.num_workers() {
            assert_eq!(placement.load_of(i), r, "worker {i} load must be r = {r}");
        }
        let m = placement.num_examples();
        Self { placement, m, r }
    }
}

impl GradientCodingScheme for RandomSubsetScheme {
    fn name(&self) -> &'static str {
        "random"
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

    fn analytic_recovery_threshold(&self) -> Option<f64> {
        Some(bcc_stats::coupon::random_scheme_approx(self.m, self.r))
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

    fn covering_scheme(m: usize, n: usize, r: usize, seed: u64) -> RandomSubsetScheme {
        let mut rng = derive_rng(seed, 0);
        loop {
            let s = RandomSubsetScheme::new(m, n, r, &mut rng);
            if s.placement().covers_all() {
                return s;
            }
        }
    }

    #[test]
    fn decode_recovers_exact_sum() {
        let (m, n, r, p) = (15, 30, 4, 3);
        let scheme = covering_scheme(m, n, r, 1);
        let grads = random_gradients(m, p, 2);
        let mut dec = scheme.decoder();
        for i in 0..n {
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
    fn communication_units_are_r_per_message() {
        let (m, n, r) = (12, 24, 3);
        let scheme = covering_scheme(m, n, r, 3);
        let grads = random_gradients(m, 2, 4);
        let mut dec = scheme.decoder();
        let mut fed = 0;
        for i in 0..n {
            let partials = worker_partials(scheme.placement(), i, &grads);
            fed += 1;
            if dec
                .receive(i, scheme.encode(i, &partials).unwrap())
                .unwrap()
            {
                break;
            }
        }
        assert_eq!(dec.messages_received(), fed);
        assert_eq!(dec.communication_units(), fed * r);
        // The communication load is r× the message count — the blow-up the
        // paper's eq. (6) describes.
        assert!(dec.communication_units() >= dec.messages_received() * r);
    }

    #[test]
    fn duplicate_examples_kept_once() {
        // Two workers share example 0; the kept copy must not double-count.
        let placement = bcc_data::Placement::new(3, vec![vec![0, 1], vec![0, 2], vec![1, 2]]);
        let scheme = RandomSubsetScheme::from_placement(placement, 2);
        let grads = random_gradients(3, 2, 5);
        let mut dec = scheme.decoder();
        for i in 0..3 {
            let partials = worker_partials(scheme.placement(), i, &grads);
            if dec
                .receive(i, scheme.encode(i, &partials).unwrap())
                .unwrap()
            {
                break;
            }
        }
        assert!(bcc_linalg::approx_eq_slice(
            &dec.decode().unwrap(),
            &total_sum(&grads),
            1e-9
        ));
    }
}
