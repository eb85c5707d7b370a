//! Fractional-repetition (FR) gradient coding — the second construction of
//! Tandon et al. \[7\], mentioned in the paper's footnote 2: a deterministic
//! replication scheme that "may finish when the master collects results from
//! less than m − r + 1 workers", applicable when `r | n`.
//!
//! The `n` data units are split into `n/r` disjoint shards of `r` units;
//! each shard is replicated on `r` workers. A worker sends the *sum* of its
//! shard's partial gradients (one unit); the master completes when it has
//! heard from at least one worker of every shard group. Worst case it
//! tolerates `r − 1` stragglers, but under random stragglers it often
//! finishes earlier than CR — the behaviour the footnote points out.

use crate::error::CodingError;
use crate::payload::Payload;
use crate::scheme::{encode_sum, CoverageDecoder, Decoder, GradientCodingScheme, Slots};
use bcc_data::Placement;

/// Fractional-repetition scheme over `n` workers / `n` units, `r | n`.
#[derive(Debug, Clone)]
pub struct FractionalRepetitionScheme {
    placement: Placement,
    n: usize,
    r: usize,
    shards: usize,
    /// `shard_of[i]` = shard stored by worker `i`.
    shard_of: Vec<usize>,
}

impl FractionalRepetitionScheme {
    /// Builds the FR scheme.
    ///
    /// # Panics
    /// Panics unless `r > 0` and `r` divides `n`; [`Self::try_new`] is the
    /// fallible form.
    #[must_use]
    pub fn new(n: usize, r: usize) -> Self {
        Self::try_new(n, r).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: returns [`CodingError::InvalidConfig`] instead
    /// of panicking when `r` does not divide `n`.
    ///
    /// # Errors
    /// [`CodingError::InvalidConfig`] unless `r > 0` and `r | n`.
    pub fn try_new(n: usize, r: usize) -> Result<Self, CodingError> {
        if r == 0 || !n.is_multiple_of(r) {
            return Err(CodingError::InvalidConfig {
                reason: format!("fractional repetition needs r | n (n={n}, r={r})"),
            });
        }
        let shards = n / r;
        Ok(Self {
            placement: Placement::fractional_repetition(n, r),
            n,
            r,
            shards,
            shard_of: (0..n).map(|worker| worker % shards).collect(),
        })
    }

    /// Expected number of uniformly random worker arrivals until every shard
    /// group is hit at least once — a coupon collector *without
    /// replacement* over `N = n/r` groups of `g = r` workers each.
    ///
    /// A forward chain on the groups hit: after `k` arrivals with `j`
    /// groups hit, the next arrival is uniform over the `n − k` workers
    /// left, `(N − j)·g` of whom open a new group, so `j → j + 1` with
    /// probability `(N − j)·g/(n − k)` and `j` stays with probability
    /// `(j·g − k)/(n − k)`. Then `E[K] = Σ_{k=0}^{n−1} P(K > k)`, with
    /// `P(K > k)` the chain's mass below `N` after `k` arrivals, in
    /// `O(n·N)`. Every term is a non-negative product, so nothing cancels;
    /// an alternating inclusion–exclusion over the missed groups cancels
    /// in `f64` and reads 140.57 instead of 183.25 at `(n, r) = (200, 2)`.
    #[must_use]
    pub fn expected_recovery_threshold(&self) -> f64 {
        let (n, g, groups) = (self.n, self.r, self.shards);
        // hit[j] = P(exactly j groups hit after the arrivals so far).
        let mut hit = vec![0.0; groups + 1];
        hit[0] = 1.0;
        let mut expectation = 0.0;
        for k in 0..n {
            expectation += hit[..groups].iter().sum::<f64>();
            let left = (n - k) as f64;
            // Downwards, so hit[j + 1] has taken its own step before j
            // feeds it.
            for j in (0..groups).rev() {
                let mass = hit[j];
                hit[j + 1] += mass * ((groups - j) * g) as f64 / left;
                hit[j] = mass * (j * g).saturating_sub(k) as f64 / left;
            }
        }
        expectation
    }
}

impl GradientCodingScheme for FractionalRepetitionScheme {
    fn name(&self) -> &'static str {
        "fractional-repetition"
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
                count: self.shards,
                of_worker: &self.shard_of,
            },
        ))
    }

    fn analytic_recovery_threshold(&self) -> Option<f64> {
        Some(self.expected_recovery_threshold())
    }

    /// The worker's shard group: the slot its decoder files the message in.
    fn message_slot(&self, worker: usize) -> Option<usize> {
        self.shard_of.get(worker).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::test_support::{random_gradients, total_sum, worker_partials};
    use bcc_stats::rng::derive_rng;
    use rand::seq::SliceRandom;

    #[test]
    fn decode_recovers_exact_sum() {
        let s = FractionalRepetitionScheme::new(12, 3);
        let grads = random_gradients(12, 4, 1);
        let mut dec = s.decoder();
        for i in 0..12 {
            let partials = worker_partials(s.placement(), i, &grads);
            if dec.receive(i, s.encode(i, &partials).unwrap()).unwrap() {
                break;
            }
        }
        assert!(bcc_linalg::approx_eq_slice(
            &dec.decode().unwrap(),
            &total_sum(&grads),
            1e-9
        ));
    }

    #[test]
    fn completes_once_each_group_reports() {
        let s = FractionalRepetitionScheme::new(6, 2); // 3 shards × 2 replicas
        let grads = random_gradients(6, 2, 2);
        let mut dec = s.decoder();
        // Workers 0, 1, 2 hold shards 0, 1, 2 → exactly one per group.
        for i in 0..3 {
            let partials = worker_partials(s.placement(), i, &grads);
            let done = dec.receive(i, s.encode(i, &partials).unwrap()).unwrap();
            assert_eq!(done, i == 2);
        }
        assert_eq!(dec.messages_received(), 3);
    }

    #[test]
    fn tolerates_any_r_minus_one_stragglers() {
        let (n, r) = (8, 4);
        let s = FractionalRepetitionScheme::new(n, r);
        let grads = random_gradients(n, 2, 3);
        let expect = total_sum(&grads);
        // Remove any r−1 = 3 workers; remaining must still decode.
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let alive: Vec<usize> =
                        (0..n).filter(|&i| i != a && i != b && i != c).collect();
                    let mut dec = s.decoder();
                    for &i in &alive {
                        let partials = worker_partials(s.placement(), i, &grads);
                        if dec.receive(i, s.encode(i, &partials).unwrap()).unwrap() {
                            break;
                        }
                    }
                    assert!(
                        dec.is_complete(),
                        "killing {{{a},{b},{c}}} must not block FR(8,4)"
                    );
                    assert!(bcc_linalg::approx_eq_slice(
                        &dec.decode().unwrap(),
                        &expect,
                        1e-9
                    ));
                }
            }
        }
    }

    #[test]
    fn expected_threshold_matches_simulation() {
        let s = FractionalRepetitionScheme::new(12, 3);
        let analytic = s.expected_recovery_threshold();
        let grads = random_gradients(12, 1, 4);
        let mut rng = derive_rng(5, 0);
        let trials = 4000;
        let mut total = 0usize;
        for _ in 0..trials {
            let mut order: Vec<usize> = (0..12).collect();
            order.shuffle(&mut rng);
            let mut dec = s.decoder();
            for &i in &order {
                let partials = worker_partials(s.placement(), i, &grads);
                if dec.receive(i, s.encode(i, &partials).unwrap()).unwrap() {
                    break;
                }
            }
            total += dec.messages_received();
        }
        let sim = total as f64 / trials as f64;
        assert!(
            (sim - analytic).abs() < 0.15,
            "simulated {sim} vs analytic {analytic}"
        );
    }

    #[test]
    fn expected_threshold_sane_bounds() {
        let s = FractionalRepetitionScheme::new(12, 3);
        let e = s.expected_recovery_threshold();
        // At least one worker per shard (n/r = 4), at most the worst case
        // of all but r − 1 workers (n − r + 1 = 10).
        assert!(e >= 4.0);
        assert!(e <= 10.0 + 1e-9);
    }

    #[test]
    fn expected_threshold_matches_exact_rational_values() {
        // E[K] computed with exact rational arithmetic.
        for (n, r, exact) in [
            (100, 5, 50.363_666_732_112_016),
            (100, 10, 25.086_199_990_890_098),
            (200, 2, 183.253_292_057_169_3),
            (1000, 10, 400.467_706_090_706_1),
        ] {
            let e = FractionalRepetitionScheme::new(n, r).expected_recovery_threshold();
            assert!(
                (e - exact).abs() < 1e-9,
                "(n, r) = ({n}, {r}): {e} vs exact {exact}"
            );
        }
    }

    #[test]
    fn r_one_is_uncoded_like() {
        let s = FractionalRepetitionScheme::new(5, 1);
        assert!((s.expected_recovery_threshold() - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "r | n")]
    fn indivisible_panics() {
        let _ = FractionalRepetitionScheme::new(7, 2);
    }
}
