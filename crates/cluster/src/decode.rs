//! Parallel server-side decode/aggregate.
//!
//! The master's decode step folds one vector per arrival (or per covered
//! unit) into the gradient sum — at `n = 1000` workers × `dim = 10240`
//! that fold is the round's serial bottleneck once the packed worker
//! kernels made per-worker compute nearly free. [`DecodePool`] routes
//! decoders that expose their result as a fixed-order weighted sum
//! ([`Decoder::partial_sum_terms`]) through the column-window reduction
//! in [`bcc_linalg::parallel::par_weighted_sum`].
//!
//! **Determinism contract**: the parallel reduction partitions *columns*,
//! never the per-element accumulation chain, and each column window replays
//! the exact serial recurrence (`out[k] = c₀·v₀[k]` then
//! `out[k] = vᵢ[k].mul_add(cᵢ, out[k])`). The result is bit-identical to
//! the serial `decode`/`decode_partial` fold for **any** thread count —
//! pinned by `tests/parallel_decode.rs` and the extended
//! `tests/policy_equivalence.rs`. Decoders that report no terms (cyclic
//! repetition before its solve succeeds) fall back to their serial entry
//! points, as do empty decoders so `NotComplete` errors surface unchanged.

use bcc_coding::{CodingError, Decoder};
use bcc_linalg::parallel::{par_weighted_sum, Parallelism};

/// Thread budget for the master's decode/aggregate fold.
///
/// Copy-cheap: carried by value inside
/// [`RoundView`](crate::policy::RoundView) so policies decode through it
/// without extra plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodePool {
    par: Parallelism,
}

impl Default for DecodePool {
    /// The serial fold ([`DecodePool::serial`]); threads only when asked
    /// for with [`DecodePool::threads`]. Most rounds fold less than
    /// `split_runs`' 2¹⁸-element `MIN_WORK` threshold and never spawn,
    /// and where they do spawn the threads can lose: on a 2-core host two
    /// threads sum 2 × 131 072 terms in 396 µs against 176 µs serially
    /// (median of 400 calls).
    fn default() -> Self {
        Self::serial()
    }
}

impl DecodePool {
    /// Pool folding with the given thread budget.
    #[must_use]
    pub fn new(par: Parallelism) -> Self {
        Self { par }
    }

    /// Single-threaded pool (the legacy serial fold, via the same code
    /// path).
    #[must_use]
    pub fn serial() -> Self {
        Self::new(Parallelism::sequential())
    }

    /// Pool with an explicit thread count (clamped to ≥ 1).
    #[must_use]
    pub fn threads(n: usize) -> Self {
        Self::new(Parallelism::threads(n))
    }

    /// The pool's thread budget.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// [`Decoder::decode`] through the pool: parallel weighted-sum fold
    /// when the decoder exposes terms, serial decode otherwise.
    ///
    /// # Errors
    /// Exactly [`Decoder::decode`]'s — incomplete decoders are routed to
    /// the serial path so they report [`CodingError::NotComplete`].
    pub fn decode(&self, decoder: &dyn Decoder) -> Result<Vec<f64>, CodingError> {
        if !decoder.is_complete() {
            return decoder.decode();
        }
        match decoder.partial_sum_terms() {
            Some(terms) => par_weighted_sum(self.par, &terms).ok_or(CodingError::DecodingFailed {
                reason: "partial_sum_terms returned an empty term list".into(),
            }),
            None => decoder.decode(),
        }
    }

    /// [`Decoder::decode_partial`] through the pool: parallel fold over the
    /// covered units' terms when available, serial readout otherwise.
    ///
    /// # Errors
    /// Exactly [`Decoder::decode_partial`]'s — decoders with nothing
    /// recoverable expose no terms and the serial path reports
    /// [`CodingError::NotComplete`].
    pub fn decode_partial(&self, decoder: &dyn Decoder) -> Result<Vec<f64>, CodingError> {
        match decoder.partial_sum_terms() {
            Some(terms) => par_weighted_sum(self.par, &terms).ok_or(CodingError::DecodingFailed {
                reason: "partial_sum_terms returned an empty term list".into(),
            }),
            None => decoder.decode_partial(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_coding::scheme::test_support::{random_gradients, total_sum, worker_partials};
    use bcc_coding::{GradientCodingScheme, UncodedScheme};

    fn fed<'a>(
        scheme: &'a UncodedScheme,
        grads: &[Vec<f64>],
        workers: &[usize],
    ) -> Box<dyn Decoder + 'a> {
        let mut dec = scheme.decoder();
        for &w in workers {
            let partials = worker_partials(scheme.placement(), w, grads);
            dec.receive(w, scheme.encode(w, &partials).unwrap())
                .unwrap();
        }
        dec
    }

    #[test]
    fn default_pool_is_serial() {
        assert_eq!(DecodePool::default(), DecodePool::serial());
    }

    #[test]
    fn pool_decode_matches_serial_bitwise() {
        let scheme = UncodedScheme::new(6, 6);
        let grads = random_gradients(6, 40, 17);
        let dec = fed(&scheme, &grads, &[0, 1, 2, 3, 4, 5]);
        let expect = total_sum(&grads);
        for pool in [DecodePool::serial(), DecodePool::threads(4)] {
            let got = pool.decode(&*dec).unwrap();
            assert_eq!(got.len(), expect.len());
            for (g, e) in got.iter().zip(&expect) {
                assert_eq!(g.to_bits(), e.to_bits());
            }
        }
    }

    #[test]
    fn incomplete_decode_surfaces_not_complete() {
        let scheme = UncodedScheme::new(6, 6);
        let grads = random_gradients(6, 4, 18);
        let dec = fed(&scheme, &grads, &[0, 2]);
        let err = DecodePool::threads(4).decode(&*dec).unwrap_err();
        assert!(matches!(err, CodingError::NotComplete { received: 2 }));
    }

    #[test]
    fn empty_decoder_partial_surfaces_not_complete() {
        let scheme = UncodedScheme::new(6, 6);
        let dec = scheme.decoder();
        let err = DecodePool::threads(4).decode_partial(&*dec).unwrap_err();
        assert!(matches!(err, CodingError::NotComplete { received: 0 }));
    }

    #[test]
    fn partial_fold_matches_serial_readout() {
        let scheme = UncodedScheme::new(8, 4);
        let grads = random_gradients(8, 33, 19);
        let dec = fed(&scheme, &grads, &[1, 3]);
        let expect = dec.decode_partial().unwrap();
        let got = DecodePool::threads(8).decode_partial(&*dec).unwrap();
        for (g, e) in got.iter().zip(&expect) {
            assert_eq!(g.to_bits(), e.to_bits());
        }
    }
}
