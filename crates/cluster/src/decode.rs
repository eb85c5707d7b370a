//! The master's decode, kept as a name for the benchmark's replay.
//!
//! The master decodes on one path: a policy's `finish` calls
//! [`Decoder::decode`] or [`Decoder::decode_partial`] on the round's
//! decoder, serially (the "One decode on the master" row of the root
//! `tests/guards.rs` gives the measurements that retired the threaded
//! fold). [`DecodePool`] survives only because `benchmark/src/layers.rs`
//! imports it: it forwards to the decoder and holds no state. ROADMAP item
//! 14's re-based replay calls the decoder directly and deletes it.

use bcc_coding::{CodingError, Decoder};

/// A forwarding shim over [`Decoder::decode`] and
/// [`Decoder::decode_partial`]; no run of the library uses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodePool;

impl DecodePool {
    /// The shim (it has no configuration).
    #[must_use]
    pub fn serial() -> Self {
        Self
    }

    /// [`Decoder::decode`].
    ///
    /// # Errors
    /// Exactly [`Decoder::decode`]'s.
    pub fn decode(&self, decoder: &dyn Decoder) -> Result<Vec<f64>, CodingError> {
        decoder.decode()
    }

    /// [`Decoder::decode_partial`].
    ///
    /// # Errors
    /// Exactly [`Decoder::decode_partial`]'s.
    pub fn decode_partial(&self, decoder: &dyn Decoder) -> Result<Vec<f64>, CodingError> {
        decoder.decode_partial()
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn default_pool_is_serial() {
        assert_eq!(DecodePool, DecodePool::serial());
        assert_eq!(std::mem::size_of::<DecodePool>(), 0, "no configuration");
    }

    #[test]
    fn pool_decode_matches_serial_bitwise() {
        let scheme = UncodedScheme::new(6, 6);
        let grads = random_gradients(6, 40, 17);
        let dec = fed(&scheme, &grads, &[0, 1, 2, 3, 4, 5]);
        let got = DecodePool::serial().decode(&*dec).unwrap();
        assert_eq!(bits(&got), bits(&total_sum(&grads)));
    }

    #[test]
    fn incomplete_decode_surfaces_not_complete() {
        let scheme = UncodedScheme::new(6, 6);
        let grads = random_gradients(6, 4, 18);
        let dec = fed(&scheme, &grads, &[0, 2]);
        let err = DecodePool::serial().decode(&*dec).unwrap_err();
        assert!(matches!(err, CodingError::NotComplete { received: 2 }));
    }

    #[test]
    fn empty_decoder_partial_surfaces_not_complete() {
        let scheme = UncodedScheme::new(6, 6);
        let dec = scheme.decoder();
        let err = DecodePool::serial().decode_partial(&*dec).unwrap_err();
        assert!(matches!(err, CodingError::NotComplete { received: 0 }));
    }

    #[test]
    fn partial_fold_matches_serial_readout() {
        let scheme = UncodedScheme::new(8, 4);
        let grads = random_gradients(8, 33, 19);
        let dec = fed(&scheme, &grads, &[1, 3]);
        let got = DecodePool::serial().decode_partial(&*dec).unwrap();
        assert_eq!(bits(&got), bits(&dec.decode_partial().unwrap()));
    }
}
