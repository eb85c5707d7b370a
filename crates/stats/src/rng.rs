//! Deterministic RNG plumbing.
//!
//! Every stochastic component in the reproduction takes an explicit RNG, and
//! experiments derive per-entity streams (worker `i`, trial `t`) from a single
//! master seed so runs replay bit-for-bit regardless of thread scheduling.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives a child seed from a master seed and a stream label.
///
/// Uses SplitMix64 finalization — a well-known bijective mixer — so distinct
/// `(seed, stream)` pairs map to well-separated child seeds. This is *not*
/// cryptographic; it only needs to decorrelate simulation streams.
#[must_use]
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an [`StdRng`] for the given `(seed, stream)` pair.
#[must_use]
pub fn derive_rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, stream))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn derive_seed_is_deterministic() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
    }

    #[test]
    fn derive_seed_separates_streams() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        let c = derive_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn derived_rngs_replay() {
        let mut r1 = derive_rng(1, 2);
        let mut r2 = derive_rng(1, 2);
        for _ in 0..16 {
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
    }

    #[test]
    fn stream_zero_differs_from_raw_seed() {
        // Guards against the identity mapping (stream 0 must still mix).
        let mut raw = StdRng::seed_from_u64(9);
        let mut derived = derive_rng(9, 0);
        assert_ne!(raw.gen::<u64>(), derived.gen::<u64>());
    }
}
