//! The BCC batch partition (§III-A, "Data Distribution").
//!
//! > "For a given computational load `r`, we first evenly partition the
//! > entire data set into `⌈m/r⌉` data batches … Each of the batches contains
//! > `r` examples (with the last batch possibly being zero-padded)."
//!
//! We represent a batch as its index set; instead of literally zero-padding
//! the last batch we let it be shorter — summing fewer partial gradients is
//! numerically identical to summing zero-padded ones, and the batch *count*
//! (what the coupon-collector analysis depends on) is unchanged.

use serde::{Deserialize, Serialize};

/// An even partition of example indices `0..m` into `⌈m/r⌉` batches of size
/// `r` (last batch possibly shorter).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Batching {
    m: usize,
    batch_size: usize,
    boundaries: Vec<usize>,
}

impl Batching {
    /// Partitions `m` examples into batches of size `r`.
    ///
    /// # Panics
    /// Panics when `m == 0` or `r == 0`.
    #[must_use]
    pub fn even(m: usize, r: usize) -> Self {
        assert!(m > 0, "cannot batch zero examples");
        assert!(r > 0, "batch size must be positive");
        let count = m.div_ceil(r);
        let mut boundaries = Vec::with_capacity(count + 1);
        for b in 0..=count {
            boundaries.push((b * r).min(m));
        }
        Self {
            m,
            batch_size: r,
            boundaries,
        }
    }

    /// Total number of examples `m`.
    #[must_use]
    pub fn num_examples(&self) -> usize {
        self.m
    }

    /// Nominal batch size `r` (the computational load).
    #[must_use]
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Number of batches `⌈m/r⌉` — the number of "coupon types".
    #[must_use]
    pub fn num_batches(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Index range of batch `b` as `start..end`.
    ///
    /// # Panics
    /// Panics when `b` is out of range.
    #[must_use]
    pub fn batch_range(&self, b: usize) -> std::ops::Range<usize> {
        assert!(b < self.num_batches(), "batch {b} out of range");
        self.boundaries[b]..self.boundaries[b + 1]
    }

    /// Example indices of batch `b` as a vector.
    #[must_use]
    pub fn batch_indices(&self, b: usize) -> Vec<usize> {
        self.batch_range(b).collect()
    }

    /// Iterator over all batch ranges.
    pub fn iter(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        (0..self.num_batches()).map(|b| self.batch_range(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division() {
        let b = Batching::even(100, 10);
        assert_eq!(b.num_batches(), 10);
        assert_eq!(b.batch_range(0), 0..10);
        assert_eq!(b.batch_range(9), 90..100);
        assert_eq!(b.batch_size(), 10);
        assert_eq!(b.num_examples(), 100);
    }

    #[test]
    fn ragged_last_batch() {
        let b = Batching::even(10, 4);
        assert_eq!(b.num_batches(), 3);
        assert_eq!(b.batch_range(0), 0..4);
        assert_eq!(b.batch_range(2), 8..10);
        assert_eq!(b.batch_indices(2), vec![8, 9]);
    }

    #[test]
    fn batches_partition_everything() {
        let b = Batching::even(37, 5);
        let mut seen = [false; 37];
        for range in b.iter() {
            for j in range {
                assert!(!seen[j], "example {j} in two batches");
                seen[j] = true;
            }
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn r_equals_m_single_batch() {
        let b = Batching::even(12, 12);
        assert_eq!(b.num_batches(), 1);
        assert_eq!(b.batch_range(0), 0..12);
    }

    #[test]
    fn r_greater_than_m_single_batch() {
        let b = Batching::even(5, 100);
        assert_eq!(b.num_batches(), 1);
        assert_eq!(b.batch_range(0), 0..5);
    }

    #[test]
    fn r_one_gives_m_batches() {
        let b = Batching::even(6, 1);
        assert_eq!(b.num_batches(), 6);
        assert_eq!(b.batch_indices(3), vec![3]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_size_panics() {
        let _ = Batching::even(5, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_batch_index_panics() {
        let b = Batching::even(5, 2);
        let _ = b.batch_range(3);
    }
}
