//! Online and batch summary statistics for the experiment harness.

use serde::{Deserialize, Serialize};

/// Welford online accumulator for mean/variance plus min/max.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another summary (parallel-combine).
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than 2 observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    #[must_use]
    pub fn std_err(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Minimum (NaN when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Maximum (NaN when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

/// Quantile of a sample by linear interpolation on the sorted copy.
///
/// # Panics
/// Panics on empty input or `q` outside `[0, 1]`.
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "q must be in [0,1], got {q}");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median shortcut.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_slice(xs: &[f64]) -> Summary {
        let mut s = Summary::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    #[test]
    fn empty_summary_defaults() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
        assert_eq!(s.std_err(), 0.0);
    }

    #[test]
    fn known_moments() {
        let s = from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance 4 → sample variance 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_equals_concatenation() {
        let xs: Vec<f64> = (0..57).map(|i| (i as f64).sin() * 10.0).collect();
        let (a, b) = xs.split_at(23);
        let mut s1 = from_slice(a);
        let s2 = from_slice(b);
        s1.merge(&s2);
        let full = from_slice(&xs);
        assert_eq!(s1.count(), full.count());
        assert!((s1.mean() - full.mean()).abs() < 1e-10);
        assert!((s1.variance() - full.variance()).abs() < 1e-10);
        assert_eq!(s1.min(), full.min());
        assert_eq!(s1.max(), full.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = from_slice(&[1.0, 2.0]);
        let before = s.clone();
        s.merge(&Summary::new());
        assert_eq!(s.count(), before.count());
        assert_eq!(s.mean(), before.mean());

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e.count(), 2);
        assert!((e.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn single_observation() {
        let s = from_slice(&[3.5]);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_unsorted_input() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(median(&xs), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        let _ = quantile(&[], 0.5);
    }
}
