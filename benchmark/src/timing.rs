//! Small timing helpers: order statistics and a repeat-until-budget
//! micro-timer for the replayed per-layer calls.

use std::time::{Duration, Instant};

/// The `q`-quantile of an already sorted slice, interpolating linearly
/// between the two nearest ranks.
///
/// # Panics
/// On an empty slice.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = sorted[rank.floor() as usize];
    let above = sorted[rank.ceil() as usize];
    below + (above - below) * rank.fract()
}

/// Sorts `values` and returns `(first quartile, median, third quartile)`.
///
/// # Panics
/// On an empty slice.
#[must_use]
pub fn quartiles(values: &mut [f64]) -> (f64, f64, f64) {
    values.sort_by(f64::total_cmp);
    (
        quantile(values, 0.25),
        quantile(values, 0.5),
        quantile(values, 0.75),
    )
}

/// The median of `values` (sorts them).
///
/// # Panics
/// On an empty slice.
#[must_use]
pub fn median(values: &mut [f64]) -> f64 {
    quartiles(values).1
}

/// The arithmetic mean; 0 for no samples.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Calls `f` at least `min_reps` times and until `budget` is spent, and
/// returns the median nanoseconds per call.
pub fn bench_ns(budget: Duration, min_reps: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps.max(1) || started.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    median(&mut samples)
}

/// [`bench_ns`] for calls too short to time one at a time: each sample
/// times `batch` back-to-back calls.
pub fn bench_batched_ns(budget: Duration, batch: usize, mut f: impl FnMut()) -> f64 {
    bench_ns(budget, 5, || {
        for _ in 0..batch {
            f();
        }
    }) / batch as f64
}

/// Nanoseconds one `Instant::now()` costs on this host — what every span
/// boundary adds to the interval it closes.
#[must_use]
pub fn timer_overhead_ns() -> f64 {
    bench_batched_ns(Duration::from_millis(20), 1000, || {
        std::hint::black_box(Instant::now());
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quartiles(&mut v), (2.0, 3.0, 4.0));
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quartiles(&mut [1.0, 2.0]), (1.25, 1.5, 1.75));
        assert_eq!(mean(&v), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn bench_grows_with_the_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..n {
                    x = std::hint::black_box(x.wrapping_add(i));
                }
            }
        };
        let short = bench_ns(Duration::from_millis(5), 5, spin(1_000));
        let long = bench_ns(Duration::from_millis(5), 5, spin(100_000));
        assert!(long > 10.0 * short, "short {short} ns, long {long} ns");
        assert!(timer_overhead_ns() > 0.0);
    }
}
