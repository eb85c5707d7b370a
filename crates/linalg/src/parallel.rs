//! The thread budget, and the one splitter every data-parallel path runs on.
//!
//! The workloads use data parallelism in three places, all under a
//! [`Parallelism`] budget, all through [`split_runs`] and all bit-identical
//! at every thread count: the master's weighted sum of received vectors,
//! split across columns ([`par_weighted_sum`], here); the virtual backend's
//! unit-gradient table, whose unfilled entries are split into
//! ascending id runs (`bcc_cluster::packed::UnitGradientCache::fill`); and
//! the synthetic data generator, whose rows are split into contiguous runs,
//! each example drawn from its own stream
//! (`bcc_data::synthetic::generate_rows`). One threshold, [`MIN_WORK`],
//! decides whether a job is shared at all. [`Parallelism::available`] is
//! the one place the host's core count is read, once per process. Scoped
//! threads keep borrows simple (no `Arc`), per the Rust Atomics & Locks
//! guidance, and avoid pulling in a full work-stealing runtime.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;

/// Degree of parallelism: a thread budget.
///
/// Defaults to the machine's available parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism(NonZeroUsize);

impl Parallelism {
    /// Uses up to `n` threads.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    #[must_use]
    pub fn threads(n: usize) -> Self {
        Self(NonZeroUsize::new(n).expect("parallelism must be non-zero"))
    }

    /// Single-threaded execution (useful for deterministic tests).
    #[must_use]
    pub fn sequential() -> Self {
        Self::threads(1)
    }

    /// Available hardware parallelism, falling back to 1. The host is
    /// asked once per process; every later call reads the memoized answer,
    /// so a hot path may call this freely.
    #[must_use]
    pub fn available() -> Self {
        static HOST: OnceLock<Parallelism> = OnceLock::new();
        *HOST
            .get_or_init(|| Self(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)))
    }

    /// Thread count.
    #[must_use]
    pub fn get(self) -> usize {
        self.0.get()
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::available()
    }
}

/// Work, in elements, below which [`split_runs`] spawns nothing: a job of
/// fewer than 2¹⁸ `f64` (2 MiB) is over before a second thread pays for
/// its spawn. Purely a scheduling threshold — every caller produces
/// identical bits at every thread count.
pub const MIN_WORK: usize = 1 << 18;

/// Cuts `items` into contiguous runs and calls `run` once per run, on up to
/// `par` threads.
///
/// Below [`MIN_WORK`] elements of `work`, or when one thread or one item is
/// all there is, the calling thread runs every item as one run and nothing
/// is spawned. Otherwise `threads = min(par, items)` runs share the items
/// as evenly as they go: each is `⌊items / threads⌋` items long, and the
/// first `items % threads` take one more, so every thread gets work. `split` turns
/// each run's item range, in ascending order and on the calling thread,
/// into that run's share — typically the disjoint windows of the caller's
/// buffers it writes. The calling thread runs the first share; each other
/// share gets a scoped thread, and all are joined before this returns.
///
/// # Panics
/// Propagates a panic of `split` or `run`.
pub fn split_runs<S, P, R>(par: Parallelism, work: usize, items: usize, mut split: S, run: R)
where
    S: FnMut(Range<usize>) -> P,
    P: Send,
    R: Fn(P) + Sync,
{
    let threads = if work < MIN_WORK {
        1
    } else {
        par.get().min(items)
    };
    if threads <= 1 {
        run(split(0..items));
        return;
    }
    let (per_thread, longer) = (items / threads, items % threads);
    std::thread::scope(|scope| {
        let mut shares = (0..threads).map(|i| {
            let lo = i * per_thread + i.min(longer);
            split(lo..lo + per_thread + usize::from(i < longer))
        });
        let first = shares.next().expect("two or more items");
        for share in shares {
            let run = &run;
            scope.spawn(move || run(share));
        }
        run(first);
    });
}

/// Weighted sum `Σ cᵢ·vᵢ` over equal-length vectors, parallelized across
/// **columns**: [`split_runs`] hands each thread one contiguous column
/// window of the output, with `terms × dim` as the work.
///
/// Bit-for-bit identical to the serial left folds in
/// [`vec_ops`](crate::vec_ops) regardless of the thread count, because every
/// output element is produced by the exact serial recurrence
///
/// ```text
/// out[k] = c₀·v₀[k];  out[k] = vᵢ[k].mul_add(cᵢ, out[k])  for i = 1, 2, …
/// ```
///
/// — the element order [`vec_ops::linear_combination`](crate::vec_ops::linear_combination)
/// uses, and (at `cᵢ = 1`) the order
/// [`vec_ops::sum_vectors`](crate::vec_ops::sum_vectors) uses, since `1·x == x` and
/// `x.mul_add(1, y) == x + y` exactly in IEEE 754. Column partitioning never
/// splits an element's accumulation chain, so window boundaries and thread
/// scheduling cannot perturb a single bit.
///
/// Returns `None` when `terms` is empty (an empty sum has no dimension).
///
/// # Panics
/// Panics when the term vectors have different lengths.
#[must_use]
pub fn par_weighted_sum(par: Parallelism, terms: &[(f64, &[f64])]) -> Option<Vec<f64>> {
    let (_, first) = terms.first()?;
    let dim = first.len();
    for (_, v) in terms {
        assert_eq!(v.len(), dim, "par_weighted_sum: length mismatch");
    }
    let mut out = vec![0.0; dim];
    let mut rest = out.as_mut_slice();
    split_runs(
        par,
        terms.len() * dim,
        dim,
        |cols| {
            let (window, tail) = std::mem::take(&mut rest).split_at_mut(cols.len());
            rest = tail;
            (cols, window)
        },
        |(cols, window)| weighted_sum_columns(terms, cols, window),
    );
    Some(out)
}

/// The serial recurrence of [`par_weighted_sum`] over columns `cols`,
/// writing into `out` (whose length equals the column range). Terms sweep
/// the window one at a time — the same streaming access pattern as the
/// serial fold, restricted to the window's columns.
fn weighted_sum_columns(terms: &[(f64, &[f64])], cols: Range<usize>, out: &mut [f64]) {
    let (c0, v0) = terms[0];
    for (o, x) in out.iter_mut().zip(&v0[cols.clone()]) {
        *o = c0 * x;
    }
    for &(c, v) in &terms[1..] {
        for (o, x) in out.iter_mut().zip(&v[cols.clone()]) {
            *o = x.mul_add(c, *o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_constructors() {
        assert_eq!(Parallelism::sequential().get(), 1);
        assert_eq!(Parallelism::threads(4).get(), 4);
        assert!(Parallelism::available().get() >= 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_parallelism_panics() {
        let _ = Parallelism::threads(0);
    }

    /// Deterministic but irregular test vectors (golden-ratio hashing), so
    /// sums exercise real rounding.
    fn test_terms(n: usize, dim: usize) -> Vec<(f64, Vec<f64>)> {
        (0..n)
            .map(|i| {
                let c = 0.25 + ((i * 37) % 11) as f64 * 0.125;
                let v = (0..dim)
                    .map(|k| {
                        let h = (i * 1_000_003 + k).wrapping_mul(0x9E37_79B9) % 10_007;
                        (h as f64 - 5_003.0) * 1e-3
                    })
                    .collect();
                (c, v)
            })
            .collect()
    }

    fn as_refs(terms: &[(f64, Vec<f64>)]) -> Vec<(f64, &[f64])> {
        terms.iter().map(|(c, v)| (*c, v.as_slice())).collect()
    }

    /// [`split_runs`] over `items` at budget `par` and the given work: each
    /// item `i` gets a rounding-heavy value of `i` written by the run that
    /// owns it; returns the values, the runs in the order `split` saw them,
    /// and the threads the runs ran on.
    fn split_into(
        par: usize,
        work: usize,
        items: usize,
    ) -> (Vec<f64>, Vec<(usize, usize)>, Vec<std::thread::ThreadId>) {
        let mut out = vec![0.0; items];
        let mut runs = Vec::new();
        let threads = std::sync::Mutex::new(Vec::new());
        let mut rest = out.as_mut_slice();
        split_runs(
            Parallelism::threads(par),
            work,
            items,
            |run| {
                let (window, tail) = std::mem::take(&mut rest).split_at_mut(run.len());
                rest = tail;
                runs.push((run.start, run.end));
                (run.start, window)
            },
            |(first, window)| {
                threads.lock().unwrap().push(std::thread::current().id());
                for (i, x) in window.iter_mut().enumerate() {
                    let k = (first + i) as f64;
                    *x = (k * 0.1).sin().mul_add(1.0 / 3.0, k.sqrt());
                }
            },
        );
        (out, runs, threads.into_inner().unwrap())
    }

    #[test]
    fn split_runs_is_bit_identical_at_every_budget() {
        // Empty, one item, ragged (10 items at 3 threads: 4/3/3; at 7:
        // 2/2/2/1/1/1/1) and more threads than items.
        for items in [0, 1, 2, 10, 1_000] {
            let (serial, runs, threads) = split_into(1, MIN_WORK, items);
            assert_eq!(runs, [(0, items)], "one run at budget 1");
            assert_eq!(threads, [std::thread::current().id()]);
            for par in [1, 2, 3, 7] {
                let (below, runs, _) = split_into(par, MIN_WORK - 1, items);
                assert_eq!(runs, [(0, items)], "below MIN_WORK nothing is split");
                let (out, runs, threads) = split_into(par, MIN_WORK, items);
                let what = format!("{items} items at budget {par}");
                for (a, b) in out.iter().chain(&below).zip(serial.iter().cycle()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{what}");
                }
                // One run per thread of the budget the items can fill; run
                // i starts at i·⌊items / t⌋ + min(i, items mod t).
                let t = par.min(items).max(1);
                let start = |i: usize| i * (items / t) + i.min(items % t);
                let want: Vec<_> = (0..t).map(|i| (start(i), start(i + 1))).collect();
                assert_eq!(runs, want, "{what}: balanced contiguous runs");
                let distinct: std::collections::HashSet<_> = threads.iter().collect();
                assert_eq!(distinct.len(), runs.len(), "{what}: one thread per run");
                assert!(threads.contains(&std::thread::current().id()));
            }
        }
        assert_eq!(
            split_into(7, MIN_WORK, 10).1,
            [(0, 2), (2, 4), (4, 6), (6, 7), (7, 8), (8, 9), (9, 10)],
            "3 runs of 2 items, 4 of 1"
        );
        assert_eq!(
            split_into(4, MIN_WORK, 5).1,
            [(0, 2), (2, 3), (3, 4), (4, 5)],
            "1 run of 2 items, 3 of 1"
        );
        let lens: Vec<usize> = split_into(7, MIN_WORK, 1_000)
            .1
            .iter()
            .map(|r| r.1 - r.0)
            .collect();
        assert_eq!(
            lens,
            [143, 143, 143, 143, 143, 143, 142],
            "6 runs of 143, 1 of 142"
        );
    }

    #[test]
    fn weighted_sum_empty_is_none() {
        assert!(par_weighted_sum(Parallelism::threads(4), &[]).is_none());
    }

    #[test]
    fn weighted_sum_matches_linear_combination_bit_for_bit() {
        // 40 × 7000 = 280 000 elements: above `MIN_WORK`, so every
        // budget above one cuts the columns into that many windows.
        let terms = test_terms(40, 7_000);
        const { assert!(40 * 7_000 >= MIN_WORK) };
        let refs = as_refs(&terms);
        let serial = crate::vec_ops::linear_combination(refs.iter().copied()).unwrap();
        for threads in [1, 2, 3, 8] {
            let par = par_weighted_sum(Parallelism::threads(threads), &refs).unwrap();
            assert_eq!(par.len(), serial.len());
            for (k, (a, b)) in par.iter().zip(&serial).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "threads={threads}, column {k}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn unit_coefficients_match_sum_vectors_bit_for_bit() {
        // 64 × 4096 = 2¹⁸ elements: exactly at `MIN_WORK`.
        let terms: Vec<(f64, Vec<f64>)> = test_terms(64, 4_096)
            .into_iter()
            .map(|(_, v)| (1.0, v))
            .collect();
        let refs = as_refs(&terms);
        let serial = crate::vec_ops::sum_vectors(terms.iter().map(|(_, v)| v.as_slice())).unwrap();
        let par = par_weighted_sum(Parallelism::threads(8), &refs).unwrap();
        for (k, (a, b)) in par.iter().zip(&serial).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "column {k}");
        }
    }

    #[test]
    fn small_inputs_stay_serial_and_correct() {
        let terms = test_terms(3, 7);
        let refs = as_refs(&terms);
        let serial = crate::vec_ops::linear_combination(refs.iter().copied()).unwrap();
        let par = par_weighted_sum(Parallelism::threads(8), &refs).unwrap();
        assert_eq!(par, serial);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn weighted_sum_length_mismatch_panics() {
        let a = [1.0, 2.0];
        let b = [1.0];
        let _ = par_weighted_sum(
            Parallelism::threads(2),
            &[(1.0, a.as_slice()), (1.0, b.as_slice())],
        );
    }
}
