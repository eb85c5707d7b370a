//! Per-worker packed data for the round hot path.
//!
//! Built once per training run from the scheme's placement and the unit
//! map. Units tile the dataset front to back (both [`UnitMap`]
//! constructors group consecutive rows), so the dataset's own storage is
//! the arena: each worker's assignment becomes a list of row *ranges* into
//! it. Replicated units (the redundancy every coded scheme relies on)
//! therefore cost no extra memory, nothing is copied, and round-time access
//! is a linear scan of one contiguous allocation.

use crate::minibatch::UnitSelection;
use crate::units::UnitMap;
use bcc_coding::GradientCodingScheme;
use bcc_data::Dataset;
use bcc_linalg::parallel::{split_runs, Parallelism};
use bcc_linalg::Matrix;
use bcc_optim::GradScratch;
use std::ops::Range;

/// Every unit's row range into the arena (the resident dataset), plus every
/// worker's assigned ranges.
#[derive(Debug, Clone)]
pub struct WorkerBlocks {
    /// Arena row range of each unit id.
    unit_ranges: Vec<Range<usize>>,
    /// Per worker: the arena range of each assigned unit, in placement
    /// order.
    per_worker: Vec<Vec<Range<usize>>>,
}

impl WorkerBlocks {
    /// Indexes each worker's assigned units as row ranges into the arena.
    ///
    /// Range `k` of worker `i` holds the rows of unit
    /// `placement.worker_examples(i)[k]`, in row order — the same order the
    /// per-example path visits, so blocked kernels stay bit-identical.
    /// Nothing is copied: the arena is `data` itself (see
    /// [`WorkerBlocks::arena`]).
    ///
    /// # Panics
    /// Panics when the unit map reaches past the end of `data`.
    #[must_use]
    pub fn build(scheme: &dyn GradientCodingScheme, units: &UnitMap, data: &Dataset) -> Self {
        assert!(
            units.num_examples() <= data.len(),
            "unit map covers {} rows but the dataset has {}",
            units.num_examples(),
            data.len()
        );
        let unit_ranges: Vec<Range<usize>> = (0..units.num_units())
            .map(|unit| units.unit_range(unit))
            .collect();
        Self {
            per_worker: per_worker_ranges(scheme, &unit_ranges),
            unit_ranges,
        }
    }

    /// The arena's feature matrix and labels: the dataset's own storage.
    #[must_use]
    pub fn arena<'a>(&'a self, data: &'a Dataset) -> (&'a Matrix, &'a [f64]) {
        (data.features(), data.labels())
    }

    /// Arena row range of unit `unit`.
    #[must_use]
    pub fn unit_range(&self, unit: usize) -> Range<usize> {
        self.unit_ranges[unit].clone()
    }

    /// Worker `i`'s arena ranges, aligned with its placement unit list.
    #[must_use]
    pub fn worker(&self, i: usize) -> &[Range<usize>] {
        &self.per_worker[i]
    }

    /// Number of workers covered.
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.per_worker.len()
    }
}

/// Indexes each worker's assigned units as ranges into the arena, in
/// placement order.
fn per_worker_ranges(
    scheme: &dyn GradientCodingScheme,
    unit_ranges: &[Range<usize>],
) -> Vec<Vec<Range<usize>>> {
    let placement = scheme.placement();
    (0..placement.num_workers())
        .map(|worker| {
            placement
                .worker_examples(worker)
                .iter()
                .map(|&unit| unit_ranges[unit].clone())
                .collect()
        })
        .collect()
}

/// Table of unit partial gradients at one evaluation point, for the virtual
/// backend.
///
/// Coded schemes replicate units across workers (that is the whole point of
/// the redundancy), so within one round several simulated workers compute
/// the *same* unit gradient at the same weights — and a run at a fixed
/// point computes it again every round. A real cluster pays that cost in
/// parallel on separate machines; a simulator on one host would pay it
/// serially — and needlessly, because the result is bit-identical. The
/// table holds one entry per unit id: [`UnitGradientCache::fill`] computes
/// each of a worker's units at most once per evaluation point, directly
/// into its entry, spreading them over the host's cores when asked, and a
/// worker whose placement row is one ascending run of unit ids is encoded
/// straight from [`UnitGradientCache::filled_range`] without a copy. The
/// entries must be invalidated whenever the point changes — the weights in
/// any bit, or the units a minibatch selects: a caller that knows the point
/// keys the table on it with [`UnitGradientCache::begin_point`], which
/// resets only then, and [`UnitGradientCache::begin_round`] resets
/// unconditionally.
#[derive(Debug)]
pub struct UnitGradientCache {
    grads: Vec<Vec<f64>>,
    filled: Vec<bool>,
    /// The point [`UnitGradientCache::begin_point`] last keyed the table
    /// on: the weights and the minibatch selection.
    weights: Vec<f64>,
    selection: Option<UnitSelection>,
    /// The ids one [`UnitGradientCache::fill`] computes, ascending; the
    /// buffer is reused across calls.
    pending: Vec<usize>,
    /// One gradient scratch per fill thread, grown on first use.
    scratches: Vec<GradScratch>,
}

impl UnitGradientCache {
    /// Cache over `units` unit ids, initially empty.
    #[must_use]
    pub fn new(units: usize) -> Self {
        Self {
            grads: vec![Vec::new(); units],
            filled: vec![false; units],
            weights: Vec::new(),
            selection: None,
            pending: Vec::new(),
            scratches: Vec::new(),
        }
    }

    /// Invalidates every entry (call when a round's evaluation point
    /// differs from the one the entries were computed at).
    pub fn begin_round(&mut self) {
        self.filled.fill(false);
    }

    /// Keys the table on a round's broadcast point: every entry is
    /// invalidated unless `weights` equal the point the table was last
    /// keyed on bit for bit (`==` would take `-0.0` for `0.0` and never
    /// match a NaN) and `selection` selects the same units. A run at a
    /// fixed point thus computes each unit once.
    pub fn begin_point(&mut self, weights: &[f64], selection: Option<&UnitSelection>) {
        let same_weights = weights.len() == self.weights.len()
            && weights
                .iter()
                .zip(&self.weights)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same_weights || selection != self.selection.as_ref() {
            self.begin_round();
            self.weights.clear();
            self.weights.extend_from_slice(weights);
            self.selection = selection.cloned();
        }
    }

    /// The memoized gradient of `unit`, if it was computed since the table
    /// was last reset.
    #[must_use]
    pub fn get(&self, unit: usize) -> Option<&[f64]> {
        self.filled[unit].then(|| self.grads[unit].as_slice())
    }

    /// Memoizes `grad` for `unit` (reusing the entry's allocation).
    pub fn store(&mut self, unit: usize, grad: &[f64]) {
        self.grads[unit].clear();
        self.grads[unit].extend_from_slice(grad);
        self.filled[unit] = true;
    }

    /// Fills every entry among `units` not yet filled at this point: each is
    /// zeroed to `dim` and handed, with a gradient scratch of its own
    /// thread, to `compute`, which accumulates into it (a `compute` that
    /// adds nothing leaves the zero vector). Filled entries are left as
    /// they are. `work` is the feature elements `compute` reads for a unit.
    ///
    /// The pending ids, ascending, are cut into runs by [`split_runs`]
    /// under `par`, with their summed `work`: below
    /// [`MIN_WORK`](bcc_linalg::parallel::MIN_WORK) the calling thread
    /// fills them all. Every entry is still one `compute` call into its own
    /// zeroed vector, so the thread count changes no bit. When nothing is
    /// spawned and the table is warm, nothing is allocated.
    ///
    /// # Panics
    /// Propagates a panic of `compute`.
    pub fn fill<W, F>(&mut self, units: &[usize], dim: usize, par: Parallelism, work: W, compute: F)
    where
        W: Fn(usize) -> usize,
        F: Fn(&mut GradScratch, usize, &mut [f64]) + Sync,
    {
        self.pending.clear();
        for &unit in units {
            if !self.filled[unit] {
                self.filled[unit] = true;
                self.pending.push(unit);
            }
        }
        if self.pending.is_empty() {
            return;
        }
        self.pending.sort_unstable();
        let runs = par.get().min(self.pending.len());
        if self.scratches.len() < runs {
            self.scratches.resize_with(runs, GradScratch::new);
        }
        let Self {
            grads,
            pending,
            scratches,
            ..
        } = self;
        let total: usize = pending.iter().map(|&unit| work(unit)).sum();
        // Each run's entries lie in a window of the table from its first id
        // to its last: ascending runs make the windows disjoint, so they
        // split off the table one after another.
        let (mut rest, mut base) = (grads.as_mut_slice(), 0);
        let mut scratches = scratches.iter_mut();
        split_runs(
            par,
            total,
            pending.len(),
            |run| {
                let ids = &pending[run];
                let (first, end) = (ids[0], ids[ids.len() - 1] + 1);
                let (window, tail) = std::mem::take(&mut rest).split_at_mut(end - base);
                let window = &mut window[first - base..];
                (rest, base) = (tail, end);
                (ids, window, scratches.next().expect("one scratch per run"))
            },
            |(ids, window, scratch)| {
                for &unit in ids {
                    let grad = &mut window[unit - ids[0]];
                    grad.clear();
                    grad.resize(dim, 0.0);
                    compute(scratch, unit, grad);
                }
            },
        );
    }

    /// The entries of unit ids `units`, in id order, borrowed — the
    /// `partials` of a placement row that is exactly this run of ids.
    ///
    /// # Panics
    /// Panics when an entry in `units` was not filled at this point.
    #[must_use]
    pub fn filled_range(&self, units: Range<usize>) -> &[Vec<f64>] {
        assert!(
            self.filled[units.clone()].iter().all(|&f| f),
            "unit range {units:?} read before it was filled at this point"
        );
        &self.grads[units]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minibatch::Minibatch;
    use bcc_coding::{BccScheme, UncodedScheme};
    use bcc_data::synthetic::{generate, SyntheticConfig};
    use bcc_linalg::parallel::MIN_WORK;
    use bcc_optim::{LogisticLoss, Loss};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn worker_ranges_follow_the_placement() {
        // Regression: each worker-unit range must be exactly the dataset
        // rows of that unit, i.e. the placement × unit map.
        let g = generate(&SyntheticConfig::small(40, 4, 2));
        let units = UnitMap::grouped(40, 8);
        let choices = vec![0, 1, 2, 3, 0, 1, 2, 3];
        let scheme = BccScheme::from_choices(8, 2, choices);
        let blocks = WorkerBlocks::build(&scheme, &units, &g.dataset);
        assert_eq!(blocks.num_workers(), scheme.num_workers());
        for worker in 0..scheme.num_workers() {
            let unit_list = scheme.placement().worker_examples(worker);
            let ranges = blocks.worker(worker);
            assert_eq!(ranges.len(), unit_list.len());
            for (range, &unit) in ranges.iter().zip(unit_list) {
                assert_eq!(
                    *range,
                    units.unit_range(unit),
                    "worker {worker} unit {unit} must hold its placement rows"
                );
            }
        }
    }

    #[test]
    fn arena_is_the_datasets_own_storage() {
        let g = generate(&SyntheticConfig::small(30, 3, 5));
        let per_example = UncodedScheme::new(30, 5);
        let grouped = UncodedScheme::new(10, 5);
        for (scheme, units) in [
            (&per_example, UnitMap::identity(30)),
            (&grouped, UnitMap::grouped(30, 10)),
        ] {
            let blocks = WorkerBlocks::build(scheme, &units, &g.dataset);
            let (x, y) = blocks.arena(&g.dataset);
            assert!(
                std::ptr::eq(x, g.dataset.features()),
                "features are borrowed"
            );
            assert!(std::ptr::eq(y, g.dataset.labels()), "labels are borrowed");
        }
    }

    #[test]
    fn arena_is_contiguous_and_covers_units_in_order() {
        let g = generate(&SyntheticConfig::small(30, 3, 5));
        let units = UnitMap::grouped(30, 10);
        let scheme = UncodedScheme::new(10, 5);
        let blocks = WorkerBlocks::build(&scheme, &units, &g.dataset);
        let (x, _y) = blocks.arena(&g.dataset);
        assert_eq!(x.rows(), 30, "arena holds every row once");
        let mut next = 0;
        for unit in 0..10 {
            let r = blocks.unit_range(unit);
            assert_eq!(r.start, next, "units pack back to back");
            next = r.end;
        }
        assert_eq!(next, 30);
    }

    #[test]
    fn uncoded_ranges_partition_the_arena() {
        let g = generate(&SyntheticConfig::small(30, 3, 5));
        let units = UnitMap::grouped(30, 10);
        let scheme = UncodedScheme::new(10, 5);
        let blocks = WorkerBlocks::build(&scheme, &units, &g.dataset);
        let mut seen = [false; 30];
        for worker in 0..5 {
            for range in blocks.worker(worker) {
                for i in range.clone() {
                    assert!(!seen[i], "arena row {i} assigned twice under uncoded");
                    seen[i] = true;
                }
            }
        }
        assert!(
            seen.iter().all(|s| *s),
            "uncoded packing must cover all rows"
        );
    }

    #[test]
    fn unit_cache_round_trips() {
        let mut cache = UnitGradientCache::new(3);
        assert!(cache.get(1).is_none());
        cache.store(1, &[1.0, 2.0]);
        assert_eq!(cache.get(1), Some(&[1.0, 2.0][..]));
        cache.begin_round();
        assert!(cache.get(1).is_none(), "begin_round invalidates");
    }

    #[test]
    fn unit_cache_keeps_its_entries_while_the_point_holds() {
        let (first, second) = (Minibatch::new(2, 1).select(0, 4), None);
        let mut cache = UnitGradientCache::new(3);
        let mut kept = |weights: &[f64], selection: Option<&UnitSelection>| {
            cache.begin_point(weights, selection);
            let kept = cache.get(0).is_some();
            cache.store(0, &[1.0]);
            kept
        };
        assert!(!kept(&[0.0, f64::NAN], None), "a new table is empty");
        assert!(kept(&[0.0, f64::NAN], None), "same bits, NaN included");
        assert!(
            !kept(&[-0.0, f64::NAN], None),
            "the sign of a zero moves it"
        );
        assert!(!kept(&[-0.0], None), "so does the length");
        assert!(!kept(&[-0.0], Some(&first)), "and the selection");
        assert!(kept(&[-0.0], Some(&first)));
        assert!(!kept(&[-0.0], second));
    }

    #[test]
    fn unit_cache_fills_once_in_place_and_lends_ranges() {
        let mut cache = UnitGradientCache::new(4);
        cache.store(2, &[9.0, 9.0, 9.0]);
        cache.begin_round();
        let calls = AtomicUsize::new(0);
        let bump = |_: &mut GradScratch, unit: usize, acc: &mut [f64]| {
            calls.fetch_add(1, Ordering::Relaxed);
            acc[0] += unit as f64;
        };
        cache.fill(&[1, 2], 2, Parallelism::sequential(), |_| 0, bump);
        assert_eq!(cache.get(1), Some(&[1.0, 0.0][..]));
        assert_eq!(
            cache.get(2),
            Some(&[2.0, 0.0][..]),
            "stale entry is zeroed first"
        );
        cache.fill(&[2, 1], 2, Parallelism::threads(2), |_| 0, bump);
        assert_eq!(calls.into_inner(), 2, "a filled unit is never recomputed");
        assert_eq!(cache.filled_range(1..3), &[vec![1.0, 0.0], vec![2.0, 0.0]]);
    }

    /// The fill over real rows at every thread count — one, two, three,
    /// and more threads than units — leaves byte-equal entries; entries
    /// filled before the call keep their bytes and are never handed to
    /// `compute`; a unit `compute` skips (outside a minibatch) stays zero.
    /// The row's pending units read 65 rows × 4100 features, above
    /// `MIN_WORK`, so every budget above one splits them.
    #[test]
    fn unit_cache_fill_is_bit_identical_at_every_thread_count() {
        const DIM: usize = 4_100;
        let g = generate(&SyntheticConfig::small(130, DIM, 9));
        let units = UnitMap::grouped(130, 12);
        let (x, y) = (g.dataset.features(), g.dataset.labels());
        let w: Vec<f64> = (0..DIM).map(|j| 0.03 * (j as f64 * 0.7).sin()).collect();
        let outside = 5;
        let row = [7, 2, 9, 2, 0, 11, 5, 3, 8];
        let filled_before = 3;
        let fill = |threads: usize| {
            let mut cache = UnitGradientCache::new(12);
            cache.store(filled_before, &[0.5; DIM]);
            let calls = Mutex::new(Vec::new());
            let work = |unit: usize| {
                if unit == outside {
                    0
                } else {
                    units.unit_range(unit).len() * DIM
                }
            };
            let pending = [0, 2, 7, 8, 9, 11];
            assert!(pending.iter().map(|&unit| work(unit)).sum::<usize>() >= MIN_WORK);
            cache.fill(
                &row,
                DIM,
                Parallelism::threads(threads),
                work,
                |scratch, unit, acc| {
                    calls.lock().unwrap().push(unit);
                    if unit != outside {
                        scratch.accumulate_rows(
                            &LogisticLoss,
                            x,
                            y,
                            units.unit_range(unit),
                            &w,
                            acc,
                        );
                    }
                },
            );
            let mut calls = calls.into_inner().unwrap();
            calls.sort_unstable();
            assert_eq!(calls, [0, 2, 5, 7, 8, 9, 11], "threads={threads}");
            assert_eq!(cache.get(filled_before), Some(&[0.5; DIM][..]));
            assert_eq!(cache.get(outside), Some(&[0.0; DIM][..]));
            assert!(cache.get(1).is_none(), "a unit off the row stays unfilled");
            row.map(|unit| cache.get(unit).unwrap().to_vec())
        };
        let serial = fill(1);
        for (&unit, grad) in row.iter().zip(&serial) {
            if unit != outside && unit != filled_before {
                let mut expect = vec![0.0; DIM];
                for i in units.unit_range(unit) {
                    LogisticLoss.add_gradient(g.dataset.x(i), g.dataset.y(i), &w, &mut expect);
                }
                assert_eq!(grad, &expect, "unit {unit} equals the per-example path");
            }
        }
        for threads in [2, 3, 64] {
            let parallel = fill(threads);
            for ((&unit, a), b) in row.iter().zip(&parallel).zip(&serial) {
                let (a, b): (Vec<u64>, Vec<u64>) = (
                    a.iter().map(|v| v.to_bits()).collect(),
                    b.iter().map(|v| v.to_bits()).collect(),
                );
                assert_eq!(a, b, "threads={threads}, unit {unit}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "read before it was filled")]
    fn unit_cache_range_rejects_unfilled_entries() {
        let mut cache = UnitGradientCache::new(3);
        cache.fill(&[0], 1, Parallelism::sequential(), |_| 0, |_, _, _| {});
        let _ = cache.filled_range(0..2);
    }
}
