//! Data-placement bipartite graph (§II).
//!
//! A placement records, for each worker `i`, the index set `Gᵢ` of examples
//! it stores and processes. The paper requires coverage
//! (`∪ N(kᵢ) = {d₁,…,d_m}`) and defines the computational load
//! `r = maxᵢ |Gᵢ|` (Definition 1). Builders for every placement the paper
//! compares live here; the coding schemes pick the builder matching their
//! data-distribution step.

use crate::batching::Batching;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Assignment of example index sets to workers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    num_examples: usize,
    assignments: Vec<Vec<usize>>,
}

impl Placement {
    /// Builds a placement from explicit per-worker index sets.
    ///
    /// # Panics
    /// Panics when any index is out of range or a worker's set contains
    /// duplicates.
    #[must_use]
    pub fn new(num_examples: usize, assignments: Vec<Vec<usize>>) -> Self {
        for (i, g) in assignments.iter().enumerate() {
            let mut seen = vec![false; num_examples];
            for &j in g {
                assert!(j < num_examples, "worker {i}: example {j} out of range");
                assert!(!seen[j], "worker {i}: duplicate example {j}");
                seen[j] = true;
            }
        }
        Self {
            num_examples,
            assignments,
        }
    }

    /// Number of workers `n`.
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.assignments.len()
    }

    /// Number of examples `m`.
    #[must_use]
    pub fn num_examples(&self) -> usize {
        self.num_examples
    }

    /// Index set `Gᵢ` of worker `i`.
    #[must_use]
    pub fn worker_examples(&self, i: usize) -> &[usize] {
        &self.assignments[i]
    }

    /// Per-worker load `rᵢ = |Gᵢ|`.
    #[must_use]
    pub fn load_of(&self, i: usize) -> usize {
        self.assignments[i].len()
    }

    /// True when every example is stored by at least one worker — the
    /// coverage requirement `N(k₁) ∪ … ∪ N(kₙ) = {d₁,…,d_m}`.
    #[must_use]
    pub fn covers_all(&self) -> bool {
        let mut seen = vec![false; self.num_examples];
        for g in &self.assignments {
            for &j in g {
                seen[j] = true;
            }
        }
        seen.iter().all(|s| *s)
    }

    /// For each example, how many workers store it.
    #[must_use]
    pub fn replication_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_examples];
        for g in &self.assignments {
            for &j in g {
                counts[j] += 1;
            }
        }
        counts
    }

    // ---------------------------------------------------------------
    // Builders for the placements the paper compares.
    // ---------------------------------------------------------------

    /// **Uncoded** placement: examples are split into `n` disjoint contiguous
    /// shards, one per worker ("no repetition in data among the workers").
    ///
    /// # Panics
    /// Panics when `n == 0` or `m == 0`.
    #[must_use]
    pub fn disjoint_shards(m: usize, n: usize) -> Self {
        assert!(n > 0 && m > 0, "need workers and examples");
        let mut assignments = Vec::with_capacity(n);
        // Spread the remainder so loads differ by at most one.
        let base = m / n;
        let extra = m % n;
        let mut start = 0;
        for i in 0..n {
            let len = base + usize::from(i < extra);
            assignments.push((start..start + len).collect());
            start += len;
        }
        Self::new(m, assignments)
    }

    /// **BCC** placement: partition into `⌈m/r⌉` batches; each worker
    /// independently and uniformly at random picks one batch (§III-A).
    /// Returns the placement plus each worker's chosen batch id.
    pub fn bcc_batched<R: Rng + ?Sized>(
        batching: &Batching,
        n: usize,
        rng: &mut R,
    ) -> (Self, Vec<usize>) {
        assert!(n > 0, "need at least one worker");
        let nb = batching.num_batches();
        let choices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..nb)).collect();
        let assignments = choices.iter().map(|&b| batching.batch_indices(b)).collect();
        (Self::new(batching.num_examples(), assignments), choices)
    }

    /// **Simple randomized** placement: each worker selects `r` of the `m`
    /// examples uniformly at random without replacement (Prior Art §I).
    pub fn random_subsets<R: Rng + ?Sized>(m: usize, n: usize, r: usize, rng: &mut R) -> Self {
        assert!(r > 0 && r <= m, "need 0 < r ≤ m");
        assert!(n > 0, "need at least one worker");
        let mut assignments = Vec::with_capacity(n);
        let mut pool: Vec<usize> = (0..m).collect();
        for _ in 0..n {
            for k in 0..r {
                let j = rng.gen_range(k..m);
                pool.swap(k, j);
            }
            let mut subset = pool[..r].to_vec();
            subset.sort_unstable();
            assignments.push(subset);
        }
        Self::new(m, assignments)
    }

    /// **Cyclic** placement used by the CR/RS/CM coded schemes: worker `i`
    /// stores the window `{i, i+1, …, i+r−1} mod m` (assumes `m = n` as the
    /// paper does for the coded schemes; callers with `m > n` group examples
    /// into "super examples" first).
    ///
    /// # Panics
    /// Panics when `r > n` or `n == 0`.
    #[must_use]
    pub fn cyclic(n: usize, r: usize) -> Self {
        assert!(n > 0, "need at least one worker");
        assert!(r > 0 && r <= n, "cyclic placement needs 0 < r ≤ n");
        let assignments = (0..n)
            .map(|i| {
                let mut w: Vec<usize> = (0..r).map(|k| (i + k) % n).collect();
                w.sort_unstable();
                w
            })
            .collect();
        Self::new(n, assignments)
    }

    /// **Fractional repetition** placement (Tandon et al.): requires
    /// `r | n`; workers are split into `r` groups of `n/r`, and group `g`
    /// replicates the `g`-th disjoint shard of size `r`... more precisely,
    /// the `n/r` workers of each group each store one distinct shard of `r`
    /// examples, and the groups are identical copies. Assumes `m = n`.
    ///
    /// # Panics
    /// Panics unless `r` divides `n`.
    #[must_use]
    pub fn fractional_repetition(n: usize, r: usize) -> Self {
        assert!(
            r > 0 && n.is_multiple_of(r),
            "fractional repetition needs r | n"
        );
        let shards = n / r; // number of disjoint shards of size r
        let assignments = (0..n)
            .map(|i| {
                let shard = i % shards;
                (shard * r..(shard + 1) * r).collect()
            })
            .collect();
        Self::new(n, assignments)
    }

    /// **Heterogeneous random** placement (generalized BCC, §IV): worker `i`
    /// selects `loads[i]` examples uniformly at random without replacement.
    pub fn heterogeneous_random<R: Rng + ?Sized>(m: usize, loads: &[usize], rng: &mut R) -> Self {
        let mut assignments = Vec::with_capacity(loads.len());
        let mut pool: Vec<usize> = (0..m).collect();
        for &ri in loads {
            assert!(ri <= m, "load {ri} exceeds dataset size {m}");
            for k in 0..ri {
                let j = rng.gen_range(k..m);
                pool.swap(k, j);
            }
            let mut subset = pool[..ri].to_vec();
            subset.sort_unstable();
            assignments.push(subset);
        }
        Self::new(m, assignments)
    }

    /// **Load-balancing (LB)** placement (§IV-C baseline): the `m` examples
    /// are distributed without repetition, proportionally to worker speeds
    /// `μᵢ` ("`rᵢ = μᵢ/Σμ · m`"), with remainders to the fastest workers.
    ///
    /// # Panics
    /// Panics when `speeds` is empty or has non-positive entries.
    #[must_use]
    pub fn load_balanced(m: usize, speeds: &[f64]) -> Self {
        assert!(!speeds.is_empty(), "need at least one worker");
        assert!(
            speeds.iter().all(|s| *s > 0.0 && s.is_finite()),
            "speeds must be positive"
        );
        let total: f64 = speeds.iter().sum();
        // Largest-remainder apportionment of m examples.
        let quotas: Vec<f64> = speeds.iter().map(|s| s / total * m as f64).collect();
        let mut loads: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
        let mut assigned: usize = loads.iter().sum();
        let mut order: Vec<usize> = (0..speeds.len()).collect();
        order.sort_by(|&a, &b| {
            let ra = quotas[a] - quotas[a].floor();
            let rb = quotas[b] - quotas[b].floor();
            rb.partial_cmp(&ra).expect("finite remainders")
        });
        let mut k = 0;
        let n_workers = loads.len();
        while assigned < m {
            loads[order[k % n_workers]] += 1;
            assigned += 1;
            k += 1;
        }
        let mut assignments = Vec::with_capacity(speeds.len());
        let mut start = 0;
        for &len in &loads {
            assignments.push((start..start + len).collect());
            start += len;
        }
        Self::new(m, assignments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_stats::rng::derive_rng;

    #[test]
    fn disjoint_shards_cover_without_overlap() {
        let p = Placement::disjoint_shards(103, 10);
        assert!(p.covers_all());
        let loads: Vec<usize> = (0..10).map(|i| p.load_of(i)).collect();
        assert_eq!(loads.iter().sum::<usize>(), 103);
        assert_eq!(loads.iter().max(), Some(&11)); // ⌈103/10⌉
        assert!(p.replication_counts().iter().all(|c| *c == 1));
    }

    #[test]
    fn disjoint_shards_more_workers_than_examples() {
        let p = Placement::disjoint_shards(3, 5);
        assert!(p.covers_all());
        assert_eq!(p.num_workers(), 5);
        // Two workers hold nothing, and nothing is repeated.
        assert_eq!(p.replication_counts(), vec![1; 3]);
    }

    #[test]
    fn bcc_batched_workers_hold_whole_batches() {
        let batching = Batching::even(100, 10);
        let mut rng = derive_rng(1, 0);
        let (p, choices) = Placement::bcc_batched(&batching, 50, &mut rng);
        assert_eq!(p.num_workers(), 50);
        assert_eq!(choices.len(), 50);
        for (i, &b) in choices.iter().enumerate() {
            assert_eq!(p.worker_examples(i), batching.batch_indices(b).as_slice());
        }
    }

    #[test]
    fn random_subsets_have_exact_load() {
        let mut rng = derive_rng(2, 0);
        let p = Placement::random_subsets(50, 20, 7, &mut rng);
        for i in 0..20 {
            assert_eq!(p.load_of(i), 7);
            // Sorted and unique by construction.
            let g = p.worker_examples(i);
            assert!(g.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn cyclic_window_wraps() {
        let p = Placement::cyclic(5, 3);
        assert_eq!(p.worker_examples(0), &[0, 1, 2]);
        assert_eq!(p.worker_examples(3), &[0, 3, 4]); // {3,4,0} sorted
        assert!(p.covers_all());
        // Every example replicated exactly r times.
        assert!(p.replication_counts().iter().all(|c| *c == 3));
    }

    #[test]
    fn fractional_repetition_structure() {
        let p = Placement::fractional_repetition(6, 2);
        // 3 shards of size 2, each stored by 2 workers.
        assert!(p.covers_all());
        assert_eq!(p.replication_counts(), vec![2; 6]);
        assert_eq!(p.worker_examples(0), p.worker_examples(3));
    }

    #[test]
    #[should_panic(expected = "r | n")]
    fn fractional_repetition_requires_divisibility() {
        let _ = Placement::fractional_repetition(5, 2);
    }

    #[test]
    fn heterogeneous_random_respects_loads() {
        let mut rng = derive_rng(3, 0);
        let loads = vec![1, 5, 0, 3];
        let p = Placement::heterogeneous_random(10, &loads, &mut rng);
        for (i, &l) in loads.iter().enumerate() {
            assert_eq!(p.load_of(i), l);
        }
    }

    #[test]
    fn load_balanced_apportions_exactly_m() {
        let speeds = vec![1.0, 1.0, 1.0, 1.0, 20.0];
        let p = Placement::load_balanced(500, &speeds);
        assert!(p.covers_all());
        // The fast worker gets the lion's share.
        assert!(p.load_of(4) > p.load_of(0) * 10);
        assert!(p.replication_counts().iter().all(|c| *c == 1));
    }

    #[test]
    fn load_balanced_uniform_speeds_even_split() {
        let p = Placement::load_balanced(10, &[1.0, 1.0, 1.0]);
        let loads: Vec<usize> = (0..3).map(|i| p.load_of(i)).collect();
        assert_eq!(loads.iter().sum::<usize>(), 10);
        assert!(loads.iter().all(|&l| l == 3 || l == 4));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_examples_rejected() {
        let _ = Placement::new(5, vec![vec![1, 1]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let _ = Placement::new(3, vec![vec![3]]);
    }

    #[test]
    fn replication_counts_count_duplicates() {
        let p = Placement::new(4, vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
        assert!(p.covers_all());
        assert_eq!(p.replication_counts(), vec![1, 2, 2, 1]);
    }
}
