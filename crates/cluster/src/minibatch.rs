//! Minibatch/stochastic rounds: a seeded per-round unit-subset sampler.
//!
//! The paper's master broadcasts the full partition every round. At
//! minibatch scale (Stochastic Gradient Coding, Bitar et al.), each round
//! instead trains on a sampled subset of the coding units: workers compute
//! partial gradients only for their assigned units that fall in the
//! round's sample and contribute **zero** vectors for the rest, so every
//! linear scheme's encode/decode passes the sampled sum through unchanged
//! and the decoded gradient is exact *with respect to the minibatch*.
//!
//! Replay contract: the selection for round `t` is a pure function of
//! `(sampler_seed, t)` — the round loop (and every worker thread or
//! process) derives it independently with no extra communication, keeping
//! the cross-backend byte-identity guarantee. Pinned by
//! `tests/minibatch_sampler.rs`.

use bcc_stats::rng::derive_rng;
use rand::Rng;

/// Seeded per-round unit sampler (`Copy` — rides inside
/// [`RoundContext`](crate::engine::RoundContext)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Minibatch {
    /// Units sampled per round (`≥ 1`).
    pub units_per_round: usize,
    /// Sampler stream seed (derive it from the experiment master seed so
    /// it cannot collide with latency/scheme/data streams).
    pub sampler_seed: u64,
}

impl Minibatch {
    /// Sampler drawing `units_per_round` units each round.
    ///
    /// # Panics
    /// Panics when `units_per_round == 0` — a round with no units has no
    /// gradient.
    #[must_use]
    pub fn new(units_per_round: usize, sampler_seed: u64) -> Self {
        assert!(units_per_round >= 1, "minibatch needs at least one unit");
        Self {
            units_per_round,
            sampler_seed,
        }
    }

    /// The round's sampled unit set: a uniform `units_per_round`-subset of
    /// `0..num_units`, sorted, without replacement, deterministic in
    /// `(sampler_seed, round)`.
    ///
    /// # Panics
    /// Panics when `units_per_round > num_units`.
    #[must_use]
    pub fn select(&self, round: u64, num_units: usize) -> UnitSelection {
        let k = self.units_per_round;
        assert!(
            k <= num_units,
            "minibatch of {k} units exceeds the {num_units}-unit partition"
        );
        // Partial Fisher–Yates: after k swaps the prefix is a uniform
        // k-subset in uniform order; sorting drops the order.
        let mut rng = derive_rng(self.sampler_seed, round);
        let mut idx: Vec<usize> = (0..num_units).collect();
        for i in 0..k {
            let j = rng.gen_range(i..num_units);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx.sort_unstable();
        UnitSelection::from_sorted(idx, num_units)
    }
}

/// One round's sampled unit set: sorted ids plus an `O(1)` membership mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitSelection {
    sorted: Vec<usize>,
    member: Vec<bool>,
}

impl UnitSelection {
    fn from_sorted(sorted: Vec<usize>, num_units: usize) -> Self {
        let mut member = vec![false; num_units];
        for &u in &sorted {
            member[u] = true;
        }
        Self { sorted, member }
    }

    /// Whether `unit` is in this round's sample (`false` out of range).
    #[must_use]
    pub fn contains(&self, unit: usize) -> bool {
        self.member.get(unit).copied().unwrap_or(false)
    }

    /// The sampled unit ids, ascending.
    #[must_use]
    pub fn units(&self) -> &[usize] {
        &self.sorted
    }

    /// Number of sampled units.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when nothing was sampled (unreachable via [`Minibatch::new`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// How many of `units` fall in the sample — the worker's effective
    /// compute load this round.
    #[must_use]
    pub fn selected_load(&self, units: &[usize]) -> usize {
        units.iter().filter(|&&u| self.contains(u)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_sorted_unique_in_range() {
        let mb = Minibatch::new(7, 99);
        for round in 0..50 {
            let sel = mb.select(round, 20);
            assert_eq!(sel.len(), 7);
            assert!(sel.units().windows(2).all(|w| w[0] < w[1]));
            assert!(sel.units().iter().all(|&u| u < 20));
        }
    }

    #[test]
    fn selection_replays_per_round_and_differs_across_rounds() {
        let mb = Minibatch::new(5, 4);
        assert_eq!(mb.select(3, 40), mb.select(3, 40));
        let distinct = (0..20).map(|r| mb.select(r, 40)).collect::<Vec<_>>();
        assert!(
            distinct.windows(2).any(|w| w[0] != w[1]),
            "rounds must resample"
        );
    }

    #[test]
    fn full_sample_covers_everything() {
        let sel = Minibatch::new(6, 1).select(0, 6);
        assert_eq!(sel.units(), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(sel.selected_load(&[2, 4]), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_minibatch_panics() {
        let _ = Minibatch::new(10, 0).select(0, 5);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_minibatch_rejected() {
        let _ = Minibatch::new(0, 0);
    }
}
