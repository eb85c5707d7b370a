//! Coverage-time simulators for Fig. 5: generalized BCC vs load balancing.
//!
//! **Generalized BCC** (§IV-B): given P2-optimal loads `(r₁*,…,rₙ*)` for
//! `s = ⌊m·log m⌋`, worker `i` independently selects `rᵢ*` examples
//! uniformly at random (without replacement). The job finishes at the
//! coverage time `T = min{t : ∪_{i:Tᵢ≤t} Gᵢ = [m]}` (eq. (16)).
//!
//! **Load balancing (LB)** (§IV-C): examples are split *without repetition*
//! proportionally to worker speeds (`rᵢ = μᵢ/Σμ·m`); every loaded worker
//! must finish, so `T = max Tᵢ` — the straggler-exposed baseline.

use bcc_cluster::WorkerProfile;
use bcc_data::Placement;
use bcc_stats::rng::{derive_rng, derive_seed};
use bcc_stats::Summary;
use serde::{Deserialize, Serialize};

/// Configuration of the Fig. 5 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Config {
    /// Dataset size `m` (paper: 500).
    pub num_examples: usize,
    /// Worker latency profiles (paper: 95× μ=1 + 5× μ=20, all a=20).
    pub workers: Vec<WorkerProfile>,
    /// Monte-Carlo trials.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
}

impl Fig5Config {
    /// The paper's exact Fig. 5 setting.
    #[must_use]
    pub fn paper(trials: usize, seed: u64) -> Self {
        let mut workers = vec![WorkerProfile { mu: 1.0, a: 20.0 }; 95];
        workers.extend(vec![WorkerProfile { mu: 20.0, a: 20.0 }; 5]);
        Self {
            num_examples: 500,
            workers,
            trials,
            seed,
        }
    }

    /// Worker speeds `μᵢ` (for the LB apportionment).
    #[must_use]
    pub fn speeds(&self) -> Vec<f64> {
        self.workers.iter().map(|w| w.mu).collect()
    }
}

/// Summary of a coverage-time simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoverageStats {
    /// Mean completion time over the trials.
    pub mean_time: f64,
    /// Standard error of the mean.
    pub std_err: f64,
    /// Fraction of trials that achieved coverage at all.
    pub success_rate: f64,
}

/// One trial of the generalized-BCC coverage process; `None` when no
/// covering placement exists for these loads (e.g. `Σ rᵢ < m`).
///
/// The random data-distribution step is re-drawn until it covers the
/// dataset — the practical counterpart of the proof's conditioning on
/// achievable coverage (§IV's "we only consider the case where the coverage
/// can be achieved using the messages sent by all n nodes"), and the same
/// policy the registry's `bcc` factory applies in the homogeneous setting.
fn gbcc_trial(config: &Fig5Config, loads: &[usize], trial: u64) -> Option<f64> {
    let m = config.num_examples;
    if loads.iter().sum::<usize>() < m {
        return None; // coverage structurally impossible
    }
    let mut prng = derive_rng(config.seed, derive_seed(0x1ace, trial));
    let mut placement = Placement::heterogeneous_random(m, loads, &mut prng);
    let mut attempts = 0;
    while !placement.covers_all() {
        attempts += 1;
        if attempts > 1000 {
            return None;
        }
        placement = Placement::heterogeneous_random(m, loads, &mut prng);
    }

    // Finish times.
    let mut order: Vec<(f64, usize)> = config
        .workers
        .iter()
        .enumerate()
        .filter(|(i, _)| loads[*i] > 0)
        .map(|(i, w)| {
            let mut rng = derive_rng(config.seed, trial.wrapping_mul(1_000_003) + i as u64);
            (w.sample_compute_time(loads[i], &mut rng), i)
        })
        .collect();
    order.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));

    // Coverage scan (eq. (16)).
    let mut covered = vec![false; m];
    let mut remaining = m;
    for (t, i) in order {
        for &j in placement.worker_examples(i) {
            if !covered[j] {
                covered[j] = true;
                remaining -= 1;
            }
        }
        if remaining == 0 {
            return Some(t);
        }
    }
    None
}

/// Simulates the generalized-BCC average coverage time under the given
/// loads.
#[must_use]
pub fn simulate_gbcc_coverage_time(config: &Fig5Config, loads: &[usize]) -> CoverageStats {
    assert_eq!(
        loads.len(),
        config.workers.len(),
        "one load per worker required"
    );
    let mut s = Summary::new();
    let mut successes = 0usize;
    for t in 0..config.trials {
        if let Some(time) = gbcc_trial(config, loads, t as u64) {
            s.push(time);
            successes += 1;
        }
    }
    CoverageStats {
        mean_time: s.mean(),
        std_err: s.std_err(),
        success_rate: successes as f64 / config.trials.max(1) as f64,
    }
}

/// Simulates the LB baseline: proportional disjoint placement, so the
/// completion time of each trial is the maximum finish time over loaded
/// workers.
#[must_use]
pub fn simulate_lb_completion_time(config: &Fig5Config) -> CoverageStats {
    let placement = Placement::load_balanced(config.num_examples, &config.speeds());
    let loads: Vec<usize> = (0..config.workers.len())
        .map(|i| placement.load_of(i))
        .collect();
    let mut s = Summary::new();
    for trial in 0..config.trials {
        let mut worst = 0.0f64;
        for (i, w) in config.workers.iter().enumerate() {
            if loads[i] == 0 {
                continue;
            }
            let mut rng = derive_rng(
                config.seed,
                (trial as u64).wrapping_mul(1_000_003) + i as u64,
            );
            worst = worst.max(w.sample_compute_time(loads[i], &mut rng));
        }
        s.push(worst);
    }
    CoverageStats {
        mean_time: s.mean(),
        std_err: s.std_err(),
        success_rate: 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hetero::p2::optimal_loads;

    /// A 1/5-scale Fig. 5: same speed contrast (20×) and shift (a = 20), so
    /// LB must pile load onto the fast worker (shift a·r ≈ 1000) while GBCC
    /// spreads it — the regime where coverage wins.
    fn small_config() -> Fig5Config {
        let mut workers = vec![WorkerProfile { mu: 1.0, a: 20.0 }; 19];
        workers.push(WorkerProfile { mu: 20.0, a: 20.0 });
        Fig5Config {
            num_examples: 100,
            workers,
            trials: 200,
            seed: 5,
        }
    }

    #[test]
    fn gbcc_beats_lb_on_straggler_heavy_cluster() {
        let cfg = small_config();
        let s = (cfg.num_examples as f64 * (cfg.num_examples as f64).ln()).floor() as usize;
        let sol = optimal_loads(&cfg.workers, s, cfg.num_examples);
        let gbcc = simulate_gbcc_coverage_time(&cfg, &sol.loads);
        let lb = simulate_lb_completion_time(&cfg);
        assert!(gbcc.success_rate > 0.95, "coverage must almost surely hold");
        assert!(
            gbcc.mean_time < lb.mean_time,
            "GBCC {} must beat LB {}",
            gbcc.mean_time,
            lb.mean_time
        );
    }

    #[test]
    fn lb_time_at_least_slowest_shift() {
        // LB must wait for every loaded worker; its completion time is at
        // least the largest deterministic shift aᵢ·rᵢ.
        let cfg = small_config();
        let placement = Placement::load_balanced(cfg.num_examples, &cfg.speeds());
        let max_shift = (0..cfg.workers.len())
            .map(|i| cfg.workers[i].a * placement.load_of(i) as f64)
            .fold(0.0f64, f64::max);
        let lb = simulate_lb_completion_time(&cfg);
        assert!(lb.mean_time >= max_shift);
    }

    #[test]
    fn deterministic_in_seed() {
        let mut cfg = small_config();
        cfg.trials = 50;
        let loads = vec![30; 20]; // ample loads so placements cover quickly
        let a = simulate_gbcc_coverage_time(&cfg, &loads);
        let b = simulate_gbcc_coverage_time(&cfg, &loads);
        assert_eq!(a.mean_time, b.mean_time);
        assert!(a.success_rate > 0.95);
    }

    #[test]
    fn undersized_loads_fail_coverage() {
        let cfg = Fig5Config {
            num_examples: 100,
            workers: vec![WorkerProfile { mu: 1.0, a: 1.0 }; 3],
            trials: 20,
            seed: 9,
        };
        // 3 workers × 10 examples can never cover 100.
        let stats = simulate_gbcc_coverage_time(&cfg, &[10, 10, 10]);
        assert_eq!(stats.success_rate, 0.0);
    }

    #[test]
    fn paper_config_shape() {
        let cfg = Fig5Config::paper(10, 1);
        assert_eq!(cfg.num_examples, 500);
        assert_eq!(cfg.workers.len(), 100);
        assert_eq!(cfg.speeds().iter().filter(|s| **s == 20.0).count(), 5);
    }
}
