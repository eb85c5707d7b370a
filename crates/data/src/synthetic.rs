//! The paper's synthetic logistic-regression data model (§III-C).
//!
//! > "We first generate the true weight vector `w*` whose coordinates are
//! > randomly chosen from `{−1, 1}`. Then, we generate each input vector
//! > according to `x ~ 0.5·N(μ₁, I) + 0.5·N(μ₂, I)` where `μ₁ = 1.5/p·w*`
//! > and `μ₂ = −1.5/p·w*`, and its corresponding output label according to
//! > `y ~ Ber(κ)`, with `κ = 1/(exp(xᵀw*) + 1)`."
//!
//! The paper uses `p = 8000` features; the default config keeps that but the
//! examples and benches scale `p` down (the latency model, not the feature
//! count, drives every reproduced effect — see DESIGN.md).

use crate::dataset::Dataset;
use bcc_linalg::{vec_ops, Matrix};
use bcc_stats::dist::{Bernoulli, Gaussian};
use bcc_stats::rng::derive_rng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Number of examples `m` (the paper calls the dataset size `d` in
    /// §III-C; we keep `m` for consistency with the analysis sections).
    pub num_examples: usize,
    /// Feature dimension `p` (paper: 8000).
    pub dim: usize,
    /// Mixture separation: means are `±separation/p · w*` (paper: 1.5).
    pub separation: f64,
    /// Master seed; all draws derive deterministically from it.
    pub seed: u64,
}

impl SyntheticConfig {
    /// The paper's experimental setting, scaled by the caller's `m`.
    #[must_use]
    pub fn paper(num_examples: usize, seed: u64) -> Self {
        Self {
            num_examples,
            dim: 8000,
            separation: 1.5,
            seed,
        }
    }

    /// A laptop-friendly setting for examples/tests: small `p`, same model.
    #[must_use]
    pub fn small(num_examples: usize, dim: usize, seed: u64) -> Self {
        Self {
            num_examples,
            dim,
            separation: 1.5,
            seed,
        }
    }
}

/// A generated dataset plus the ground-truth weights.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The training data.
    pub dataset: Dataset,
    /// The true weight vector `w* ∈ {±1}^p`.
    pub true_weights: Vec<f64>,
}

/// Generates a dataset exactly per the paper's model.
///
/// Deterministic in `config.seed`: weights, mixture choices, features and
/// labels each draw from derived streams.
///
/// # Panics
/// Panics when `num_examples == 0` or `dim == 0`.
#[must_use]
pub fn generate(config: &SyntheticConfig) -> SyntheticDataset {
    assert!(config.num_examples > 0, "need at least one example");
    let true_weights = generate_true_weights(config);
    let (features, labels) = generate_rows(config, &true_weights, 0..config.num_examples);
    SyntheticDataset {
        dataset: Dataset::new(features, labels),
        true_weights,
    }
}

/// The ground-truth weight draw `w* ∈ {±1}^p` (its own RNG stream, so it
/// does not depend on how many examples are ever materialized).
///
/// # Panics
/// Panics when `dim == 0`.
#[must_use]
pub fn generate_true_weights(config: &SyntheticConfig) -> Vec<f64> {
    assert!(config.dim > 0, "need at least one feature");
    let mut wrng = derive_rng(config.seed, WEIGHT_STREAM);
    (0..config.dim)
        .map(|_| if wrng.gen::<bool>() { 1.0 } else { -1.0 })
        .collect()
}

/// Generates the example rows `range` only, bit-identical to the same rows
/// of [`generate`]: each example draws from its own derived stream
/// (`1 + j`), so any sub-range can be materialized independently of the rest.
///
/// # Panics
/// Panics when `range` exceeds `config.num_examples` or
/// `true_weights.len() != config.dim`.
#[must_use]
pub fn generate_rows(
    config: &SyntheticConfig,
    true_weights: &[f64],
    range: std::ops::Range<usize>,
) -> (Matrix, Vec<f64>) {
    assert!(
        range.end <= config.num_examples,
        "row range {range:?} exceeds the {}-example config",
        config.num_examples
    );
    assert_eq!(
        true_weights.len(),
        config.dim,
        "true weights must match dim"
    );

    let p = config.dim;
    let scale = config.separation / p as f64;
    let gauss = Gaussian::standard();
    let mut features = Matrix::zeros(range.len(), p);
    let mut labels = vec![0.0; range.len()];

    for (i, j) in range.enumerate() {
        let mut xrng = derive_rng(config.seed, 1 + j as u64);
        // Mixture component: ±1 with equal probability.
        let sign = if xrng.gen::<bool>() { 1.0 } else { -1.0 };
        let row = features.row_mut(i);
        for (k, wk) in true_weights.iter().enumerate() {
            row[k] = sign * scale * wk + bcc_stats::dist::Sample::sample(&gauss, &mut xrng);
        }
        let margin = vec_ops::dot(row, true_weights);
        // κ = 1/(exp(xᵀw*) + 1) = σ(−margin), labels in {−1, +1}.
        let kappa = 1.0 / (margin.exp() + 1.0);
        labels[i] = if Bernoulli::new(kappa).sample_bool(&mut xrng) {
            1.0
        } else {
            -1.0
        };
    }

    (features, labels)
}

/// Stream label reserved for the `w*` draw; example streams are `1 + j`.
const WEIGHT_STREAM: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SyntheticConfig {
        SyntheticConfig::small(200, 32, 7)
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate(&cfg());
        let b = generate(&cfg());
        assert_eq!(a.true_weights, b.true_weights);
        assert_eq!(a.dataset, b.dataset);

        let mut other = cfg();
        other.seed = 8;
        let c = generate(&other);
        assert_ne!(a.dataset.labels(), c.dataset.labels());
    }

    #[test]
    fn generate_rows_matches_full_generation() {
        let c = cfg();
        let full = generate(&c);
        let w = generate_true_weights(&c);
        assert_eq!(w, full.true_weights);
        for range in [0..200, 0..1, 37..118, 199..200, 50..50] {
            let (x, y) = generate_rows(&c, &w, range.clone());
            assert_eq!(x.rows(), range.len());
            for (i, j) in range.clone().enumerate() {
                assert_eq!(x.row(i), full.dataset.x(j), "row {j} must be bit-identical");
                assert_eq!(y[i], full.dataset.y(j));
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn generate_rows_out_of_range_panics() {
        let c = cfg();
        let w = generate_true_weights(&c);
        let _ = generate_rows(&c, &w, 150..201);
    }

    #[test]
    fn shapes_match_config() {
        let g = generate(&cfg());
        assert_eq!(g.dataset.len(), 200);
        assert_eq!(g.dataset.dim(), 32);
        assert_eq!(g.true_weights.len(), 32);
    }

    #[test]
    fn weights_are_plus_minus_one() {
        let g = generate(&cfg());
        assert!(g.true_weights.iter().all(|w| *w == 1.0 || *w == -1.0));
        // Both signs occur with overwhelming probability at p = 32.
        assert!(g.true_weights.contains(&1.0));
        assert!(g.true_weights.iter().any(|w| *w == -1.0));
    }

    #[test]
    fn labels_are_plus_minus_one() {
        let g = generate(&cfg());
        assert!(g.dataset.labels().iter().all(|y| *y == 1.0 || *y == -1.0));
    }

    #[test]
    fn label_frequency_matches_kappa_model() {
        // κ = σ(−xᵀw*); with the small separation the margin is near zero on
        // average, so P(y = 1) should hover near 0.5 but be measurably below
        // it for positive-margin examples. Check the aggregate frequency
        // against the model's own expectation computed from the features.
        let g = generate(&SyntheticConfig::small(5000, 16, 11));
        let mut expected = 0.0;
        for j in 0..g.dataset.len() {
            let margin = bcc_linalg::vec_ops::dot(g.dataset.x(j), &g.true_weights);
            expected += 1.0 / (margin.exp() + 1.0);
        }
        expected /= g.dataset.len() as f64;
        let observed = g.dataset.labels().iter().filter(|y| **y == 1.0).count() as f64
            / g.dataset.len() as f64;
        assert!(
            (observed - expected).abs() < 0.03,
            "observed {observed} vs model expectation {expected}"
        );
    }

    #[test]
    fn paper_config_dimensions() {
        let c = SyntheticConfig::paper(100, 1);
        assert_eq!(c.dim, 8000);
        assert_eq!(c.separation, 1.5);
    }

    #[test]
    #[should_panic(expected = "at least one example")]
    fn zero_examples_panics() {
        let _ = generate(&SyntheticConfig::small(0, 4, 1));
    }
}
