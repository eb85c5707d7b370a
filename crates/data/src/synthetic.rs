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
//! count, drives every reproduced effect — see the README's "Reproduction
//! scope").

use crate::dataset::Dataset;
use bcc_linalg::parallel::{split_runs, Parallelism};
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
/// labels each draw from derived streams. The rows are filled as
/// [`generate_rows`] fills them — on up to [`Parallelism::available`]
/// threads, bit-identical at every thread count.
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
/// The rows are filled in contiguous runs by [`split_runs`] on up to
/// [`Parallelism::available`] threads once the range holds
/// [`MIN_WORK`](bcc_linalg::parallel::MIN_WORK) feature elements, else on
/// the calling thread. Every row is still drawn from its own stream, so the
/// output is bit-identical at every thread count.
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
    generate_rows_on(config, true_weights, range, Parallelism::available())
}

/// [`generate_rows`] under the thread budget `par`. The feature buffer is
/// allocated once and each run of rows fills its own window of it.
fn generate_rows_on(
    config: &SyntheticConfig,
    true_weights: &[f64],
    range: std::ops::Range<usize>,
    par: Parallelism,
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

    let (rows, p) = (range.len(), config.dim);
    let len = rows
        .checked_mul(p)
        .expect("feature buffer size overflows usize");
    let mut features = vec![0.0; len];
    let mut labels = vec![0.0; rows];
    let (mut x_rest, mut y_rest) = (features.as_mut_slice(), labels.as_mut_slice());
    split_runs(
        par,
        len,
        rows,
        |run| {
            let (x, x_tail) = std::mem::take(&mut x_rest).split_at_mut(run.len() * p);
            let (y, y_tail) = std::mem::take(&mut y_rest).split_at_mut(run.len());
            (x_rest, y_rest) = (x_tail, y_tail);
            (range.start + run.start, x, y)
        },
        |(first, x, y)| fill_rows(config, true_weights, first, x, y),
    );
    let features = Matrix::from_vec(rows, p, features).expect("buffer holds rows × dim");
    (features, labels)
}

/// Fills examples `first, first + 1, …` into `labels` (one each) and
/// `features` (row-major, `config.dim` per example), each example from its
/// own derived stream.
fn fill_rows(
    config: &SyntheticConfig,
    true_weights: &[f64],
    first: usize,
    features: &mut [f64],
    labels: &mut [f64],
) {
    let p = config.dim;
    let scale = config.separation / p as f64;
    let gauss = Gaussian::standard();
    for (i, label) in labels.iter_mut().enumerate() {
        let mut xrng = derive_rng(config.seed, 1 + (first + i) as u64);
        // Mixture component: ±1 with equal probability.
        let sign = if xrng.gen::<bool>() { 1.0 } else { -1.0 };
        let row = &mut features[i * p..(i + 1) * p];
        for (x, wk) in row.iter_mut().zip(true_weights) {
            *x = sign * scale * wk + bcc_stats::dist::Sample::sample(&gauss, &mut xrng);
        }
        let margin = vec_ops::dot(row, true_weights);
        // κ = 1/(exp(xᵀw*) + 1) = σ(−margin), labels in {−1, +1}.
        let kappa = 1.0 / (margin.exp() + 1.0);
        *label = if Bernoulli::new(kappa).sample_bool(&mut xrng) {
            1.0
        } else {
            -1.0
        };
    }
}

/// Stream label reserved for the `w*` draw; example streams are `1 + j`.
const WEIGHT_STREAM: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_linalg::parallel::MIN_WORK;

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

    fn assert_bit_equal(what: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {k}: {a} vs {b}");
        }
    }

    #[test]
    fn rows_are_bit_identical_at_every_thread_count() {
        // Every non-empty range holds at least `MIN_WORK` feature elements,
        // so each budget above one splits it: 1000 × 300 rows cut
        // 334/334/332 at 3 threads, 7 rows of a 60 000-wide config cut
        // 3/3/1, and 5 rows at more threads than rows.
        let wide = SyntheticConfig::small(1100, 300, 5);
        let tall = SyntheticConfig::small(20, 60_000, 5);
        assert!(1000 * wide.dim >= MIN_WORK && 5 * tall.dim >= MIN_WORK);
        let cases = [
            (wide, 37..1037, vec![2, 3]),
            (wide, 0..1100, vec![2, 3]),
            (tall, 3..10, vec![2, 3, 9]),
            (tall, 3..8, vec![2, 9]),
            (wide, 1100..1100, vec![2, 9]),
        ];
        for (c, range, thread_counts) in cases {
            let w = generate_true_weights(&c);
            let (x1, y1) = generate_rows_on(&c, &w, range.clone(), Parallelism::sequential());
            assert_eq!(x1.rows(), range.len());
            for threads in thread_counts {
                let (x, y) = generate_rows_on(&c, &w, range.clone(), Parallelism::threads(threads));
                let what = format!("{range:?} at {threads} threads");
                assert_eq!(x.rows(), x1.rows(), "{what}: rows");
                assert_bit_equal(&what, x.as_slice(), x1.as_slice());
                assert_bit_equal(&what, &y, &y1);
            }
            // The public entry point, at the host's own thread count.
            let (x, y) = generate_rows(&c, &w, range.clone());
            assert_bit_equal(
                &format!("{range:?} on this host"),
                x.as_slice(),
                x1.as_slice(),
            );
            assert_bit_equal(&format!("{range:?} on this host"), &y, &y1);
        }
    }

    /// FNV-1a over the bit patterns (little-endian bytes) of `values`.
    fn fnv1a(values: &[f64]) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    #[test]
    fn generator_output_is_pinned() {
        // The hashes were taken from the one-thread generator. A change to
        // the sampler, the stream derivation or the row-to-stream mapping
        // fails here by name. The second config is above the parallel
        // threshold on a multi-core host, and is also filled at 3 threads
        // whatever the host has.
        let pins = [
            (
                SyntheticConfig::small(200, 32, 7),
                0xc30f_c9b7_2ae4_2e1f_u64,
                0xe936_b9da_0656_8225_u64,
            ),
            (
                SyntheticConfig::small(600, 1024, 2024),
                0x9b98_1829_2ee2_b066,
                0x5bd9_080a_a3f6_09a5,
            ),
        ];
        for (c, features_pin, labels_pin) in pins {
            let g = generate(&c);
            let shape = (c.num_examples, c.dim);
            assert_eq!(
                fnv1a(g.dataset.features().as_slice()),
                features_pin,
                "features of {shape:?}"
            );
            assert_eq!(fnv1a(g.dataset.labels()), labels_pin, "labels of {shape:?}");
            let (x, y) = generate_rows_on(
                &c,
                &g.true_weights,
                0..c.num_examples,
                Parallelism::threads(3),
            );
            assert_eq!(
                fnv1a(x.as_slice()),
                features_pin,
                "features of {shape:?}, 3 threads"
            );
            assert_eq!(fnv1a(&y), labels_pin, "labels of {shape:?}, 3 threads");
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
