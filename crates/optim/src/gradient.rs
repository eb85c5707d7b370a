//! Gradient kernels over a dataset.
//!
//! The paper's distributed object of interest is the *partial gradient*
//! `g_j(w) = ∇ℓ(x_j; w)` and sums of partial gradients over index sets
//! (workers send `Σ_{j∈B} g_j`). The master's target is the *full* gradient
//! `∇L(w) = (1/m) Σ_j g_j(w)` (eq. (1)).

use crate::loss::Loss;
use bcc_data::Dataset;
use bcc_linalg::vec_ops;

/// Sum of partial gradients over an index set: `Σ_{j∈set} g_j(w)`.
///
/// This is exactly the message a BCC/uncoded worker sends (eq. (12)).
#[must_use]
pub fn sum_partial_gradients<L: Loss>(
    data: &Dataset,
    loss: &L,
    set: &[usize],
    w: &[f64],
) -> Vec<f64> {
    let mut acc = vec![0.0; w.len()];
    for &j in set {
        loss.add_gradient(data.x(j), data.y(j), w, &mut acc);
    }
    acc
}

/// Sum of partial gradients over a contiguous index range, without
/// materializing an index vector.
#[must_use]
pub fn sum_partial_gradients_range<L: Loss>(
    data: &Dataset,
    loss: &L,
    range: std::ops::Range<usize>,
    w: &[f64],
) -> Vec<f64> {
    let mut acc = vec![0.0; w.len()];
    for j in range {
        loss.add_gradient(data.x(j), data.y(j), w, &mut acc);
    }
    acc
}

/// Full empirical-risk gradient `(1/m) Σ_j g_j(w)`.
#[must_use]
pub fn full_gradient<L: Loss>(data: &Dataset, loss: &L, w: &[f64]) -> Vec<f64> {
    let mut g = sum_partial_gradients_range(data, loss, 0..data.len(), w);
    vec_ops::scale(1.0 / data.len() as f64, &mut g);
    g
}

/// Mean empirical risk `L(w) = (1/m) Σ ℓ(x_j; w)`.
#[must_use]
pub fn empirical_risk<L: Loss>(data: &Dataset, loss: &L, w: &[f64]) -> f64 {
    (0..data.len())
        .map(|j| loss.value(data.x(j), data.y(j), w))
        .sum::<f64>()
        / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{LogisticLoss, SquaredLoss};
    use bcc_data::synthetic::{generate, SyntheticConfig};
    use bcc_linalg::approx_eq_slice;

    fn data() -> Dataset {
        generate(&SyntheticConfig::small(64, 8, 3)).dataset
    }

    #[test]
    fn sum_over_all_equals_m_times_mean() {
        let d = data();
        let w = vec![0.05; 8];
        let all: Vec<usize> = (0..d.len()).collect();
        let sum = sum_partial_gradients(&d, &LogisticLoss, &all, &w);
        let mut full = full_gradient(&d, &LogisticLoss, &w);
        vec_ops::scale(d.len() as f64, &mut full);
        assert!(approx_eq_slice(&sum, &full, 1e-9));
    }

    #[test]
    fn partition_sums_equal_total() {
        // Σ over disjoint batches == Σ over everything (the BCC invariant).
        let d = data();
        let w = vec![-0.1; 8];
        let batching = bcc_data::Batching::even(d.len(), 10);
        let mut acc = vec![0.0; 8];
        for b in 0..batching.num_batches() {
            let part = sum_partial_gradients(&d, &LogisticLoss, &batching.batch_indices(b), &w);
            vec_ops::add_assign(&mut acc, &part);
        }
        let all: Vec<usize> = (0..d.len()).collect();
        let total = sum_partial_gradients(&d, &LogisticLoss, &all, &w);
        assert!(approx_eq_slice(&acc, &total, 1e-9));
    }

    #[test]
    fn gradient_descends_risk() {
        let d = data();
        let w = vec![0.0; 8];
        let g = full_gradient(&d, &LogisticLoss, &w);
        let risk0 = empirical_risk(&d, &LogisticLoss, &w);
        let step: Vec<f64> = w.iter().zip(&g).map(|(wi, gi)| wi - 0.5 * gi).collect();
        let risk1 = empirical_risk(&d, &LogisticLoss, &step);
        assert!(
            risk1 < risk0,
            "one GD step must reduce risk: {risk0} → {risk1}"
        );
    }

    #[test]
    fn squared_loss_gradient_zero_at_optimum() {
        // y = 2·x exactly; w = 2 is the optimum of the squared loss.
        let x = bcc_linalg::Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]).unwrap();
        let d = Dataset::new(x, vec![2.0, 4.0, 6.0]);
        let g = full_gradient(&d, &SquaredLoss, &[2.0]);
        assert!(g[0].abs() < 1e-12);
    }

    #[test]
    fn empty_set_gives_zero_sum() {
        let d = data();
        let g = sum_partial_gradients(&d, &LogisticLoss, &[], &[0.0; 8]);
        assert!(g.iter().all(|v| *v == 0.0));
    }
}
