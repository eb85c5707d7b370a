//! Nesterov's accelerated gradient method — the optimizer the paper trains
//! with (§III-C: "We train a logistic regression model using Nesterov's
//! accelerated gradient method").
//!
//! Standard convex formulation with the `(t−1)/(t+2)` momentum schedule:
//!
//! ```text
//! w_{t+1} = v_t − μ_t ∇L(v_t)
//! v_{t+1} = w_{t+1} + β_t (w_{t+1} − w_t),   β_t = t/(t+3)
//! ```
//!
//! Gradients are evaluated at the look-ahead point `v_t`, which is what
//! [`crate::Optimizer::eval_point`] returns.

use crate::schedule::LearningRate;
use crate::Optimizer;

/// Nesterov accelerated gradient descent.
#[derive(Debug, Clone)]
pub struct Nesterov {
    w: Vec<f64>,
    v: Vec<f64>,
    lr: LearningRate,
    t: usize,
}

impl Nesterov {
    /// Starts from `w0` with the given learning-rate schedule and the classic
    /// convex momentum schedule `β_t = t/(t+3)`.
    #[must_use]
    pub fn new(w0: Vec<f64>, lr: LearningRate) -> Self {
        Self {
            v: w0.clone(),
            w: w0,
            lr,
            t: 0,
        }
    }
}

impl Optimizer for Nesterov {
    fn eval_point(&self) -> &[f64] {
        &self.v
    }

    fn step(&mut self, gradient: &[f64]) {
        assert_eq!(gradient.len(), self.w.len(), "gradient dimension mismatch");
        let mu = self.lr.at(self.t);
        let beta = self.t as f64 / (self.t as f64 + 3.0);
        // w_next = v − μ g ; v_next = w_next + β (w_next − w).
        for k in 0..self.w.len() {
            let w_next = self.v[k] - mu * gradient[k];
            let v_next = w_next + beta * (w_next - self.w[k]);
            self.w[k] = w_next;
            self.v[k] = v_next;
        }
        self.t += 1;
    }

    fn iterate(&self) -> &[f64] {
        &self.w
    }

    fn iteration(&self) -> usize {
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ∇f for f(w) = ½ wᵀ diag(κ) w — ill-conditioned quadratic.
    fn quad_grad(w: &[f64], kappa: &[f64]) -> Vec<f64> {
        w.iter().zip(kappa).map(|(wi, k)| wi * k).collect()
    }

    #[test]
    fn converges_on_quadratic() {
        let kappa = [1.0, 10.0, 100.0];
        let mut opt = Nesterov::new(vec![1.0; 3], LearningRate::Constant(0.009));
        for _ in 0..2000 {
            let g = quad_grad(opt.eval_point(), &kappa);
            opt.step(&g);
        }
        // The convex schedule converges at O(1/t²), not geometrically.
        for w in opt.iterate() {
            assert!(w.abs() < 1e-4, "iterate {w} not at optimum");
        }
    }

    #[test]
    fn accelerates_over_plain_gd_on_ill_conditioned_quadratic() {
        use crate::gd::GradientDescent;
        let kappa = [1.0, 50.0];
        let mu = 1.0 / 50.0; // 1/L for both methods
        let iters = 120;

        let mut gd = GradientDescent::new(vec![1.0; 2], LearningRate::Constant(mu));
        for _ in 0..iters {
            let g = quad_grad(gd.eval_point(), &kappa);
            gd.step(&g);
        }
        let mut nag = Nesterov::new(vec![1.0; 2], LearningRate::Constant(mu));
        for _ in 0..iters {
            let g = quad_grad(nag.eval_point(), &kappa);
            nag.step(&g);
        }
        let f = |w: &[f64]| 0.5 * (w[0] * w[0] * kappa[0] + w[1] * w[1] * kappa[1]);
        assert!(
            f(nag.iterate()) < f(gd.iterate()),
            "Nesterov ({}) should beat GD ({}) on ill-conditioned quadratic",
            f(nag.iterate()),
            f(gd.iterate())
        );
    }

    #[test]
    fn first_step_has_zero_momentum() {
        // β_0 = 0 under the convex schedule → first step equals plain GD.
        let mut nag = Nesterov::new(vec![1.0], LearningRate::Constant(0.1));
        nag.step(&[2.0]);
        assert!((nag.iterate()[0] - (1.0 - 0.2)).abs() < 1e-15);
    }

    #[test]
    fn eval_point_diverges_from_iterate_after_steps() {
        let mut nag = Nesterov::new(vec![1.0], LearningRate::Constant(0.1));
        nag.step(&[1.0]);
        nag.step(&[1.0]);
        // After two steps with momentum, v ≠ w.
        assert_ne!(nag.eval_point()[0], nag.iterate()[0]);
    }
}
