//! Plain stochastic gradient descent with a `1/√t` step-size schedule.
//!
//! The classical baseline NAG improves on (\[1\] in the paper's references:
//! Bottou, *Stochastic learning*). Sensitive to feature scaling — which is
//! exactly why the paper does not use it — and therefore the interesting
//! control in the optimizer ablation.

use crate::optimizer::{clip_ratio, coordinate_gradient, OnlineOptimizer};

/// SGD with step size `eta / sqrt(t)`.
#[derive(Debug, Clone)]
pub struct SgdOptimizer {
    eta: f64,
    t: u64,
}

impl SgdOptimizer {
    /// SGD with base learning rate `eta`.
    pub fn new(eta: f64) -> Self {
        assert!(eta > 0.0, "learning rate must be positive");
        Self { eta, t: 0 }
    }
}

impl OnlineOptimizer for SgdOptimizer {
    fn prepare(&mut self, _weights: &mut [f64], _phi: &[f64]) {}

    fn step_bounded(
        &mut self,
        weights: &mut [f64],
        phi: &[f64],
        dloss_df: f64,
        l2: f64,
        max_abs_df: f64,
    ) {
        debug_assert_eq!(weights.len(), phi.len());
        self.t += 1;
        let rate = self.eta / (self.t as f64).sqrt();
        // SGD's prediction change is linear in the step, so the clip is a
        // single proportional rescale.
        let mut df = 0.0;
        for (w, &x) in weights.iter().zip(phi) {
            let g = coordinate_gradient(dloss_df, x, l2, *w);
            df -= rate * g * x;
        }
        let r = clip_ratio(df, max_abs_df);
        for (w, &x) in weights.iter_mut().zip(phi) {
            let g = coordinate_gradient(dloss_df, x, l2, *w);
            *w -= r * rate * g;
        }
    }

    fn name(&self) -> &'static str {
        super::OptimizerKind::Sgd.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_moves_against_gradient() {
        let mut opt = SgdOptimizer::new(0.1);
        let mut w = vec![0.0, 0.0];
        // f too low (dloss negative) -> weights must increase where phi>0.
        opt.step(&mut w, &[1.0, 2.0], -1.0, 0.0);
        assert!(w[0] > 0.0 && w[1] > 0.0);
        assert!(w[1] > w[0], "larger feature gets the larger step");
    }

    #[test]
    fn step_size_decays() {
        let mut opt = SgdOptimizer::new(0.1);
        let mut w1 = vec![0.0];
        opt.step(&mut w1, &[1.0], -1.0, 0.0);
        let first = w1[0];
        let mut w2 = vec![0.0];
        opt.step(&mut w2, &[1.0], -1.0, 0.0);
        assert!(
            w2[0] < first,
            "second step must be smaller: {} vs {first}",
            w2[0]
        );
    }

    #[test]
    fn l2_pulls_weights_toward_zero() {
        let mut opt = SgdOptimizer::new(0.1);
        let mut w = vec![10.0];
        opt.step(&mut w, &[0.0], 0.0, 1.0); // pure regularization gradient
        assert!(w[0] < 10.0);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_bad_rate() {
        SgdOptimizer::new(0.0);
    }
}
