//! AdaGrad: per-coordinate adaptive step sizes.
//!
//! Divides each coordinate's step by the root of its accumulated squared
//! gradients, adapting to per-feature gradient magnitude — but, unlike
//! NAG, not to *feature scale*: a feature that suddenly grows 1000× still
//! distorts the first updates after the growth. Middle rung of the
//! optimizer ablation between SGD and NAG.

use crate::optimizer::{clip_ratio, coordinate_gradient, OnlineOptimizer};

const EPS: f64 = 1e-12;

/// AdaGrad with base learning rate `eta`.
#[derive(Debug, Clone)]
pub struct AdaGradOptimizer {
    eta: f64,
    /// Per-coordinate sums of squared gradients.
    g2: Vec<f64>,
}

impl AdaGradOptimizer {
    /// AdaGrad over `dim` weights with base learning rate `eta`.
    pub fn new(dim: usize, eta: f64) -> Self {
        assert!(eta > 0.0, "learning rate must be positive");
        Self {
            eta,
            g2: vec![0.0; dim],
        }
    }
}

impl OnlineOptimizer for AdaGradOptimizer {
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
        debug_assert_eq!(weights.len(), self.g2.len());
        // Tentative deltas with the full gradient (AdaGrad counts the
        // incoming gradient in its own denominator).
        let mut df = 0.0;
        for i in 0..weights.len() {
            let g = coordinate_gradient(dloss_df, phi[i], l2, weights[i]);
            let g2 = self.g2[i] + g * g;
            if g2 > 0.0 {
                df -= self.eta * g * phi[i] / (g2.sqrt() + EPS);
            }
        }
        let r = clip_ratio(df, max_abs_df);
        // Apply the (possibly scaled) deltas; accumulate the scaled
        // gradient so a clipped outlier cannot poison future steps.
        for i in 0..weights.len() {
            let g = coordinate_gradient(dloss_df, phi[i], l2, weights[i]);
            let delta = {
                let g2 = self.g2[i] + g * g;
                if g2 > 0.0 {
                    self.eta * g / (g2.sqrt() + EPS)
                } else {
                    0.0
                }
            };
            weights[i] -= r * delta;
            let rg = r * g;
            self.g2[i] += rg * rg;
        }
    }

    fn name(&self) -> &'static str {
        super::OptimizerKind::AdaGrad.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_is_unit_scale() {
        // With G = g², the first step is eta * sign(g).
        let mut opt = AdaGradOptimizer::new(1, 0.5);
        let mut w = vec![0.0];
        opt.step(&mut w, &[2.0], -3.0, 0.0); // g = -6
        assert!((w[0] - 0.5).abs() < 1e-9, "got {}", w[0]);
    }

    #[test]
    fn steps_shrink_with_accumulated_gradient() {
        let mut opt = AdaGradOptimizer::new(1, 0.5);
        let mut w = vec![0.0];
        opt.step(&mut w, &[1.0], -1.0, 0.0);
        let first = w[0];
        opt.step(&mut w, &[1.0], -1.0, 0.0);
        let second = w[0] - first;
        assert!(second < first, "second {second} >= first {first}");
    }

    #[test]
    fn untouched_coordinates_stay_put() {
        let mut opt = AdaGradOptimizer::new(2, 0.5);
        let mut w = vec![1.0, 1.0];
        opt.step(&mut w, &[1.0, 0.0], -1.0, 0.0);
        assert_eq!(w[1], 1.0, "zero feature with zero l2 must not move");
    }
}
