//! The ℓ2-regularized polynomial regression model — Equations (1)–(2).
//!
//! [`OnlineRegression`] ties together a [`Basis`] (Equation 1's Φ), an
//! [`AsymmetricLoss`] with a [`WeightingScheme`] (the loss family of
//! §4.2), and an [`OnlineOptimizer`] (NAG by default), and learns in the
//! strict on-line regime: `learn` is called once per completed job, in
//! completion order, and `predict` may be called at any point in between.
//!
//! ## Target normalization
//!
//! NAG normalizes *feature* scales but its AdaGrad-style per-coordinate
//! steps are scale-free in magnitude, so raw targets in seconds (10⁰–10⁶)
//! would need thousands of updates just to ramp the bias. We apply the
//! same trick NAG applies to features to the *target*: the weights live
//! in a normalized output space (`f̂ = f / scale`, where `scale` tracks
//! the largest `|p|` seen and past weights are rescaled when it grows),
//! while the **loss and its gradient are evaluated in real seconds** and
//! chain-ruled back (`∂L/∂ŵ = ∂L/∂f · scale · φ`). The optimized
//! objective is therefore exactly Equation (2) — in particular the
//! asymmetry between a linear and a squared branch keeps its real-seconds
//! meaning — while weight magnitudes stay O(1) for the optimizer.
//! Listed in README § "Where we read the paper differently".

use crate::basis::Basis;
use crate::loss::AsymmetricLoss;
use crate::optimizer::{NagOptimizer, OnlineOptimizer};
use crate::weighting::WeightingScheme;

/// Default ℓ2 regularization coefficient λ of Equation (2). Kept small:
/// the NAG normalization already bounds effective step sizes, and λ only
/// needs to damp weight drift on rarely-active quadratic components.
pub const DEFAULT_L2: f64 = 1e-6;

/// Default NAG learning rate. Calibrated by the convergence tests in this
/// crate (synthetic per-user workloads reach a clearly better MAE than the
/// requested-time baseline within a few hundred jobs).
pub const DEFAULT_ETA: f64 = 0.5;

/// Outcome of one learning step, for diagnostics and Table 8 metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnRecord {
    /// The model's prediction for this example *before* the update.
    pub prediction: f64,
    /// The γ-weighted loss incurred by that prediction.
    pub loss: f64,
    /// The weight γ_j applied.
    pub gamma: f64,
}

/// On-line weighted-asymmetric-loss polynomial regression.
pub struct OnlineRegression {
    basis: Basis,
    weights: Vec<f64>,
    optimizer: Box<dyn OnlineOptimizer>,
    loss: AsymmetricLoss,
    weighting: WeightingScheme,
    l2: f64,
    phi: Vec<f64>,
    examples: u64,
    cumulative_loss: f64,
    /// Largest `|p|` observed; 0 until the first learning step.
    y_scale: f64,
}

impl OnlineRegression {
    /// A model over `n_features` raw features with the paper's defaults:
    /// degree-2 basis, NAG, λ = [`DEFAULT_L2`].
    pub fn new(n_features: usize, loss: AsymmetricLoss, weighting: WeightingScheme) -> Self {
        let dim = Basis::Polynomial.output_dim(n_features);
        Self::with_parts(
            n_features,
            Basis::Polynomial,
            Box::new(NagOptimizer::new(dim, DEFAULT_ETA)),
            loss,
            weighting,
            DEFAULT_L2,
        )
    }

    /// Full control over every component (used by the ablations): a
    /// model over `n_features` raw features expanded by `basis`.
    pub fn with_parts(
        n_features: usize,
        basis: Basis,
        optimizer: Box<dyn OnlineOptimizer>,
        loss: AsymmetricLoss,
        weighting: WeightingScheme,
        l2: f64,
    ) -> Self {
        let dim = basis.output_dim(n_features);
        Self {
            basis,
            weights: vec![0.0; dim],
            optimizer,
            loss,
            weighting,
            l2,
            phi: vec![0.0; dim],
            examples: 0,
            cumulative_loss: 0.0,
            y_scale: 0.0,
        }
    }

    /// Predicts the running time for raw features `x` (seconds; may be
    /// negative or huge before clamping — callers clamp to `[1, p̃]`).
    /// Returns 0 before the first learning step.
    pub fn predict(&mut self, x: &[f64]) -> f64 {
        if self.y_scale == 0.0 {
            return 0.0;
        }
        self.basis.expand_into(x, &mut self.phi);
        dot(&self.weights, &self.phi) * self.y_scale
    }

    /// One on-line learning step on a completed job: features `x`, actual
    /// running time `p` (seconds), resource request `q` (processors, used
    /// by the weighting scheme).
    pub fn learn(&mut self, x: &[f64], p: f64, q: f64) -> LearnRecord {
        // Output normalization (see module docs): grow the target scale
        // and reinterpret past weights at the new scale.
        let magnitude = p.abs().max(1.0);
        if magnitude > self.y_scale {
            if self.y_scale > 0.0 {
                let ratio = self.y_scale / magnitude;
                for w in &mut self.weights {
                    *w *= ratio;
                }
            }
            self.y_scale = magnitude;
        }
        let scale = self.y_scale;

        self.basis.expand_into(x, &mut self.phi);
        self.optimizer.prepare(&mut self.weights, &self.phi);
        let f_hat = dot(&self.weights, &self.phi);
        let f_real = f_hat * scale;
        let gamma = self.weighting.gamma(p, q);
        // Loss and gradient in real seconds (Equation 2's objective);
        // chain rule maps the gradient into the normalized weight space.
        let loss = self.loss.value(f_real, p, gamma);
        let dloss = self.loss.dvalue_df(f_real, p, gamma) * scale;
        // Safeguarded update: this example may pull the prediction at
        // most to its own label (see `OnlineOptimizer::step_bounded`) —
        // without this, one crashed job under a squared loss branch
        // collapses the model.
        let max_df = (f_hat - p / scale).abs();
        self.optimizer
            .step_bounded(&mut self.weights, &self.phi, dloss, self.l2, max_df);
        self.examples += 1;
        self.cumulative_loss += loss;
        LearnRecord {
            prediction: f_real,
            loss,
            gamma,
        }
    }

    /// Number of learning steps taken.
    pub fn examples(&self) -> u64 {
        self.examples
    }

    /// Cumulative (γ-weighted) loss over all learning steps — the
    /// quantity Equation (2) minimizes.
    pub fn cumulative_loss(&self) -> f64 {
        self.cumulative_loss
    }

    /// The current weight vector (expanded-space coordinates).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The configured loss shape.
    pub fn loss(&self) -> AsymmetricLoss {
        self.loss
    }

    /// The configured weighting scheme.
    pub fn weighting(&self) -> WeightingScheme {
        self.weighting
    }
}

impl std::fmt::Debug for OnlineRegression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineRegression")
            .field("dim", &self.weights.len())
            .field("basis", &self.basis.name())
            .field("loss", &self.loss)
            .field("weighting", &self.weighting)
            .field("optimizer", &self.optimizer.name())
            .field("examples", &self.examples)
            .finish()
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::BasisLoss;

    /// Squared-loss fit of a noiseless linear function of 2 features.
    #[test]
    fn fits_linear_function() {
        let mut m = OnlineRegression::new(2, AsymmetricLoss::SQUARED, WeightingScheme::Constant);
        let truth = |a: f64, b: f64| 100.0 + 50.0 * a + 200.0 * b;
        let mut rel = f64::NAN;
        for i in 0..8000 {
            let a = (i % 13) as f64;
            let b = ((i * 7) % 11) as f64;
            let y = truth(a, b);
            let f = m.predict(&[a, b]);
            if y > 0.0 {
                rel = (f - y).abs() / y;
            }
            m.learn(&[a, b], y, 1.0);
        }
        assert!(rel < 0.05, "relative error {rel}");
        assert_eq!(m.examples(), 8000);
        assert!(m.cumulative_loss() > 0.0);
    }

    /// The degree-2 basis lets the model capture a product dependency.
    #[test]
    fn fits_interaction_term() {
        let mut m = OnlineRegression::new(2, AsymmetricLoss::SQUARED, WeightingScheme::Constant);
        let mut rel = f64::NAN;
        for i in 0..20_000 {
            let a = 1.0 + (i % 7) as f64;
            let b = 1.0 + ((i * 3) % 5) as f64;
            let y = 10.0 * a * b;
            let f = m.predict(&[a, b]);
            rel = (f - y).abs() / y;
            m.learn(&[a, b], y, 1.0);
        }
        assert!(rel < 0.1, "relative error {rel}");
    }

    /// With the E-Loss, systematic residual bias must lean toward
    /// under-prediction: the squared over-branch punishes f > p harder.
    #[test]
    fn eloss_biases_toward_underprediction() {
        let mut m = OnlineRegression::new(1, AsymmetricLoss::E_LOSS, WeightingScheme::Constant);
        // Noisy target: y alternates between 100 and 1900 (mean 1000) for
        // the same input — no model can fit both; the asymmetry decides
        // where the compromise lands.
        let mut preds = Vec::new();
        for i in 0..4000 {
            let y = if i % 2 == 0 { 100.0 } else { 1900.0 };
            let f = m.predict(&[1.0]);
            if i > 3500 {
                preds.push(f);
            }
            m.learn(&[1.0], y, 1.0);
        }
        let mean_pred = preds.iter().sum::<f64>() / preds.len() as f64;
        assert!(
            mean_pred < 1000.0,
            "E-loss prediction {mean_pred} should sit below the symmetric mean 1000"
        );

        // Control: symmetric squared loss converges near the mean.
        let mut sym = OnlineRegression::new(1, AsymmetricLoss::SQUARED, WeightingScheme::Constant);
        let mut spreds = Vec::new();
        for i in 0..4000 {
            let y = if i % 2 == 0 { 100.0 } else { 1900.0 };
            let f = sym.predict(&[1.0]);
            if i > 3500 {
                spreds.push(f);
            }
            sym.learn(&[1.0], y, 1.0);
        }
        let sym_mean = spreds.iter().sum::<f64>() / spreds.len() as f64;
        assert!(
            mean_pred < sym_mean,
            "E-loss ({mean_pred}) must predict lower than squared loss ({sym_mean})"
        );
    }

    /// Asymmetry in the other direction (squared under-branch) biases the
    /// model upward.
    #[test]
    fn reverse_asymmetry_biases_upward() {
        let loss = AsymmetricLoss {
            under: BasisLoss::Squared,
            over: BasisLoss::Linear,
        };
        let mut m = OnlineRegression::new(1, loss, WeightingScheme::Constant);
        let mut preds = Vec::new();
        for i in 0..4000 {
            let y = if i % 2 == 0 { 100.0 } else { 1900.0 };
            let f = m.predict(&[1.0]);
            if i > 3500 {
                preds.push(f);
            }
            m.learn(&[1.0], y, 1.0);
        }
        let mean_pred = preds.iter().sum::<f64>() / preds.len() as f64;
        assert!(mean_pred > 1000.0, "got {mean_pred}");
    }

    #[test]
    fn weighting_is_applied() {
        let mut m = OnlineRegression::new(1, AsymmetricLoss::SQUARED, WeightingScheme::LargeArea);
        let rec = m.learn(&[1.0], 1000.0, 64.0);
        let expected_gamma = WeightingScheme::LargeArea.gamma(1000.0, 64.0);
        assert!((rec.gamma - expected_gamma).abs() < 1e-12);
        assert!(rec.loss > 0.0);
    }

    #[test]
    fn debug_format_mentions_components() {
        let m = OnlineRegression::new(3, AsymmetricLoss::E_LOSS, WeightingScheme::LargeArea);
        let s = format!("{m:?}");
        assert!(s.contains("nag"));
        assert!(s.contains("LargeArea"));
    }
}
