//! On-line convex optimizers for the regression problem of Equation (2).
//!
//! The paper minimizes the cumulative weighted loss with the **Normalized
//! Adaptive Gradient** algorithm (NAG) of Ross, Mineiro & Langford
//! (*Normalized Online Learning*, UAI 2013 — reference \[19\]), "a variant
//! of the classical Stochastic Gradient Descent" chosen for its robustness
//! to adversarial feature scaling: several Table 2 features (e.g. *Break
//! Time*) are unbounded and impossible to normalize a priori (§4.2).
//!
//! [`NagOptimizer`] is the paper's choice; [`SgdOptimizer`] and
//! [`AdaGradOptimizer`] are provided for the optimizer ablation
//! (`experiments::ablation`).
//!
//! ## Contract
//!
//! One learning step is split in two because NAG must rescale the weights
//! *before* the prediction that the gradient is computed from:
//!
//! 1. [`OnlineOptimizer::prepare`] — may rescale `weights` given the
//!    incoming expanded features;
//! 2. the caller computes `f = w·φ` and the loss derivative `∂L/∂f`;
//! 3. [`OnlineOptimizer::step`] — applies the gradient update, including
//!    the ℓ2 term `λ‖w‖²` of Equation (2) (its gradient `2λw` is added to
//!    the loss gradient inside the step).

mod adagrad;
mod nag;
mod sgd;

pub use adagrad::AdaGradOptimizer;
pub use nag::NagOptimizer;
pub use sgd::SgdOptimizer;

/// Which optimizer an [`crate::MlPredictor`] trains with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptimizerKind {
    /// Normalized Adaptive Gradient \[19\] — the paper's choice.
    #[default]
    Nag,
    /// Plain SGD (ablation).
    Sgd,
    /// AdaGrad (ablation).
    AdaGrad,
}

impl OptimizerKind {
    /// Each optimizer, in declaration order, with its name; an `ml(...)`
    /// spec writes an optimizer other than the default as a `+<name>`
    /// suffix.
    pub(crate) const NAMES: [(OptimizerKind, &'static str); 3] = [
        (OptimizerKind::Nag, "nag"),
        (OptimizerKind::Sgd, "sgd"),
        (OptimizerKind::AdaGrad, "adagrad"),
    ];

    /// The optimizer's name.
    pub(crate) fn name(self) -> &'static str {
        Self::NAMES[self as usize].1
    }

    /// A fresh optimizer over `dim` weights with learning rate `eta`.
    pub(crate) fn build(self, dim: usize, eta: f64) -> Box<dyn OnlineOptimizer> {
        match self {
            OptimizerKind::Nag => Box::new(NagOptimizer::new(dim, eta)),
            OptimizerKind::Sgd => Box::new(SgdOptimizer::new(eta)),
            OptimizerKind::AdaGrad => Box::new(AdaGradOptimizer::new(dim, eta)),
        }
    }
}

/// An on-line first-order optimizer over a fixed-dimension weight vector.
pub trait OnlineOptimizer: Send {
    /// Pre-prediction hook; may rescale `weights` based on the incoming
    /// expanded feature vector `phi` (NAG's scale tracking). Must be
    /// called exactly once per learning step, before the prediction.
    fn prepare(&mut self, weights: &mut [f64], phi: &[f64]);

    /// Applies one gradient step. `dloss_df` is the derivative of the
    /// (already γ-weighted) loss with respect to the prediction `w·φ`;
    /// `l2` is the regularization coefficient λ of Equation (2).
    fn step(&mut self, weights: &mut [f64], phi: &[f64], dloss_df: f64, l2: f64) {
        self.step_bounded(weights, phi, dloss_df, l2, f64::INFINITY);
    }

    /// Safeguarded step: like [`OnlineOptimizer::step`] but the induced
    /// prediction change `|Δ(w·φ)|` is bounded by `max_abs_df`. When the
    /// unclipped step would overshoot, the whole weight delta is scaled
    /// down (and the gradient recorded into any adaptive accumulators is
    /// scaled accordingly, so one outlier cannot poison future step
    /// sizes).
    ///
    /// This is the moral equivalent of Vowpal Wabbit's importance-aware
    /// "safe" updates (Karampatziakis & Langford, 2011): one example may
    /// never move the prediction past its own label. Without it, a single
    /// crashed job (tiny actual runtime, §4.1's noise) hit by a squared
    /// over-prediction branch produces a gradient 10³–10⁴× the linear
    /// branch's, collapsing the model — the on-line analogue of an
    /// outlier destroying a regression.
    fn step_bounded(
        &mut self,
        weights: &mut [f64],
        phi: &[f64],
        dloss_df: f64,
        l2: f64,
        max_abs_df: f64,
    );

    /// Display name (`"nag"`, `"sgd"`, `"adagrad"`).
    fn name(&self) -> &'static str;
}

/// Per-coordinate gradient of the regularized objective at coordinate `i`:
/// `∂/∂w_i [ L(w·φ) + λ‖w‖² ] = (∂L/∂f)·φ_i + 2λ·w_i`.
#[inline]
pub(crate) fn coordinate_gradient(dloss_df: f64, phi_i: f64, l2: f64, w_i: f64) -> f64 {
    dloss_df * phi_i + 2.0 * l2 * w_i
}

/// Scale factor bounding a tentative prediction change `df` to
/// `max_abs_df` (1.0 when no clipping is needed or the change is
/// degenerate).
#[inline]
pub(crate) fn clip_ratio(df: f64, max_abs_df: f64) -> f64 {
    let mag = df.abs();
    if mag <= max_abs_df || mag == 0.0 || !mag.is_finite() {
        if mag.is_finite() {
            1.0
        } else {
            0.0
        }
    } else {
        max_abs_df / mag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shared smoke test: every optimizer must fit a normalized-scale
    /// regression problem (`y = 0.3·x`, targets O(1) — the scale the
    /// model layer feeds optimizers after target normalization).
    fn converges(optimizer: &mut dyn OnlineOptimizer) -> f64 {
        let mut w = vec![0.0; 2]; // bias + slope
        let mut last_err = f64::INFINITY;
        for round in 0..5000 {
            let x = 1.0 + (round % 10) as f64;
            let phi = [1.0, x];
            let y = 0.3 * x;
            optimizer.prepare(&mut w, &phi);
            let f: f64 = w[0] + w[1] * x;
            let dloss = 2.0 * (f - y); // squared loss derivative
            optimizer.step(&mut w, &phi, dloss, 0.0);
            last_err = (f - y).abs();
        }
        last_err
    }

    #[test]
    fn all_optimizers_fit_a_line() {
        let dim = 2;
        let mut nag = NagOptimizer::new(dim, 0.5);
        let mut sgd = SgdOptimizer::new(0.01);
        let mut ada = AdaGradOptimizer::new(dim, 0.5);
        let e = converges(&mut nag);
        assert!(e < 0.2, "NAG did not converge: {e}");
        let e = converges(&mut sgd);
        assert!(e < 0.2, "SGD did not converge: {e}");
        let e = converges(&mut ada);
        assert!(e < 0.2, "AdaGrad did not converge: {e}");
    }

    #[test]
    fn names_follow_declaration_order() {
        for (i, (kind, name)) in OptimizerKind::NAMES.into_iter().enumerate() {
            assert_eq!(kind as usize, i);
            assert_eq!(kind.build(2, 0.5).name(), name);
        }
    }

    #[test]
    fn gradient_includes_l2_term() {
        assert_eq!(coordinate_gradient(2.0, 3.0, 0.0, 10.0), 6.0);
        assert_eq!(coordinate_gradient(2.0, 3.0, 0.5, 10.0), 6.0 + 10.0);
    }
}
