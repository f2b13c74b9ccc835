//! The Normalized Adaptive Gradient algorithm (NAG) — reference \[19\] of
//! the paper (Ross, Mineiro & Langford, *Normalized Online Learning*,
//! UAI 2013).
//!
//! NAG maintains a per-coordinate scale estimate `s_i = max_t |φ_{t,i}|`.
//! When a coordinate's scale grows, the corresponding weight is shrunk by
//! the squared scale ratio so that past learning is reinterpreted at the
//! new scale instead of producing a huge spurious prediction. Updates are
//! normalized per coordinate by `s_i` and globally by `√(t/N)` where `N`
//! accumulates `Σ_i (φ_{t,i}/s_i)²`, and adapted per coordinate by the
//! AdaGrad factor `√G_i` (accumulated squared gradients):
//!
//! ```text
//! for i with |φ_i| > s_i:   w_i ← w_i · s_i²/φ_i²;   s_i ← |φ_i|
//! N ← N + Σ_i (φ_i/s_i)²
//! g_i = (∂L/∂f)·φ_i + 2λw_i
//! G_i ← G_i + g_i²
//! w_i ← w_i − η √(t/N) · g_i / (s_i √G_i)
//! ```
//!
//! The resulting learner is invariant (up to floating point) to any fixed
//! per-feature rescaling of the inputs — the property §4.2 demands because
//! features like *Break Time* are unbounded ("robustness to feature
//! scaling is a requirement of our problem"). The invariance is verified
//! by a property test in this crate's test suite.

use crate::optimizer::{clip_ratio, coordinate_gradient, OnlineOptimizer};

/// NAG optimizer state.
#[derive(Debug, Clone)]
pub struct NagOptimizer {
    eta: f64,
    /// Per-coordinate scales `s_i` (max absolute feature value seen).
    scale: Vec<f64>,
    /// Per-coordinate accumulated squared gradients `G_i`.
    g2: Vec<f64>,
    /// Global normalizer `N`.
    n_acc: f64,
    /// Example counter `t`.
    t: u64,
    /// Per-step scratch: the coordinate gradients `g_i`, computed once
    /// and shared by the probe and apply passes of
    /// [`NagOptimizer::step_bounded`].
    grad: Vec<f64>,
    /// Per-step scratch: `s_i·√(G_i + g_i²)`, likewise computed once.
    denom: Vec<f64>,
    /// Per-step scratch for branch-free reductions (each entry is the
    /// addend the reduction would have accumulated, or exactly 0.0 for
    /// coordinates the branchy formulation skips).
    terms: Vec<f64>,
    /// Per-step scratch: whether each coordinate takes part in the step
    /// (`s_i ≠ 0` and accumulated gradient positive).
    active: Vec<bool>,
}

impl NagOptimizer {
    /// NAG over `dim` weights with learning rate `eta`.
    pub fn new(dim: usize, eta: f64) -> Self {
        assert!(eta > 0.0, "learning rate must be positive");
        Self {
            eta,
            scale: vec![0.0; dim],
            g2: vec![0.0; dim],
            n_acc: 0.0,
            t: 0,
            grad: vec![0.0; dim],
            denom: vec![0.0; dim],
            terms: vec![0.0; dim],
            active: vec![false; dim],
        }
    }

    /// The per-coordinate scales learned so far (for inspection).
    pub fn scales(&self) -> &[f64] {
        &self.scale
    }
}

impl OnlineOptimizer for NagOptimizer {
    fn prepare(&mut self, weights: &mut [f64], phi: &[f64]) {
        debug_assert_eq!(weights.len(), phi.len());
        debug_assert_eq!(weights.len(), self.scale.len());
        // Fast path: after warm-up, almost no example grows any
        // coordinate's scale — a branch-free any-check (vectorizable)
        // skips the per-coordinate branching entirely. When nothing
        // grows, the branchy loop below would not write anything, so
        // returning early is exact. Measured, kept: without it
        // `campaign_cold` rose from 26.4 to 28.0 `cpu_ms_per_cell` and
        // its traced `core.observe_s` from 9.6 to 10.5 s (worse in 3 of 3
        // alternating pairs on a 2-vCPU host).
        let mut grows = false;
        for (&p, &s) in phi.iter().zip(&self.scale) {
            grows |= p.abs() > s;
        }
        if !grows {
            return;
        }
        for i in 0..phi.len() {
            let a = phi[i].abs();
            if a > self.scale[i] {
                if self.scale[i] > 0.0 {
                    let ratio = self.scale[i] / a;
                    weights[i] *= ratio * ratio;
                }
                self.scale[i] = a;
            }
        }
    }

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
        let dim = weights.len();
        self.grad.resize(dim, 0.0);
        self.denom.resize(dim, 0.0);
        self.terms.resize(dim, 0.0);
        self.active.resize(dim, false);

        // The step is organized as simple unconditional elementwise
        // passes whose results are masked by exact selects afterwards,
        // instead of one branchy loop — divisions and square roots are
        // IEEE-exact per element, so the *selected* values are
        // bit-identical to the branchy formulation while the passes stay
        // auto-vectorizable (a skipped coordinate may compute an inf/NaN
        // intermediate, but it is never selected). Reductions still run
        // in coordinate order; skipped coordinates feed them an exact
        // `0.0`, and `x ± 0.0 == x` for every value they can hold.
        //
        // Measured, kept: the same step as branchy straight loops
        // without the scratch buffers, recomputing each gradient and
        // square root in the apply loop (bit-identical output), raised `campaign_cold` from 26.6 to 35.8
        // `cpu_ms_per_cell` (−27 % `cells_per_s`) and its traced
        // `core.observe_s` from 9.6 to 17.0 s, worse in 3 of 3
        // alternating pairs on a 2-vCPU host.

        let phi = &phi[..dim];
        let scale = &self.scale[..dim];
        let grad = &mut self.grad[..dim];
        let denom = &mut self.denom[..dim];
        let terms = &mut self.terms[..dim];
        let active = &mut self.active[..dim];
        let g2_acc = &mut self.g2[..dim];

        // Global normalizer: squared feature magnitudes in scale units.
        for i in 0..dim {
            let r = phi[i] / scale[i];
            terms[i] = if scale[i] > 0.0 { r * r } else { 0.0 };
        }
        let mut contrib = 0.0;
        for &t in terms.iter() {
            contrib += t;
        }
        self.n_acc += contrib;
        if self.n_acc <= 0.0 {
            return; // all-zero example: nothing to learn from
        }
        let global = self.eta * (self.t as f64 / self.n_acc).sqrt();

        // Probe pass: per-coordinate gradients, AdaGrad denominators and
        // the tentative prediction change, each computed once and kept in
        // scratch for the apply pass (which previously recomputed
        // gradient, square and square root — the cached values are the
        // same bits, just not paid for twice).
        for i in 0..dim {
            let g = coordinate_gradient(dloss_df, phi[i], l2, weights[i]);
            let g2 = g2_acc[i] + g * g;
            grad[i] = g;
            denom[i] = scale[i] * g2.sqrt();
            active[i] = scale[i] != 0.0 && g2 > 0.0;
        }
        for i in 0..dim {
            let term = global * grad[i] * phi[i] / denom[i];
            terms[i] = if active[i] { term } else { 0.0 };
        }
        let mut df = 0.0;
        for &t in terms.iter() {
            df -= t;
        }
        let r = clip_ratio(df, max_abs_df);

        // Apply pass, reusing the probe pass's gradients and denominators
        // (`r·global` is coordinate-invariant and hoisted — the original
        // expression associates as `(r·global)·g`, so the hoist is
        // exact). Skipped coordinates subtract an exact 0.0 from their
        // weight and add an exact 0.0 to their gradient accumulator.
        let r_global = r * global;
        for i in 0..dim {
            let delta = r_global * grad[i] / denom[i];
            weights[i] -= if active[i] { delta } else { 0.0 };
            let rg = r * grad[i];
            let rg2 = rg * rg;
            g2_acc[i] += if scale[i] != 0.0 { rg2 } else { 0.0 };
        }
    }

    fn name(&self) -> &'static str {
        "nag"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_rescales_weights_on_scale_growth() {
        let mut opt = NagOptimizer::new(1, 0.5);
        let mut w = vec![4.0];
        opt.prepare(&mut w, &[1.0]); // establish scale 1
        assert_eq!(w[0], 4.0);
        opt.prepare(&mut w, &[10.0]); // scale grows 10x
                                      // w shrinks by (1/10)² so w·φ stays comparable: 4*100 -> 0.04*... .
        assert!((w[0] - 0.04).abs() < 1e-12, "got {}", w[0]);
        assert_eq!(opt.scales(), &[10.0]);
    }

    #[test]
    fn prediction_preserved_under_rescale() {
        // The rescaling keeps w·φ_new == (w_old·φ_old) · (φ_new/φ_old)⁻¹…
        // precisely: w_new·φ_new = w_old·s²/φ_new² · φ_new = w_old·s²/φ_new.
        // The invariance that matters is end-to-end and is property-tested
        // in tests/nag_invariance.rs; here we sanity check the formula.
        let mut opt = NagOptimizer::new(1, 0.5);
        let mut w = vec![2.0];
        opt.prepare(&mut w, &[3.0]);
        let before = w[0] * 3.0;
        opt.prepare(&mut w, &[6.0]);
        let after = w[0] * 6.0;
        assert!((after - before / 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_features_are_inert() {
        let mut opt = NagOptimizer::new(2, 0.5);
        let mut w = vec![0.0, 0.0];
        opt.prepare(&mut w, &[1.0, 0.0]);
        opt.step(&mut w, &[1.0, 0.0], -1.0, 0.0);
        assert_eq!(w[1], 0.0, "never-seen feature must keep zero weight");
        assert!(w[0] > 0.0);
    }

    #[test]
    fn all_zero_example_is_skipped() {
        let mut opt = NagOptimizer::new(2, 0.5);
        let mut w = vec![0.0, 0.0];
        opt.prepare(&mut w, &[0.0, 0.0]);
        opt.step(&mut w, &[0.0, 0.0], -1.0, 0.0);
        assert_eq!(w, vec![0.0, 0.0]);
    }

    #[test]
    fn fits_wildly_scaled_features() {
        // The NAG selling point (§4.2): features on absurd scales — here
        // x ∈ [10⁴, 10⁵] — need no manual normalization. Targets are O(1),
        // the regime the model layer guarantees via target normalization.
        let mut opt = NagOptimizer::new(2, 0.5);
        let mut w = vec![0.0, 0.0];
        let mut last = f64::NAN;
        for round in 0..5000 {
            let x = 10_000.0 * (1.0 + (round % 10) as f64);
            let phi = [1.0, x];
            let y = x / 100_000.0; // in [0.1, 1.0]
            opt.prepare(&mut w, &phi);
            let f = w[0] + w[1] * x;
            opt.step(&mut w, &phi, 2.0 * (f - y), 0.0);
            last = (f - y).abs();
        }
        assert!(last < 0.05, "error {last} too high");
    }
}
