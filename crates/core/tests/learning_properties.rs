//! Property-based tests of the learning stack.
//!
//! The headline property is the one §4.2 buys by choosing NAG:
//! *robustness to adversarial feature scaling*. Rescaling any feature by a
//! positive constant must leave the model's prediction sequence
//! (essentially) unchanged.

use proptest::prelude::*;

use predictsim_core::{
    loss_shapes, AsymmetricLoss, Basis, NagOptimizer, OnlineOptimizer, OnlineRegression,
    SgdOptimizer, WeightingScheme,
};

/// Runs the same example stream through a fresh model, with feature `k`
/// multiplied by `scale`, and returns the prediction before each update.
fn prediction_trace(
    examples: &[([f64; 3], f64)],
    scale: f64,
    scaled_feature: usize,
    eta: f64,
) -> Vec<f64> {
    let basis = Basis::Polynomial;
    let optimizer: Box<dyn OnlineOptimizer> = Box::new(NagOptimizer::new(basis.output_dim(3), eta));
    let mut model = OnlineRegression::with_parts(
        3,
        basis,
        optimizer,
        AsymmetricLoss::SQUARED,
        WeightingScheme::Constant,
        0.0, // l2 off: the regularizer is the one non-invariant term
    );
    let mut trace = Vec::with_capacity(examples.len());
    for (x, y) in examples {
        let mut x = *x;
        x[scaled_feature] *= scale;
        trace.push(model.predict(&x));
        model.learn(&x, *y, 1.0);
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// NAG's selling point: per-feature rescaling leaves predictions
    /// (nearly) unchanged. "Nearly" because the polynomial basis mixes
    /// coordinates and floating point is floating point — we allow a
    /// small relative tolerance.
    #[test]
    fn nag_predictions_invariant_to_feature_scaling(
        examples in prop::collection::vec(
            ((0.1f64..10.0, 0.1f64..10.0, 0.1f64..10.0), 1.0f64..1000.0)
                .prop_map(|((a, b, c), y)| ([a, b, c], y)),
            20..60
        ),
        scale in prop_oneof![Just(0.001f64), Just(0.1f64), Just(100.0f64), Just(10_000.0f64)],
        which in 0usize..3,
    ) {
        let base = prediction_trace(&examples, 1.0, which, 0.5);
        let scaled = prediction_trace(&examples, scale, which, 0.5);
        for (i, (b, s)) in base.iter().zip(&scaled).enumerate() {
            let denom = b.abs().max(1.0);
            prop_assert!(
                ((b - s) / denom).abs() < 1e-6,
                "step {i}: base {b} vs scaled {s} (scale {scale} on x{which})"
            );
        }
    }

    /// Control experiment: plain SGD is *not* scale invariant — rescaling
    /// a feature by 100× visibly changes its prediction sequence. (This is
    /// exactly why the paper uses NAG.)
    #[test]
    fn sgd_is_not_scale_invariant(
        seed in 0u64..1000,
    ) {
        let examples: Vec<([f64; 3], f64)> = (0..40)
            .map(|i| {
                let v = ((i * 7 + seed as usize) % 10) as f64 + 1.0;
                ([v, 11.0 - v, (i % 3) as f64 + 1.0], 10.0 * v)
            })
            .collect();
        let run = |scale: f64| {
            let basis = Basis::Polynomial;
            let optimizer: Box<dyn OnlineOptimizer> = Box::new(SgdOptimizer::new(1e-4));
            let mut model = OnlineRegression::with_parts(
                3, basis, optimizer, AsymmetricLoss::SQUARED, WeightingScheme::Constant, 0.0,
            );
            let mut trace = Vec::new();
            for (x, y) in &examples {
                let mut x = *x;
                x[0] *= scale;
                trace.push(model.predict(&x));
                model.learn(&x, *y, 1.0);
            }
            trace
        };
        let base = run(1.0);
        let scaled = run(100.0);
        // A diverged (non-finite) trace counts as "changed" too: SGD on
        // badly scaled features often simply blows up.
        let diverged = base.iter().zip(&scaled).any(|(b, s)| {
            !s.is_finite() || !b.is_finite() || ((b - s) / b.abs().max(1.0)).abs() > 1e-3
        });
        prop_assert!(diverged, "SGD unexpectedly scale-invariant");
    }

    /// Learning on any loss shape never produces NaN/∞ weights or
    /// predictions, even with adversarial target magnitudes.
    #[test]
    fn learning_stays_finite(
        ys in prop::collection::vec(prop_oneof![1.0f64..10.0, 1e5f64..1e6], 10..80),
        shape_idx in 0usize..4,
        weight_idx in 0usize..5,
    ) {
        let loss = loss_shapes()[shape_idx];
        let weighting = WeightingScheme::ALL[weight_idx];
        let mut model = OnlineRegression::new(3, loss, weighting);
        for (i, &y) in ys.iter().enumerate() {
            let x = [(i % 5) as f64 + 1.0, (i % 7) as f64, y / 1000.0];
            let f = model.predict(&x);
            prop_assert!(f.is_finite(), "prediction diverged at step {i}: {f}");
            let rec = model.learn(&x, y, 4.0);
            prop_assert!(rec.loss.is_finite());
        }
        prop_assert!(model.weights().iter().all(|w| w.is_finite()));
    }

    /// On a user with perfectly repetitive runtimes, the two *symmetric*
    /// loss shapes converge tightly to the repeated value, and the two
    /// asymmetric shapes land on the conservative side their squared
    /// branch dictates (the E-Loss's strong small-prediction bias is a
    /// *feature* the paper documents with Figure 5, not a bug): below the
    /// target but positive for E-Loss, above the target but bounded for
    /// the reverse shape.
    #[test]
    fn repetitive_target_learning_respects_loss_shape(
        target in 100.0f64..10_000.0,
        shape_idx in 0usize..4,
    ) {
        let loss = loss_shapes()[shape_idx];
        let symmetric = loss.under == loss.over;
        let mut model = OnlineRegression::new(2, loss, WeightingScheme::Constant);
        let x = [1.0, 2.0];
        let mut f = 0.0;
        for _ in 0..1500 {
            f = model.predict(&x);
            model.learn(&x, target, 1.0);
        }
        if symmetric {
            let rel = (f - target).abs() / target;
            prop_assert!(rel < 0.25, "shape {shape_idx}: predicted {f} for target {target}");
        } else {
            prop_assert!(f > 0.0, "shape {shape_idx}: prediction {f} collapsed");
            prop_assert!(
                f < 3.0 * target,
                "shape {shape_idx}: prediction {f} diverged above 3x target {target}"
            );
        }
    }
}

/// The paper's plain NAG step: forwards `step_bounded` without the
/// bound, so one example may pull the prediction past its own label.
struct PlainStep(NagOptimizer);

impl OnlineOptimizer for PlainStep {
    fn prepare(&mut self, weights: &mut [f64], phi: &[f64]) {
        self.0.prepare(weights, phi);
    }

    fn step_bounded(&mut self, weights: &mut [f64], phi: &[f64], dloss_df: f64, l2: f64, _: f64) {
        self.0
            .step_bounded(weights, phi, dloss_df, l2, f64::INFINITY);
    }

    fn name(&self) -> &'static str {
        "nag-plain"
    }
}

/// Predictions, as a fraction of the target, on a repetitive stream —
/// three job classes, each always running its request's half — that
/// holds one crashed job (1 s) halfway, under the E-Loss shape (linear
/// under-, squared over-prediction branch).
fn crash_trace(optimizer: Box<dyn OnlineOptimizer>) -> Vec<f64> {
    let mut model = OnlineRegression::with_parts(
        3,
        Basis::Polynomial,
        optimizer,
        AsymmetricLoss::E_LOSS,
        WeightingScheme::Constant,
        predictsim_core::DEFAULT_L2,
    );
    (0..600)
        .map(|i| {
            let class = (i % 3) as f64 + 1.0;
            let target = 3600.0 * class;
            let x = [2.0 * target, 3.0 + class, target];
            let fraction = model.predict(&x) / target;
            model.learn(&x, if i == 300 { 1.0 } else { target }, 16.0);
            fraction
        })
        .collect()
}

/// README § "Where we read the paper differently", bounded step: under
/// the plain step the crash's squared-branch gradient poisons NAG's
/// accumulators and every later prediction is non-positive (the engine
/// would clamp each to 1 s); the bounded step stays positive and climbs
/// back.
#[test]
fn plain_nag_step_collapses_on_one_crash_and_the_bounded_step_does_not() {
    let dim = Basis::Polynomial.output_dim(3);
    let eta = predictsim_core::DEFAULT_ETA;
    let plain = crash_trace(Box::new(PlainStep(NagOptimizer::new(dim, eta))));
    let bounded = crash_trace(Box::new(NagOptimizer::new(dim, eta)));
    assert!(
        plain[301..].iter().all(|&f| f <= 0.0),
        "the plain step collapses"
    );
    assert!(
        bounded[301..].iter().all(|&f| f > 0.0),
        "the bounded step never does"
    );
    assert!(bounded[599] > 0.5, "and recovers: {}", bounded[599]);
}

/// A learner fed one constant target, for counting its ramp.
trait Ramp {
    fn predict(&mut self, x: &[f64]) -> f64;
    fn learn(&mut self, x: &[f64], p: f64);
}

impl Ramp for OnlineRegression {
    fn predict(&mut self, x: &[f64]) -> f64 {
        OnlineRegression::predict(self, x)
    }

    fn learn(&mut self, x: &[f64], p: f64) {
        OnlineRegression::learn(self, x, p, 1.0);
    }
}

/// The learner `OnlineRegression` would be without target
/// normalisation: the same basis, NAG with its bounded step, loss and
/// λ, but the weights fit the target in raw seconds.
struct RawTargetLearner {
    basis: Basis,
    weights: Vec<f64>,
    phi: Vec<f64>,
    optimizer: NagOptimizer,
    loss: AsymmetricLoss,
}

impl RawTargetLearner {
    fn new(loss: AsymmetricLoss) -> Self {
        let basis = Basis::Polynomial;
        let dim = basis.output_dim(3);
        let optimizer = NagOptimizer::new(dim, predictsim_core::DEFAULT_ETA);
        Self {
            basis,
            weights: vec![0.0; dim],
            phi: vec![0.0; dim],
            optimizer,
            loss,
        }
    }

    fn output(&self) -> f64 {
        self.weights.iter().zip(&self.phi).map(|(w, p)| w * p).sum()
    }
}

impl Ramp for RawTargetLearner {
    fn predict(&mut self, x: &[f64]) -> f64 {
        self.basis.expand_into(x, &mut self.phi);
        self.output()
    }

    fn learn(&mut self, x: &[f64], p: f64) {
        self.basis.expand_into(x, &mut self.phi);
        self.optimizer.prepare(&mut self.weights, &self.phi);
        let f = self.output();
        let dloss = self.loss.dvalue_df(f, p, 1.0);
        let l2 = predictsim_core::DEFAULT_L2;
        self.optimizer
            .step_bounded(&mut self.weights, &self.phi, dloss, l2, (f - p).abs());
    }
}

/// Updates on the constant target `p` before the learner predicts
/// within 50 % of it, or `None` if `cap` updates do not get there.
fn updates_to_reach(learner: &mut impl Ramp, p: f64, cap: u64) -> Option<u64> {
    let x = [1.0, 4.0, 16.0];
    (0..=cap).find(|_| {
        let reached = (learner.predict(&x) - p).abs() <= 0.5 * p;
        if !reached {
            learner.learn(&x, p);
        }
        reached
    })
}

/// README § "Where we read the paper differently", `y_scale`: with
/// target normalisation one update reaches a constant target of any
/// magnitude from 10⁰ to 10⁶ s. Without it the same NAG step ramps the
/// prediction by roughly the same number of seconds per update whatever
/// the target, and ever more slowly: ≈ 300 updates at 10² s, none of the
/// first 100 000 at 10⁴ s or 10⁶ s.
#[test]
fn target_normalisation_reaches_any_magnitude_in_one_update_and_raw_targets_do_not() {
    const CAP: u64 = 100_000;
    let eta = predictsim_core::DEFAULT_ETA;
    for loss in [AsymmetricLoss::SQUARED, AsymmetricLoss::E_LOSS] {
        for p in [1.0, 1e2, 1e4, 1e6] {
            let mut model = OnlineRegression::with_parts(
                3,
                Basis::Polynomial,
                Box::new(NagOptimizer::new(Basis::Polynomial.output_dim(3), eta)),
                loss,
                WeightingScheme::Constant,
                predictsim_core::DEFAULT_L2,
            );
            let normalised = updates_to_reach(&mut model, p, CAP);
            assert_eq!(normalised, Some(1), "{loss:?} at {p} s");

            let raw = updates_to_reach(&mut RawTargetLearner::new(loss), p, CAP);
            match p {
                1.0 => assert_eq!(raw, Some(1), "{loss:?} at {p} s"),
                1e2 => assert!(
                    raw.is_some_and(|n| (100..1_000).contains(&n)),
                    "{loss:?} at {p} s: {raw:?}"
                ),
                _ => assert_eq!(raw, None, "{loss:?} at {p} s"),
            }
        }
    }
}
