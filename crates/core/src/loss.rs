//! The paper's family of asymmetric, weighted loss functions (§4.2).
//!
//! Scheduling reacts differently to under- and over-prediction: an
//! under-prediction can wreck a planned schedule (a "running" job is still
//! there when the plan said it would be gone), while an over-prediction
//! merely wastes backfilling opportunities. The paper therefore composes a
//! loss from two *basis losses* — one per error direction — and a per-job
//! weight γ_j:
//!
//! ```text
//! L(x_j, f(x_j), p_j) = γ_j · L_over (f(x_j) − p_j)   if f(x_j) ≥ p_j
//!                       γ_j · L_under(p_j − f(x_j))   if f(x_j) < p_j
//! ```
//!
//! Each basis loss is either linear (`z ↦ z`) or squared (`z ↦ z²`),
//! giving the 2×2 grid of Table 5; γ_j comes from
//! [`crate::weighting::WeightingScheme`] (Table 3).
//!
//! *Erratum note* (listed in README § "Where we read the paper
//! differently"): the displayed equation in
//! §4.2 swaps the `L_u`/`L_o` condition labels relative to Figure 1 and
//! §6.4. We follow the self-consistent reading used everywhere else in
//! the paper: the **over**-prediction branch applies when `f ≥ p`, the
//! **under**-prediction branch when `f < p`. Under this reading the
//! E-Loss (Eq. 3: squared branch when `f ≥ p`, linear when `f < p`)
//! "discourages over-prediction" exactly as §6.4 analyses.

/// One branch of the asymmetric loss: the paper considers the linear and
/// squared basis losses (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BasisLoss {
    /// `L(z) = z` — tolerant of large errors.
    Linear,
    /// `L(z) = z²` — strongly penalizes large errors.
    Squared,
}

impl BasisLoss {
    /// Loss at error magnitude `z ≥ 0`. (A NaN magnitude — e.g. from a
    /// diverged ablation optimizer — propagates as NaN rather than
    /// asserting, so diagnostics can observe the divergence.)
    #[inline]
    pub fn value(self, z: f64) -> f64 {
        debug_assert!(
            z.partial_cmp(&0.0) != Some(std::cmp::Ordering::Less),
            "basis losses are defined on magnitudes"
        );
        match self {
            BasisLoss::Linear => z,
            BasisLoss::Squared => z * z,
        }
    }

    /// Derivative with respect to `z` at `z ≥ 0`.
    #[inline]
    fn derivative(self, z: f64) -> f64 {
        match self {
            BasisLoss::Linear => 1.0,
            BasisLoss::Squared => 2.0 * z,
        }
    }

    /// Short code used in heuristic-triple names (`"lin"`, `"sq"`).
    pub fn code(self) -> &'static str {
        match self {
            BasisLoss::Linear => "lin",
            BasisLoss::Squared => "sq",
        }
    }
}

/// An asymmetric loss: a basis loss per error direction.
///
/// `γ` is supplied at evaluation time (it depends on the job, not the
/// loss shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AsymmetricLoss {
    /// Basis applied to under-predictions (`f < p`), on `z = p − f`.
    pub under: BasisLoss,
    /// Basis applied to over-predictions (`f ≥ p`), on `z = f − p`.
    pub over: BasisLoss,
}

impl AsymmetricLoss {
    /// The symmetric squared loss — with γ ≡ 1 this is plain on-line
    /// least squares (§4.2's closing remark).
    pub const SQUARED: AsymmetricLoss = AsymmetricLoss {
        under: BasisLoss::Squared,
        over: BasisLoss::Squared,
    };

    /// The E-Loss shape (Eq. 3): squared over-prediction branch, linear
    /// under-prediction branch. Combined with the large-area weight it is
    /// the loss of the winning heuristic triple (§6.3.3).
    pub const E_LOSS: AsymmetricLoss = AsymmetricLoss {
        under: BasisLoss::Linear,
        over: BasisLoss::Squared,
    };

    /// Loss of predicting `f` when the actual running time is `p`, with
    /// weight `gamma`.
    pub fn value(&self, f: f64, p: f64, gamma: f64) -> f64 {
        let err = f - p;
        if err >= 0.0 {
            gamma * self.over.value(err)
        } else {
            gamma * self.under.value(-err)
        }
    }

    /// Derivative of [`AsymmetricLoss::value`] with respect to the
    /// prediction `f`. At `f == p` both branches meet at loss 0; we return
    /// the 0 subgradient there, which keeps gradient steps stable.
    pub fn dvalue_df(&self, f: f64, p: f64, gamma: f64) -> f64 {
        let err = f - p;
        if err > 0.0 {
            gamma * self.over.derivative(err)
        } else if err < 0.0 {
            -gamma * self.under.derivative(-err)
        } else {
            0.0
        }
    }

    /// Short code such as `"u=lin,o=sq"` for reports.
    pub fn code(&self) -> String {
        format!("u={},o={}", self.under.code(), self.over.code())
    }
}

/// The four basis-loss combinations of Table 5.
pub fn loss_shapes() -> [AsymmetricLoss; 4] {
    [
        AsymmetricLoss {
            under: BasisLoss::Linear,
            over: BasisLoss::Linear,
        },
        AsymmetricLoss {
            under: BasisLoss::Linear,
            over: BasisLoss::Squared,
        },
        AsymmetricLoss {
            under: BasisLoss::Squared,
            over: BasisLoss::Linear,
        },
        AsymmetricLoss {
            under: BasisLoss::Squared,
            over: BasisLoss::Squared,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_values_and_derivatives() {
        assert_eq!(BasisLoss::Linear.value(3.0), 3.0);
        assert_eq!(BasisLoss::Squared.value(3.0), 9.0);
        assert_eq!(BasisLoss::Linear.derivative(3.0), 1.0);
        assert_eq!(BasisLoss::Squared.derivative(3.0), 6.0);
    }

    #[test]
    fn figure1_example() {
        // Figure 1: γ=1, Lu(z)=z², Lo(z)=z. At error −1 (under-prediction)
        // the loss is 1; at error +1 (over-prediction) the loss is 1.
        let l = AsymmetricLoss {
            under: BasisLoss::Squared,
            over: BasisLoss::Linear,
        };
        assert_eq!(l.value(0.0, 1.0, 1.0), 1.0); // f−p = −1
        assert_eq!(l.value(2.0, 1.0, 1.0), 1.0); // f−p = +1
        assert_eq!(l.value(1.0, 1.0, 1.0), 0.0);
        // And at error −0.5 the squared branch gives 0.25 < linear's 0.5.
        assert_eq!(l.value(0.5, 1.0, 1.0), 0.25);
    }

    #[test]
    fn eloss_discourages_overprediction() {
        // §6.4: squared branch for over-prediction, linear for under.
        let e = AsymmetricLoss::E_LOSS;
        let over = e.value(2000.0, 1000.0, 1.0); // +1000 error
        let under = e.value(0.0, 1000.0, 1.0); // −1000 error
        assert!(over > under, "E-loss must punish over-prediction harder");
        assert_eq!(over, 1_000_000.0);
        assert_eq!(under, 1000.0);
    }

    #[test]
    fn gamma_scales_linearly() {
        let l = AsymmetricLoss::SQUARED;
        assert_eq!(l.value(3.0, 1.0, 5.0), 5.0 * 4.0);
        assert_eq!(l.dvalue_df(3.0, 1.0, 5.0), 5.0 * 4.0);
    }

    #[test]
    fn derivative_signs() {
        let l = AsymmetricLoss::E_LOSS;
        assert!(
            l.dvalue_df(10.0, 5.0, 1.0) > 0.0,
            "over-prediction pushes f down"
        );
        assert!(
            l.dvalue_df(2.0, 5.0, 1.0) < 0.0,
            "under-prediction pushes f up"
        );
        assert_eq!(l.dvalue_df(5.0, 5.0, 1.0), 0.0);
    }

    #[test]
    fn derivative_matches_numeric_gradient() {
        let h = 1e-6;
        for loss in loss_shapes() {
            for &(f, p) in &[(10.0, 3.0), (3.0, 10.0), (100.0, 99.0), (0.5, 2.5)] {
                let numeric = (loss.value(f + h, p, 2.0) - loss.value(f - h, p, 2.0)) / (2.0 * h);
                let analytic = loss.dvalue_df(f, p, 2.0);
                assert!(
                    (numeric - analytic).abs() < 1e-4,
                    "{:?} f={f} p={p}: numeric {numeric} vs analytic {analytic}",
                    loss
                );
            }
        }
    }

    #[test]
    fn continuity_at_zero_error() {
        // All four combinations are continuous at f = p (§4.2 notes
        // continuity and convexity).
        for loss in loss_shapes() {
            let eps = 1e-9;
            let left = loss.value(5.0 - eps, 5.0, 3.0);
            let right = loss.value(5.0 + eps, 5.0, 3.0);
            assert!(left.abs() < 1e-6 && right.abs() < 1e-6, "{loss:?}");
        }
    }

    #[test]
    fn convexity_sampled() {
        // Midpoint convexity on a few sample points for every shape.
        for loss in loss_shapes() {
            let p = 50.0;
            for &(a, b) in &[(0.0, 100.0), (20.0, 80.0), (40.0, 200.0)] {
                let mid = loss.value((a + b) / 2.0, p, 1.0);
                let avg = (loss.value(a, p, 1.0) + loss.value(b, p, 1.0)) / 2.0;
                assert!(mid <= avg + 1e-9, "{loss:?} not convex on ({a},{b})");
            }
        }
    }

    #[test]
    fn codes() {
        assert_eq!(AsymmetricLoss::E_LOSS.code(), "u=lin,o=sq");
        assert_eq!(loss_shapes().len(), 4);
    }
}
