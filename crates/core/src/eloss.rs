//! The E-Loss ("EASY-Loss") — Equation (3) — as a *metric*.
//!
//! §6.4 evaluates prediction techniques not only by their Mean Absolute
//! Error but by their mean E-Loss (Table 8), showing that AVE₂ — despite a
//! better MAE — scores orders of magnitude worse on the loss that actually
//! matters for backfilling. This module computes that metric over
//! simulation outcomes.
//!
//! The per-job value is
//!
//! ```text
//! E(f, p, q) = log(q·p) · (f − p)²   if f ≥ p   (over-prediction)
//!              log(q·p) · (p − f)    if f < p   (under-prediction)
//! ```
//!
//! (reading Eq. 3's printed `log(r_j·p_j)` as the Table 3 large-area
//! weight `log(q_j·p_j)` — see README § "Where we read the paper
//! differently" — and with the weight clamped positive exactly as during
//! training).

use predictsim_sim::JobOutcome;

use crate::loss::AsymmetricLoss;
use crate::weighting::WeightingScheme;

/// E-Loss of predicting `f` for a job with actual running time `p` and
/// resource request `q`.
pub fn eloss(f: f64, p: f64, q: f64) -> f64 {
    let gamma = WeightingScheme::LargeArea.gamma(p, q);
    AsymmetricLoss::E_LOSS.value(f, p, gamma)
}

/// Mean E-Loss of the *initial* predictions recorded in simulation
/// outcomes — the Table 8 aggregation.
pub fn mean_eloss_of_outcomes(outcomes: &[JobOutcome]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    outcomes
        .iter()
        .map(|o| eloss(o.initial_prediction as f64, o.run as f64, o.procs as f64))
        .sum::<f64>()
        / outcomes.len() as f64
}

/// Mean absolute error of the initial predictions in outcomes — Table 8's
/// other column.
pub fn mae_of_outcomes(outcomes: &[JobOutcome]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    outcomes
        .iter()
        .map(|o| (o.initial_prediction as f64 - o.run as f64).abs())
        .sum::<f64>()
        / outcomes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use predictsim_sim::{JobId, Time};

    #[test]
    fn eloss_branches() {
        let p: f64 = 1000.0;
        let q: f64 = 64.0;
        let gamma = (p * q).log10();
        // Over-prediction by 100: squared branch.
        assert!((eloss(1100.0, p, q) - gamma * 10_000.0).abs() < 1e-9);
        // Under-prediction by 100: linear branch.
        assert!((eloss(900.0, p, q) - gamma * 100.0).abs() < 1e-9);
        // Exact prediction: zero.
        assert_eq!(eloss(p, p, q), 0.0);
    }

    #[test]
    fn requested_time_scores_terribly() {
        // The user over-estimates 10x: MAE is awful, E-Loss is worse
        // (squared branch on a large error).
        let p = 3600.0;
        let e_req = eloss(36_000.0, p, 16.0);
        let e_under = eloss(600.0, p, 16.0);
        assert!(e_req / e_under > 1000.0, "ratio {}", e_req / e_under);
    }

    fn outcome(pred: i64, run: i64, procs: u32) -> JobOutcome {
        JobOutcome {
            id: JobId(0),
            swf_id: 0,
            user: 0,
            procs,
            submit: Time(0),
            start: Time(0),
            end: Time(run),
            run,
            requested: run * 10,
            initial_prediction: pred,
            corrections: 0,
            killed: false,
            partition: 0,
        }
    }

    #[test]
    fn outcome_aggregations() {
        let outcomes = vec![outcome(100, 100, 4), outcome(250, 200, 4)];
        assert_eq!(mae_of_outcomes(&outcomes), 25.0);
        let expected = (eloss(100.0, 100.0, 4.0) + eloss(250.0, 200.0, 4.0)) / 2.0;
        assert!((mean_eloss_of_outcomes(&outcomes) - expected).abs() < 1e-12);
        assert_eq!(mae_of_outcomes(&[]), 0.0);
        assert_eq!(mean_eloss_of_outcomes(&[]), 0.0);
    }
}
