//! Prediction-error metrics (Table 8 of the paper).
//!
//! Table 8 compares prediction techniques on two axes: the Mean Absolute
//! Error (MAE) and the mean value of the paper's custom *E-Loss*. The E-Loss
//! itself lives in `predictsim-core` (it needs job features); this module
//! provides the generic error aggregations.

/// Mean absolute error between `predicted` and `actual`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use predictsim_metrics::mae;
/// assert_eq!(mae(&[1.0, 2.0], &[3.0, 2.0]), 1.0);
/// ```
pub fn mae(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "mae: length mismatch");
    if predicted.is_empty() {
        return 0.0;
    }
    let sum: f64 = predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a).abs())
        .sum();
    sum / predicted.len() as f64
}

/// Root mean squared error between `predicted` and `actual`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn rmse(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "rmse: length mismatch");
    if predicted.is_empty() {
        return 0.0;
    }
    let sum: f64 = predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a) * (p - a))
        .sum();
    (sum / predicted.len() as f64).sqrt()
}

/// Mean signed error `mean(predicted - actual)`.
///
/// Positive values indicate a bias toward over-prediction, negative values a
/// bias toward under-prediction — the quantity visualized by Figure 4's
/// ECDF shift.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mean_signed_error(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(
        predicted.len(),
        actual.len(),
        "mean_signed_error: length mismatch"
    );
    if predicted.is_empty() {
        return 0.0;
    }
    let sum: f64 = predicted.iter().zip(actual).map(|(p, a)| p - a).sum();
    sum / predicted.len() as f64
}

/// Fraction of jobs that are *under-predicted* (`predicted < actual`).
///
/// §2.2 defines under-/over-prediction; §6.4 analyses how the E-Loss shifts
/// this fraction upward relative to a symmetric squared loss.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn underprediction_rate(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(
        predicted.len(),
        actual.len(),
        "underprediction_rate: length mismatch"
    );
    if predicted.is_empty() {
        return 0.0;
    }
    let n = predicted.iter().zip(actual).filter(|(p, a)| p < a).count();
    n as f64 / predicted.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mae_hand_example() {
        let p = [10.0, 20.0, 30.0];
        let a = [12.0, 18.0, 30.0];
        assert!((mae(&p, &a) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rmse_dominates_mae() {
        let p = [10.0, 20.0, 30.0];
        let a = [12.0, 15.0, 30.0];
        assert!(rmse(&p, &a) >= mae(&p, &a));
    }

    #[test]
    fn signed_error_sign_convention() {
        // Systematic over-prediction -> positive.
        assert!(mean_signed_error(&[10.0, 10.0], &[5.0, 5.0]) > 0.0);
        // Systematic under-prediction -> negative.
        assert!(mean_signed_error(&[1.0, 1.0], &[5.0, 5.0]) < 0.0);
    }

    #[test]
    fn empty_inputs_yield_zero() {
        assert_eq!(mae(&[], &[]), 0.0);
        assert_eq!(rmse(&[], &[]), 0.0);
        assert_eq!(mean_signed_error(&[], &[]), 0.0);
        assert_eq!(underprediction_rate(&[], &[]), 0.0);
    }

    #[test]
    fn underprediction_rate_counts_strict() {
        let p = [1.0, 5.0, 10.0, 4.9];
        let a = [5.0, 5.0, 5.0, 5.0];
        assert_eq!(underprediction_rate(&p, &a), 0.5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        mae(&[1.0], &[1.0, 2.0]);
    }
}
