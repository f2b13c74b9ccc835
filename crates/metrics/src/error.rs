//! Prediction-error metrics.
//!
//! Table 8's MAE and mean E-Loss over simulation outcomes live in
//! `predictsim-core` (the E-Loss weighs each job by its area); what
//! lives here is the generic aggregation the examples use.

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
    fn empty_inputs_yield_zero() {
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
        underprediction_rate(&[1.0], &[1.0, 2.0]);
    }
}
