//! Empirical cumulative distribution functions.
//!
//! The paper's Figures 4 and 5 plot ECDFs of prediction errors and of
//! predicted values on the Curie log. [`Ecdf`] supports exact evaluation at
//! arbitrary points, quantile queries, and uniform sampling of the curve for
//! plotting/export.

/// An empirical cumulative distribution function built from a sample.
///
/// Construction sorts a copy of the sample (`O(n log n)`); evaluation is a
/// binary search (`O(log n)`).
///
/// # Examples
///
/// ```
/// use predictsim_metrics::Ecdf;
///
/// let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(e.eval(0.0), 0.0);
/// assert_eq!(e.eval(2.0), 0.5);   // two of four samples are <= 2.0
/// assert_eq!(e.eval(10.0), 1.0);
/// assert_eq!(e.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF of `sample`. Non-finite values are discarded so the
    /// distribution stays well defined even on noisy simulator output.
    pub fn new(mut sample: Vec<f64>) -> Self {
        sample.retain(|x| x.is_finite());
        sample.sort_by(|a, b| a.partial_cmp(b).expect("non-finite filtered"));
        Self { sorted: sample }
    }

    /// Number of (finite) points backing the distribution.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the sample was empty (or all non-finite).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)`: fraction of samples ≤ `x`. Returns 0 for an empty sample.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point gives the number of elements <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) using the "lower value" convention:
    /// the smallest sample value `v` with `F(v) ≥ q`.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty ECDF");
        assert!((0.0..=1.0).contains(&q), "quantile order {q} outside [0,1]");
        let n = self.sorted.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    /// Minimum sample value. Panics on an empty sample.
    pub fn min(&self) -> f64 {
        *self.sorted.first().expect("min of empty ECDF")
    }

    /// Maximum sample value. Panics on an empty sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("max of empty ECDF")
    }

    /// Samples the curve at `n` points evenly spaced over `[lo, hi]`,
    /// returning `(x, F(x))` pairs — the series format used to export
    /// Figures 4 and 5.
    pub fn curve(&self, lo: f64, hi: f64, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2, "need at least two curve points");
        assert!(hi >= lo, "curve range is inverted");
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ecdf_is_zero_everywhere() {
        let e = Ecdf::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.eval(0.0), 0.0);
        assert_eq!(e.eval(1e18), 0.0);
    }

    #[test]
    fn eval_matches_hand_computation() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 2.0]);
        assert_eq!(e.eval(0.9), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(2.5), 0.75);
        assert_eq!(e.eval(3.0), 1.0);
    }

    #[test]
    fn non_finite_values_are_dropped() {
        let e = Ecdf::new(vec![f64::NAN, 1.0, f64::INFINITY, 2.0]);
        assert_eq!(e.len(), 2);
        assert_eq!(e.eval(1.5), 0.5);
    }

    #[test]
    fn quantiles() {
        let e = Ecdf::new((1..=100).map(f64::from).collect());
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(0.5), 50.0);
        assert_eq!(e.quantile(1.0), 100.0);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 100.0);
    }

    #[test]
    fn curve_is_monotone_and_spans_01() {
        let e = Ecdf::new(vec![5.0, 10.0, 15.0]);
        let c = e.curve(0.0, 20.0, 21);
        assert_eq!(c.len(), 21);
        assert_eq!(c[0].1, 0.0);
        assert_eq!(c[20].1, 1.0);
        for w in c.windows(2) {
            assert!(w[1].1 >= w[0].1, "ECDF curve must be nondecreasing");
        }
    }

    #[test]
    #[should_panic(expected = "quantile of empty ECDF")]
    fn quantile_of_empty_panics() {
        Ecdf::new(vec![]).quantile(0.5);
    }
}
