//! Order statistics: medians, Python-compatible quartiles and the
//! "highest percentile with at least ten samples beyond it" rule.

/// Sorts `values` ascending by the IEEE total order.
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(f64::total_cmp);
}

/// The `p`-th percentile (0–100) of ascending `sorted`, by linear
/// interpolation between closest ranks; 0.0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unsorted values (sorts a copy).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 50.0)
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// gives them — the rule the acceptance pipeline applies to ten runs.
/// Fewer than two values have no spread: all three are the value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The tail percentiles worth naming, highest first, in per-mille so
/// the ten-beyond test is exact integer arithmetic.
const TAIL_LADDER: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// of `n` samples beyond it; `None` below twenty samples (even the
/// median would have fewer than ten on its far side).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|per_mille| n as u64 * (1000 - per_mille) >= 10_000)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// The tail of unsorted `samples` under the ten-beyond rule: the wanted
/// percentile when `samples` supports it, else the highest one it does
/// support. Returns `(percentile used, value)`; `(0, 0)` when not even
/// the median is supported.
pub fn tail(samples: &[f64], wanted: f64) -> (f64, f64) {
    let Some(supported) = highest_supported_percentile(samples.len()) else {
        return (0.0, 0.0);
    };
    let p = wanted.min(supported);
    let mut v = samples.to_vec();
    sort(&mut v);
    (p, percentile(&v, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_beyond_rule() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(64), Some(75.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(128), Some(90.0));
        assert_eq!(highest_supported_percentile(256), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn tail_falls_back_to_the_supported_percentile() {
        let samples: Vec<f64> = (1..=64).map(f64::from).collect();
        let (p, _) = tail(&samples, 90.0);
        assert_eq!(p, 75.0, "64 samples leave only 6 beyond p90");
        let samples: Vec<f64> = (1..=128).map(f64::from).collect();
        let (p, v) = tail(&samples, 90.0);
        assert_eq!(p, 90.0);
        assert!((v - 115.3).abs() < 1e-9);
        assert_eq!(tail(&[1.0; 5], 90.0), (0.0, 0.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_and_percentile_interpolate() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 100.0), 3.0);
    }
}
