//! Property-based tests of the metrics crate.

use proptest::prelude::*;

use predictsim_metrics::{
    bounded_slowdown, pearson_correlation, underprediction_rate, Ecdf, DEFAULT_TAU,
};

proptest! {
    /// Bounded slowdown is always ≥ 1, finite, and monotone in the wait.
    #[test]
    fn bsld_bounds_and_monotonicity(
        wait in 0.0f64..1e9,
        run in 0.0f64..1e9,
        extra in 0.0f64..1e6,
    ) {
        let b = bounded_slowdown(wait, run, DEFAULT_TAU);
        prop_assert!(b >= 1.0);
        prop_assert!(b.is_finite());
        let b2 = bounded_slowdown(wait + extra, run, DEFAULT_TAU);
        prop_assert!(b2 >= b, "more waiting cannot reduce slowdown");
    }

    /// Pearson is symmetric, bounded by 1 in absolute value, and exactly
    /// ±1 under affine maps.
    #[test]
    fn pearson_properties(
        xs in prop::collection::vec(-1e3f64..1e3, 3..50),
        a in prop_oneof![-5.0f64..-0.1, 0.1f64..5.0],
        b in -10.0f64..10.0,
    ) {
        let ys: Vec<f64> = xs.iter().map(|&x| a * x + b).collect();
        if let Some(r) = pearson_correlation(&xs, &ys) {
            prop_assert!((r.abs() - 1.0).abs() < 1e-6, "affine map must give |r|=1, got {r}");
            prop_assert_eq!(r.signum(), a.signum());
        }
        if let Some(r) = pearson_correlation(&xs, &xs) {
            prop_assert!((r - 1.0).abs() < 1e-6);
        }
        // Symmetry.
        let fwd = pearson_correlation(&xs, &ys);
        let bwd = pearson_correlation(&ys, &xs);
        match (fwd, bwd) {
            (Some(f), Some(g)) => prop_assert!((f - g).abs() < 1e-9),
            (None, None) => {}
            other => prop_assert!(false, "asymmetric definedness {other:?}"),
        }
    }

    /// ECDF evaluation is a valid CDF: monotone, 0 below min, 1 at max;
    /// quantile is a partial inverse.
    #[test]
    fn ecdf_is_a_cdf(sample in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let e = Ecdf::new(sample.clone());
        prop_assert_eq!(e.eval(e.min() - 1.0), 0.0);
        prop_assert_eq!(e.eval(e.max()), 1.0);
        let q50 = e.quantile(0.5);
        prop_assert!(e.eval(q50) >= 0.5);
        // Monotone on a grid.
        let lo = e.min();
        let hi = e.max();
        let mut prev = 0.0;
        for i in 0..=20 {
            let x = lo + (hi - lo) * i as f64 / 20.0;
            let f = e.eval(x);
            prop_assert!(f >= prev - 1e-12);
            prev = f;
        }
    }

    /// Under-prediction rate is a probability and flips under swap.
    #[test]
    fn underprediction_rate_is_probability(
        pairs in prop::collection::vec((1.0f64..1e6, 1.0f64..1e6), 1..80)
    ) {
        let p: Vec<f64> = pairs.iter().map(|&(a, _)| a).collect();
        let a: Vec<f64> = pairs.iter().map(|&(_, b)| b).collect();
        let u = underprediction_rate(&p, &a);
        let o = underprediction_rate(&a, &p);
        prop_assert!((0.0..=1.0).contains(&u));
        // under(p,a) + under(a,p) + ties = 1
        let ties = p.iter().zip(&a).filter(|(x, y)| x == y).count() as f64
            / p.len() as f64;
        prop_assert!((u + o + ties - 1.0).abs() < 1e-9);
    }
}
