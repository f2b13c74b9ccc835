//! Self-contained samplers for the workload models.
//!
//! Only `rand`'s uniform primitives are used; the distributions the
//! generator needs (normal, lognormal, exponential, geometric, weighted
//! choice) are implemented here so the generated workloads are exactly
//! reproducible from a seed with no dependency on distribution-crate
//! implementation details.

use rand::Rng;

/// Standard normal via the Box–Muller transform.
fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u1 == 0 (log of zero).
    let u1: f64 = loop {
        let v = rng.gen::<f64>();
        if v > f64::MIN_POSITIVE {
            break v;
        }
    };
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Normal with the given mean and standard deviation.
pub(crate) fn normal_with<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    mean + sd * normal(rng)
}

/// Lognormal: `exp(N(mu, sigma))` — the classic running-time shape used
/// by workload models (Lublin & Feitelson's hyper-distributions are
/// mixtures of these).
pub(crate) fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * normal(rng)).exp()
}

/// Exponential with the given mean.
pub(crate) fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    debug_assert!(mean > 0.0);
    let u: f64 = loop {
        let v = rng.gen::<f64>();
        if v > f64::MIN_POSITIVE {
            break v;
        }
    };
    -mean * u.ln()
}

/// Geometric number of successes with the given mean (≥ 0): number of
/// extra jobs in a session beyond the first.
pub(crate) fn geometric<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    let p = 1.0 / (1.0 + mean); // success probability per trial
    let mut count = 0;
    while rng.gen::<f64>() > p && count < 10_000 {
        count += 1;
    }
    count
}

/// Samples an index proportionally to `weights` (must be non-empty with a
/// positive sum).
pub(crate) fn weighted_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    debug_assert!(!weights.is_empty());
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0, "weights must have positive sum");
    let mut target = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        target -= w;
        if target <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Precomputed weighted sampler: prefix sums + binary search, O(log n)
/// per draw against [`weighted_index`]'s O(n) subtract-chain.
///
/// Draws consume exactly one `rng.gen::<f64>()`, like `weighted_index`,
/// so the two are interchangeable without shifting the RNG stream — but
/// the float arithmetic differs (a prefix-sum comparison instead of a
/// running subtraction), so on rare boundary draws the *chosen index*
/// can differ. The generator therefore only switches to this sampler
/// above a population cutover no pinned preset reaches.
#[derive(Debug, Clone)]
pub(crate) struct CumulativeSampler {
    /// Inclusive prefix sums of the weights.
    cumulative: Vec<f64>,
}

impl CumulativeSampler {
    /// Builds the prefix-sum table (weights must be non-empty with a
    /// positive sum, as for [`weighted_index`]).
    pub(crate) fn new(weights: &[f64]) -> Self {
        debug_assert!(!weights.is_empty());
        let mut running = 0.0;
        let cumulative = weights
            .iter()
            .map(|&w| {
                running += w;
                running
            })
            .collect::<Vec<f64>>();
        debug_assert!(running > 0.0, "weights must have positive sum");
        Self { cumulative }
    }

    /// Samples an index proportionally to the weights.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let target = rng.gen::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c <= target)
            .min(self.cumulative.len() - 1)
    }
}

/// A power-of-two-biased processor count in `[1, max]`: HPC logs show
/// strong modes at 1 and powers of two (with a tail of odd sizes).
pub(crate) fn proc_request<R: Rng + ?Sized>(
    rng: &mut R,
    max: u32,
    mean_log2: f64,
    sd_log2: f64,
) -> u32 {
    let exp = normal_with(rng, mean_log2, sd_log2).clamp(0.0, 30.0);
    let base = 2f64.powf(exp.round()) as u32;
    let q = if rng.gen::<f64>() < 0.15 {
        // A minority of requests are not powers of two.
        (base as f64 * rng.gen_range(0.6..1.4)).round() as u32
    } else {
        base
    };
    q.clamp(1, max.max(1))
}

/// The modal requested-time values users actually type (Tsafrir, Etsion &
/// Feitelson, *Modeling user runtime estimates* \[23\]): round wall-clock
/// figures, in seconds.
pub(crate) const MODAL_REQUEST_VALUES: [i64; 16] = [
    300,    // 5 min
    600,    // 10 min
    900,    // 15 min
    1800,   // 30 min
    3600,   // 1 h
    7200,   // 2 h
    14400,  // 4 h
    21600,  // 6 h
    28800,  // 8 h
    43200,  // 12 h
    64800,  // 18 h
    86400,  // 24 h
    129600, // 36 h
    172800, // 48 h
    259200, // 72 h
    360000, // 100 h
];

/// Rounds a raw requested time up to the next modal value (when below the
/// largest modal value), mimicking users picking round figures from a
/// mental list. Values beyond the largest modal entry are kept as-is.
pub(crate) fn round_to_modal(raw: i64) -> i64 {
    for &v in &MODAL_REQUEST_VALUES {
        if raw <= v {
            return v;
        }
    }
    raw
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }

    #[test]
    fn lognormal_median() {
        let mut r = rng();
        let n = 20_000;
        let mut samples: Vec<f64> = (0..n).map(|_| lognormal(&mut r, 8.0, 1.0)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        let expected = 8.0f64.exp();
        assert!(
            (median / expected - 1.0).abs() < 0.1,
            "median {median} vs {expected}"
        );
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let n = 20_000;
        let mean = (0..n).map(|_| exponential(&mut r, 300.0)).sum::<f64>() / n as f64;
        assert!((mean / 300.0 - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn geometric_mean() {
        let mut r = rng();
        let n = 20_000;
        let mean = (0..n).map(|_| geometric(&mut r, 4.0) as f64).sum::<f64>() / n as f64;
        assert!((mean / 4.0 - 1.0).abs() < 0.1, "mean {mean}");
        assert_eq!(geometric(&mut r, 0.0), 0);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = rng();
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[weighted_index(&mut r, &weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio / 3.0 - 1.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn cumulative_sampler_respects_weights() {
        let mut r = rng();
        let weights = [1.0, 0.0, 3.0];
        let sampler = CumulativeSampler::new(&weights);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[sampler.sample(&mut r)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight index must never be drawn");
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio / 3.0 - 1.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn cumulative_sampler_consumes_one_draw_like_weighted_index() {
        // Interchangeability contract: one f64 per draw, so swapping
        // samplers never shifts the RNG stream for later phases.
        let weights: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let sampler = CumulativeSampler::new(&weights);
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for _ in 0..1000 {
            sampler.sample(&mut a);
            weighted_index(&mut b, &weights);
        }
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "RNG streams diverged");
    }

    #[test]
    fn proc_request_bounds_and_powers() {
        let mut r = rng();
        let mut pow2 = 0;
        for _ in 0..2000 {
            let q = proc_request(&mut r, 128, 2.0, 1.5);
            assert!((1..=128).contains(&q));
            if q.is_power_of_two() {
                pow2 += 1;
            }
        }
        assert!(pow2 > 1400, "power-of-two bias too weak: {pow2}/2000");
    }

    #[test]
    fn modal_rounding() {
        assert_eq!(round_to_modal(1), 300);
        assert_eq!(round_to_modal(300), 300);
        assert_eq!(round_to_modal(301), 600);
        assert_eq!(round_to_modal(86_000), 86_400);
        assert_eq!(round_to_modal(999_999), 999_999); // beyond the list
    }

    #[test]
    fn determinism() {
        let a: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..100).map(|_| normal(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..100).map(|_| normal(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
