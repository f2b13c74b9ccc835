//! Per-job loss weights γ_j — Table 3 of the paper.
//!
//! Backfilling cares unevenly about jobs: small-area jobs are the easy
//! backfill candidates (under-predicting them delays a reservation), while
//! a mispredicted large job freezes the whole machine. Table 3 therefore
//! explores five weighting factors built from the job's running time `p`
//! and resource request `q`:
//!
//! | γ_j                 | favors good predictions for…          |
//! |---------------------|----------------------------------------|
//! | `1`                 | every job equally                      |
//! | `5 + log(q/p)`      | short jobs with large requests         |
//! | `5 + log(p/q)`      | long jobs with small requests          |
//! | `11 + log(1/(q·p))` | small-area jobs                        |
//! | `log(q·p)`          | large-area jobs (the E-Loss choice)    |
//!
//! The constants "are chosen to ensure positivity of the weights with
//! typical running times and resource requests in the HPC domain"
//! (Table 3 caption). That positivity claim pins down the logarithm base:
//! with natural logs, `11 + ln(1/(q·p))` is already negative for a
//! one-hour 128-proc job, while with **base-10 logs** all four
//! non-constant weights stay positive across the whole typical HPC
//! envelope (seconds–days × 1–10k processors). We therefore use log₁₀
//! (listed in README § "Where we read the paper differently").
//! Degenerate synthetic jobs can still stray outside the envelope, so
//! every weight is clamped to [`MIN_GAMMA`].

/// Lower clamp keeping weights positive on degenerate jobs (e.g. 1-second
/// 1-proc crashers, where `log(q·p) = 0`).
pub(crate) const MIN_GAMMA: f64 = 0.01;

/// The five weighting schemes of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightingScheme {
    /// γ = 1: constant weight.
    Constant,
    /// γ = 5 + log(q/p): short jobs with large resource request should be
    /// well-predicted.
    ShortWide,
    /// γ = 5 + log(p/q): long jobs with small resource request should be
    /// well-predicted.
    LongNarrow,
    /// γ = 11 + log(1/(q·p)): jobs of small area should be well-predicted.
    SmallArea,
    /// γ = log(q·p): jobs of large area should be well-predicted — the
    /// weight of the winning E-Loss triple (Eq. 3, reading the printed
    /// `log(r_j·p_j)` as the Table 3 large-area weight `log(q_j·p_j)`;
    /// see README § "Where we read the paper differently").
    LargeArea,
}

impl WeightingScheme {
    /// All five schemes, in Table 3 order.
    pub const ALL: [WeightingScheme; 5] = [
        WeightingScheme::Constant,
        WeightingScheme::ShortWide,
        WeightingScheme::LongNarrow,
        WeightingScheme::SmallArea,
        WeightingScheme::LargeArea,
    ];

    /// The weight γ_j for a job with actual running time `p` (seconds) and
    /// resource request `q` (processors), clamped to ≥ 0.01 (`MIN_GAMMA`).
    pub fn gamma(self, p: f64, q: f64) -> f64 {
        let p = p.max(1.0);
        let q = q.max(1.0);
        let raw = match self {
            WeightingScheme::Constant => 1.0,
            WeightingScheme::ShortWide => 5.0 + (q / p).log10(),
            WeightingScheme::LongNarrow => 5.0 + (p / q).log10(),
            WeightingScheme::SmallArea => 11.0 + (1.0 / (q * p)).log10(),
            WeightingScheme::LargeArea => (q * p).log10(),
        };
        raw.max(MIN_GAMMA)
    }

    /// Short code used in heuristic-triple names.
    pub fn code(self) -> &'static str {
        match self {
            WeightingScheme::Constant => "g=1",
            WeightingScheme::ShortWide => "g=q/p",
            WeightingScheme::LongNarrow => "g=p/q",
            WeightingScheme::SmallArea => "g=small",
            WeightingScheme::LargeArea => "g=area",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_one() {
        assert_eq!(WeightingScheme::Constant.gamma(12345.0, 67.0), 1.0);
    }

    #[test]
    fn short_wide_prefers_short_wide_jobs() {
        let s = WeightingScheme::ShortWide;
        let short_wide = s.gamma(60.0, 512.0);
        let long_narrow = s.gamma(86_400.0, 1.0);
        assert!(short_wide > long_narrow);
    }

    #[test]
    fn long_narrow_prefers_long_narrow_jobs() {
        let s = WeightingScheme::LongNarrow;
        assert!(s.gamma(86_400.0, 1.0) > s.gamma(60.0, 512.0));
    }

    #[test]
    fn area_weights_are_monotone_in_area() {
        let small = WeightingScheme::SmallArea;
        assert!(small.gamma(10.0, 1.0) > small.gamma(100_000.0, 512.0));
        let large = WeightingScheme::LargeArea;
        assert!(large.gamma(100_000.0, 512.0) > large.gamma(10.0, 1.0));
    }

    #[test]
    fn weights_always_positive() {
        for scheme in WeightingScheme::ALL {
            for &(p, q) in &[
                (1.0, 1.0),
                (0.0, 0.0), // degenerate inputs are clamped
                (1e7, 1e5),
                (1.0, 100_000.0),
                (1_000_000.0, 1.0),
            ] {
                let g = scheme.gamma(p, q);
                assert!(g >= MIN_GAMMA, "{scheme:?} gamma({p},{q}) = {g}");
                assert!(g.is_finite());
            }
        }
    }

    #[test]
    fn typical_hpc_values_need_no_clamp() {
        // Table 3's claim: constants keep the weights positive for typical
        // running times / requests (minutes–days, 1–10k procs).
        for scheme in WeightingScheme::ALL {
            for &(p, q) in &[(600.0, 16.0), (3600.0, 128.0), (86_400.0, 1024.0)] {
                assert!(
                    scheme.gamma(p, q) > MIN_GAMMA,
                    "{scheme:?} clamped at ({p},{q})"
                );
            }
        }
    }

    #[test]
    fn codes_are_unique() {
        let codes: std::collections::HashSet<_> =
            WeightingScheme::ALL.iter().map(|s| s.code()).collect();
        assert_eq!(codes.len(), 5);
    }
}
