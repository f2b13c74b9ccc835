//! Correction mechanisms for under-predicted running times (§5.2).
//!
//! When a job outlives its prediction the scheduler needs a replacement
//! estimate. The paper deliberately uses "simple rules instead of
//! computing again a prediction by the learning scheme, which gave a
//! wrong value", and evaluates three policies:
//!
//! * **Requested Time** — fall back to `p̃_j`
//!   ([`predictsim_sim::RequestedTimeCorrection`], which lives beside
//!   the engine's own fallback);
//! * **Incremental** ([`IncrementalCorrection`]) — Tsafrir et al.'s \[24\]
//!   technique: bump the estimate by a fixed amount from a predefined
//!   list, growing with each successive failure (1 min, 5 min, 15 min,
//!   30 min, 1 h, 2 h, 5 h, 10 h, 20 h, 50 h, 100 h). Part of both
//!   EASY++ and the winning heuristic triple (§6.3.3);
//! * **Recursive Doubling** ([`RecursiveDoublingCorrection`]) — set the
//!   estimate to twice the elapsed running time.
//!
//! All corrected values are clamped by the engine into
//! `(elapsed, p̃_j]` — §5.2: estimates "remain bounded by the requested
//! running times".

use predictsim_sim::{CorrectionPolicy, Job, HOUR, MINUTE};

/// The fixed increment sequence of \[24\] (§5.2), in seconds.
pub(crate) const TSAFRIR_INCREMENTS: [i64; 11] = [
    MINUTE,
    5 * MINUTE,
    15 * MINUTE,
    30 * MINUTE,
    HOUR,
    2 * HOUR,
    5 * HOUR,
    10 * HOUR,
    20 * HOUR,
    50 * HOUR,
    100 * HOUR,
];

/// Incremental correction: add the next increment from a fixed list to
/// the expired estimate; the list index grows with each correction of the
/// same job, and saturates at the last entry.
#[derive(Debug, Clone, Default)]
pub struct IncrementalCorrection;

impl IncrementalCorrection {
    /// The paper's increment list.
    pub fn new() -> Self {
        Self
    }
}

impl CorrectionPolicy for IncrementalCorrection {
    fn correct(
        &self,
        _job: &Job,
        elapsed: i64,
        expired_prediction: i64,
        corrections_so_far: u32,
    ) -> f64 {
        let idx = (corrections_so_far as usize).min(TSAFRIR_INCREMENTS.len() - 1);
        // The expired prediction can sit below the elapsed time when the
        // expiry fired late in event order; grow from whichever is larger.
        (expired_prediction.max(elapsed) + TSAFRIR_INCREMENTS[idx]) as f64
    }

    fn name(&self) -> String {
        "incremental".into()
    }
}

/// Recursive doubling: the new estimate is twice the elapsed running time.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecursiveDoublingCorrection;

impl RecursiveDoublingCorrection {
    /// A new recursive-doubling policy.
    pub fn new() -> Self {
        Self
    }
}

impl CorrectionPolicy for RecursiveDoublingCorrection {
    fn correct(
        &self,
        _job: &Job,
        elapsed: i64,
        _expired_prediction: i64,
        _corrections_so_far: u32,
    ) -> f64 {
        (2 * elapsed.max(1)) as f64
    }

    fn name(&self) -> String {
        "recursive-doubling".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predictsim_sim::{JobId, Time};

    fn job() -> Job {
        Job {
            id: JobId(0),
            submit: Time(0),
            run: 10_000,
            requested: 500_000,
            procs: 1,
            user: 1,
            user_ix: 1,
            swf_id: 0,
        }
    }

    #[test]
    fn incremental_walks_the_list() {
        let c = IncrementalCorrection::new();
        let j = job();
        // First failure at prediction 100: +1 minute.
        assert_eq!(c.correct(&j, 100, 100, 0), 160.0);
        // Second failure: +5 minutes on the new expired estimate.
        assert_eq!(c.correct(&j, 160, 160, 1), 460.0);
        // Far down the list it saturates at +100h.
        assert_eq!(c.correct(&j, 1000, 1000, 99), (1000 + 100 * HOUR) as f64);
    }

    #[test]
    fn incremental_grows_from_elapsed_when_larger() {
        let c = IncrementalCorrection::new();
        assert_eq!(c.correct(&job(), 500, 100, 0), 560.0);
    }

    #[test]
    fn incremental_sequence_matches_paper() {
        // "(1min, 5min, 15min, 30min, 1h, 2h, 5h, 10h, 20h, 50h, 100h)"
        assert_eq!(
            TSAFRIR_INCREMENTS,
            [60, 300, 900, 1800, 3600, 7200, 18000, 36000, 72000, 180000, 360000]
        );
    }

    #[test]
    fn recursive_doubling_doubles_elapsed() {
        let c = RecursiveDoublingCorrection::new();
        let j = job();
        assert_eq!(c.correct(&j, 100, 50, 0), 200.0);
        assert_eq!(c.correct(&j, 0, 50, 0), 2.0); // degenerate elapsed
    }

    #[test]
    fn names() {
        assert_eq!(IncrementalCorrection::new().name(), "incremental");
        assert_eq!(
            RecursiveDoublingCorrection::new().name(),
            "recursive-doubling"
        );
    }
}
