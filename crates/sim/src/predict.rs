//! Prediction and correction interfaces, plus the two trivial baselines.
//!
//! The engine consults a [`RuntimePredictor`] once per job at submission
//! time and notifies it of every completion (the on-line train/test
//! protocol of §4.2: each job is predicted *before* its outcome is used
//! for learning). When a running job outlives its prediction, a
//! [`CorrectionPolicy`] produces a replacement estimate (§5.2).
//!
//! The learning-based predictors live in `predictsim-core`; this module
//! only defines the contracts and the two baselines that need no learning
//! state: [`ClairvoyantPredictor`] (perfect information — the paper's
//! upper-bound reference in Tables 1 and 6) and
//! [`RequestedTimePredictor`] (the user estimate — plain EASY).

use crate::job::Job;
use crate::state::SystemView;

/// Produces and refines running-time predictions, on-line.
pub trait RuntimePredictor {
    /// Predicts the running time (seconds) of `job` at its release date.
    ///
    /// The engine clamps the returned value into `[1, p̃_j]`: §5.2 requires
    /// predictions to stay bounded by the requested time, and a
    /// non-positive prediction is meaningless.
    fn predict(&mut self, job: &Job, system: &SystemView<'_>) -> f64;

    /// Observes a completed job and its granted running time (seconds).
    ///
    /// Called exactly once per job, at completion time, in completion
    /// order — this is where on-line learners update their model.
    fn observe(&mut self, job: &Job, actual_run: i64, system: &SystemView<'_>);

    /// Whether this predictor reads per-user aggregates over the
    /// running set ([`SystemView::user_running`]). When `true`, the
    /// engine maintains the per-user index incrementally; when `false`
    /// (the default), it skips that bookkeeping entirely — the index is
    /// pure overhead for predictors that never consult the system state
    /// (clairvoyant, requested-time, AVE₂). Either way the *values* a
    /// consumer computes are identical: the index and a scan of
    /// `running` aggregate the same set.
    fn wants_user_running_index(&self) -> bool {
        false
    }

    /// Short display name used in reports (e.g. `"clairvoyant"`).
    fn name(&self) -> String;
}

/// Produces a new total-running-time estimate after an expiry (§5.2).
pub trait CorrectionPolicy {
    /// Called when `job` has been running `elapsed` seconds and its
    /// current prediction `expired_prediction` (measured from the start of
    /// the job) has just elapsed without completion. `corrections_so_far`
    /// counts previous corrections of this job.
    ///
    /// Returns a new total prediction (seconds from job start). The engine
    /// clamps it into `(elapsed, p̃_j]` — it must exceed the elapsed time
    /// and may never pass the requested bound.
    fn correct(
        &self,
        job: &Job,
        elapsed: i64,
        expired_prediction: i64,
        corrections_so_far: u32,
    ) -> f64;

    /// Short display name used in reports (e.g. `"incremental"`).
    fn name(&self) -> String;
}

/// Perfect predictions: returns the exact granted running time.
///
/// This is the paper's *Clairvoyant* reference ("as if the users were
/// entirely clairvoyant", §2.2) — an upper bound on what any prediction
/// technique can achieve. It never triggers corrections.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClairvoyantPredictor;

impl RuntimePredictor for ClairvoyantPredictor {
    fn predict(&mut self, job: &Job, _system: &SystemView<'_>) -> f64 {
        job.granted_run() as f64
    }

    fn observe(&mut self, _job: &Job, _actual_run: i64, _system: &SystemView<'_>) {}

    fn name(&self) -> String {
        "clairvoyant".into()
    }
}

/// User-estimate predictions: returns the requested time `p̃_j`.
///
/// EASY with this predictor is exactly the standard EASY backfilling
/// algorithm (§6.2: "the case where Requested Time is used as prediction
/// technique and EASY as the backfilling variant corresponds to the
/// standard EASY backfilling algorithm"). Since `p ≤ p̃` always holds
/// after log cleaning, it never under-predicts and never needs correction.
#[derive(Debug, Default, Clone, Copy)]
pub struct RequestedTimePredictor;

impl RuntimePredictor for RequestedTimePredictor {
    fn predict(&mut self, job: &Job, _system: &SystemView<'_>) -> f64 {
        job.requested as f64
    }

    fn observe(&mut self, _job: &Job, _actual_run: i64, _system: &SystemView<'_>) {}

    fn name(&self) -> String {
        "requested".into()
    }
}

/// Predicts the same raw running time for every job: a test probe for
/// under-, over- and non-finite predictions.
#[cfg(test)]
pub(crate) struct FixedPredictor(pub(crate) f64);

#[cfg(test)]
impl RuntimePredictor for FixedPredictor {
    fn predict(&mut self, _job: &Job, _system: &SystemView<'_>) -> f64 {
        self.0
    }

    fn observe(&mut self, _job: &Job, _actual_run: i64, _system: &SystemView<'_>) {}

    fn name(&self) -> String {
        format!("fixed-{}", self.0)
    }
}

/// The *Requested Time* correction (§5.2): on under-prediction, fall back
/// to the user's requested running time.
#[derive(Debug, Default, Clone, Copy)]
pub struct RequestedTimeCorrection;

impl CorrectionPolicy for RequestedTimeCorrection {
    fn correct(
        &self,
        job: &Job,
        _elapsed: i64,
        _expired_prediction: i64,
        _corrections_so_far: u32,
    ) -> f64 {
        job.requested as f64
    }

    fn name(&self) -> String {
        "requested-time".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use crate::time::Time;

    fn job(run: i64, requested: i64) -> Job {
        Job {
            id: JobId(0),
            submit: Time(0),
            run,
            requested,
            procs: 1,
            user: 1,
            user_ix: 1,
            swf_id: 1,
        }
    }

    fn empty_view() -> SystemView<'static> {
        SystemView {
            user_running: None,
            now: Time(0),
            machine_size: 16,
            running: &[],
        }
    }

    #[test]
    fn clairvoyant_returns_granted_run() {
        let mut p = ClairvoyantPredictor;
        assert_eq!(p.predict(&job(100, 200), &empty_view()), 100.0);
        // A job that will be killed at its request is predicted at the kill time.
        assert_eq!(p.predict(&job(500, 200), &empty_view()), 200.0);
        assert_eq!(p.name(), "clairvoyant");
    }

    #[test]
    fn requested_returns_estimate() {
        let mut p = RequestedTimePredictor;
        assert_eq!(p.predict(&job(100, 200), &empty_view()), 200.0);
        assert_eq!(p.name(), "requested");
    }

    #[test]
    fn requested_correction_returns_request() {
        let c = RequestedTimeCorrection;
        assert_eq!(c.correct(&job(100, 200), 50, 60, 0), 200.0);
        assert_eq!(c.name(), "requested-time");
    }
}
