//! Feature extraction — Table 2 of the paper.
//!
//! A job is represented by a vector `x_j ∈ R^n` built from three sources:
//! the job's own description (`p̃_j`, `q_j`), the submitting user's
//! history (last run times, averages, break time), the current state of
//! the system (the user's running jobs), and the environment (periodic
//! time-of-day / day-of-week encodings).
//!
//! The extractor is *stateful and strictly on-line*: history features are
//! computed from completions observed so far, and the state features from
//! the running set at the job's release date — no information from the
//! future ever enters a feature vector.

use predictsim_sim::{Job, SystemView, DAY, WEEK};

/// Number of features in the Table 2 representation.
pub const N_FEATURES: usize = 20;

/// Human-readable names of the features, index-aligned with
/// [`FeatureExtractor::extract`]'s output. Useful for model inspection.
pub const FEATURE_NAMES: [&str; N_FEATURES] = [
    "requested_time",      // p̃_j
    "last_run_1",          // p_(j-1) of same user
    "last_run_2",          // p_(j-2)
    "last_run_3",          // p_(j-3)
    "ave2_run",            // AVE_2 of last two recorded runs
    "ave3_run",            // AVE_3 of last three recorded runs
    "ave_all_run",         // AVE_all over the user's history
    "requested_procs",     // q_j
    "ave_hist_procs",      // AVE_hist of past resource requests
    "procs_over_ave_hist", // q_j normalized by AVE_hist
    "ave_running_procs",   // AVE_curr over currently running jobs
    "jobs_running",        // count of the user's running jobs
    "longest_running",     // longest elapsed among them
    "sum_running",         // sum of elapsed times among them
    "occupied_resources",  // procs currently held by the user
    "break_time",          // time since the user's last completion
    "cos_day",             // cos(2π (r_j mod t_day)/t_day)
    "sin_day",             // sin of the same phase
    "cos_week",            // cos(2π (r_j mod t_week)/t_week)
    "sin_week",            // sin of the same phase
];

/// Per-user running history, updated on submissions and completions.
#[derive(Debug, Clone, Default)]
struct UserHistory {
    /// Most recent completed run times, newest first: the first
    /// `min(completed, 3)` are real (kept inline, so a history costs no
    /// allocation of its own).
    last_runs: [f64; 3],
    /// Sum and count over all completed jobs.
    sum_runs: f64,
    completed: u64,
    /// Sum and count of resource requests over all *submitted* jobs.
    sum_procs: f64,
    submitted: u64,
    /// Completion instant of the user's most recent finished job.
    last_completion: Option<i64>,
}

impl UserHistory {
    fn record_submit(&mut self, procs: u32) {
        self.sum_procs += procs as f64;
        self.submitted += 1;
    }

    fn record_completion(&mut self, run: i64, now: i64) {
        self.last_runs.copy_within(..2, 1);
        self.last_runs[0] = run as f64;
        self.sum_runs += run as f64;
        self.completed += 1;
        self.last_completion = Some(now);
    }

    /// The recorded run times, newest first.
    fn kept(&self) -> &[f64] {
        &self.last_runs[..(self.completed as usize).min(3)]
    }

    fn last_run(&self, back: usize) -> f64 {
        self.kept().get(back).copied().unwrap_or(0.0)
    }

    fn ave_last(&self, k: usize) -> f64 {
        let kept = self.kept();
        if kept.is_empty() {
            return 0.0;
        }
        let take = kept.len().min(k);
        kept[..take].iter().sum::<f64>() / take as f64
    }

    fn ave_all(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.sum_runs / self.completed as f64
        }
    }

    fn ave_procs(&self) -> Option<f64> {
        (self.submitted > 0).then(|| self.sum_procs / self.submitted as f64)
    }
}

/// Stateful Table 2 feature extractor.
///
/// Protocol (enforced by the predictor wrapper in
/// [`crate::predictor::MlPredictor`]):
///
/// 1. at submission: [`FeatureExtractor::extract`], *then*
///    [`FeatureExtractor::record_submit`];
/// 2. at completion: [`FeatureExtractor::record_completion`].
///
/// Histories live in a flat slab indexed by the *interned* dense user
/// index (`Job::user_ix`, assigned at load time) — the extractor never
/// hashes a user id on the per-event path. An untouched slab slot
/// carries the same default feature values as an absent map entry did,
/// so the slab is behavior-identical to the per-user map it replaced.
#[derive(Debug, Clone, Default)]
pub struct FeatureExtractor {
    /// `users[user_ix]` = that user's history, grown lazily.
    users: Vec<UserHistory>,
}

impl FeatureExtractor {
    /// A fresh extractor with no history.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot_mut(&mut self, user_ix: u32) -> &mut UserHistory {
        let ix = user_ix as usize;
        if ix >= self.users.len() {
            self.users.resize_with(ix + 1, UserHistory::default);
        }
        &mut self.users[ix]
    }

    /// Builds the Table 2 feature vector for `job` at its release date.
    pub fn extract(&self, job: &Job, system: &SystemView<'_>) -> [f64; N_FEATURES] {
        let hist = self.users.get(job.user_ix as usize);
        let now = system.now.0;

        // Historical run-time features.
        let (l1, l2, l3, ave2, ave3, ave_all) = match hist {
            Some(h) => (
                h.last_run(0),
                h.last_run(1),
                h.last_run(2),
                h.ave_last(2),
                h.ave_last(3),
                h.ave_all(),
            ),
            None => (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        };

        // Resource-request features. With no history, the user's average
        // request is taken to be this job's request (ratio 1), avoiding a
        // spurious zero.
        let q = job.procs as f64;
        let ave_hist_q = hist.and_then(|h| h.ave_procs()).unwrap_or(q);
        let q_ratio = if ave_hist_q > 0.0 {
            q / ave_hist_q
        } else {
            1.0
        };

        // Current-state features over the user's running jobs. The
        // engine's per-user index serves the same `(procs, start)` set as
        // a scan of the full running vector, and every aggregate below is
        // order-free (integer-valued f64 sums and a max are exact), so
        // the two paths produce identical features — the index just skips
        // the O(running) scan per submission.
        let mut n_running = 0.0;
        let mut sum_q_running = 0.0;
        let mut longest = 0.0;
        let mut sum_elapsed = 0.0;
        let mut occupied = 0.0;
        let mut tally = |procs: u32, start: predictsim_sim::Time| {
            n_running += 1.0;
            sum_q_running += procs as f64;
            let elapsed = system.now.since(start) as f64;
            longest = f64::max(longest, elapsed);
            sum_elapsed += elapsed;
            occupied += procs as f64;
        };
        match system.user_running {
            Some(index) => {
                for &(procs, start) in index.of_user(job.user_ix) {
                    tally(procs, start);
                }
            }
            None => {
                for r in system.running_of_user(job.user_ix) {
                    tally(r.procs, r.start);
                }
            }
        }
        let ave_curr_q = if n_running > 0.0 {
            sum_q_running / n_running
        } else {
            0.0
        };

        // Break time: elapsed since the user's last job completion.
        let break_time = hist
            .and_then(|h| h.last_completion)
            .map(|t| (now - t).max(0) as f64)
            .unwrap_or(0.0);

        // Periodic encodings of the release date.
        let day_phase = 2.0 * std::f64::consts::PI * (now.rem_euclid(DAY) as f64) / DAY as f64;
        let week_phase = 2.0 * std::f64::consts::PI * (now.rem_euclid(WEEK) as f64) / WEEK as f64;

        [
            job.requested as f64,
            l1,
            l2,
            l3,
            ave2,
            ave3,
            ave_all,
            q,
            ave_hist_q,
            q_ratio,
            ave_curr_q,
            n_running,
            longest,
            sum_elapsed,
            occupied,
            break_time,
            day_phase.cos(),
            day_phase.sin(),
            week_phase.cos(),
            week_phase.sin(),
        ]
    }

    /// Records that `job` was submitted (updates the resource-request
    /// history). Call after [`FeatureExtractor::extract`].
    pub fn record_submit(&mut self, job: &Job) {
        self.slot_mut(job.user_ix).record_submit(job.procs);
    }

    /// Records a completion of `job` with granted running time
    /// `actual_run` at instant `now`.
    pub fn record_completion(&mut self, job: &Job, actual_run: i64, now: i64) {
        self.slot_mut(job.user_ix)
            .record_completion(actual_run, now);
    }

    /// The user's AVE2 (mean of the last ≤2 completed run times), or
    /// `None` with no history — used directly by the AVE2 baseline
    /// predictor of Tsafrir et al. \[24\]. Keyed by the interned
    /// `user_ix`, like every other per-user lookup.
    pub fn ave2(&self, user_ix: u32) -> Option<f64> {
        let h = self.users.get(user_ix as usize)?;
        (h.completed > 0).then(|| h.ave_last(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predictsim_sim::{JobId, RunningJob, Time};

    fn job(user: u32, procs: u32, requested: i64, submit: i64) -> Job {
        Job {
            id: JobId(0),
            submit: Time(submit),
            run: 100,
            requested,
            procs,
            user,
            user_ix: user,
            swf_id: 0,
        }
    }

    fn view(now: i64, running: &[RunningJob]) -> SystemView<'_> {
        SystemView {
            now: Time(now),
            machine_size: 64,
            running,
            user_running: None,
        }
    }

    fn running(user: u32, procs: u32, start: i64) -> RunningJob {
        RunningJob {
            id: JobId(9),
            procs,
            start: Time(start),
            predicted_end: Time(start + 1000),
            deadline: Time(start + 2000),
            user,
            corrections: 0,
            partition: 0,
        }
    }

    #[test]
    fn fresh_user_has_zero_history_features() {
        let fx = FeatureExtractor::new();
        let f = fx.extract(&job(1, 4, 3600, 0), &view(0, &[]));
        assert_eq!(f[0], 3600.0); // requested time
        assert_eq!(f[1], 0.0); // no last runs
        assert_eq!(f[4], 0.0); // AVE2
        assert_eq!(f[6], 0.0); // AVEall
        assert_eq!(f[7], 4.0); // q
        assert_eq!(f[8], 4.0); // AVEhist defaults to q
        assert_eq!(f[9], 1.0); // ratio defaults to 1
        assert_eq!(f[15], 0.0); // no break time
    }

    #[test]
    fn completion_history_feeds_run_features() {
        let mut fx = FeatureExtractor::new();
        let j = job(1, 4, 3600, 0);
        fx.record_completion(&j, 100, 1000);
        fx.record_completion(&j, 200, 2000);
        fx.record_completion(&j, 400, 3000);
        fx.record_completion(&j, 800, 4000);
        let f = fx.extract(&j, &view(5000, &[]));
        assert_eq!(f[1], 800.0); // most recent
        assert_eq!(f[2], 400.0);
        assert_eq!(f[3], 200.0);
        assert_eq!(f[4], 600.0); // AVE2 = (800+400)/2
        assert!((f[5] - 1400.0 / 3.0).abs() < 1e-9); // AVE3
        assert_eq!(f[6], 375.0); // AVEall = 1500/4
        assert_eq!(f[15], 1000.0); // break time = 5000-4000
    }

    #[test]
    fn partial_history_averages_over_what_exists() {
        let mut fx = FeatureExtractor::new();
        let j = job(1, 4, 3600, 0);
        fx.record_completion(&j, 500, 100);
        let f = fx.extract(&j, &view(200, &[]));
        assert_eq!(f[4], 500.0); // AVE2 over a single sample
        assert_eq!(f[5], 500.0); // AVE3 likewise
        assert_eq!(fx.ave2(1), Some(500.0));
        assert_eq!(fx.ave2(42), None);
    }

    #[test]
    fn submit_history_feeds_resource_features() {
        let mut fx = FeatureExtractor::new();
        fx.record_submit(&job(1, 2, 100, 0));
        fx.record_submit(&job(1, 6, 100, 0));
        let f = fx.extract(&job(1, 8, 100, 0), &view(0, &[]));
        assert_eq!(f[8], 4.0); // (2+6)/2
        assert_eq!(f[9], 2.0); // 8/4
    }

    #[test]
    fn running_state_features() {
        let fx = FeatureExtractor::new();
        let running = [running(1, 4, 100), running(1, 2, 400), running(9, 8, 0)];
        let f = fx.extract(&job(1, 1, 100, 500), &view(500, &running));
        assert_eq!(f[10], 3.0); // AVEcurr q = (4+2)/2
        assert_eq!(f[11], 2.0); // two running jobs of user 1
        assert_eq!(f[12], 400.0); // longest elapsed: 500-100
        assert_eq!(f[13], 500.0); // sum elapsed: 400 + 100
        assert_eq!(f[14], 6.0); // occupied procs
    }

    #[test]
    fn periodic_features_wrap() {
        let fx = FeatureExtractor::new();
        let f0 = fx.extract(&job(1, 1, 100, 0), &view(0, &[]));
        let f1 = fx.extract(&job(1, 1, 100, DAY), &view(DAY, &[]));
        assert!(
            (f0[16] - f1[16]).abs() < 1e-9,
            "cos_day must be day-periodic"
        );
        assert!((f0[17] - f1[17]).abs() < 1e-9);
        // Midday is the opposite phase of midnight.
        let fm = fx.extract(&job(1, 1, 100, DAY / 2), &view(DAY / 2, &[]));
        assert!(
            (fm[16] + 1.0).abs() < 1e-9,
            "cos at half day ≈ -1, got {}",
            fm[16]
        );
    }

    #[test]
    fn users_are_isolated() {
        let mut fx = FeatureExtractor::new();
        fx.record_completion(&job(1, 1, 100, 0), 999, 100);
        let f = fx.extract(&job(2, 1, 100, 0), &view(200, &[]));
        assert_eq!(f[1], 0.0, "user 2 must not see user 1's history");
    }

    #[test]
    fn feature_names_align() {
        assert_eq!(FEATURE_NAMES.len(), N_FEATURES);
        assert_eq!(FEATURE_NAMES[0], "requested_time");
        assert_eq!(FEATURE_NAMES[19], "sin_week");
    }
}
