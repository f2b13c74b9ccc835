//! Per-job outcomes and whole-simulation results.
//!
//! [`SimResult`] defines the scheduling aggregates a campaign cell
//! stores, each a fold over the outcomes in job-id order (0 for an empty
//! result); the prediction-quality aggregates (MAE, mean E-Loss) live
//! beside the E-Loss in `predictsim-core`.

use predictsim_metrics::{bounded_slowdown, DEFAULT_TAU};

use crate::job::JobId;
use crate::time::Time;

/// Everything recorded about one completed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutcome {
    /// Dense simulation id.
    pub id: JobId,
    /// Original SWF job number.
    pub swf_id: u64,
    /// Submitting user.
    pub user: u32,
    /// Processors used.
    pub procs: u32,
    /// Submission date.
    pub submit: Time,
    /// Execution start.
    pub start: Time,
    /// Execution end (completion or kill).
    pub end: Time,
    /// Actual running time granted (`min(p, p̃)`).
    pub run: i64,
    /// Requested running time `p̃`.
    pub requested: i64,
    /// The prediction made at submission time (after clamping).
    pub initial_prediction: i64,
    /// Number of §5.2 corrections applied while the job ran.
    pub corrections: u32,
    /// Whether the job hit its requested-time bound and was killed.
    pub killed: bool,
    /// The cluster partition the job ran on (0 on a single-partition
    /// machine) — see [`crate::cluster::ClusterSpec`].
    pub partition: u32,
}

impl JobOutcome {
    /// Waiting time (start − submit), seconds.
    #[inline]
    pub fn wait(&self) -> i64 {
        self.start.since(self.submit)
    }

    /// Bounded slowdown with the paper's τ = 10 s (§5.3).
    #[inline]
    pub fn bsld(&self) -> f64 {
        bounded_slowdown(self.wait() as f64, self.run as f64, DEFAULT_TAU)
    }
}

/// The result of simulating a workload under one heuristic triple.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Machine size `m` simulated.
    pub machine_size: u32,
    /// Outcomes ordered by job id.
    pub outcomes: Vec<JobOutcome>,
}

impl SimResult {
    /// Bounded slowdown above which a job counts as §6.5's "extremely
    /// high" values.
    pub const EXTREME_BSLD: f64 = 1000.0;

    /// Mean of `term` over the outcomes (0 when there are none).
    fn mean_of(&self, term: impl Fn(&JobOutcome) -> f64) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(term).sum::<f64>() / self.outcomes.len() as f64
    }

    /// `AVEbsld` with the paper's τ = 10 s — the objective of every table.
    pub fn ave_bsld(&self) -> f64 {
        self.mean_of(JobOutcome::bsld)
    }

    /// Maximum bounded slowdown (0 when there are no jobs).
    pub fn max_bsld(&self) -> f64 {
        self.outcomes
            .iter()
            .map(JobOutcome::bsld)
            .fold(0.0, f64::max)
    }

    /// Fraction of jobs whose bounded slowdown exceeds
    /// [`Self::EXTREME_BSLD`].
    pub fn extreme_fraction(&self) -> f64 {
        self.mean_of(|o| {
            if o.bsld() > Self::EXTREME_BSLD {
                1.0
            } else {
                0.0
            }
        })
    }

    /// Mean waiting time, seconds.
    pub fn mean_wait(&self) -> f64 {
        self.mean_of(|o| o.wait() as f64)
    }

    /// Machine utilization: busy processor-seconds over the span between
    /// the first submission and the last completion.
    pub fn utilization(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let span = self.makespan().max(1) as f64;
        let busy: f64 = self
            .outcomes
            .iter()
            .map(|o| o.run as f64 * o.procs as f64)
            .sum();
        busy / (span * self.machine_size as f64)
    }

    /// Makespan: last completion minus first submission, seconds.
    pub fn makespan(&self) -> i64 {
        if self.outcomes.is_empty() {
            return 0;
        }
        let first = self
            .outcomes
            .iter()
            .map(|o| o.submit.0)
            .min()
            .expect("non-empty");
        let last = self
            .outcomes
            .iter()
            .map(|o| o.end.0)
            .max()
            .expect("non-empty");
        last - first
    }

    /// Total number of corrections applied across all jobs.
    pub fn total_corrections(&self) -> u64 {
        self.outcomes.iter().map(|o| o.corrections as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u32, submit: i64, start: i64, run: i64, procs: u32) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            swf_id: id as u64,
            user: 1,
            procs,
            submit: Time(submit),
            start: Time(start),
            end: Time(start + run),
            run,
            requested: run * 2,
            initial_prediction: run,
            corrections: 0,
            killed: false,
            partition: 0,
        }
    }

    fn result(outcomes: Vec<JobOutcome>) -> SimResult {
        SimResult {
            machine_size: 10,
            outcomes,
        }
    }

    #[test]
    fn wait_and_bsld() {
        let o = outcome(0, 100, 300, 100, 1);
        assert_eq!(o.wait(), 200);
        assert_eq!(o.bsld(), 3.0);
        // A 1 s job that waited 99 s is bounded by τ = 10 s, not slowed 100×.
        assert_eq!(outcome(1, 0, 99, 1, 1).bsld(), 10.0);
    }

    #[test]
    fn ave_bsld_over_jobs() {
        let r = result(vec![outcome(0, 0, 0, 100, 1), outcome(1, 0, 100, 100, 1)]);
        // bslds: 1.0 and 2.0.
        assert_eq!(r.ave_bsld(), 1.5);
    }

    #[test]
    fn max_and_extreme_fraction() {
        let r = result(vec![
            outcome(0, 0, 0, 100, 1),       // 1.0
            outcome(1, 0, 99_900, 100, 1),  // 1000.0: at the threshold, not above
            outcome(2, 0, 199_900, 100, 1), // 2000.0
        ]);
        assert_eq!(r.max_bsld(), 2000.0);
        assert_eq!(r.extreme_fraction(), 1.0 / 3.0);
    }

    #[test]
    fn utilization_full_machine() {
        // One job occupying the full machine for the whole span.
        let o = JobOutcome {
            procs: 10,
            ..outcome(0, 0, 0, 100, 10)
        };
        let r = result(vec![o]);
        assert!((r.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_half_machine() {
        let o = outcome(0, 0, 0, 100, 5);
        let r = result(vec![o]);
        assert!((r.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn makespan_and_corrections() {
        let mut o2 = outcome(1, 50, 100, 200, 1);
        o2.corrections = 3;
        let r = result(vec![outcome(0, 0, 0, 100, 1), o2]);
        assert_eq!(r.makespan(), 300);
        assert_eq!(r.total_corrections(), 3);
    }

    #[test]
    fn empty_result() {
        let r = result(vec![]);
        assert_eq!(r.ave_bsld(), 0.0);
        assert_eq!(r.max_bsld(), 0.0);
        assert_eq!(r.extreme_fraction(), 0.0);
        assert_eq!(r.mean_wait(), 0.0);
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.makespan(), 0);
    }
}
