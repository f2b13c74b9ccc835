//! Per-job outcomes and whole-simulation results.

use predictsim_metrics::{ave_bsld, BsldRecord, DEFAULT_TAU};

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

    /// Bounded-slowdown record for this job.
    #[inline]
    pub fn bsld_record(&self) -> BsldRecord {
        BsldRecord::new(self.wait() as f64, self.run as f64)
    }
}

/// The result of simulating a workload under one heuristic triple.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Machine size `m` simulated.
    pub machine_size: u32,
    /// Outcomes ordered by job id.
    pub outcomes: Vec<JobOutcome>,
    /// Scheduler name (e.g. `"easy-sjbf"`).
    pub scheduler: String,
    /// Predictor name (e.g. `"clairvoyant"`).
    pub predictor: String,
    /// Correction policy name, if one was installed.
    pub correction: Option<String>,
}

impl SimResult {
    /// `AVEbsld` with the paper's τ = 10 s — the objective of every table.
    pub fn ave_bsld(&self) -> f64 {
        let records: Vec<BsldRecord> = self.outcomes.iter().map(|o| o.bsld_record()).collect();
        ave_bsld(&records, DEFAULT_TAU)
    }

    /// Mean waiting time, seconds.
    pub fn mean_wait(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(|o| o.wait() as f64).sum::<f64>() / self.outcomes.len() as f64
    }

    /// Machine utilization: busy processor-seconds over the span between
    /// the first submission and the last completion.
    pub fn utilization(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let first_submit = self
            .outcomes
            .iter()
            .map(|o| o.submit.0)
            .min()
            .expect("non-empty");
        let last_end = self
            .outcomes
            .iter()
            .map(|o| o.end.0)
            .max()
            .expect("non-empty");
        let span = (last_end - first_submit).max(1) as f64;
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
            scheduler: "easy".into(),
            predictor: "clairvoyant".into(),
            correction: None,
        }
    }

    #[test]
    fn wait_and_bsld() {
        let o = outcome(0, 100, 300, 100, 1);
        assert_eq!(o.wait(), 200);
        assert_eq!(o.bsld_record().bsld(10.0), 3.0);
    }

    #[test]
    fn ave_bsld_over_jobs() {
        let r = result(vec![outcome(0, 0, 0, 100, 1), outcome(1, 0, 100, 100, 1)]);
        // bslds: 1.0 and 2.0.
        assert_eq!(r.ave_bsld(), 1.5);
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
        assert_eq!(r.mean_wait(), 0.0);
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.makespan(), 0);
    }
}
