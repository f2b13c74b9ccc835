//! Observation hooks for the simulation engine.
//!
//! [`crate::engine::simulate_in`] emits a [`SimEvent`] at every
//! state change of the simulation — submission, start, §5.2 correction,
//! completion, and the final result — to a caller-supplied
//! [`SimObserver`]. [`MetricsObserver`] keeps a live view of the
//! scheduling aggregates (AVEbsld, mean wait, job and correction
//! counts, events seen) as jobs finish, and a closure observer can
//! stream progress, enforce invariants, or abort-log long simulations
//! without touching the engine. The final numbers come from the
//! [`SimResult`].
//!
//! Observers are strictly read-only: the engine hands out shared
//! references, so an observer can never perturb the schedule. A
//! simulation observed by any observer is bit-identical to the same run
//! with [`NullObserver`].
//!
//! ```
//! use predictsim_sim::{
//!     simulate_in, EasyScheduler, Job, JobId, MetricsObserver, RequestedTimePredictor, SimArena,
//!     SimConfig, Time,
//! };
//!
//! let jobs: Vec<Job> = (0..10)
//!     .map(|i| Job {
//!         id: JobId(i),
//!         submit: Time(i as i64 * 60),
//!         run: 120,
//!         requested: 600,
//!         procs: 1,
//!         user: i % 2,
//!         user_ix: i % 2,
//!         swf_id: i as u64,
//!     })
//!     .collect();
//! let mut metrics = MetricsObserver::new();
//! let result = simulate_in(
//!     &mut SimArena::new(),
//!     &jobs,
//!     SimConfig::single(4),
//!     &mut EasyScheduler::new(),
//!     &mut RequestedTimePredictor,
//!     None,
//!     &mut metrics,
//! )
//! .unwrap();
//! assert_eq!(metrics.finished(), 10);
//! // 10 submissions, 10 starts, 10 completions and the final result.
//! assert_eq!(metrics.events(), 31);
//! assert!((metrics.ave_bsld() - result.ave_bsld()).abs() < 1e-9);
//! ```

use crate::cluster::ClusterSpec;
use crate::job::Job;
use crate::outcome::{JobOutcome, SimResult};
use crate::time::Time;

/// One engine state change, in event order.
///
/// All payloads are borrowed from the engine's internal state; copy out
/// whatever must outlive the callback.
#[derive(Debug)]
pub enum SimEvent<'a> {
    /// A job was submitted and its initial prediction recorded (already
    /// clamped into `[1, p̃_j]`).
    Submitted {
        /// The submitted job.
        job: &'a Job,
        /// The clamped initial prediction, seconds.
        prediction: i64,
        /// Submission instant.
        now: Time,
    },
    /// The scheduler started a job.
    Started {
        /// The started job.
        job: &'a Job,
        /// Start instant.
        now: Time,
        /// When the current prediction says the job will end.
        predicted_end: Time,
    },
    /// A running job outlived its prediction and a §5.2 correction
    /// produced a replacement estimate (already clamped).
    Corrected {
        /// The under-predicted job.
        job: &'a Job,
        /// Instant of the expiry.
        now: Time,
        /// The prediction that just expired (seconds from job start).
        expired_prediction: i64,
        /// The corrected prediction (seconds from job start).
        new_prediction: i64,
        /// How many corrections this job has now received.
        corrections: u32,
    },
    /// A job completed (or was killed at its requested time).
    Finished {
        /// The recorded outcome.
        outcome: &'a JobOutcome,
    },
    /// The simulation drained its event queue; the result is final.
    Completed {
        /// The assembled result (outcomes sorted by job id).
        result: &'a SimResult,
    },
}

/// Receives every [`SimEvent`] of a simulation run.
///
/// Implemented by [`NullObserver`], [`MetricsObserver`],
/// [`UtilizationObserver`], and — through the blanket impl — any
/// `FnMut(&SimEvent<'_>)` closure. The live readers (`repro
/// --progress`, the serve daemon's `metrics` frames) are private
/// observers of their own that feed a [`MetricsObserver`].
pub trait SimObserver {
    /// Called once per engine state change, in event order.
    fn on_event(&mut self, event: &SimEvent<'_>);

    /// Polled by the engine once per event batch: returning `false`
    /// aborts the simulation (the engine returns
    /// [`crate::engine::SimError::Aborted`]). The default never aborts,
    /// so plain observers — including the closure blanket impl — are
    /// unaffected. This is the cooperative-cancellation seam: the serve
    /// daemon's deadline, client-disconnect and drain cancellation all
    /// reach a running simulation through it.
    fn keep_running(&self) -> bool {
        true
    }
}

impl<F: FnMut(&SimEvent<'_>)> SimObserver for F {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        self(event)
    }
}

/// The do-nothing observer, for runs nobody watches.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl SimObserver for NullObserver {
    fn on_event(&mut self, _event: &SimEvent<'_>) {}
}

/// The live view of a running simulation's scheduling metrics: exactly
/// what `--progress` heartbeat lines and the serve daemon's `metrics`
/// frames print, including the count of events seen, which sets their
/// cadence.
///
/// After each `Finished` event the values reflect all jobs completed so
/// far. Sums accumulate in completion order, so they may differ in the
/// last bits from the final numbers, which come from the job-id-ordered
/// [`SimResult`] methods ([`SimResult::ave_bsld`] and co).
#[derive(Debug, Clone, Default)]
pub struct MetricsObserver {
    events: u64,
    submitted: usize,
    started: usize,
    finished: usize,
    killed: usize,
    corrections: u64,
    bsld_sum: f64,
    max_bsld: f64,
    wait_sum: f64,
}

impl MetricsObserver {
    /// A fresh accumulator (bounded slowdown with the paper's τ = 10 s).
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine events seen so far, of every kind (`Completed` included).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Jobs submitted so far.
    pub fn submitted(&self) -> usize {
        self.submitted
    }

    /// Jobs started so far.
    pub fn started(&self) -> usize {
        self.started
    }

    /// Jobs finished so far.
    pub fn finished(&self) -> usize {
        self.finished
    }

    /// Jobs killed at their requested-time bound so far.
    pub fn killed(&self) -> usize {
        self.killed
    }

    /// §5.2 corrections applied so far.
    pub fn corrections(&self) -> u64 {
        self.corrections
    }

    /// Mean bounded slowdown of the jobs finished so far (≥ 1, or 0.0
    /// before the first completion).
    pub fn ave_bsld(&self) -> f64 {
        if self.finished == 0 {
            0.0
        } else {
            self.bsld_sum / self.finished as f64
        }
    }

    /// Maximum bounded slowdown seen so far.
    pub fn max_bsld(&self) -> f64 {
        self.max_bsld
    }

    /// Mean waiting time (seconds) of the jobs finished so far.
    pub fn mean_wait(&self) -> f64 {
        if self.finished == 0 {
            0.0
        } else {
            self.wait_sum / self.finished as f64
        }
    }
}

impl SimObserver for MetricsObserver {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        self.events += 1;
        match event {
            SimEvent::Submitted { .. } => self.submitted += 1,
            SimEvent::Started { .. } => self.started += 1,
            SimEvent::Corrected { .. } => self.corrections += 1,
            SimEvent::Finished { outcome } => {
                self.finished += 1;
                if outcome.killed {
                    self.killed += 1;
                }
                let bsld = outcome.bsld();
                self.bsld_sum += bsld;
                self.max_bsld = self.max_bsld.max(bsld);
                self.wait_sum += outcome.wait() as f64;
            }
            SimEvent::Completed { .. } => {}
        }
    }
}

/// Per-partition utilization time series on simulated-time buckets.
///
/// Busy processor-seconds accumulate from `Finished` outcomes into
/// fixed-width buckets of simulated time (anchored at the first
/// submission), one growable series per partition — the compressed
/// per-resource monitoring shape of cluster simulators, maintained
/// incrementally so a streaming consumer (the serve daemon's `metrics`
/// frames) can snapshot it mid-run.
///
/// Because busy time is recorded at `Finished`, the trailing buckets of
/// a snapshot undercount still-running jobs; the series is exact once
/// the simulation completes.
#[derive(Debug, Clone)]
pub struct UtilizationObserver {
    cluster: ClusterSpec,
    bucket_seconds: i64,
    origin: Option<i64>,
    busy: Vec<Vec<f64>>,
}

impl UtilizationObserver {
    /// Default bucket width: one simulated hour.
    pub const DEFAULT_BUCKET_SECONDS: i64 = 3_600;

    /// A fresh accumulator for `cluster` with `bucket_seconds`-wide
    /// buckets (clamped to at least 1 s).
    pub fn new(cluster: ClusterSpec, bucket_seconds: i64) -> Self {
        let busy = vec![Vec::new(); cluster.len()];
        Self {
            cluster,
            bucket_seconds: bucket_seconds.max(1),
            origin: None,
            busy,
        }
    }

    /// The bucket width, simulated seconds.
    pub fn bucket_seconds(&self) -> i64 {
        self.bucket_seconds
    }

    /// Number of partitions tracked.
    pub fn partitions(&self) -> usize {
        self.busy.len()
    }

    /// Utilization fraction per bucket for `partition`: busy
    /// processor-seconds over `bucket_seconds × partition size`.
    pub fn utilization(&self, partition: usize) -> Vec<f64> {
        let capacity = self.bucket_seconds as f64 * self.cluster.part(partition).size as f64;
        self.busy[partition].iter().map(|b| b / capacity).collect()
    }

    /// Run-length-compressed utilization for `partition`: `(fraction,
    /// repeat)` pairs over values rounded to 4 decimals — the compact
    /// wire form for streamed metrics frames.
    pub fn compressed(&self, partition: usize) -> Vec<(f64, u32)> {
        let mut runs: Vec<(f64, u32)> = Vec::new();
        for value in self.utilization(partition) {
            let rounded = (value * 1e4).round() / 1e4;
            match runs.last_mut() {
                Some((v, n)) if *v == rounded => *n += 1,
                _ => runs.push((rounded, 1)),
            }
        }
        runs
    }

    fn record(&mut self, outcome: &JobOutcome) {
        let origin = match self.origin {
            Some(o) => o.min(outcome.submit.0),
            None => outcome.submit.0,
        };
        self.origin = Some(origin);
        let (start, end) = (outcome.start.0, outcome.end.0);
        if end <= start || outcome.procs == 0 {
            return;
        }
        let series = &mut self.busy[outcome.partition as usize];
        let first = ((start - origin) / self.bucket_seconds).max(0) as usize;
        let last = ((end - 1 - origin) / self.bucket_seconds).max(0) as usize;
        if series.len() <= last {
            series.resize(last + 1, 0.0);
        }
        for (i, slot) in series.iter_mut().enumerate().take(last + 1).skip(first) {
            let lo = origin + i as i64 * self.bucket_seconds;
            let hi = lo + self.bucket_seconds;
            let overlap = (end.min(hi) - start.max(lo)).max(0);
            *slot += overlap as f64 * outcome.procs as f64;
        }
    }
}

impl SimObserver for UtilizationObserver {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        match event {
            SimEvent::Submitted { job, .. } => {
                let submit = job.submit.0;
                self.origin = Some(self.origin.map_or(submit, |o| o.min(submit)));
            }
            SimEvent::Finished { outcome } => self.record(outcome),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::SimArena;
    use crate::engine::{simulate_in, SimConfig};
    use crate::job::JobId;
    use crate::predict::{FixedPredictor, RequestedTimeCorrection, RequestedTimePredictor};
    use crate::scheduler::EasyScheduler;

    fn jobs(n: u32) -> Vec<Job> {
        (0..n)
            .map(|i| Job {
                id: JobId(i),
                submit: Time(i as i64 * 40),
                run: 100 + (i as i64 % 3) * 50,
                requested: 400,
                procs: 1 + i % 3,
                user: i % 2,
                user_ix: i % 2,
                swf_id: i as u64,
            })
            .collect()
    }

    #[test]
    fn closure_observer_sees_every_lifecycle_event() {
        let js = jobs(12);
        let mut submits = 0usize;
        let mut starts = 0usize;
        let mut finishes = 0usize;
        let mut completed = 0usize;
        let mut observer = |e: &SimEvent<'_>| match e {
            SimEvent::Submitted { .. } => submits += 1,
            SimEvent::Started { .. } => starts += 1,
            SimEvent::Finished { .. } => finishes += 1,
            SimEvent::Completed { result } => {
                completed += 1;
                assert_eq!(result.outcomes.len(), 12);
            }
            SimEvent::Corrected { .. } => {}
        };
        simulate_in(
            &mut SimArena::new(),
            &js,
            SimConfig::single(4),
            &mut EasyScheduler::new(),
            &mut RequestedTimePredictor,
            None,
            &mut observer,
        )
        .unwrap();
        assert_eq!((submits, starts, finishes, completed), (12, 12, 12, 1));
    }

    #[test]
    fn metrics_observer_matches_post_hoc_scan() {
        let js = jobs(20);
        let cfg = SimConfig::single(5);
        let mut metrics = MetricsObserver::new();
        let observed = simulate_in(
            &mut SimArena::new(),
            &js,
            cfg,
            &mut EasyScheduler::sjbf(),
            &mut RequestedTimePredictor,
            None,
            &mut metrics,
        )
        .unwrap();
        let plain = simulate_in(
            &mut SimArena::new(),
            &js,
            cfg,
            &mut EasyScheduler::sjbf(),
            &mut RequestedTimePredictor,
            None,
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(observed, plain, "observation must not perturb the engine");
        assert_eq!(metrics.submitted(), plain.outcomes.len());
        assert_eq!(metrics.started(), plain.outcomes.len());
        assert_eq!(metrics.finished(), plain.outcomes.len());
        // Submitted, Started and Finished per job, each correction, and
        // the final Completed.
        let per_job = 3 * plain.outcomes.len() as u64;
        assert_eq!(metrics.events(), per_job + metrics.corrections() + 1);
        assert!((metrics.ave_bsld() - plain.ave_bsld()).abs() < 1e-9);
        assert_eq!(metrics.max_bsld(), plain.max_bsld());
        assert!((metrics.mean_wait() - plain.mean_wait()).abs() < 1e-9);
        assert_eq!(metrics.corrections(), plain.total_corrections());
    }

    #[test]
    fn corrections_are_observed() {
        let js = vec![Job {
            id: JobId(0),
            submit: Time(0),
            run: 100,
            requested: 1000,
            procs: 1,
            user: 0,
            user_ix: 0,
            swf_id: 0,
        }];
        let corr = RequestedTimeCorrection;
        let mut corrected = Vec::new();
        let mut observer = |e: &SimEvent<'_>| {
            if let SimEvent::Corrected {
                expired_prediction,
                new_prediction,
                corrections,
                ..
            } = e
            {
                corrected.push((*expired_prediction, *new_prediction, *corrections));
            }
        };
        simulate_in(
            &mut SimArena::new(),
            &js,
            SimConfig::single(2),
            &mut EasyScheduler::new(),
            &mut FixedPredictor(10.0),
            Some(&corr),
            &mut observer,
        )
        .unwrap();
        assert_eq!(corrected, vec![(10, 1000, 1)]);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = MetricsObserver::new();
        assert_eq!(m.events(), 0);
        assert_eq!(m.ave_bsld(), 0.0);
        assert_eq!(m.max_bsld(), 0.0);
        assert_eq!(m.mean_wait(), 0.0);
    }

    #[test]
    fn utilization_observer_buckets_busy_time() {
        // One job: submit 0, runs on 2 procs from t=50 to t=250 with
        // 100 s buckets → buckets carry 50·2, 100·2, 50·2 busy seconds.
        let outcome = JobOutcome {
            id: JobId(0),
            swf_id: 0,
            user: 0,
            procs: 2,
            run: 200,
            requested: 400,
            submit: Time(0),
            start: Time(50),
            end: Time(250),
            initial_prediction: 400,
            corrections: 0,
            killed: false,
            partition: 0,
        };
        let mut u = UtilizationObserver::new(ClusterSpec::single(4), 100);
        u.on_event(&SimEvent::Finished { outcome: &outcome });
        assert_eq!(u.busy[0], [100.0, 200.0, 100.0]);
        let frac = u.utilization(0);
        assert_eq!(frac, vec![0.25, 0.5, 0.25]);
        assert_eq!(u.origin, Some(0));
    }

    #[test]
    fn utilization_observer_matches_overall_utilization() {
        let js = jobs(30);
        let cfg = SimConfig::single(5);
        let mut util = UtilizationObserver::new(cfg.cluster, 60);
        let result = simulate_in(
            &mut SimArena::new(),
            &js,
            cfg,
            &mut EasyScheduler::sjbf(),
            &mut RequestedTimePredictor,
            None,
            &mut util,
        )
        .unwrap();
        let total: f64 = util.busy[0].iter().sum();
        let work: f64 = result
            .outcomes
            .iter()
            .map(|o| (o.end.0 - o.start.0) as f64 * o.procs as f64)
            .sum();
        assert!((total - work).abs() < 1e-6, "{total} vs {work}");
        // The RLE form decompresses back to the raw series.
        let decompressed: Vec<f64> = util
            .compressed(0)
            .iter()
            .flat_map(|&(v, n)| std::iter::repeat_n(v, n as usize))
            .collect();
        assert_eq!(decompressed.len(), util.utilization(0).len());
    }

    #[test]
    fn utilization_observer_separates_partitions() {
        let mk = |partition: u32, start: i64, end: i64| JobOutcome {
            id: JobId(partition),
            swf_id: partition as u64,
            user: 0,
            procs: 1,
            run: end - start,
            requested: end - start,
            submit: Time(0),
            start: Time(start),
            end: Time(end),
            initial_prediction: end - start,
            corrections: 0,
            killed: false,
            partition,
        };
        let cluster: ClusterSpec = "cluster:4x1+2x0.5".parse().unwrap();
        let mut u = UtilizationObserver::new(cluster, 10);
        u.on_event(&SimEvent::Finished {
            outcome: &mk(0, 0, 10),
        });
        u.on_event(&SimEvent::Finished {
            outcome: &mk(1, 10, 30),
        });
        assert_eq!(u.partitions(), 2);
        assert_eq!(u.busy[0], [10.0]);
        assert_eq!(u.busy[1], [0.0, 10.0, 10.0]);
        // Partition capacity differs: 4 procs vs 2.
        assert_eq!(u.utilization(0), vec![0.25]);
        assert_eq!(u.utilization(1), vec![0.0, 0.5, 0.5]);
    }
}
