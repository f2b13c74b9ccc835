//! The discrete-event simulation engine.
//!
//! Drives a workload (a submit-ordered job vector) through a
//! [`Scheduler`], consulting a
//! [`RuntimePredictor`] at each
//! submission and a [`CorrectionPolicy`]
//! each time a running job outlives its prediction (§5.2 of the paper).
//!
//! ## Semantics
//!
//! * **Kill at requested time** (§2.1): a job runs for `min(p_j, p̃_j)`.
//! * **Prediction clamping**: initial predictions are clamped to
//!   `[1, p̃_j]`; corrected predictions to `(elapsed, p̃_j]` — §5.2 notes
//!   updated estimates "remain bounded by the requested running times".
//! * **On-line learning protocol**: the predictor sees each job once at
//!   submission (predict) and once at completion (observe), in event
//!   order, so no information from the future ever leaks into a
//!   prediction — the train/test discipline of §4.2.
//! * **Event batching**: all events at one instant are applied before a
//!   single scheduling pass runs, so the scheduler always sees a
//!   consistent snapshot (completions freeing processors, corrections
//!   updating estimates, then arrivals).
//!
//! ## Hot-loop discipline
//!
//! One `Engine` works in a [`SimArena`] that owns every per-run buffer —
//! the indexed [`SimState`](crate::state::SimState), the event heap, the
//! start list and the outcome vector — all reused across runs. Arrivals
//! are not events: a cursor over the submit-sorted job slice yields them,
//! so the [`EventQueue`](crate::event::EventQueue) holds only the
//! finishes and expiries of running jobs. Each job's outcome is written
//! once, in place: its own fields when it arrives, the rest when it
//! finishes; the finished vector then moves into the [`SimResult`]. Event
//! handlers resolve jobs through the slot map in O(1) (no scans), and
//! the scheduling pass is *skipped* for batches that provably cannot
//! start anything: an empty queue, or zero free processors (every valid
//! job needs at least one). Schedulers must therefore decide each pass
//! from the context alone (see [`Scheduler::schedule_into`]); all
//! bundled policies do.

use crate::arena::SimArena;
use crate::cluster::ClusterSpec;
use crate::event::EventKind;
use crate::job::{Job, JobId};
use crate::observe::{SimEvent, SimObserver};
use crate::outcome::{JobOutcome, SimResult};
use crate::predict::{CorrectionPolicy, RuntimePredictor};
use crate::scheduler::Scheduler;
use crate::state::{RunningJob, SchedulerContext, SystemView, WaitingJob};
use crate::time::Time;

/// Configuration for one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// The machine: one or more processor partitions (see
    /// [`ClusterSpec`]). [`SimConfig::single`] builds the paper's
    /// single homogeneous machine, on which every simulation is
    /// byte-identical to the pre-cluster engine.
    pub cluster: ClusterSpec,
}

impl SimConfig {
    /// The legacy configuration: one homogeneous partition of
    /// `machine_size` processors at speed 1.0.
    pub fn single(machine_size: u32) -> Self {
        Self {
            cluster: ClusterSpec::single(machine_size),
        }
    }

    /// Total processors across all partitions (the legacy `m`).
    pub fn machine_size(&self) -> u32 {
        self.cluster.total_procs()
    }
}

/// Errors detected before or during simulation. These all indicate misuse
/// (malformed workload) or a policy bug, not a runtime condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The job vector is not sorted by submission time.
    UnsortedJobs {
        /// Index of the first out-of-order job.
        position: usize,
    },
    /// A job's dense id does not match its index.
    MisnumberedJob {
        /// Index of the mismatched job.
        position: usize,
    },
    /// A job fails structural validation (zero procs, …).
    InvalidJob {
        /// Human-readable description.
        message: String,
    },
    /// A job requests more processors than the machine has.
    JobTooLarge {
        /// The offending job.
        id: JobId,
        /// Its processor request.
        procs: u32,
        /// The machine size it exceeds.
        machine: u32,
    },
    /// The scheduler returned a job that is not waiting, or over-committed
    /// the machine.
    SchedulerViolation {
        /// Human-readable description.
        message: String,
    },
    /// The observer requested an abort (see
    /// [`crate::observe::SimObserver::keep_running`]). Not an error
    /// condition of the simulation itself — the control outcome of a
    /// cooperative cancellation.
    Aborted {
        /// Simulation instant at which the abort took effect.
        at: Time,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnsortedJobs { position } => {
                write!(f, "jobs not sorted by submit time at position {position}")
            }
            SimError::MisnumberedJob { position } => {
                write!(f, "job at position {position} has mismatched dense id")
            }
            SimError::InvalidJob { message } => write!(f, "invalid job: {message}"),
            SimError::JobTooLarge { id, procs, machine } => {
                write!(f, "{id} requests {procs} procs on a {machine}-proc machine")
            }
            SimError::SchedulerViolation { message } => {
                write!(f, "scheduler violation: {message}")
            }
            SimError::Aborted { at } => {
                write!(f, "simulation aborted by its observer at t={}", at.0)
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Runs one complete simulation *in* `arena`, reusing its buffers
/// instead of allocating fresh ones (see [`SimArena`](crate::SimArena)),
/// and reporting every engine state change to `observer` (see
/// [`SimObserver`](crate::SimObserver)).
///
/// `jobs` must be sorted by (submit, id) with dense ids `0..n` — exactly
/// what a workload loader produces — and their time span, last submit
/// plus every request, must fit an `i64` (see [`SimError::InvalidJob`]). The
/// `correction` policy is consulted on under-predictions; when `None`,
/// expired predictions fall back to the requested time (the safest
/// assumption, and the paper's *Requested Time* correction).
///
/// The arena retains capacity between runs, never state — so a warm
/// worker simulates without allocating — and the observer only receives
/// shared references, so observation cannot perturb the schedule: a
/// warm arena or any observer gives the result of a fresh
/// `SimArena::new()` with [`NullObserver`](crate::observe::NullObserver).
pub fn simulate_in(
    arena: &mut SimArena,
    jobs: &[Job],
    config: SimConfig,
    scheduler: &mut dyn Scheduler,
    predictor: &mut dyn RuntimePredictor,
    correction: Option<&dyn CorrectionPolicy>,
    observer: &mut dyn SimObserver,
) -> Result<SimResult, SimError> {
    // Poison-cell injection point (`REPRO_FAULTS=cell.panic:...`): a
    // fire panics *before* the engine touches the arena, so the caught
    // panic leaves nothing torn and the retrying caller (the cache's
    // isolation layer) re-enters a cleanly resettable arena. With no
    // plan installed this is one relaxed atomic load.
    predictsim_faultline::maybe_panic("cell.panic");
    Engine::new(arena, jobs, config, predictor.wants_user_running_index())?
        .run(scheduler, predictor, correction, observer)
}

/// One simulation run's machinery: the workload, the machine, and the
/// [`SimArena`] holding the indexed state, the event queue, and every
/// reusable buffer of the hot loop.
///
/// [`simulate_in`] constructs one per run; the struct
/// exists separately so tests can drive the loop with injected event
/// sequences (stale expiries, fabricated batches).
struct Engine<'a> {
    jobs: &'a [Job],
    cluster: ClusterSpec,
    /// Total processors across the cluster (the `m` of SystemView and
    /// aggregate metrics).
    total_procs: u32,
    arena: &'a mut SimArena,
}

impl<'a> Engine<'a> {
    /// Validates the workload and re-initializes `arena`'s buffers in
    /// place, sizing the outcome vector for every job.
    fn new(
        arena: &'a mut SimArena,
        jobs: &'a [Job],
        config: SimConfig,
        user_index: bool,
    ) -> Result<Self, SimError> {
        validate_workload(jobs, config)?;
        arena.state.reset(config.cluster, jobs.len(), user_index);
        arena.events.clear();
        arena.outcomes.clear();
        arena.outcomes.reserve_exact(jobs.len());
        arena.starts.clear();
        Ok(Self {
            jobs,
            cluster: config.cluster,
            total_procs: config.cluster.total_procs(),
            arena,
        })
    }

    /// The wall-clock running time the platform grants `job` on
    /// `partition`: the partition-speed-scaled actual running time,
    /// capped at the (unscaled, wall-clock) requested time — the §2.1
    /// kill rule generalized to heterogeneous partitions. On a
    /// speed-1.0 partition this is exactly [`Job::granted_run`].
    #[inline]
    fn granted_run_on(&self, job: &Job, partition: u32) -> i64 {
        self.cluster
            .part(partition as usize)
            .scaled_run(job.run)
            .min(job.requested)
    }

    /// Whether `job` hits its requested-time bound on `partition` and is
    /// killed there. On a speed-1.0 partition this is exactly
    /// [`Job::is_killed`].
    #[inline]
    fn is_killed_on(&self, job: &Job, partition: u32) -> bool {
        self.cluster.part(partition as usize).scaled_run(job.run) > job.requested
    }

    /// Schedules `kind` at `time`, strictly after `now`: `run` applies an
    /// instant's events as it pops them, so one scheduled at `now` would
    /// jump ahead of that instant's arrivals. Granted runs, clamped
    /// predictions and corrections all last at least 1 s, so none is.
    #[inline]
    fn schedule(&mut self, now: Time, time: Time, kind: EventKind) {
        debug_assert!(time > now, "{kind:?} at {time:?} from {now:?}");
        self.arena.events.push(time, kind);
    }

    /// Drives the event loop to completion.
    fn run(
        mut self,
        scheduler: &mut dyn Scheduler,
        predictor: &mut dyn RuntimePredictor,
        correction: Option<&dyn CorrectionPolicy>,
        observer: &mut dyn SimObserver,
    ) -> Result<SimResult, SimError> {
        let mut arrivals = self.jobs.iter().peekable();
        loop {
            // The next instant: the earlier of the next queued event and
            // the next arrival.
            let now = match (self.arena.events.peek_time(), arrivals.peek()) {
                (Some(time), Some(job)) => time.min(job.submit),
                (Some(time), None) => time,
                (None, Some(job)) => job.submit,
                (None, None) => break,
            };
            // Apply every event at this instant — the queued ones in
            // (rank, seq) order, then the arrivals in job order — then
            // run one scheduling pass over the consistent post-batch
            // state.
            while self.arena.events.peek_time() == Some(now) {
                let event = self.arena.events.pop().expect("peeked event exists");
                self.handle_event(event.kind, now, predictor, correction, observer);
            }
            while let Some(job) = arrivals.next_if(|job| job.submit == now) {
                self.arrive(job, now, predictor, observer);
            }
            if !observer.keep_running() {
                return Err(SimError::Aborted { at: now });
            }

            // Skip the instant when it provably cannot start anything: no
            // candidates, or no processor anywhere for even the smallest
            // job.
            if self.arena.state.queue_is_empty() || self.arena.state.free() == 0 {
                continue;
            }
            // Routing loop: one scheduler pass per partition, first-fit
            // in partition order. Each pass sees the queue left over by
            // the previous partitions' starts (the queue is compacted
            // between passes), so earlier partitions get first pick and
            // placement is deterministic. On the legacy single-partition
            // cluster this is exactly one pass — the pre-cluster engine.
            for partition in 0..self.cluster.len() as u32 {
                if self.arena.state.queue_is_empty() {
                    break;
                }
                if self.arena.state.free_in(partition) == 0 {
                    continue;
                }
                let mut starts = std::mem::take(&mut self.arena.starts);
                starts.clear();
                scheduler.schedule_into(
                    &SchedulerContext {
                        now,
                        partition,
                        machine_size: self.cluster.part(partition as usize).size,
                        free: self.arena.state.free_in(partition),
                        queue: self.arena.state.queue(),
                        running: self.arena.state.running(),
                        releases: self.arena.state.releases_in(partition),
                        shortest_first: self.arena.state.shortest_first(),
                    },
                    &mut starts,
                );
                let applied = self.apply_starts(&starts, now, partition, observer);
                self.arena.starts = starts;
                applied?;
                self.arena.state.compact_queue();
            }
        }

        // Every running job holds a pending Finish event, so the running
        // set is necessarily empty when events and arrivals drain — but a
        // misbehaving scheduler can leave jobs waiting forever. Surface
        // that as a typed error instead of a panic (or the pre-refactor
        // engine's silently partial result).
        if !self.arena.state.queue_is_empty() {
            return Err(SimError::SchedulerViolation {
                message: format!(
                    "simulation ended with {} jobs never started",
                    self.arena.state.queue_len()
                ),
            });
        }
        debug_assert!(
            self.arena.state.running().is_empty(),
            "simulation ended with running jobs"
        );
        let result = SimResult {
            machine_size: self.total_procs,
            outcomes: std::mem::take(&mut self.arena.outcomes),
        };
        observer.on_event(&SimEvent::Completed { result: &result });
        Ok(result)
    }

    /// Applies one event of the current batch.
    fn handle_event(
        &mut self,
        kind: EventKind,
        now: Time,
        predictor: &mut dyn RuntimePredictor,
        correction: Option<&dyn CorrectionPolicy>,
        observer: &mut dyn SimObserver,
    ) {
        match kind {
            EventKind::Finish(id) => {
                let job = &self.jobs[id.index()];
                let Some(r) = self.arena.state.finish(id) else {
                    unreachable!("finish event for job that is not running");
                };
                let granted = self.granted_run_on(job, r.partition);
                let killed = self.is_killed_on(job, r.partition);
                let outcome = &mut self.arena.outcomes[id.index()];
                outcome.start = r.start;
                outcome.end = now;
                outcome.run = granted;
                outcome.corrections = r.corrections;
                outcome.killed = killed;
                outcome.partition = r.partition;
                observer.on_event(&SimEvent::Finished { outcome });
                let view = SystemView {
                    now,
                    machine_size: self.total_procs,
                    running: self.arena.state.running(),
                    user_running: self.arena.state.user_running(),
                };
                predictor.observe(job, granted, &view);
            }
            EventKind::PredictionExpiry(id, generation) => {
                let Some(index) = self.arena.state.running_index(id) else {
                    return; // stale: the job already finished
                };
                let r = self.arena.state.running()[index];
                if r.corrections != generation {
                    return; // stale: superseded by a newer correction
                }
                let job = &self.jobs[id.index()];
                let elapsed = now.since(r.start);
                let expired = r.predicted_end.since(r.start);
                let raw = match correction {
                    Some(policy) => policy.correct(job, elapsed, expired, r.corrections),
                    None => job.requested as f64,
                };
                let new_pred = clamp_correction(raw, elapsed, job.requested);
                let new_end = r.start.plus(new_pred);
                let generation = self.arena.state.apply_correction(index, new_end);
                let finish_at = r.start.plus(self.granted_run_on(job, r.partition));
                if new_end < finish_at {
                    self.schedule(now, new_end, EventKind::PredictionExpiry(id, generation));
                }
                observer.on_event(&SimEvent::Corrected {
                    job,
                    now,
                    expired_prediction: expired,
                    new_prediction: new_pred,
                    corrections: generation,
                });
            }
        }
    }

    /// Applies one arrival: predicts `job`'s running time, writes the
    /// fields of its outcome known at submission, and queues it.
    fn arrive(
        &mut self,
        job: &Job,
        now: Time,
        predictor: &mut dyn RuntimePredictor,
        observer: &mut dyn SimObserver,
    ) {
        let view = SystemView {
            now,
            machine_size: self.total_procs,
            running: self.arena.state.running(),
            user_running: self.arena.state.user_running(),
        };
        let raw = predictor.predict(job, &view);
        let prediction = clamp_prediction(raw, job.requested);
        // Arrivals come in job order, so the outcome lands at its index.
        debug_assert_eq!(self.arena.outcomes.len(), job.id.index());
        self.arena.outcomes.push(JobOutcome {
            id: job.id,
            swf_id: job.swf_id,
            user: job.user,
            procs: job.procs,
            submit: job.submit,
            // Placeholders until the job finishes.
            start: now,
            end: now,
            run: 0,
            requested: job.requested,
            initial_prediction: prediction,
            corrections: 0,
            killed: false,
            partition: 0,
        });
        observer.on_event(&SimEvent::Submitted {
            job,
            prediction,
            now,
        });
        self.arena.state.enqueue(WaitingJob {
            id: job.id,
            procs: job.procs,
            predicted: prediction,
            requested: job.requested,
            submit: job.submit,
            user: job.user_ix,
        });
    }

    /// Validates and applies one pass's start decisions, placing every
    /// started job on `partition`.
    fn apply_starts(
        &mut self,
        starts: &[JobId],
        now: Time,
        partition: u32,
        observer: &mut dyn SimObserver,
    ) -> Result<(), SimError> {
        for &id in starts {
            let Some(index) = self.arena.state.waiting_index(id) else {
                return Err(SimError::SchedulerViolation {
                    message: format!("{id} started but is not waiting"),
                });
            };
            let w = *self.arena.state.waiting_at(index);
            if w.procs > self.arena.state.free_in(partition) {
                return Err(SimError::SchedulerViolation {
                    message: format!(
                        "{id} needs {} procs but only {} are free in partition {partition}",
                        w.procs,
                        self.arena.state.free_in(partition)
                    ),
                });
            }
            let job = &self.jobs[id.index()];
            let predicted_end = now.plus(w.predicted);
            let finish_at = now.plus(self.granted_run_on(job, partition));
            self.arena.state.start(
                index,
                RunningJob {
                    id,
                    procs: w.procs,
                    start: now,
                    predicted_end,
                    deadline: now.plus(job.requested),
                    user: w.user,
                    corrections: 0,
                    partition,
                },
            );
            self.schedule(now, finish_at, EventKind::Finish(id));
            if predicted_end < finish_at {
                self.schedule(now, predicted_end, EventKind::PredictionExpiry(id, 0));
            }
            observer.on_event(&SimEvent::Started {
                job,
                now,
                predicted_end,
            });
        }
        Ok(())
    }
}

fn validate_workload(jobs: &[Job], config: SimConfig) -> Result<(), SimError> {
    let mut requested = Some(0i64);
    for (i, job) in jobs.iter().enumerate() {
        if job.id.index() != i {
            return Err(SimError::MisnumberedJob { position: i });
        }
        if let Err(message) = job.validate() {
            return Err(SimError::InvalidJob { message });
        }
        if job.procs > config.cluster.max_partition_size() {
            return Err(SimError::JobTooLarge {
                id: job.id,
                procs: job.procs,
                machine: config.cluster.max_partition_size(),
            });
        }
        if i > 0 && jobs[i - 1].submit > job.submit {
            return Err(SimError::UnsortedJobs { position: i });
        }
        requested = requested.and_then(|sum| sum.checked_add(job.requested));
    }
    // Every instant the engine computes is at most the last submit plus
    // every granted run back to back, and every duration at most that
    // minus the first submit: bound both once, so no clock arithmetic
    // can overflow.
    if let (Some(first), Some(last)) = (jobs.first(), jobs.last()) {
        let span = requested
            .and_then(|sum| sum.checked_add(last.submit.0))
            .and_then(|end| end.checked_sub(first.submit.0));
        if span.is_none() {
            return Err(SimError::InvalidJob {
                message: "submit times plus requested times overflow the clock".into(),
            });
        }
    }
    Ok(())
}

/// Clamps an initial prediction into `[1, requested]` (§5.2).
fn clamp_prediction(raw: f64, requested: i64) -> i64 {
    if !raw.is_finite() {
        return requested;
    }
    (raw.round() as i64).clamp(1, requested)
}

/// Clamps a corrected prediction into `(elapsed, requested]`: it must
/// strictly exceed the time already spent running and never pass the
/// requested bound.
fn clamp_correction(raw: f64, elapsed: i64, requested: i64) -> i64 {
    if !raw.is_finite() {
        return requested;
    }
    (raw.round() as i64).clamp(elapsed + 1, requested.max(elapsed + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::{
        ClairvoyantPredictor, FixedPredictor, RequestedTimeCorrection, RequestedTimePredictor,
    };
    use crate::scheduler::{EasyScheduler, FcfsScheduler};

    fn job(id: u32, submit: i64, run: i64, requested: i64, procs: u32, user: u32) -> Job {
        Job {
            id: JobId(id),
            submit: Time(submit),
            run,
            requested,
            procs,
            user,
            user_ix: user,
            swf_id: id as u64 + 1,
        }
    }

    fn config(m: u32) -> SimConfig {
        SimConfig::single(m)
    }

    /// One run on a fresh arena, unobserved.
    fn simulate_fresh(
        jobs: &[Job],
        config: SimConfig,
        scheduler: &mut dyn Scheduler,
        predictor: &mut dyn RuntimePredictor,
        correction: Option<&dyn CorrectionPolicy>,
    ) -> Result<SimResult, SimError> {
        simulate_in(
            &mut SimArena::new(),
            jobs,
            config,
            scheduler,
            predictor,
            correction,
            &mut crate::observe::NullObserver,
        )
    }

    /// The error a run of `jobs` under `scheduler` on 4 processors stops
    /// with.
    fn run_error(jobs: &[Job], scheduler: &mut dyn Scheduler) -> SimError {
        let mut pred = ClairvoyantPredictor;
        simulate_fresh(jobs, config(4), scheduler, &mut pred, None).unwrap_err()
    }

    /// The outcome of one 2-processor job that runs from t=0 to t=100,
    /// with an expiry of `generation` injected for it at `at`.
    fn outcome_with_injected_expiry(at: i64, generation: u32) -> JobOutcome {
        let jobs = [job(0, 0, 100, 200, 2, 1)];
        let mut arena = SimArena::new();
        let engine = Engine::new(&mut arena, &jobs, config(4), false).unwrap();
        let expiry = EventKind::PredictionExpiry(JobId(0), generation);
        engine.arena.events.push(Time(at), expiry);
        let corr = RequestedTimeCorrection;
        let mut res = engine
            .run(
                &mut FcfsScheduler,
                &mut RequestedTimePredictor,
                Some(&corr),
                &mut crate::observe::NullObserver,
            )
            .unwrap();
        res.outcomes.remove(0)
    }

    #[test]
    fn single_job_runs_immediately() {
        let jobs = [job(0, 5, 100, 200, 4, 1)];
        let mut sched = FcfsScheduler;
        let mut pred = RequestedTimePredictor;
        let res = simulate_fresh(&jobs, config(8), &mut sched, &mut pred, None).unwrap();
        assert_eq!(res.outcomes.len(), 1);
        let o = &res.outcomes[0];
        assert_eq!(o.start, Time(5));
        assert_eq!(o.end, Time(105));
        assert_eq!(o.wait(), 0);
        assert_eq!(o.initial_prediction, 200);
        assert!(!o.killed);
    }

    #[test]
    fn fcfs_serializes_conflicting_jobs() {
        let jobs = [job(0, 0, 100, 100, 8, 1), job(1, 0, 50, 50, 8, 2)];
        let mut sched = FcfsScheduler;
        let mut pred = ClairvoyantPredictor;
        let res = simulate_fresh(&jobs, config(8), &mut sched, &mut pred, None).unwrap();
        assert_eq!(res.outcomes[0].start, Time(0));
        assert_eq!(res.outcomes[1].start, Time(100));
        assert_eq!(res.outcomes[1].wait(), 100);
    }

    #[test]
    fn easy_backfills_short_job() {
        // Machine 10. j0 takes 6 procs for 100s. j1 (8 procs) blocked until
        // j0 ends. j2 (4 procs, 90s) backfills at t=0 under clairvoyance.
        let jobs = [
            job(0, 0, 100, 100, 6, 1),
            job(1, 1, 50, 50, 8, 2),
            job(2, 2, 90, 90, 4, 3),
        ];
        let mut sched = EasyScheduler::new();
        let mut pred = ClairvoyantPredictor;
        let res = simulate_fresh(&jobs, config(10), &mut sched, &mut pred, None).unwrap();
        assert_eq!(res.outcomes[0].start, Time(0));
        assert_eq!(res.outcomes[2].start, Time(2)); // backfilled on arrival
        assert_eq!(res.outcomes[1].start, Time(100)); // head waits for j0
    }

    #[test]
    fn requested_time_prevents_backfill_that_clairvoyance_allows() {
        // Same scenario, but predictions are the requested times and j2
        // requested 200s: 2+200 > 100 (shadow), extra = 10-8 = 2 < 4, so
        // no backfill. Demonstrates Table 1's mechanism.
        let jobs = [
            job(0, 0, 100, 100, 6, 1),
            job(1, 1, 50, 50, 8, 2),
            job(2, 2, 90, 200, 4, 3),
        ];
        let mut sched = EasyScheduler::new();
        let mut pred = RequestedTimePredictor;
        let res = simulate_fresh(&jobs, config(10), &mut sched, &mut pred, None).unwrap();
        // j2 cannot backfill at t=2 (its requested 200s overshoots the
        // shadow and the 2 extra procs are too few); at t=100 the head j1
        // takes 8 procs, so j2 finally starts when j1 ends.
        assert_eq!(res.outcomes[2].start, Time(150));
    }

    #[test]
    fn job_killed_at_requested_time() {
        let jobs = [job(0, 0, 500, 200, 1, 1)];
        let mut sched = FcfsScheduler;
        let mut pred = RequestedTimePredictor;
        let res = simulate_fresh(&jobs, config(4), &mut sched, &mut pred, None).unwrap();
        let o = &res.outcomes[0];
        assert_eq!(o.end, Time(200));
        assert_eq!(o.run, 200);
        assert!(o.killed);
    }

    #[test]
    fn underprediction_triggers_correction() {
        let jobs = [job(0, 0, 100, 1000, 1, 1)];
        let mut sched = EasyScheduler::new();
        let mut pred = FixedPredictor(10.0);
        let corr = RequestedTimeCorrection;
        let res = simulate_fresh(&jobs, config(4), &mut sched, &mut pred, Some(&corr)).unwrap();
        let o = &res.outcomes[0];
        assert_eq!(o.initial_prediction, 10);
        // One expiry at t=10 -> corrected to requested (1000) -> no more.
        assert_eq!(o.corrections, 1);
        assert_eq!(o.end, Time(100));
    }

    #[test]
    fn correction_fallback_without_policy() {
        let jobs = [job(0, 0, 100, 1000, 1, 1)];
        let mut sched = EasyScheduler::new();
        let mut pred = FixedPredictor(10.0);
        let res = simulate_fresh(&jobs, config(4), &mut sched, &mut pred, None).unwrap();
        assert_eq!(res.outcomes[0].corrections, 1);
    }

    #[test]
    fn clairvoyant_never_corrects() {
        let jobs = [
            job(0, 0, 100, 1000, 2, 1),
            job(1, 10, 30, 800, 2, 2),
            job(2, 20, 60, 600, 2, 1),
        ];
        let mut sched = EasyScheduler::sjbf();
        let mut pred = ClairvoyantPredictor;
        let corr = RequestedTimeCorrection;
        let res = simulate_fresh(&jobs, config(4), &mut sched, &mut pred, Some(&corr)).unwrap();
        assert_eq!(res.total_corrections(), 0);
    }

    #[test]
    fn prediction_clamped_to_requested() {
        let jobs = [job(0, 0, 50, 300, 1, 1)];
        let mut sched = FcfsScheduler;
        let mut pred = FixedPredictor(1e15);
        let res = simulate_fresh(&jobs, config(4), &mut sched, &mut pred, None).unwrap();
        assert_eq!(res.outcomes[0].initial_prediction, 300);
    }

    #[test]
    fn non_finite_prediction_falls_back_to_requested() {
        let jobs = [job(0, 0, 50, 300, 1, 1)];
        let mut sched = FcfsScheduler;
        let mut pred = FixedPredictor(f64::NAN);
        let res = simulate_fresh(&jobs, config(4), &mut sched, &mut pred, None).unwrap();
        assert_eq!(res.outcomes[0].initial_prediction, 300);
    }

    #[test]
    fn rejects_unsorted_jobs() {
        let jobs = [job(0, 100, 10, 10, 1, 1), job(1, 50, 10, 10, 1, 1)];
        let err = run_error(&jobs, &mut FcfsScheduler);
        assert!(matches!(err, SimError::UnsortedJobs { position: 1 }));
    }

    #[test]
    fn rejects_oversized_job() {
        let jobs = [job(0, 0, 10, 10, 64, 1)];
        let err = run_error(&jobs, &mut FcfsScheduler);
        assert!(matches!(err, SimError::JobTooLarge { .. }));
    }

    #[test]
    fn rejects_misnumbered_jobs() {
        let jobs = [job(7, 0, 10, 10, 1, 1)];
        let err = run_error(&jobs, &mut FcfsScheduler);
        assert!(matches!(err, SimError::MisnumberedJob { position: 0 }));
    }

    #[test]
    fn rejects_workloads_whose_clock_would_overflow() {
        let late = [job(0, i64::MAX - 1_000, 10, 2_000, 1, 1)];
        let wide = [
            job(0, -i64::MAX, 10, 10, 1, 1),
            job(1, i64::MAX - 5, 10, 10, 1, 1),
        ];
        let many = [
            job(0, 0, 10, i64::MAX / 2, 1, 1),
            job(1, 0, 10, i64::MAX / 2 + 2, 1, 1),
        ];
        for jobs in [&late[..], &wide, &many] {
            let err = run_error(jobs, &mut FcfsScheduler);
            assert!(matches!(err, SimError::InvalidJob { .. }), "{err}");
        }
    }

    #[test]
    fn detects_scheduler_overcommit() {
        struct Greedy;
        impl Scheduler for Greedy {
            fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, starts: &mut Vec<JobId>) {
                starts.extend(ctx.queue.iter().map(|w| w.id)); // ignores capacity
            }
            fn name(&self) -> String {
                "greedy".into()
            }
        }
        let jobs = [job(0, 0, 10, 10, 3, 1), job(1, 0, 10, 10, 3, 1)];
        let err = run_error(&jobs, &mut Greedy);
        assert!(matches!(err, SimError::SchedulerViolation { .. }));
    }

    /// A stale `PredictionExpiry` that lands in the *same batch* as the
    /// job's `Finish` (possible only via the injection seam — the event
    /// ordering `Finish ≺ Expiry` plus the `predicted_end < finish`
    /// scheduling rule keeps naturally produced expiries strictly
    /// earlier) must hit the slot map's `Finished` state and be skipped
    /// without disturbing the outcome.
    #[test]
    fn stale_expiry_in_same_batch_as_finish_is_skipped() {
        // An expiry at exactly t=100: rank order puts Finish first, so
        // the expiry finds the job no longer running.
        let o = outcome_with_injected_expiry(100, 0);
        assert_eq!(o.end, Time(100));
        assert_eq!(o.corrections, 0, "stale expiry must not correct");
    }

    /// A stale expiry from a superseded generation (job still running)
    /// is skipped by the generation check, in O(1) via the slot map.
    #[test]
    fn stale_generation_expiry_is_skipped() {
        let o = outcome_with_injected_expiry(50, 7);
        assert_eq!(o.corrections, 0);
        assert_eq!(o.end, Time(100));
    }

    /// The engine skips scheduling passes that provably cannot start
    /// anything; a pass-counting scheduler pins the contract (and that
    /// skipping loses no starts: the outcome matches the FCFS baseline).
    #[test]
    fn provably_idle_passes_are_skipped() {
        struct CountingFcfs {
            passes: usize,
        }
        impl Scheduler for CountingFcfs {
            fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, starts: &mut Vec<JobId>) {
                self.passes += 1;
                assert!(
                    !ctx.queue.is_empty() && ctx.free > 0,
                    "engine ran a provably idle pass"
                );
                FcfsScheduler.schedule_into(ctx, starts);
            }
            fn name(&self) -> String {
                "counting-fcfs".into()
            }
        }
        // j1 saturates the machine for 100s; j2 arrives at t=10 (free=0:
        // its batch needs no pass) and a correction-free finish at t=100
        // reopens the machine.
        let jobs = [job(0, 0, 100, 100, 4, 1), job(1, 10, 50, 50, 4, 2)];
        let mut sched = CountingFcfs { passes: 0 };
        let res = simulate_fresh(
            &jobs,
            config(4),
            &mut sched,
            &mut ClairvoyantPredictor,
            None,
        )
        .unwrap();
        assert_eq!(res.outcomes[1].start, Time(100));
        // Passes: t=0 submit (starts j0). t=10 submit skipped (free=0).
        // t=100 finish+queued j1 -> one pass. t=150 finish, queue empty:
        // skipped.
        assert_eq!(sched.passes, 2, "idle passes must be skipped");
    }

    /// A scheduler that strands jobs in the queue yields a typed error,
    /// not a panic or a silently partial result.
    #[test]
    fn stranded_jobs_are_a_scheduler_violation() {
        struct Never;
        impl Scheduler for Never {
            fn schedule_into(&mut self, _ctx: &SchedulerContext<'_>, _starts: &mut Vec<JobId>) {}
            fn name(&self) -> String {
                "never".into()
            }
        }
        let jobs = [job(0, 0, 10, 10, 1, 1)];
        let err = run_error(&jobs, &mut Never);
        assert!(matches!(err, SimError::SchedulerViolation { .. }));
    }

    #[test]
    fn all_jobs_complete_and_outcomes_are_ordered() {
        let jobs: Vec<Job> = (0..50)
            .map(|i| {
                job(
                    i,
                    (i as i64) * 7 % 40,
                    20 + (i as i64 * 13) % 100,
                    200,
                    1 + (i % 3),
                    i % 5,
                )
            })
            .collect();
        // jobs must be sorted by submit; sort and renumber.
        let mut sorted = jobs;
        sorted.sort_by_key(|j| (j.submit, j.id));
        for (i, j) in sorted.iter_mut().enumerate() {
            j.id = JobId(i as u32);
        }
        let mut sched = EasyScheduler::sjbf();
        let mut pred = ClairvoyantPredictor;
        let res = simulate_fresh(&sorted, config(4), &mut sched, &mut pred, None).unwrap();
        assert_eq!(res.outcomes.len(), 50);
        for (i, o) in res.outcomes.iter().enumerate() {
            assert_eq!(o.id, JobId(i as u32));
            assert!(o.start >= o.submit, "job started before submit");
        }
    }
}
