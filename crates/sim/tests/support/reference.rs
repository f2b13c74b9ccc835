//! The simulator's specification, shared by the oracle test binaries.
//!
//! The pass oracles are the pre-refactor FCFS, EASY and conservative
//! passes: each re-collects and re-sorts the running jobs' releases, and
//! conservative searches a from-scratch profile with the original
//! quadratic scan ([`BruteProfile`], sharing no code with the production
//! `Profile`). They are deliberately slow — their only job is to be
//! *obviously* the published algorithms. Each decides a pass from
//! `(now, partition, free, queue, running)` alone; the [`Scheduler`]
//! impls are thin adapters. [`route`] is first-fit routing over the
//! partitions and [`simulate`] the whole run, re-derived from the
//! engine's docs; they share only types with `predictsim_sim`.
//!
//! The fixtures at the end are shared by the oracle properties here
//! and by the ones the crate runs as unit tests (`src/oracles.rs`, which
//! drive its private state and include this file).

// Each including test binary uses a subset of the module.
#![allow(dead_code)]

use proptest::prelude::*;

use predictsim_sim::{
    BackfillOrder, ClusterSpec, Job, JobId, JobOutcome, Partition, ReleaseSet, RunningJob,
    Scheduler, SchedulerContext, Time, WaitingJob,
};

/// A pass oracle as [`route`] and [`simulate`] call it:
/// `(now, partition, free, queue, running)` → the jobs to start now.
pub type Decide<'a> = &'a dyn Fn(Time, u32, u32, &[WaitingJob], &[RunningJob]) -> Vec<JobId>;

/// Phase 1 of every queue policy: starts the head of the queue while it
/// fits. Returns the starts and the processors left.
fn fcfs_prefix(mut free: u32, queue: &[WaitingJob]) -> (Vec<JobId>, u32) {
    let mut starts = Vec::new();
    for w in queue {
        if w.procs > free {
            break;
        }
        free -= w.procs;
        starts.push(w.id);
    }
    (starts, free)
}

/// The FCFS oracle: EASY's phase 1 alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceFcfs;

impl ReferenceFcfs {
    /// One pass (see [`Decide`]).
    pub fn decide(
        &self,
        _now: Time,
        _partition: u32,
        free: u32,
        queue: &[WaitingJob],
        _running: &[RunningJob],
    ) -> Vec<JobId> {
        fcfs_prefix(free, queue).0
    }
}

/// The from-scratch EASY oracle (optionally SJBF-ordered), bit-equal to
/// the pre-refactor `EasyScheduler`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceEasy {
    /// Backfill candidate ordering (§5.1).
    pub order: BackfillOrder,
}

impl ReferenceEasy {
    /// Plain EASY oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// EASY-SJBF oracle.
    pub fn sjbf() -> Self {
        Self {
            order: BackfillOrder::ShortestFirst,
        }
    }

    /// One pass (see [`Decide`]).
    pub fn decide(
        &self,
        now: Time,
        partition: u32,
        free: u32,
        queue: &[WaitingJob],
        running: &[RunningJob],
    ) -> Vec<JobId> {
        // Phase 1 — start the head of the queue while it fits (pure FCFS).
        let (mut starts, mut free) = fcfs_prefix(free, queue);
        let head_idx = starts.len();
        if head_idx >= queue.len() {
            return starts; // whole queue started
        }

        // Phase 2 — reservation for the blocked head, rebuilt from
        // scratch: running releases in running-vector order, then the
        // phase-1 starts, unstable-sorted by time.
        let head = &queue[head_idx];
        let mut releases: Vec<(Time, u32)> = running
            .iter()
            .filter(|r| r.partition == partition)
            .map(|r| (r.predicted_end, r.procs))
            .chain(
                queue[..head_idx]
                    .iter()
                    .map(|w| (now.plus(w.predicted), w.procs)),
            )
            .collect();
        releases.sort_unstable_by_key(|&(t, _)| t);
        // Walk the releases until the head fits; releases that never
        // cover it (a head wider than the machine) reserve now, with
        // nothing extra.
        let (mut shadow, mut extra) = (now, 0);
        let mut avail = free;
        for &(t, procs) in &releases {
            avail += procs;
            if avail >= head.procs {
                (shadow, extra) = (t, avail - head.procs);
                break;
            }
        }

        // Phase 3 — backfill the rest of the queue without delaying the
        // reservation.
        let mut candidates: Vec<&WaitingJob> = queue[head_idx + 1..].iter().collect();
        if self.order == BackfillOrder::ShortestFirst {
            candidates.sort_by_key(|j| (j.predicted, j.submit, j.id));
        }
        for job in candidates {
            if job.procs > free {
                continue;
            }
            let ends_by_shadow = now.plus(job.predicted) <= shadow;
            if ends_by_shadow {
                free -= job.procs;
                starts.push(job.id);
            } else if job.procs <= extra {
                extra -= job.procs;
                free -= job.procs;
                starts.push(job.id);
            }
        }
        starts
    }
}

impl Scheduler for ReferenceEasy {
    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, starts: &mut Vec<JobId>) {
        starts.extend(self.decide(ctx.now, ctx.partition, ctx.free, ctx.queue, ctx.running));
    }

    fn name(&self) -> String {
        match self.order {
            BackfillOrder::Fcfs => "reference-easy".into(),
            BackfillOrder::ShortestFirst => "reference-easy-sjbf".into(),
        }
    }
}

/// The oracle's own availability profile: the pre-sweep
/// `Profile::{new, free_at, earliest_start, feasible_at, reserve,
/// ensure_breakpoint}` bodies, verbatim. Every candidate start re-scans
/// the breakpoints from index 0 and `reserve` walks all of them —
/// O(P²) per queued job, which is the point: nothing here is clever
/// enough to be wrong in the same way as the production sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BruteProfile {
    /// `(time, free)` breakpoints; the last one's `free` extends to
    /// infinity.
    pub points: Vec<(i64, i64)>,
}

impl BruteProfile {
    /// Builds the profile as seen at `now` with `free` processors idle and
    /// each `(end, procs)` release adding capacity at its (predicted) end.
    ///
    /// Releases at or before `now` are treated as immediately free (they
    /// can occur transiently while corrections are being applied).
    pub fn new(now: Time, free: u32, releases: &[(Time, u32)]) -> Self {
        let mut deltas: Vec<(i64, i64)> = releases
            .iter()
            .map(|&(t, p)| (t.0.max(now.0), p as i64))
            .collect();
        deltas.sort_unstable();
        let mut points = Vec::with_capacity(deltas.len() + 1);
        points.push((now.0, free as i64));
        for (t, p) in deltas {
            let (last_t, last_free) = *points.last().expect("profile never empty");
            if t == last_t {
                points.last_mut().expect("non-empty").1 = last_free + p;
            } else {
                points.push((t, last_free + p));
            }
        }
        Self { points }
    }

    /// Free processors at instant `t` (clamped to the profile's start).
    fn free_at(&self, t: i64) -> i64 {
        match self.points.binary_search_by_key(&t, |&(pt, _)| pt) {
            Ok(i) => self.points[i].1,
            Err(0) => self.points[0].1,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Earliest start `s ≥ from` such that at least `procs` processors are
    /// free during the whole interval `[s, s + duration)`.
    pub fn earliest_start(&self, from: i64, procs: u32, duration: i64) -> i64 {
        let procs = procs as i64;
        debug_assert!(duration > 0, "reservation must have positive duration");
        // Candidate starts: `from` itself, then every later breakpoint.
        if self.feasible_at(from, procs, duration) {
            return from;
        }
        for i in 0..self.points.len() {
            let s = self.points[i].0;
            if s <= from {
                continue;
            }
            if self.feasible_at(s, procs, duration) {
                return s;
            }
        }
        // With procs ≤ machine size this is unreachable; degrade to the
        // profile's horizon for robustness.
        self.points
            .last()
            .map(|&(t, _)| t.max(from))
            .unwrap_or(from)
    }

    /// True when at least `procs` processors stay free during the whole
    /// interval `[s, s + duration)`.
    pub fn feasible_at(&self, s: i64, procs: i64, duration: i64) -> bool {
        if self.free_at(s) < procs {
            return false;
        }
        // Check every breakpoint inside (s, s+duration).
        for &(t, f) in &self.points {
            if t <= s {
                continue;
            }
            if t >= s + duration {
                break;
            }
            if f < procs {
                return false;
            }
        }
        true
    }

    /// Removes `procs` processors during `[start, start + duration)`.
    pub fn reserve(&mut self, start: i64, duration: i64, procs: u32) {
        let procs = procs as i64;
        let end = start + duration;
        self.ensure_breakpoint(start);
        self.ensure_breakpoint(end);
        for (t, f) in self.points.iter_mut() {
            if *t >= start && *t < end {
                *f -= procs;
                debug_assert!(*f >= 0, "over-reserved profile at t={t}: {f}");
            }
        }
    }

    fn ensure_breakpoint(&mut self, t: i64) {
        match self.points.binary_search_by_key(&t, |&(pt, _)| pt) {
            Ok(_) => {}
            Err(0) => {
                // Before profile start: extend backwards with the same free
                // count (callers only reserve from `now` on, so this is a
                // defensive path).
                let f = self.points[0].1;
                self.points.insert(0, (t, f));
            }
            Err(i) => {
                let f = self.points[i - 1].1;
                self.points.insert(i, (t, f));
            }
        }
    }
}

/// The from-scratch conservative oracle, bit-equal to the pre-refactor
/// `ConservativeScheduler`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceConservative;

impl ReferenceConservative {
    /// One pass (see [`Decide`]).
    pub fn decide(
        &self,
        now: Time,
        partition: u32,
        free: u32,
        queue: &[WaitingJob],
        running: &[RunningJob],
    ) -> Vec<JobId> {
        let releases: Vec<(Time, u32)> = running
            .iter()
            .filter(|r| r.partition == partition)
            .map(|r| (r.predicted_end, r.procs))
            .collect();
        // The partition is what is free plus what runs on it; a job
        // wider than that waits for a wider partition.
        let size = free + releases.iter().map(|&(_, procs)| procs).sum::<u32>();
        let mut profile = BruteProfile::new(now, free, &releases);
        let mut starts = Vec::new();
        for job in queue.iter().filter(|j| j.procs <= size) {
            let duration = job.predicted.max(1);
            let start = profile.earliest_start(now.0, job.procs, duration);
            profile.reserve(start, duration, job.procs);
            if start == now.0 {
                starts.push(job.id);
            }
        }
        starts
    }
}

impl Scheduler for ReferenceConservative {
    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, starts: &mut Vec<JobId>) {
        starts.extend(self.decide(ctx.now, ctx.partition, ctx.free, ctx.queue, ctx.running));
    }

    fn name(&self) -> String {
        "reference-conservative".into()
    }
}

/// One scheduling instant's first-fit routing (see [`ClusterSpec`]): a
/// pass of `oracle` per partition in spec order over the global FCFS
/// `queue`, each against that partition's free count and the queue the
/// earlier partitions left. `running` is cluster-wide, each job tagged
/// with its partition. Returns the `(job, partition)` placements in
/// decision order. Passes the engine skips (empty queue, no free
/// processor) start nothing, so none is skipped here.
pub fn route(
    now: Time,
    cluster: ClusterSpec,
    queue: &[WaitingJob],
    running: &[RunningJob],
    oracle: Decide,
) -> Vec<(JobId, u32)> {
    let mut placements = Vec::new();
    let mut remaining = queue.to_vec();
    for (p, part) in (0u32..).zip(cluster.partitions()) {
        let used: u32 = running
            .iter()
            .filter(|r| r.partition == p)
            .map(|r| r.procs)
            .sum();
        let starts = oracle(now, p, part.size - used, &remaining, running);
        remaining.retain(|w| !starts.contains(&w.id));
        placements.extend(starts.into_iter().map(|id| (id, p)));
    }
    placements
}

/// A predictor as [`simulate`] consults it at a submission: the job and
/// the running set at that instant.
pub type Predict<'a> = &'a dyn Fn(&Job, &[RunningJob]) -> f64;

/// A §5.2 correction: `(job, elapsed, expired prediction, corrections
/// so far)` → the new total prediction.
pub type Correct<'a> = &'a dyn Fn(&Job, i64, i64, u32) -> f64;

/// `p` seconds of reference work on a partition of speed `s` take
/// `ceil(p / s)` wall-clock seconds.
fn scaled(run: i64, cluster: ClusterSpec, partition: u32) -> i64 {
    (run as f64 / cluster.part(partition as usize).speed).ceil() as i64
}

/// An initial or corrected prediction, rounded and clamped to
/// `[lo, requested]`; a non-finite one is the request.
fn clamp(raw: f64, lo: i64, requested: i64) -> i64 {
    if raw.is_finite() {
        (raw.round() as i64).clamp(lo, requested.max(lo))
    } else {
        requested
    }
}

/// The whole run of `jobs` (sorted by `(submit, id)`, dense ids) on
/// `cluster`, from the engine's documented rules alone:
///
/// * at each distinct instant, finishes (in start order), then
///   prediction expiries (stale generations dropped), then submits (in
///   id order), then one [`route`] pass;
/// * an initial prediction is clamped to `[1, p̃]`, a corrected one to
///   `(elapsed, p̃]`, with no correction falling back to `p̃`;
/// * a job placed on a partition of speed `s` runs
///   `min(ceil(p / s), p̃)` and is killed iff `ceil(p / s) > p̃`;
/// * an expiry is scheduled only while `predicted_end < finish`.
pub fn simulate(
    jobs: &[Job],
    cluster: ClusterSpec,
    oracle: Decide,
    predict: Predict,
    correct: Option<Correct>,
) -> Vec<JobOutcome> {
    let mut queue: Vec<WaitingJob> = Vec::new();
    // Appended on start, swap-removed on finish — `SimState`'s
    // discipline, which EASY's legacy crossing-tie order depends on
    // (ROADMAP 8(a)).
    let mut running: Vec<RunningJob> = Vec::new();
    // Per job while it runs: its finish instant and start sequence.
    let mut finish = vec![(Time(i64::MAX), 0usize); jobs.len()];
    let mut expiries: Vec<(Time, JobId, u32)> = Vec::new();
    let mut initial = vec![0; jobs.len()];
    let mut outcomes: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
    let (mut next, mut started) = (0, 0);
    while let Some(now) = running
        .iter()
        .map(|r| finish[r.id.index()].0)
        .chain(expiries.iter().map(|e| e.0))
        .chain(jobs.get(next).map(|j| j.submit))
        .min()
    {
        let mut done: Vec<JobId> = running
            .iter()
            .filter(|r| finish[r.id.index()].0 == now)
            .map(|r| r.id)
            .collect();
        done.sort_by_key(|id| finish[id.index()].1);
        for id in done {
            let at = running.iter().position(|r| r.id == id).expect("running");
            let r = running.swap_remove(at);
            let job = &jobs[id.index()];
            let wall = scaled(job.run, cluster, r.partition);
            outcomes[id.index()] = Some(JobOutcome {
                id,
                swf_id: job.swf_id,
                user: job.user,
                procs: job.procs,
                submit: job.submit,
                start: r.start,
                end: now,
                run: wall.min(job.requested),
                requested: job.requested,
                initial_prediction: initial[id.index()],
                corrections: r.corrections,
                killed: wall > job.requested,
                partition: r.partition,
            });
        }

        let due: Vec<(Time, JobId, u32)>;
        (due, expiries) = expiries.into_iter().partition(|e| e.0 == now);
        for (_, id, generation) in due {
            let Some(r) = running
                .iter_mut()
                .find(|r| r.id == id && r.corrections == generation)
            else {
                continue;
            };
            let job = &jobs[id.index()];
            let elapsed = now.since(r.start);
            let expired = r.predicted_end.since(r.start);
            let raw = correct.map_or(job.requested as f64, |c| {
                c(job, elapsed, expired, r.corrections)
            });
            r.predicted_end = r.start.plus(clamp(raw, elapsed + 1, job.requested));
            r.corrections += 1;
            if r.predicted_end < finish[id.index()].0 {
                expiries.push((r.predicted_end, id, r.corrections));
            }
        }

        while let Some(job) = jobs.get(next).filter(|j| j.submit == now) {
            let predicted = clamp(predict(job, &running), 1, job.requested);
            initial[next] = predicted;
            queue.push(WaitingJob {
                id: job.id,
                procs: job.procs,
                predicted,
                requested: job.requested,
                submit: job.submit,
                user: job.user_ix,
            });
            next += 1;
        }

        for (id, p) in route(now, cluster, &queue, &running, oracle) {
            let at = queue.iter().position(|w| w.id == id).expect("waiting");
            let w = queue.remove(at);
            let job = &jobs[id.index()];
            let end = now.plus(scaled(job.run, cluster, p).min(job.requested));
            let predicted_end = now.plus(w.predicted);
            running.push(RunningJob {
                id,
                procs: w.procs,
                start: now,
                predicted_end,
                deadline: now.plus(job.requested),
                user: w.user,
                corrections: 0,
                partition: p,
            });
            finish[id.index()] = (end, started);
            started += 1;
            if predicted_end < end {
                expiries.push((predicted_end, id, 0));
            }
        }
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every job finishes"))
        .collect()
}

/// One pass of `scheduler` over `ctx`: the jobs it starts.
pub fn schedule<S: Scheduler + ?Sized>(
    scheduler: &mut S,
    ctx: &SchedulerContext<'_>,
) -> Vec<JobId> {
    let mut starts = Vec::new();
    scheduler.schedule_into(ctx, &mut starts);
    starts
}

/// The machine size of [`ctx_of`]'s contexts.
pub const MACHINE: u32 = 16;

/// Release instants are drawn from a handful of values so that ties —
/// including ties at the reservation's crossing instant, EASY's
/// fallback trigger — are common.
pub const TIE_TIMES: [i64; 5] = [50, 50, 100, 150, 200];

/// A waiting job with prediction = request.
pub fn waiting(id: u32, procs: u32, predicted: i64, submit: i64) -> WaitingJob {
    WaitingJob {
        id: JobId(id),
        procs,
        predicted,
        requested: predicted,
        submit: Time(submit),
        user: 1,
    }
}

/// A system snapshot: the queue and the running jobs of one instant.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub queue: Vec<WaitingJob>,
    pub running: Vec<RunningJob>,
}

/// Partition 0's context at t=0 over `snapshot` on a [`MACHINE`]-wide
/// machine. A snapshot may hold running jobs of other partitions, which
/// the engine leaves in `running` too.
pub fn ctx_of<'a>(
    snapshot: &'a Snapshot,
    releases: &'a ReleaseSet,
    shortest_first: &'a [u32],
) -> SchedulerContext<'a> {
    let used: u32 = snapshot
        .running
        .iter()
        .filter(|r| r.partition == 0)
        .map(|r| r.procs)
        .sum();
    SchedulerContext {
        now: Time(0),
        partition: 0,
        machine_size: MACHINE,
        free: MACHINE - used,
        queue: &snapshot.queue,
        running: &snapshot.running,
        releases,
        shortest_first,
    }
}

/// A random 1–4-partition cluster: sizes 4..=16, speeds from the grid
/// the engine treats specially (1.0 short-circuits) and generically.
pub fn arb_cluster() -> impl Strategy<Value = ClusterSpec> {
    prop::collection::vec((4u32..=16, 0usize..3), 1..5).prop_map(|parts| {
        const SPEEDS: [f64; 3] = [0.5, 1.0, 2.0];
        let partitions: Vec<Partition> = parts
            .into_iter()
            .map(|(size, speed)| Partition {
                size,
                speed: SPEEDS[speed],
            })
            .collect();
        ClusterSpec::from_partitions(&partitions).expect("valid partitions")
    })
}
