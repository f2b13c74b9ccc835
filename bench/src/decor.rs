//! Tracing decorators over the engine's public policy traits.
//!
//! The traced run wraps a cell's scheduler, predictor, correction
//! policy and observer in these and calls `sim::simulate_in` directly,
//! so every layer boundary is timed and counted from outside without
//! editing a layer. Each decorator forwards arguments and results
//! untouched (`tests/neutrality.rs` pins that a decorated run returns a
//! byte-identical `SimResult`).

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use predictsim_experiments::{HeuristicTriple, TripleResult, Variant};
use predictsim_sim::{
    simulate_in, ClusterSpec, CorrectionPolicy, Job, JobId, RuntimePredictor, Scheduler,
    SchedulerContext, SimArena, SimConfig, SimError, SimEvent, SimObserver, SimResult, SystemView,
};

use crate::span::{Fold, Spans};

/// What the decorated scheduler saw, summed over its passes — all read
/// from the `SchedulerContext` each pass receives.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Passes that started at least one job.
    pub useful: u64,
    pub queue_sum: u64,
    pub queue_max: u64,
    /// Aggregated release points of the pass's partition.
    pub releases_sum: u64,
    pub running_sum: u64,
}

struct TracedScheduler<'a> {
    inner: &'a mut dyn Scheduler,
    epoch: Instant,
    fold: Fold,
    stats: PassStats,
}

impl Scheduler for TracedScheduler<'_> {
    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, starts: &mut Vec<JobId>) {
        let queued = ctx.queue.len() as u64;
        self.stats.queue_sum += queued;
        self.stats.queue_max = self.stats.queue_max.max(queued);
        self.stats.releases_sum += ctx.releases.len() as u64;
        self.stats.running_sum += ctx.running.len() as u64;
        let t0 = Instant::now();
        self.inner.schedule_into(ctx, starts);
        let t1 = Instant::now();
        self.fold.record(self.epoch, t0, t1);
        self.stats.useful += u64::from(!starts.is_empty());
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

struct TracedPredictor {
    inner: Box<dyn RuntimePredictor + Send>,
    epoch: Instant,
    predict: Fold,
    observe: Fold,
}

impl RuntimePredictor for TracedPredictor {
    fn predict(&mut self, job: &Job, system: &SystemView<'_>) -> f64 {
        let t0 = Instant::now();
        let prediction = self.inner.predict(job, system);
        let t1 = Instant::now();
        self.predict.record(self.epoch, t0, t1);
        prediction
    }

    fn observe(&mut self, job: &Job, actual_run: i64, system: &SystemView<'_>) {
        let t0 = Instant::now();
        self.inner.observe(job, actual_run, system);
        let t1 = Instant::now();
        self.observe.record(self.epoch, t0, t1);
    }

    fn wants_user_running_index(&self) -> bool {
        self.inner.wants_user_running_index()
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// `CorrectionPolicy::correct` takes `&self`, hence the `Cell`.
struct TracedCorrection {
    inner: Box<dyn CorrectionPolicy + Send + Sync>,
    epoch: Instant,
    fold: Cell<Fold>,
}

impl CorrectionPolicy for TracedCorrection {
    fn correct(
        &self,
        job: &Job,
        elapsed: i64,
        expired_prediction: i64,
        corrections_so_far: u32,
    ) -> f64 {
        let t0 = Instant::now();
        let corrected = self
            .inner
            .correct(job, elapsed, expired_prediction, corrections_so_far);
        let t1 = Instant::now();
        let mut fold = self.fold.get();
        fold.record(self.epoch, t0, t1);
        self.fold.set(fold);
        corrected
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Counts engine events; it is not timed per event (two clock reads
/// would cost more than the counting), so its few nanoseconds per event
/// stay inside the engine's self time and show in `trace.overhead_share`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    pub events: u64,
    pub starts: u64,
}

impl SimObserver for EventCounts {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        self.events += 1;
        if matches!(event, SimEvent::Started { .. }) {
            self.starts += 1;
        }
    }
}

/// Everything the decorators recorded about one `simulate_in` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimTrace {
    pub start_ns: u64,
    pub end_ns: u64,
    pub scheduler: Fold,
    pub passes: PassStats,
    pub predict: Fold,
    pub observe: Fold,
    pub correct: Fold,
    pub events: EventCounts,
}

/// The per-thread scratch production keeps in
/// `scenario::WorkerScratch`, mirrored: a reusable engine arena and one
/// warm scheduler per variant.
#[derive(Default)]
struct Scratch {
    sim: SimArena,
    schedulers: Vec<(Variant, Box<dyn Scheduler + Send>)>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
    static THREAD_IX: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Runs `triple` on `jobs` through the decorators, against the calling
/// thread's warm scratch — the traced twin of the production
/// `run_triple_with_scratch`.
pub fn simulate_decorated(
    epoch: Instant,
    triple: &HeuristicTriple,
    jobs: &[Job],
    cluster: ClusterSpec,
) -> Result<(SimResult, SimTrace), SimError> {
    let mut predictor = TracedPredictor {
        inner: triple.prediction.build(),
        epoch,
        predict: Fold::default(),
        observe: Fold::default(),
    };
    let correction = triple.correction.map(|kind| TracedCorrection {
        inner: kind.build(),
        epoch,
        fold: Cell::new(Fold::default()),
    });
    let mut events = EventCounts::default();
    SCRATCH.with(|scratch| {
        let Scratch { sim, schedulers } = &mut *scratch.borrow_mut();
        let index = match schedulers.iter().position(|(v, _)| *v == triple.variant) {
            Some(index) => index,
            None => {
                schedulers.push((triple.variant, triple.variant.build()));
                schedulers.len() - 1
            }
        };
        let mut scheduler = TracedScheduler {
            inner: schedulers[index].1.as_mut(),
            epoch,
            fold: Fold::default(),
            stats: PassStats::default(),
        };
        let start = Instant::now();
        let result = simulate_in(
            sim,
            jobs,
            SimConfig { cluster },
            &mut scheduler,
            &mut predictor,
            correction.as_ref().map(|c| c as &dyn CorrectionPolicy),
            &mut events,
        )?;
        let end = Instant::now();
        let trace = SimTrace {
            start_ns: start.duration_since(epoch).as_nanos() as u64,
            end_ns: end.duration_since(epoch).as_nanos() as u64,
            scheduler: scheduler.fold,
            passes: scheduler.stats,
            predict: predictor.predict,
            observe: predictor.observe,
            correct: correction
                .as_ref()
                .map_or_else(Fold::default, |c| c.fold.get()),
            events,
        };
        Ok((result, trace))
    })
}

/// One decorated cell: policy build + simulate + metrics fold, as the
/// production cache miss does them, plus the harness's output checks.
#[derive(Debug, Clone)]
pub struct TracedCell {
    pub result: TripleResult,
    /// `sim::audit` passed and there is one outcome per job.
    pub verified: bool,
    /// What that verification cost: worker time after the cell's span.
    pub verify_ns: u64,
    pub jobs: u64,
    /// Index of the OS thread that ran the cell (pool workers differ).
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub sim: SimTrace,
    pub fold_start_ns: u64,
    pub fold_end_ns: u64,
}

impl TracedCell {
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub fn run_traced_cell(
    epoch: Instant,
    triple: &HeuristicTriple,
    jobs: &[Job],
    cluster: ClusterSpec,
) -> Result<TracedCell, SimError> {
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let start = Instant::now();
    let (sim_result, sim) = simulate_decorated(epoch, triple, jobs, cluster)?;
    let fold_start = Instant::now();
    let result = TripleResult::from_sim(triple, &sim_result);
    let end = Instant::now();
    let verified =
        sim_result.outcomes.len() == jobs.len() && predictsim_sim::audit(&sim_result).is_ok();
    Ok(TracedCell {
        result,
        verified,
        verify_ns: end.elapsed().as_nanos() as u64,
        jobs: jobs.len() as u64,
        thread: THREAD_IX.with(|ix| *ix),
        start_ns: ns(start),
        end_ns: ns(end),
        sim,
        fold_start_ns: ns(fold_start),
        fold_end_ns: ns(end),
    })
}

/// Records `cell` as spans: cell → `sim.simulate` → folded scheduler /
/// predictor / correction children, and cell → `metrics.fold`.
pub fn push_cell_spans(spans: &mut Spans, cell: &TracedCell) {
    let id = spans.new_cell();
    let root = spans.push(id, None, "cell", cell.start_ns, cell.end_ns);
    let sim = spans.push(
        id,
        Some(root),
        "sim.simulate",
        cell.sim.start_ns,
        cell.sim.end_ns,
    );
    spans.push_fold(id, sim, "sim.scheduler", &cell.sim.scheduler);
    spans.push_fold(id, sim, "core.predict", &cell.sim.predict);
    spans.push_fold(id, sim, "core.observe", &cell.sim.observe);
    spans.push_fold(id, sim, "core.correct", &cell.sim.correct);
    spans.push(
        id,
        Some(root),
        "metrics.fold",
        cell.fold_start_ns,
        cell.fold_end_ns,
    );
}

/// The `sim.*`, `core.*` and `metrics.*` ledger rows summed over `cells`.
pub fn layer_rows(cells: &[TracedCell]) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&TracedCell) -> u64| cells.iter().map(f).sum::<u64>() as f64;
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let jobs = sum(&|c| c.jobs);
    let simulate_ns = sum(&|c| c.sim.end_ns - c.sim.start_ns);
    let sched_ns = sum(&|c| c.sim.scheduler.busy_ns);
    let passes = sum(&|c| c.sim.scheduler.count);
    let predict_ns = sum(&|c| c.sim.predict.busy_ns);
    let predict_calls = sum(&|c| c.sim.predict.count);
    let observe_ns = sum(&|c| c.sim.observe.busy_ns);
    let correct_ns = sum(&|c| c.sim.correct.busy_ns);
    let corrections = sum(&|c| c.sim.correct.count);
    let queue_max = cells
        .iter()
        .map(|c| c.sim.passes.queue_max)
        .max()
        .unwrap_or(0);
    vec![
        ("sim.simulate_s", simulate_ns / 1e9),
        (
            "sim.engine_self_s",
            (simulate_ns - sched_ns - predict_ns - observe_ns - correct_ns) / 1e9,
        ),
        ("sim.events", sum(&|c| c.sim.events.events)),
        ("sim.starts", sum(&|c| c.sim.events.starts)),
        (
            "sim.running_mean",
            ratio(sum(&|c| c.sim.passes.running_sum), passes),
        ),
        ("sim.sched_pass_s", sched_ns / 1e9),
        ("sim.sched_passes", passes),
        ("sim.sched_ns_per_pass", ratio(sched_ns, passes)),
        ("sim.sched_passes_per_job", ratio(passes, jobs)),
        (
            "sim.sched_useful_ratio",
            ratio(sum(&|c| c.sim.passes.useful), passes),
        ),
        (
            "sim.queue_depth_mean",
            ratio(sum(&|c| c.sim.passes.queue_sum), passes),
        ),
        ("sim.queue_depth_max", queue_max as f64),
        (
            "sim.releases_mean",
            ratio(sum(&|c| c.sim.passes.releases_sum), passes),
        ),
        ("core.predict_s", predict_ns / 1e9),
        ("core.predict_calls", predict_calls),
        ("core.predict_ns_per_call", ratio(predict_ns, predict_calls)),
        ("core.observe_s", observe_ns / 1e9),
        ("core.observe_calls", sum(&|c| c.sim.observe.count)),
        ("core.correct_s", correct_ns / 1e9),
        ("core.corrections", corrections),
        ("core.corrections_per_job", ratio(corrections, jobs)),
        (
            "core.learner_share",
            ratio(predict_ns + observe_ns, simulate_ns),
        ),
        (
            "metrics.fold_s",
            sum(&|c| c.fold_end_ns - c.fold_start_ns) / 1e9,
        ),
    ]
}
