//! The settings the whole-run oracles replay the engine under, shared
//! by the test binaries that compare `simulate_in` with
//! `reference::simulate`: every scheduler × three predictors × four
//! correction settings. The predictors and corrections are
//! re-implemented here from §5.2 and fed to both sides.

// Each including test binary uses a subset of the module.
#![allow(dead_code)]

use predictsim_sim::{
    simulate_in, ClusterSpec, ConservativeScheduler, CorrectionPolicy, EasyScheduler,
    FcfsScheduler, Job, JobId, JobOutcome, NullObserver, RunningJob, RuntimePredictor, Scheduler,
    SimArena, SimConfig, SystemView, Time, WaitingJob,
};

use crate::reference::{self, ReferenceConservative, ReferenceEasy, ReferenceFcfs};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sched {
    Fcfs,
    Easy,
    Sjbf,
    Conservative,
}

impl Sched {
    pub const ALL: [Sched; 4] = [Sched::Fcfs, Sched::Easy, Sched::Sjbf, Sched::Conservative];

    pub fn production(self) -> Box<dyn Scheduler> {
        match self {
            Sched::Fcfs => Box::new(FcfsScheduler),
            Sched::Easy => Box::new(EasyScheduler::new()),
            Sched::Sjbf => Box::new(EasyScheduler::sjbf()),
            Sched::Conservative => Box::new(ConservativeScheduler::new()),
        }
    }

    pub fn decide(
        self,
        now: Time,
        p: u32,
        free: u32,
        q: &[WaitingJob],
        r: &[RunningJob],
    ) -> Vec<JobId> {
        match self {
            Sched::Fcfs => ReferenceFcfs.decide(now, p, free, q, r),
            Sched::Easy => ReferenceEasy::new().decide(now, p, free, q, r),
            Sched::Sjbf => ReferenceEasy::sjbf().decide(now, p, free, q, r),
            Sched::Conservative => ReferenceConservative.decide(now, p, free, q, r),
        }
    }
}

/// Predictors as pure functions of the job and the running set it is
/// submitted into.
#[derive(Debug, Clone, Copy)]
pub enum Pred {
    /// `min(p, p̃)`: exact on speed-1 partitions, short on slow ones.
    Clairvoyant,
    /// `p̃`.
    Requested,
    /// `p × f`, `f` in `[0.1, 3)` from a splitmix of the job id and the
    /// running-job count: under-predicts often, and makes the order of
    /// finishes and submits at one instant observable (with a
    /// prediction blind to the system, it is not: every event of an
    /// instant lands before its pass).
    Noisy,
}

impl Pred {
    pub const ALL: [Pred; 3] = [Pred::Clairvoyant, Pred::Requested, Pred::Noisy];

    pub fn raw(self, job: &Job, running: &[RunningJob]) -> f64 {
        match self {
            Pred::Clairvoyant => job.run.min(job.requested) as f64,
            Pred::Requested => job.requested as f64,
            Pred::Noisy => {
                let mut z = (u64::from(job.id.0) << 16 | running.len() as u64)
                    .wrapping_add(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                let unit = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64;
                job.run as f64 * (0.1 + 2.9 * unit)
            }
        }
    }
}

impl RuntimePredictor for Pred {
    fn predict(&mut self, job: &Job, system: &SystemView<'_>) -> f64 {
        self.raw(job, system.running)
    }

    fn observe(&mut self, _job: &Job, _actual_run: i64, _system: &SystemView<'_>) {}

    fn name(&self) -> String {
        format!("{self:?}")
    }
}

/// The §5.2 corrections, from the paper's text.
#[derive(Debug, Clone, Copy)]
pub enum Corr {
    /// Fall back to the requested time.
    Requested,
    /// Tsafrir's increments (1 min … 100 h), the list index growing
    /// with each correction, added to the larger of the expired
    /// prediction and the elapsed time.
    Incremental,
    /// Twice the elapsed time.
    Doubling,
}

impl Corr {
    /// `None` is the engine's own fallback (the requested time).
    pub const ALL: [Option<Corr>; 4] = [
        None,
        Some(Corr::Requested),
        Some(Corr::Incremental),
        Some(Corr::Doubling),
    ];

    pub fn raw(self, job: &Job, elapsed: i64, expired: i64, corrections: u32) -> f64 {
        const MIN: i64 = 60;
        const STEPS: [i64; 11] = [1, 5, 15, 30, 60, 120, 300, 600, 1200, 3000, 6000];
        match self {
            Corr::Requested => job.requested as f64,
            Corr::Incremental => {
                (expired.max(elapsed) + MIN * STEPS[(corrections as usize).min(10)]) as f64
            }
            Corr::Doubling => (2 * elapsed.max(1)) as f64,
        }
    }
}

impl CorrectionPolicy for Corr {
    fn correct(&self, job: &Job, elapsed: i64, expired: i64, corrections: u32) -> f64 {
        self.raw(job, elapsed, expired, corrections)
    }

    fn name(&self) -> String {
        format!("{self:?}")
    }
}

/// Every scheduler × predictor × correction setting.
pub fn settings() -> impl Iterator<Item = (Sched, Pred, Option<Corr>)> {
    Sched::ALL.into_iter().flat_map(|s| {
        (Pred::ALL.into_iter()).flat_map(move |p| Corr::ALL.into_iter().map(move |c| (s, p, c)))
    })
}

/// Both sides of one setting: the engine's outcomes and the reference's.
pub fn both(
    arena: &mut SimArena,
    jobs: &[Job],
    cluster: ClusterSpec,
    (sched, pred, corr): (Sched, Pred, Option<Corr>),
) -> (Vec<JobOutcome>, Vec<JobOutcome>) {
    let engine = simulate_in(
        arena,
        jobs,
        SimConfig { cluster },
        &mut *sched.production(),
        &mut { pred },
        corr.as_ref().map(|c| c as &dyn CorrectionPolicy),
        &mut NullObserver,
    )
    .expect("valid workload");
    let correct = |job: &Job, elapsed, expired, n| corr.unwrap().raw(job, elapsed, expired, n);
    let reference = reference::simulate(
        jobs,
        cluster,
        &|now, p, free, queue, running| sched.decide(now, p, free, queue, running),
        &|job, running| pred.raw(job, running),
        corr.map(|_| &correct as reference::Correct),
    );
    (engine.outcomes, reference)
}
