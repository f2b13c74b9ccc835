//! The engine against its specification: every `JobOutcome` of
//! `simulate_in` must equal the whole-run reference engine's
//! (`support/reference.rs`), field by field, with no exemption.
//!
//! Workloads are tie-heavy (few distinct submit instants, runs on the
//! same grid, so finishes, expiries and submits share instants), hold
//! 1-second crashers, jobs that outrun their request, and jobs wider than
//! the narrower partitions; clusters have 1–4 partitions, speeds ≠ 1
//! included. Each runs under FCFS, EASY, EASY-SJBF and conservative ×
//! three predictors × four correction settings. The predictors and
//! corrections are re-implemented here from §5.2 and fed to both sides.

#[path = "support/reference.rs"]
mod reference;

use proptest::prelude::*;

use predictsim_sim::{
    simulate_in, ClusterSpec, ConservativeScheduler, CorrectionPolicy, EasyScheduler,
    FcfsScheduler, Job, JobId, JobOutcome, NullObserver, Partition, RunningJob, RuntimePredictor,
    Scheduler, SimArena, SimConfig, SystemView, Time, WaitingJob,
};
use reference::{ReferenceConservative, ReferenceEasy, ReferenceFcfs};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Sched {
    Fcfs,
    Easy,
    Sjbf,
    Conservative,
}

impl Sched {
    const ALL: [Sched; 4] = [Sched::Fcfs, Sched::Easy, Sched::Sjbf, Sched::Conservative];

    fn production(self) -> Box<dyn Scheduler> {
        match self {
            Sched::Fcfs => Box::new(FcfsScheduler),
            Sched::Easy => Box::new(EasyScheduler::new()),
            Sched::Sjbf => Box::new(EasyScheduler::sjbf()),
            Sched::Conservative => Box::new(ConservativeScheduler::new()),
        }
    }

    fn decide(
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
enum Pred {
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
    const ALL: [Pred; 3] = [Pred::Clairvoyant, Pred::Requested, Pred::Noisy];

    fn raw(self, job: &Job, running: &[RunningJob]) -> f64 {
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
enum Corr {
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
    const ALL: [Option<Corr>; 4] = [
        None,
        Some(Corr::Requested),
        Some(Corr::Incremental),
        Some(Corr::Doubling),
    ];

    fn raw(self, job: &Job, elapsed: i64, expired: i64, corrections: u32) -> f64 {
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
fn settings() -> impl Iterator<Item = (Sched, Pred, Option<Corr>)> {
    Sched::ALL.into_iter().flat_map(|s| {
        (Pred::ALL.into_iter()).flat_map(move |p| Corr::ALL.into_iter().map(move |c| (s, p, c)))
    })
}

/// Both sides of one setting: the engine's outcomes and the reference's.
fn both(
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

/// A 1–4-partition cluster (sizes 2–12, speeds 0.5–2) and up to
/// `max_jobs` jobs sorted by `(submit, id)`: submits on a 25-second grid
/// of `instants`; runs of 1 second, on the same grid, or arbitrary;
/// requests from five values, so jobs outrun them and predicted ends tie
/// (enough to reach EASY's order-dependent crossing ties); widths up to
/// the widest partition.
fn arb_case(max_jobs: usize, instants: i64) -> impl Strategy<Value = (ClusterSpec, Vec<Job>)> {
    let cluster = prop::collection::vec((2u32..=12, 0usize..4), 1..5).prop_map(|parts| {
        let parts: Vec<Partition> = (parts.into_iter())
            .map(|(size, s)| Partition {
                size,
                speed: [1.0, 0.5, 0.75, 2.0][s],
            })
            .collect();
        ClusterSpec::from_partitions(&parts).expect("valid partitions")
    });
    let run = prop_oneof![Just(1i64), (1i64..=4).prop_map(|k| 25 * k), 1i64..400];
    let job = (0..instants, run, 0usize..5, 1u32..=12, 0u32..4);
    (cluster, prop::collection::vec(job, 1..max_jobs + 1)).prop_map(|(cluster, specs)| {
        let mut jobs: Vec<Job> = (specs.into_iter())
            .map(|(slot, run, request, procs, user)| Job {
                id: JobId(0),
                submit: Time(25 * slot),
                run,
                requested: [25, 50, 100, 200, 400][request],
                procs: 1 + (procs - 1) % cluster.max_partition_size(),
                user: user + 100,
                user_ix: user,
                swf_id: 0,
            })
            .collect();
        jobs.sort_by_key(|j| j.submit);
        for (i, job) in jobs.iter_mut().enumerate() {
            (job.id, job.swf_id) = (JobId(i as u32), 1000 + i as u64);
        }
        (cluster, jobs)
    })
}

/// The property: exact equality in every setting.
fn engine_matches_reference(cluster: ClusterSpec, jobs: &[Job]) -> Result<(), TestCaseError> {
    let mut arena = SimArena::new();
    for setting in settings() {
        let (engine, reference) = both(&mut arena, jobs, cluster, setting);
        prop_assert_eq!(engine, reference, "{:?} on {}", setting, cluster);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_reproduces_the_reference_run(case in arb_case(60, 6)) {
        engine_matches_reference(case.0, &case.1)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shifting every submit by Δ shifts every start and end by Δ and
    /// changes nothing else, on both sides.
    #[test]
    fn time_shift_moves_every_start_and_end(case in arb_case(40, 6), delta in 1i64..100_000) {
        let (cluster, jobs) = case;
        let shift = |j: &Job| Job { submit: j.submit.plus(delta), ..j.clone() };
        let shifted: Vec<Job> = jobs.iter().map(shift).collect();
        let mut arena = SimArena::new();
        for setting in settings() {
            let (engine, reference) = both(&mut arena, &jobs, cluster, setting);
            let (engine_shifted, reference_shifted) = both(&mut arena, &shifted, cluster, setting);
            for (base, moved) in [(engine, engine_shifted), (reference, reference_shifted)] {
                let back: Vec<JobOutcome> = (moved.into_iter())
                    .map(|o| JobOutcome {
                        submit: o.submit.plus(-delta),
                        start: o.start.plus(-delta),
                        end: o.end.plus(-delta),
                        ..o
                    })
                    .collect();
                prop_assert_eq!(base, back, "{:?} on {} shifted by {}", setting, cluster, delta);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// The deep variant, for release builds: up to 300 jobs over 100
    /// instants (so the queue stays about as deep as above; the
    /// brute-force conservative referee is cubic in it). Run with
    /// `cargo test --release -p predictsim-sim --test reference_engine -- --ignored`.
    #[test]
    #[ignore]
    fn engine_reproduces_the_reference_run_deep(case in arb_case(300, 100)) {
        engine_matches_reference(case.0, &case.1)?;
    }
}

/// A job wider than an earlier partition is left to a wider one:
/// conservative plans each partition's jobs only among those it can
/// host, so the 6-wide job behind the idle 4-wide partition starts at
/// once on the 8-wide one. (Planning it on partition 0 too "started" it
/// there, a scheduler violation, until the property above found it.)
#[test]
fn conservative_skips_jobs_wider_than_their_partition() {
    let wide = Job {
        id: JobId(0),
        submit: Time(0),
        run: 10,
        requested: 10,
        procs: 6,
        user: 1,
        user_ix: 0,
        swf_id: 1,
    };
    let cluster = "cluster:4+8".parse().unwrap();
    let mut conservative = ConservativeScheduler::new();
    let run = simulate_in(
        &mut SimArena::new(),
        &[wide],
        SimConfig { cluster },
        &mut conservative,
        &mut Pred::Requested,
        None,
        &mut NullObserver,
    )
    .expect("the wide job runs on the wide partition");
    let outcome = &run.outcomes[0];
    assert_eq!((outcome.start, outcome.partition), (Time(0), 1));
}
