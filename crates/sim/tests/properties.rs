//! Property-based tests of the simulation engine and schedulers.
//!
//! Random workloads are pushed through every scheduler × predictor
//! combination; the resulting schedules must pass the independent audit
//! (capacity, release dates, durations) and satisfy policy-specific
//! guarantees (FCFS order preservation, completeness, determinism).

use proptest::prelude::*;

use predictsim_sim::{
    audit, simulate_in, ClairvoyantPredictor, ConservativeScheduler, EasyScheduler, FcfsScheduler,
    Job, JobId, NullObserver, RequestedTimeCorrection, RequestedTimePredictor, RuntimePredictor,
    Scheduler, SimArena, SimConfig, SimError, SimEvent, SimObserver, SimResult, SystemView, Time,
};

/// One unobserved run on a fresh arena.
fn simulate_fresh(
    jobs: &[Job],
    config: SimConfig,
    scheduler: &mut dyn Scheduler,
    predictor: &mut dyn RuntimePredictor,
    correction: Option<&dyn predictsim_sim::CorrectionPolicy>,
) -> Result<predictsim_sim::SimResult, predictsim_sim::SimError> {
    simulate_in(
        &mut SimArena::new(),
        jobs,
        config,
        scheduler,
        predictor,
        correction,
        &mut NullObserver,
    )
}

const MACHINE: u32 = 16;

/// Strategy: a workload of up to `n` jobs on a 16-proc machine, with
/// interarrival gaps, runtimes, and over-estimated requests.
fn arb_workload(n: usize) -> impl Strategy<Value = Vec<Job>> {
    prop::collection::vec(
        (
            0i64..500,      // interarrival gap
            1i64..5_000,    // run time
            1.0f64..10.0,   // over-estimation factor
            1u32..=MACHINE, // procs
            0u32..6,        // user
        ),
        0..n,
    )
    .prop_map(|specs| {
        let mut t = 0;
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (gap, run, over, procs, user))| {
                t += gap;
                let requested = ((run as f64 * over) as i64).max(run);
                Job {
                    id: JobId(i as u32),
                    submit: Time(t),
                    run,
                    requested,
                    procs,
                    user,
                    user_ix: user,
                    swf_id: i as u64 + 1,
                }
            })
            .collect()
    })
}

/// A deliberately bad predictor: aggressive under-prediction, which
/// exercises the correction machinery hard.
struct Tenth;
impl RuntimePredictor for Tenth {
    fn predict(&mut self, job: &Job, _s: &SystemView<'_>) -> f64 {
        (job.granted_run() as f64 / 10.0).max(1.0)
    }
    fn observe(&mut self, _j: &Job, _a: i64, _s: &SystemView<'_>) {}
    fn name(&self) -> String {
        "tenth".into()
    }
}

fn schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(FcfsScheduler),
        Box::new(EasyScheduler::new()),
        Box::new(EasyScheduler::sjbf()),
        Box::new(ConservativeScheduler::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every scheduler yields a complete, capacity-respecting schedule
    /// under clairvoyant predictions.
    #[test]
    fn schedules_pass_audit_clairvoyant(jobs in arb_workload(60)) {
        for mut sched in schedulers() {
            let mut pred = ClairvoyantPredictor;
            let res = simulate_fresh(&jobs, SimConfig::single(MACHINE),
                                     sched.as_mut(), &mut pred, None).unwrap();
            prop_assert_eq!(res.outcomes.len(), jobs.len());
            let report = audit(&res);
            prop_assert!(report.is_ok(), "{:?} audit: {:?}", sched.name(), report);
        }
    }

    /// Same with a massively under-predicting predictor plus corrections:
    /// the correction path must never break the schedule invariants.
    #[test]
    fn schedules_pass_audit_underprediction(jobs in arb_workload(50)) {
        for mut sched in schedulers() {
            let mut pred = Tenth;
            let corr = RequestedTimeCorrection;
            let res = simulate_fresh(&jobs, SimConfig::single(MACHINE),
                                     sched.as_mut(), &mut pred, Some(&corr)).unwrap();
            prop_assert_eq!(res.outcomes.len(), jobs.len());
            let report = audit(&res);
            prop_assert!(report.is_ok(), "{:?} audit: {:?}", sched.name(), report);
        }
    }

    /// FCFS starts jobs in strict arrival order.
    #[test]
    fn fcfs_preserves_arrival_order(jobs in arb_workload(40)) {
        let mut pred = RequestedTimePredictor;
        let res = simulate_fresh(&jobs, SimConfig::single(MACHINE),
                                 &mut FcfsScheduler, &mut pred, None).unwrap();
        let mut outcomes = res.outcomes.clone();
        outcomes.sort_by_key(|o| (o.start, o.id));
        for w in outcomes.windows(2) {
            // A job that started strictly earlier must not have been
            // submitted strictly later... under FCFS with no skipping,
            // start order equals submit order.
            prop_assert!(
                w[0].submit <= w[1].submit || w[0].start == w[1].start,
                "FCFS inversion: {:?} vs {:?}", w[0], w[1]
            );
        }
    }

    /// Simulation is deterministic: same inputs, same outcomes.
    #[test]
    fn simulation_is_deterministic(jobs in arb_workload(40)) {
        let run = |jobs: &[Job]| {
            let mut pred = Tenth;
            let corr = RequestedTimeCorrection;
            simulate_fresh(jobs, SimConfig::single(MACHINE),
                           &mut EasyScheduler::sjbf(), &mut pred, Some(&corr)).unwrap()
        };
        let a = run(&jobs);
        let b = run(&jobs);
        prop_assert_eq!(a.outcomes, b.outcomes);
    }

    /// No job ever finishes after `start + requested` (kill bound), and
    /// every outcome's run time equals min(p, p̃).
    #[test]
    fn kill_bound_respected(jobs in arb_workload(40)) {
        let mut pred = RequestedTimePredictor;
        let res = simulate_fresh(&jobs, SimConfig::single(MACHINE),
                                 &mut EasyScheduler::new(), &mut pred, None).unwrap();
        for o in &res.outcomes {
            let original = &jobs[o.id.index()];
            prop_assert_eq!(o.run, original.run.min(original.requested));
            prop_assert!(o.end.since(o.start) <= original.requested);
        }
    }

    /// AVEbsld lies between 1 and the maximum per-job slowdown, and the
    /// §6.5 extreme fraction is a probability that is positive exactly
    /// when that maximum crosses the threshold.
    #[test]
    fn ave_bsld_is_bounded_by_extremes(jobs in arb_workload(60)) {
        let res = simulate_fresh(&jobs, SimConfig::single(MACHINE),
                                 &mut FcfsScheduler, &mut RequestedTimePredictor, None).unwrap();
        let (ave, max, extreme) = (res.ave_bsld(), res.max_bsld(), res.extreme_fraction());
        if jobs.is_empty() {
            prop_assert_eq!((ave, max, extreme), (0.0, 0.0, 0.0));
        } else {
            prop_assert!(1.0 - 1e-9 <= ave && ave <= max + 1e-9, "ave {ave}, max {max}");
            prop_assert!((0.0..=1.0).contains(&extreme));
            prop_assert_eq!(extreme > 0.0, max > SimResult::EXTREME_BSLD);
        }
    }

    /// Under clairvoyant predictions, EASY backfilling is a strict
    /// improvement over FCFS *in aggregate* — almost. The per-job
    /// guarantee only protects the blocked queue head, and rare packing
    /// interactions can cost other jobs a few seconds (proptest found a
    /// 0.2s counterexample to the naive "never worse" claim). What must
    /// hold is that EASY never loses more than marginally, and that on
    /// contended workloads it wins.
    #[test]
    fn easy_does_not_meaningfully_lose_to_fcfs_clairvoyant(jobs in arb_workload(40)) {
        let cfg = SimConfig::single(MACHINE);
        let easy = simulate_fresh(&jobs, cfg, &mut EasyScheduler::new(),
                                  &mut ClairvoyantPredictor, None).unwrap();
        let fcfs = simulate_fresh(&jobs, cfg, &mut FcfsScheduler,
                                  &mut ClairvoyantPredictor, None).unwrap();
        prop_assert!(easy.mean_wait() <= fcfs.mean_wait() * 1.02 + 1.0,
                     "easy {} far above fcfs {}", easy.mean_wait(), fcfs.mean_wait());
    }
}

/// The engine's abort path. An observer that stops wanting the run after
/// the k-th submission gets `Aborted` at that job's submit instant: the
/// engine polls it once the instant's whole event batch is applied (both
/// submits of the pair) and before the instant's passes (nothing starts
/// then, though every job would start on arrival). The arena the abort
/// left mid-run then gives the fresh-arena result.
#[test]
fn observer_abort_stops_at_the_kth_submit_and_leaves_the_arena_reusable() {
    struct StopAfter(usize, usize, Vec<Time>);
    impl SimObserver for StopAfter {
        fn on_event(&mut self, event: &SimEvent<'_>) {
            match event {
                SimEvent::Submitted { .. } => self.1 += 1,
                SimEvent::Started { now, .. } => self.2.push(*now),
                _ => {}
            }
        }
        fn keep_running(&self) -> bool {
            self.1 < self.0
        }
    }
    // Pairs of 2-wide jobs every 100 s on an idle 16-processor machine.
    let jobs: Vec<Job> = (0..10u32)
        .map(|i| Job {
            id: JobId(i),
            submit: Time(100 * (i / 2) as i64),
            run: 50,
            requested: 60,
            procs: 2,
            user: 1,
            user_ix: 0,
            swf_id: i as u64 + 1,
        })
        .collect();
    let config = SimConfig::single(MACHINE);
    let mut arena = SimArena::new();
    let mut run = |observer: &mut dyn SimObserver| {
        let (mut easy, mut requested) = (EasyScheduler::new(), RequestedTimePredictor);
        simulate_in(
            &mut arena,
            &jobs,
            config,
            &mut easy,
            &mut requested,
            None,
            observer,
        )
    };
    for k in [1, 4, 9] {
        let mut observer = StopAfter(k, 0, Vec::new());
        let at = jobs[k - 1].submit;
        assert_eq!(run(&mut observer).unwrap_err(), SimError::Aborted { at });
        assert_eq!(
            observer.1,
            k + k % 2,
            "the batch at {at:?} is applied whole"
        );
        assert!(observer.2.iter().all(|&t| t < at), "no pass ran at {at:?}");
    }
    let fresh = simulate_fresh(
        &jobs,
        config,
        &mut EasyScheduler::new(),
        &mut RequestedTimePredictor,
        None,
    );
    assert_eq!(run(&mut NullObserver).unwrap(), fresh.unwrap());
}
