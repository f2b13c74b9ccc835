//! Focused integration tests of the §5.2 correction machinery: expiry
//! scheduling, generation invalidation, clamping, and the starvation
//! hazard the paper warns about.

use predictsim_sim::{
    simulate_in, CorrectionPolicy, EasyScheduler, Job, JobId, NullObserver, RuntimePredictor,
    SimArena, SimConfig, SystemView, Time,
};

/// One unobserved run on a fresh arena.
fn simulate_fresh(
    jobs: &[Job],
    config: SimConfig,
    scheduler: &mut dyn predictsim_sim::Scheduler,
    predictor: &mut dyn RuntimePredictor,
    correction: Option<&dyn CorrectionPolicy>,
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

fn job(id: u32, submit: i64, run: i64, requested: i64, procs: u32) -> Job {
    Job {
        id: JobId(id),
        submit: Time(submit),
        run,
        requested,
        procs,
        user: 1,
        user_ix: 1,
        swf_id: id as u64,
    }
}

/// Always predicts a fixed value.
struct Fixed(f64);
impl RuntimePredictor for Fixed {
    fn predict(&mut self, _j: &Job, _s: &SystemView<'_>) -> f64 {
        self.0
    }
    fn observe(&mut self, _j: &Job, _a: i64, _s: &SystemView<'_>) {}
    fn name(&self) -> String {
        "fixed".into()
    }
}

/// Correction that adds a fixed amount each time, recording every call.
struct Recording {
    add: i64,
    calls: std::cell::RefCell<Vec<(i64, i64, u32)>>,
}
impl CorrectionPolicy for Recording {
    fn correct(&self, _job: &Job, elapsed: i64, expired: i64, count: u32) -> f64 {
        self.calls.borrow_mut().push((elapsed, expired, count));
        (expired + self.add) as f64
    }
    fn name(&self) -> String {
        "recording".into()
    }
}

#[test]
fn corrections_fire_in_sequence_until_the_job_ends() {
    // Job runs 1000s, predicted 100s, corrections add 200s each:
    // expiries at 100, 300, 500, 700, 900 -> 5 corrections.
    let jobs = [job(0, 0, 1000, 100_000, 1)];
    let corr = Recording {
        add: 200,
        calls: Default::default(),
    };
    let mut pred = Fixed(100.0);
    let res = simulate_fresh(
        &jobs,
        SimConfig::single(4),
        &mut EasyScheduler::new(),
        &mut pred,
        Some(&corr),
    )
    .unwrap();
    assert_eq!(res.outcomes[0].corrections, 5);
    let calls = corr.calls.borrow();
    assert_eq!(calls.len(), 5);
    // Each call sees the just-expired prediction and a growing counter.
    assert_eq!(calls[0], (100, 100, 0));
    assert_eq!(calls[1], (300, 300, 1));
    assert_eq!(calls[4], (900, 900, 4));
    // The job still ends at its true time.
    assert_eq!(res.outcomes[0].end, Time(1000));
}

#[test]
fn correction_output_is_clamped_to_requested() {
    // Correction proposes an absurd value; engine must clamp to p̃.
    struct Absurd;
    impl CorrectionPolicy for Absurd {
        fn correct(&self, _j: &Job, _e: i64, _x: i64, _c: u32) -> f64 {
            1e18
        }
        fn name(&self) -> String {
            "absurd".into()
        }
    }
    let jobs = [job(0, 0, 500, 600, 1)];
    let mut pred = Fixed(10.0);
    let res = simulate_fresh(
        &jobs,
        SimConfig::single(4),
        &mut EasyScheduler::new(),
        &mut pred,
        Some(&Absurd),
    )
    .unwrap();
    // One correction (to the clamped requested time = 600 >= actual 500),
    // then the job finishes before any further expiry.
    assert_eq!(res.outcomes[0].corrections, 1);
    assert_eq!(res.outcomes[0].end, Time(500));
}

#[test]
fn correction_below_elapsed_is_raised() {
    // A broken policy returning less than the elapsed time must still
    // yield a strictly-future predicted end (elapsed + 1).
    struct Broken;
    impl CorrectionPolicy for Broken {
        fn correct(&self, _j: &Job, _e: i64, _x: i64, _c: u32) -> f64 {
            0.0
        }
        fn name(&self) -> String {
            "broken".into()
        }
    }
    let jobs = [job(0, 0, 50, 100_000, 1)];
    let mut pred = Fixed(10.0);
    let res = simulate_fresh(
        &jobs,
        SimConfig::single(4),
        &mut EasyScheduler::new(),
        &mut pred,
        Some(&Broken),
    )
    .unwrap();
    // Expiries at 10, 11, 12, ..., 49 -> 40 corrections, one per second.
    assert_eq!(res.outcomes[0].corrections, 40);
    assert_eq!(res.outcomes[0].end, Time(50));
}

#[test]
fn underprediction_can_delay_a_reservation_the_starvation_hazard() {
    // §5.2: "a large job will indefinitely wait for its required
    // resources if under-predicted shorter jobs are systematically
    // backfilled before". Reproduce a bounded version: the wide job's
    // start is pushed past what exact predictions would give.
    //
    // Machine 4. j0 holds 2 procs for 300s. j1 (wide, 4 procs) arrives at
    // t=10. j2..j4 (2 procs each, actual 200s but predicted 20s) arrive
    // later and backfill "briefly" — each overruns its prediction by 10x.
    let mut jobs = vec![job(0, 0, 300, 400, 2), job(1, 10, 100, 150, 4)];
    for (i, submit) in [(2u32, 20i64), (3, 40), (4, 60)] {
        jobs.push(job(i, submit, 200, 100_000, 2));
    }
    // Under-predicting predictor: everything is "20 seconds".
    let mut under = Fixed(20.0);
    let corr = Recording {
        add: 20,
        calls: Default::default(),
    };
    let res_under = simulate_fresh(
        &jobs,
        SimConfig::single(4),
        &mut EasyScheduler::new(),
        &mut under,
        Some(&corr),
    )
    .unwrap();

    let mut exact = predictsim_sim::ClairvoyantPredictor;
    let res_exact = simulate_fresh(
        &jobs,
        SimConfig::single(4),
        &mut EasyScheduler::new(),
        &mut exact,
        None,
    )
    .unwrap();

    let wide_under = res_under.outcomes[1].start;
    let wide_exact = res_exact.outcomes[1].start;
    assert!(
        wide_under > wide_exact,
        "under-prediction should delay the wide job: {wide_under:?} vs {wide_exact:?}"
    );
    // And the audit still holds — starvation is a performance hazard,
    // not a correctness violation.
    predictsim_sim::audit(&res_under).unwrap();
}

#[test]
fn overprediction_never_triggers_corrections() {
    let jobs = [job(0, 0, 100, 100_000, 1)];
    let corr = Recording {
        add: 100,
        calls: Default::default(),
    };
    let mut pred = Fixed(50_000.0);
    let res = simulate_fresh(
        &jobs,
        SimConfig::single(4),
        &mut EasyScheduler::new(),
        &mut pred,
        Some(&corr),
    )
    .unwrap();
    assert_eq!(res.outcomes[0].corrections, 0);
    assert!(corr.calls.borrow().is_empty());
}
