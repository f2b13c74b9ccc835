//! The engine against its specification: every `JobOutcome` of
//! `simulate_in` must equal the whole-run reference engine's
//! (`support/reference.rs`), field by field, with no exemption.
//!
//! Workloads are tie-heavy (few distinct submit instants, runs on the
//! same grid, so finishes, expiries and submits share instants), hold
//! 1-second crashers, jobs that outrun their request, and jobs wider than
//! the narrower partitions; clusters have 1–4 partitions, speeds ≠ 1
//! included. Each runs under FCFS, EASY, EASY-SJBF and conservative ×
//! three predictors × four correction settings (`support/settings.rs`,
//! which `tests/reference_replay.rs` replays the quick-scale logs under).

#[path = "support/reference.rs"]
mod reference;
#[path = "support/settings.rs"]
mod settings;

use proptest::prelude::*;

use predictsim_sim::{
    simulate_in, ClusterSpec, ConservativeScheduler, Job, JobId, JobOutcome, NullObserver,
    Partition, SimArena, SimConfig, Time,
};
use settings::{both, settings, Pred};

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
