//! The no-allocation guarantee, measured from outside: a counting global
//! allocator (`support/counting_alloc.rs`) counts what warm scheduler
//! passes and warm simulation runs really allocate, and how much heap a
//! warm run holds.

#[path = "support/counting_alloc.rs"]
mod support;

use std::hint::black_box;

use predictsim_sim::{
    simulate_in, sorted_shortest_first, ClusterSpec, ConservativeScheduler, CorrectionPolicy,
    EasyScheduler, Job, JobId, JobOutcome, NullObserver, Partition, ReleaseSet,
    RequestedTimeCorrection, RequestedTimePredictor, RunningJob, Scheduler, SchedulerContext,
    SimArena, SimConfig, SimResult, Time, WaitingJob,
};
use support::{allocs, live_bytes, peak_live_bytes};

const MACHINE: u32 = 32;

fn contended_jobs(n: u32) -> Vec<Job> {
    (0..n)
        .map(|i| Job {
            id: JobId(i),
            submit: Time(i as i64 * 11),
            run: 40 + (i as i64 * 13) % 400,
            requested: 900,
            procs: 1 + (i % 7),
            user: i % 5,
            user_ix: i % 5,
            swf_id: i as u64 + 1,
        })
        .collect()
}

/// Heap allocations made by one run of `scheduler` on `jobs` in `arena`.
fn run_allocs(
    arena: &mut SimArena,
    jobs: &[Job],
    config: SimConfig,
    scheduler: &mut dyn Scheduler,
    correction: Option<&dyn CorrectionPolicy>,
) -> u64 {
    let (result, count) = allocs(|| {
        simulate_in(
            arena,
            jobs,
            config,
            scheduler,
            &mut RequestedTimePredictor,
            correction,
            &mut NullObserver,
        )
        .unwrap()
    });
    assert_eq!(black_box(result).outcomes.len(), jobs.len());
    count
}

/// The counter is live: a pin of "0" cannot pass on a broken allocator.
#[test]
fn the_allocator_counts_a_one_byte_vec() {
    let (_, count) = allocs(|| black_box(Vec::<u8>::with_capacity(1)));
    assert_eq!(count, 1);
}

/// Hermetic pin: after a short warm-up on a fixed context shape, a
/// thousand further passes allocate nothing — neither the schedulers'
/// own scratch nor the caller's reused `starts` vector.
#[test]
fn warm_passes_never_reallocate() {
    let queue: Vec<WaitingJob> = (0..12)
        .map(|i| WaitingJob {
            id: JobId(i),
            procs: 4 + (i % 3),
            predicted: 100 + (i as i64 % 4) * 50,
            requested: 1_000,
            submit: Time(i as i64),
            user: 1,
        })
        .collect();
    let running: Vec<RunningJob> = (0..6)
        .map(|i| RunningJob {
            id: JobId(100 + i),
            procs: 4,
            start: Time(0),
            predicted_end: Time(50 + (i as i64 % 3) * 50),
            deadline: Time(10_000),
            user: 1,
            corrections: 0,
            partition: 0,
        })
        .collect();
    let releases = ReleaseSet::from_running(&running);
    let shortest = sorted_shortest_first(&queue);
    let used: u32 = running.iter().map(|r| r.procs).sum();
    let ctx = SchedulerContext {
        now: Time(10),
        partition: 0,
        machine_size: MACHINE,
        free: MACHINE - used,
        queue: &queue,
        running: &running,
        releases: &releases,
        shortest_first: &shortest,
    };

    let mut easy = EasyScheduler::sjbf();
    let mut conservative = ConservativeScheduler::new();
    let mut starts = Vec::new();
    let mut pass = || {
        starts.clear();
        easy.schedule_into(&ctx, &mut starts);
        starts.clear();
        conservative.schedule_into(&ctx, &mut starts);
    };
    for _ in 0..3 {
        pass();
    }
    let ((), count) = allocs(|| (0..1_000).for_each(|_| pass()));
    assert_eq!(count, 0, "warm EASY-SJBF and conservative passes");
}

/// End-to-end: on a warm arena with a warm scheduler, a whole run
/// allocates only its result's outcome vector, with or without a
/// correction, whatever the job count.
#[test]
fn simulation_passes_are_warm_after_startup() {
    let jobs = contended_jobs(1_500);
    let config = SimConfig::single(MACHINE);
    let correction: &dyn CorrectionPolicy = &RequestedTimeCorrection;
    let schedulers: [Box<dyn Scheduler>; 3] = [
        Box::new(EasyScheduler::new()),
        Box::new(EasyScheduler::sjbf()),
        Box::new(ConservativeScheduler::new()),
    ];
    for mut scheduler in schedulers {
        let scheduler = scheduler.as_mut();
        let mut arena = SimArena::new();
        let cold = run_allocs(&mut arena, &jobs, config, scheduler, None);
        assert!(
            cold > 4,
            "{}: a cold run must grow buffers",
            scheduler.name()
        );
        for n in [1_500, 300] {
            let warm = run_allocs(&mut arena, &jobs[..n], config, scheduler, None);
            assert_eq!(warm, 1, "{} on {n} jobs", scheduler.name());
            let warm = run_allocs(&mut arena, &jobs[..n], config, scheduler, Some(correction));
            assert_eq!(warm, 1, "{} on {n} jobs, corrected", scheduler.name());
        }
    }
}

/// One arena serves a split cluster and the single machine of the same
/// size: once it has run on both shapes, a run on either allocates only
/// its result (the release sets of the wider shape are kept and reused).
#[test]
fn arena_stays_warm_across_cluster_shapes() {
    let jobs = contended_jobs(1_500);
    let half = |speed| Partition { size: 16, speed };
    let split = SimConfig {
        cluster: ClusterSpec::from_partitions(&[half(1.0), half(0.5)]).unwrap(),
    };
    let single = SimConfig::single(MACHINE);
    let mut arena = SimArena::new();
    let mut scheduler = EasyScheduler::sjbf();
    for config in [split, single] {
        run_allocs(&mut arena, &jobs, config, &mut scheduler, None);
    }
    for config in [split, single, split, single] {
        let warm = run_allocs(&mut arena, &jobs, config, &mut scheduler, None);
        assert_eq!(warm, 1, "{:?}", config.cluster);
    }
}

/// A caller done with a result gives its outcome vector back: on a warm
/// arena, run → reclaim → run allocates nothing, for a smaller run too.
/// Without the reclaim, the heap a warm run holds at its peak is its
/// outcome vector, byte for byte.
#[test]
fn reclaimed_outcomes_make_the_next_run_allocation_free() {
    let jobs = contended_jobs(1_500);
    let config = SimConfig::single(MACHINE);
    let correction: &dyn CorrectionPolicy = &RequestedTimeCorrection;
    let mut arena = SimArena::new();
    let mut scheduler = EasyScheduler::sjbf();
    let mut run = |arena: &mut SimArena, n: usize| -> SimResult {
        simulate_in(
            arena,
            &jobs[..n],
            config,
            &mut scheduler,
            &mut RequestedTimePredictor,
            Some(correction),
            &mut NullObserver,
        )
        .unwrap()
    };
    let warm_up = run(&mut arena, 1_500);
    arena.reclaim(warm_up.outcomes);
    for n in [1_500, 300, 1_500] {
        let (result, count) = allocs(|| run(&mut arena, n));
        assert_eq!(count, 0, "reclaimed arena on {n} jobs");
        assert_eq!(result.outcomes.len(), n);
        arena.reclaim(result.outcomes);
    }
    let taken = run(&mut arena, 1_500);
    let (result, peak) = peak_live_bytes(|| run(&mut arena, 1_500));
    assert_eq!(peak, (1_500 * std::mem::size_of::<JobOutcome>()) as u64);
    // A shorter vector does not replace the longer one the arena holds.
    arena.reclaim(taken.outcomes);
    arena.reclaim(result.outcomes[..300].to_vec());
    let (_, count) = allocs(|| run(&mut arena, 1_500));
    assert_eq!(count, 0, "the arena kept the longer vector");
}

/// An idle worker keeps no giant vector: `reclaim` keeps at most 2¹⁹
/// outcomes, so a larger vector is dropped on the spot and the arena
/// goes on holding the one it had. (The over-bound vector is never
/// written, so its capacity costs no pages.)
#[test]
fn an_over_bound_vector_is_dropped_and_the_held_one_kept() {
    const BOUND: usize = 1 << 19;
    let jobs = contended_jobs(300);
    let config = SimConfig::single(MACHINE);
    let mut arena = SimArena::new();
    let mut scheduler = EasyScheduler::sjbf();
    let warm_up = simulate_in(
        &mut arena,
        &jobs,
        config,
        &mut scheduler,
        &mut RequestedTimePredictor,
        None,
        &mut NullObserver,
    )
    .unwrap();
    arena.reclaim(warm_up.outcomes);

    let before = live_bytes();
    arena.reclaim(Vec::with_capacity(BOUND + 1));
    assert_eq!(
        live_bytes(),
        before,
        "the over-bound vector is freed at once"
    );
    let count = run_allocs(&mut arena, &jobs, config, &mut scheduler, None);
    assert_eq!(count, 0, "the arena still holds the vector it had");

    // That run took the held vector with it: a vector at the bound is
    // now kept, whole.
    let before = live_bytes();
    arena.reclaim(Vec::with_capacity(BOUND));
    assert_eq!(
        live_bytes() - before,
        (BOUND * std::mem::size_of::<JobOutcome>()) as i64
    );
}
