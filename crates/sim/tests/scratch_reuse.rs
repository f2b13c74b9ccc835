//! The no-allocation guarantee: warm scheduler passes must not grow any
//! scratch buffer. Verified through the pool-stats-style
//! [`ScratchStats`] counters the schedulers expose.

use predictsim_sim::arena::SimArena;
use predictsim_sim::engine::{simulate_in, SimConfig};
use predictsim_sim::job::{Job, JobId};
use predictsim_sim::observe::NullObserver;
use predictsim_sim::predict::RequestedTimePredictor;
use predictsim_sim::scheduler::{ConservativeScheduler, EasyScheduler, ReleaseSet, Scheduler};
use predictsim_sim::state::{sorted_shortest_first, RunningJob, SchedulerContext, WaitingJob};
use predictsim_sim::time::Time;

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

/// Hermetic pin: after a short warm-up on a fixed context shape, a
/// thousand further passes must not grow any scratch buffer — neither
/// the scheduler's own nor the caller's reused `starts` vector.
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
    for _ in 0..3 {
        starts.clear();
        easy.schedule_into(&ctx, &mut starts);
        starts.clear();
        conservative.schedule_into(&ctx, &mut starts);
    }
    easy.reset_stats();
    conservative.reset_stats();
    for _ in 0..1_000 {
        starts.clear();
        easy.schedule_into(&ctx, &mut starts);
        starts.clear();
        conservative.schedule_into(&ctx, &mut starts);
    }
    assert_eq!(easy.stats().passes, 1_000);
    assert_eq!(
        easy.stats().reallocating_passes,
        0,
        "warm EASY passes must allocate nothing"
    );
    assert_eq!(conservative.stats().passes, 1_000);
    assert_eq!(
        conservative.stats().reallocating_passes,
        0,
        "warm conservative passes must allocate nothing"
    );
}

/// End-to-end: across a full contended simulation, buffer growth is
/// confined to the warm-up tail — a vanishing fraction of passes — and
/// a second run with the *same* scheduler instance (warm scratch, fresh
/// engine) grows scheduler-owned buffers on at most the handful of
/// passes where the engine's own reused `starts` list is still cold.
#[test]
fn simulation_passes_are_warm_after_startup() {
    let jobs = contended_jobs(1_500);
    let cfg = SimConfig::single(MACHINE);

    let run = |sched: &mut EasyScheduler| {
        simulate_in(
            &mut SimArena::new(),
            &jobs,
            cfg,
            sched,
            &mut RequestedTimePredictor,
            None,
            &mut NullObserver,
        )
        .unwrap()
    };
    let mut sched = EasyScheduler::sjbf();
    run(&mut sched);
    let cold = sched.stats();
    assert!(cold.passes > 1_000, "contended workload must pass often");
    assert!(
        cold.reallocating_passes * 50 < cold.passes,
        "buffer growth must be confined to warm-up: {} of {} passes reallocated",
        cold.reallocating_passes,
        cold.passes
    );

    sched.reset_stats();
    run(&mut sched);
    let warm = sched.stats();
    assert!(
        warm.reallocating_passes <= 16,
        "second run with warm scratch reallocated {} times",
        warm.reallocating_passes
    );
}
