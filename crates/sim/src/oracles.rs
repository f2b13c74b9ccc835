//! The op-sequence oracle properties: random operation sequences
//! applied to the engine's private state ([`SimState`], [`Profile`]),
//! checked against the brute-force oracles of
//! `tests/support/reference.rs` after every step. They run as unit tests
//! because those types are not exported; the oracle properties that
//! need only the crate's API stay in `tests/incremental_oracle.rs` and
//! `tests/hetero_oracle.rs`.

// Written for the integration tests, where its items are `pub`.
#[allow(unreachable_pub)]
#[path = "../tests/support/reference.rs"]
mod reference;

use proptest::prelude::*;

use crate::scheduler::Profile;
use crate::state::SimState;
use crate::{
    BackfillOrder, ClusterSpec, ConservativeScheduler, EasyScheduler, JobId, Partition, ReleaseSet,
    RunningJob, Scheduler, SchedulerContext, Time,
};
use reference::{
    arb_cluster, ctx_of, route, schedule, waiting, BruteProfile, ReferenceConservative,
    ReferenceEasy, Snapshot, MACHINE, TIE_TIMES,
};

/// One engine-style routing instant over `state` at `now`: a pass of
/// `scheduler` per partition in first-fit order, applying starts and
/// compacting the queue between passes — exactly the engine's loop.
/// `referee` sees each pass's context and starts before they are
/// applied. The `(job, partition)` placements are returned in decision
/// order.
fn route_like_engine(
    state: &mut SimState,
    cluster: ClusterSpec,
    now: Time,
    scheduler: &mut dyn Scheduler,
    mut referee: impl FnMut(&SchedulerContext<'_>, &[JobId]),
) -> Vec<(JobId, u32)> {
    let mut placements = Vec::new();
    for partition in 0..cluster.len() as u32 {
        if state.queue_is_empty() {
            break;
        }
        if state.free_in(partition) == 0 {
            continue;
        }
        let ctx = SchedulerContext {
            now,
            partition,
            machine_size: cluster.part(partition as usize).size,
            free: state.free_in(partition),
            queue: state.queue(),
            running: state.running(),
            releases: state.releases_in(partition),
            shortest_first: state.shortest_first(),
        };
        let starts = schedule(scheduler, &ctx);
        referee(&ctx, &starts);
        for &id in &starts {
            let index = state
                .waiting_index(id)
                .expect("scheduler starts a waiting job");
            let w = *state.waiting_at(index);
            state.start(
                index,
                RunningJob {
                    id,
                    procs: w.procs,
                    start: now,
                    predicted_end: now.plus(w.predicted),
                    deadline: now.plus(w.requested),
                    user: w.user,
                    corrections: 0,
                    partition,
                },
            );
            placements.push((id, partition));
        }
        state.compact_queue();
    }
    placements
}

/// [`Profile::place`] against the brute-force search from `now` and
/// carve, on a profile built at `now` from `free` idle processors and
/// `releases`, then carved by each `(width, duration)` in turn: windows
/// inside one segment and across many, and full-width reservations that
/// leave zero-capacity segments. Every placement must return the brute
/// force's start, leave its breakpoints, and add at most one.
fn sweep_matches_brute_force(
    now: i64,
    free: u32,
    releases: &[(i64, u32)],
    placements: &[(u32, i64)],
) -> Result<(), TestCaseError> {
    let mut set = ReleaseSet::new();
    for &(end, procs) in releases {
        set.add(end, procs);
    }
    let mut sweep = Profile::default();
    sweep.rebuild_from(Time(now), free, &set);
    let timed: Vec<(Time, u32)> = releases.iter().map(|&(t, p)| (Time(t), p)).collect();
    let mut brute = BruteProfile::new(Time(now), free, &timed);
    prop_assert_eq!(sweep.points(), &brute.points[..]);

    let machine = free + releases.iter().map(|&(_, p)| p).sum::<u32>();
    for &(width, duration) in placements {
        // 0 ..= machine: nothing, a share, or the whole machine.
        let procs = width % (machine + 1);
        let breakpoints = brute.points.len();
        let start = brute.earliest_start(now, procs, duration);
        brute.reserve(start, duration, procs);
        let placed = (procs, duration, sweep.place(procs, duration));
        prop_assert_eq!(placed, (procs, duration, start));
        prop_assert_eq!(sweep.points(), &brute.points[..]);
        prop_assert!(sweep.points().len() <= breakpoints + 1);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// [`Profile::place`] is the brute-force search from `now` followed
    /// by the brute-force carve, on random profiles.
    #[test]
    fn sweep_matches_brute_force_on_random_profiles(
        now in 0i64..40,
        free in 0u32..6,
        releases in prop::collection::vec((0i64..120, 1u32..5), 0..10),
        placements in prop::collection::vec((0u32..64, 1i64..90), 1..24),
    ) {
        sweep_matches_brute_force(now, free, &releases, &placements)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The deep variant, for release builds: longer profiles and more
    /// placements on each. Run with
    /// `cargo test --release -p predictsim-sim --lib sweep_matches -- --ignored`.
    #[test]
    #[ignore]
    fn sweep_matches_brute_force_on_random_profiles_deep(
        now in 0i64..40,
        free in 0u32..6,
        releases in prop::collection::vec((0i64..1_000, 1u32..5), 0..64),
        placements in prop::collection::vec((0u32..256, 1i64..400), 1..96),
    ) {
        sweep_matches_brute_force(now, free, &releases, &placements)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random operation sequences driven through `SimState`, so the
    /// release set is maintained incrementally across starts, finishes,
    /// and corrections — after every step the schedulers must still
    /// match the oracles, and the slot map must stay exact.
    #[test]
    fn incremental_maintenance_matches_oracle(
        ops in prop::collection::vec((0u8..4, 0usize..8, 0usize..TIE_TIMES.len()), 1..40)
    ) {
        let n = 64usize;
        let mut state = SimState::new_cluster(ClusterSpec::single(MACHINE), n);
        let mut next_id = 0u32;
        let mut warm_easy = EasyScheduler::sjbf();
        let mut warm_conservative = ConservativeScheduler::new();
        for (op, pick, t_index) in ops {
            match op {
                // Submit a new job.
                0 | 1 => {
                    if (next_id as usize) < n {
                        let procs = 1 + (pick as u32 % 6);
                        let predicted = TIE_TIMES[t_index];
                        state.enqueue(waiting(next_id, procs, predicted, next_id as i64));
                        next_id += 1;
                    }
                }
                // Start the first waiting job that fits.
                2 => {
                    let fit = state
                        .queue()
                        .iter()
                        .position(|w| w.procs <= state.free())
                        .map(|i| state.queue()[i]);
                    if let Some(w) = fit {
                        let index = state.waiting_index(w.id).unwrap();
                        state.start(index, RunningJob {
                            id: w.id,
                            procs: w.procs,
                            start: Time(0),
                            predicted_end: Time(TIE_TIMES[t_index]),
                            deadline: Time(100_000),
                            user: w.user,
                            corrections: 0,
                            partition: 0,
                        });
                        state.compact_queue();
                    }
                }
                // Finish or correct a running job.
                _ => {
                    if state.running().is_empty() {
                        continue;
                    }
                    let index = pick % state.running().len();
                    let id = state.running()[index].id;
                    if pick % 2 == 0 {
                        state.finish(id);
                    } else {
                        let index = state.running_index(id).unwrap();
                        state.apply_correction(index, Time(TIE_TIMES[t_index] + 1));
                    }
                }
            }
            state.assert_consistent();

            // A scheduling pass over the current state must match the
            // from-scratch oracles (warm scratch, so this also shakes
            // stale-scratch bugs out).
            let snapshot = Snapshot {
                queue: state.queue().to_vec(),
                running: state.running().to_vec(),
            };
            let ctx = ctx_of(&snapshot, state.releases_in(0), state.shortest_first());
            prop_assert_eq!(
                schedule(&mut warm_easy, &ctx),
                schedule(&mut ReferenceEasy::sjbf(), &ctx),
                "warm EASY-SJBF diverged after incremental ops"
            );
            prop_assert_eq!(
                schedule(&mut warm_conservative, &ctx),
                schedule(&mut ReferenceConservative, &ctx),
                "warm conservative diverged after incremental ops"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random op sequences (submits, engine-style routed starts,
    /// finishes, corrections) on random clusters: after every step the
    /// state stays consistent and the engine-style routing pass places
    /// exactly what the brute-force oracle places.
    #[test]
    fn routing_matches_oracle_on_random_op_sequences(
        cluster in arb_cluster(),
        ops in prop::collection::vec((0u8..4, 0usize..8, 0usize..TIE_TIMES.len()), 1..40),
        sjbf in 0u8..2,
    ) {
        let order = if sjbf == 1 { BackfillOrder::ShortestFirst } else { BackfillOrder::Fcfs };
        let n = 64usize;
        let mut state = SimState::new_cluster(cluster, n);
        let mut next_id = 0u32;
        for (op, pick, t_index) in ops {
            match op {
                // Submit a new job (never wider than the widest
                // partition — the engine validates this up front).
                0 | 1 => {
                    if (next_id as usize) < n {
                        let procs = 1 + (pick as u32 % cluster.max_partition_size());
                        state.enqueue(waiting(next_id, procs, TIE_TIMES[t_index], next_id as i64));
                        next_id += 1;
                    }
                }
                // One engine-style routing instant, checked against the
                // oracle on the pre-pass snapshot.
                2 => {
                    let queue = state.queue().to_vec();
                    let running = state.running().to_vec();
                    let easy = ReferenceEasy { order };
                    let expected = route(Time(0), cluster, &queue, &running, &|n, p, f, q, r| {
                        easy.decide(n, p, f, q, r)
                    });
                    let mut production = EasyScheduler::with_order(order);
                    let placed =
                        route_like_engine(&mut state, cluster, Time(0), &mut production, |_, _| {});
                    prop_assert_eq!(
                        placed, expected,
                        "engine routing diverged from the reference"
                    );
                }
                // Finish or correct a running job.
                _ => {
                    if state.running().is_empty() {
                        continue;
                    }
                    let index = pick % state.running().len();
                    let id = state.running()[index].id;
                    if pick % 2 == 0 {
                        state.finish(id);
                    } else {
                        let index = state.running_index(id).unwrap();
                        state.apply_correction(index, Time(TIE_TIMES[t_index] + 1));
                    }
                }
            }
            state.assert_consistent();
        }
    }

    /// The per-partition conservative pass against its oracle on a
    /// two-partition machine. Random submits, routed starts, finishes and
    /// corrections leave running jobs on both partitions, often tied at
    /// the same instants; each partition's pass must plan from its own
    /// running jobs only — `ctx.running` holds the other partition's too
    /// — and start what `ReferenceConservative` starts.
    #[test]
    fn conservative_matches_oracle_per_partition(
        sizes in (8u32..=16, 8u32..=16),
        ops in prop::collection::vec((0u8..4, 0usize..8, 0usize..TIE_TIMES.len()), 1..40),
    ) {
        let cluster = ClusterSpec::from_partitions(&[
            Partition { size: sizes.0, speed: 1.0 },
            Partition { size: sizes.1, speed: 0.5 },
        ]).expect("valid partitions");
        let n = 64usize;
        let mut state = SimState::new_cluster(cluster, n);
        let mut production = ConservativeScheduler::new();
        let mut next_id = 0u32;
        for (op, pick, t_index) in ops {
            match op {
                // Submit a job no wider than the narrower partition (the
                // conservative precondition: procs ≤ machine).
                0 | 1 => {
                    if (next_id as usize) < n {
                        let procs = 1 + pick as u32;
                        state.enqueue(waiting(next_id, procs, TIE_TIMES[t_index], next_id as i64));
                        next_id += 1;
                    }
                }
                // One routing instant, first-fit, each pass refereed.
                2 => {
                    let mut diverged = None;
                    route_like_engine(&mut state, cluster, Time(0), &mut production, |ctx, starts| {
                        if starts != schedule(&mut ReferenceConservative, ctx) {
                            diverged.get_or_insert(ctx.partition);
                        }
                    });
                    prop_assert_eq!(diverged, None, "conservative diverged from its oracle");
                }
                // Finish or correct a running job.
                _ => {
                    if state.running().is_empty() {
                        continue;
                    }
                    let index = pick % state.running().len();
                    let id = state.running()[index].id;
                    if pick % 2 == 0 {
                        state.finish(id);
                    } else {
                        let index = state.running_index(id).unwrap();
                        state.apply_correction(index, Time(TIE_TIMES[t_index] + 1));
                    }
                }
            }
            state.assert_consistent();
        }
    }
}

/// One pass of the long-lived `kept` at `now`, routed like the engine:
/// on every partition its starts must equal a fresh scheduler's and the
/// oracle's. The starts are applied.
fn refereed_pass(
    state: &mut SimState,
    cluster: ClusterSpec,
    now: Time,
    kept: &mut ConservativeScheduler,
) -> Result<(), TestCaseError> {
    let mut diverged = None;
    route_like_engine(state, cluster, now, kept, |ctx, starts| {
        let fresh = schedule(&mut ConservativeScheduler::new(), ctx);
        let oracle = schedule(&mut ReferenceConservative, ctx);
        if diverged.is_none() && (starts != fresh || starts != oracle) {
            diverged = Some(format!(
                "t={} partition {}: kept {starts:?}, fresh {fresh:?}, oracle {oracle:?}",
                ctx.now.0, ctx.partition
            ));
        }
    });
    prop_assert_eq!(diverged, None::<String>);
    Ok(())
}

/// Drives `state` through one random engine-like history, with a
/// refereed pass of `kept` wherever the history holds one. Time moves
/// forward only, and never past a predicted end: the jobs due at the new
/// instant each finish exactly or have their prediction corrected. Jobs
/// also finish early and have running predictions moved, arrive (no
/// wider than the widest partition), and are started by the passes,
/// which skip a partition with no free processor as the engine does.
fn run_history(
    state: &mut SimState,
    cluster: ClusterSpec,
    now: &mut Time,
    next_id: &mut u32,
    jobs: usize,
    history: &[(u8, usize, usize)],
    kept: &mut ConservativeScheduler,
) -> Result<(), TestCaseError> {
    for &(op, pick, t) in history {
        match op {
            0 | 1 => {
                if (*next_id as usize) < jobs {
                    let procs = 1 + pick as u32 % cluster.max_partition_size();
                    let predicted = TIE_TIMES[t] + (pick % 3) as i64;
                    state.enqueue(waiting(*next_id, procs, predicted, now.0));
                    *next_id += 1;
                }
            }
            2 => {
                let due = state.running().iter().map(|r| r.predicted_end).min();
                *now = now
                    .plus([1, 25, 50][pick % 3])
                    .min(due.unwrap_or(Time(i64::MAX)));
                while let Some(index) =
                    (state.running().iter()).position(|r| r.predicted_end <= *now)
                {
                    if pick % 2 == 0 {
                        state.finish(state.running()[index].id);
                    } else {
                        state.apply_correction(index, now.plus(TIE_TIMES[t]));
                    }
                }
            }
            3 | 4 if !state.running().is_empty() => {
                let index = pick % state.running().len();
                if op == 3 {
                    state.finish(state.running()[index].id);
                } else {
                    state.apply_correction(index, now.plus(TIE_TIMES[t] + 1));
                }
            }
            3 | 4 => {}
            _ => refereed_pass(state, cluster, *now, kept)?,
        }
        state.assert_consistent();
    }
    Ok(())
}

/// A second run on the same machine at the same instant, whose job ids
/// collide with `state`'s: the same running jobs, and the same queue
/// ids in the same order, each job's width or prediction changed as
/// `changes` cycles through 0 (kept), 1 (width) and 2 (prediction).
fn twin_with_other_jobs(
    state: &SimState,
    cluster: ClusterSpec,
    jobs: usize,
    changes: &[u8],
) -> SimState {
    let mut twin = SimState::new_cluster(cluster, jobs);
    for r in state.running() {
        twin.enqueue(waiting(
            r.id.0,
            r.procs,
            r.predicted_end.0 - r.start.0,
            r.start.0,
        ));
        twin.start(twin.waiting_index(r.id).expect("just enqueued"), *r);
        twin.compact_queue();
    }
    for (w, change) in state.queue().iter().zip(changes.iter().cycle()) {
        let mut w = *w;
        match change {
            1 => w.procs = w.procs % cluster.max_partition_size() + 1,
            2 => w.predicted += 25,
            _ => {}
        }
        twin.enqueue(w);
    }
    twin
}

/// The kept-plan property at one depth: a single conservative scheduler
/// lives through a random history on a one- or two-partition machine,
/// then through a second history whose first queue reuses the first's
/// job ids with other widths and predictions. After every pass its
/// starts equal a fresh scheduler's and the oracle's, so whatever it
/// kept from earlier passes changed nothing.
fn kept_plan_holds(
    sizes: (u32, u32),
    split: bool,
    jobs: usize,
    first: &[(u8, usize, usize)],
    second: &[(u8, usize, usize)],
    changes: &[u8],
) -> Result<(), TestCaseError> {
    let cluster = if split {
        ClusterSpec::from_partitions(&[
            Partition {
                size: sizes.0,
                speed: 1.0,
            },
            Partition {
                size: sizes.1,
                speed: 0.5,
            },
        ])
        .expect("valid partitions")
    } else {
        ClusterSpec::single(sizes.0)
    };
    let mut kept = ConservativeScheduler::new();
    let mut state = SimState::new_cluster(cluster, jobs);
    let (mut now, mut next_id) = (Time(0), 0);
    run_history(
        &mut state,
        cluster,
        &mut now,
        &mut next_id,
        jobs,
        first,
        &mut kept,
    )?;
    refereed_pass(&mut state, cluster, now, &mut kept)?;
    let mut twin = twin_with_other_jobs(&state, cluster, jobs, changes);
    refereed_pass(&mut twin, cluster, now, &mut kept)?;
    run_history(
        &mut twin,
        cluster,
        &mut now,
        &mut next_id,
        jobs,
        second,
        &mut kept,
    )
}

/// A history of up to `len` events: arrivals (0, 1), time advancing (2),
/// early finishes (3), moved predictions (4) and passes (5–7).
fn arb_history(len: usize) -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
    prop::collection::vec((0u8..8, 0usize..16, 0usize..TIE_TIMES.len()), 1..len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A conservative scheduler that keeps its last plan starts exactly
    /// what one that keeps nothing starts, and what the oracle starts.
    #[test]
    fn a_kept_plan_starts_what_a_fresh_pass_starts(
        sizes in (4u32..=16, 4u32..=16),
        split in 0u8..2,
        first in arb_history(60),
        second in arb_history(30),
        changes in prop::collection::vec(0u8..3, 1..6),
    ) {
        kept_plan_holds(sizes, split == 1, 64, &first, &second, &changes)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// The deep variant, for release builds: longer histories over more
    /// jobs, so queues and kept plans grow deeper. Run with
    /// `cargo test --release -p predictsim-sim --lib kept_plan -- --ignored`.
    #[test]
    #[ignore]
    fn a_kept_plan_starts_what_a_fresh_pass_starts_deep(
        sizes in (4u32..=32, 4u32..=32),
        split in 0u8..2,
        first in arb_history(400),
        second in arb_history(200),
        changes in prop::collection::vec(0u8..3, 1..6),
    ) {
        kept_plan_holds(sizes, split == 1, 512, &first, &second, &changes)?;
    }
}
