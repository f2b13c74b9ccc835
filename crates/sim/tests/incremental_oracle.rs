//! The incremental schedulers against the rebuild-from-scratch oracles.
//!
//! `EasyScheduler` and `ConservativeScheduler` now read the engine's
//! incrementally maintained [`ReleaseSet`] instead of re-collecting and
//! re-sorting the running set each pass. These properties pin the
//! refactor's core claim — identical starts to the brute-force
//! [`ReferenceEasy`] / [`ReferenceConservative`] oracles — on random
//! queue/running states (with release-time ties made *likely*, to drive
//! EASY through its tie fallback). Oversized head jobs exercise the
//! reservation's degrade-gracefully branch. The properties that apply
//! random operation sequences to the engine's private state (so the
//! release set is genuinely maintained, not rebuilt) and the one that
//! checks the production profile sweep against `BruteProfile` run as
//! the crate's unit tests (`src/oracles.rs`).
//!
//! EASY resolves a heterogeneous tie at the reservation's crossing
//! instant on an interval `[lo, hi]` that holds the legacy `extra`, and
//! sorts only when a candidate falls between the bounds. Half of the
//! random snapshots are built around such a tie ([`arb_tie_snapshot`]),
//! and the unit cases at the end pin each side of that decision through
//! [`EasyScheduler::slow_passes`]. The oracles' own unit tests (the
//! Figure 2 scenario, the names) live here too, so they run once.

#[path = "support/reference.rs"]
mod reference;

use proptest::prelude::*;

use predictsim_sim::{
    simulate_in, sorted_shortest_first, ConservativeScheduler, EasyScheduler, Job, JobId,
    ReleaseSet, RequestedTimePredictor, RunningJob, Scheduler, SchedulerContext, SimConfig, Time,
    WaitingJob,
};
use reference::{
    ctx_of, schedule, waiting, ReferenceConservative, ReferenceEasy, Snapshot, MACHINE, TIE_TIMES,
};

fn running(id: u32, procs: u32, predicted_end: i64) -> RunningJob {
    RunningJob {
        id: JobId(id),
        procs,
        start: Time(0),
        predicted_end: Time(predicted_end),
        deadline: Time(predicted_end + 100_000),
        user: 1,
        corrections: 0,
        partition: 0,
    }
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    prop_oneof![arb_loose_snapshot(), arb_tie_snapshot()]
}

/// A snapshot built around a crossing tie: 2–5 running jobs of mixed
/// widths end at t=50, the blocked head needs 1 to all of what they
/// release on top of what is free before them, up to two phase-1
/// starters may join the group (predicted 50) and a job may end earlier.
/// The candidates behind the head are narrow (1–6 processors) and either
/// end by the shadow or far outlive it — so across cases they land below
/// `lo`, between the bounds and above `hi`.
fn arb_tie_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        prop::collection::vec(1u32..=4, 2..6),
        0u32..=2,
        prop::collection::vec((1u32..=2, 0usize..2), 0..3),
        0u32..16,
        prop::collection::vec((1u32..=6, 0usize..2), 1..7),
    )
        .prop_map(|(group, early, phase1, need, candidates)| {
            // 5 processors stay free; the rest of the machine is the
            // tied group, the early finisher and a job that ends late.
            let mut free = 5;
            let mut budget = MACHINE - free;
            let mut running_jobs = Vec::new();
            for (id, procs) in (1000..).zip(group) {
                let procs = procs.min(budget);
                if procs > 0 {
                    budget -= procs;
                    running_jobs.push(running(id, procs, 50));
                }
            }
            let tied = MACHINE - free - budget;
            let early = early.min(budget);
            for (id, procs, end) in [(1100, early, 20), (1200, budget - early, 400)] {
                if procs > 0 {
                    running_jobs.push(running(id, procs, end));
                }
            }
            let mut queue = Vec::new();
            for (procs, joins) in phase1 {
                if procs < free {
                    free -= procs;
                    queue.push((procs, [50, 120][joins]));
                }
            }
            queue.push((free + early + 1 + need % tied, 100));
            queue.extend(
                candidates
                    .into_iter()
                    .map(|(procs, long)| (procs, [30, 300][long])),
            );
            Snapshot {
                queue: queue
                    .into_iter()
                    .enumerate()
                    .map(|(i, (procs, predicted))| waiting(i as u32, procs, predicted, i as i64))
                    .collect(),
                running: running_jobs,
            }
        })
}

fn arb_loose_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        prop::collection::vec((1u32..=6, 0usize..TIE_TIMES.len()), 0..8),
        prop::collection::vec((1u32..=24, 0usize..TIE_TIMES.len(), 1i64..4), 0..10),
    )
        .prop_map(|(run_specs, wait_specs)| {
            let mut running_jobs = Vec::new();
            let mut budget = MACHINE;
            for (id, (procs, t_index)) in (1000..).zip(run_specs) {
                let procs = procs.min(budget);
                if procs == 0 {
                    break;
                }
                budget -= procs;
                running_jobs.push(running(id, procs, TIE_TIMES[t_index]));
            }
            let queue = wait_specs
                .into_iter()
                .enumerate()
                .map(|(i, (procs, t_index, factor))| {
                    waiting(i as u32, procs, TIE_TIMES[t_index] * factor, i as i64)
                })
                .collect();
            Snapshot {
                queue,
                running: running_jobs,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On arbitrary snapshots (tie-heavy release times, oversized jobs),
    /// every production scheduler matches its from-scratch oracle.
    #[test]
    fn production_matches_oracle_on_random_states(snapshot in arb_snapshot()) {
        let releases = ReleaseSet::from_running(&snapshot.running);
        let shortest = sorted_shortest_first(&snapshot.queue);
        let ctx = ctx_of(&snapshot, &releases, &shortest);
        prop_assert_eq!(
            schedule(&mut EasyScheduler::new(), &ctx),
            schedule(&mut ReferenceEasy::new(), &ctx),
            "EASY diverged from oracle"
        );
        prop_assert_eq!(
            schedule(&mut EasyScheduler::sjbf(), &ctx),
            schedule(&mut ReferenceEasy::sjbf(), &ctx),
            "EASY-SJBF diverged from oracle"
        );
        // Conservative requires the engine precondition procs ≤ machine
        // (its profile reservation would otherwise over-carve — EASY's
        // degrade branch has no conservative counterpart), so clamp.
        let mut clamped = snapshot.clone();
        for w in &mut clamped.queue {
            w.procs = w.procs.min(MACHINE);
        }
        let shortest = sorted_shortest_first(&clamped.queue);
        let ctx = ctx_of(&clamped, &releases, &shortest);
        prop_assert_eq!(
            schedule(&mut ConservativeScheduler::new(), &ctx),
            schedule(&mut ReferenceConservative, &ctx),
            "conservative diverged from oracle"
        );
    }
}

#[test]
fn oracles_match_production_on_the_figure2_scenario() {
    let queue = [waiting(2, 8, 200, 1), waiting(3, 4, 90, 2)];
    let running = [running(1, 6, 100)];
    let (releases, shortest) = (
        ReleaseSet::from_running(&running),
        sorted_shortest_first(&queue),
    );
    let c = SchedulerContext {
        now: Time(0),
        partition: 0,
        machine_size: 10,
        free: 4,
        queue: &queue,
        running: &running,
        releases: &releases,
        shortest_first: &shortest,
    };
    assert_eq!(
        schedule(&mut ReferenceEasy::new(), &c),
        schedule(&mut EasyScheduler::new(), &c)
    );
    assert_eq!(
        schedule(&mut ReferenceConservative, &c),
        schedule(&mut ConservativeScheduler::new(), &c)
    );
}

#[test]
fn names() {
    assert_eq!(ReferenceEasy::new().name(), "reference-easy");
    assert_eq!(ReferenceEasy::sjbf().name(), "reference-easy-sjbf");
    assert_eq!(ReferenceConservative.name(), "reference-conservative");
}

/// Deterministic pin of the degrade-gracefully branch: a head job wider
/// than the machine can never be covered, so the reservation collapses
/// to `(now, 0)` — and production still matches the oracle.
#[test]
fn oversized_head_takes_degrade_branch_identically() {
    let snapshot = Snapshot {
        queue: vec![waiting(0, MACHINE + 8, 100, 0), waiting(1, 2, 40, 1)],
        running: vec![running(1000, MACHINE - 4, 50)],
    };
    let releases = ReleaseSet::from_running(&snapshot.running);
    let shortest = sorted_shortest_first(&snapshot.queue);
    let ctx = ctx_of(&snapshot, &releases, &shortest);
    let production = schedule(&mut EasyScheduler::new(), &ctx);
    assert_eq!(production, schedule(&mut ReferenceEasy::new(), &ctx));
    // With shadow = now and extra = 0, nothing that outlives `now` can
    // backfill ahead of the impossible head, though 4 processors are
    // free (a shadow at the release, t=50, would admit job 1).
    assert!(production.is_empty());
}

/// EASY's tie fallback really fires on *heterogeneous* tie states
/// (otherwise the oracle comparison above would only be exercising the
/// fast path).
#[test]
fn tie_fallback_engages_on_heterogeneous_crossing_ties() {
    // free=6; head needs 8; two running jobs release 8+2 at t=50, so the
    // cumulative availability crosses the head's requirement at an
    // instant with two releases of *different* widths — the fast path
    // must decline (the legacy walk's `extra` depends on which release
    // it crossed on).
    let snapshot = Snapshot {
        queue: vec![waiting(0, 8, 100, 0), waiting(1, 2, 300, 1)],
        running: vec![running(1000, 8, 50), running(1001, 2, 50)],
    };
    let releases = ReleaseSet::from_running(&snapshot.running);
    let shortest = sorted_shortest_first(&snapshot.queue);
    let ctx = ctx_of(&snapshot, &releases, &shortest);
    let mut easy = EasyScheduler::new();
    let starts = schedule(&mut easy, &ctx);
    assert_eq!(easy.slow_passes(), 1, "tie must take the fallback");
    assert_eq!(starts, schedule(&mut ReferenceEasy::new(), &ctx));
}

/// A *uniform* tie — every release at the crossing instant frees the
/// same processor count — is order-free (any permutation of equal
/// releases crosses after the same number of jobs), so the fast path
/// resolves it without the sort-and-walk fallback, and the decision
/// still matches the brute-force oracle.
#[test]
fn uniform_crossing_ties_stay_on_the_fast_path() {
    // free=4; head needs 8; three running jobs release 4 each at t=50:
    // the legacy walk crosses after the *first* release regardless of
    // order (extra = 4 + 4 - 8 = 0), so the 4-proc candidate that
    // outlives the shadow must NOT backfill — a naive tie resolution
    // that added the whole group before crossing would report extra = 8
    // and wrongly admit it.
    let snapshot = Snapshot {
        queue: vec![waiting(0, 8, 100, 0), waiting(1, 4, 300, 1)],
        running: vec![
            running(1000, 4, 50),
            running(1001, 4, 50),
            running(1002, 4, 50),
        ],
    };
    let releases = ReleaseSet::from_running(&snapshot.running);
    let shortest = sorted_shortest_first(&snapshot.queue);
    let ctx = ctx_of(&snapshot, &releases, &shortest);
    let mut easy = EasyScheduler::new();
    let starts = schedule(&mut easy, &ctx);
    assert_eq!(
        easy.slow_passes(),
        0,
        "uniform tie must stay on the fast path"
    );
    assert_eq!(starts, schedule(&mut ReferenceEasy::new(), &ctx));
}

/// Plain EASY and EASY-SJBF over `snapshot` as partition 0 of the
/// machine sees it (running jobs of other partitions stay in
/// `ctx.running`, as in the engine): each must start what its oracle
/// starts. Returns plain EASY's starts and how many passes sorted, per
/// backfill order `(fcfs, sjbf)`.
fn tie_case(snapshot: &Snapshot) -> (Vec<JobId>, (u64, u64)) {
    let local: Vec<RunningJob> = snapshot
        .running
        .iter()
        .filter(|r| r.partition == 0)
        .copied()
        .collect();
    let releases = ReleaseSet::from_running(&local);
    let shortest = sorted_shortest_first(&snapshot.queue);
    let ctx = ctx_of(snapshot, &releases, &shortest);
    let (mut fcfs, mut sjbf) = (EasyScheduler::new(), EasyScheduler::sjbf());
    let starts = schedule(&mut fcfs, &ctx);
    assert_eq!(starts, schedule(&mut ReferenceEasy::new(), &ctx), "EASY");
    assert_eq!(
        schedule(&mut sjbf, &ctx),
        schedule(&mut ReferenceEasy::sjbf(), &ctx),
        "EASY-SJBF"
    );
    (starts, (fcfs.slow_passes(), sjbf.slow_passes()))
}

/// The blocked head (job 0) followed by candidates `(procs, predicted)`,
/// ids from 1.
fn head_then(head_procs: u32, candidates: &[(u32, i64)]) -> Vec<WaitingJob> {
    std::iter::once((head_procs, 100))
        .chain(candidates.iter().copied())
        .enumerate()
        .map(|(i, (procs, predicted))| waiting(i as u32, procs, predicted, i as i64))
        .collect()
}

/// Releases of 5 and 3 tie at the crossing instant and the head needs 2
/// of them: the legacy walk reports `extra` 3 or 1 depending on which
/// it meets first, so `[lo, hi] = [1, 3]`. Candidates on either side of
/// the interval are decided without sorting; one inside it is not.
#[test]
fn tie_is_sorted_only_for_a_candidate_between_the_bounds() {
    let running = vec![
        running(1000, 5, 50),
        running(1001, 3, 50),
        running(1002, 2, 200),
    ];
    // 1 ≤ lo: admitted (bounds become [0, 2]); 4 > hi: refused; the
    // short job ends by the shadow and needs no extra at all.
    let (starts, sorts) = tie_case(&Snapshot {
        queue: head_then(8, &[(1, 300), (4, 300), (2, 40)]),
        running: running.clone(),
    });
    assert_eq!(starts, vec![JobId(1), JobId(3)]);
    assert_eq!(sorts, (0, 0), "no candidate between the bounds");
    // 1 < 2 ≤ 3: admitted under one tie order, refused under the other.
    let (_, sorts) = tie_case(&Snapshot {
        queue: head_then(8, &[(2, 300)]),
        running,
    });
    assert_eq!(sorts, (1, 1), "the legacy sort must decide");
}

/// A candidate admitted on `lo` shrinks both bounds, which can push a
/// later one — decidable on its own — between them. Releases 3 and 6,
/// head needs 1: `[lo, hi] = [2, 5]`.
#[test]
fn admission_on_the_lower_bound_shrinks_the_interval() {
    let running = vec![
        running(1000, 3, 50),
        running(1001, 6, 50),
        running(1002, 2, 400),
    ];
    let (starts, sorts) = tie_case(&Snapshot {
        queue: head_then(6, &[(2, 300)]),
        running: running.clone(),
    });
    assert_eq!((starts, sorts), (vec![JobId(1)], (0, 0)));
    // After the 1-wide job the bounds are [1, 4]; 2 now sits inside.
    let (_, sorts) = tie_case(&Snapshot {
        queue: head_then(6, &[(1, 300), (2, 300)]),
        running,
    });
    assert_eq!(sorts, (1, 1));
}

/// Three tied releases are still enumerated: 2, 3 and 4 with a need of 1
/// cross with 1, 2 or 3 to spare, so `[lo, hi] = [1, 3]` — tighter than
/// counting the whole group (8), which is what keeps the 4-wide
/// candidate out of the gap.
#[test]
fn three_tied_releases_are_enumerated() {
    let running = vec![
        running(1000, 2, 50),
        running(1001, 3, 50),
        running(1002, 4, 50),
        running(1003, 2, 400),
    ];
    let (starts, sorts) = tie_case(&Snapshot {
        queue: head_then(6, &[(1, 300), (4, 300), (3, 300)]),
        running: running.clone(),
    });
    assert_eq!((starts, sorts), (vec![JobId(1)], (0, 0)));
    let (_, sorts) = tie_case(&Snapshot {
        queue: head_then(6, &[(2, 300)]),
        running,
    });
    assert_eq!(sorts, (1, 1));
}

/// Four or more tied releases keep the trivial bounds `[0, all]`: any
/// candidate that fits, outlives the shadow and is no wider than the
/// whole group's surplus needs the sort; short or too-wide ones do not.
#[test]
fn larger_tied_groups_fall_back_for_any_long_candidate() {
    let running = vec![
        running(1000, 1, 50),
        running(1001, 2, 50),
        running(1002, 3, 50),
        running(1003, 4, 50),
        running(1004, 1, 400),
    ];
    let (starts, sorts) = tie_case(&Snapshot {
        queue: head_then(7, &[(2, 30), (6, 300)]),
        running: running.clone(),
    });
    assert_eq!((starts, sorts), (vec![JobId(1)], (0, 0)));
    let (_, sorts) = tie_case(&Snapshot {
        queue: head_then(7, &[(1, 300)]),
        running,
    });
    assert_eq!(sorts, (1, 1));
}

/// A job started in phase 1 of the same pass can complete the tie: the
/// running job frees 4 at t=50 and the phase-1 starter (2 wide,
/// predicted 50) frees 2 there too. The head needs 3 of them:
/// `[lo, hi] = [1, 3]`.
#[test]
fn phase_one_starts_join_the_tied_group() {
    let running = vec![running(1000, 4, 50), running(1001, 6, 200)];
    let queue = |candidate: (u32, i64)| {
        [(2, 50), (7, 100), candidate]
            .into_iter()
            .enumerate()
            .map(|(i, (procs, predicted))| waiting(i as u32, procs, predicted, i as i64))
            .collect()
    };
    let (starts, sorts) = tie_case(&Snapshot {
        queue: queue((1, 300)),
        running: running.clone(),
    });
    assert_eq!((starts, sorts), (vec![JobId(0), JobId(2)], (0, 0)));
    let (_, sorts) = tie_case(&Snapshot {
        queue: queue((2, 300)),
        running,
    });
    assert_eq!(sorts, (1, 1));
}

/// The interval is walked in the configured backfill order, so the same
/// tie can need the sort under one order and not the other. Releases 4
/// and 7, head needs 1: `[lo, hi] = [3, 6]`, 5 processors free.
/// Arrival order admits the 2-wide job and then has no room for the
/// 4-wide one; shortest-first meets the 4-wide one first, inside the
/// interval.
#[test]
fn the_backfill_order_decides_which_candidate_meets_the_interval() {
    let (starts, sorts) = tie_case(&Snapshot {
        queue: head_then(6, &[(2, 400), (4, 300)]),
        running: vec![running(1000, 4, 50), running(1001, 7, 50)],
    });
    assert_eq!((starts, sorts), (vec![JobId(1)], (0, 1)));
}

/// Running jobs of another partition that end at the crossing instant
/// are not part of the tie. Partition 0 ties 3 and 5 (`[lo, hi] =
/// [1, 3]`, and the legacy order — 3 first — leaves 1); the two 4-wide
/// jobs listed first belong to partition 1. Mistaking them for the
/// group would make the tie look uniform with 2 to spare and admit the
/// 2-wide candidate the oracle refuses.
#[test]
fn other_partitions_jobs_at_the_crossing_instant_are_ignored() {
    let elsewhere = |id| RunningJob {
        partition: 1,
        ..running(id, 4, 50)
    };
    let (starts, sorts) = tie_case(&Snapshot {
        queue: head_then(8, &[(2, 300)]),
        running: vec![
            elsewhere(2000),
            elsewhere(2001),
            running(1000, 3, 50),
            running(1001, 5, 50),
            running(1002, 2, 200),
        ],
    });
    assert_eq!((starts, sorts), (vec![], (1, 1)));
}

/// A fixed overloaded trace: one arrival a minute on 64 processors,
/// widths 1–16, requests in ten-minute steps and run times in whole
/// minutes, so the queue runs thousands deep and predicted ends tie all
/// the time.
fn deep_queue_jobs(n: u32) -> Vec<Job> {
    let mut x = 20150101u64;
    let mut draw = move |below: u64| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) % below
    };
    (0..n)
        .map(|i| {
            let requested = 600 * (1 + draw(12)) as i64;
            Job {
                id: JobId(i),
                submit: Time(60 * i as i64),
                run: 60 * (1 + draw(requested as u64 / 60)) as i64,
                requested,
                procs: 1 + draw(16) as u32,
                user: i % 7,
                user_ix: i % 7,
                swf_id: i as u64 + 1,
            }
        })
        .collect()
}

/// Counts the scheduling passes the engine asks of `S`.
struct Counted<S> {
    inner: S,
    passes: u64,
}

impl<S: Scheduler> Scheduler for Counted<S> {
    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, starts: &mut Vec<JobId>) {
        self.passes += 1;
        self.inner.schedule_into(ctx, starts);
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Complexity guard that reads no clock: how often a pass sorts is an
/// exact count. The number of passes is the schedule's and must not
/// move; the sorts must stay where interval tie resolution put them,
/// strictly below the count the parent commit took on this trace by
/// sorting at every heterogeneous crossing tie.
#[test]
fn deep_queue_sorts_stay_rare() {
    let jobs = deep_queue_jobs(4_000);
    for (inner, passes, sorts, sorts_at_every_tie) in [
        (EasyScheduler::sjbf(), 4_636, 86, 304),
        (EasyScheduler::new(), 4_262, 78, 247),
    ] {
        let mut scheduler = Counted { inner, passes: 0 };
        simulate_in(
            &mut predictsim_sim::SimArena::new(),
            &jobs,
            SimConfig::single(64),
            &mut scheduler,
            &mut RequestedTimePredictor,
            None,
            &mut predictsim_sim::NullObserver,
        )
        .unwrap();
        let name = scheduler.name();
        assert_eq!(scheduler.passes, passes, "{name} passes");
        assert_eq!(scheduler.inner.slow_passes(), sorts, "{name} sorts");
        assert!(sorts < sorts_at_every_tie);
    }
}
