//! The heterogeneous routing loop against the brute-force
//! [`route`] oracle.
//!
//! The engine routes each scheduling instant first-fit across the
//! cluster's ordered partitions: one production scheduler pass per
//! partition against the partition-scoped context, queue compacted
//! between passes so earlier partitions pick first. [`route`] rebuilds
//! the same decision from scratch over a pass oracle (filtered running
//! vectors, no release sets). These properties drive random operation
//! sequences through [`SimState`] on random 1–4-partition clusters and
//! assert the two agree on every `(job, partition)` placement — and
//! that on a 1-partition cluster the whole machinery degenerates to the
//! legacy single-machine EASY path, byte for byte.

#[path = "support/reference.rs"]
mod reference;

use proptest::prelude::*;

use predictsim_sim::cluster::{ClusterSpec, Partition};
use predictsim_sim::engine::{simulate_in, SimConfig};
use predictsim_sim::job::{Job, JobId};
use predictsim_sim::predict::RequestedTimePredictor;
use predictsim_sim::scheduler::easy::BackfillOrder;
use predictsim_sim::scheduler::{ConservativeScheduler, EasyScheduler, Scheduler};
use predictsim_sim::state::{RunningJob, SchedulerContext, SimState, WaitingJob};
use predictsim_sim::time::Time;
use predictsim_sim::{NullObserver, SimArena};
use reference::{route, ReferenceConservative, ReferenceEasy};

/// One unobserved run on a fresh arena.
fn simulate_fresh(
    jobs: &[Job],
    config: SimConfig,
    scheduler: &mut dyn Scheduler,
    predictor: &mut dyn predictsim_sim::RuntimePredictor,
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

/// Release instants drawn from a handful of values so ties are common
/// (the EASY fast path's fallback trigger).
const TIE_TIMES: [i64; 5] = [50, 50, 100, 150, 200];

fn waiting(id: u32, procs: u32, predicted: i64, submit: i64) -> WaitingJob {
    WaitingJob {
        id: JobId(id),
        procs,
        predicted,
        requested: predicted,
        submit: Time(submit),
        user: 1,
    }
}

/// A random 1–4-partition cluster: sizes 4..=16, speeds from the grid
/// the engine treats specially (1.0 short-circuits) and generically.
fn arb_cluster() -> impl Strategy<Value = ClusterSpec> {
    prop::collection::vec((4u32..=16, 0usize..3), 1..5).prop_map(|parts| {
        const SPEEDS: [f64; 3] = [0.5, 1.0, 2.0];
        let partitions: Vec<Partition> = parts
            .into_iter()
            .map(|(size, speed)| Partition {
                size,
                speed: SPEEDS[speed],
            })
            .collect();
        ClusterSpec::from_partitions(&partitions).expect("valid partitions")
    })
}

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
        let starts = scheduler.schedule(&ctx);
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

/// A tiny deterministic workload for the full-simulation properties.
fn jobs_from(specs: &[(u32, i64, i64)]) -> Vec<Job> {
    specs
        .iter()
        .enumerate()
        .map(|(i, &(procs, run, requested))| Job {
            id: JobId(i as u32),
            submit: Time(10 * i as i64),
            run: run.max(1),
            requested: requested.max(1),
            procs,
            user: (i % 3) as u32,
            user_ix: (i % 3) as u32,
            swf_id: i as u64,
        })
        .collect()
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
                        if starts != ReferenceConservative.schedule(ctx) {
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

    /// On a 1-partition cluster the hetero oracle *is* the legacy EASY
    /// oracle: identical start sets, every placement on partition 0 —
    /// the refactor's byte-identity contract at the scheduler seam.
    #[test]
    fn single_partition_oracle_degenerates_to_reference_easy(
        machine in 4u32..=32,
        queue_specs in prop::collection::vec((1u32..=24, 0usize..TIE_TIMES.len(), 1i64..4), 0..10),
        run_specs in prop::collection::vec((1u32..=6, 0usize..TIE_TIMES.len()), 0..8),
        sjbf in 0u8..2,
    ) {
        let order = if sjbf == 1 { BackfillOrder::ShortestFirst } else { BackfillOrder::Fcfs };
        let cluster = ClusterSpec::single(machine);
        let mut running = Vec::new();
        let mut budget = machine;
        for (id, (procs, t_index)) in (1000..).zip(run_specs) {
            let procs = procs.min(budget);
            if procs == 0 {
                break;
            }
            budget -= procs;
            running.push(RunningJob {
                id: JobId(id),
                procs,
                start: Time(0),
                predicted_end: Time(TIE_TIMES[t_index]),
                deadline: Time(100_000),
                user: 1,
                corrections: 0,
                partition: 0,
            });
        }
        let queue: Vec<WaitingJob> = queue_specs
            .into_iter()
            .enumerate()
            .map(|(i, (procs, t_index, factor))| {
                waiting(i as u32, procs, TIE_TIMES[t_index] * factor, i as i64)
            })
            .collect();

        let easy = ReferenceEasy { order };
        let hetero = route(Time(0), cluster, &queue, &running, &|n, p, f, q, r| {
            easy.decide(n, p, f, q, r)
        });
        prop_assert!(hetero.iter().all(|&(_, p)| p == 0));

        let used: u32 = running.iter().map(|r| r.procs).sum();
        let legacy = easy.decide(Time(0), 0, machine - used, &queue, &running);
        let flat: Vec<JobId> = hetero.into_iter().map(|(id, _)| id).collect();
        prop_assert_eq!(flat, legacy, "1-partition hetero != legacy EASY");
    }

    /// A full simulation on an explicit 1-partition spec is byte-identical
    /// to the legacy single-machine configuration, however the spec is
    /// spelled, and every outcome sits on partition 0 with the legacy
    /// kill rule (`granted = min(p, p̃)`).
    #[test]
    fn one_partition_simulation_is_the_legacy_run(
        specs in prop::collection::vec((1u32..=8, 1i64..400, 1i64..400), 1..30),
    ) {
        let jobs = jobs_from(&specs);
        let legacy = simulate_fresh(
            &jobs,
            SimConfig::single(8),
            &mut EasyScheduler::sjbf(),
            &mut RequestedTimePredictor,
            None,
        ).unwrap();
        let spelled: ClusterSpec = "cluster:8x1.0".parse().unwrap();
        let via_spec = simulate_fresh(
            &jobs,
            SimConfig { cluster: spelled },
            &mut EasyScheduler::sjbf(),
            &mut RequestedTimePredictor,
            None,
        ).unwrap();
        prop_assert_eq!(&legacy, &via_spec, "spec spelling changed the run");
        for o in &legacy.outcomes {
            let job = &jobs[o.id.index()];
            prop_assert_eq!(o.partition, 0);
            prop_assert_eq!(o.run, job.run.min(job.requested));
            prop_assert_eq!(o.killed, job.run > job.requested);
        }
    }

    /// Heterogeneous simulations are deterministic and total-capacity
    /// sound: rerunning is identical, every job lands on a partition it
    /// fits, and runs on slow partitions are stretched by the speed rule
    /// (`ceil(run / speed)`, capped by the wall-clock request).
    #[test]
    fn hetero_simulation_is_deterministic_and_speed_scaled(
        cluster in arb_cluster(),
        specs in prop::collection::vec((1u32..=4, 1i64..400, 1i64..400), 1..30),
    ) {
        let jobs = jobs_from(&specs);
        let config = SimConfig { cluster };
        let a = simulate_fresh(&jobs, config, &mut EasyScheduler::sjbf(),
                               &mut RequestedTimePredictor, None).unwrap();
        let b = simulate_fresh(&jobs, config, &mut EasyScheduler::sjbf(),
                               &mut RequestedTimePredictor, None).unwrap();
        prop_assert_eq!(&a, &b, "hetero simulation must be deterministic");
        for o in &a.outcomes {
            let part = cluster.part(o.partition as usize);
            prop_assert!(o.procs <= part.size, "job wider than its partition");
            let job = &jobs[o.id.index()];
            let scaled = part.scaled_run(job.run);
            prop_assert_eq!(o.run, scaled.min(job.requested));
            prop_assert_eq!(o.killed, scaled > job.requested);
            prop_assert_eq!(o.end.since(o.start), o.run);
        }
    }
}
