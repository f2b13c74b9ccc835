//! The heterogeneous routing loop against the brute-force
//! [`route`] oracle.
//!
//! The engine routes each scheduling instant first-fit across the
//! cluster's ordered partitions: one production scheduler pass per
//! partition against the partition-scoped context, queue compacted
//! between passes so earlier partitions pick first. [`route`] rebuilds
//! the same decision from scratch over a pass oracle (filtered running
//! vectors, no release sets). The properties that drive random
//! operation sequences through the engine's private state on random
//! 1–4-partition clusters, and assert the two agree on every
//! `(job, partition)` placement, run as the crate's unit tests
//! (`src/oracles.rs`). These pin, through the public API, that on a
//! 1-partition cluster the whole machinery degenerates to the legacy
//! single-machine EASY path, byte for byte, and that heterogeneous runs
//! are deterministic and speed-scaled.

#[path = "support/reference.rs"]
mod reference;

use proptest::prelude::*;

use predictsim_sim::{
    simulate_in, BackfillOrder, ClusterSpec, EasyScheduler, Job, JobId, NullObserver,
    RequestedTimePredictor, RunningJob, Scheduler, SimArena, SimConfig, Time, WaitingJob,
};
use reference::{arb_cluster, route, waiting, ReferenceEasy, TIE_TIMES};

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
