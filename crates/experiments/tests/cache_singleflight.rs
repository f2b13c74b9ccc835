//! The single-flight contract of the sharded [`SimCache`]: one cold
//! cell requested from many workers at once simulates exactly once,
//! every requester gets byte-identical aggregates, and only the leader
//! carries the prediction vector.

use std::sync::Barrier;

use predictsim_experiments::{CellSource, HeuristicTriple, JobArena, SimCache};
use predictsim_sim::ClusterSpec;
use predictsim_workload::{generate, WorkloadSpec};

/// A workload big enough that one simulation spans many scheduler
/// timeslices — so with a start barrier, the non-leading workers
/// reliably find the in-flight marker instead of a finished cell.
fn hammer_workload(seed: u64) -> (JobArena, ClusterSpec) {
    let mut spec = WorkloadSpec::toy();
    spec.jobs = 2_000;
    spec.duration = 20 * 86_400;
    let w = generate(&spec, seed);
    (JobArena::new(w.jobs), ClusterSpec::single(w.machine_size))
}

const WORKERS: usize = 8;

/// N workers, one cold cell: `simulated == 1` (a true work count, not a
/// lookup count), every payload byte-identical to a serial run, the
/// full prediction vector with the leader alone.
#[test]
fn same_cold_cell_from_eight_workers_simulates_once() {
    let (arena, cluster) = hammer_workload(71);
    let triple = HeuristicTriple::paper_winner();

    // The reference payload, from an independent serial cache.
    let serial = SimCache::new();
    let (reference, _) = serial.run_cell_traced(&arena, cluster, &triple).unwrap();
    let reference_bytes = serde_json::to_string(&reference.result).unwrap();
    let reference_predictions = reference.predictions.clone().unwrap();

    let cache = SimCache::new();
    let barrier = Barrier::new(WORKERS);
    let cells: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    cache.run_cell_traced(&arena, cluster, &triple).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let stats = cache.stats();
    assert_eq!(stats.simulated, 1, "single-flight: one simulation total");
    assert_eq!(stats.memory_hits as usize, WORKERS - 1);
    assert_eq!(
        stats.coalesced as usize,
        WORKERS - 1,
        "every non-leader must have waited on the in-flight simulation"
    );
    assert_eq!(stats.lookups() as usize, WORKERS);

    let leaders = cells
        .iter()
        .filter(|(_, src)| *src == CellSource::Simulated)
        .count();
    assert_eq!(leaders, 1, "exactly one worker led the miss");

    for (cell, source) in &cells {
        assert_eq!(
            serde_json::to_string(&cell.result).unwrap(),
            reference_bytes,
            "every worker's payload must match the serial run byte for byte"
        );
        match source {
            CellSource::Simulated => assert_eq!(
                cell.predictions.as_deref(),
                Some(reference_predictions.as_ref()),
                "the leader carries the full prediction vector"
            ),
            _ => assert!(
                cell.predictions.is_none(),
                "a coalesced wait is a memory answer: aggregates only"
            ),
        }
    }
}

/// Distinct cells hammered concurrently stay distinct: each simulates
/// once, none alias, and the shard layout serves them in parallel.
#[test]
fn distinct_cells_under_concurrency_each_simulate_once() {
    let (arena, cluster) = hammer_workload(72);
    let triples = [
        HeuristicTriple::standard_easy(),
        HeuristicTriple::easy_plus_plus(),
        HeuristicTriple::paper_winner(),
        HeuristicTriple::clairvoyant(predictsim_experiments::Variant::EasySjbf),
    ];

    let cache = SimCache::new();
    let barrier = Barrier::new(triples.len() * 2);
    std::thread::scope(|scope| {
        for triple in &triples {
            for _ in 0..2 {
                scope.spawn(|| {
                    barrier.wait();
                    cache.run_cell_traced(&arena, cluster, triple).unwrap();
                });
            }
        }
    });

    let stats = cache.stats();
    assert_eq!(
        stats.simulated as usize,
        triples.len(),
        "each distinct cell simulates exactly once"
    );
    assert_eq!(stats.lookups() as usize, triples.len() * 2);
}
