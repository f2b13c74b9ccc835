//! The single-flight contract of the [`SimCache`]: one cold
//! cell requested from many workers at once simulates exactly once,
//! every requester gets byte-identical aggregates, and only the leader
//! carries the prediction vector.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

use predictsim_experiments::{CellSource, HeuristicTriple, JobArena, SimCache};
use predictsim_sim::{ClusterSpec, SimEvent, SimObserver};
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
/// once and none alias.
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

/// A worker's observer, active only while its worker leads. At its
/// first event it holds the leader until every worker of the round has
/// made its request, plus 10 ms for the last one to reach the in-flight
/// marker, so each round's counts are exact. At its 1 000th event it
/// cancels the run unless a leader of its round already has (`cancelled`
/// starts `true` in a round that does not cancel).
struct Leader<'a> {
    requested: &'a AtomicUsize,
    cancelled: &'a AtomicBool,
    events: u32,
    cancel: bool,
}

impl SimObserver for Leader<'_> {
    fn on_event(&mut self, _event: &SimEvent<'_>) {
        self.events += 1;
        if self.events == 1 {
            let deadline = Instant::now() + Duration::from_secs(30);
            while self.requested.load(Ordering::SeqCst) < WORKERS && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(10));
        } else if self.events == 1_000 {
            self.cancel = !self.cancelled.swap(true, Ordering::SeqCst);
        }
    }
    fn keep_running(&self) -> bool {
        !self.cancel
    }
}

/// The release stress variant: 300 rounds of eight workers on a fresh
/// cache and one cold cell; in every 4th round the first leader cancels
/// and one waiter must lead the cell instead. Every round's counts are
/// exact, and a watchdog fails a round that hangs. Run with `cargo test
/// --release -p predictsim-experiments --test cache_singleflight --
/// --ignored`.
#[test]
#[ignore]
fn single_flight_holds_over_many_rounds_with_cancelled_leaders() {
    const ROUNDS: usize = 300;
    let (arena, cluster) = hammer_workload(73);
    let (done, rounds) = mpsc::channel();
    let hammer = std::thread::spawn(move || {
        let triple = HeuristicTriple::paper_winner();
        for round in 0..ROUNDS {
            let cancelling = round % 4 == 0;
            let cache = SimCache::new();
            let requested = AtomicUsize::new(0);
            let cancelled = AtomicBool::new(!cancelling);
            let failed = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..WORKERS)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut leader = Leader {
                                requested: &requested,
                                cancelled: &cancelled,
                                events: 0,
                                cancel: false,
                            };
                            requested.fetch_add(1, Ordering::SeqCst);
                            cache
                                .run_cell_observed_traced(&arena, cluster, &triple, &mut leader)
                                .is_err()
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().unwrap())
                    .filter(|&f| f)
                    .count()
            });
            let stats = cache.stats();
            let leaders = 1 + u64::from(cancelling);
            let waiters = WORKERS as u64 - leaders;
            assert_eq!(
                [
                    failed as u64,
                    stats.simulated,
                    stats.memory_hits,
                    stats.coalesced
                ],
                [leaders - 1, leaders, waiters, waiters],
                "round {round}: failed, simulated, memory_hits, coalesced"
            );
            let _ = done.send(());
        }
    });
    for _ in 0..ROUNDS {
        let round = rounds.recv_timeout(Duration::from_secs(60));
        round.expect("a round hung, or failed as its thread printed above");
    }
    hammer.join().expect("every round passed");
}
