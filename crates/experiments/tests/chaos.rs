//! Deterministic chaos suite: campaigns under seeded fault plans must
//! produce artifacts **byte-identical** to fault-free runs, with
//! `simulated` still a true work count — the paper's reproduction
//! guarantee holds *under fault*.
//!
//! Fault plans are process-global, so this suite lives in its own test
//! binary and every test body runs inside [`faultline::with_plan`],
//! which serializes plan-holding sections on a process-wide lock and
//! uninstalls the plan afterwards. Baseline (fault-free) phases use an
//! empty plan so they hold the same lock — a concurrently scheduled
//! faulted test can never leak injections into them.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use predictsim_experiments::{
    run_campaign_loaded, HeuristicTriple, LoadedWorkload, ScenarioError, SimCache,
};
use predictsim_faultline::{self as faultline, FaultPlan};
use predictsim_sim::ClusterSpec;
use predictsim_workload::{generate, WorkloadSpec};

fn toy_workload(jobs: usize, seed: u64) -> LoadedWorkload {
    let mut spec = WorkloadSpec::toy();
    spec.jobs = jobs;
    spec.duration = 3 * 86_400;
    spec.utilization = 0.9;
    generate(&spec, seed).into()
}

fn sweep_triples() -> Vec<HeuristicTriple> {
    vec![
        HeuristicTriple::standard_easy(),
        HeuristicTriple::easy_plus_plus(),
        HeuristicTriple::paper_winner(),
    ]
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("predictsim-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fault plan in the `REPRO_FAULTS` grammar.
fn fault_plan(text: &str) -> FaultPlan {
    FaultPlan::parse(text).expect("valid fault plan")
}

/// The tentpole acceptance pin: a campaign under a seeded plan
/// injecting **three** site types (disk read, disk write and a
/// poisoned cell) completes with artifacts byte-identical to the
/// fault-free run, `simulated` equal to true work done, and the
/// absorbed faults visible in the counters. A third, fault-free pass
/// over the surviving cache directory then proves resumability.
#[test]
fn campaign_under_mixed_faults_is_byte_identical() {
    let w = toy_workload(300, 91);
    let triples = sweep_triples();
    let cache = SimCache::global();

    // Fault-free baseline (empty plan: passthrough, but serialized
    // against every other chaos test in this binary).
    let clean_dir = temp_dir("clean");
    let baseline = faultline::with_plan(fault_plan(""), || {
        cache.clear_memory();
        cache.set_persist_dir(Some(clean_dir.clone()));
        let result = run_campaign_loaded(&w, &triples);
        cache.flush_persistent();
        cache.set_persist_dir(None);
        serde_json::to_string(&result).expect("serialize")
    });

    // The same campaign under fire.
    let chaos_dir = temp_dir("mixed");
    let plan = fault_plan("seed=42,cache.read:p=0.3,cache.write:p=0.3,cell.panic:max=1");
    let (chaos_json, delta) = faultline::with_plan(plan, || {
        cache.clear_memory();
        cache.set_persist_dir(Some(chaos_dir.clone()));
        let before = cache.stats();
        let result = run_campaign_loaded(&w, &triples);
        cache.flush_persistent();
        cache.set_persist_dir(None);
        (
            serde_json::to_string(&result).expect("serialize"),
            cache.stats().since(before),
        )
    });
    assert_eq!(
        chaos_json, baseline,
        "artifacts under fault must be byte-identical to the clean run"
    );
    assert_eq!(
        delta.simulated,
        triples.len() as u64,
        "simulated is a true work count: one per cell, panic retries and all"
    );
    assert_eq!(delta.panicked_cells, 1, "exactly the injected poison fired");
    assert!(
        delta.disk_retries > 0,
        "transient disk faults must show up as absorbed retries, got {delta:?}"
    );

    // Resumability: a fault-free attach over the chaos run's directory
    // serves every fully persisted cell from disk and re-simulates only
    // what a lost write left behind — artifacts still byte-identical.
    let resumed = faultline::with_plan(fault_plan(""), || {
        cache.clear_memory();
        cache.set_persist_dir(Some(chaos_dir.clone()));
        let before = cache.stats();
        let result = run_campaign_loaded(&w, &triples);
        let delta = cache.stats().since(before);
        cache.set_persist_dir(None);
        assert_eq!(
            delta.simulated + delta.disk_hits,
            triples.len() as u64,
            "every cell is either resumed from disk or re-simulated: {delta:?}"
        );
        serde_json::to_string(&result).expect("serialize")
    });
    assert_eq!(resumed, baseline, "resume under a clean plan matches too");

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
}

/// Degradation ladder: persistent hard write failures flip the disk
/// layer to memory-only after [`SimCache::HARD_FAILURE_LIMIT`]
/// consecutive strikes — the campaign continues and the results stay
/// byte-identical — and the next (healthy) attach restores persistence.
#[test]
fn hard_disk_failures_degrade_to_memory_only_and_recover_on_reattach() {
    // Two workloads x three triples = six cells: enough consecutive
    // hard write failures to cross `HARD_FAILURE_LIMIT`.
    let workloads = [toy_workload(200, 93), toy_workload(200, 931)];
    let cells: Vec<(usize, HeuristicTriple)> = workloads
        .iter()
        .enumerate()
        .flat_map(|(i, _)| sweep_triples().into_iter().map(move |t| (i, t)))
        .collect();
    assert!(cells.len() as u64 > SimCache::HARD_FAILURE_LIMIT);
    let dir = temp_dir("degrade");

    // Reference values, fault-free, memory-only.
    let reference: Vec<String> = faultline::with_plan(fault_plan(""), || {
        let clean = SimCache::new();
        cells
            .iter()
            .map(|(i, t)| {
                let w = &workloads[*i];
                let (cell, _) = clean
                    .run_cell_traced(&w.jobs, ClusterSpec::single(w.machine_size), t)
                    .expect("clean run");
                serde_json::to_string(&cell.result).expect("serialize")
            })
            .collect()
    });

    let cache = SimCache::new();
    cache.set_persist_dir(Some(dir.clone()));
    let plan = fault_plan("cache.write:kind=hard");
    let under_fault: Vec<String> = faultline::with_plan(plan, || {
        cells
            .iter()
            .map(|(i, t)| {
                let w = &workloads[*i];
                let (cell, _) = cache
                    .run_cell_traced(&w.jobs, ClusterSpec::single(w.machine_size), t)
                    .expect("campaign must continue");
                serde_json::to_string(&cell.result).expect("serialize")
            })
            .collect()
    });
    assert_eq!(
        under_fault, reference,
        "results are unaffected by the dying disk"
    );
    assert!(
        cache.stats().degraded,
        "every write failing hard must trip the degradation ladder: {:?}",
        cache.stats()
    );

    // Healthy re-attach: degradation clears, persistence (and with it
    // resumability) is back.
    cache.set_persist_dir(Some(dir.clone()));
    assert!(
        !cache.stats().degraded,
        "re-attach clears the degraded flag"
    );
    faultline::with_plan(fault_plan(""), || {
        cache.clear_memory();
        let (i, t) = &cells[0];
        let w = &workloads[*i];
        let (cell, _) = cache
            .run_cell_traced(&w.jobs, ClusterSpec::single(w.machine_size), t)
            .expect("clean");
        assert_eq!(
            serde_json::to_string(&cell.result).expect("serialize"),
            reference[0]
        );
    });
    let files = std::fs::read_dir(&dir).expect("dir readable").count();
    assert_eq!(files, 1, "a healthy attach persists again");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Panic isolation end to end: a cell that panics on **every** retry
/// surfaces as the typed [`ScenarioError::CellPanicked`] — the cache is
/// not poisoned (no stuck in-flight marker, no poisoned lock), and the
/// same cell simulates cleanly once the faults stop.
#[test]
fn poisoned_cell_surfaces_typed_error_and_cache_recovers() {
    let w = toy_workload(150, 94);
    let arena = &w.jobs;
    let cluster = ClusterSpec::single(w.machine_size);
    let triple = HeuristicTriple::standard_easy();
    let cache = SimCache::new();

    let plan = fault_plan("cell.panic:p=1");
    faultline::with_plan(plan, || {
        let err = cache
            .run_cell_traced(arena, cluster, &triple)
            .expect_err("every attempt panics");
        assert!(
            matches!(err, ScenarioError::CellPanicked(_)),
            "typed panic error, got: {err}"
        );
    });
    let stats = cache.stats();
    assert_eq!(
        stats.panicked_cells,
        u64::from(SimCache::PANIC_RETRIES),
        "every bounded attempt was caught: {stats:?}"
    );
    assert_eq!(
        stats.simulated, 1,
        "one miss claimed, however many attempts"
    );

    // The marker was withdrawn with the lease: the next (clean) lookup
    // leads a fresh simulation instead of deadlocking on the failure.
    faultline::with_plan(fault_plan(""), || {
        let (cell, _) = cache
            .run_cell_traced(arena, cluster, &triple)
            .expect("clean after faults");
        assert!(cell.predictions.is_some());
    });
    assert_eq!(cache.stats().simulated, 2);
}

/// Coalesced waiters must re-elect a leader when the first leader's
/// cell panics its retries away: with two workers racing the same
/// poisoned-then-healed cell, exactly one error surfaces (or none, if
/// the second leader wins after the faults are spent) and the final
/// value is served to everyone.
#[test]
fn waiters_re_elect_a_leader_after_a_poisoned_leader() {
    let w = toy_workload(150, 95);
    let arena = Arc::new(w.jobs);
    let cluster = ClusterSpec::single(w.machine_size);
    let triple = HeuristicTriple::standard_easy();
    let cache: Arc<SimCache> = Arc::new(SimCache::new());

    // Exactly one cell's worth of panics: the first leader burns all
    // its attempts, the re-elected leader runs clean.
    let plan = fault_plan(&format!("cell.panic:max={}", SimCache::PANIC_RETRIES));
    let outcomes = faultline::with_plan(plan, || {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let cache = cache.clone();
                    let arena = arena.clone();
                    let triple = triple.clone();
                    scope.spawn(move || cache.run_cell_traced(&arena, cluster, &triple).is_ok())
                })
                .collect();
            workers
                .into_iter()
                .map(|h| h.join().expect("worker thread must not die"))
                .collect::<Vec<bool>>()
        })
    });
    let successes = outcomes.iter().filter(|ok| **ok).count();
    assert!(
        successes >= 3,
        "at most the first leader fails; everyone else gets the re-elected leader's cell: {outcomes:?}"
    );
    // And the cache still works.
    faultline::with_plan(fault_plan(""), || {
        cache
            .run_cell_traced(&arena, cluster, &triple)
            .expect("clean");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The satellite chaos property: a small campaign under a *random*
    /// fault plan (random seed, random transient disk fault rates, one
    /// injected cell panic) is byte-identical to the fault-free run,
    /// with `simulated` equal to the true work done.
    #[test]
    fn random_fault_plans_preserve_artifacts(plan_seed in 0u64..10_000, p in 0.05f64..0.45) {
        let w = toy_workload(150, 96);
        let arena = &w.jobs;
        let cluster = ClusterSpec::single(w.machine_size);
        let triples = [
            HeuristicTriple::standard_easy(),
            HeuristicTriple::easy_plus_plus(),
        ];

        let reference: Vec<String> = faultline::with_plan(fault_plan(""), || {
            let clean = SimCache::new();
            triples
                .iter()
                .map(|t| {
                    let (cell, _) = clean.run_cell_traced(arena, cluster, t).expect("clean run");
                    serde_json::to_string(&cell.result).expect("serialize")
                })
                .collect()
        });

        let dir = temp_dir(&format!("prop-{plan_seed}"));
        let plan = fault_plan(&format!(
            "seed={plan_seed},cache.read:p={p},cache.write:p={p},cache.remove:p={p},cell.panic:max=1"
        ));
        let chaotic = SimCache::new();
        chaotic.set_persist_dir(Some(dir.clone()));
        let under_fault: Vec<String> = faultline::with_plan(plan, || {
            triples
                .iter()
                .map(|t| {
                    let (cell, _) = chaotic.run_cell_traced(arena, cluster, t).expect("campaign continues");
                    serde_json::to_string(&cell.result).expect("serialize")
                })
                .collect()
        });
        let _ = std::fs::remove_dir_all(&dir);

        prop_assert_eq!(under_fault, reference);
        let stats = chaotic.stats();
        prop_assert_eq!(stats.simulated, triples.len() as u64);
        prop_assert_eq!(stats.panicked_cells, 1);
    }
}
