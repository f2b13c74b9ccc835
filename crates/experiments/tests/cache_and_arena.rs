//! Correctness of the simulation cache at the campaign layer: cached
//! campaigns serialize byte-identically to fresh ones, warm
//! cross-simulation runs allocate only their result, and a learner's
//! run holds features for the jobs in flight only (counted by the sim
//! crate's test allocator, at the experiment layer).

#[path = "../../sim/tests/support/counting_alloc.rs"]
mod support;

use predictsim_core::{AsymmetricLoss, MlConfig, WeightingScheme};
use predictsim_experiments::{
    reference_triples, run_campaign_loaded, CorrectionKind, HeuristicTriple, LoadedWorkload,
    PredictionTechnique, Scenario, SimCache, Variant,
};
use predictsim_workload::{generate, WorkloadSpec};
use support::{allocs, peak_live_bytes};

/// A toy workload of `jobs` jobs, a hundred a day.
fn golden_workload(seed: u64, jobs: usize) -> LoadedWorkload {
    let mut spec = WorkloadSpec::toy();
    spec.jobs = jobs;
    spec.duration = jobs as i64 / 100 * 86_400;
    spec.utilization = 0.9;
    generate(&spec, seed).into()
}

/// The golden-trace triple slice: baselines, a spread of learners, and
/// the clairvoyant references.
fn sweep_triples() -> Vec<HeuristicTriple> {
    let mut triples = vec![
        HeuristicTriple::standard_easy(),
        HeuristicTriple::easy_plus_plus(),
        HeuristicTriple::paper_winner(),
    ];
    for (loss, weighting) in [
        (AsymmetricLoss::SQUARED, WeightingScheme::Constant),
        (AsymmetricLoss::SQUARED, WeightingScheme::LargeArea),
        (AsymmetricLoss::E_LOSS, WeightingScheme::Constant),
    ] {
        for correction in CorrectionKind::ALL {
            triples.push(HeuristicTriple {
                prediction: PredictionTechnique::Ml(MlConfig::new(loss, weighting)),
                correction: Some(correction),
                variant: Variant::EasySjbf,
            });
        }
    }
    triples.extend(reference_triples());
    triples
}

/// A cached campaign must serialize byte-for-byte like a fresh one: the
/// memoized payload is the very `TripleResult` a fresh simulation
/// aggregates.
#[test]
fn cached_campaign_serializes_byte_identically_to_fresh() {
    let w = golden_workload(51, 300);
    let triples = sweep_triples();
    SimCache::global().clear_memory();
    let fresh = run_campaign_loaded(&w, &triples);
    let fresh_json = serde_json::to_string(&fresh).expect("serialize");
    // Second run: all cells come from the cache.
    let cached = run_campaign_loaded(&w, &triples);
    let cached_json = serde_json::to_string(&cached).expect("serialize");
    assert_eq!(fresh_json, cached_json, "cache must be invisible in bytes");
    // And a fully fresh re-simulation agrees too (determinism + cache
    // transparency at once).
    SimCache::global().clear_memory();
    let refreshed = run_campaign_loaded(&w, &triples);
    assert_eq!(
        serde_json::to_string(&refreshed).expect("serialize"),
        fresh_json
    );
}

/// The experiment-layer half of the cross-simulation scratch-reuse pin:
/// once the calling thread's scratch has seen the workloads, a
/// `Scenario::run_on` of a non-learning triple allocates only its
/// result's outcome vector, whatever the job count.
/// Learners are rebuilt per run by design and are not pinned.
#[test]
fn warm_cross_simulation_runs_allocate_nothing() {
    let workloads = [golden_workload(53, 3_000), golden_workload(53, 300)];
    rayon::pool::with_num_threads(1, || {
        for name in [
            "requested+easy",
            "clairvoyant+easy",
            "clairvoyant+easy-sjbf",
        ] {
            let triple: HeuristicTriple = name.parse().unwrap();
            let scenario = Scenario::from_triple(&triple);
            let run = |w: &LoadedWorkload| allocs(|| scenario.run_on(&w.jobs, w.sim_config()));
            for w in &workloads {
                run(w).0.unwrap();
            }
            for w in &workloads {
                let (result, count) = run(w);
                assert_eq!(result.unwrap().outcomes.len(), w.jobs.len());
                assert_eq!(count, 1, "{name} on {} jobs", w.jobs.len());
            }
        }
    });
}

/// The learner keeps submit-time features only for the jobs in flight:
/// on a 20 000-job toy, an ML cell's peak heap exceeds the same cell's
/// with requested times by under a third of one 168-byte feature slot
/// per job (3.36 MB), which a table indexed by job id would take. (The
/// window here peaks between 2 048 and 4 096 slots: one long-lived job
/// keeps the ids submitted after it in the span.)
#[test]
fn a_learners_pending_features_follow_the_jobs_in_flight() {
    let w = golden_workload(57, 20_000);
    let peak = |name: &str| {
        let scenario = Scenario::from_triple(&name.parse().unwrap());
        let run = || scenario.run_on(&w.jobs, w.sim_config()).unwrap();
        run();
        peak_live_bytes(run).1
    };
    rayon::pool::with_num_threads(1, || {
        let ml = peak("ml(u=lin,o=sq,g=q/p)+rec-doubling+easy-sjbf");
        let requested = peak("requested+rec-doubling+easy-sjbf");
        let table = 168 * w.jobs.len() as u64;
        assert!(
            ml < requested + table / 3,
            "ML cell peaks at {ml} B, requested at {requested} B"
        );
    });
}
