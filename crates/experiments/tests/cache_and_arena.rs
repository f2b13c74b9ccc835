//! Correctness of the simulation cache at the campaign layer: cached
//! campaigns serialize byte-identically to fresh ones, and warm
//! cross-simulation runs allocate nothing (the [`ArenaStats`] pin at
//! the experiment layer).

use predictsim_core::loss::AsymmetricLoss;
use predictsim_core::predictor::MlConfig;
use predictsim_core::weighting::WeightingScheme;
use predictsim_experiments::cache::SimCache;
use predictsim_experiments::campaign::run_campaign_loaded;
use predictsim_experiments::scenario::{reset_thread_arena_stats, thread_arena_stats};
use predictsim_experiments::source::LoadedWorkload;
use predictsim_experiments::triple::{
    reference_triples, CorrectionKind, HeuristicTriple, PredictionTechnique, Variant,
};
use predictsim_workload::{generate, WorkloadSpec};

fn golden_workload(seed: u64) -> LoadedWorkload {
    let mut spec = WorkloadSpec::toy();
    spec.jobs = 300;
    spec.duration = 3 * 86_400;
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
    let w = golden_workload(51);
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
/// once a worker's arena has seen the workload shape, further campaign
/// simulations on that worker allocate nothing (`reallocating_runs`
/// stays 0). Runs single-threaded so the only worker is this thread.
#[test]
fn warm_cross_simulation_runs_allocate_nothing() {
    let w = golden_workload(53);
    let triples = sweep_triples();
    rayon::pool::with_num_threads(1, || {
        SimCache::global().clear_memory();
        run_campaign_loaded(&w, &triples); // warm-up
        SimCache::global().clear_memory();
        reset_thread_arena_stats();
        run_campaign_loaded(&w, &triples);
        let stats = thread_arena_stats();
        assert_eq!(
            stats.runs,
            triples.len() as u64,
            "every cell must run through the thread's arena"
        );
        assert_eq!(
            stats.reallocating_runs, 0,
            "warm cross-simulation runs must not grow any engine buffer"
        );
    });
}
