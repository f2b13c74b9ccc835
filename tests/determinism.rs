//! Cross-crate determinism guarantees: identical seeds and inputs must
//! produce bit-identical workloads, simulations, and campaign artifacts —
//! the property that makes every number in EXPERIMENTS.md reproducible.

use predictsim::experiments::SimCache;
use predictsim::prelude::*;

/// Campaigns route through the process-wide simulation cache; the tests
/// below compare *fresh* runs, so each run starts from a cleared cache
/// (otherwise the second run would trivially equal the first by
/// memoization rather than by determinism).
fn fresh() {
    SimCache::global().clear_memory();
}

#[test]
fn workload_generation_is_reproducible_across_calls() {
    let spec = WorkloadSpec::toy();
    let a = generate(&spec, 777);
    let b = generate(&spec, 777);
    assert_eq!(a.jobs, b.jobs);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn learning_simulation_is_reproducible() {
    let mut spec = WorkloadSpec::toy();
    spec.jobs = 300;
    spec.duration = 3 * 86_400;
    let w = generate(&spec, 88);
    let run = || {
        HeuristicTriple::paper_winner()
            .run(&w.jobs, w.sim_config())
            .expect("simulation")
    };
    let a = run();
    let b = run();
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.ave_bsld(), b.ave_bsld());
}

/// The core contract, stated directly against `simulate_in`: two runs of
/// the engine on the same seed-derived workload produce identical
/// `JobOutcome` vectors — every field of every outcome, not just the
/// aggregates. Exercises the full prediction + correction path (the
/// E-Loss learner with SJBF ordering), where hidden nondeterminism
/// (hash-map iteration, tie-breaking, learner state) would first show up.
#[test]
fn simulate_twice_with_same_seed_yields_identical_outcome_vectors() {
    let mut spec = WorkloadSpec::toy();
    spec.jobs = 400;
    spec.duration = 3 * 86_400;
    let seed = 4242;
    let run = || {
        let w = generate(&spec, seed);
        let mut predictor = MlPredictor::e_loss();
        let correction = IncrementalCorrection::new();
        let result = simulate_in(
            &mut SimArena::new(),
            &w.jobs,
            w.sim_config(),
            &mut EasyScheduler::sjbf(),
            &mut predictor,
            Some(&correction),
            &mut NullObserver,
        )
        .expect("simulation");
        (w.jobs.len(), result.outcomes)
    };
    let (jobs_a, outcomes_a) = run();
    let (jobs_b, outcomes_b) = run();
    assert_eq!(outcomes_a.len(), jobs_a);
    assert_eq!(jobs_a, jobs_b);
    assert_eq!(
        outcomes_a, outcomes_b,
        "identical seed must yield identical JobOutcome vectors"
    );
}

#[test]
fn different_seeds_change_the_workload() {
    let spec = WorkloadSpec::toy();
    let a = generate(&spec, 1);
    let b = generate(&spec, 2);
    assert_ne!(a.jobs, b.jobs);
}

#[test]
fn parallel_campaign_equals_itself() {
    let mut spec = WorkloadSpec::toy();
    spec.jobs = 200;
    spec.duration = 2 * 86_400;
    let w: LoadedWorkload = generate(&spec, 9).into();
    let triples = vec![
        HeuristicTriple::standard_easy(),
        HeuristicTriple::easy_plus_plus(),
        HeuristicTriple::paper_winner(),
    ];
    fresh();
    let a = run_campaign_loaded(&w, &triples);
    fresh();
    let b = run_campaign_loaded(&w, &triples);
    assert_eq!(a, b, "rayon parallelism must not leak into results");
}

/// The determinism-under-parallelism stress test: the same campaign at
/// pool widths 1, 2, and 8 must serialize to **byte-identical**
/// `CampaignResult` JSON. Order-preserving collect plus per-simulation
/// isolation make the width unobservable in the artifact.
#[test]
fn campaign_json_is_byte_identical_across_thread_counts() {
    let mut spec = WorkloadSpec::toy();
    spec.jobs = 350;
    spec.duration = 3 * 86_400;
    spec.utilization = 0.85;
    let w = generate(&spec, 20150101);
    let triples = vec![
        HeuristicTriple::standard_easy(),
        HeuristicTriple::easy_plus_plus(),
        HeuristicTriple::paper_winner(),
        HeuristicTriple::clairvoyant(Variant::Easy),
        HeuristicTriple::clairvoyant(Variant::EasySjbf),
    ];
    // Convert once: the arena (and its fingerprint) is shared by every
    // width, so only the simulations themselves are inside the loop.
    let loaded = predictsim::experiments::LoadedWorkload::from(&w);
    let json_at = |width: usize| {
        fresh();
        rayon::pool::with_num_threads(width, || {
            serde_json::to_string(&predictsim::experiments::run_campaign_loaded(
                &loaded, &triples,
            ))
            .expect("serialize campaign")
        })
    };
    let single = json_at(1);
    let dual = json_at(2);
    let octo = json_at(8);
    assert!(
        single == dual && single == octo,
        "campaign JSON must not depend on the pool width"
    );
}

/// Same stress, one level up: a full cross-validation over three logs
/// must be byte-identical at widths 1, 2, and 8 — the nested fan-outs
/// (campaign triples, then CV folds) both preserve order.
#[test]
fn cross_validation_json_is_byte_identical_across_thread_counts() {
    let workloads: Vec<GeneratedWorkload> = (0..3)
        .map(|i| {
            let mut spec = WorkloadSpec::toy();
            spec.name = format!("D{i}");
            spec.jobs = 220;
            spec.duration = 3 * 86_400;
            generate(&spec, 300 + i)
        })
        .collect();
    let triples = vec![
        HeuristicTriple::standard_easy(),
        HeuristicTriple::easy_plus_plus(),
        HeuristicTriple::paper_winner(),
    ];
    let loaded: Vec<predictsim::experiments::LoadedWorkload> =
        workloads.iter().map(Into::into).collect();
    let json_at = |width: usize| {
        fresh();
        rayon::pool::with_num_threads(width, || {
            let campaigns: Vec<_> = loaded
                .iter()
                .map(|w| predictsim::experiments::run_campaign_loaded(w, &triples))
                .collect();
            serde_json::to_string(&cross_validate(&campaigns)).expect("serialize CV outcome")
        })
    };
    let single = json_at(1);
    assert_eq!(single, json_at(2));
    assert_eq!(single, json_at(8));
}

#[test]
fn experiment_setup_is_the_single_source_of_workloads() {
    let setup = ExperimentSetup {
        scale: 0.002,
        seed: 5,
    };
    let a = setup.workloads();
    let b = setup.workloads();
    assert_eq!(a.len(), 6);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.jobs, y.jobs, "{}", x.name);
    }
}
