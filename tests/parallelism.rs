//! The pool-size probe: `run_campaign_loaded` must demonstrably fan out
//! over more than one OS thread.
//!
//! This file deliberately contains a single test and no other parallel
//! work: integration-test files are separate processes, so the global
//! pool counters read here can only have been advanced by the campaign
//! below (plus the accounting asserted on directly).

use predictsim::experiments::CorrectionKind;
use predictsim::prelude::*;

#[test]
fn campaign_fans_out_across_multiple_os_threads() {
    let mut spec = WorkloadSpec::toy();
    spec.jobs = 4_000;
    spec.duration = 40 * 86_400;
    spec.utilization = 0.85;
    let w: LoadedWorkload = generate(&spec, 7).into();
    // Eight triples, several of them expensive learning simulations
    // spanning multiple OS timeslices each, so every worker has time to
    // claim work before the first one drains the queue — even on a
    // single-core machine, where participation depends on preemption.
    let triples = vec![
        HeuristicTriple::standard_easy(),
        HeuristicTriple::easy_plus_plus(),
        HeuristicTriple::paper_winner(),
        HeuristicTriple::clairvoyant(Variant::Easy),
        HeuristicTriple::clairvoyant(Variant::EasySjbf),
        HeuristicTriple {
            prediction: PredictionTechnique::Ml(MlConfig::e_loss()),
            correction: Some(CorrectionKind::RecursiveDoubling),
            variant: Variant::Easy,
        },
        HeuristicTriple {
            prediction: PredictionTechnique::Ave2,
            correction: Some(CorrectionKind::RequestedTime),
            variant: Variant::EasySjbf,
        },
        HeuristicTriple {
            prediction: PredictionTechnique::Ml(MlConfig::new(
                AsymmetricLoss::SQUARED,
                WeightingScheme::Constant,
            )),
            correction: Some(CorrectionKind::Incremental),
            variant: Variant::EasySjbf,
        },
    ];

    let before = rayon::pool::stats();
    let campaign = rayon::pool::with_num_threads(4, || run_campaign_loaded(&w, &triples));
    let after = rayon::pool::stats();

    assert_eq!(campaign.results.len(), triples.len());
    assert!(
        after.parallel_ops > before.parallel_ops,
        "the campaign must take the multi-worker path"
    );
    assert!(
        after.items_processed >= before.items_processed + triples.len() as u64,
        "every triple must pass through the pool"
    );
    assert!(
        after.max_workers_in_one_op >= 2,
        "expected > 1 OS worker thread in one bulk operation, pool saw {}",
        after.max_workers_in_one_op
    );

    // And the parallel run is still the sequential run, result-wise —
    // compared against a *fresh* sequential simulation, not the
    // memoized cells of the parallel run.
    predictsim::experiments::SimCache::global().clear_memory();
    let sequential = rayon::pool::with_num_threads(1, || run_campaign_loaded(&w, &triples));
    assert_eq!(campaign, sequential);
}
