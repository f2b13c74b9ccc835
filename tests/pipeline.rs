//! End-to-end pipeline integration: generator → SWF → loader →
//! simulator → metrics, across all workspace crates through the facade.

use predictsim::prelude::*;
use predictsim::swf::write_log;

fn small_workload(seed: u64) -> GeneratedWorkload {
    let mut spec = WorkloadSpec::toy();
    spec.jobs = 350;
    spec.duration = 4 * 86_400;
    generate(&spec, seed)
}

#[test]
fn generated_workload_survives_swf_round_trip_and_simulates_identically() {
    let w = small_workload(1);

    // Simulate the in-memory jobs.
    let direct = HeuristicTriple::standard_easy()
        .run(&w.jobs, w.sim_config())
        .expect("direct simulation");

    // Export to SWF text, load (parse, clean, convert), simulate again.
    let text = write_log(&w.to_swf());
    let loaded = SwfSource::from_text(w.name.clone(), text)
        .load()
        .expect("load exported log");
    let report = loaded.cleaning.as_ref().expect("SWF path reports cleaning");
    assert_eq!(
        report.kept,
        w.jobs.len(),
        "cleaning must not drop synthetic jobs"
    );
    let via_swf = HeuristicTriple::standard_easy()
        .run(&loaded.jobs, loaded.sim_config())
        .expect("SWF-path simulation");

    assert_eq!(direct.ave_bsld(), via_swf.ave_bsld());
    assert_eq!(direct.outcomes.len(), via_swf.outcomes.len());
}

#[test]
fn all_named_triples_produce_audited_schedules() {
    let w = small_workload(2);
    for triple in [
        HeuristicTriple::standard_easy(),
        HeuristicTriple::easy_plus_plus(),
        HeuristicTriple::paper_winner(),
        HeuristicTriple::clairvoyant(Variant::Easy),
        HeuristicTriple::clairvoyant(Variant::EasySjbf),
    ] {
        let res = triple.run(&w.jobs, w.sim_config()).expect("simulation");
        assert_eq!(res.outcomes.len(), w.jobs.len(), "{}", triple.name());
        predictsim::sim::audit(&res)
            .unwrap_or_else(|v| panic!("{} audit violation: {v}", triple.name()));
    }
}

#[test]
fn bounded_slowdown_matches_manual_computation() {
    let w = small_workload(3);
    let res = HeuristicTriple::standard_easy()
        .run(&w.jobs, w.sim_config())
        .expect("simulation");
    let manual: f64 = res
        .outcomes
        .iter()
        .map(|o| {
            let wait = (o.start.0 - o.submit.0) as f64;
            let run = o.run as f64;
            ((wait + run) / run.max(DEFAULT_TAU)).max(1.0)
        })
        .sum::<f64>()
        / res.outcomes.len() as f64;
    assert!((res.ave_bsld() - manual).abs() < 1e-9);
}

#[test]
fn predictions_are_clamped_to_requested_times() {
    let w = small_workload(4);
    for triple in [
        HeuristicTriple::easy_plus_plus(),
        HeuristicTriple::paper_winner(),
    ] {
        let res = triple.run(&w.jobs, w.sim_config()).expect("simulation");
        for o in &res.outcomes {
            assert!(
                o.initial_prediction >= 1 && o.initial_prediction <= o.requested,
                "{}: job {} prediction {} outside [1, {}]",
                triple.name(),
                o.swf_id,
                o.initial_prediction,
                o.requested
            );
        }
    }
}

#[test]
fn clairvoyant_sjbf_beats_plain_easy_on_congested_workload() {
    // The central Table 6 observation: "the Clairvoyant EASY-SJBF
    // algorithm almost always outperforms its competitors."
    let mut spec = WorkloadSpec::toy();
    spec.jobs = 500;
    spec.duration = 5 * 86_400;
    spec.utilization = 0.9;
    let w = generate(&spec, 5);
    let easy = HeuristicTriple::standard_easy()
        .run(&w.jobs, w.sim_config())
        .expect("EASY");
    let clair_sjbf = HeuristicTriple::clairvoyant(Variant::EasySjbf)
        .run(&w.jobs, w.sim_config())
        .expect("clairvoyant SJBF");
    assert!(
        clair_sjbf.ave_bsld() < easy.ave_bsld(),
        "clairvoyant SJBF {} must beat EASY {}",
        clair_sjbf.ave_bsld(),
        easy.ave_bsld()
    );
}
