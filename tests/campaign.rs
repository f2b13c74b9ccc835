//! Integration tests of the campaign and cross-validation machinery on a
//! reduced triple set (full 128-triple campaigns run in `bench/` and the
//! `repro` binary; here we keep debug-build runtimes short).

use predictsim::experiments::{reference_triples, CampaignResult, CorrectionKind};
use predictsim::prelude::*;

fn workloads() -> Vec<LoadedWorkload> {
    ["W1", "W2", "W3"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut spec = WorkloadSpec::toy();
            spec.name = (*name).into();
            spec.jobs = 250;
            spec.duration = 3 * 86_400;
            spec.utilization = 0.8 + 0.05 * i as f64;
            generate(&spec, 100 + i as u64).into()
        })
        .collect()
}

fn reduced_triples() -> Vec<HeuristicTriple> {
    let mut triples = vec![
        HeuristicTriple::standard_easy(),
        HeuristicTriple::easy_plus_plus(),
        HeuristicTriple::paper_winner(),
        HeuristicTriple {
            prediction: PredictionTechnique::Ml(MlConfig::new(
                AsymmetricLoss::SQUARED,
                WeightingScheme::Constant,
            )),
            correction: Some(CorrectionKind::RecursiveDoubling),
            variant: Variant::Easy,
        },
        HeuristicTriple {
            prediction: PredictionTechnique::Ave2,
            correction: Some(CorrectionKind::RequestedTime),
            variant: Variant::Easy,
        },
    ];
    triples.extend(reference_triples());
    triples
}

#[test]
fn campaign_covers_every_triple_exactly_once() {
    let ws = workloads();
    let triples = reduced_triples();
    let campaign = run_campaign_loaded(&ws[0], &triples);
    assert_eq!(campaign.results.len(), triples.len());
    let mut names: Vec<&str> = campaign.results.iter().map(|r| r.triple.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), triples.len(), "duplicate triple results");
}

#[test]
fn cross_validation_selects_a_non_clairvoyant_triple_and_reports_rows() {
    let ws = workloads();
    let triples = reduced_triples();
    let campaigns: Vec<CampaignResult> = ws
        .iter()
        .map(|w| run_campaign_loaded(w, &triples))
        .collect();
    let outcome = cross_validate(&campaigns);
    assert_eq!(outcome.rows.len(), 3);
    assert!(
        !outcome.global_winner.starts_with("clairvoyant"),
        "clairvoyance is not a selectable technique"
    );
    for row in &outcome.rows {
        assert!(row.cv_bsld >= 1.0);
        assert!(row.easy_bsld >= 1.0);
        // The reduction formulas must be consistent with the raw numbers.
        let expect = 100.0 * (1.0 - row.cv_bsld / row.easy_bsld);
        assert!((row.reduction_vs_easy() - expect).abs() < 1e-9);
    }
}

#[test]
fn campaign_json_artifacts_round_trip() {
    let ws = workloads();
    let campaign = run_campaign_loaded(&ws[0], &reduced_triples());
    let json = serde_json::to_string(&campaign).expect("serialize");
    let back: CampaignResult = serde_json::from_str(&json).expect("deserialize");
    // Float text formatting may differ in the last ULP; a second
    // serialization must be a fixed point.
    let json2 = serde_json::to_string(&back).expect("re-serialize");
    assert_eq!(json2, serde_json::to_string(&back).expect("stable"));
    assert_eq!(back.log, campaign.log);
    assert_eq!(back.results.len(), campaign.results.len());
    for (a, b) in back.results.iter().zip(&campaign.results) {
        assert_eq!(a.triple, b.triple);
        assert!((a.ave_bsld - b.ave_bsld).abs() < 1e-9);
        assert_eq!(a.corrections, b.corrections);
    }
}

#[test]
fn table_helpers_work_on_reduced_campaigns() {
    use predictsim::experiments::{render_table1, render_table8, table1, table8};
    let ws = workloads();
    let rows = table1(&ws[..1]);
    assert_eq!(rows.len(), 1);
    assert!(render_table1(&rows).contains("W1"));

    let t8 = table8(&ws[0]);
    assert_eq!(t8.len(), 2);
    assert!(render_table8(&t8).contains("E-Loss"));
}

#[test]
fn figure_helpers_work_on_reduced_campaigns() {
    use predictsim::experiments::{fig3, fig4_fig5};
    let ws = workloads();
    let triples = reduced_triples();
    let campaigns: Vec<CampaignResult> = ws
        .iter()
        .map(|w| run_campaign_loaded(w, &triples))
        .collect();
    let fig = fig3(&campaigns, "W1", "W2");
    assert_eq!(fig.points.len(), triples.len());

    let f45 = fig4_fig5(&ws[0], 25);
    assert_eq!(f45.error_series.len(), 4);
    assert_eq!(f45.value_series.len(), 5);
}
