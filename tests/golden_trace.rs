//! Golden-trace regression tests: the campaign → cross-validation
//! pipeline's numbers are pinned byte-for-byte, so a future engine or
//! pool optimization that silently shifts results fails loudly here
//! instead of quietly rewriting EXPERIMENTS.md.
//!
//! To regenerate the golden file after an *intentional* semantic change
//! (and review the diff like any other code change):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_trace
//! ```

use predictsim::experiments::{reference_triples, CorrectionKind};
use predictsim::prelude::*;

const GOLDEN_PATH: &str = "tests/golden/mini_pipeline.json";

/// Three fixed mini-logs: deterministic stand-ins for the Table 4 set,
/// small enough for debug-build CI.
fn golden_workloads() -> Vec<LoadedWorkload> {
    [("G1", 0.80), ("G2", 0.88), ("G3", 0.95)]
        .iter()
        .enumerate()
        .map(|(i, (name, util))| {
            let mut spec = WorkloadSpec::toy();
            spec.name = (*name).into();
            spec.jobs = 260;
            spec.duration = 3 * 86_400;
            spec.utilization = *util;
            generate(&spec, 20150101 + i as u64).into()
        })
        .collect()
}

/// A reduced but representative slice of the §6.2 grid: the named
/// baselines, learning triples across correction kinds and losses, and
/// the clairvoyant references.
fn golden_triples() -> Vec<HeuristicTriple> {
    let mut triples = vec![
        HeuristicTriple::standard_easy(),
        HeuristicTriple::easy_plus_plus(),
        HeuristicTriple::paper_winner(),
        HeuristicTriple {
            prediction: PredictionTechnique::Ml(MlConfig::e_loss()),
            correction: Some(CorrectionKind::RecursiveDoubling),
            variant: Variant::Easy,
        },
        HeuristicTriple {
            prediction: PredictionTechnique::Ml(MlConfig::new(
                AsymmetricLoss::SQUARED,
                WeightingScheme::Constant,
            )),
            correction: Some(CorrectionKind::Incremental),
            variant: Variant::EasySjbf,
        },
        HeuristicTriple {
            prediction: PredictionTechnique::Ave2,
            correction: Some(CorrectionKind::RequestedTime),
            variant: Variant::EasySjbf,
        },
    ];
    triples.extend(reference_triples());
    triples
}

#[test]
fn mini_pipeline_matches_golden_trace() {
    let workloads = golden_workloads();
    let triples = golden_triples();
    let campaigns: Vec<_> = workloads
        .iter()
        .map(|w| run_campaign_loaded(w, &triples))
        .collect();
    let outcome = cross_validate(&campaigns);

    // Structural headline claims, independent of the exact bytes.
    assert!(
        !outcome.global_winner.starts_with("clairvoyant"),
        "clairvoyance must never win selection"
    );
    for row in &outcome.rows {
        assert!(row.cv_bsld >= 1.0, "{}: bsld below lower bound", row.log);
    }

    let rendered = format!(
        "{{\n\"campaigns\": {},\n\"cross_validation\": {}\n}}",
        serde_json::to_string_pretty(&campaigns).expect("serialize campaigns"),
        serde_json::to_string_pretty(&outcome).expect("serialize CV outcome"),
    );

    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all("tests/golden").expect("create golden dir");
        std::fs::write(GOLDEN_PATH, format!("{rendered}\n")).expect("write golden");
        panic!("golden trace regenerated at {GOLDEN_PATH} — rerun without GOLDEN_REGEN");
    }

    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("missing golden file {GOLDEN_PATH} ({e}); regenerate with GOLDEN_REGEN=1")
    });
    assert_eq!(
        rendered.trim_end(),
        golden.trim_end(),
        "campaign/CV trace drifted from {GOLDEN_PATH}; if the change is intentional, \
         regenerate with GOLDEN_REGEN=1 and review the JSON diff"
    );
}

/// The quick-scale headline pin (the numbers EXPERIMENTS.md records).
/// Expensive (~full quick campaign, 130 triples × 6 logs), so ignored
/// by default; CI-release or a manual
/// `cargo test --release --test golden_trace -- --ignored` runs it.
#[test]
#[ignore = "runs the full quick-scale campaign (~minutes); use --ignored in release builds"]
fn quick_scale_headline_numbers_hold() {
    let setup = ExperimentSetup::quick();
    let workloads = setup.workloads();
    let mut triples = campaign_triples();
    triples.extend(reference_triples());
    let campaigns: Vec<_> = workloads
        .iter()
        .map(|w| run_campaign_loaded(&w.into(), &triples))
        .collect();
    let outcome = cross_validate(&campaigns);

    assert_eq!(
        outcome.global_winner, "ml(u=sq,o=sq,g=q/p)+req-time+easy-sjbf",
        "the quick-scale winning triple is pinned in EXPERIMENTS.md"
    );
    let mean = outcome.mean_reduction_vs_easy();
    assert!(
        (mean - 33.0).abs() < 1.0,
        "mean AVEbsld reduction vs EASY drifted: {mean:.2}% (pinned 33%)"
    );
    assert!(
        outcome.rows.iter().all(|r| r.reduction_vs_easy() > 0.0),
        "the C-V triple must beat EASY on every held-out log"
    );
}
