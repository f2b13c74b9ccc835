//! The golden-trace regression, run through the Scenario API: every
//! policy is resolved from its registry *name* (string-keyed, not
//! hand-boxed), every workload flows through a [`WorkloadSource`], and
//! the campaign → cross-validation JSON must still be byte-identical to
//! the pre-refactor golden trace — at pool widths 1 and 8.
//!
//! This is the proof that the Scenario port is behavior-preserving: the
//! golden file (`tests/golden/mini_pipeline.json`) was produced by the
//! legacy construction path and is deliberately NOT regenerated here.

use predictsim::experiments::{fig4_fig5, CampaignResult};
use predictsim::prelude::*;

const GOLDEN_PATH: &str = "tests/golden/mini_pipeline.json";

/// The same three mini-logs as `golden_trace.rs`, but wrapped as
/// workload sources.
fn golden_sources() -> Vec<SyntheticSource> {
    [("G1", 0.80), ("G2", 0.88), ("G3", 0.95)]
        .iter()
        .enumerate()
        .map(|(i, (name, util))| {
            let mut spec = WorkloadSpec::toy();
            spec.name = (*name).into();
            spec.jobs = 260;
            spec.duration = 3 * 86_400;
            spec.utilization = *util;
            SyntheticSource::new(spec, 20150101 + i as u64)
        })
        .collect()
}

/// The same triple slice as `golden_trace.rs`, but every entry is built
/// by *parsing its registry name* — the string-keyed path end to end.
fn golden_triples_by_name() -> Vec<HeuristicTriple> {
    [
        "requested+easy",
        "ave2+incremental+easy-sjbf",
        "ml(u=lin,o=sq,g=area)+incremental+easy-sjbf",
        "ml(u=lin,o=sq,g=area)+rec-doubling+easy",
        "ml(u=sq,o=sq,g=1)+incremental+easy-sjbf",
        "ave2+req-time+easy-sjbf",
        "clairvoyant+easy",
        "clairvoyant+easy-sjbf",
    ]
    .iter()
    .map(|name| {
        name.parse::<HeuristicTriple>()
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    })
    .collect()
}

fn scenario_pipeline_json() -> String {
    let triples = golden_triples_by_name();
    let campaigns: Vec<CampaignResult> = golden_sources()
        .iter()
        .map(|source| run_campaign_loaded(&source.load().expect("load source"), &triples))
        .collect();
    let outcome = cross_validate(&campaigns);
    format!(
        "{{\n\"campaigns\": {},\n\"cross_validation\": {}\n}}",
        serde_json::to_string_pretty(&campaigns).expect("serialize campaigns"),
        serde_json::to_string_pretty(&outcome).expect("serialize CV outcome"),
    )
}

#[test]
fn scenario_path_reproduces_the_golden_trace_at_widths_1_and_8() {
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("missing golden file {GOLDEN_PATH} ({e})"));
    for width in [1usize, 8] {
        let rendered = rayon::pool::with_num_threads(width, scenario_pipeline_json);
        assert_eq!(
            rendered.trim_end(),
            golden.trim_end(),
            "Scenario-path pipeline at width {width} drifted from the \
             pre-refactor golden trace {GOLDEN_PATH}"
        );
    }
}

/// Figures are not part of the golden file; pin the ported figure
/// pipeline the other way: byte-identical JSON at widths 1 and 8.
#[test]
fn scenario_path_figures_are_width_invariant() {
    let source = &golden_sources()[0];
    let loaded: predictsim::experiments::LoadedWorkload =
        generate(&source.spec, source.seed).into();
    let json_at = |width: usize| {
        predictsim::experiments::SimCache::global().clear_memory();
        rayon::pool::with_num_threads(width, || {
            serde_json::to_string(&fig4_fig5(&loaded, 49)).expect("serialize figures")
        })
    };
    assert_eq!(json_at(1), json_at(8));
}
