//! A miniature §6 experiment campaign: all 128 heuristic triples on two
//! scaled logs, followed by leave-one-out triple selection — the Table 6
//! and Table 7 machinery end to end on a laptop budget.
//!
//! ```text
//! cargo run --release --example mini_campaign
//! ```
//!
//! (For the real thing across all six logs, use the dedicated binary:
//! `cargo run --release -p predictsim --bin repro -- all`.)

use predictsim::experiments::{reference_triples, CampaignResult};
use predictsim::prelude::*;
use predictsim::workload::by_name;

fn main() {
    // Two logs, 2% scale: ~1,800 jobs total, a few seconds of work.
    let specs = [
        by_name("KTH-SP2").expect("preset exists").scaled(0.02),
        by_name("SDSC-SP2").expect("preset exists").scaled(0.02),
    ];
    let workloads: Vec<LoadedWorkload> =
        specs.iter().map(|s| generate(s, 20150101).into()).collect();

    let mut triples = campaign_triples();
    triples.extend(reference_triples());
    println!(
        "running {} triples on {} logs ({} simulations)...",
        triples.len(),
        workloads.len(),
        triples.len() * workloads.len()
    );

    let campaigns: Vec<CampaignResult> = workloads
        .iter()
        .map(|w| run_campaign_loaded(w, &triples))
        .collect();

    for c in &campaigns {
        let easy = c.bsld_of(&HeuristicTriple::standard_easy().name());
        let easypp = c.bsld_of(&HeuristicTriple::easy_plus_plus().name());
        let best = c
            .best_where(|r| r.predictor != "clairvoyant")
            .expect("non-empty campaign");
        let clair = c.bsld_of("clairvoyant+easy-sjbf");
        println!(
            "\n=== {} ({} jobs on {} procs)",
            c.log, c.jobs, c.machine_size
        );
        println!("  EASY                {easy:>8.2}");
        println!("  EASY++              {easypp:>8.2}");
        println!(
            "  best triple         {:>8.2}  ({})",
            best.ave_bsld, best.triple
        );
        println!("  clairvoyant SJBF    {clair:>8.2}  (upper bound)");
    }

    // Leave-one-out selection across the two logs.
    let outcome = cross_validate(&campaigns);
    println!("\n=== leave-one-out cross-validation");
    for row in &outcome.rows {
        println!(
            "  held-out {:<14} selected {:<44} bsld {:>7.2} ({:+.0}% vs EASY)",
            row.log,
            row.selected_triple,
            row.cv_bsld,
            -row.reduction_vs_easy() * -1.0,
        );
    }
    println!(
        "\nglobal winner: {} (paper's: {})",
        outcome.global_winner,
        HeuristicTriple::paper_winner().name()
    );
}
