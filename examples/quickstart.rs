//! Quickstart: simulate a synthetic HPC workload under standard EASY
//! backfilling and under the paper's prediction-augmented scheduler, and
//! compare the average bounded slowdown.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use predictsim::prelude::*;
use predictsim::workload::by_name;

fn main() {
    // A scaled-down synthetic stand-in for the paper's KTH-SP2 log, with
    // the phenomena the paper's method exploits: per-user runtime
    // locality, heavy requested-time over-estimation, day/week cycles and
    // crash noise.
    let workload = generate(&by_name("KTH-SP2").expect("preset exists").scaled(0.1), 42);
    println!(
        "workload: {} jobs on {} processors, offered utilization {:.0}%, \
         mean over-estimation {:.1}x",
        workload.jobs.len(),
        workload.machine_size,
        100.0 * workload.stats.offered_utilization,
        workload.stats.mean_overestimate,
    );

    let cfg = workload.sim_config();

    // Standard EASY: schedules with the user-requested running times.
    let easy = HeuristicTriple::standard_easy();

    // EASY++ (Tsafrir et al.): AVE2 predictions + incremental correction
    // + shortest-job-backfilled-first.
    let easypp = HeuristicTriple::easy_plus_plus();

    // The paper's contribution: on-line NAG-trained polynomial regression
    // with the E-Loss, incremental correction, EASY-SJBF.
    let ml = HeuristicTriple::paper_winner();

    // The triple our own cross-validation selects on the synthetic logs
    // (see EXPERIMENTS.md): symmetric linear loss, requested-time
    // correction, EASY-SJBF.
    let ml_cv = HeuristicTriple {
        prediction: PredictionTechnique::Ml(MlConfig::new(
            AsymmetricLoss {
                under: predictsim::core::BasisLoss::Linear,
                over: predictsim::core::BasisLoss::Linear,
            },
            WeightingScheme::Constant,
        )),
        correction: Some(predictsim::experiments::CorrectionKind::RequestedTime),
        variant: Variant::EasySjbf,
    };

    // Clairvoyant upper bound: exact running times.
    let clair = HeuristicTriple::clairvoyant(Variant::EasySjbf);

    println!(
        "\n{:<34} {:>9} {:>11} {:>12}",
        "scheduler", "AVEbsld", "mean wait", "corrections"
    );
    let mut ave_bsld = Vec::new();
    for triple in [&easy, &easypp, &ml, &ml_cv, &clair] {
        let r = triple
            .run(&workload.jobs, cfg)
            .unwrap_or_else(|e| panic!("{} simulation failed: {e}", triple.name()));
        let label = format!("{}+{}", triple.prediction.name(), triple.variant.name());
        println!(
            "{:<34} {:>9.2} {:>10.0}s {:>12}",
            label,
            r.ave_bsld(),
            r.mean_wait(),
            r.total_corrections()
        );
        ave_bsld.push(r.ave_bsld());
    }

    // EASY is the first row, the cross-validated triple the fourth.
    let gain = 100.0 * (1.0 - ave_bsld[3] / ave_bsld[0]);
    println!(
        "\nprediction-augmented backfilling changes AVEbsld by {gain:.0}% vs EASY \
         (positive = better; the paper reports an average gain of 28% across six logs)"
    );
}
