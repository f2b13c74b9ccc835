//! Watch the on-line learner at work: prediction quality over time, the
//! asymmetry of the E-Loss, and the Table 8 / Figure 4–5 analyses in
//! miniature.
//!
//! ```text
//! cargo run --release --example online_prediction
//! ```

use predictsim::core::{mae_of_outcomes, mean_eloss_of_outcomes};
use predictsim::metrics::underprediction_rate;
use predictsim::prelude::*;

fn run_with(
    workload: &GeneratedWorkload,
    label: &str,
    prediction: PredictionTechnique,
) -> (String, predictsim::sim::SimResult) {
    let triple = HeuristicTriple {
        prediction,
        correction: Some(predictsim::experiments::CorrectionKind::Incremental),
        variant: Variant::EasySjbf,
    };
    (
        label.to_string(),
        triple
            .run(&workload.jobs, workload.sim_config())
            .expect("simulation failed"),
    )
}

fn main() {
    let mut spec = WorkloadSpec::toy();
    spec.jobs = 6_000;
    spec.duration = 45 * 86_400;
    let workload = generate(&spec, 99);
    println!(
        "workload: {} jobs, {} users, {:.0}% offered utilization\n",
        workload.jobs.len(),
        workload.stats.active_users,
        100.0 * workload.stats.offered_utilization
    );

    let runs = vec![
        run_with(
            &workload,
            "requested-time",
            PredictionTechnique::RequestedTime,
        ),
        run_with(&workload, "ave2 (Tsafrir)", PredictionTechnique::Ave2),
        run_with(
            &workload,
            "ML squared loss",
            PredictionTechnique::Ml(MlConfig::new(
                AsymmetricLoss::SQUARED,
                WeightingScheme::Constant,
            )),
        ),
        run_with(
            &workload,
            "ML E-Loss",
            PredictionTechnique::Ml(MlConfig::e_loss()),
        ),
    ];

    // Table-8-style comparison: MAE vs mean E-Loss, plus the
    // under-prediction rate that explains Figures 4 and 5.
    println!(
        "{:<18} {:>10} {:>14} {:>12} {:>9}",
        "technique", "MAE (s)", "mean E-Loss", "under-pred", "AVEbsld"
    );
    for (label, res) in &runs {
        let preds: Vec<f64> = res
            .outcomes
            .iter()
            .map(|o| o.initial_prediction as f64)
            .collect();
        let actual: Vec<f64> = res.outcomes.iter().map(|o| o.run as f64).collect();
        println!(
            "{:<18} {:>10.0} {:>14.3e} {:>11.0}% {:>9.2}",
            label,
            mae_of_outcomes(&res.outcomes),
            mean_eloss_of_outcomes(&res.outcomes),
            100.0 * underprediction_rate(&preds, &actual),
            res.ave_bsld(),
        );
    }

    // Learning curve of the E-Loss model: MAE over consecutive windows of
    // completions — shows the on-line learner improving as history grows.
    let (_, eloss_run) = &runs[3];
    println!("\nE-Loss learner MAE by completion window:");
    let window = eloss_run.outcomes.len() / 8;
    let mut by_end = eloss_run.outcomes.clone();
    by_end.sort_by_key(|o| o.end);
    for (i, chunk) in by_end.chunks(window).enumerate().take(8) {
        let mae: f64 = chunk
            .iter()
            .map(|o| (o.initial_prediction - o.run).abs() as f64)
            .sum::<f64>()
            / chunk.len() as f64;
        println!("  window {i}: MAE {:>7.0}s over {} jobs", mae, chunk.len());
    }

    // Figure-5-style quantiles of predicted values (hours).
    println!("\npredicted-value quantiles (hours):");
    for (label, res) in &runs {
        let e = Ecdf::new(
            res.outcomes
                .iter()
                .map(|o| o.initial_prediction as f64 / 3600.0)
                .collect(),
        );
        println!(
            "  {:<18} p25={:>6.2} p50={:>6.2} p75={:>6.2} p95={:>7.2}",
            label,
            e.quantile(0.25),
            e.quantile(0.5),
            e.quantile(0.75),
            e.quantile(0.95)
        );
    }
}
