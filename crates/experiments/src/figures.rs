//! Regenerators for the paper's figures (3, 4 and 5).
//!
//! Figures are exported as data series (CSV-ready `(x, y)` pairs or
//! scatter points); the repro binary also renders coarse ASCII plots so
//! the shapes can be eyeballed in a terminal.

use std::sync::Arc;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use predictsim_metrics::{pairwise_correlation_summary, Ecdf};

use crate::cache::SimCache;
use crate::campaign::CampaignResult;
use crate::source::LoadedWorkload;
use crate::triple::{CorrectionKind, HeuristicTriple, PredictionTechnique, Variant};

use predictsim_core::{AsymmetricLoss, MlConfig, WeightingScheme};

/// One point of the Figure 3 scatter: a heuristic triple's AVEbsld on two
/// logs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Point {
    /// Triple name.
    pub triple: String,
    /// Category used for the plot legend ("clairvoyant", "requested",
    /// "ave2" or "ml").
    pub category: String,
    /// Scheduler variant ("easy" / "easy-sjbf").
    pub variant: String,
    /// AVEbsld on the x-axis log.
    pub x: f64,
    /// AVEbsld on the y-axis log.
    pub y: f64,
}

/// The Figure 3 dataset plus the §6.3.2 Pearson aggregate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3 {
    /// X-axis log name.
    pub x_log: String,
    /// Y-axis log name.
    pub y_log: String,
    /// Scatter points (one per triple present in both campaigns).
    pub points: Vec<Fig3Point>,
    /// Pearson |r| (mean, min, max) over *all* pairs of campaign logs.
    pub pearson_mean_min_max: Option<(f64, f64, f64)>,
}

/// Builds Figure 3 from campaign results: the scatter compares `x_log`
/// and `y_log` (the paper uses SDSC-BLUE vs MetaCentrum); the Pearson
/// summary uses every pair of logs in `campaigns`.
pub fn fig3(campaigns: &[CampaignResult], x_log: &str, y_log: &str) -> Fig3 {
    let cx = campaigns
        .iter()
        .find(|c| c.log.starts_with(x_log))
        .expect("x log not in campaigns");
    let cy = campaigns
        .iter()
        .find(|c| c.log.starts_with(y_log))
        .expect("y log not in campaigns");
    let points = cx
        .results
        .iter()
        .filter_map(|rx| {
            cy.get(&rx.triple).map(|ry| Fig3Point {
                triple: rx.triple.clone(),
                category: if rx.predictor.starts_with("ml(") {
                    "ml".to_string()
                } else {
                    rx.predictor.clone()
                },
                variant: rx.variant.clone(),
                x: rx.ave_bsld,
                y: ry.ave_bsld,
            })
        })
        .collect();

    // §6.3.2: Pearson coefficient per log pair, aggregated.
    let names: Vec<&str> = cx.results.iter().map(|r| r.triple.as_str()).collect();
    let columns: Vec<Vec<f64>> = campaigns
        .iter()
        .map(|c| {
            names
                .iter()
                .filter_map(|n| c.get(n).map(|r| r.ave_bsld))
                .collect::<Vec<f64>>()
        })
        .filter(|col| col.len() == names.len())
        .collect();
    let pearson = pairwise_correlation_summary(&columns);

    Fig3 {
        x_log: cx.log.clone(),
        y_log: cy.log.clone(),
        points,
        pearson_mean_min_max: pearson,
    }
}

/// One ECDF series of Figures 4/5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EcdfSeries {
    /// Legend label ("E-Loss Regression", "Requested Time", …).
    pub label: String,
    /// `(x, F(x))` pairs; `x` in hours for the figures.
    pub curve: Vec<(f64, f64)>,
}

/// Figure 4 (ECDF of prediction errors) and Figure 5 (ECDF of predicted
/// values) computed on one log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig45 {
    /// Log name (the paper uses Curie).
    pub log: String,
    /// Figure 4 series: prediction error (hours) → cumulative density.
    pub error_series: Vec<EcdfSeries>,
    /// Figure 5 series: predicted value (hours) → cumulative density.
    pub value_series: Vec<EcdfSeries>,
}

const HOUR_F: f64 = 3600.0;

/// Runs (or recalls) one figure technique: the per-job initial
/// predictions under `prediction` + Incremental + EASY-SJBF. Half of
/// the Figure 4/5 techniques are campaign cells, which the process-wide
/// [`SimCache`] dedups against a preceding campaign.
fn run_technique(
    workload: &LoadedWorkload,
    label: &str,
    prediction: PredictionTechnique,
    progress: &crate::progress::CellProgress,
) -> (String, Arc<Vec<i64>>) {
    let triple = HeuristicTriple {
        prediction,
        correction: Some(CorrectionKind::Incremental),
        variant: Variant::EasySjbf,
    };
    let started = crate::progress::start();
    let (_, predictions, source) = SimCache::global()
        .run_cell_full_traced(
            &workload.jobs,
            predictsim_sim::ClusterSpec::single(workload.machine_size),
            &triple,
        )
        .expect("figure simulation failed");
    progress.cell_done(&triple.name(), source, started);
    (label.to_string(), predictions)
}

/// Computes the Figure 4 and Figure 5 series on `workload` with
/// `points`-sample curves.
///
/// The four prediction techniques match the paper's legends: the E-Loss
/// learner, the user-requested time, a plain squared-loss learner, and
/// AVE₂; Figure 5 adds the actual running times as the reference
/// distribution. The four simulations are independent and run in
/// parallel (order-preserving).
pub fn fig4_fig5(workload: &LoadedWorkload, points: usize) -> Fig45 {
    let techniques = [
        (
            "E-Loss Regression",
            PredictionTechnique::Ml(MlConfig::e_loss()),
        ),
        ("Requested Time", PredictionTechnique::RequestedTime),
        (
            "Squared Loss Regression",
            PredictionTechnique::Ml(MlConfig::new(
                AsymmetricLoss::SQUARED,
                WeightingScheme::Constant,
            )),
        ),
        ("AVE2(k)", PredictionTechnique::Ave2),
    ];
    let progress = crate::progress::CellProgress::new("fig4+fig5", techniques.len());
    let runs: Vec<(String, Arc<Vec<i64>>)> = techniques
        .into_par_iter()
        .map(|(label, prediction)| run_technique(workload, label, prediction, &progress))
        .collect();

    // The granted running time per job (what a `JobOutcome` records as
    // `run`), by dense job id — jobs are shared through the arena, so
    // the per-cell payload only needs the predictions.
    let granted: Vec<i64> = workload.jobs.iter().map(|j| j.granted_run()).collect();

    // Figure 4: signed prediction error in hours, over [-24h, +24h].
    let error_series = runs
        .iter()
        .map(|(label, predictions)| {
            let errors: Vec<f64> = predictions
                .iter()
                .zip(&granted)
                .map(|(&p, &run)| (p - run) as f64 / HOUR_F)
                .collect();
            EcdfSeries {
                label: label.clone(),
                curve: Ecdf::new(errors).curve(-24.0, 24.0, points),
            }
        })
        .collect();

    // Figure 5: predicted values in hours over [0, 24h], plus the actual
    // running times as reference.
    let mut value_series: Vec<EcdfSeries> = runs
        .iter()
        .map(|(label, predictions)| {
            let preds: Vec<f64> = predictions.iter().map(|&p| p as f64 / HOUR_F).collect();
            EcdfSeries {
                label: label.clone(),
                curve: Ecdf::new(preds).curve(0.0, 24.0, points),
            }
        })
        .collect();
    let actual: Vec<f64> = granted.iter().map(|&run| run as f64 / HOUR_F).collect();
    value_series.insert(
        0,
        EcdfSeries {
            label: "Actual value".into(),
            curve: Ecdf::new(actual).curve(0.0, 24.0, points),
        },
    );

    Fig45 {
        log: workload.name.clone(),
        error_series,
        value_series,
    }
}

/// Renders an ECDF family as a compact ASCII chart (one row per series,
/// quantile markers), good enough to eyeball the Figure 4/5 shapes in a
/// terminal.
pub fn render_ecdf_series(series: &[EcdfSeries], x_unit: &str) -> String {
    let mut out = String::new();
    for s in series {
        // Find x positions where the curve crosses 10%/25%/50%/75%/90%.
        let mut marks = Vec::new();
        for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let x = s
                .curve
                .iter()
                .find(|&&(_, f)| f >= q)
                .map(|&(x, _)| x)
                .unwrap_or(f64::NAN);
            marks.push(format!("p{:.0}={:+.1}{x_unit}", q * 100.0, x));
        }
        out.push_str(&format!("{:<26} {}\n", s.label, marks.join("  ")));
    }
    out
}

/// Renders Figure 3 as an ASCII summary: per-category best/median plus
/// the Pearson aggregate.
pub fn render_fig3(fig: &Fig3) -> String {
    let mut out = format!(
        "Scatter: AVEbsld on {} (x) vs {} (y), {} triples\n",
        fig.x_log,
        fig.y_log,
        fig.points.len()
    );
    let baselines = PredictionTechnique::BASELINES.map(|(_, name, _)| name);
    for cat in baselines.into_iter().chain(["ml"]) {
        let pts: Vec<&Fig3Point> = fig.points.iter().filter(|p| p.category == cat).collect();
        if pts.is_empty() {
            continue;
        }
        let best = pts
            .iter()
            .min_by(|a, b| (a.x + a.y).total_cmp(&(b.x + b.y)))
            .expect("non-empty");
        out.push_str(&format!(
            "  {:<12} n={:<3} best: x={:.1} y={:.1} ({})\n",
            cat,
            pts.len(),
            best.x,
            best.y,
            best.triple
        ));
    }
    if let Some((mean, min, max)) = fig.pearson_mean_min_max {
        out.push_str(&format!(
            "Pearson |r| over log pairs: mean {mean:.2} (min {min:.2}, max {max:.2})\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign_loaded;
    use crate::triple::reference_triples;
    use predictsim_workload::{generate, WorkloadSpec};

    fn tiny(name: &str, seed: u64) -> LoadedWorkload {
        let mut spec = WorkloadSpec::toy();
        spec.name = name.into();
        spec.jobs = 300;
        spec.duration = 3 * 86_400;
        generate(&spec, seed).into()
    }

    fn small_triples() -> Vec<HeuristicTriple> {
        let mut t = vec![
            HeuristicTriple::standard_easy(),
            HeuristicTriple::easy_plus_plus(),
            HeuristicTriple::paper_winner(),
        ];
        t.extend(reference_triples());
        t
    }

    #[test]
    fn fig3_points_and_pearson() {
        let wa = tiny("LogA", 1);
        let wb = tiny("LogB", 2);
        let triples = small_triples();
        let campaigns = vec![
            run_campaign_loaded(&wa, &triples),
            run_campaign_loaded(&wb, &triples),
        ];
        let fig = fig3(&campaigns, "LogA", "LogB");
        assert_eq!(fig.points.len(), triples.len());
        assert!(fig.pearson_mean_min_max.is_some());
        let txt = render_fig3(&fig);
        assert!(txt.contains("LogA"));
        assert!(txt.contains("Pearson"));
    }

    #[test]
    fn fig45_series_are_complete_and_monotone() {
        let w = tiny("LogC", 3);
        let fig = fig4_fig5(&w, 49);
        assert_eq!(fig.error_series.len(), 4);
        assert_eq!(fig.value_series.len(), 5); // + actual values
        for s in fig.error_series.iter().chain(&fig.value_series) {
            assert_eq!(s.curve.len(), 49, "{}", s.label);
            for w in s.curve.windows(2) {
                assert!(w[1].1 >= w[0].1, "{} not monotone", s.label);
            }
        }
        // Requested Time never under-predicts: its error ECDF at 0 must
        // be ~0 (all errors positive).
        let req = fig
            .error_series
            .iter()
            .find(|s| s.label == "Requested Time")
            .expect("series exists");
        let at_zero = req
            .curve
            .iter()
            .find(|&&(x, _)| x >= 0.0)
            .map(|&(_, f)| f)
            .expect("curve covers 0");
        assert!(
            at_zero <= 0.05,
            "requested-time errors must be >= 0, F(0) = {at_zero}"
        );
        let txt = render_ecdf_series(&fig.error_series, "h");
        assert!(txt.contains("E-Loss Regression"));
    }

    #[test]
    fn eloss_is_biased_small_in_fig5() {
        // §6.4 / Figure 5: the E-Loss model is strongly biased toward
        // small predictions — its median predicted value sits below the
        // squared-loss learner's.
        let w = tiny("LogD", 4);
        let fig = fig4_fig5(&w, 97);
        let median_x = |label: &str| {
            fig.value_series
                .iter()
                .find(|s| s.label == label)
                .expect("series")
                .curve
                .iter()
                .find(|&&(_, f)| f >= 0.5)
                .map(|&(x, _)| x)
                .expect("median within range")
        };
        let eloss = median_x("E-Loss Regression");
        let squared = median_x("Squared Loss Regression");
        let requested = median_x("Requested Time");
        assert!(
            eloss <= squared,
            "E-Loss median {eloss} vs squared {squared}"
        );
        assert!(
            eloss < requested,
            "E-Loss median {eloss} vs requested {requested}"
        );
    }
}
