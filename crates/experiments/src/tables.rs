//! Regenerators for the paper's tables.
//!
//! Each function computes the same rows the paper reports and renders
//! them as a markdown table. Absolute values differ from the paper (the
//! workloads are synthetic stand-ins — README § "Where we read the paper
//! differently"); the *shape* claims
//! are what EXPERIMENTS.md tracks.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::campaign::{CampaignResult, TripleResult};
use crate::cv::{cross_validate, CvOutcome};
use crate::source::LoadedWorkload;
use crate::triple::{HeuristicTriple, Variant};

/// One row of Table 1: EASY vs EASY-Clairvoyant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Log name.
    pub log: String,
    /// AVEbsld of EASY with user-requested times.
    pub easy: f64,
    /// AVEbsld of EASY with exact running times.
    pub clairvoyant: f64,
}

impl Table1Row {
    /// "Values between parentheses show the corresponding decrease."
    fn decrease_percent(&self) -> f64 {
        100.0 * (1.0 - self.clairvoyant / self.easy)
    }
}

/// Table 1: the motivation experiment (§2.2) — perfect information
/// improves EASY on every log.
///
/// The per-log pairs of simulations are independent and fan out in
/// parallel; both cells per log are campaign cells, so they route
/// through the process-wide [`SimCache`](crate::cache::SimCache) (a
/// later campaign reuses them, and vice versa).
pub fn table1(workloads: &[LoadedWorkload]) -> Vec<Table1Row> {
    let progress = crate::progress::CellProgress::new("table1", workloads.len() * 2);
    workloads
        .par_iter()
        .map(|w| {
            let cell = |triple: &HeuristicTriple| {
                progress
                    .run(
                        &format!("{} {}", w.name, triple.name()),
                        &w.jobs,
                        predictsim_sim::ClusterSpec::single(w.machine_size),
                        triple,
                    )
                    .result
                    .ave_bsld
            };
            Table1Row {
                log: w.name.clone(),
                easy: cell(&HeuristicTriple::standard_easy()),
                clairvoyant: cell(&HeuristicTriple::clairvoyant(Variant::Easy)),
            }
        })
        .collect()
}

/// Renders Table 1 as markdown.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::from("| Log | EASY | EASY-Clairvoyant |\n|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {:.1} | {:.1} ({:.0}%) |\n",
            r.log,
            r.easy,
            r.clairvoyant,
            r.decrease_percent()
        ));
    }
    let mean: f64 =
        rows.iter().map(Table1Row::decrease_percent).sum::<f64>() / rows.len().max(1) as f64;
    out.push_str(&format!("\nMean decrease: {mean:.0}%\n"));
    out
}

/// One row of Table 6: the AVEbsld overview per log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table6Row {
    /// Log name.
    pub log: String,
    /// Clairvoyant EASY (FCFS backfill order).
    pub clairvoyant_fcfs: f64,
    /// Clairvoyant EASY-SJBF.
    pub clairvoyant_sjbf: f64,
    /// Standard EASY.
    pub easy: f64,
    /// EASY++.
    pub easy_pp: f64,
    /// Best and worst learning triple under the EASY variant.
    pub learning_fcfs: (f64, f64),
    /// Best and worst learning triple under EASY-SJBF.
    pub learning_sjbf: (f64, f64),
}

/// Table 6 from per-log campaign results (which must include the
/// clairvoyant references — see
/// [`crate::triple::reference_triples`]).
pub fn table6(campaigns: &[CampaignResult]) -> Vec<Table6Row> {
    campaigns
        .iter()
        .map(|c| {
            // Best and worst learning triple under `variant`.
            let learning = |variant: Variant| {
                let of = |r: &TripleResult| {
                    r.predictor.starts_with("ml(") && r.variant == variant.name()
                };
                let best = c.best_where(of).expect("campaign lacks ML results");
                let worst = c.worst_where(of).expect("campaign lacks ML results");
                (best.ave_bsld, worst.ave_bsld)
            };
            let clairvoyant = |variant| c.bsld_of(&HeuristicTriple::clairvoyant(variant).name());
            Table6Row {
                log: c.log.clone(),
                clairvoyant_fcfs: clairvoyant(Variant::Easy),
                clairvoyant_sjbf: clairvoyant(Variant::EasySjbf),
                easy: c.bsld_of(&HeuristicTriple::standard_easy().name()),
                easy_pp: c.bsld_of(&HeuristicTriple::easy_plus_plus().name()),
                learning_fcfs: learning(Variant::Easy),
                learning_sjbf: learning(Variant::EasySjbf),
            }
        })
        .collect()
}

/// Renders Table 6 as markdown (same columns as the paper).
pub fn render_table6(rows: &[Table6Row]) -> String {
    let mut out = String::from(
        "| Trace | Clairv. FCFS | Clairv. SJBF | EASY | EASY++ | Learning FCFS (best–worst) | Learning SJBF (best–worst) |\n|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} – {:.1} | {:.1} – {:.1} |\n",
            r.log,
            r.clairvoyant_fcfs,
            r.clairvoyant_sjbf,
            r.easy,
            r.easy_pp,
            r.learning_fcfs.0,
            r.learning_fcfs.1,
            r.learning_sjbf.0,
            r.learning_sjbf.1,
        ));
    }
    out
}

/// Table 7: cross-validated triple selection (delegates to
/// [`crate::cv::cross_validate`]).
pub fn table7(campaigns: &[CampaignResult]) -> CvOutcome {
    cross_validate(campaigns)
}

/// Renders Table 7 as markdown.
pub fn render_table7(outcome: &CvOutcome) -> String {
    let mut out = String::from(
        "| Log | C-V triple AVEbsld | EASY | EASY++ | selected triple |\n|---|---|---|---|---|\n",
    );
    for r in &outcome.rows {
        out.push_str(&format!(
            "| {} | {:.1} ({:.0}%) | {:.1} | {:.1} ({:.0}%) | {} |\n",
            r.log,
            r.cv_bsld,
            r.reduction_vs_easy(),
            r.easy_bsld,
            r.easy_pp_bsld,
            r.easypp_reduction_vs_easy(),
            r.selected_triple,
        ));
    }
    out.push_str(&format!(
        "\nGlobal winner (all logs vote): **{}**\nMean AVEbsld reduction vs EASY: {:.0}% (max {:.0}%); vs EASY++: {:.0}%\n",
        outcome.global_winner,
        outcome.mean_reduction_vs_easy(),
        outcome.max_reduction_vs_easy(),
        outcome.mean_reduction_vs_easypp(),
    ));
    out
}

/// Table 8: MAE vs mean E-Loss for AVE₂ and the E-Loss learner (§6.4),
/// measured on one log (the paper uses Curie).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table8Row {
    /// Prediction technique name.
    pub technique: String,
    /// Mean absolute prediction error, seconds.
    pub mae: f64,
    /// Mean E-Loss (Eq. 3) of the predictions.
    pub mean_eloss: f64,
}

/// Computes Table 8 on `workload` by replaying the EASY-SJBF +
/// Incremental triple with each prediction technique (both simulations
/// in parallel). Both cells belong to the §6.2 campaign grid, so a
/// preceding campaign on the same workload makes this a pure cache
/// read.
pub fn table8(workload: &LoadedWorkload) -> Vec<Table8Row> {
    let progress = crate::progress::CellProgress::new("table8", 2);
    [
        ("AVE2(k)", HeuristicTriple::easy_plus_plus()),
        ("E-Loss learning", HeuristicTriple::paper_winner()),
    ]
    .into_par_iter()
    .map(|(label, triple)| {
        let cell = progress.run(
            &triple.name(),
            &workload.jobs,
            predictsim_sim::ClusterSpec::single(workload.machine_size),
            &triple,
        );
        Table8Row {
            technique: label.to_string(),
            mae: cell.result.mae,
            mean_eloss: cell.result.mean_eloss,
        }
    })
    .collect()
}

/// Renders Table 8 as markdown.
pub fn render_table8(rows: &[Table8Row]) -> String {
    let mut out = String::from("| Prediction Technique | MAE (s) | Mean E-Loss |\n|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {:.0} | {:.3e} |\n",
            r.technique, r.mae, r.mean_eloss
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentSetup;
    use predictsim_workload::{generate, WorkloadSpec};

    fn tiny() -> LoadedWorkload {
        let mut spec = WorkloadSpec::toy();
        spec.jobs = 400;
        spec.duration = 4 * 86_400;
        generate(&spec, 5).into()
    }

    #[test]
    fn table1_decrease_math() {
        let row = Table1Row {
            log: "X".into(),
            easy: 100.0,
            clairvoyant: 75.0,
        };
        assert!((row.decrease_percent() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn table1_runs_on_workloads() {
        let w = tiny();
        let rows = table1(std::slice::from_ref(&w));
        assert_eq!(rows.len(), 1);
        assert!(rows[0].easy >= 1.0);
        assert!(rows[0].clairvoyant >= 1.0);
        let md = render_table1(&rows);
        assert!(md.contains("| Log |"));
        assert!(md.contains("toy"));
    }

    #[test]
    fn table8_shape_holds_on_tiny_log() {
        // The headline §6.4 claim: AVE2 has the better MAE but a much
        // worse (orders of magnitude) mean E-Loss.
        let w = tiny();
        let rows = table8(&w);
        assert_eq!(rows.len(), 2);
        let ave2 = &rows[0];
        let eloss = &rows[1];
        assert!(
            eloss.mean_eloss < ave2.mean_eloss,
            "E-Loss learner must win on the E-Loss metric: {} vs {}",
            eloss.mean_eloss,
            ave2.mean_eloss
        );
        let md = render_table8(&rows);
        assert!(md.contains("AVE2"));
    }

    #[test]
    fn setup_can_build_a_quick_workload_set() {
        // Smoke-check the context plumbing used by the repro binary.
        let setup = ExperimentSetup {
            scale: 0.002,
            seed: 3,
        };
        let ws = setup.workloads();
        assert_eq!(ws.len(), 6);
    }
}
