//! Ablation studies for the design choices README § "Where we read the
//! paper differently" calls out.
//!
//! Beyond the paper's own comparisons, these isolate the contribution of
//! each ingredient of the winning heuristic triple: the backfill
//! ordering, the correction mechanism, the optimizer, and the basis
//! degree. Each ablation runs on one workload and returns labeled
//! AVEbsld values.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use predictsim_core::{AsymmetricLoss, BasisKind, MlConfig, OptimizerKind, WeightingScheme};

use crate::source::LoadedWorkload;
use crate::triple::{CorrectionKind, HeuristicTriple, PredictionTechnique, Variant};

/// One labeled ablation measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Which knob value was measured.
    pub label: String,
    /// Resulting AVEbsld.
    pub ave_bsld: f64,
    /// Total corrections (a proxy for prediction quality in context).
    pub corrections: u64,
}

fn run_rows(workload: &LoadedWorkload, runs: Vec<(String, HeuristicTriple)>) -> Vec<AblationRow> {
    let progress = crate::progress::CellProgress::new("ablation", runs.len());
    runs.into_par_iter()
        .map(|(label, triple)| {
            let cell = progress.run(
                &label,
                &workload.jobs,
                predictsim_sim::ClusterSpec::single(workload.machine_size),
                &triple,
            );
            AblationRow {
                label,
                ave_bsld: cell.result.ave_bsld,
                corrections: cell.result.corrections,
            }
        })
        .collect()
}

/// Scheduler ablation under clairvoyance: FCFS vs EASY vs EASY-SJBF vs
/// conservative backfilling. Isolates how much of the win is pure
/// scheduling mechanics.
pub fn ablate_scheduler(workload: &LoadedWorkload) -> Vec<AblationRow> {
    let runs = [
        Variant::Fcfs,
        Variant::Easy,
        Variant::EasySjbf,
        Variant::Conservative,
    ]
    .into_iter()
    .map(|v| {
        (
            format!("clairvoyant+{}", v.name()),
            HeuristicTriple {
                prediction: PredictionTechnique::Clairvoyant,
                correction: None,
                variant: v,
            },
        )
    })
    .collect();
    run_rows(workload, runs)
}

/// Correction-mechanism ablation with the E-Loss learner under EASY-SJBF
/// (§5.2's three options).
pub fn ablate_correction(workload: &LoadedWorkload) -> Vec<AblationRow> {
    let runs = CorrectionKind::ALL
        .into_iter()
        .map(|c| {
            (
                format!("eloss+{}+easy-sjbf", c.name()),
                HeuristicTriple {
                    prediction: PredictionTechnique::Ml(MlConfig::e_loss()),
                    correction: Some(c),
                    variant: Variant::EasySjbf,
                },
            )
        })
        .collect();
    run_rows(workload, runs)
}

/// Optimizer ablation: NAG (the paper's choice) vs SGD vs AdaGrad with
/// identical loss, correction and variant.
pub fn ablate_optimizer(workload: &LoadedWorkload) -> Vec<AblationRow> {
    let runs = [
        OptimizerKind::Nag,
        OptimizerKind::Sgd,
        OptimizerKind::AdaGrad,
    ]
    .into_iter()
    .map(|opt| {
        let mut cfg = MlConfig::e_loss();
        cfg.optimizer = opt;
        (
            format!("eloss[{:?}]+incremental+easy-sjbf", opt),
            HeuristicTriple {
                prediction: PredictionTechnique::Ml(cfg),
                correction: Some(CorrectionKind::Incremental),
                variant: Variant::EasySjbf,
            },
        )
    })
    .collect();
    run_rows(workload, runs)
}

/// Basis ablation: degree-2 polynomial (Equation 1) vs a plain linear
/// model over the same features.
pub fn ablate_basis(workload: &LoadedWorkload) -> Vec<AblationRow> {
    let runs = [BasisKind::Polynomial, BasisKind::Linear]
        .into_iter()
        .map(|basis| {
            let mut cfg = MlConfig::e_loss();
            cfg.basis = basis;
            (
                format!("eloss[{:?} basis]+incremental+easy-sjbf", basis),
                HeuristicTriple {
                    prediction: PredictionTechnique::Ml(cfg),
                    correction: Some(CorrectionKind::Incremental),
                    variant: Variant::EasySjbf,
                },
            )
        })
        .collect();
    run_rows(workload, runs)
}

/// Loss-shape ablation: the E-Loss asymmetry vs the symmetric squared
/// loss, both area-weighted and unweighted (the Figure 4/5 comparison as
/// scheduling numbers).
pub fn ablate_loss(workload: &LoadedWorkload) -> Vec<AblationRow> {
    let combos = [
        (
            "eloss/area",
            AsymmetricLoss::E_LOSS,
            WeightingScheme::LargeArea,
        ),
        (
            "eloss/const",
            AsymmetricLoss::E_LOSS,
            WeightingScheme::Constant,
        ),
        (
            "squared/area",
            AsymmetricLoss::SQUARED,
            WeightingScheme::LargeArea,
        ),
        (
            "squared/const",
            AsymmetricLoss::SQUARED,
            WeightingScheme::Constant,
        ),
    ];
    let runs = combos
        .into_iter()
        .map(|(label, loss, weighting)| {
            (
                format!("{label}+incremental+easy-sjbf"),
                HeuristicTriple {
                    prediction: PredictionTechnique::Ml(MlConfig::new(loss, weighting)),
                    correction: Some(CorrectionKind::Incremental),
                    variant: Variant::EasySjbf,
                },
            )
        })
        .collect();
    run_rows(workload, runs)
}

/// Renders ablation rows as a markdown table.
pub fn render_ablation(title: &str, rows: &[AblationRow]) -> String {
    let mut out =
        format!("### {title}\n\n| configuration | AVEbsld | corrections |\n|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {:.2} | {} |\n",
            r.label, r.ave_bsld, r.corrections
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use predictsim_workload::{generate, WorkloadSpec};

    fn tiny() -> LoadedWorkload {
        let mut spec = WorkloadSpec::toy();
        spec.jobs = 250;
        spec.duration = 3 * 86_400;
        generate(&spec, 21).into()
    }

    #[test]
    fn scheduler_ablation_orders_fcfs_last() {
        let w = tiny();
        let rows = ablate_scheduler(&w);
        assert_eq!(rows.len(), 4);
        let fcfs = rows
            .iter()
            .find(|r| r.label.contains("fcfs"))
            .expect("fcfs row");
        let easy = rows
            .iter()
            .find(|r| r.label == "clairvoyant+easy")
            .expect("easy row");
        assert!(
            fcfs.ave_bsld >= easy.ave_bsld,
            "backfilling must not lose to plain FCFS: {} vs {}",
            fcfs.ave_bsld,
            easy.ave_bsld
        );
    }

    #[test]
    fn correction_and_optimizer_ablations_run() {
        let w = tiny();
        assert_eq!(ablate_correction(&w).len(), 3);
        assert_eq!(ablate_optimizer(&w).len(), 3);
        assert_eq!(ablate_basis(&w).len(), 2);
        assert_eq!(ablate_loss(&w).len(), 4);
    }

    #[test]
    fn render_contains_rows() {
        let rows = vec![AblationRow {
            label: "x".into(),
            ave_bsld: 1.5,
            corrections: 7,
        }];
        let md = render_ablation("Test", &rows);
        assert!(md.contains("### Test"));
        assert!(md.contains("| x | 1.50 | 7 |"));
    }
}
