//! Leave-one-out cross-validation of heuristic triples (§6.3.3).
//!
//! Because triple performance correlates only weakly across logs
//! (§6.3.2, Figure 3), picking the best triple *per log* would overfit.
//! The paper instead selects, for each log, the triple minimizing the
//! summed AVEbsld over the *other five* logs, and evaluates that
//! selection on the held-out log — repeated six times. Table 7 reports
//! the resulting AVEbsld and its reduction relative to EASY and EASY++.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::campaign::CampaignResult;
use crate::triple::{HeuristicTriple, PredictionTechnique};

/// One Table 7 row: the held-out log and the cross-validated selection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CvRow {
    /// Held-out log name.
    pub log: String,
    /// The triple selected on the other logs.
    pub selected_triple: String,
    /// AVEbsld of the selected triple on the held-out log.
    pub cv_bsld: f64,
    /// AVEbsld of standard EASY on the held-out log.
    pub easy_bsld: f64,
    /// AVEbsld of EASY++ on the held-out log.
    pub easy_pp_bsld: f64,
}

impl CvRow {
    /// Percentage reduction of the C-V triple vs EASY (positive = better,
    /// the parenthesized numbers of Table 7).
    pub fn reduction_vs_easy(&self) -> f64 {
        100.0 * (1.0 - self.cv_bsld / self.easy_bsld)
    }

    /// Percentage reduction of EASY++ vs EASY.
    pub fn easypp_reduction_vs_easy(&self) -> f64 {
        100.0 * (1.0 - self.easy_pp_bsld / self.easy_bsld)
    }

    /// Percentage reduction of the C-V triple vs EASY++.
    fn reduction_vs_easypp(&self) -> f64 {
        100.0 * (1.0 - self.cv_bsld / self.easy_pp_bsld)
    }
}

/// The full cross-validation outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CvOutcome {
    /// One row per held-out log.
    pub rows: Vec<CvRow>,
    /// The triple selected when *all* logs vote (the §6.3.4 "single
    /// prevalent triple").
    pub global_winner: String,
}

impl CvOutcome {
    /// Mean AVEbsld reduction vs EASY over all rows (the paper's
    /// headline 28%).
    pub fn mean_reduction_vs_easy(&self) -> f64 {
        mean(self.rows.iter().map(|r| r.reduction_vs_easy()))
    }

    /// Mean AVEbsld reduction vs EASY++ (the paper's 11%).
    pub fn mean_reduction_vs_easypp(&self) -> f64 {
        mean(self.rows.iter().map(|r| r.reduction_vs_easypp()))
    }

    /// Maximum reduction vs EASY over the logs (the paper's 86%, reached
    /// on Curie).
    pub fn max_reduction_vs_easy(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.reduction_vs_easy())
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Names of triples eligible for selection: everything except the
/// clairvoyant references (which use unavailable information).
fn eligible(campaign: &CampaignResult) -> impl Iterator<Item = &str> {
    let clairvoyant = PredictionTechnique::Clairvoyant.name();
    campaign
        .results
        .iter()
        .filter(move |r| r.predictor != clairvoyant)
        .map(|r| r.triple.as_str())
}

/// Selects the triple minimizing the summed AVEbsld over `campaigns`,
/// skipping the campaign at `exclude` (pass `campaigns.len()` to use all).
fn select_triple(campaigns: &[CampaignResult], exclude: usize) -> String {
    assert!(!campaigns.is_empty(), "need at least one campaign");
    let reference = if exclude == 0 && campaigns.len() > 1 {
        1
    } else {
        0
    };
    let mut best: Option<(f64, &str)> = None;
    for name in eligible(&campaigns[reference]) {
        let mut total = 0.0;
        let mut complete = true;
        for (i, c) in campaigns.iter().enumerate() {
            if i == exclude {
                continue;
            }
            match c.get(name) {
                Some(r) => total += r.ave_bsld,
                None => {
                    complete = false;
                    break;
                }
            }
        }
        if !complete {
            continue;
        }
        if best.map(|(b, _)| total < b).unwrap_or(true) {
            best = Some((total, name));
        }
    }
    best.expect("no eligible triple common to all campaigns")
        .1
        .to_string()
}

/// Leave-one-out cross-validation over one campaign per log (§6.3.3).
///
/// The per-held-out-log selections are independent, so the folds run in
/// parallel (order-preserving, deterministic — see `vendor/rayon`).
///
/// # Panics
///
/// Panics if the campaigns do not all contain the EASY and EASY++
/// triples (run them with [`crate::triple::campaign_triples`]).
pub fn cross_validate(campaigns: &[CampaignResult]) -> CvOutcome {
    let easy_name = HeuristicTriple::standard_easy().name();
    let easypp_name = HeuristicTriple::easy_plus_plus().name();
    let rows = (0..campaigns.len())
        .into_par_iter()
        .map(|i| {
            let held_out = &campaigns[i];
            let selected = select_triple(campaigns, i);
            crate::progress::emit(&format!(
                "cv fold {} held out — selected {selected}",
                held_out.log
            ));
            CvRow {
                log: held_out.log.clone(),
                cv_bsld: held_out.bsld_of(&selected),
                selected_triple: selected,
                easy_bsld: held_out.bsld_of(&easy_name),
                easy_pp_bsld: held_out.bsld_of(&easypp_name),
            }
        })
        .collect();
    CvOutcome {
        rows,
        global_winner: select_triple(campaigns, campaigns.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::TripleResult;

    fn result(triple: &str, predictor: &str, bsld: f64) -> TripleResult {
        TripleResult {
            triple: triple.into(),
            predictor: predictor.into(),
            correction: None,
            variant: "easy".into(),
            ave_bsld: bsld,
            max_bsld: bsld * 10.0,
            extreme_fraction: 0.0,
            mean_wait: 100.0,
            utilization: 0.7,
            corrections: 0,
            mae: 0.0,
            mean_eloss: 0.0,
        }
    }

    fn campaign(log: &str, bslds: &[(&str, &str, f64)]) -> CampaignResult {
        CampaignResult {
            log: log.into(),
            machine_size: 64,
            jobs: 100,
            results: bslds.iter().map(|(t, p, b)| result(t, p, *b)).collect(),
        }
    }

    fn three_campaigns() -> Vec<CampaignResult> {
        let easy = HeuristicTriple::standard_easy().name();
        let easypp = HeuristicTriple::easy_plus_plus().name();
        // Triple "A" is best overall; "B" wins only on log2 (the log-local
        // optimum CV must not pick for log2 when held out).
        vec![
            campaign(
                "log1",
                &[
                    (&easy, "requested", 100.0),
                    (&easypp, "ave2", 80.0),
                    ("A", "ml", 50.0),
                    ("B", "ml", 90.0),
                    ("clair", "clairvoyant", 10.0),
                ],
            ),
            campaign(
                "log2",
                &[
                    (&easy, "requested", 60.0),
                    (&easypp, "ave2", 55.0),
                    ("A", "ml", 40.0),
                    ("B", "ml", 20.0),
                    ("clair", "clairvoyant", 5.0),
                ],
            ),
            campaign(
                "log3",
                &[
                    (&easy, "requested", 200.0),
                    (&easypp, "ave2", 150.0),
                    ("A", "ml", 100.0),
                    ("B", "ml", 180.0),
                    ("clair", "clairvoyant", 20.0),
                ],
            ),
        ]
    }

    #[test]
    fn clairvoyant_is_never_selected() {
        let winner = select_triple(&three_campaigns(), 3);
        assert_ne!(winner, "clair");
        assert_eq!(winner, "A"); // 50+40+100 beats B's 90+20+180
    }

    #[test]
    fn leave_one_out_uses_only_other_logs() {
        let campaigns = three_campaigns();
        // Holding out log3: A=50+40=90, B=90+20=110 -> A selected.
        assert_eq!(select_triple(&campaigns, 2), "A");
        // Holding out log1: A=40+100=140, B=20+180=200 -> still A.
        assert_eq!(select_triple(&campaigns, 0), "A");
    }

    /// The `exclude == 0` branch: candidate triples are enumerated from
    /// the *second* campaign when the first is held out (enumerating
    /// from the held-out campaign itself would consider triples that
    /// never ran on the evaluation logs).
    #[test]
    fn holding_out_the_first_campaign_enumerates_from_the_second() {
        let mut campaigns = three_campaigns();
        // A triple that exists ONLY in the held-out first campaign, with
        // an unbeatable score: if `select_triple(.., 0)` enumerated
        // candidates from campaigns[0], it would either pick this (a
        // triple with no results on the evaluation logs) or die on the
        // missing-cell lookup.
        campaigns[0]
            .results
            .push(result("only-in-log1", "ml", 0.001));
        assert_eq!(select_triple(&campaigns, 0), "A");

        // Symmetric guard: a triple present on every log *except* a
        // non-held-out one is skipped as incomplete rather than scored
        // on partial data.
        campaigns[0].results.push(result("partial", "ml", 0.001));
        campaigns[1].results.push(result("partial", "ml", 0.001));
        assert_eq!(
            select_triple(&campaigns, 0),
            "A",
            "a triple missing from log3 must not win on partial sums"
        );

        // With a single campaign, exclude == 0 must still enumerate from
        // that campaign (there is no second one) — the `campaigns.len()
        // > 1` half of the branch.
        let solo = vec![campaign("solo", &[("A", "ml", 5.0), ("B", "ml", 3.0)])];
        assert_eq!(select_triple(&solo, 1), "B");
    }

    #[test]
    fn cross_validation_rows_and_reductions() {
        let outcome = cross_validate(&three_campaigns());
        assert_eq!(outcome.rows.len(), 3);
        assert_eq!(outcome.global_winner, "A");
        let row1 = &outcome.rows[0];
        assert_eq!(row1.log, "log1");
        assert_eq!(row1.selected_triple, "A");
        assert_eq!(row1.cv_bsld, 50.0);
        assert_eq!(row1.easy_bsld, 100.0);
        assert!((row1.reduction_vs_easy() - 50.0).abs() < 1e-9);
        assert!((row1.reduction_vs_easypp() - 37.5).abs() < 1e-9);
        assert!(outcome.mean_reduction_vs_easy() > 0.0);
        assert!(outcome.max_reduction_vs_easy() >= outcome.mean_reduction_vs_easy());
    }
}
