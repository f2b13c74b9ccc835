//! The experiment campaign runner.
//!
//! Runs a set of heuristic triples over a workload (in parallel via
//! rayon — every simulation is independent) and collects per-triple
//! scheduling and prediction metrics. A [`CampaignResult`] is the unit
//! Tables 6–7 and Figure 3 are computed from.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use predictsim_sim::{ClusterSpec, SimResult};

use crate::source::LoadedWorkload;
use crate::triple::HeuristicTriple;

/// Aggregated metrics of one triple on one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TripleResult {
    /// Triple display name (unique within a campaign).
    pub triple: String,
    /// Predictor component name.
    pub predictor: String,
    /// Correction component name, if any.
    pub correction: Option<String>,
    /// Backfilling variant name.
    pub variant: String,
    /// The paper's objective: average bounded slowdown (τ = 10 s).
    pub ave_bsld: f64,
    /// Maximum bounded slowdown (the §6.5 extreme-value diagnostic).
    pub max_bsld: f64,
    /// Fraction of jobs with bsld > [`SimResult::EXTREME_BSLD`] (§6.5's
    /// "extremely high").
    pub extreme_fraction: f64,
    /// Mean waiting time, seconds.
    pub mean_wait: f64,
    /// Machine utilization achieved.
    pub utilization: f64,
    /// Total §5.2 corrections applied.
    pub corrections: u64,
    /// MAE of initial predictions (Table 8).
    pub mae: f64,
    /// Mean E-Loss of initial predictions (Table 8).
    pub mean_eloss: f64,
}

impl TripleResult {
    /// Builds the aggregate from a finished simulation: the triple's
    /// names, the scheduling metrics of [`SimResult`] and the Table 8
    /// prediction metrics of [`predictsim_core::mae_of_outcomes`] and
    /// [`predictsim_core::mean_eloss_of_outcomes`].
    pub fn from_sim(triple: &HeuristicTriple, result: &SimResult) -> Self {
        Self {
            triple: triple.name(),
            predictor: triple.prediction.name(),
            correction: triple.correction.map(|c| c.name().to_string()),
            variant: triple.variant.name().to_string(),
            ave_bsld: result.ave_bsld(),
            max_bsld: result.max_bsld(),
            extreme_fraction: result.extreme_fraction(),
            mean_wait: result.mean_wait(),
            utilization: result.utilization(),
            corrections: result.total_corrections(),
            mae: predictsim_core::mae_of_outcomes(&result.outcomes),
            mean_eloss: predictsim_core::mean_eloss_of_outcomes(&result.outcomes),
        }
    }
}

/// All triple results for one workload log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Workload (log) name.
    pub log: String,
    /// Machine size simulated.
    pub machine_size: u32,
    /// Number of jobs simulated.
    pub jobs: usize,
    /// Per-triple aggregates, in the order the triples were given.
    pub results: Vec<TripleResult>,
}

impl CampaignResult {
    /// Finds a triple's result by its display name.
    pub fn get(&self, triple_name: &str) -> Option<&TripleResult> {
        self.results.iter().find(|r| r.triple == triple_name)
    }

    /// The best (lowest AVEbsld) result, optionally restricted by a
    /// predicate. Uses the IEEE total order, so a NaN produced by a
    /// degenerate campaign sorts to the extreme instead of panicking.
    pub fn best_where<F: Fn(&TripleResult) -> bool>(&self, pred: F) -> Option<&TripleResult> {
        self.results
            .iter()
            .filter(|r| pred(r))
            .min_by(|a, b| a.ave_bsld.total_cmp(&b.ave_bsld))
    }

    /// The worst (highest AVEbsld) result under a predicate (IEEE total
    /// order, like [`CampaignResult::best_where`]).
    pub fn worst_where<F: Fn(&TripleResult) -> bool>(&self, pred: F) -> Option<&TripleResult> {
        self.results
            .iter()
            .filter(|r| pred(r))
            .max_by(|a, b| a.ave_bsld.total_cmp(&b.ave_bsld))
    }

    /// AVEbsld of a named triple; panics if absent (campaign bug).
    pub fn bsld_of(&self, triple_name: &str) -> f64 {
        self.get(triple_name)
            .unwrap_or_else(|| panic!("triple {triple_name} missing from campaign"))
            .ave_bsld
    }
}

/// Runs `triples` on a loaded workload placed on an explicit
/// [`ClusterSpec`] instead of the workload's own single machine — the
/// heterogeneous campaign entry point — in parallel, through the
/// process-wide [`SimCache`](crate::cache::SimCache) (cells already
/// simulated by *any* experiment this process — or found in the
/// persistent `--cache` layer — are recalled instead of re-simulated).
/// The result's `machine_size` is the cluster's total processor count.
pub fn run_campaign_cluster(
    workload: &LoadedWorkload,
    cluster: ClusterSpec,
    triples: &[HeuristicTriple],
) -> CampaignResult {
    let (log, arena) = (&workload.name, &workload.jobs);
    let progress = crate::progress::CellProgress::new(format!("campaign {log}"), triples.len());
    let results: Vec<TripleResult> = triples
        .par_iter()
        .map(|triple| progress.run(&triple.name(), arena, cluster, triple).result)
        .collect();
    CampaignResult {
        log: log.clone(),
        machine_size: cluster.total_procs(),
        jobs: arena.len(),
        results,
    }
}

/// Runs `triples` on an already loaded workload (synthetic or SWF — see
/// [`crate::WorkloadSource`]) on the workload's own single machine, in
/// parallel.
///
/// # Panics
///
/// Panics if any simulation rejects the workload — a loaded workload is
/// validated, so a failure here is a bug, not an input condition.
pub fn run_campaign_loaded(
    workload: &LoadedWorkload,
    triples: &[HeuristicTriple],
) -> CampaignResult {
    run_campaign_cluster(
        workload,
        ClusterSpec::single(workload.machine_size),
        triples,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::{reference_triples, HeuristicTriple, Variant};
    use predictsim_workload::{generate, WorkloadSpec};

    fn tiny_workload() -> LoadedWorkload {
        let mut spec = WorkloadSpec::toy();
        spec.jobs = 300;
        spec.duration = 3 * 86_400;
        generate(&spec, 11).into()
    }

    #[test]
    fn campaign_runs_named_triples() {
        let w = tiny_workload();
        let triples = vec![
            HeuristicTriple::standard_easy(),
            HeuristicTriple::easy_plus_plus(),
            HeuristicTriple::paper_winner(),
            HeuristicTriple::clairvoyant(Variant::EasySjbf),
        ];
        let campaign = run_campaign_loaded(&w, &triples);
        assert_eq!(campaign.results.len(), 4);
        assert_eq!(campaign.jobs, 300);
        for r in &campaign.results {
            assert!(r.ave_bsld >= 1.0, "{}: bsld {}", r.triple, r.ave_bsld);
            assert!(r.utilization > 0.0);
        }
        assert!(campaign.get("requested+easy").is_some());
        assert!(campaign.get("nonexistent").is_none());
        let best = campaign.best_where(|_| true).unwrap();
        let worst = campaign.worst_where(|_| true).unwrap();
        assert!(best.ave_bsld <= worst.ave_bsld);
    }

    #[test]
    fn campaign_is_deterministic_despite_parallelism() {
        let w = tiny_workload();
        let triples = vec![
            HeuristicTriple::standard_easy(),
            HeuristicTriple::paper_winner(),
        ];
        let a = run_campaign_loaded(&w, &triples);
        let b = run_campaign_loaded(&w, &triples);
        assert_eq!(a, b);
    }

    #[test]
    fn reference_triples_have_no_corrections() {
        let w = tiny_workload();
        let campaign = run_campaign_loaded(&w, &reference_triples());
        for r in &campaign.results {
            assert_eq!(r.corrections, 0, "clairvoyant must never correct");
            assert_eq!(r.mae, 0.0, "clairvoyant MAE is zero by definition");
        }
    }

    #[test]
    fn json_round_trip() {
        let w = tiny_workload();
        let campaign = run_campaign_loaded(&w, &[HeuristicTriple::standard_easy()]);
        let json = serde_json::to_string(&campaign).unwrap();
        let back: CampaignResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, campaign);
    }
}
