//! The experiment campaign runner.
//!
//! Runs a set of heuristic triples over a workload (in parallel via
//! rayon — every simulation is independent) and collects per-triple
//! scheduling and prediction metrics. A [`CampaignResult`] is the unit
//! Tables 6–7 and Figure 3 are computed from.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use predictsim_metrics::DEFAULT_TAU;
use predictsim_sim::{ClusterSpec, SimResult};

use crate::cache::SimCache;
use crate::scenario::ScenarioError;
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
    /// Fraction of jobs with bsld > 1000 (§6.5's "extremely high").
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
    /// Builds the aggregate from a finished simulation.
    ///
    /// Every metric is accumulated in one pass over the outcomes, in job
    /// order — the same element expressions and accumulation order as
    /// the per-metric functions (`SimResult::ave_bsld`,
    /// `predictsim_metrics::bsld::max_bsld`/`fraction_bsld_above`,
    /// `SimResult::mean_wait`, `SimResult::utilization`,
    /// `predictsim_core::mae_of_outcomes`/`mean_eloss_of_outcomes`), so
    /// the values are bit-identical to calling them individually without
    /// re-walking a campaign cell's outcome vector eight times.
    pub fn from_sim(triple: &HeuristicTriple, result: &SimResult) -> Self {
        let n = result.outcomes.len();
        let mut bsld_sum = 0.0f64;
        let mut bsld_max = 0.0f64;
        let mut extreme = 0usize;
        let mut wait_sum = 0.0f64;
        let mut busy = 0.0f64;
        let mut first_submit = i64::MAX;
        let mut last_end = i64::MIN;
        let mut corrections = 0u64;
        let mut mae_sum = 0.0f64;
        let mut eloss_sum = 0.0f64;
        for o in &result.outcomes {
            let bsld = o.bsld_record().bsld(DEFAULT_TAU);
            bsld_sum += bsld;
            bsld_max = f64::max(bsld_max, bsld);
            if bsld > 1000.0 {
                extreme += 1;
            }
            wait_sum += o.wait() as f64;
            busy += o.run as f64 * o.procs as f64;
            first_submit = first_submit.min(o.submit.0);
            last_end = last_end.max(o.end.0);
            corrections += o.corrections as u64;
            mae_sum += (o.initial_prediction as f64 - o.run as f64).abs();
            eloss_sum +=
                predictsim_core::eloss(o.initial_prediction as f64, o.run as f64, o.procs as f64);
        }
        let mean = |sum: f64| if n == 0 { 0.0 } else { sum / n as f64 };
        let utilization = if n == 0 {
            0.0
        } else {
            let span = (last_end - first_submit).max(1) as f64;
            busy / (span * result.machine_size as f64)
        };
        Self {
            triple: triple.name(),
            predictor: triple.prediction.name(),
            correction: triple.correction.map(|c| c.name().to_string()),
            variant: triple.variant.name().to_string(),
            ave_bsld: mean(bsld_sum),
            max_bsld: bsld_max,
            extreme_fraction: mean(extreme as f64),
            mean_wait: mean(wait_sum),
            utilization,
            corrections,
            mae: mean(mae_sum),
            mean_eloss: mean(eloss_sum),
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
/// process-wide [`SimCache`] (cells already simulated by *any*
/// experiment this process — or found in the persistent `--cache`
/// layer — are recalled instead of re-simulated). The result's
/// `machine_size` is the cluster's total processor count.
pub fn run_campaign_cluster(
    workload: &LoadedWorkload,
    cluster: ClusterSpec,
    triples: &[HeuristicTriple],
) -> CampaignResult {
    let cache = SimCache::global();
    let (log, arena) = (&workload.name, &workload.jobs);
    let progress = crate::progress::CellProgress::new(format!("campaign {log}"), triples.len());
    let results: Vec<TripleResult> = triples
        .par_iter()
        .map(|triple| {
            let started = crate::progress::start();
            // With `--progress` on, route through the observed cache
            // path so hour-long cells journal an intra-cell heartbeat
            // every N events; the default path stays observer-free.
            // Either way the simulation — and therefore the cached
            // cell — is byte-identical.
            let outcome = if crate::progress::enabled() {
                let mut heartbeat = crate::progress::Heartbeat::journal(
                    format!("campaign {log} {}", triple.name()),
                    cluster.total_procs(),
                    arena.len(),
                );
                cache.run_cell_observed_traced(arena, cluster, triple, &mut heartbeat)
            } else {
                cache.run_cell_traced(arena, cluster, triple)
            };
            let (cell, source) =
                outcome.unwrap_or_else(|e| panic!("triple {} failed: {e}", triple.name()));
            progress.cell_done(&triple.name(), source, started);
            cell.result
        })
        .collect();
    CampaignResult {
        log: log.clone(),
        machine_size: cluster.total_procs(),
        jobs: arena.len(),
        results,
    }
}

/// Runs `triples` on an already loaded workload (synthetic or SWF — see
/// [`crate::source`]) on the workload's own single machine, in parallel.
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

/// A campaign run in the opt-in `--prune` sweep mode: dominated triples
/// were early-aborted, so their [`TripleResult`]s carry a *lower bound*
/// on AVEbsld (and prefix values for the other metrics) instead of the
/// exact numbers. The winner is preserved exactly — see
/// [`run_campaign_pruned`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrunedCampaign {
    /// The campaign, with pruned cells holding lower-bound metrics.
    pub campaign: CampaignResult,
    /// Names of the triples that were early-aborted, in campaign order.
    pub pruned: Vec<String>,
    /// The AVEbsld threshold pruning compared against (the best
    /// *eligible* exempt baseline).
    pub threshold: f64,
}

/// Observer driving the §6.3.1-style sweep abort: maintains the same
/// aggregates [`TripleResult::from_sim`] computes, plus the running
/// *lower bound* on the final AVEbsld — finished jobs contribute their
/// exact bounded slowdown, unfinished ones at least 1.0 each — and asks
/// the engine to stop as soon as that bound exceeds the threshold.
struct PruneObserver {
    n_total: usize,
    threshold: f64,
    finished: usize,
    bsld_sum: f64,
    bsld_max: f64,
    extreme: usize,
    wait_sum: f64,
    busy: f64,
    first_submit: i64,
    last_end: i64,
    corrections: u64,
    mae_sum: f64,
    eloss_sum: f64,
}

impl PruneObserver {
    fn new(n_total: usize, threshold: f64) -> Self {
        Self {
            n_total,
            threshold,
            finished: 0,
            bsld_sum: 0.0,
            bsld_max: 0.0,
            extreme: 0,
            wait_sum: 0.0,
            busy: 0.0,
            first_submit: i64::MAX,
            last_end: i64::MIN,
            corrections: 0,
            mae_sum: 0.0,
            eloss_sum: 0.0,
        }
    }

    /// The certain lower bound on the final AVEbsld given the finished
    /// prefix (every job's bounded slowdown is ≥ 1).
    fn lower_bound(&self) -> f64 {
        (self.bsld_sum + (self.n_total - self.finished) as f64) / self.n_total as f64
    }

    /// The lower-bound [`TripleResult`] recorded for an aborted triple.
    fn partial_result(&self, triple: &HeuristicTriple, machine_size: u32) -> TripleResult {
        let mean = |sum: f64| {
            if self.finished == 0 {
                0.0
            } else {
                sum / self.finished as f64
            }
        };
        let utilization = if self.finished == 0 {
            0.0
        } else {
            let span = (self.last_end - self.first_submit).max(1) as f64;
            self.busy / (span * machine_size as f64)
        };
        TripleResult {
            triple: triple.name(),
            predictor: triple.prediction.name(),
            correction: triple.correction.map(|c| c.name().to_string()),
            variant: triple.variant.name().to_string(),
            // The certain lower bound, NOT the exact value: by
            // construction it exceeds the threshold (hence every exempt
            // baseline), so a pruned cell can never displace the winner.
            ave_bsld: self.lower_bound(),
            max_bsld: self.bsld_max,
            extreme_fraction: self.extreme as f64 / self.n_total as f64,
            mean_wait: mean(self.wait_sum),
            utilization,
            corrections: self.corrections,
            mae: mean(self.mae_sum),
            mean_eloss: mean(self.eloss_sum),
        }
    }
}

impl predictsim_sim::SimObserver for PruneObserver {
    fn on_event(&mut self, event: &predictsim_sim::SimEvent<'_>) {
        #[allow(clippy::single_match)]
        match event {
            predictsim_sim::SimEvent::Finished { outcome: o } => {
                let bsld = o.bsld_record().bsld(DEFAULT_TAU);
                self.finished += 1;
                self.bsld_sum += bsld;
                self.bsld_max = f64::max(self.bsld_max, bsld);
                if bsld > 1000.0 {
                    self.extreme += 1;
                }
                self.wait_sum += o.wait() as f64;
                self.busy += o.run as f64 * o.procs as f64;
                self.first_submit = self.first_submit.min(o.submit.0);
                self.last_end = self.last_end.max(o.end.0);
                self.corrections += o.corrections as u64;
                self.mae_sum += (o.initial_prediction as f64 - o.run as f64).abs();
                self.eloss_sum += predictsim_core::eloss(
                    o.initial_prediction as f64,
                    o.run as f64,
                    o.procs as f64,
                );
            }
            _ => {}
        }
    }

    fn keep_running(&self) -> bool {
        self.lower_bound() <= self.threshold
    }
}

/// True for the triples `--prune` never aborts: the clairvoyant
/// references (tables need them exact) and the golden-path baselines
/// (standard EASY, EASY++, the paper's winner) whose exact values every
/// table, figure and pin reads.
pub fn prune_exempt(triple: &HeuristicTriple) -> bool {
    matches!(
        triple.prediction,
        crate::triple::PredictionTechnique::Clairvoyant
    ) || *triple == HeuristicTriple::standard_easy()
        || *triple == HeuristicTriple::easy_plus_plus()
        || *triple == HeuristicTriple::paper_winner()
}

/// Runs `triples` on `workload` with dominated-triple pruning — the
/// opt-in `--prune` sweep mode.
///
/// Two deterministic phases. Phase 1 simulates the exempt triples
/// ([`prune_exempt`]) exactly, through the cache, and fixes the pruning
/// threshold as the best AVEbsld among the *eligible* (non-clairvoyant)
/// exempt baselines — a fixed threshold, so pruning decisions are
/// independent of worker count and scheduling order, unlike racing a
/// shared "best so far". Phase 2 simulates the rest, aborting any
/// triple whose running prefix-AVEbsld lower bound exceeds the
/// threshold; aborted cells record that lower bound.
///
/// This log's winner is preserved exactly: a pruned triple's true
/// AVEbsld is ≥ its recorded lower bound > threshold ≥ the winner's
/// value. Nothing holds across logs: `repro` drops a triple pruned on
/// any log from every log — including logs it wins and folds where the
/// exhaustive sweep would have selected it — so its tables and
/// cross-validated selection differ from the exhaustive run's (measured
/// headline at scale 0.02: 38 % with `--prune`, 31 % exhaustive).
/// Aborted cells are never written to the [`SimCache`] (their metrics
/// are bounds, not values) but do count in
/// [`crate::cache::CacheStats::simulated`], like every other aborted
/// run.
pub fn run_campaign_pruned(
    workload: &LoadedWorkload,
    triples: &[HeuristicTriple],
) -> PrunedCampaign {
    let cache = SimCache::global();
    let machine_size = workload.machine_size;
    let cluster = ClusterSpec::single(machine_size);
    let arena = &workload.jobs;

    // Phase 1: exact exempt cells fix the threshold.
    let exempt: Vec<&HeuristicTriple> = triples.iter().filter(|t| prune_exempt(t)).collect();
    let progress = crate::progress::CellProgress::new(
        format!("prune {} baselines", workload.name),
        exempt.len(),
    );
    let exempt_results: Vec<TripleResult> = exempt
        .par_iter()
        .map(|triple| {
            let started = crate::progress::start();
            let (cell, source) = cache
                .run_cell_traced(arena, cluster, triple)
                .unwrap_or_else(|e| panic!("triple {} failed: {e}", triple.name()));
            progress.cell_done(&triple.name(), source, started);
            cell.result
        })
        .collect();
    let threshold = exempt_results
        .iter()
        .filter(|r| r.predictor != "clairvoyant")
        .map(|r| r.ave_bsld)
        .fold(f64::INFINITY, f64::min);
    let exempt_by_name: std::collections::HashMap<&str, &TripleResult> = exempt_results
        .iter()
        .map(|r| (r.triple.as_str(), r))
        .collect();

    // Phase 2: everything else, with the early-abort observer.
    let progress = crate::progress::CellProgress::new(
        format!("prune {} sweep", workload.name),
        triples.len() - exempt.len(),
    );
    let results: Vec<(TripleResult, bool)> = triples
        .par_iter()
        .map(|triple| {
            if let Some(result) = exempt_by_name.get(triple.name().as_str()) {
                return ((*result).clone(), false);
            }
            // The cache's own cell path with the early-abort observer on
            // the miss: a memoized or on-disk cell comes back exact
            // without the observer seeing an event; a completed run is
            // memoized and persisted like any miss; an abort leaves the
            // cache untouched and the bound in the observer.
            let started = crate::progress::start();
            let mut observer = PruneObserver::new(arena.len(), threshold);
            match cache.run_cell_observed_traced(arena, cluster, triple, &mut observer) {
                Ok((cell, source)) => {
                    progress.cell_done(&triple.name(), source, started);
                    (cell.result, false)
                }
                Err(ScenarioError::Sim(predictsim_sim::SimError::Aborted { .. })) => {
                    progress.cell_pruned(&triple.name(), started);
                    (observer.partial_result(triple, machine_size), true)
                }
                Err(e) => panic!("triple {} failed: {e}", triple.name()),
            }
        })
        .collect();

    let pruned = results
        .iter()
        .filter(|(_, aborted)| *aborted)
        .map(|(r, _)| r.triple.clone())
        .collect();
    PrunedCampaign {
        campaign: CampaignResult {
            log: workload.name.clone(),
            machine_size,
            jobs: arena.len(),
            results: results.into_iter().map(|(r, _)| r).collect(),
        },
        pruned,
        threshold,
    }
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
