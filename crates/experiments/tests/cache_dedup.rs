//! Cross-experiment deduplication through the process-wide
//! [`SimCache`]: cells first simulated by the campaign must be *recalled*
//! — not re-simulated — when Table 1, Table 8 or Figures 4/5 ask for
//! their aggregates later.
//!
//! This file deliberately contains a single test and no other
//! simulations: integration-test files are separate processes, so the
//! global cache counters read here can only have been advanced by the
//! calls below.

use predictsim_experiments::{
    campaign_triples, fig4_fig5, reference_triples, run_campaign_loaded, table1, table8,
    LoadedWorkload, SimCache,
};
use predictsim_workload::{generate, WorkloadSpec};

#[test]
fn later_experiments_hit_the_campaigns_cells() {
    let mut spec = WorkloadSpec::toy();
    spec.jobs = 150;
    spec.duration = 2 * 86_400;
    let workload: LoadedWorkload = generate(&spec, 31).into();
    let cache = SimCache::global();

    // The full §6.2 grid plus the clairvoyant references — everything a
    // repro campaign simulates.
    let mut triples = campaign_triples();
    triples.extend(reference_triples());
    let campaign = run_campaign_loaded(&workload, &triples);
    assert_eq!(campaign.results.len(), 130);
    let after_campaign = cache.stats();
    assert_eq!(after_campaign.simulated, 130, "cold campaign simulates all");

    // Table 1 reads two of the campaign's cells (standard EASY and the
    // clairvoyant EASY reference): zero new simulations.
    let rows = table1(std::slice::from_ref(&workload));
    assert_eq!(rows.len(), 1);
    let after_t1 = cache.stats();
    assert_eq!(
        after_t1.since(after_campaign).simulated,
        0,
        "table 1 must be served from the campaign's cells"
    );
    assert_eq!(after_t1.since(after_campaign).memory_hits, 2);

    // Table 8's two cells (AVE2 and the paper winner, both under
    // Incremental + EASY-SJBF) are campaign cells too.
    let t8 = table8(&workload);
    assert_eq!(t8.len(), 2);
    let after_t8 = cache.stats();
    assert_eq!(
        after_t8.since(after_t1).simulated,
        0,
        "table 8 must be served from the campaign's cells"
    );

    // Figures 4/5 run four techniques; three are campaign cells
    // (E-Loss, squared-loss and AVE2 under Incremental + EASY-SJBF) and
    // exactly one is not (Requested Time + Incremental — the campaign
    // pairs Requested Time with no correction). The figures are the one
    // reader of per-job predictions, which memory does not keep: with
    // no `--cache` directory to read them back from, the three campaign
    // cells are memory hits *and* re-derive their vector by simulating.
    let fig = fig4_fig5(&workload, 25);
    assert_eq!(fig.error_series.len(), 4);
    let after_fig = cache.stats();
    assert_eq!(
        after_fig.since(after_t8).simulated,
        4,
        "one non-campaign cell plus three prediction vectors"
    );
    assert_eq!(after_fig.since(after_t8).memory_hits, 3);

    // Re-running the whole campaign is a pure cache read.
    let again = run_campaign_loaded(&workload, &triples);
    assert_eq!(again, campaign);
    let after_rerun = cache.stats();
    assert_eq!(after_rerun.since(after_fig).simulated, 0);
    assert_eq!(after_rerun.since(after_fig).memory_hits, 130);
}
