//! `campaign_cold`: quick `repro all` — the paper's §6 campaign — cold.
//!
//! All six Table 4 presets at scale 0.05 × (128 campaign triples + 2
//! clairvoyant references) = 780 cells through `run_campaign_loaded`,
//! global `SimCache` cleared, no persist dir, pool width 2. 120 of the
//! 128 triples learn, so `core` and the pool fan-out do most of the
//! work and queues stay shallow.

use std::time::Instant;

use predictsim_experiments::{
    run_campaign_loaded, CampaignResult, HeuristicTriple, LoadedWorkload, Scenario, SimCache,
    TripleResult,
};
use predictsim_sim::hash::fnv1a64;
use predictsim_sim::{ClusterSpec, SimConfig};
use rayon::pool::with_num_threads;
use rayon::prelude::*;

use super::{
    all_triples, cache_count_rows, overhead_share, warm_up, Checks, Ctx, Outcome, Pins, SetupLedger,
};
use crate::decor::{layer_rows, push_cell_spans, run_traced_cell, TracedCell};
use crate::layers::probe_rows;
use crate::span::Spans;
use crate::stats;

/// Campaign pool width: `nproc` of the reference host.
pub const WIDTH: usize = 2;
const LOGS: [&str; 6] = [
    "KTH",
    "CTC",
    "SDSC-SP2",
    "SDSC-BLUE",
    "Curie",
    "Metacentrum",
];
/// One 780-cell campaign on the reference host, seconds.
const UNIT_REF_S: f64 = 15.5;

struct Setup {
    workloads: Vec<LoadedWorkload>,
    ledger: SetupLedger,
}

fn setup(ctx: &Ctx) -> Setup {
    warm_up(ctx, WIDTH);
    let scale = if ctx.smoke { 0.002 } else { 0.05 };
    let mut ledger = SetupLedger::default();
    let workloads = LOGS
        .iter()
        .map(|log| ledger.preset(log, scale, ctx.seed))
        .collect();
    Setup { workloads, ledger }
}

/// The traced twin of one campaign: a width-2 `par_iter` over decorated
/// cells (the harness cannot see inside `run_campaign_loaded`).
fn traced_campaign(
    epoch: Instant,
    workload: &LoadedWorkload,
    triples: &[HeuristicTriple],
) -> (Vec<TracedCell>, f64) {
    let cluster = ClusterSpec::single(workload.machine_size);
    let started = Instant::now();
    let cells = triples
        .par_iter()
        .map(|triple| {
            run_traced_cell(epoch, triple, &workload.jobs, cluster)
                .unwrap_or_else(|e| panic!("traced cell {} failed: {e}", triple.name()))
        })
        .collect();
    (cells, started.elapsed().as_secs_f64())
}

/// Seconds one campaign spent with a worker idle at its tail: from the
/// moment the first worker ran out of cells to the end of the last cell.
fn straggler_s(cells: &[TracedCell]) -> f64 {
    let mut last_end_by_thread = std::collections::BTreeMap::new();
    for cell in cells {
        let end = last_end_by_thread.entry(cell.thread).or_insert(0u64);
        *end = (*end).max(cell.end_ns);
    }
    let latest = last_end_by_thread.values().max().copied().unwrap_or(0);
    let earliest = last_end_by_thread.values().min().copied().unwrap_or(0);
    (latest - earliest) as f64 / 1e9
}

pub fn run(ctx: &Ctx) -> Outcome {
    let setup = setup(ctx);
    let triples = all_triples();
    let reps = ctx.units(UNIT_REF_S, 1);
    let cache = SimCache::global();
    let mut checks = Checks::default();
    let mut pins = Pins::default();

    let stats_before = cache.stats();
    let (campaigns, measured) = ctx.measure(|| {
        with_num_threads(WIDTH, || {
            let mut campaigns: Vec<CampaignResult> = Vec::new();
            for _ in 0..reps {
                cache.clear_memory();
                for workload in &setup.workloads {
                    campaigns.push(run_campaign_loaded(workload, &triples));
                }
            }
            campaigns
        })
    });
    let delta = cache.stats().since(stats_before);
    let cells = reps * (setup.workloads.len() * triples.len()) as u64;
    let jobs = reps
        * setup
            .workloads
            .iter()
            .map(|w| (w.jobs.len() * triples.len()) as u64)
            .sum::<u64>();

    // Output checks.
    checks.check(delta.simulated == cells && delta.hits() == 0, || {
        format!("expected {cells} cold simulations, cache saw {delta:?}")
    });
    for (i, campaign) in campaigns.iter().enumerate() {
        let workload = &setup.workloads[i % setup.workloads.len()];
        let shape_ok = campaign.results.len() == triples.len()
            && campaign.jobs == workload.jobs.len()
            && campaign.machine_size == workload.machine_size;
        checks.check(shape_ok, || {
            format!("campaign {}: wrong shape", campaign.log)
        });
        for result in &campaign.results {
            checks.sane_result(&campaign.log, result);
        }
        if i >= setup.workloads.len() {
            checks.check(*campaign == campaigns[i % setup.workloads.len()], || {
                format!("campaign {}: repetition differs", campaign.log)
            });
            continue;
        }
        let json = serde_json::to_string_pretty(campaign).expect("campaign serializes");
        pins.observe(
            format!("campaign_cold/{}", campaign.log),
            format!("fnv:{:016x}", fnv1a64(json.as_bytes())),
        );
        // One cell per log re-simulated outside the cache, audited, and
        // compared with the campaign's answer (the traced run does this
        // for every cell).
        let pick = (i * 37 + 5) % triples.len();
        let sim = Scenario::from_triple(&triples[pick])
            .run_on(&workload.jobs, SimConfig::single(workload.machine_size))
            .expect("spot-check cell simulates");
        let ok = predictsim_sim::audit(&sim).is_ok()
            && sim.outcomes.len() == workload.jobs.len()
            && TripleResult::from_sim(&triples[pick], &sim) == campaign.results[pick];
        checks.check(ok, || {
            format!(
                "{} {}: spot re-simulation disagrees",
                campaign.log,
                triples[pick].name()
            )
        });
    }
    pins.verify(ctx.seed, &mut checks);

    let mut ledger = Vec::new();
    let mut spans = Spans::default();
    let mut notes = vec![("campaign_reps".to_string(), reps as f64)];
    if ctx.trace {
        let mut traced: Vec<TracedCell> = Vec::new();
        let mut fanout_wall_s = 0.0;
        let mut straggler = 0.0;
        with_num_threads(WIDTH, || {
            for (workload, campaign) in setup.workloads.iter().zip(&campaigns) {
                let (cells, wall_s) = traced_campaign(ctx.epoch, workload, &triples);
                fanout_wall_s += wall_s;
                straggler += straggler_s(&cells);
                for (cell, expected) in cells.iter().zip(&campaign.results) {
                    checks.check(cell.verified && cell.result == *expected, || {
                        format!(
                            "{} {}: traced cell fails audit or differs",
                            campaign.log, expected.triple
                        )
                    });
                }
                traced.extend(cells);
            }
        });
        for cell in &traced {
            push_cell_spans(&mut spans, cell);
        }
        let cell_ms: Vec<f64> = traced.iter().map(|c| c.wall_ns() as f64 / 1e6).collect();
        let busy_s = cell_ms.iter().sum::<f64>() / 1e3;
        // Auditing a cell keeps its worker busy too, but is the
        // harness's own work: it counts towards the pool's busy share
        // and is taken out of the wall the overhead is computed from.
        let verify_s = traced.iter().map(|c| c.verify_ns).sum::<u64>() as f64 / 1e9;
        ledger.extend(setup.ledger.rows());
        ledger.extend(layer_rows(&traced));
        ledger.extend(cache_count_rows(&delta));
        ledger.extend(probe_rows(ctx, &mut checks));
        ledger.extend([
            ("campaign.fanout_wall_s", fanout_wall_s),
            ("campaign.cell_busy_s", busy_s),
            ("campaign.cell_ms_p50", stats::median(&cell_ms)),
            (
                "campaign.cell_ms_max",
                cell_ms.iter().copied().fold(0.0, f64::max),
            ),
            ("pool.width", WIDTH as f64),
            (
                "pool.busy_share",
                (busy_s + verify_s) / (fanout_wall_s * WIDTH as f64),
            ),
            ("pool.straggler_s", straggler),
            (
                "trace.overhead_share",
                overhead_share(
                    fanout_wall_s - verify_s / WIDTH as f64,
                    measured.wall_s / reps as f64,
                ),
            ),
        ]);
        notes.push(("traced_cells".to_string(), traced.len() as f64));
    }

    Outcome {
        measured,
        jobs,
        // Cells run inside the pool: no single cell's latency is visible.
        hit_p50_ms: None,
        miss_p50_ms: None,
        attempted: cells,
        failed_ops: 0,
        checks,
        pins,
        ledger,
        spans,
        notes,
    }
}
