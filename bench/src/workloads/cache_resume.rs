//! `cache_resume`: the resume path of `repro all --cache` / `--full`.
//!
//! Set-up cold-fills KTH, CTC and SDSC-SP2 at scale 0.05 × 130 triples =
//! 390 cells into a fresh persist dir (simulate + serialize + fsync +
//! rename + index flush), then re-attaches the directory. Measured:
//! passes of `clear_memory()` followed by all 390 cells answered from
//! disk — file read, vendored `serde_json` parse, key check, LRU touch,
//! zero simulation. The guard for the planned `cache.rs` split.

use std::time::Instant;

use predictsim_experiments::{CachedCell, CellSource, HeuristicTriple, LoadedWorkload, SimCache};
use predictsim_sim::ClusterSpec;

use super::{
    all_triples, cache_count_rows, overhead_share, warm_up, Checks, Ctx, Outcome, Pins,
    SetupLedger, TempPath,
};
use crate::layers::probe_rows;
use crate::span::{Fold, Spans};
use crate::stats;

const LOGS: [&str; 3] = ["KTH", "CTC", "SDSC-SP2"];
/// Passes per `--seconds` second. One 390-cell pass takes 52–63 ms on the
/// reference host, so the default 270 passes last 14 s at its fastest.
const PASSES_PER_SECOND: f64 = 18.0;

struct Setup {
    workloads: Vec<LoadedWorkload>,
    triples: Vec<HeuristicTriple>,
    ledger: SetupLedger,
    dir: TempPath,
    cache: SimCache,
    /// The cold-fill answers, in request order.
    cold: Vec<CachedCell>,
    fill_failed: u64,
    flush_s: f64,
    attach_s: f64,
}

fn setup(ctx: &Ctx) -> Setup {
    warm_up(ctx, 1);
    // Every cold cell costs an fsync whatever its size, so the smoke run
    // shrinks the cell count as well as the scale.
    let (logs, scale) = if ctx.smoke {
        (&LOGS[..1], 0.01)
    } else {
        (&LOGS[..], 0.05)
    };
    let mut ledger = SetupLedger::default();
    let workloads: Vec<LoadedWorkload> = logs
        .iter()
        .map(|log| ledger.preset(log, scale, ctx.seed))
        .collect();
    let dir = ctx.scratch("resume-cache");
    let _ = std::fs::remove_dir_all(&dir.0);
    let filler = SimCache::new();
    filler.set_persist_dir(Some(dir.0.clone()));
    let triples = all_triples();
    let mut cold = Vec::new();
    let mut fill_failed = 0;
    for workload in &workloads {
        let cluster = ClusterSpec::single(workload.machine_size);
        for triple in &triples {
            match filler.run_cell_traced(&workload.jobs, cluster, triple) {
                Ok((cell, CellSource::Simulated)) => cold.push(cell),
                _ => fill_failed += 1,
            }
        }
    }
    let started = Instant::now();
    filler.flush_persistent();
    let flush_s = started.elapsed().as_secs_f64();
    // The resuming process: a new cache attached to the filled directory.
    let cache = SimCache::new();
    let started = Instant::now();
    cache.set_persist_dir(Some(dir.0.clone()));
    let attach_s = started.elapsed().as_secs_f64();
    Setup {
        workloads,
        triples,
        ledger,
        dir,
        cache,
        cold,
        fill_failed,
        flush_s,
        attach_s,
    }
}

/// What one set of passes saw.
#[derive(Default)]
struct Passes {
    hit_us: Vec<f32>,
    clear_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    mismatched: u64,
    /// Per pass: (start, end, clear fold, disk-hit fold) on the run's
    /// clock — recorded only when tracing.
    spans: Vec<(u64, u64, Fold, Fold)>,
}

fn run_passes(ctx: &Ctx, setup: &Setup, passes: u64, traced: bool) -> Passes {
    let clusters: Vec<ClusterSpec> = setup
        .workloads
        .iter()
        .map(|w| ClusterSpec::single(w.machine_size))
        .collect();
    let mut out = Passes::default();
    out.hit_us.reserve((passes as usize) * setup.cold.len());
    for _ in 0..passes {
        let pass_start = Instant::now();
        let mut clear = Fold::default();
        let mut hits = Fold::default();
        setup.cache.clear_memory();
        let cleared = Instant::now();
        out.clear_us
            .push(cleared.duration_since(pass_start).as_secs_f64() * 1e6);
        if traced {
            clear.record(ctx.epoch, pass_start, cleared);
        }
        let mut expected = setup.cold.iter();
        for (workload, &cluster) in setup.workloads.iter().zip(&clusters) {
            for triple in &setup.triples {
                let t0 = Instant::now();
                let answer = setup.cache.run_cell_traced(&workload.jobs, cluster, triple);
                let t1 = Instant::now();
                out.hit_us.push(t1.duration_since(t0).as_secs_f32() * 1e6);
                if traced {
                    hits.record(ctx.epoch, t0, t1);
                }
                out.attempted += 1;
                match (answer, expected.next()) {
                    (Ok((cell, CellSource::Disk)), Some(cold)) => {
                        let same = cell.result == cold.result
                            && cell.predictions.as_deref() == cold.predictions.as_deref();
                        out.mismatched += u64::from(!same);
                    }
                    (Ok(_), _) => out.mismatched += 1,
                    (Err(_), _) => out.failed += 1,
                }
            }
        }
        if traced {
            let ns = |t: Instant| t.duration_since(ctx.epoch).as_nanos() as u64;
            out.spans
                .push((ns(pass_start), ns(Instant::now()), clear, hits));
        }
    }
    out
}

pub fn run(ctx: &Ctx) -> Outcome {
    let setup = setup(ctx);
    let passes = ctx.units(1.0 / PASSES_PER_SECOND, 3);
    let mut checks = Checks::default();
    let cells_per_pass = (setup.workloads.len() * setup.triples.len()) as u64;
    checks.check(
        setup.fill_failed == 0 && setup.cold.len() as u64 == cells_per_pass,
        || {
            format!(
                "cold fill: {} of {cells_per_pass} cells failed",
                setup.fill_failed
            )
        },
    );

    let stats_before = setup.cache.stats();
    let (seen, measured) = ctx.measure(|| run_passes(ctx, &setup, passes, false));
    let delta = setup.cache.stats().since(stats_before);
    let cells = passes * cells_per_pass;
    checks.check(
        delta.simulated == 0 && delta.disk_hits == cells && delta.disk_rejects == 0,
        || format!("expected {cells} disk hits and no simulation, cache saw {delta:?}"),
    );
    checks.check(seen.mismatched == 0, || {
        format!("{} answers differ from the cold fill", seen.mismatched)
    });
    let jobs = passes
        * setup
            .workloads
            .iter()
            .map(|w| (w.jobs.len() * setup.triples.len()) as u64)
            .sum::<u64>();

    let mut ledger = Vec::new();
    let mut spans = Spans::default();
    if ctx.trace {
        let started = Instant::now();
        let traced = run_passes(ctx, &setup, passes, true);
        let traced_wall_s = started.elapsed().as_secs_f64();
        checks.check(traced.mismatched == 0 && traced.failed == 0, || {
            "traced passes: an answer differs from the cold fill".into()
        });
        for (start_ns, end_ns, clear, hits) in &traced.spans {
            let id = spans.new_cell();
            let root = spans.push(id, None, "cache.pass", *start_ns, *end_ns);
            spans.push_fold(id, root, "cache.clear_memory", clear);
            spans.push_fold(id, root, "cache.disk_hit", hits);
        }
        let disk_bytes: u64 = std::fs::read_dir(&setup.dir.0)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("cell-"))
            .map(|e| e.metadata().map_or(0, |m| m.len()))
            .sum();
        ledger.extend(setup.ledger.rows());
        ledger.extend(cache_count_rows(&delta));
        ledger.extend(probe_rows(ctx, &mut checks));
        // This workload measures the disk path at full size itself: its
        // own numbers replace the KTH-only probe's.
        let hit_us: Vec<f64> = seen.hit_us.iter().map(|&us| f64::from(us)).collect();
        let hit_s = hit_us.iter().sum::<f64>() / 1e6;
        ledger.extend([
            ("cache.disk_hit_us_p50", stats::median(&hit_us)),
            ("cache.clear_memory_us", stats::median(&seen.clear_us)),
            ("cache.attach_s", setup.attach_s),
            ("cache.flush_s", setup.flush_s),
            ("cache.disk_bytes", disk_bytes as f64),
            (
                "cache.disk_read_mb_per_s",
                (disk_bytes * passes) as f64 / 1e6 / hit_s.max(1e-9),
            ),
            (
                "trace.overhead_share",
                overhead_share(traced_wall_s, measured.wall_s),
            ),
        ]);
    }

    Outcome {
        measured,
        jobs,
        // The disk-hit latency is in the ledger (`cache.disk_hit_us_p50`).
        hit_p50_ms: None,
        miss_p50_ms: None,
        attempted: seen.attempted,
        failed_ops: seen.failed,
        checks,
        pins: Pins::default(),
        ledger,
        spans,
        notes: vec![("passes".to_string(), passes as f64)],
    }
}
