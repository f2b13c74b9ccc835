//! Layer probes of the traced run: small fixed measurements of layers
//! the workloads cross but cannot time from outside — the cache's hit,
//! miss and persist paths on private `SimCache` instances, the vendored
//! JSON codec, the registry parser and the fault-injection passthrough.
//! They run after the workload, on KTH at quick scale, whatever the
//! workload was.

use std::time::Instant;

use predictsim_experiments::{
    CellSource, HeuristicTriple, JobArena, LoadedWorkload, Scenario, SimCache, TripleResult,
};
use predictsim_sim::{ClusterSpec, SimConfig};

use crate::spec::DEFAULT_SEED;
use crate::stats;
use crate::workloads::{all_triples, Checks, Ctx, SetupLedger};

/// Median latency, in µs, of answering `cells` from `cache`'s memory:
/// timed batches of ≈ 2 000 calls (long enough to swamp the clock's
/// resolution), median of the per-call means. Every answer must come
/// from memory.
fn memory_hit_p50_us(
    cache: &SimCache,
    cells: &[(&JobArena, ClusterSpec, &HeuristicTriple)],
    checks: &mut Checks,
) -> f64 {
    const BATCHES: usize = 31;
    const CALLS_PER_BATCH: usize = 2_000;
    let passes = CALLS_PER_BATCH.div_ceil(cells.len().max(1));
    let mut all_memory = true;
    let mut per_call_us = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let started = Instant::now();
        for _ in 0..passes {
            for &(arena, cluster, triple) in cells {
                let hit = cache.run_cell_traced(arena, cluster, triple);
                all_memory &= matches!(hit, Ok((_, CellSource::Memory)));
                std::hint::black_box(&hit);
            }
        }
        per_call_us.push(elapsed_us(started) / (passes * cells.len()) as f64);
    }
    checks.check(all_memory, || {
        "memory-hit probe: a re-requested cell was not served from memory".into()
    });
    stats::median(&per_call_us)
}

fn elapsed_us(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

/// The `cache.*` timing rows plus `json.*`, `registry.*` and
/// `faultline.*`.
pub fn probe_rows(ctx: &Ctx, checks: &mut Checks) -> Vec<(&'static str, f64)> {
    let scale = if ctx.smoke { 0.01 } else { 0.05 };
    let workload: LoadedWorkload = SetupLedger::default().preset("KTH", scale, DEFAULT_SEED);
    let arena = &workload.jobs;
    let cluster = ClusterSpec::single(workload.machine_size);
    let triples = all_triples();
    let run = |cache: &SimCache, triple: &HeuristicTriple, want: CellSource| {
        let started = Instant::now();
        let answer = cache.run_cell_traced(arena, cluster, triple);
        let us = elapsed_us(started);
        (us, matches!(&answer, Ok((_, source)) if *source == want))
    };
    let mut sources_ok = true;

    // Bare engine call vs the same cell as a cache miss, back to back.
    let plain = SimCache::new();
    let mut miss_overhead_us = Vec::with_capacity(triples.len());
    let mut miss_plain_us = 0.0;
    for triple in &triples {
        let started = Instant::now();
        let sim = Scenario::from_triple(triple)
            .run_on(arena, SimConfig { cluster })
            .expect("probe cell simulates");
        std::hint::black_box(TripleResult::from_sim(triple, &sim));
        let bare_us = elapsed_us(started);
        let (miss_us, ok) = run(&plain, triple, CellSource::Simulated);
        sources_ok &= ok;
        miss_plain_us += miss_us;
        miss_overhead_us.push(miss_us - bare_us);
    }
    let cells: Vec<_> = triples.iter().map(|t| (arena, cluster, t)).collect();
    let memory_hit_us = memory_hit_p50_us(&plain, &cells, checks);

    // The same misses with a persist dir: serialize + fsync + rename.
    let dir = ctx.scratch("probe-cache");
    let persistent = SimCache::new();
    persistent.set_persist_dir(Some(dir.0.clone()));
    let mut miss_persist_us = 0.0;
    for triple in &triples {
        let (us, ok) = run(&persistent, triple, CellSource::Simulated);
        sources_ok &= ok;
        miss_persist_us += us;
    }
    let started = Instant::now();
    persistent.flush_persistent();
    let flush_s = started.elapsed().as_secs_f64();

    // A fresh process's view: attach, then answer everything from disk.
    let resumed = SimCache::new();
    let started = Instant::now();
    resumed.set_persist_dir(Some(dir.0.clone()));
    let attach_s = started.elapsed().as_secs_f64();
    let mut disk_hit_us = Vec::with_capacity(triples.len());
    for triple in &triples {
        let (us, ok) = run(&resumed, triple, CellSource::Disk);
        sources_ok &= ok;
        disk_hit_us.push(us);
    }
    let started = Instant::now();
    resumed.clear_memory();
    let clear_memory_us = elapsed_us(started);
    checks.check(sources_ok, || {
        "cache probe: a cell was served from an unexpected layer".into()
    });

    let mut disk_bytes = 0u64;
    let mut largest = (0u64, None);
    for entry in std::fs::read_dir(&dir.0).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("cell-") && name.ends_with(".json") {
            let bytes = entry.metadata().map_or(0, |m| m.len());
            disk_bytes += bytes;
            if bytes > largest.0 {
                largest = (bytes, Some(entry.path()));
            }
        }
    }
    let disk_read_s = disk_hit_us.iter().sum::<f64>() / 1e6;

    // vendor/serde_json on the largest cell file.
    let text = largest
        .1
        .and_then(|path| std::fs::read_to_string(path).ok())
        .unwrap_or_default();
    let json_reps = ctx.probe_reps(40);
    let started = Instant::now();
    let mut value = serde::Value::Null;
    for _ in 0..json_reps {
        value = serde_json::from_str(&text).expect("cell file parses");
    }
    let parse_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    for _ in 0..json_reps {
        std::hint::black_box(serde_json::to_string(&value).expect("cell value writes"));
    }
    let write_s = started.elapsed().as_secs_f64();
    let mb_per_s = |s: f64| (text.len() * json_reps) as f64 / 1e6 / s.max(1e-9);

    // experiments::registry: parse every campaign triple name.
    let names: Vec<String> = triples.iter().map(HeuristicTriple::name).collect();
    let registry_reps = ctx.probe_reps(50);
    let started = Instant::now();
    for _ in 0..registry_reps {
        for name in &names {
            std::hint::black_box(name.parse::<HeuristicTriple>().expect("name parses"));
        }
    }
    let registry_parse_us = elapsed_us(started) / (registry_reps * names.len()) as f64;

    // faultline: a site consulted with no plan installed.
    let fault_calls = ctx.probe_reps(5_000_000);
    let started = Instant::now();
    for _ in 0..fault_calls {
        std::hint::black_box(predictsim_faultline::io_fault(std::hint::black_box(
            "cache.read",
        )));
    }
    let passthrough_ns = started.elapsed().as_secs_f64() * 1e9 / fault_calls as f64;

    let n = triples.len() as f64;
    vec![
        ("cache.disk_hit_us_p50", stats::median(&disk_hit_us)),
        ("cache.memory_hit_us_p50", memory_hit_us),
        (
            "cache.miss_overhead_us_p50",
            stats::median(&miss_overhead_us),
        ),
        (
            "cache.persist_ms_per_cell",
            (miss_persist_us - miss_plain_us) / n / 1e3,
        ),
        ("cache.attach_s", attach_s),
        ("cache.flush_s", flush_s),
        ("cache.clear_memory_us", clear_memory_us),
        ("cache.disk_bytes", disk_bytes as f64),
        (
            "cache.disk_read_mb_per_s",
            disk_bytes as f64 / 1e6 / disk_read_s.max(1e-9),
        ),
        ("json.parse_mb_per_s", mb_per_s(parse_s)),
        ("json.write_mb_per_s", mb_per_s(write_s)),
        ("registry.parse_us", registry_parse_us),
        ("faultline.passthrough_ns", passthrough_ns),
    ]
}
