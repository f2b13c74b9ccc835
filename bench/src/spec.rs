//! The benchmark's contract in one place: workload names, metric names,
//! units, directions and bounds. `BENCHMARK.json` at the repo root is a
//! rendering of these tables (`tests/contract.rs` keeps the two equal).

/// Default `--seed`: the seed EXPERIMENTS.md was recorded with.
pub const DEFAULT_SEED: u64 = 20150101;

/// Default `--seconds` (`run_seconds` in `BENCHMARK.json`). Work is
/// fixed, not timed: `--seconds` picks how many whole units of each
/// workload's fixed work run (see `workloads::units`), calibrated so one
/// measured section lasts about this long on the 2-core reference host.
pub const RUN_SECONDS: u64 = 15;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "campaign_cold",
        why: "quick `repro all`: 780 cold cells, 120 of 128 triples ML, so core learner + pool fan-out dominate and queues stay shallow; an EASY-pass change should not move it",
    },
    WorkloadSpec {
        name: "deep_queue_easy",
        why: "500k-job heavy-tail trace stream-loaded from SWF, then EASY-SJBF and EASY cells: hundreds queued, the scheduler pass dominates, the learner idles",
    },
    WorkloadSpec {
        name: "conservative_deep",
        why: "conservative backfilling on SDSC-BLUE@0.5, CTC-SP2@1.0 and SDSC-SP2@1.0: same scheduler layer, profile rebuild per queued job; EASY-only changes must leave it flat",
    },
    WorkloadSpec {
        name: "cache_resume",
        why: "resume path of `repro all --cache`: 390 cells answered from disk over and over, zero simulation: file read + JSON parse + key check + LRU touch",
    },
    WorkloadSpec {
        name: "serve_mix",
        why: "2 closed-loop clients on an in-process daemon, 20% cold / 80% memory-hit requests per round: protocol, queue, worker hand-off, cache lookup, transport",
    },
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cells_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "jobs/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_cell",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "hit_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "miss_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The one workload on which a person waits for a single cell, so the
/// only one that measures `hit_p50_ms` and `miss_p50_ms`. The contract
/// still wants every metric on every workload and never 0, so the other
/// four repeat their `cpu_ms_per_cell` under both names, which `bench
/// compare` and `bench selfcheck` therefore leave ungated there.
pub const LATENCY_WORKLOAD: &str = "serve_mix";

/// Whether `metric` on `workload` is a measurement of its own rather
/// than a stand-in derived from another metric.
pub fn is_measured(workload: &str, metric: &str) -> bool {
    workload == LATENCY_WORKLOAD || !matches!(metric, "hit_p50_ms" | "miss_p50_ms")
}

/// A per-layer metric of the traced run (no bound).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 76] = [
    // workload
    lo("workload.generate_s", "s"),
    hi("workload.generate_jobs_per_s", "jobs/s"),
    // swf
    lo("swf.write_s", "s"),
    lo("swf.load_s", "s"),
    hi("swf.load_jobs_per_s", "jobs/s"),
    lo("swf.load_bytes", "bytes"),
    // experiments::source
    lo("source.load_s", "s"),
    // sim engine
    lo("sim.simulate_s", "s"),
    lo("sim.engine_self_s", "s"),
    lo("sim.events", "count"),
    lo("sim.starts", "count"),
    lo("sim.running_mean", "count"),
    // sim::scheduler
    lo("sim.sched_pass_s", "s"),
    lo("sim.sched_passes", "count"),
    lo("sim.sched_ns_per_pass", "ns"),
    lo("sim.sched_passes_per_job", "ratio"),
    hi("sim.sched_useful_ratio", "ratio"),
    lo("sim.queue_depth_mean", "count"),
    lo("sim.queue_depth_max", "count"),
    lo("sim.releases_mean", "count"),
    // core
    lo("core.predict_s", "s"),
    lo("core.predict_calls", "count"),
    lo("core.predict_ns_per_call", "ns"),
    lo("core.observe_s", "s"),
    lo("core.observe_calls", "count"),
    lo("core.correct_s", "s"),
    lo("core.corrections", "count"),
    lo("core.corrections_per_job", "ratio"),
    lo("core.learner_share", "ratio"),
    // metrics fold
    lo("metrics.fold_s", "s"),
    // experiments::campaign + pool
    lo("campaign.fanout_wall_s", "s"),
    lo("campaign.cell_busy_s", "s"),
    lo("campaign.cell_ms_p50", "ms"),
    lo("campaign.cell_ms_max", "ms"),
    hi("pool.width", "count"),
    hi("pool.busy_share", "ratio"),
    lo("pool.straggler_s", "s"),
    // experiments::cache: counts over the measured section
    lo("cache.lookups", "count"),
    lo("cache.simulated", "count"),
    hi("cache.memory_hits", "count"),
    hi("cache.disk_hits", "count"),
    hi("cache.coalesced", "count"),
    lo("cache.disk_rejects", "count"),
    lo("cache.disk_retries", "count"),
    hi("cache.hit_ratio", "ratio"),
    // experiments::cache: timings on private instances
    lo("cache.disk_hit_us_p50", "us"),
    lo("cache.memory_hit_us_p50", "us"),
    lo("cache.miss_overhead_us_p50", "us"),
    lo("cache.persist_ms_per_cell", "ms"),
    lo("cache.attach_s", "s"),
    lo("cache.flush_s", "s"),
    lo("cache.clear_memory_us", "us"),
    lo("cache.disk_bytes", "bytes"),
    hi("cache.disk_read_mb_per_s", "MB/s"),
    // vendor/serde_json
    hi("json.parse_mb_per_s", "MB/s"),
    hi("json.write_mb_per_s", "MB/s"),
    // experiments::registry
    lo("registry.parse_us", "us"),
    // serve
    hi("serve.requests", "count"),
    hi("serve.rounds", "count"),
    lo("serve.ping_p50_ms", "ms"),
    lo("serve.ack_p50_ms", "ms"),
    lo("serve.hit_p50_ms", "ms"),
    lo("serve.hit_p95_ms", "ms"),
    lo("serve.miss_p50_ms", "ms"),
    lo("serve.miss_p90_ms", "ms"),
    lo("serve.self_ms_p50", "ms"),
    lo("serve.connect_ms_p50", "ms"),
    lo("serve.workload_build_ms", "ms"),
    lo("serve.result_bytes_mean", "bytes"),
    lo("serve.busy_rejects", "count"),
    lo("serve.error_frames", "count"),
    // faultline
    lo("faultline.passthrough_ns", "ns"),
    // harness
    lo("trace.overhead_share", "ratio"),
    lo("trace.spans", "count"),
    lo("host.calib_before_ms", "ms"),
    lo("host.calib_after_ms", "ms"),
];
