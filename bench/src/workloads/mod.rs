//! The five workloads and what they share: the run context, the seeded
//! input family, the warm-up, output checks, pins and the outcome every
//! workload returns.

pub mod cache_resume;
pub mod campaign_cold;
pub mod private_cells;
pub mod serve_mix;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use predictsim_experiments::{
    campaign_triples, reference_triples, run_campaign_loaded, CacheStats, ExperimentSetup,
    HeuristicTriple, LoadedWorkload, SimCache, TripleResult,
};
use predictsim_sim::{intern_users, JobId, Time};
use predictsim_workload::{generate, GeneratedWorkload, WorkloadSpec};

use crate::host::{self, Calibration, Measured};
use crate::span::Spans;
use crate::spec::DEFAULT_SEED;

/// One invocation's inputs.
pub struct Ctx {
    pub seed: u64,
    /// The `--seconds` target that sizes the fixed work (see [`Ctx::units`]).
    pub seconds: u64,
    pub smoke: bool,
    pub trace: bool,
    /// The clock every span of the run is on.
    pub epoch: Instant,
    pub calibration: Calibration,
}

impl Ctx {
    /// How many whole units of fixed work make up the measured section:
    /// `--seconds` divided by the unit's wall time on the reference
    /// host, rounded, at least `min`. Work is a function of the command
    /// line only — never of a timer — so every count repeats exactly.
    /// Smoke runs do `min` units.
    pub fn units(&self, unit_ref_s: f64, min: u64) -> u64 {
        if self.smoke {
            return min;
        }
        ((self.seconds as f64 / unit_ref_s).round() as u64).max(min)
    }

    /// Runs the production measured section (see [`host::measure`]).
    pub fn measure<T>(&self, section: impl FnOnce() -> T) -> (T, Measured) {
        host::measure(self.epoch, &self.calibration, section)
    }

    /// Repetitions of a layer probe's inner loop: a tenth in smoke mode.
    pub fn probe_reps(&self, reps: usize) -> usize {
        if self.smoke {
            (reps / 10).max(1)
        } else {
            reps
        }
    }

    /// A scratch path under `bench/out/`, unique to this process.
    pub fn scratch(&self, name: &str) -> TempPath {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).expect("create bench/out");
        TempPath(dir.join(format!("{name}-{}", std::process::id())))
    }
}

/// `bench/out/`: traces, run reports and scratch files (git-ignored).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A file or directory removed when dropped.
pub struct TempPath(pub PathBuf);

impl Drop for TempPath {
    fn drop(&mut self) {
        if self.0.is_dir() {
            let _ = std::fs::remove_dir_all(&self.0);
        } else {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

/// Largest shift [`jitter`] applies to a submit time, seconds.
const JITTER_S: u64 = 60;

/// The seeded input family: every trace is a preset generated at the
/// repo's default generator seed whose submit times are then each moved
/// forward by a seeded 0–60 s, re-sorted and renumbered.
///
/// Regenerating a preset under another generator seed was measured
/// first and rejected: it redraws the load peaks and with them the work
/// per trace — `conservative_deep` took 15 s at the default seed, 24–34 s
/// at four others and 139 s at a sixth. Jitter keeps the macroscopic
/// load, and so the amount of work, while every seed still gets its own
/// arrival order, schedule and results.
pub fn jitter(generated: &mut GeneratedWorkload, seed: u64) {
    let mut state = seed;
    for job in &mut generated.jobs {
        job.submit = Time(job.submit.0 + (splitmix64(&mut state) % (JITTER_S + 1)) as i64);
    }
    generated.jobs.sort_by_key(|job| (job.submit, job.swf_id));
    for (index, job) in generated.jobs.iter_mut().enumerate() {
        job.id = JobId(index as u32);
    }
    intern_users(&mut generated.jobs);
}

/// A Table 4 (or registry) preset's spec at `scale`.
pub fn preset_spec(log: &str, scale: f64) -> WorkloadSpec {
    let setup = ExperimentSetup {
        scale,
        seed: DEFAULT_SEED,
    };
    setup
        .spec(log)
        .unwrap_or_else(|| panic!("no preset named {log}"))
}

/// Where set-up time went, by layer (reported in the traced run).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupLedger {
    pub generate_s: f64,
    pub generated_jobs: u64,
    pub swf_write_s: f64,
    pub swf_load_s: f64,
    pub swf_load_bytes: u64,
    pub swf_loaded_jobs: u64,
    pub source_load_s: f64,
}

impl SetupLedger {
    /// Generates `spec` and jitters it by `seed`, timing the `workload`
    /// layer (the jitter is part of producing the input).
    pub fn generate(&mut self, spec: &WorkloadSpec, seed: u64) -> GeneratedWorkload {
        let started = Instant::now();
        let mut generated = generate(spec, DEFAULT_SEED);
        jitter(&mut generated, seed);
        self.generate_s += started.elapsed().as_secs_f64();
        self.generated_jobs += generated.jobs.len() as u64;
        generated
    }

    /// Fingerprints a generated workload into a shared arena, timing the
    /// `experiments::source` layer.
    pub fn load(&mut self, generated: GeneratedWorkload) -> LoadedWorkload {
        let started = Instant::now();
        let loaded = LoadedWorkload::from(generated);
        self.source_load_s += started.elapsed().as_secs_f64();
        loaded
    }

    /// One preset at `scale`, generated, jittered by `seed` and loaded.
    pub fn preset(&mut self, log: &str, scale: f64, seed: u64) -> LoadedWorkload {
        let generated = self.generate(&preset_spec(log, scale), seed);
        self.load(generated)
    }

    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        let rate = |n: u64, s: f64| if s > 0.0 { n as f64 / s } else { 0.0 };
        vec![
            ("workload.generate_s", self.generate_s),
            (
                "workload.generate_jobs_per_s",
                rate(self.generated_jobs, self.generate_s),
            ),
            ("swf.write_s", self.swf_write_s),
            ("swf.load_s", self.swf_load_s),
            (
                "swf.load_jobs_per_s",
                rate(self.swf_loaded_jobs, self.swf_load_s),
            ),
            ("swf.load_bytes", self.swf_load_bytes as f64),
            ("source.load_s", self.source_load_s),
        ]
    }
}

/// The 128 campaign triples plus the two clairvoyant references.
pub fn all_triples() -> Vec<HeuristicTriple> {
    let mut triples = campaign_triples();
    triples.extend(reference_triples());
    triples
}

/// KTH scale of the warm-up per thread of the workload's width: the
/// campaign then takes ≈ 1.2 s at either width on the reference host, so
/// that `setup_s` is at least a second of deterministic work everywhere.
const WARM_UP_SCALE_PER_THREAD: f64 = 0.125;

/// The fixed warm-up inside every set-up: one KTH × 130-triple campaign
/// at the workload's thread width, from a cleared global cache. Spins up
/// the pool, faults in arenas and allocator pages and ramps the clock.
pub fn warm_up(ctx: &Ctx, width: usize) {
    let scale = if ctx.smoke {
        0.02
    } else {
        WARM_UP_SCALE_PER_THREAD * width as f64
    };
    let workload = SetupLedger::default().preset("KTH", scale, DEFAULT_SEED);
    SimCache::global().clear_memory();
    rayon::pool::with_num_threads(width, || run_campaign_loaded(&workload, &all_triples()));
    SimCache::global().clear_memory();
}

/// Output checks: every failed one makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    pub failed: Vec<String>,
    pub passed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failed.push(what());
        }
    }

    /// A `TripleResult` a finished simulation can produce: every field
    /// that has a hard range is inside it.
    pub fn sane_result(&mut self, context: &str, r: &TripleResult) {
        let ok = r.ave_bsld.is_finite()
            && r.ave_bsld >= 1.0
            && r.max_bsld >= r.ave_bsld
            && r.utilization > 0.0
            && r.utilization <= 1.0 + 1e-9
            && r.mean_wait >= 0.0;
        self.check(ok, || format!("{context}: implausible result {r:?}"));
    }
}

/// Values pinned for the default seed in `bench/pins.json`: the AVEbsld
/// of each deep cell and an FNV of each campaign's JSON. Every run
/// writes what it observed to `bench/out/observed-pins-*.json`, which is
/// what gets merged into `pins.json` after a deliberate change.
#[derive(Debug, Default)]
pub struct Pins {
    pub observed: BTreeMap<String, String>,
}

impl Pins {
    pub fn observe(&mut self, key: String, value: String) {
        self.observed.insert(key, value);
    }

    /// Compares against the committed pins (default seed only; a key
    /// without a committed pin is a failure, so nothing runs unpinned).
    pub fn verify(&self, seed: u64, checks: &mut Checks) {
        if seed != DEFAULT_SEED {
            return;
        }
        let committed: BTreeMap<String, String> =
            serde_json::from_str(include_str!("../../pins.json")).expect("bench/pins.json parses");
        for (key, value) in &self.observed {
            checks.check(committed.get(key) == Some(value), || {
                format!(
                    "pin {key}: observed {value}, committed {:?}",
                    committed.get(key)
                )
            });
        }
    }
}

/// splitmix64: the generator behind the jitter and the triple sampler.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `cache.*` count rows from a `CacheStats` delta.
pub fn cache_count_rows(delta: &CacheStats) -> Vec<(&'static str, f64)> {
    let lookups = delta.lookups();
    vec![
        ("cache.lookups", lookups as f64),
        ("cache.simulated", delta.simulated as f64),
        ("cache.memory_hits", delta.memory_hits as f64),
        ("cache.disk_hits", delta.disk_hits as f64),
        ("cache.coalesced", delta.coalesced as f64),
        ("cache.disk_rejects", delta.disk_rejects as f64),
        ("cache.disk_retries", delta.disk_retries as f64),
        (
            "cache.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                delta.hits() as f64 / lookups as f64
            },
        ),
    ]
}

/// What a workload hands back to `main`.
pub struct Outcome {
    /// The production measured section.
    pub measured: Measured,
    /// Simulated jobs the completed cells represent.
    pub jobs: u64,
    /// Median latency of a cell answered without simulating, ms, where
    /// the workload measures one (`spec::LATENCY_WORKLOAD`).
    pub hit_p50_ms: Option<f64>,
    /// The same for a cell that had to be simulated.
    pub miss_p50_ms: Option<f64>,
    /// Cells (simulations, cache answers, served requests) attempted /
    /// failed in the measured section; the rest completed.
    pub attempted: u64,
    pub failed_ops: u64,
    pub checks: Checks,
    pub pins: Pins,
    /// Per-layer rows (traced run only; a later row replaces an earlier
    /// one of the same name, rows never set report 0).
    pub ledger: Vec<(&'static str, f64)>,
    pub spans: Spans,
    /// Sample counts and sizes worth stating beside the numbers.
    pub notes: Vec<(String, f64)>,
}

/// `trace.overhead_share`: how much longer the traced section ran.
pub fn overhead_share(traced_wall_s: f64, untraced_wall_s: f64) -> f64 {
    if untraced_wall_s > 0.0 {
        traced_wall_s / untraced_wall_s - 1.0
    } else {
        0.0
    }
}

/// Runs the named workload.
pub fn run(name: &str, ctx: &Ctx) -> Option<Outcome> {
    match name {
        "campaign_cold" => Some(campaign_cold::run(ctx)),
        "deep_queue_easy" => Some(private_cells::run_deep_queue_easy(ctx)),
        "conservative_deep" => Some(private_cells::run_conservative_deep(ctx)),
        "cache_resume" => Some(cache_resume::run(ctx)),
        "serve_mix" => Some(serve_mix::run(ctx)),
        _ => None,
    }
}
