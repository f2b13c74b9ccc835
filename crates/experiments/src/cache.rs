//! Process-wide simulation memoization — sharded, single-flight, with an
//! opt-in persistent layer under a size-budgeted LRU.
//!
//! The repro pipeline re-simulates the same (workload × policy triple)
//! cells from several experiments: the campaign grid is re-read by
//! cross-validation, Table 1 runs two of the campaign's cells per log,
//! Table 8 and Figures 4/5 re-run campaign cells on Curie, and the
//! ablations overlap the grid on the first log. [`SimCache`] keys each
//! simulated cell by (workload [fingerprint](JobArena::fingerprint) ×
//! canonical triple name × canonical [`ClusterSpec`] string) and
//! memoizes the cell's
//! aggregate [`TripleResult`] plus its per-job initial predictions —
//! everything any consumer reads — so every distinct cell simulates
//! **once per process**, whichever experiment asks first.
//!
//! # Sharding
//!
//! The in-memory layer is split into [`SHARD_COUNT`] shards selected by
//! the cell key's FNV-1a hash (the same hash that names persistent
//! files), each with its own lock and its own slice of the prediction
//! budget. Parallel campaign workers therefore contend only when they
//! touch the *same* shard, not on one global lock.
//!
//! # Single-flight
//!
//! A miss installs an in-flight marker in its shard before simulating;
//! concurrent requesters for the same cell block on that marker and are
//! handed the first simulation's result instead of duplicating the
//! work. [`CacheStats::simulated`] is therefore a true work count: one
//! cold cell requested from N workers simulates exactly once. Waiters
//! are counted as memory hits, with [`CacheStats::coalesced`] recording
//! how many of those hits were de-duplicated in-flight requests. If a
//! leader fails (simulation error), its marker is withdrawn and waiters
//! retry — one of them becomes the next leader and surfaces the error
//! itself.
//!
//! # Persistent layer
//!
//! The optional persistent layer (`repro --cache DIR`) writes each cell
//! to `DIR` as JSON and reads it back in later invocations: a repeated
//! `repro` run over unchanged workloads simulates nothing, and a run
//! killed mid-campaign resumes from the cells it already wrote. Entries
//! are verified against the full key on load — a corrupt or
//! key-mismatched file is *rejected*: counted in
//! [`CacheStats::disk_rejects`], deleted, and re-simulated (once, not
//! silently re-written every run). The fingerprint is a fixed,
//! platform-independent encoding, so a cache directory is portable.
//! Cached cells reproduce fresh runs *byte-identically*: the stored
//! [`TripleResult`] is the same value a fresh simulation aggregates,
//! and prediction vectors round-trip losslessly through JSON (they are
//! `i64`s).
//!
//! The directory carries a size budget ([`SimCache::set_disk_budget`],
//! `repro --cache-budget BYTES`, default [`SimCache::DISK_BUDGET`])
//! tracked by an `index.json` of per-cell file size and logical
//! last-use time. When a write pushes the directory past its budget,
//! least-recently-used cells are evicted — but never cells touched by
//! the current run, so an in-progress campaign cannot evict its own
//! working set. The clock is a logical counter (no wall time), so the
//! index is deterministic for a given access sequence.
//!
//! # Fault tolerance
//!
//! Every disk operation sits behind a named fault-injection site
//! (`cache.read` / `cache.write` / `cache.rename` / `cache.remove` /
//! `index.flush` — see `predictsim_faultline`) and a bounded
//! retry-with-backoff that absorbs transient
//! [`std::io::ErrorKind::Interrupted`] errors
//! ([`CacheStats::disk_retries`]). After
//! [`SimCache::HARD_FAILURE_LIMIT`] *consecutive* hard failures the
//! layer degrades to memory-only — warned once, campaign unaffected
//! ([`CacheStats::degraded`]); the next healthy
//! [`SimCache::set_persist_dir`] restores persistence. Cell and index
//! writes are crash-consistent (temp file → fsync → atomic rename →
//! best-effort directory sync), so a torn write never shadows good
//! data. The miss path catches panics out of the simulation
//! (`catch_unwind` + bounded retry, [`CacheStats::panicked_cells`]),
//! surfacing a genuinely poisoned cell as
//! [`ScenarioError::CellPanicked`] after the lease has withdrawn its
//! marker and released coalesced waiters.
//!
//! # Memory discipline
//!
//! Aggregates are tiny and kept for every cell; prediction vectors are
//! kept only while the shard's slice of the prediction budget
//! ([`SimCache::PREDICTION_BUDGET`]) lasts — past it, new entries drop
//! them (consumers that need predictions then re-simulate that cell;
//! aggregates stay served from the cache). Re-inserting a key refunds
//! the replaced cell's vector before charging the new one, so repeated
//! inserts are budget-neutral.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use predictsim_sim::{ClusterSpec, NullObserver, SimObserver};
use serde::{Deserialize, Serialize};

use crate::campaign::TripleResult;
use crate::scenario::ScenarioError;
use crate::source::JobArena;
use crate::triple::HeuristicTriple;

/// Number of independently locked shards (power of two; the shard is
/// the key hash's low bits).
pub const SHARD_COUNT: usize = 16;

/// One memoized simulation cell.
#[derive(Debug, Clone)]
pub struct CachedCell {
    /// The cell's aggregate metrics (bit-identical to a fresh
    /// [`TripleResult::from_sim`]).
    pub result: TripleResult,
    /// The clamped initial prediction of every job, by dense job id —
    /// `None` when the prediction budget was exhausted when this cell
    /// was inserted (aggregates are still cached).
    pub predictions: Option<Arc<Vec<i64>>>,
}

/// Where a [`SimCache::run_cell_traced`] result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSource {
    /// This call ran the simulation (a true cache miss).
    Simulated,
    /// Served from the in-memory layer.
    Memory,
    /// Served from the persistent directory.
    Disk,
    /// Waited on another worker's in-flight simulation of the same cell.
    Coalesced,
}

/// Cache identity of one cell. The cluster is keyed by its canonical
/// [`ClusterSpec`] string, so two specs with equal total processors but
/// different partitioning (or speeds) can never alias each other.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CellKey {
    fingerprint: u64,
    cluster: String,
    triple: String,
}

impl CellKey {
    fn new(arena: &JobArena, cluster: ClusterSpec, triple: &HeuristicTriple) -> Self {
        CellKey {
            fingerprint: arena.fingerprint(),
            cluster: cluster.to_string(),
            triple: triple.name(),
        }
    }

    /// FNV-1a over the key's fields — names the persistent file *and*
    /// selects the shard, so disk layout and lock layout agree.
    fn fnv(&self) -> u64 {
        crate::source::fnv1a64(
            self.fingerprint
                .to_le_bytes()
                .into_iter()
                .chain(self.cluster.bytes())
                .chain(self.triple.bytes()),
        )
    }

    /// Stable persistent file name for this key.
    fn file_name(&self) -> String {
        format!("cell-{:016x}.json", self.fnv())
    }
}

/// Cumulative cache accounting (process-wide).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells actually simulated (cache misses — a true work count under
    /// single-flight).
    pub simulated: u64,
    /// Cells served from process memory (including coalesced waits).
    pub memory_hits: u64,
    /// Cells served from the persistent directory.
    pub disk_hits: u64,
    /// The subset of `memory_hits` that waited on another worker's
    /// in-flight simulation instead of duplicating it.
    pub coalesced: u64,
    /// Corrupt or key-mismatched persistent files rejected (and
    /// deleted) on load.
    pub disk_rejects: u64,
    /// Persistent cells evicted by the disk-layer LRU budget.
    pub disk_evictions: u64,
    /// Transient disk-IO errors absorbed by the bounded retry (each
    /// retry attempt counts once).
    pub disk_retries: u64,
    /// Simulation attempts that panicked and were caught — the cell
    /// either succeeded on a retry or surfaced
    /// [`ScenarioError::CellPanicked`].
    pub panicked_cells: u64,
    /// True once the disk layer degraded to memory-only after
    /// [`SimCache::HARD_FAILURE_LIMIT`] consecutive hard IO failures
    /// (cleared by the next [`SimCache::set_persist_dir`]).
    pub degraded: bool,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.simulated + self.memory_hits + self.disk_hits
    }

    /// Hits from either layer.
    pub fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits
    }

    /// Difference since `earlier` (for per-phase attribution).
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            simulated: self.simulated - earlier.simulated,
            memory_hits: self.memory_hits - earlier.memory_hits,
            disk_hits: self.disk_hits - earlier.disk_hits,
            coalesced: self.coalesced - earlier.coalesced,
            disk_rejects: self.disk_rejects - earlier.disk_rejects,
            disk_evictions: self.disk_evictions - earlier.disk_evictions,
            disk_retries: self.disk_retries - earlier.disk_retries,
            panicked_cells: self.panicked_cells - earlier.panicked_cells,
            // A state flag, not a counter: report the current state.
            degraded: self.degraded,
        }
    }

    /// The canonical one-line rendering used by `repro` and pinned by a
    /// format test: new fields are **append-only** (tooling anchors on
    /// the `simulated=` prefix and on ` field=value ` substrings, so
    /// existing fields must never move or change spelling).
    pub fn summary_line(&self) -> String {
        format!(
            "cache summary: simulated={} memory_hits={} disk_hits={} coalesced={} \
             disk_rejects={} evicted={} disk_retries={} degraded={} panicked_cells={}",
            self.simulated,
            self.memory_hits,
            self.disk_hits,
            self.coalesced,
            self.disk_rejects,
            self.disk_evictions,
            self.disk_retries,
            u8::from(self.degraded),
            self.panicked_cells,
        )
    }
}

/// The on-disk form of a cell: the full key (verified on load) plus the
/// payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DiskCell {
    fingerprint: u64,
    cluster: String,
    triple: String,
    result: TripleResult,
    predictions: Vec<i64>,
}

/// A slot in a shard's map: either a finished cell or a marker for the
/// worker currently simulating it.
enum Slot {
    Ready(CachedCell),
    InFlight(Arc<Flight>),
}

/// The rendezvous for one in-flight simulation.
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

enum FlightState {
    Pending,
    Ready(CachedCell),
    /// The leader failed (simulation error or panic); waiters retry the
    /// lookup and one of them becomes the next leader.
    Failed,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending),
            done: Condvar::new(),
        }
    }

    /// Blocks until the leader finishes; `None` means it failed.
    fn wait(&self) -> Option<CachedCell> {
        let mut state = self.state.lock().expect("flight lock");
        while matches!(*state, FlightState::Pending) {
            state = self.done.wait(state).expect("flight lock");
        }
        match &*state {
            FlightState::Ready(cell) => Some(cell.clone()),
            FlightState::Failed => None,
            FlightState::Pending => unreachable!("waited past Pending"),
        }
    }

    /// Resolves the flight (first resolution wins) and wakes waiters.
    fn finish(&self, outcome: Option<CachedCell>) {
        let mut state = self.state.lock().expect("flight lock");
        if matches!(*state, FlightState::Pending) {
            *state = match outcome {
                Some(cell) => FlightState::Ready(cell),
                None => FlightState::Failed,
            };
        }
        drop(state);
        self.done.notify_all();
    }
}

/// One independently locked slice of the in-memory layer.
struct Shard {
    cells: HashMap<CellKey, Slot>,
    /// Prediction elements still storable in this shard before its
    /// budget slice is exhausted.
    prediction_budget: usize,
}

impl Shard {
    fn new(budget: usize) -> Self {
        Shard {
            cells: HashMap::new(),
            prediction_budget: budget,
        }
    }
}

/// Per-cell bookkeeping of the persistent directory.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct DiskEntry {
    /// File size in bytes (the serialized cell).
    bytes: u64,
    /// Logical last-use time ([`DiskIndex::clock`] at the last touch).
    last_use: u64,
}

/// The persisted `index.json`: a logical clock plus one entry per cell
/// file, used for LRU eviction decisions.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct DiskIndex {
    clock: u64,
    entries: HashMap<String, DiskEntry>,
}

/// State of the opt-in persistent layer, under one lock (file I/O
/// happens *outside* it where possible; index mutations inside).
struct PersistLayer {
    dir: Option<PathBuf>,
    /// Directory size budget in bytes (cell files only; the index is
    /// exempt).
    budget: u64,
    index: DiskIndex,
    /// Sum of `index.entries[*].bytes` (maintained incrementally).
    total_bytes: u64,
    /// Entries with `last_use >= run_floor` were touched by the current
    /// run and are never evicted.
    run_floor: u64,
}

impl PersistLayer {
    fn new() -> Self {
        PersistLayer {
            dir: None,
            budget: SimCache::DISK_BUDGET,
            index: DiskIndex::default(),
            total_bytes: 0,
            run_floor: 0,
        }
    }

    fn touch(&mut self, file_name: &str, bytes_hint: u64) {
        self.index.clock += 1;
        let clock = self.index.clock;
        match self.index.entries.get_mut(file_name) {
            Some(entry) => entry.last_use = clock,
            None => {
                // A file another process wrote: adopt it.
                self.index.entries.insert(
                    file_name.to_string(),
                    DiskEntry {
                        bytes: bytes_hint,
                        last_use: clock,
                    },
                );
                self.total_bytes += bytes_hint;
            }
        }
    }

    fn forget(&mut self, file_name: &str) {
        if let Some(entry) = self.index.entries.remove(file_name) {
            self.total_bytes -= entry.bytes;
        }
    }
}

/// The process-wide simulation cache — see the module docs.
pub struct SimCache {
    shards: [Mutex<Shard>; SHARD_COUNT],
    persist: Mutex<PersistLayer>,
    simulated: AtomicU64,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    coalesced: AtomicU64,
    disk_rejects: AtomicU64,
    disk_evictions: AtomicU64,
    disk_retries: AtomicU64,
    panicked_cells: AtomicU64,
    /// Consecutive hard (non-retryable, non-NotFound) disk failures; a
    /// healthy disk operation resets it. At
    /// [`SimCache::HARD_FAILURE_LIMIT`] the layer degrades.
    hard_fail_streak: AtomicU64,
    /// Disk layer degraded to memory-only (warned once; cleared by the
    /// next [`SimCache::set_persist_dir`]).
    degraded: AtomicBool,
    /// Per-process sequence for unique temp-file names (two threads —
    /// or two processes, via the pid component — sharing one cache
    /// directory must never interleave writes into one temp file).
    tmp_seq: AtomicU64,
}

static GLOBAL: OnceLock<SimCache> = OnceLock::new();

/// Best-effort text of a caught panic payload (`panic!` with a string
/// literal or a formatted message covers everything this codebase — and
/// the fault injector — can throw).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What a shard lookup produced: a finished cell, a flight to wait on,
/// or leadership of the miss (the `Lease` below).
enum Claim<'a> {
    Hit(CachedCell),
    Wait(Arc<Flight>),
    Lead(Lease<'a>),
}

/// Leadership of one in-flight cell. Dropping it without
/// [`Lease::fulfill`] withdraws the marker and signals waiters to retry
/// — so a simulation error (or panic) can never strand them.
struct Lease<'a> {
    cache: &'a SimCache,
    key: CellKey,
    flight: Arc<Flight>,
    fulfilled: bool,
}

impl Lease<'_> {
    /// Installs the finished cell in its shard and hands it to every
    /// waiter.
    fn fulfill(mut self, cell: CachedCell) {
        self.cache.install(self.key.clone(), cell.clone());
        self.flight.finish(Some(cell));
        self.fulfilled = true;
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        if self.fulfilled {
            return;
        }
        // Abandon: withdraw our marker (only if it is still ours) and
        // wake waiters so one of them can lead the retry.
        let mut shard = self
            .cache
            .shard(&self.key)
            .lock()
            .expect("cache shard lock");
        if let Some(Slot::InFlight(flight)) = shard.cells.get(&self.key) {
            if Arc::ptr_eq(flight, &self.flight) {
                shard.cells.remove(&self.key);
            }
        }
        drop(shard);
        self.flight.finish(None);
    }
}

impl Default for SimCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SimCache {
    /// Prediction elements (8 bytes each) the in-memory layer may hold
    /// across all shards: 64M ≈ 512 MB, far above any quick-scale run
    /// and a sane ceiling for full-scale ones. Each shard owns a
    /// `1/SHARD_COUNT` slice.
    pub const PREDICTION_BUDGET: usize = 64_000_000;

    /// Default persistent-layer size budget: 8 GiB of cell files —
    /// generous (a full-scale repro writes well under 1 GiB) but a hard
    /// ceiling against unbounded growth of a long-lived `--cache DIR`.
    pub const DISK_BUDGET: u64 = 8 * 1024 * 1024 * 1024;

    /// Bounded retries absorbed per disk operation before its error is
    /// surfaced (transient [`std::io::ErrorKind::Interrupted`] only;
    /// each absorbed retry counts in [`CacheStats::disk_retries`]).
    pub const IO_RETRIES: u32 = 3;

    /// Consecutive hard disk failures after which the persistent layer
    /// degrades to memory-only for the rest of the attach (warned once;
    /// the campaign continues, and the next healthy
    /// [`SimCache::set_persist_dir`] restores persistence and with it
    /// resumability).
    pub const HARD_FAILURE_LIMIT: u64 = 5;

    /// Simulation attempts per cell before a caught panic stops being
    /// retried and surfaces as [`ScenarioError::CellPanicked`].
    pub const PANIC_RETRIES: u32 = 3;

    /// An independent cache instance (tests, `bench/`, embedding several
    /// cache domains). Experiments route through [`SimCache::global`].
    pub fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| {
                Mutex::new(Shard::new(Self::PREDICTION_BUDGET / SHARD_COUNT))
            }),
            persist: Mutex::new(PersistLayer::new()),
            simulated: AtomicU64::new(0),
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            disk_rejects: AtomicU64::new(0),
            disk_evictions: AtomicU64::new(0),
            disk_retries: AtomicU64::new(0),
            panicked_cells: AtomicU64::new(0),
            hard_fail_streak: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            tmp_seq: AtomicU64::new(0),
        }
    }

    /// The process-wide instance every experiment routes through.
    pub fn global() -> &'static SimCache {
        GLOBAL.get_or_init(SimCache::new)
    }

    fn shard(&self, key: &CellKey) -> &Mutex<Shard> {
        &self.shards[(key.fnv() as usize) & (SHARD_COUNT - 1)]
    }

    /// Enables (or disables, with `None`) the persistent layer. Created
    /// lazily on first write; existing entries are picked up on misses.
    /// Loads (or initializes) the directory's LRU index and reconciles
    /// it with the files actually present; entries touched from here on
    /// belong to the current run and are exempt from eviction.
    pub fn set_persist_dir(&self, dir: Option<PathBuf>) {
        let mut persist = self.persist.lock().expect("cache persist lock");
        persist.index = DiskIndex::default();
        persist.total_bytes = 0;
        persist.run_floor = 0;
        persist.dir = dir;
        // A fresh attach is a declaration that the disk is healthy
        // again: clear any degradation so resumability survives the
        // next run even if this one limped home memory-only.
        self.hard_fail_streak.store(0, Ordering::Relaxed);
        self.degraded.store(false, Ordering::Relaxed);
        let Some(dir) = persist.dir.clone() else {
            return;
        };
        // Load the index (a corrupt index just starts empty — it is
        // bookkeeping, not data) and reconcile it with the directory:
        // drop entries whose file vanished, adopt files it never saw
        // (another process, an older layout) as least-recently used,
        // and sweep stale temp files from crashed writers.
        if let Ok(text) = std::fs::read_to_string(dir.join(Self::INDEX_NAME)) {
            if let Ok(index) = serde_json::from_str::<DiskIndex>(&text) {
                persist.index = index;
            }
        }
        let mut present: HashMap<String, u64> = HashMap::new();
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.ends_with(".tmp") {
                    let _ = std::fs::remove_file(entry.path());
                    continue;
                }
                if name.starts_with("cell-") && name.ends_with(".json") {
                    let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
                    present.insert(name, bytes);
                }
            }
        }
        persist
            .index
            .entries
            .retain(|name, _| present.contains_key(name));
        for (name, bytes) in present {
            persist
                .index
                .entries
                .entry(name)
                .or_insert(DiskEntry { bytes, last_use: 0 });
        }
        persist.total_bytes = persist.index.entries.values().map(|e| e.bytes).sum();
        persist.run_floor = persist.index.clock + 1;
    }

    /// Sets the persistent layer's size budget in bytes (`repro
    /// --cache-budget`). Takes effect on the next write — eviction only
    /// ever runs after a store, and never touches cells used by the
    /// current run.
    pub fn set_disk_budget(&self, bytes: u64) {
        self.persist.lock().expect("cache persist lock").budget = bytes;
    }

    /// Persists the LRU index *now* and sweeps this process's leftover
    /// `*.tmp` files. The graceful-shutdown path: `index.json` is
    /// normally only rewritten after a store, so a run that was serving
    /// disk hits (which touch entries' last-use clocks in memory) and
    /// then gets interrupted would otherwise lose that recency — and a
    /// writer killed between temp write and rename would leave its temp
    /// file for the *next* attach to sweep. No-op without a persistent
    /// directory.
    pub fn flush_persistent(&self) {
        if self.disk_degraded() {
            // The layer already gave up on this disk; the previous
            // index.json (if any) stays intact for the next attach.
            return;
        }
        let (dir, index) = {
            let persist = self.persist.lock().expect("cache persist lock");
            let Some(dir) = persist.dir.clone() else {
                return;
            };
            (dir, persist.index.clone())
        };
        // An interrupt can land before any cell was stored; the flushed
        // (possibly empty) index must still appear on disk.
        let _ = std::fs::create_dir_all(&dir);
        self.save_index(&dir, &index);
        let own_tmp = format!(".{}-", std::process::id());
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.ends_with(".tmp") && name.contains(&own_tmp) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
    }

    /// Drops every in-memory cell and restores the prediction budget
    /// (the persistent directory, if any, is untouched). Intended for
    /// tests that must observe *fresh* simulations — e.g. the pool-width
    /// determinism suites, which would otherwise compare a simulation
    /// against its own memoized result.
    pub fn clear_memory(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard lock");
            shard.cells.clear();
            shard.prediction_budget = Self::PREDICTION_BUDGET / SHARD_COUNT;
        }
    }

    /// Overrides the total in-memory prediction budget, splitting it
    /// evenly across shards (remainder to the first). Test/bench
    /// instrumentation — experiments use the default.
    pub fn set_prediction_budget(&self, total: usize) {
        let slice = total / SHARD_COUNT;
        for (i, shard) in self.shards.iter().enumerate() {
            let mut shard = shard.lock().expect("cache shard lock");
            shard.prediction_budget = if i == 0 {
                slice + total % SHARD_COUNT
            } else {
                slice
            };
        }
    }

    /// Prediction-budget elements still unspent, summed over shards.
    /// With [`SimCache::set_prediction_budget`], pins budget accounting
    /// in tests (e.g. exactly-once accounting under single-flight).
    pub fn prediction_budget_remaining(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").prediction_budget)
            .sum()
    }

    /// Cumulative accounting since process start.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            simulated: self.simulated.load(Ordering::Relaxed),
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            disk_rejects: self.disk_rejects.load(Ordering::Relaxed),
            disk_evictions: self.disk_evictions.load(Ordering::Relaxed),
            disk_retries: self.disk_retries.load(Ordering::Relaxed),
            panicked_cells: self.panicked_cells.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }

    /// Runs one disk operation with bounded retry of transient
    /// ([`std::io::ErrorKind::Interrupted`]) errors, consulting the
    /// fault-injection `site` ahead of each real attempt. Absorbed
    /// retries count in [`CacheStats::disk_retries`]; the final error —
    /// transient or not — is returned for the caller to classify.
    fn with_disk_retry<T>(
        &self,
        site: &str,
        mut op: impl FnMut() -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let mut attempt = 0;
        loop {
            let outcome = match predictsim_faultline::io_fault(site) {
                Some(injected) => Err(injected),
                None => op(),
            };
            match outcome {
                Err(err)
                    if err.kind() == std::io::ErrorKind::Interrupted
                        && attempt < Self::IO_RETRIES =>
                {
                    attempt += 1;
                    self.disk_retries.fetch_add(1, Ordering::Relaxed);
                    // A whisper of backoff: enough to step over a
                    // transient hiccup, far too small to show up in
                    // campaign wall-clock.
                    std::thread::sleep(std::time::Duration::from_micros(50 << attempt));
                }
                other => return other,
            }
        }
    }

    /// A disk operation completed: the failure streak resets.
    fn disk_ok(&self) {
        self.hard_fail_streak.store(0, Ordering::Relaxed);
    }

    /// A disk operation failed for keeps (retries exhausted or a hard
    /// error). At [`SimCache::HARD_FAILURE_LIMIT`] consecutive failures
    /// the persistent layer degrades to memory-only — warned exactly
    /// once — so a campaign on a dying disk finishes instead of
    /// grinding through error paths on every cell.
    fn disk_hard_failure(&self, what: &str, err: &std::io::Error) {
        let streak = self.hard_fail_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= Self::HARD_FAILURE_LIMIT && !self.degraded.swap(true, Ordering::Relaxed) {
            eprintln!(
                "warning: disk cache degraded to memory-only after {streak} consecutive \
                 hard failures (last: {what}: {err}); the run continues uncached on disk — \
                 re-attach a healthy --cache dir to restore persistence"
            );
        }
    }

    /// True once the disk layer has been disabled for this attach.
    fn disk_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Runs the cell simulation with panic isolation: a caught panic
    /// (a poisoned cell) is retried up to [`SimCache::PANIC_RETRIES`]
    /// attempts — safe because the engine re-initializes every scratch
    /// buffer at run start — before surfacing as
    /// [`ScenarioError::CellPanicked`]. Each caught panic counts in
    /// [`CacheStats::panicked_cells`].
    fn simulate_isolated(
        &self,
        triple: &HeuristicTriple,
        arena: &JobArena,
        cluster: ClusterSpec,
        observer: &mut dyn SimObserver,
    ) -> Result<predictsim_sim::SimResult, ScenarioError> {
        let mut attempt = 0;
        loop {
            attempt += 1;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                crate::scenario::run_triple_with_scratch(
                    triple,
                    arena,
                    predictsim_sim::SimConfig { cluster },
                    observer,
                )
            }));
            match outcome {
                Ok(result) => return result.map_err(ScenarioError::from),
                Err(payload) => {
                    self.panicked_cells.fetch_add(1, Ordering::Relaxed);
                    if attempt >= Self::PANIC_RETRIES {
                        return Err(ScenarioError::CellPanicked(panic_message(&payload)));
                    }
                }
            }
        }
    }

    /// One shard lookup: a ready cell, a flight to join, or leadership
    /// of the miss.
    fn claim(&self, key: &CellKey) -> Claim<'_> {
        let mut shard = self.shard(key).lock().expect("cache shard lock");
        match shard.cells.get(key) {
            Some(Slot::Ready(cell)) => Claim::Hit(cell.clone()),
            Some(Slot::InFlight(flight)) => Claim::Wait(flight.clone()),
            None => {
                let flight = Arc::new(Flight::new());
                shard
                    .cells
                    .insert(key.clone(), Slot::InFlight(flight.clone()));
                Claim::Lead(Lease {
                    cache: self,
                    key: key.clone(),
                    flight,
                    fulfilled: false,
                })
            }
        }
    }

    /// Runs (or recalls) one cell: `triple` on the `arena` workload on
    /// `cluster`. The returned aggregates are byte-identical to a
    /// fresh simulation's whichever layer serves them.
    pub fn run_cell(
        &self,
        arena: &JobArena,
        cluster: ClusterSpec,
        triple: &HeuristicTriple,
    ) -> Result<CachedCell, ScenarioError> {
        self.run_cell_traced(arena, cluster, triple)
            .map(|(cell, _)| cell)
    }

    /// [`SimCache::run_cell`], also reporting which layer served the
    /// cell (progress lines and tests).
    pub fn run_cell_traced(
        &self,
        arena: &JobArena,
        cluster: ClusterSpec,
        triple: &HeuristicTriple,
    ) -> Result<(CachedCell, CellSource), ScenarioError> {
        let mut null = NullObserver;
        self.run_cell_observed_traced(arena, cluster, triple, &mut null)
    }

    /// [`SimCache::run_cell_traced`] with a caller-supplied
    /// [`SimObserver`] on the miss path. The observer sees events only
    /// when *this call* runs the simulation ([`CellSource::Simulated`]);
    /// cached and coalesced cells return without replaying events. It is
    /// also the cancellation seam: an observer whose
    /// [`SimObserver::keep_running`] turns `false` aborts the in-flight
    /// simulation with [`predictsim_sim::SimError::Aborted`], the lease
    /// is withdrawn, and any coalesced waiters retry (one becomes the
    /// next leader). Progress heartbeats (`--progress`), the serve
    /// daemon's streamed `metrics` frames and the `--prune` sweep's
    /// early-abort observer all ride this path; an aborted run counts
    /// in [`CacheStats::simulated`] and stores nothing.
    pub fn run_cell_observed_traced(
        &self,
        arena: &JobArena,
        cluster: ClusterSpec,
        triple: &HeuristicTriple,
        observer: &mut dyn SimObserver,
    ) -> Result<(CachedCell, CellSource), ScenarioError> {
        let key = CellKey::new(arena, cluster, triple);
        loop {
            match self.claim(&key) {
                Claim::Hit(cell) => {
                    self.memory_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((cell, CellSource::Memory));
                }
                Claim::Wait(flight) => {
                    if let Some(cell) = flight.wait() {
                        self.memory_hits.fetch_add(1, Ordering::Relaxed);
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                        return Ok((cell, CellSource::Coalesced));
                    }
                    // Leader failed; retry — this thread may become the
                    // next leader and surface the error itself.
                }
                Claim::Lead(lease) => {
                    // Disk probe and simulation both run outside every
                    // shard lock; only same-cell requesters wait.
                    if let Some(cell) = self.load_disk(&key) {
                        self.disk_hits.fetch_add(1, Ordering::Relaxed);
                        lease.fulfill(cell.clone());
                        return Ok((cell, CellSource::Disk));
                    }
                    self.simulated.fetch_add(1, Ordering::Relaxed);
                    // On error the lease drop withdraws the marker and
                    // releases the waiters before `?` propagates. A
                    // panicking cell is caught and retried inside
                    // `simulate_isolated`; `simulated` still counts the
                    // miss once — it is a true-work count of cells, not
                    // of attempts.
                    let sim = self.simulate_isolated(triple, arena, cluster, observer)?;
                    let result = TripleResult::from_sim(triple, &sim);
                    let predictions: Vec<i64> =
                        sim.outcomes.iter().map(|o| o.initial_prediction).collect();
                    let cell = CachedCell {
                        result,
                        predictions: Some(Arc::new(predictions)),
                    };
                    // Persist first: the disk layer's budget is far
                    // larger, and dropping the predictions before
                    // writing would silently break the "repeated
                    // --cache run simulates zero cells" contract once
                    // the in-memory budget is exhausted.
                    self.store_disk(&key, &cell);
                    lease.fulfill(cell.clone());
                    return Ok((cell, CellSource::Simulated));
                }
            }
        }
    }

    /// Like [`SimCache::run_cell_traced`], but guarantees the predictions
    /// are present (re-simulating without caching when the budget
    /// dropped them).
    pub fn run_cell_full_traced(
        &self,
        arena: &JobArena,
        cluster: ClusterSpec,
        triple: &HeuristicTriple,
    ) -> Result<(TripleResult, Arc<Vec<i64>>, CellSource), ScenarioError> {
        let (cell, source) = self.run_cell_traced(arena, cluster, triple)?;
        if let Some(predictions) = cell.predictions {
            return Ok((cell.result, predictions, source));
        }
        self.simulated.fetch_add(1, Ordering::Relaxed);
        let sim = self.simulate_isolated(triple, arena, cluster, &mut NullObserver)?;
        let predictions: Vec<i64> = sim.outcomes.iter().map(|o| o.initial_prediction).collect();
        Ok((cell.result, Arc::new(predictions), CellSource::Simulated))
    }

    /// Installs a finished cell into its shard, enforcing the shard's
    /// prediction-budget slice. Replacing an existing cell refunds its
    /// vector first (budget-neutral re-insert).
    fn install(&self, key: CellKey, mut cell: CachedCell) {
        let mut shard = self.shard(&key).lock().expect("cache shard lock");
        if let Some(Slot::Ready(old)) = shard.cells.get(&key) {
            if let Some(old_predictions) = &old.predictions {
                shard.prediction_budget += old_predictions.len();
            }
        }
        if let Some(predictions) = &cell.predictions {
            if shard.prediction_budget >= predictions.len() {
                shard.prediction_budget -= predictions.len();
            } else {
                cell.predictions = None;
            }
        }
        shard.cells.insert(key, Slot::Ready(cell));
    }

    /// Name of the LRU index file inside a persistent cache directory.
    pub const INDEX_NAME: &'static str = "index.json";

    /// A collision-free temp path next to `path`: pid + per-process
    /// sequence, so concurrent threads *and* concurrent processes
    /// sharing one cache directory each write their own temp file and
    /// the final rename stays atomic-or-nothing.
    fn unique_tmp(&self, path: &Path) -> PathBuf {
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let mut name = path.as_os_str().to_owned();
        name.push(format!(".{}-{}.tmp", std::process::id(), seq));
        PathBuf::from(name)
    }

    /// Crash-consistent atomic write: serialize to a unique temp file,
    /// sync it to the platter, rename into place, then best-effort sync
    /// the directory so the rename itself survives a crash. A failure
    /// at any step removes the temp file and leaves whatever `path`
    /// held before — a torn write can never shadow good data. Transient
    /// errors are absorbed by the bounded retry at both fault sites.
    fn write_atomic(
        &self,
        path: &Path,
        contents: &str,
        write_site: &str,
        rename_site: &str,
    ) -> std::io::Result<()> {
        let tmp = self.unique_tmp(path);
        let written = self.with_disk_retry(write_site, || {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(contents.as_bytes())?;
            // The data must be durable *before* the rename publishes
            // the name, or a crash can expose an empty/torn file under
            // the final path.
            file.sync_all()
        });
        if let Err(err) = written {
            let _ = std::fs::remove_file(&tmp);
            return Err(err);
        }
        if let Err(err) = self.with_disk_retry(rename_site, || std::fs::rename(&tmp, path)) {
            let _ = std::fs::remove_file(&tmp);
            return Err(err);
        }
        if let Some(parent) = path.parent() {
            // Not every filesystem lets a directory be opened/synced;
            // the rename is already atomic, this only tightens crash
            // durability where supported.
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    }

    /// Persists the LRU index (call with fresh index state; takes the
    /// persist lock only long enough to snapshot it). A failed flush
    /// leaves the previous `index.json` intact — the index is
    /// bookkeeping and the next attach reconciles it with the
    /// directory, so losing one flush costs recency, never cells.
    fn save_index(&self, dir: &Path, index: &DiskIndex) {
        if self.disk_degraded() {
            return;
        }
        if let Ok(json) = serde_json::to_string(index) {
            match self.write_atomic(
                &dir.join(Self::INDEX_NAME),
                &json,
                "index.flush",
                "index.flush",
            ) {
                Ok(()) => self.disk_ok(),
                Err(err) => self.disk_hard_failure("index flush", &err),
            }
        }
    }

    fn load_disk(&self, key: &CellKey) -> Option<CachedCell> {
        if self.disk_degraded() {
            return None;
        }
        let dir = self
            .persist
            .lock()
            .expect("cache persist lock")
            .dir
            .clone()?;
        let file_name = key.file_name();
        let path = dir.join(&file_name);
        let text = match self.with_disk_retry("cache.read", || std::fs::read_to_string(&path)) {
            Ok(text) => {
                self.disk_ok();
                text
            }
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
                // No file: a plain miss. Deliberately *not* a streak
                // reset — a NotFound probe completes without moving any
                // data, so it proves nothing about a disk whose writes
                // are failing (read-only mounts and full disks answer
                // probes just fine). Drop any stale index entry so the
                // LRU accounting stays honest after an external
                // deletion.
                let mut persist = self.persist.lock().expect("cache persist lock");
                persist.forget(&file_name);
                return None;
            }
            Err(err) => {
                // Unreadable beyond retry: miss (the cell re-simulates)
                // and one step down the degradation ladder. The index
                // entry stays — the file is probably still there.
                self.disk_hard_failure("cell read", &err);
                return None;
            }
        };
        // Verify both the encoding and the full key: a truncated write,
        // a file-name hash collision or a stale entry must never serve
        // the wrong cell — and must not be silently re-read (and
        // re-missed) every run. Reject: count, delete, re-simulate.
        let verified = serde_json::from_str::<DiskCell>(&text).ok().filter(|disk| {
            disk.fingerprint == key.fingerprint
                && disk.cluster == key.cluster
                && disk.triple == key.triple
        });
        let Some(disk) = verified else {
            self.disk_rejects.fetch_add(1, Ordering::Relaxed);
            // Best-effort delete: if it fails the file is simply
            // rejected again next run.
            let _ = self.with_disk_retry("cache.remove", || std::fs::remove_file(&path));
            let mut persist = self.persist.lock().expect("cache persist lock");
            persist.forget(&file_name);
            let index = persist.index.clone();
            drop(persist);
            self.save_index(&dir, &index);
            return None;
        };
        let mut persist = self.persist.lock().expect("cache persist lock");
        persist.touch(&file_name, text.len() as u64);
        Some(CachedCell {
            result: disk.result,
            predictions: Some(Arc::new(disk.predictions)),
        })
    }

    fn store_disk(&self, key: &CellKey, cell: &CachedCell) {
        if self.disk_degraded() {
            return;
        }
        let Some(dir) = self.persist.lock().expect("cache persist lock").dir.clone() else {
            return;
        };
        let Some(predictions) = &cell.predictions else {
            return; // only complete cells are persisted
        };
        let disk = DiskCell {
            fingerprint: key.fingerprint,
            cluster: key.cluster.clone(),
            triple: key.triple.clone(),
            result: cell.result.clone(),
            predictions: predictions.as_ref().clone(),
        };
        let file_name = key.file_name();
        let path = dir.join(&file_name);
        // Persistence is best-effort: a read-only or full disk must not
        // fail the experiment, only forgo the cache.
        let _ = std::fs::create_dir_all(&dir);
        let Ok(json) = serde_json::to_string(&disk) else {
            return;
        };
        match self.write_atomic(&path, &json, "cache.write", "cache.rename") {
            Ok(()) => self.disk_ok(),
            Err(err) => {
                self.disk_hard_failure("cell write", &err);
                return;
            }
        }
        // Account the write in the LRU index, then evict past-budget
        // cells — least-recently-used first, never cells this run
        // touched.
        let mut persist = self.persist.lock().expect("cache persist lock");
        persist.forget(&file_name);
        persist.touch(&file_name, json.len() as u64);
        let mut evicted: Vec<PathBuf> = Vec::new();
        while persist.total_bytes > persist.budget {
            let run_floor = persist.run_floor;
            let victim = persist
                .index
                .entries
                .iter()
                .filter(|(_, e)| e.last_use < run_floor)
                .min_by_key(|(name, e)| (e.last_use, (*name).clone()))
                .map(|(name, _)| name.clone());
            let Some(victim) = victim else {
                break; // only mid-run entries remain: never evict those
            };
            persist.forget(&victim);
            evicted.push(dir.join(&victim));
        }
        let index = persist.index.clone();
        drop(persist);
        for path in &evicted {
            let _ = self.with_disk_retry("cache.remove", || std::fs::remove_file(path));
        }
        self.disk_evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        self.save_index(&dir, &index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::triple::Variant;
    use predictsim_workload::{generate, WorkloadSpec};

    fn tiny_arena(seed: u64) -> (JobArena, ClusterSpec) {
        let mut spec = WorkloadSpec::toy();
        spec.jobs = 200;
        spec.duration = 2 * 86_400;
        let w = generate(&spec, seed);
        (JobArena::new(w.jobs), ClusterSpec::single(w.machine_size))
    }

    /// A private cache instance (the global one is shared across tests).
    fn private() -> SimCache {
        SimCache::new()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("predictsim-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn summary_line_format_is_append_only() {
        // The CI smokes anchor on the `simulated=` prefix and on
        // ` field=value ` substrings: existing fields must never move,
        // new fields only ever append. This pin is the contract.
        let stats = CacheStats {
            simulated: 1,
            memory_hits: 2,
            disk_hits: 3,
            coalesced: 4,
            disk_rejects: 5,
            disk_evictions: 6,
            disk_retries: 7,
            panicked_cells: 8,
            degraded: true,
        };
        assert_eq!(
            stats.summary_line(),
            "cache summary: simulated=1 memory_hits=2 disk_hits=3 coalesced=4 \
             disk_rejects=5 evicted=6 disk_retries=7 degraded=1 panicked_cells=8"
        );
        let quiet = CacheStats::default().summary_line();
        assert!(
            quiet.ends_with("disk_retries=0 degraded=0 panicked_cells=0"),
            "{quiet}"
        );
    }

    #[test]
    fn second_lookup_is_a_memory_hit_with_identical_payload() {
        let cache = private();
        let (arena, m) = tiny_arena(3);
        let triple = HeuristicTriple::easy_plus_plus();
        let (fresh, src) = cache.run_cell_traced(&arena, m, &triple).unwrap();
        assert_eq!(src, CellSource::Simulated);
        let (again, src) = cache.run_cell_traced(&arena, m, &triple).unwrap();
        assert_eq!(src, CellSource::Memory);
        assert_eq!(fresh.result, again.result);
        assert_eq!(fresh.predictions.as_deref(), again.predictions.as_deref());
        let stats = cache.stats();
        assert_eq!(stats.simulated, 1);
        assert_eq!(stats.memory_hits, 1);
        assert_eq!(stats.disk_hits, 0);
        assert_eq!(stats.coalesced, 0);
    }

    #[test]
    fn cached_aggregates_match_a_direct_simulation() {
        let cache = private();
        let (arena, m) = tiny_arena(4);
        let triple = HeuristicTriple::standard_easy();
        let cell = cache.run_cell(&arena, m, &triple).unwrap();
        let sim = Scenario::from_triple(&triple)
            .run_on(&arena, predictsim_sim::SimConfig { cluster: m })
            .unwrap();
        assert_eq!(cell.result, TripleResult::from_sim(&triple, &sim));
        let predictions: Vec<i64> = sim.outcomes.iter().map(|o| o.initial_prediction).collect();
        assert_eq!(
            cell.predictions.as_deref().map(|p| p.as_slice()),
            Some(predictions.as_slice())
        );
    }

    #[test]
    fn distinct_workloads_and_triples_do_not_collide() {
        let cache = private();
        let (a, ma) = tiny_arena(5);
        let (b, mb) = tiny_arena(6);
        assert_ne!(a.fingerprint(), b.fingerprint());
        let easy = HeuristicTriple::standard_easy();
        let clair = HeuristicTriple::clairvoyant(Variant::Easy);
        let cells = [
            cache.run_cell(&a, ma, &easy).unwrap(),
            cache.run_cell(&b, mb, &easy).unwrap(),
            cache.run_cell(&a, ma, &clair).unwrap(),
        ];
        assert_eq!(cache.stats().simulated, 3, "three distinct cells");
        assert_ne!(cells[0].result.ave_bsld, cells[2].result.ave_bsld);
    }

    #[test]
    fn equal_total_clusters_are_distinct_cells() {
        // Two cluster specs with the same total processor count — the
        // legacy single machine and a half-speed single partition — must
        // never alias: each gets its own simulation, in memory and on
        // disk (the key is the canonical cluster string, not the total).
        let cache = private();
        let (arena, legacy) = tiny_arena(14);
        let slow: ClusterSpec = format!("cluster:{}x0.5", legacy.total_procs())
            .parse()
            .unwrap();
        assert_eq!(legacy.total_procs(), slow.total_procs());
        assert_ne!(legacy.fingerprint(), slow.fingerprint());
        // Equal totals with different partitioning also fingerprint apart.
        let split: ClusterSpec = "cluster:32x1+32x1".parse().unwrap();
        assert_eq!(split.total_procs(), ClusterSpec::single(64).total_procs());
        assert_ne!(split.fingerprint(), ClusterSpec::single(64).fingerprint());

        let triple = HeuristicTriple::standard_easy();
        cache.run_cell(&arena, legacy, &triple).unwrap();
        cache.run_cell(&arena, slow, &triple).unwrap();
        assert_eq!(
            cache.stats().simulated,
            2,
            "equal-total specs must not share a cell"
        );
        assert_eq!(cache.stats().hits(), 0);
        // And each spec is a hit against itself.
        cache.run_cell(&arena, slow, &triple).unwrap();
        assert_eq!(cache.stats().memory_hits, 1);
    }

    #[test]
    fn persistent_layer_round_trips_and_verifies_keys() {
        let dir = temp_dir("roundtrip");
        let (arena, m) = tiny_arena(7);
        let triple = HeuristicTriple::easy_plus_plus();

        let writer = private();
        writer.set_persist_dir(Some(dir.clone()));
        let fresh = writer.run_cell(&arena, m, &triple).unwrap();
        assert_eq!(writer.stats().simulated, 1);

        // A new process (modeled by a new cache instance) reads it back.
        let reader = private();
        reader.set_persist_dir(Some(dir.clone()));
        let recalled = reader.run_cell(&arena, m, &triple).unwrap();
        assert_eq!(reader.stats().simulated, 0, "disk must serve the cell");
        assert_eq!(reader.stats().disk_hits, 1);
        assert_eq!(recalled.result, fresh.result);
        assert_eq!(
            recalled.predictions.as_deref(),
            fresh.predictions.as_deref()
        );

        // A different workload misses (and must not be served the file).
        let (other, mo) = tiny_arena(8);
        reader.run_cell(&other, mo, &triple).unwrap();
        assert_eq!(reader.stats().simulated, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_budget_still_persists_full_cells_to_disk() {
        let dir = temp_dir("budget-disk");
        let (arena, m) = tiny_arena(11);
        let triple = HeuristicTriple::standard_easy();

        let writer = private();
        writer.set_persist_dir(Some(dir.clone()));
        writer.set_prediction_budget(0); // memory budget gone
        let fresh = writer.run_cell(&arena, m, &triple).unwrap();

        // The disk layer has no prediction budget: a fresh process must
        // still be served the complete cell without simulating.
        let reader = private();
        reader.set_persist_dir(Some(dir.clone()));
        let recalled = reader.run_cell(&arena, m, &triple).unwrap();
        assert_eq!(reader.stats().simulated, 0);
        assert_eq!(reader.stats().disk_hits, 1);
        assert_eq!(recalled.result, fresh.result);
        assert_eq!(
            recalled.predictions.as_deref(),
            fresh.predictions.as_deref()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_budget_drops_predictions_but_keeps_aggregates() {
        let cache = private();
        cache.set_prediction_budget(10); // tiny budget
        let (arena, m) = tiny_arena(9);
        let triple = HeuristicTriple::standard_easy();
        let cell = cache.run_cell(&arena, m, &triple).unwrap();
        assert!(cell.predictions.is_some(), "caller still gets them");
        let again = cache.run_cell(&arena, m, &triple).unwrap();
        assert!(again.predictions.is_none(), "budget dropped the vector");
        assert_eq!(again.result, cell.result);
        // run_cell_full_traced re-simulates to recover them.
        let (result, predictions, source) = cache.run_cell_full_traced(&arena, m, &triple).unwrap();
        assert_eq!(source, CellSource::Simulated);
        assert_eq!(result, cell.result);
        assert_eq!(
            Some(predictions.as_slice()),
            cell.predictions.as_deref().map(|p| p.as_slice())
        );
    }

    /// Re-inserting a key must refund the replaced cell's prediction
    /// vector before charging the new one: the budget is neutral across
    /// double-inserts (the pre-sharding cache leaked it until
    /// `clear_memory`).
    #[test]
    fn reinsert_is_prediction_budget_neutral() {
        let (arena, m) = tiny_arena(16);
        let triple = HeuristicTriple::easy_plus_plus();
        let sim = Scenario::from_triple(&triple)
            .run_on(&arena, predictsim_sim::SimConfig { cluster: m })
            .unwrap();
        let predictions: Vec<i64> = sim.outcomes.iter().map(|o| o.initial_prediction).collect();
        let cell = CachedCell {
            result: TripleResult::from_sim(&triple, &sim),
            predictions: Some(Arc::new(predictions.clone())),
        };
        let key = CellKey::new(&arena, m, &triple);

        let cache = private();
        let full = cache.prediction_budget_remaining();
        cache.install(key.clone(), cell.clone());
        let after_first = cache.prediction_budget_remaining();
        assert_eq!(after_first, full - predictions.len());
        // Same key again (two leaders racing across a `clear_memory`):
        // spend must not double.
        cache.install(key, cell);
        assert_eq!(
            cache.prediction_budget_remaining(),
            after_first,
            "double insert must be budget-neutral"
        );
        // And clearing restores the full budget exactly.
        cache.clear_memory();
        assert_eq!(
            cache.prediction_budget_remaining(),
            SimCache::PREDICTION_BUDGET
        );
    }

    /// A truncated (or otherwise unparseable) cache file is rejected:
    /// counted, deleted, and the cell re-simulated exactly once — after
    /// which the rewritten file serves future runs again.
    #[test]
    fn corrupt_cache_file_is_rejected_deleted_and_resimulated() {
        let dir = temp_dir("corrupt");
        let (arena, m) = tiny_arena(21);
        let triple = HeuristicTriple::standard_easy();

        let writer = private();
        writer.set_persist_dir(Some(dir.clone()));
        let fresh = writer.run_cell(&arena, m, &triple).unwrap();

        // Truncate the cell file mid-JSON.
        let key = CellKey::new(&arena, m, &triple);
        let path = dir.join(key.file_name());
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();

        let reader = private();
        reader.set_persist_dir(Some(dir.clone()));
        let recovered = reader.run_cell(&arena, m, &triple).unwrap();
        let stats = reader.stats();
        assert_eq!(stats.disk_rejects, 1, "corrupt file must be counted");
        assert_eq!(stats.disk_hits, 0);
        assert_eq!(stats.simulated, 1, "the cell re-simulates once");
        assert_eq!(recovered.result, fresh.result);

        // The rewritten file is valid again for a third process.
        let third = private();
        third.set_persist_dir(Some(dir.clone()));
        third.run_cell(&arena, m, &triple).unwrap();
        assert_eq!(third.stats().disk_hits, 1);
        assert_eq!(third.stats().disk_rejects, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A parseable file whose embedded key disagrees with its name
    /// (hash collision or a stale/foreign entry) is rejected the same
    /// way, not served and not left to be re-read every run.
    #[test]
    fn key_mismatched_cache_file_is_rejected() {
        let dir = temp_dir("mismatch");
        let (arena, m) = tiny_arena(22);
        let (other, mo) = tiny_arena(23);
        let triple = HeuristicTriple::standard_easy();

        let writer = private();
        writer.set_persist_dir(Some(dir.clone()));
        writer.run_cell(&other, mo, &triple).unwrap();

        // Masquerade the other workload's cell as this workload's file.
        let theirs = dir.join(CellKey::new(&other, mo, &triple).file_name());
        let ours = dir.join(CellKey::new(&arena, m, &triple).file_name());
        std::fs::copy(&theirs, &ours).unwrap();

        let reader = private();
        reader.set_persist_dir(Some(dir.clone()));
        reader.run_cell(&arena, m, &triple).unwrap();
        assert_eq!(reader.stats().disk_rejects, 1);
        assert_eq!(reader.stats().simulated, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The disk layer's LRU: past the size budget, the least recently
    /// used cells of *previous* runs are evicted; cells touched by the
    /// current run never are.
    #[test]
    fn disk_layer_evicts_lru_past_budget_but_never_current_run_cells() {
        let dir = temp_dir("lru");
        let (a, ma) = tiny_arena(24);
        let (b, mb) = tiny_arena(25);
        let (c, mc) = tiny_arena(26);
        let triple = HeuristicTriple::standard_easy();

        // Run 1: store A then B (B more recently used), generous budget.
        let run1 = private();
        run1.set_persist_dir(Some(dir.clone()));
        run1.run_cell(&a, ma, &triple).unwrap();
        run1.run_cell(&b, mb, &triple).unwrap();
        let file_a = dir.join(CellKey::new(&a, ma, &triple).file_name());
        let file_b = dir.join(CellKey::new(&b, mb, &triple).file_name());
        assert!(file_a.exists() && file_b.exists());

        // Run 2: a budget that fits roughly one cell. Touch B (making
        // it a current-run cell), then store C: A — the LRU entry from
        // a previous run — must be evicted; B and C must survive.
        let cell_bytes = std::fs::metadata(&file_a).unwrap().len();
        let run2 = private();
        run2.set_persist_dir(Some(dir.clone()));
        run2.set_disk_budget(2 * cell_bytes);
        run2.run_cell(&b, mb, &triple).unwrap(); // disk hit: touches B
        run2.run_cell(&c, mc, &triple).unwrap(); // store pushes past budget
        let file_c = dir.join(CellKey::new(&c, mc, &triple).file_name());
        assert!(!file_a.exists(), "LRU cell from a previous run evicted");
        assert!(file_b.exists(), "cell touched by the current run kept");
        assert!(file_c.exists(), "the fresh cell is kept");
        assert_eq!(run2.stats().disk_evictions, 1);

        // Even a zero budget never evicts current-run cells.
        let run3 = private();
        run3.set_persist_dir(Some(dir.clone()));
        run3.set_disk_budget(0);
        run3.run_cell(&a, ma, &triple).unwrap(); // re-simulates, stores A
        assert!(file_a.exists(), "the cell this run wrote is protected");
        assert!(
            !file_b.exists() && !file_c.exists(),
            "previous-run cells go"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Temp files are unique and never left behind: after any mix of
    /// stores, the directory holds only final `cell-*.json` files and
    /// the index.
    #[test]
    fn stores_leave_no_temp_files() {
        let dir = temp_dir("tmpfiles");
        let (a, ma) = tiny_arena(27);
        let (b, mb) = tiny_arena(28);
        let cache = private();
        cache.set_persist_dir(Some(dir.clone()));
        cache
            .run_cell(&a, ma, &HeuristicTriple::standard_easy())
            .unwrap();
        cache
            .run_cell(&b, mb, &HeuristicTriple::easy_plus_plus())
            .unwrap();
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            assert!(
                !name.ends_with(".tmp"),
                "temp file {name} must not survive a store"
            );
        }
        // And stale temp litter from a crashed writer is swept when the
        // directory is (re)opened.
        std::fs::write(dir.join("cell-dead.json.999-0.tmp"), "torn").unwrap();
        let reopened = private();
        reopened.set_persist_dir(Some(dir.clone()));
        assert!(!dir.join("cell-dead.json.999-0.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The observed miss path sees the simulation's events and produces
    /// the same cell as the unobserved path; hits replay nothing.
    #[test]
    fn observed_path_streams_events_only_on_misses() {
        let cache = private();
        let (arena, m) = tiny_arena(31);
        let triple = HeuristicTriple::standard_easy();
        let mut metrics = predictsim_sim::MetricsObserver::new(m.total_procs());
        let (cell, src) = cache
            .run_cell_observed_traced(&arena, m, &triple, &mut metrics)
            .unwrap();
        assert_eq!(src, CellSource::Simulated);
        assert_eq!(metrics.finished(), arena.len());
        assert!((metrics.ave_bsld() - cell.result.ave_bsld).abs() < 1e-9);
        // Second call hits memory: the observer stays silent.
        let mut silent = predictsim_sim::MetricsObserver::new(m.total_procs());
        let (again, src) = cache
            .run_cell_observed_traced(&arena, m, &triple, &mut silent)
            .unwrap();
        assert_eq!(src, CellSource::Memory);
        assert_eq!(silent.finished(), 0);
        assert_eq!(again.result, cell.result);
    }

    /// A cancelling observer aborts the leader, withdraws the lease, and
    /// leaves the cell re-runnable.
    #[test]
    fn observed_cancellation_aborts_and_releases_the_cell() {
        struct CancelAfter {
            left: u32,
        }
        impl SimObserver for CancelAfter {
            fn on_event(&mut self, _event: &predictsim_sim::SimEvent<'_>) {
                self.left = self.left.saturating_sub(1);
            }
            fn keep_running(&self) -> bool {
                self.left > 0
            }
        }
        let cache = private();
        let (arena, m) = tiny_arena(32);
        let triple = HeuristicTriple::standard_easy();
        let mut cancel = CancelAfter { left: 5 };
        let err = cache
            .run_cell_observed_traced(&arena, m, &triple, &mut cancel)
            .unwrap_err();
        assert!(
            matches!(
                err,
                ScenarioError::Sim(predictsim_sim::SimError::Aborted { .. })
            ),
            "got {err:?}"
        );
        // The withdrawn lease does not wedge the cell: a fresh request
        // simulates it to completion.
        let (_, src) = cache.run_cell_traced(&arena, m, &triple).unwrap();
        assert_eq!(src, CellSource::Simulated);
        assert_eq!(cache.stats().simulated, 2, "abort still counted as work");
    }

    /// `flush_persistent` writes the index immediately — the SIGINT path
    /// for runs that would otherwise lose in-memory recency updates.
    #[test]
    fn flush_persistent_saves_index_and_sweeps_own_tmp() {
        let dir = temp_dir("flush");
        let (arena, m) = tiny_arena(33);
        let cache = private();
        cache.set_persist_dir(Some(dir.clone()));
        cache
            .run_cell(&arena, m, &HeuristicTriple::standard_easy())
            .unwrap();
        let index_path = dir.join(SimCache::INDEX_NAME);
        std::fs::remove_file(&index_path).unwrap();
        // A stranded temp file from *this* process (as after a kill
        // between write and rename).
        let tmp = dir.join(format!("cell-x.json.{}-999.tmp", std::process::id()));
        std::fs::write(&tmp, "torn").unwrap();
        cache.flush_persistent();
        assert!(index_path.exists(), "index rewritten on flush");
        assert!(!tmp.exists(), "own temp litter swept on flush");
        let text = std::fs::read_to_string(&index_path).unwrap();
        let index: DiskIndex = serde_json::from_str(&text).unwrap();
        assert_eq!(index.entries.len(), 1);
        // Without a persistent directory the flush is a no-op.
        private().flush_persistent();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
