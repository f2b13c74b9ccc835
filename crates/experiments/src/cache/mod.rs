//! Process-wide simulation memoization — single-flight, with an opt-in
//! persistent layer.
//!
//! The repro pipeline re-simulates the same (workload × policy triple)
//! cells from several experiments: the campaign grid is re-read by
//! cross-validation, Table 1 runs two of the campaign's cells per log,
//! Table 8 and Figures 4/5 re-run campaign cells on Curie, and the
//! ablations overlap the grid on the first log. [`SimCache`] keys each
//! simulated cell by (workload [fingerprint](JobArena::fingerprint) ×
//! canonical triple name × canonical [`ClusterSpec`] string) and
//! memoizes the cell's aggregate [`TripleResult`] — what every table
//! and Figure 3 read — so every distinct cell simulates **once per
//! process**, whichever experiment asks first. The per-job initial
//! predictions, read only by the Figure 4/5 ECDFs, go with the cell to
//! the caller that simulated it and to its cell file, not into memory
//! (see [`CachedCell::predictions`]).
//!
//! This module owns the cell identity, the `run_cell*` entry points,
//! panic isolation and the cell counters; how a cell is *stored* is the
//! business of the two layers below it. `memory` is the one-lock,
//! single-flight in-memory map of aggregates; `disk` is the persistent
//! directory (`repro --cache DIR`): crash-consistent writes and the
//! retry / degrade-to-memory fault ladder, over `codec`, which owns the
//! cell-file format and checks the key as it reads.
//!
//! # Panic isolation
//!
//! The miss path catches panics out of the simulation
//! (`catch_unwind` + bounded retry, [`CacheStats::panicked_cells`]),
//! surfacing a genuinely poisoned cell as
//! [`ScenarioError::CellPanicked`] after the lease has withdrawn its
//! marker and released coalesced waiters.

mod codec;
mod disk;
mod memory;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use predictsim_sim::{ClusterSpec, NullObserver, SimObserver};

use self::disk::DiskStore;
use self::memory::{Claim, Memory};
use crate::campaign::TripleResult;
use crate::scenario::ScenarioError;
use crate::source::JobArena;
use crate::triple::HeuristicTriple;

/// One memoized simulation cell.
#[derive(Debug, Clone)]
pub struct CachedCell {
    /// The cell's aggregate metrics (bit-identical to a fresh
    /// [`TripleResult::from_sim`]).
    pub result: TripleResult,
    /// The clamped initial prediction of every job, by dense job id.
    /// Present on the call that simulated the cell or read it from disk
    /// ([`CellSource::Simulated`] / [`CellSource::Disk`]); `None` on an
    /// answer from memory ([`CellSource::Memory`] /
    /// [`CellSource::Coalesced`]), which keeps aggregates only —
    /// [`SimCache::run_cell_full_traced`] recovers the vector.
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

    /// FNV-1a over the key's fields — names the persistent file.
    fn fnv(&self) -> u64 {
        predictsim_sim::hash::fnv1a64(
            self.fingerprint
                .to_le_bytes()
                .into_iter()
                .chain(self.cluster.bytes())
                .chain(self.triple.bytes()),
        )
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
            disk_retries: self.disk_retries - earlier.disk_retries,
            panicked_cells: self.panicked_cells - earlier.panicked_cells,
            // A state flag, not a counter: report the current state.
            degraded: self.degraded,
        }
    }

    /// Every field under its rendered name, in the pinned order of
    /// [`CacheStats::summary_line`] and the serve `stats` frame: new
    /// fields are **append-only** (tooling anchors on the `simulated=`
    /// prefix and on ` field=value ` substrings, so existing fields
    /// must never move or change spelling).
    pub fn fields(&self) -> [(&'static str, u64); 8] {
        [
            ("simulated", self.simulated),
            ("memory_hits", self.memory_hits),
            ("disk_hits", self.disk_hits),
            ("coalesced", self.coalesced),
            ("disk_rejects", self.disk_rejects),
            ("disk_retries", self.disk_retries),
            ("degraded", u64::from(self.degraded)),
            ("panicked_cells", self.panicked_cells),
        ]
    }

    /// The canonical one-line rendering used by `repro` and pinned by a
    /// format test.
    pub fn summary_line(&self) -> String {
        let mut line = String::from("cache summary:");
        for (name, value) in self.fields() {
            let _ = write!(line, " {name}={value}");
        }
        line
    }
}

/// The process-wide simulation cache — see the module docs.
pub struct SimCache {
    memory: Memory,
    disk: DiskStore,
    simulated: AtomicU64,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    coalesced: AtomicU64,
    panicked_cells: AtomicU64,
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

impl Default for SimCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SimCache {
    /// Consecutive hard disk failures after which the persistent layer
    /// degrades to memory-only for the rest of the attach (warned once;
    /// the campaign continues, and the next healthy
    /// [`SimCache::set_persist_dir`] restores persistence and with it
    /// resumability).
    pub const HARD_FAILURE_LIMIT: u64 = disk::HARD_FAILURE_LIMIT;

    /// Simulation attempts per cell before a caught panic stops being
    /// retried and surfaces as [`ScenarioError::CellPanicked`].
    pub const PANIC_RETRIES: u32 = 3;

    /// An independent cache instance (tests, `bench/`, embedding several
    /// cache domains). Experiments route through [`SimCache::global`].
    pub fn new() -> Self {
        Self {
            memory: Memory::new(),
            disk: DiskStore::new(),
            simulated: AtomicU64::new(0),
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            panicked_cells: AtomicU64::new(0),
        }
    }

    /// The process-wide instance every experiment routes through.
    pub fn global() -> &'static SimCache {
        GLOBAL.get_or_init(SimCache::new)
    }

    /// Enables (or disables, with `None`) the persistent layer. Created
    /// lazily on first write; existing entries are picked up on misses.
    /// Sweeps stale `*.tmp` files crashed writers left in the directory,
    /// and clears any degradation of the disk layer.
    pub fn set_persist_dir(&self, dir: Option<PathBuf>) {
        self.disk.attach(dir);
    }

    /// Sweeps this process's leftover `*.tmp` files out of the
    /// persistent directory — the graceful-shutdown path. Cells need no
    /// flushing: each is durable before its lookup returns. No-op
    /// without a persistent directory.
    pub fn flush_persistent(&self) {
        self.disk.flush();
    }

    /// Drops every finished in-memory cell (the persistent directory, if
    /// any, is untouched). A cell in flight keeps its marker, so a
    /// request for it made after the clear still waits for that
    /// simulation instead of starting a second one. Intended for tests
    /// that must observe *fresh* simulations — e.g. the pool-width
    /// determinism suites, which would otherwise compare a simulation
    /// against its own memoized result.
    pub fn clear_memory(&self) {
        self.memory.clear();
    }

    /// Cumulative accounting since process start.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            simulated: self.simulated.load(Ordering::Relaxed),
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            panicked_cells: self.panicked_cells.load(Ordering::Relaxed),
            ..self.disk.stats()
        }
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

    /// Runs (or recalls) one cell: `triple` on the `arena` workload on
    /// `cluster`, reporting which layer served it. The returned
    /// aggregates are byte-identical to a fresh simulation's whichever
    /// layer serves them.
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
    /// is withdrawn, and one of any coalesced waiters becomes the next
    /// leader. Progress heartbeats (`--progress`) and the serve
    /// daemon's streamed `metrics` frames and deadline / disconnect /
    /// drain cancellation ride this path; an aborted run counts in
    /// [`CacheStats::simulated`] and stores nothing.
    pub fn run_cell_observed_traced(
        &self,
        arena: &JobArena,
        cluster: ClusterSpec,
        triple: &HeuristicTriple,
        observer: &mut dyn SimObserver,
    ) -> Result<(CachedCell, CellSource), ScenarioError> {
        let key = CellKey::new(arena, cluster, triple);
        let lease = match self.memory.claim(&key) {
            Claim::Hit { result, coalesced } => {
                self.memory_hits.fetch_add(1, Ordering::Relaxed);
                let source = if coalesced {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    CellSource::Coalesced
                } else {
                    CellSource::Memory
                };
                // Memory answers with aggregates only.
                let cell = CachedCell {
                    result,
                    predictions: None,
                };
                return Ok((cell, source));
            }
            Claim::Lead(lease) => lease,
        };
        // Disk probe and simulation both run outside the memory lock;
        // only same-cell requesters wait.
        if let Some(cell) = self.disk.load(&key) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            lease.fulfill(cell.result.clone());
            return Ok((cell, CellSource::Disk));
        }
        self.simulated.fetch_add(1, Ordering::Relaxed);
        // On error the lease drop withdraws the marker and wakes the
        // waiters before `?` propagates. A panicking cell is caught and
        // retried inside `simulate_isolated`; `simulated` still counts
        // the miss once — it is a true-work count of cells, not of
        // attempts.
        let sim = self.simulate_isolated(triple, arena, cluster, observer)?;
        let result = TripleResult::from_sim(triple, &sim);
        let predictions: Vec<i64> = sim.outcomes.iter().map(|o| o.initial_prediction).collect();
        crate::scenario::reclaim_outcomes(sim.outcomes);
        let cell = CachedCell {
            result,
            predictions: Some(Arc::new(predictions)),
        };
        // The file gets the whole cell, memory only the aggregates.
        self.disk.store(&key, &cell);
        lease.fulfill(cell.result.clone());
        Ok((cell, CellSource::Simulated))
    }

    /// Like [`SimCache::run_cell_traced`], but guarantees the predictions
    /// are present: an answer from memory carries none, so they are read
    /// back from the cell file (counted as a disk hit) or, with no valid
    /// file, re-simulated without caching.
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
        let on_disk = self.disk.load(&CellKey::new(arena, cluster, triple));
        if let Some(predictions) = on_disk.and_then(|cell| cell.predictions) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((cell.result, predictions, CellSource::Disk));
        }
        self.simulated.fetch_add(1, Ordering::Relaxed);
        let sim = self.simulate_isolated(triple, arena, cluster, &mut NullObserver)?;
        let predictions: Vec<i64> = sim.outcomes.iter().map(|o| o.initial_prediction).collect();
        crate::scenario::reclaim_outcomes(sim.outcomes);
        Ok((cell.result, Arc::new(predictions), CellSource::Simulated))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::triple::Variant;
    use predictsim_workload::{generate, WorkloadSpec};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;

    pub(super) fn tiny_arena(seed: u64) -> (JobArena, ClusterSpec) {
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

    pub(super) fn temp_dir(tag: &str) -> PathBuf {
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
            disk_retries: 7,
            panicked_cells: 8,
            degraded: true,
        };
        assert_eq!(
            stats.summary_line(),
            "cache summary: simulated=1 memory_hits=2 disk_hits=3 coalesced=4 \
             disk_rejects=5 disk_retries=7 degraded=1 panicked_cells=8"
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
        assert!(fresh.predictions.is_some(), "the simulating call gets them");
        assert!(again.predictions.is_none(), "memory keeps aggregates only");
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
        let cell = cache.run_cell_traced(&arena, m, &triple).unwrap().0;
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
            cache.run_cell_traced(&a, ma, &easy).unwrap().0,
            cache.run_cell_traced(&b, mb, &easy).unwrap().0,
            cache.run_cell_traced(&a, ma, &clair).unwrap().0,
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
        cache.run_cell_traced(&arena, legacy, &triple).unwrap();
        cache.run_cell_traced(&arena, slow, &triple).unwrap();
        assert_eq!(
            cache.stats().simulated,
            2,
            "equal-total specs must not share a cell"
        );
        assert_eq!(cache.stats().hits(), 0);
        // And each spec is a hit against itself.
        cache.run_cell_traced(&arena, slow, &triple).unwrap();
        assert_eq!(cache.stats().memory_hits, 1);
    }

    #[test]
    fn persistent_layer_round_trips_and_verifies_keys() {
        let dir = temp_dir("roundtrip");
        let (arena, m) = tiny_arena(7);
        let triple = HeuristicTriple::easy_plus_plus();

        let writer = private();
        writer.set_persist_dir(Some(dir.clone()));
        let fresh = writer.run_cell_traced(&arena, m, &triple).unwrap().0;
        assert_eq!(writer.stats().simulated, 1);

        // A new process (modeled by a new cache instance) reads it back.
        let reader = private();
        reader.set_persist_dir(Some(dir.clone()));
        let recalled = reader.run_cell_traced(&arena, m, &triple).unwrap().0;
        assert_eq!(reader.stats().simulated, 0, "disk must serve the cell");
        assert_eq!(reader.stats().disk_hits, 1);
        assert_eq!(recalled.result, fresh.result);
        assert_eq!(
            recalled.predictions.as_deref(),
            fresh.predictions.as_deref()
        );

        // A different workload misses (and must not be served the file).
        let (other, mo) = tiny_arena(8);
        reader.run_cell_traced(&other, mo, &triple).unwrap();
        assert_eq!(reader.stats().simulated, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_hit_lacks_the_vector_the_cell_file_keeps() {
        let dir = temp_dir("budget-disk");
        let (arena, m) = tiny_arena(11);
        let triple = HeuristicTriple::standard_easy();

        let writer = private();
        writer.set_persist_dir(Some(dir.clone()));
        let fresh = writer.run_cell_traced(&arena, m, &triple).unwrap().0;
        let held = writer.run_cell_traced(&arena, m, &triple).unwrap().0;
        assert!(held.predictions.is_none(), "memory holds no vector");

        // The cell file does: a fresh process is served the complete
        // cell without simulating.
        let reader = private();
        reader.set_persist_dir(Some(dir.clone()));
        let recalled = reader.run_cell_traced(&arena, m, &triple).unwrap().0;
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
    fn memory_hit_drops_predictions_but_keeps_aggregates() {
        let cache = private();
        let (arena, m) = tiny_arena(9);
        let triple = HeuristicTriple::standard_easy();
        let cell = cache.run_cell_traced(&arena, m, &triple).unwrap().0;
        assert!(cell.predictions.is_some(), "caller still gets them");
        let again = cache.run_cell_traced(&arena, m, &triple).unwrap().0;
        assert!(again.predictions.is_none(), "memory dropped the vector");
        assert_eq!(again.result, cell.result);
        // With no directory to read them back from, run_cell_full_traced
        // re-simulates to recover them.
        let (result, predictions, source) = cache.run_cell_full_traced(&arena, m, &triple).unwrap();
        assert_eq!(source, CellSource::Simulated);
        assert_eq!(cache.stats().simulated, 2);
        assert_eq!(result, cell.result);
        assert_eq!(
            Some(predictions.as_slice()),
            cell.predictions.as_deref().map(|p| p.as_slice())
        );
    }

    /// With a directory attached, the vector a memory hit lacks comes
    /// back from the cell file, not from a second simulation.
    #[test]
    fn full_cell_after_a_memory_hit_is_read_back_from_disk() {
        let dir = temp_dir("full-from-disk");
        let (arena, m) = tiny_arena(12);
        let triple = HeuristicTriple::easy_plus_plus();
        let cache = private();
        cache.set_persist_dir(Some(dir.clone()));
        let fresh = cache.run_cell_traced(&arena, m, &triple).unwrap().0;
        let (_, source) = cache.run_cell_traced(&arena, m, &triple).unwrap();
        assert_eq!(source, CellSource::Memory);
        let (result, predictions, source) = cache.run_cell_full_traced(&arena, m, &triple).unwrap();
        assert_eq!(source, CellSource::Disk);
        assert_eq!(result, fresh.result);
        assert_eq!(Some(&predictions), fresh.predictions.as_ref());
        let stats = cache.stats();
        assert_eq!((stats.simulated, stats.disk_hits), (1, 1), "{stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
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
        let fresh = writer.run_cell_traced(&arena, m, &triple).unwrap().0;

        // Truncate the cell file mid-JSON; then replace it with JSON
        // nested deeper than any stack could parse by recursion; then
        // with bytes that are not UTF-8.
        let key = CellKey::new(&arena, m, &triple);
        let path = dir.join(disk::file_name(&key));
        let bytes = std::fs::read(&path).unwrap();
        for corrupt in [
            bytes[..bytes.len() / 2].to_vec(),
            b"[".repeat(20_000),
            vec![0xFF, b'{'],
        ] {
            std::fs::write(&path, corrupt).unwrap();

            let reader = private();
            reader.set_persist_dir(Some(dir.clone()));
            let recovered = reader.run_cell_traced(&arena, m, &triple).unwrap().0;
            let stats = reader.stats();
            assert_eq!(stats.disk_rejects, 1, "corrupt file must be counted");
            assert_eq!(stats.disk_hits, 0);
            assert_eq!(stats.simulated, 1, "the cell re-simulates once");
            assert_eq!(recovered.result, fresh.result);

            // The rewritten file is valid again for a third process.
            let third = private();
            third.set_persist_dir(Some(dir.clone()));
            third.run_cell_traced(&arena, m, &triple).unwrap();
            assert_eq!(third.stats().disk_hits, 1);
            assert_eq!(third.stats().disk_rejects, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Any 0–4 KiB of bytes as a cell's file is rejected once and
        /// re-simulated, and the rewritten file then serves from disk.
        #[test]
        fn arbitrary_bytes_as_a_cell_file_are_rejected_and_resimulated(
            bytes in proptest::collection::vec(0u8..=255, 0..4097),
        ) {
            let dir = temp_dir("arbitrary");
            let (arena, m) = tiny_arena(24);
            let triple = HeuristicTriple::standard_easy();
            let fresh = private().run_cell_traced(&arena, m, &triple).unwrap().0;
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(disk::file_name(&CellKey::new(&arena, m, &triple)));
            std::fs::write(&path, &bytes).unwrap();

            let reader = private();
            reader.set_persist_dir(Some(dir.clone()));
            let recovered = reader.run_cell_traced(&arena, m, &triple).unwrap().0;
            let stats = reader.stats();
            proptest::prop_assert_eq!(recovered.result, fresh.result);
            proptest::prop_assert_eq!((stats.disk_rejects, stats.simulated), (1, 1), "{:?}", stats);

            let second = private();
            second.set_persist_dir(Some(dir.clone()));
            let (_, source) = second.run_cell_traced(&arena, m, &triple).unwrap();
            proptest::prop_assert_eq!(source, CellSource::Disk);
            let _ = std::fs::remove_dir_all(&dir);
        }
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
        writer.run_cell_traced(&other, mo, &triple).unwrap();

        // Masquerade the other workload's cell as this workload's file.
        let theirs = dir.join(disk::file_name(&CellKey::new(&other, mo, &triple)));
        let ours = dir.join(disk::file_name(&CellKey::new(&arena, m, &triple)));
        std::fs::copy(&theirs, &ours).unwrap();

        let reader = private();
        reader.set_persist_dir(Some(dir.clone()));
        reader.run_cell_traced(&arena, m, &triple).unwrap();
        assert_eq!(reader.stats().disk_rejects, 1);
        assert_eq!(reader.stats().simulated, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Temp files are unique and never left behind: after any mix of
    /// stores, the directory holds only final `cell-*.json` files. And a
    /// directory from an older build — valid cells, its `index.json`, a
    /// crashed writer's temp file — is served as is: every cell a disk
    /// hit, the temp file swept, the index neither read nor rewritten.
    #[test]
    fn stores_leave_no_temp_files() {
        let dir = temp_dir("tmpfiles");
        let (a, ma) = tiny_arena(27);
        let (b, mb) = tiny_arena(28);
        let cache = private();
        cache.set_persist_dir(Some(dir.clone()));
        cache
            .run_cell_traced(&a, ma, &HeuristicTriple::standard_easy())
            .unwrap();
        cache
            .run_cell_traced(&b, mb, &HeuristicTriple::easy_plus_plus())
            .unwrap();
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            assert!(
                name.starts_with("cell-") && name.ends_with(".json"),
                "{name} must not survive a store"
            );
        }
        let tmp = dir.join("cell-dead.json.999-0.tmp");
        std::fs::write(&tmp, "torn").unwrap();
        let index = dir.join("index.json");
        let stale = r#"{"clock":7,"entries":{"cell-gone.json":{"bytes":1,"last_use":7}}}"#;
        std::fs::write(&index, stale).unwrap();
        let reopened = private();
        reopened.set_persist_dir(Some(dir.clone()));
        assert!(!tmp.exists(), "stale temp litter swept on attach");
        reopened
            .run_cell_traced(&a, ma, &HeuristicTriple::standard_easy())
            .unwrap();
        reopened
            .run_cell_traced(&b, mb, &HeuristicTriple::easy_plus_plus())
            .unwrap();
        // One more store, then the shutdown path.
        reopened
            .run_cell_traced(&a, ma, &HeuristicTriple::easy_plus_plus())
            .unwrap();
        reopened.flush_persistent();
        let stats = reopened.stats();
        assert_eq!((stats.disk_hits, stats.simulated), (2, 1), "{stats:?}");
        assert_eq!(std::fs::read_to_string(&index).unwrap(), stale);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The observed miss path sees the simulation's events and produces
    /// the same cell as the unobserved path; hits replay nothing.
    #[test]
    fn observed_path_streams_events_only_on_misses() {
        let cache = private();
        let (arena, m) = tiny_arena(31);
        let triple = HeuristicTriple::standard_easy();
        let mut metrics = predictsim_sim::MetricsObserver::new();
        let (cell, src) = cache
            .run_cell_observed_traced(&arena, m, &triple, &mut metrics)
            .unwrap();
        assert_eq!(src, CellSource::Simulated);
        assert_eq!(metrics.finished(), arena.len());
        assert!((metrics.ave_bsld() - cell.result.ave_bsld).abs() < 1e-9);
        // Second call hits memory: the observer stays silent.
        let mut silent = predictsim_sim::MetricsObserver::new();
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

    /// How long any step of the marker tests may wait before it fails.
    const BOUND: Duration = Duration::from_secs(30);

    /// With a channel pair, parks at its first event until told to run
    /// on (`false`) or cancel (`true`); unreleased within [`BOUND`], it
    /// cancels.
    struct Parked(Option<(mpsc::Sender<()>, mpsc::Receiver<bool>)>, bool);

    impl SimObserver for Parked {
        fn on_event(&mut self, _event: &predictsim_sim::SimEvent<'_>) {
            if let Some((parked, release)) = self.0.take() {
                let _ = parked.send(());
                self.1 = release.recv_timeout(BOUND).unwrap_or(true);
            }
        }
        fn keep_running(&self) -> bool {
            !self.1
        }
    }

    type Answer = Result<(CachedCell, CellSource), ScenarioError>;

    /// Parks a leader on `seed`'s cell, clears memory, requests the cell
    /// from a second thread, checks that the request is still waiting
    /// 300 ms later, then lets the leader run on or `cancel`. Returns
    /// both answers and `simulated`. Requests run on detached threads
    /// and every wait is bounded, so a lost wake-up fails the test
    /// instead of hanging it.
    fn clear_under_a_parked_leader(seed: u64, cancel: bool) -> (Answer, Answer, u64) {
        let cache = Arc::new(private());
        let (arena, m) = tiny_arena(seed);
        let arena = Arc::new(arena);
        let request = |mut observer: Parked| {
            let (cache, arena) = (cache.clone(), arena.clone());
            let (answer, answered) = mpsc::channel();
            let triple = HeuristicTriple::standard_easy();
            std::thread::spawn(move || {
                let _ =
                    answer.send(cache.run_cell_observed_traced(&arena, m, &triple, &mut observer));
            });
            answered
        };
        let (parked, is_parked) = mpsc::channel();
        let (release, released) = mpsc::channel();
        let leader = request(Parked(Some((parked, released)), false));
        is_parked.recv_timeout(BOUND).expect("the leader parks");
        cache.clear_memory();
        let waiter = request(Parked(None, false));
        let early = waiter.recv_timeout(Duration::from_millis(300));
        assert!(
            matches!(early, Err(RecvTimeoutError::Timeout)),
            "a request after the clear must wait for the parked leader"
        );
        release.send(cancel).unwrap();
        let leader = leader.recv_timeout(BOUND).expect("the leader answers");
        let waiter = waiter.recv_timeout(BOUND).expect("the waiter answers");
        (leader, waiter, cache.stats().simulated)
    }

    /// A clear drops finished cells only: a request made while the cell
    /// is in flight waits for it and coalesces.
    #[test]
    fn a_clear_keeps_the_marker_of_a_cell_in_flight() {
        let (leader, waiter, simulated) = clear_under_a_parked_leader(33, false);
        assert_eq!(leader.unwrap().1, CellSource::Simulated);
        assert_eq!(waiter.unwrap().1, CellSource::Coalesced);
        assert_eq!(simulated, 1);
    }

    /// The kept marker leaves through its lease: when the parked leader
    /// cancels, the waiter leads.
    #[test]
    fn a_leader_cancelled_after_a_clear_hands_the_cell_to_its_waiter() {
        let (leader, waiter, simulated) = clear_under_a_parked_leader(34, true);
        let aborted = |e: &ScenarioError| {
            matches!(
                e,
                ScenarioError::Sim(predictsim_sim::SimError::Aborted { .. })
            )
        };
        assert!(leader.as_ref().is_err_and(aborted), "{leader:?}");
        assert_eq!(waiter.unwrap().1, CellSource::Simulated);
        assert_eq!(simulated, 2);
    }
}
