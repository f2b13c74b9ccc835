//! The opt-in persistent layer of the [`SimCache`](super::SimCache):
//! file and temp naming, crash-consistent writes and the fault ladder.
//! The bytes of a cell file belong to the sibling `codec` module, which
//! writes them and reads them back.
//!
//! # Persistent layer
//!
//! The layer (`repro --cache DIR`) writes each cell to `DIR` as JSON
//! and reads it back in later invocations: a repeated `repro` run over
//! unchanged workloads simulates nothing, and a run killed mid-campaign
//! resumes from the cells it already wrote. Entries are verified
//! against the full key on load — a corrupt or key-mismatched file is
//! *rejected*: counted in
//! [`CacheStats::disk_rejects`](super::CacheStats::disk_rejects),
//! deleted, and re-simulated (once, not silently re-written every run).
//! The file is strict about layout: the reader accepts the one compact
//! layout the writer emits (same key order, no whitespace, the writer's
//! escapes only), so a hand-edited or pretty-printed file is rejected
//! the same way and rewritten. The fingerprint is a fixed,
//! platform-independent encoding, so a cache directory is portable.
//! Cached cells reproduce fresh runs *byte-identically*: the stored
//! [`TripleResult`](crate::TripleResult) is the same value a fresh
//! simulation aggregates, every float reads back bit-identical, and
//! prediction vectors are `i64`s.
//!
//! The directory holds one `cell-<key hash>.json` per cell and nothing
//! else. It is never trimmed — a full-scale repro writes well under
//! 1 GiB — so `rm -r DIR` is how it shrinks. (An `index.json` left by an
//! older build is neither read nor written.)
//!
//! # Fault tolerance
//!
//! Every disk operation sits behind a named fault-injection site
//! (`cache.read` / `cache.write` / `cache.rename` / `cache.remove` —
//! see `predictsim_faultline`) and a bounded retry-with-backoff that
//! absorbs transient [`std::io::ErrorKind::Interrupted`] errors
//! ([`CacheStats::disk_retries`](super::CacheStats::disk_retries)).
//! After [`HARD_FAILURE_LIMIT`] *consecutive* hard failures the layer
//! degrades to memory-only — warned once, campaign unaffected
//! ([`CacheStats::degraded`](super::CacheStats::degraded)); the next
//! healthy [`DiskStore::attach`] restores persistence (the ladder lives
//! in [`DiskStore::classified`]). Cell writes are crash-consistent
//! (temp file → fsync → atomic rename → best-effort directory sync), so
//! a torn write never shadows good data.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use super::{codec, CacheStats, CachedCell, CellKey};

/// Bounded retries absorbed per disk operation before its error is
/// surfaced (transient [`std::io::ErrorKind::Interrupted`] only; each
/// absorbed retry counts in
/// [`CacheStats::disk_retries`](super::CacheStats::disk_retries)).
const IO_RETRIES: u32 = 3;

/// [`SimCache::HARD_FAILURE_LIMIT`](super::SimCache::HARD_FAILURE_LIMIT).
pub(super) const HARD_FAILURE_LIMIT: u64 = 5;

/// Stable persistent file name for a key.
pub(super) fn file_name(key: &CellKey) -> String {
    format!("cell-{:016x}.json", key.fnv())
}

/// Removes every `*.tmp` file in `dir` whose name contains `marker`
/// (best-effort: a survivor is met again by the next sweep).
fn sweep_tmp(dir: &Path, marker: &str) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".tmp") && name.contains(marker) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// The persistent cell store — see the module docs.
pub(super) struct DiskStore {
    /// The attached directory (`None`: detached, every operation a
    /// no-op).
    dir: Mutex<Option<PathBuf>>,
    disk_rejects: AtomicU64,
    disk_retries: AtomicU64,
    /// Consecutive hard (non-retryable, non-NotFound) disk failures; a
    /// healthy disk operation resets it. At [`HARD_FAILURE_LIMIT`] the
    /// layer degrades.
    hard_fail_streak: AtomicU64,
    /// Layer degraded to memory-only (warned once; cleared by the next
    /// [`DiskStore::attach`]).
    degraded: AtomicBool,
    /// Per-process sequence for unique temp-file names (two threads —
    /// or two processes, via the pid component — sharing one cache
    /// directory must never interleave writes into one temp file).
    tmp_seq: AtomicU64,
}

impl DiskStore {
    /// A detached store: a no-op until [`DiskStore::attach`].
    pub(super) fn new() -> Self {
        DiskStore {
            dir: Mutex::new(None),
            disk_rejects: AtomicU64::new(0),
            disk_retries: AtomicU64::new(0),
            hard_fail_streak: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            tmp_seq: AtomicU64::new(0),
        }
    }

    fn dir(&self) -> Option<PathBuf> {
        self.dir.lock().expect("cache dir lock").clone()
    }

    /// This layer's slice of the cache accounting.
    pub(super) fn stats(&self) -> CacheStats {
        CacheStats {
            disk_rejects: self.disk_rejects.load(Ordering::Relaxed),
            disk_retries: self.disk_retries.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            ..CacheStats::default()
        }
    }

    /// Attaches the store to `dir` (or detaches it, with `None`) — see
    /// [`SimCache::set_persist_dir`](super::SimCache::set_persist_dir).
    pub(super) fn attach(&self, dir: Option<PathBuf>) {
        // Stale temp files from crashed writers — anyone's — go first.
        if let Some(dir) = &dir {
            sweep_tmp(dir, "");
        }
        *self.dir.lock().expect("cache dir lock") = dir;
        // A fresh attach is a declaration that the disk is healthy
        // again: clear any degradation so resumability survives the
        // next run even if this one limped home memory-only.
        self.hard_fail_streak.store(0, Ordering::Relaxed);
        self.degraded.store(false, Ordering::Relaxed);
    }

    /// Runs one disk operation with bounded retry of transient
    /// ([`std::io::ErrorKind::Interrupted`]) errors, consulting the
    /// fault-injection `site` ahead of each real attempt. Absorbed
    /// retries count in
    /// [`CacheStats::disk_retries`](super::CacheStats::disk_retries);
    /// the final error — transient or not — is returned for the caller
    /// to classify.
    fn with_retry<T>(
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
                    if err.kind() == std::io::ErrorKind::Interrupted && attempt < IO_RETRIES =>
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

    /// Runs one *classified* step — one whose outcome says something
    /// about the disk — against the attached directory, and settles it
    /// on the degradation ladder. Short-circuits (`None`, `step` never
    /// runs) when the store is detached or already degraded. `Ok(Some)`
    /// is a completed operation: the failure streak resets. `Ok(None)`
    /// is a probe that found nothing: deliberately *not* a reset — it
    /// completes without moving any data, so it proves nothing about a
    /// disk whose writes are failing (read-only mounts and full disks
    /// answer probes just fine). `Err` failed for keeps (retries
    /// exhausted or a hard error): at [`HARD_FAILURE_LIMIT`]
    /// consecutive failures the layer degrades to memory-only — warned
    /// exactly once — so a campaign on a dying disk finishes instead of
    /// grinding through error paths on every cell.
    fn classified<T>(
        &self,
        what: &str,
        step: impl FnOnce(PathBuf) -> std::io::Result<Option<T>>,
    ) -> Option<T> {
        if self.degraded.load(Ordering::Relaxed) {
            return None;
        }
        let dir = self.dir()?;
        match step(dir) {
            Ok(found) => {
                if found.is_some() {
                    self.hard_fail_streak.store(0, Ordering::Relaxed);
                }
                found
            }
            Err(err) => {
                let streak = self.hard_fail_streak.fetch_add(1, Ordering::Relaxed) + 1;
                if streak >= HARD_FAILURE_LIMIT && !self.degraded.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "warning: disk cache degraded to memory-only after {streak} consecutive \
                         hard failures (last: {what}: {err}); the run continues uncached on disk — \
                         re-attach a healthy --cache dir to restore persistence"
                    );
                }
                None
            }
        }
    }

    /// Best-effort delete (retried, never classified): if it fails the
    /// file is simply met — and rejected — again next run.
    fn remove(&self, path: &Path) {
        let _ = self.with_retry("cache.remove", || std::fs::remove_file(path));
    }

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
    fn write_atomic(&self, path: &Path, contents: &str) -> std::io::Result<()> {
        let tmp = self.unique_tmp(path);
        let written = self.with_retry("cache.write", || {
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
        if let Err(err) = self.with_retry("cache.rename", || std::fs::rename(&tmp, path)) {
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

    /// Sweeps this process's leftover `*.tmp` files — the
    /// graceful-shutdown path: a writer interrupted between temp write
    /// and rename would otherwise leave its temp file for the *next*
    /// attach to sweep. No-op when detached.
    pub(super) fn flush(&self) {
        if let Some(dir) = self.dir() {
            sweep_tmp(&dir, &format!(".{}-", std::process::id()));
        }
    }

    /// Reads `key`'s cell back, if the directory holds a valid one.
    pub(super) fn load(&self, key: &CellKey) -> Option<CachedCell> {
        let (path, bytes) = self.classified("cell read", |dir| {
            let path = dir.join(file_name(key));
            match self.with_retry("cache.read", || std::fs::read(&path)) {
                Ok(bytes) => Ok(Some((path, bytes))),
                // No file: a plain miss.
                Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(None),
                // Unreadable beyond retry: miss (the cell re-simulates)
                // and one step down the degradation ladder.
                Err(err) => Err(err),
            }
        })?;
        // Verify both the layout and the full key: a truncated write,
        // bytes that are not UTF-8, a file-name hash collision or a stale
        // entry must never serve the wrong cell — and must not be
        // silently re-read (and re-missed) every run. Reject: count,
        // delete, re-simulate.
        let cell = codec::decode(&bytes, key);
        if cell.is_none() {
            self.disk_rejects.fetch_add(1, Ordering::Relaxed);
            self.remove(&path);
        }
        cell
    }

    /// Writes `cell` under `key`. Persistence is best-effort: a
    /// read-only or full disk must not fail the experiment, only forgo
    /// the cache.
    pub(super) fn store(&self, key: &CellKey, cell: &CachedCell) {
        let Some(predictions) = &cell.predictions else {
            return; // only complete cells are persisted
        };
        self.classified("cell write", |dir| {
            let _ = std::fs::create_dir_all(&dir);
            let json = codec::encode(key, &cell.result, predictions);
            self.write_atomic(&dir.join(file_name(key)), &json)?;
            Ok(Some(()))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::tests::{temp_dir, tiny_arena};
    use crate::cache::{CellSource, SimCache};
    use crate::triple::HeuristicTriple;
    use predictsim_faultline::{self as faultline, FaultPlan};

    /// `flush_persistent` sweeps the temp files this process stranded
    /// and writes nothing.
    #[test]
    fn flush_persistent_sweeps_own_tmp_and_writes_no_index() {
        let dir = temp_dir("flush");
        let (arena, m) = tiny_arena(33);
        let cache = SimCache::new();
        cache.set_persist_dir(Some(dir.clone()));
        cache
            .run_cell_traced(&arena, m, &HeuristicTriple::standard_easy())
            .unwrap();
        // A stranded temp file from *this* process (as after a kill
        // between write and rename), and one from another process.
        let own = dir.join(format!("cell-x.json.{}-999.tmp", std::process::id()));
        let foreign = dir.join("cell-y.json.0-0.tmp");
        std::fs::write(&own, "torn").unwrap();
        std::fs::write(&foreign, "torn").unwrap();
        cache.flush_persistent();
        assert!(!own.exists(), "own temp litter swept on flush");
        assert!(foreign.exists(), "another writer's temp file is not ours");
        assert!(!dir.join("index.json").exists(), "no index is ever created");
        // Without a persistent directory the flush is a no-op.
        SimCache::new().flush_persistent();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The reader takes the writer's layout only: a cell file that is
    /// pretty-printed or has its keys reordered — the same JSON value —
    /// is rejected once, re-simulated and rewritten in the canonical
    /// layout, which the next process is then served from.
    #[test]
    fn a_cell_file_in_another_layout_is_rejected_once_and_rewritten() {
        let dir = temp_dir("layout");
        let (arena, m) = tiny_arena(34);
        let triple = HeuristicTriple::standard_easy();
        let open = || {
            let cache = SimCache::new();
            cache.set_persist_dir(Some(dir.clone()));
            cache
        };
        let (fresh, _) = open().run_cell_traced(&arena, m, &triple).unwrap();
        let path = dir.join(file_name(&CellKey::new(&arena, m, &triple)));
        let canonical = std::fs::read_to_string(&path).unwrap();
        let value: serde::Value = serde_json::from_str(&canonical).unwrap();
        let serde::Value::Map(entries) = &value else {
            panic!("a cell file is an object")
        };
        let reordered = serde::Value::Map(entries.iter().rev().cloned().collect());
        for layout in [
            serde_json::to_string_pretty(&value).unwrap(),
            serde_json::to_string(&reordered).unwrap(),
        ] {
            std::fs::write(&path, &layout).unwrap();
            let reader = open();
            let (cell, source) = reader.run_cell_traced(&arena, m, &triple).unwrap();
            let stats = reader.stats();
            assert_eq!(
                (source, stats.disk_rejects, stats.simulated),
                (CellSource::Simulated, 1, 1)
            );
            assert_eq!(cell.result, fresh.result);
            assert_eq!(std::fs::read_to_string(&path).unwrap(), canonical);
            let (_, source) = open().run_cell_traced(&arena, m, &triple).unwrap();
            assert_eq!(source, CellSource::Disk);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The fault ladder, driven through the wrapper itself. The site
    /// name is this test's own: plans are process-wide, and the other
    /// tests of this binary do real cache IO while it runs.
    #[test]
    fn classified_steps_settle_on_the_degradation_ladder() {
        const SITE: &str = "ladder.step";
        let dir = temp_dir("ladder");
        let store = DiskStore::new();
        store.attach(Some(dir.clone()));
        let streak = || store.hard_fail_streak.load(Ordering::Relaxed);
        let step = || store.classified("step", |_| store.with_retry(SITE, || Ok(())).map(Some));
        let consulted = || faultline::fired_counts()[0].1;
        let plan = |rule: &str| FaultPlan::parse(&format!("{SITE}:{rule}")).unwrap();
        let hard = "kind=hard";

        // Transient faults up to the retry bound are absorbed: the step
        // completes, every retry is counted, the streak stays clear.
        let transient = format!("max={IO_RETRIES}");
        faultline::with_plan(plan(&transient), || assert_eq!(step(), Some(())));
        assert_eq!(store.stats().disk_retries, u64::from(IO_RETRIES));
        assert_eq!(streak(), 0);

        faultline::with_plan(plan(hard), || {
            assert_eq!(step(), None);
            // Neither a probe that finds nothing nor a failed remove
            // resets the streak or advances it.
            assert_eq!(store.classified("probe", |_| Ok(None::<()>)), None);
            store.remove(&dir.join("no-such-file"));
            assert_eq!(streak(), 1);
            for failures in 2..=HARD_FAILURE_LIMIT {
                assert!(!store.stats().degraded);
                assert_eq!(step(), None);
                assert_eq!(streak(), failures);
            }
            assert!(store.stats().degraded);
            // Degraded: later steps short-circuit without consulting
            // the site.
            assert_eq!(consulted(), HARD_FAILURE_LIMIT);
            assert_eq!(step(), None);
            assert_eq!(
                (consulted(), streak()),
                (HARD_FAILURE_LIMIT, HARD_FAILURE_LIMIT)
            );
        });

        // Only a fresh attach clears the degradation; a completed step
        // resets the streak.
        store.attach(Some(dir));
        assert!(!store.stats().degraded);
        faultline::with_plan(plan(hard), || assert_eq!(step(), None));
        assert_eq!(streak(), 1);
        faultline::with_plan(plan("p=0:kind=hard"), || {
            assert_eq!(step(), Some(()));
        });
        assert_eq!(streak(), 0);
    }
}
