//! Opt-in per-cell progress lines for long repro runs.
//!
//! A full-scale campaign is hours of wall-clock across hundreds of
//! cells; with the persistent cache a killed run resumes from disk, but
//! only if the operator can see how far it got. When enabled (`repro
//! --progress`, implied by `--full`) every experiment fan-out reports
//! each finished cell to **stderr** — stdout artifacts stay clean — as
//!
//! ```text
//! progress: campaign KTH-SP2 [17/130] sqrt*p+easy-sjbf — simulated in 12.41s
//! progress: campaign KTH-SP2 [18/130] ave2+easy — disk hit
//! ```
//!
//! so `repro ... 2>progress.log` doubles as a resume journal: grep the
//! last line per experiment to see where a killed run stopped. A cell
//! that simulates also journals a heartbeat every 250 000 engine
//! events, from a private observer over a [`MetricsObserver`]:
//!
//! ```text
//! progress: campaign KTH-SP2 ave2+easy — in flight: 250000 events, 8123/13115 jobs finished, AVEbsld so far 41.3
//! ```
//!
//! Disabled (the default) this module is a handful of relaxed atomic
//! loads — no formatting, no clock reads, no lock — so the quick-scale
//! and test paths pay nothing.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use predictsim_sim::{ClusterSpec, MetricsObserver, SimEvent, SimObserver};

use crate::cache::{CachedCell, CellSource, SimCache};
use crate::source::JobArena;
use crate::triple::HeuristicTriple;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns progress reporting on or off process-wide.
pub fn set_progress(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether progress reporting is on.
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A start-of-cell timestamp — `None` when reporting is off, so the
/// disabled path never reads the clock.
pub(crate) fn start() -> Option<Instant> {
    enabled().then(Instant::now)
}

/// Emits one free-form progress line (fold selections, phase notes).
pub(crate) fn emit(line: &str) {
    if enabled() {
        eprintln!("progress: {line}");
    }
}

/// Per-fan-out progress: counts finished cells against a known total
/// and reports each with its serving layer. Shared by reference across
/// parallel workers.
pub(crate) struct CellProgress {
    label: String,
    total: usize,
    done: AtomicUsize,
}

impl CellProgress {
    /// A new counter for `total` cells under the given display label
    /// (e.g. `campaign KTH-SP2`).
    pub(crate) fn new(label: impl Into<String>, total: usize) -> Self {
        CellProgress {
            label: label.into(),
            total,
            done: AtomicUsize::new(0),
        }
    }

    /// Reports one finished cell: where it came from and — for true
    /// simulations, when the caller captured [`start`] — how long it
    /// took.
    pub(crate) fn cell_done(&self, cell: &str, source: CellSource, started: Option<Instant>) {
        if !enabled() {
            return;
        }
        let how = match source {
            CellSource::Simulated => match started {
                Some(t0) => format!("simulated in {:.2}s", t0.elapsed().as_secs_f64()),
                None => "simulated".to_string(),
            },
            CellSource::Memory => "memory hit".to_string(),
            CellSource::Disk => "disk hit".to_string(),
            CellSource::Coalesced => "coalesced with an in-flight simulation".to_string(),
        };
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!(
            "progress: {} [{}/{}] {} — {}",
            self.label, done, self.total, cell, how
        );
    }

    /// Runs (or recalls) one cell of this fan-out through the
    /// process-wide [`SimCache`] and reports it as `cell`. With
    /// `--progress` on, the miss goes through the observed cache path so
    /// hour-long cells journal an intra-cell heartbeat every N events;
    /// either way the cached cell is byte-identical. Panics if the
    /// simulation fails — fan-outs run validated workloads, so that is a
    /// bug, not an input condition.
    pub(crate) fn run(
        &self,
        cell: &str,
        arena: &JobArena,
        cluster: ClusterSpec,
        triple: &HeuristicTriple,
    ) -> CachedCell {
        let cache = SimCache::global();
        let started = start();
        let outcome = if enabled() {
            let mut journal = Journal {
                label: format!("{} {cell}", self.label),
                jobs: arena.len(),
                every: HEARTBEAT_EVENTS,
                metrics: MetricsObserver::new(),
            };
            cache.run_cell_observed_traced(arena, cluster, triple, &mut journal)
        } else {
            cache.run_cell_traced(arena, cluster, triple)
        };
        let (cached, source) = outcome
            .unwrap_or_else(|e| panic!("{} {cell} ({}) failed: {e}", self.label, triple.name()));
        self.cell_done(cell, source, started);
        cached
    }
}

/// Intra-cell heartbeat cadence: one `--progress` line every this many
/// simulated events (submissions + starts + corrections + completions).
const HEARTBEAT_EVENTS: u64 = 250_000;

/// The `--progress` observer of one simulating cell: folds every event
/// into a [`MetricsObserver`] and journals a heartbeat line every
/// `every` events.
struct Journal {
    label: String,
    jobs: usize,
    every: u64,
    metrics: MetricsObserver,
}

impl Journal {
    /// Folds one event; returns the heartbeat line when the event count
    /// lands on the cadence.
    fn pulse(&mut self, event: &SimEvent<'_>) -> Option<String> {
        self.metrics.on_event(event);
        let events = self.metrics.events();
        events.is_multiple_of(self.every).then(|| {
            format!(
                "{} — in flight: {events} events, {}/{} jobs finished, AVEbsld so far {:.1}",
                self.label,
                self.metrics.finished(),
                self.jobs,
                self.metrics.ave_bsld(),
            )
        })
    }
}

impl SimObserver for Journal {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        if let Some(line) = self.pulse(event) {
            emit(&line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_toggleable() {
        // The global flag is shared across tests; restore it.
        let was = enabled();
        set_progress(false);
        assert!(!enabled());
        assert!(start().is_none(), "disabled path must not read the clock");
        set_progress(true);
        assert!(enabled());
        assert!(start().is_some());
        set_progress(was);
    }

    #[test]
    fn counter_is_monotonic_across_reports() {
        let was = enabled();
        set_progress(true);
        let progress = CellProgress::new("test", 3);
        progress.cell_done("a", CellSource::Memory, None);
        progress.cell_done("b", CellSource::Simulated, start());
        progress.cell_done("c", CellSource::Disk, None);
        assert_eq!(progress.done.load(Ordering::Relaxed), 3);
        set_progress(was);
    }

    #[test]
    fn heartbeat_pulses_on_cadence_and_carries_metrics() {
        use predictsim_sim::{JobId, JobOutcome, Time};

        // Waits 100 s, runs 100 s: bounded slowdown 2.
        let outcome = JobOutcome {
            id: JobId(0),
            swf_id: 0,
            user: 0,
            procs: 1,
            run: 100,
            requested: 200,
            submit: Time(0),
            start: Time(100),
            end: Time(200),
            initial_prediction: 200,
            corrections: 0,
            killed: false,
            partition: 0,
        };
        let mut journal = Journal {
            label: "table1 KTH-SP2 easy".into(),
            jobs: 30,
            every: 10,
            metrics: MetricsObserver::new(),
        };
        let lines: Vec<String> = (0..25)
            .filter_map(|_| journal.pulse(&SimEvent::Finished { outcome: &outcome }))
            .collect();
        assert_eq!(
            lines,
            [
                "table1 KTH-SP2 easy — in flight: 10 events, 10/30 jobs finished, AVEbsld so far 2.0",
                "table1 KTH-SP2 easy — in flight: 20 events, 20/30 jobs finished, AVEbsld so far 2.0",
            ]
        );
        assert_eq!(journal.metrics.events(), 25);
        assert!(journal.keep_running(), "a journal never aborts a cell");
    }
}
