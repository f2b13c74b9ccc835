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
//! last line per experiment to see where a killed run stopped.
//!
//! Disabled (the default) this module is a handful of relaxed atomic
//! loads — no formatting, no clock reads, no lock — so the quick-scale
//! and test paths pay nothing.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use predictsim_sim::{
    ClusterSpec, MetricsObserver, SimEvent, SimObserver, Ticker, UtilizationObserver,
};

use crate::cache::{CachedCell, CellSource, SimCache};
use crate::source::JobArena;
use crate::triple::HeuristicTriple;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns progress reporting on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether progress reporting is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A start-of-cell timestamp — `None` when reporting is off, so the
/// disabled path never reads the clock.
pub(crate) fn start() -> Option<Instant> {
    enabled().then(Instant::now)
}

/// Emits one free-form progress line (fold selections, phase notes).
pub fn emit(line: &str) {
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
            let mut heartbeat = Heartbeat::journal(
                format!("{} {cell}", self.label),
                cluster.total_procs(),
                arena.len(),
            );
            cache.run_cell_observed_traced(arena, cluster, triple, &mut heartbeat)
        } else {
            cache.run_cell_traced(arena, cluster, triple)
        };
        let (cached, source) = outcome
            .unwrap_or_else(|e| panic!("{} {cell} ({}) failed: {e}", self.label, triple.name()));
        self.cell_done(cell, source, started);
        cached
    }
}

/// Default heartbeat cadence: one report every this many simulated
/// events (submissions + starts + corrections + completions).
pub const HEARTBEAT_EVENTS: u64 = 250_000;

/// An intra-cell heartbeat snapshot, handed to a [`Heartbeat`] sink
/// every [`HEARTBEAT_EVENTS`] (or a configured cadence) events.
pub struct HeartbeatPulse<'a> {
    /// Raw engine events seen so far.
    pub events: u64,
    /// Incremental scheduling metrics at this instant.
    pub metrics: &'a MetricsObserver,
    /// Per-partition utilization series, when the heartbeat tracks one.
    pub utilization: Option<&'a UtilizationObserver>,
}

/// The intra-cell progress observer: maintains incremental metrics (and
/// optionally a per-partition utilization series) while a simulation
/// runs, and calls a sink with a [`HeartbeatPulse`] every N events.
///
/// One journaling seam, two consumers: `--progress` journals pulses to
/// stderr ([`Heartbeat::journal`]), and the serve daemon turns the same
/// pulses into streamed `metrics` frames. A cancel hook makes it the
/// cooperative-cancellation carrier too — the engine polls
/// [`SimObserver::keep_running`], so a hook returning `true` (cancel)
/// aborts the in-flight simulation.
pub struct Heartbeat {
    metrics: MetricsObserver,
    utilization: Option<UtilizationObserver>,
    ticker: Ticker,
    sink: Box<dyn FnMut(HeartbeatPulse<'_>) + Send>,
    cancel: Option<Box<dyn Fn() -> bool + Send>>,
}

impl Heartbeat {
    /// A heartbeat for a machine of `machine_size` processors, pulsing
    /// `sink` every `every` events.
    pub fn new(
        machine_size: u32,
        every: u64,
        sink: Box<dyn FnMut(HeartbeatPulse<'_>) + Send>,
    ) -> Self {
        Heartbeat {
            metrics: MetricsObserver::new(machine_size),
            utilization: None,
            ticker: Ticker::new(every),
            sink,
            cancel: None,
        }
    }

    /// Adds a per-partition utilization series to each pulse.
    pub fn with_utilization(mut self, utilization: UtilizationObserver) -> Self {
        self.utilization = Some(utilization);
        self
    }

    /// Adds a cancel hook, polled by the engine between event batches:
    /// returning `true` aborts the simulation
    /// ([`predictsim_sim::SimError::Aborted`]).
    pub fn with_cancel(mut self, cancel: Box<dyn Fn() -> bool + Send>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The `--progress` heartbeat: journals each pulse through [`emit`]
    /// as e.g.
    ///
    /// ```text
    /// progress: campaign KTH-SP2 ave2+easy — in flight: 250000 events, 8123/13115 jobs finished, AVEbsld so far 41.3
    /// ```
    pub fn journal(label: String, machine_size: u32, total_jobs: usize) -> Self {
        Heartbeat::new(
            machine_size,
            HEARTBEAT_EVENTS,
            Box::new(move |pulse: HeartbeatPulse<'_>| {
                emit(&format!(
                    "{label} — in flight: {} events, {}/{} jobs finished, AVEbsld so far {:.1}",
                    pulse.events,
                    pulse.metrics.finished(),
                    total_jobs,
                    pulse.metrics.ave_bsld(),
                ));
            }),
        )
    }

    /// Raw events seen so far.
    pub fn events(&self) -> u64 {
        self.ticker.seen()
    }

    /// The incremental metrics accumulated so far.
    pub fn metrics(&self) -> &MetricsObserver {
        &self.metrics
    }
}

impl SimObserver for Heartbeat {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        self.metrics.on_event(event);
        if let Some(utilization) = self.utilization.as_mut() {
            utilization.on_event(event);
        }
        if self.ticker.tick() {
            (self.sink)(HeartbeatPulse {
                events: self.ticker.seen(),
                metrics: &self.metrics,
                utilization: self.utilization.as_ref(),
            });
        }
    }

    fn keep_running(&self) -> bool {
        match &self.cancel {
            Some(cancel) => !cancel(),
            None => true,
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
        set_enabled(false);
        assert!(!enabled());
        assert!(start().is_none(), "disabled path must not read the clock");
        set_enabled(true);
        assert!(enabled());
        assert!(start().is_some());
        set_enabled(was);
    }

    #[test]
    fn counter_is_monotonic_across_reports() {
        let was = enabled();
        set_enabled(true);
        let progress = CellProgress::new("test", 3);
        progress.cell_done("a", CellSource::Memory, None);
        progress.cell_done("b", CellSource::Simulated, start());
        progress.cell_done("c", CellSource::Disk, None);
        assert_eq!(progress.done.load(Ordering::Relaxed), 3);
        set_enabled(was);
    }

    #[test]
    fn heartbeat_pulses_on_cadence_and_carries_metrics() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;

        let pulses = Arc::new(AtomicU64::new(0));
        let sink_pulses = pulses.clone();
        let mut hb = Heartbeat::new(
            4,
            10,
            Box::new(move |pulse: HeartbeatPulse<'_>| {
                assert_eq!(pulse.events % 10, 0);
                sink_pulses.fetch_add(1, Ordering::Relaxed);
            }),
        );
        let job = predictsim_sim::Job {
            id: predictsim_sim::JobId(0),
            submit: predictsim_sim::Time(0),
            run: 100,
            requested: 200,
            procs: 1,
            user: 0,
            user_ix: 0,
            swf_id: 0,
        };
        for _ in 0..25 {
            hb.on_event(&SimEvent::Submitted {
                job: &job,
                prediction: 200,
                now: predictsim_sim::Time(0),
            });
        }
        assert_eq!(pulses.load(Ordering::Relaxed), 2);
        assert_eq!(hb.events(), 25);
        assert_eq!(hb.metrics().submitted(), 25);
        assert!(hb.keep_running(), "no cancel hook: never aborts");
    }

    #[test]
    fn heartbeat_cancel_hook_flips_keep_running() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let stop = Arc::new(AtomicBool::new(false));
        let hook = stop.clone();
        let hb = Heartbeat::new(4, 10, Box::new(|_| {}))
            .with_cancel(Box::new(move || hook.load(Ordering::Relaxed)));
        assert!(hb.keep_running());
        stop.store(true, Ordering::Relaxed);
        assert!(!hb.keep_running());
    }
}
