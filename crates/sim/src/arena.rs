//! Cross-simulation scratch reuse.
//!
//! PR 4 made scheduler passes allocation-free *within* one run; this
//! module extends the property *across* runs. A [`SimArena`] owns every
//! per-run buffer of the engine — the indexed [`SimState`], the event
//! heap, the outcome and prediction tables, the batch and start lists —
//! and [`crate::engine::simulate_in`] re-initializes them in place
//! instead of allocating fresh ones. A worker that keeps one arena
//! across the simulations it executes (the campaign fan-out pattern —
//! see `predictsim-experiments`) therefore allocates ~nothing once the
//! arena is warm; [`ArenaStats`] pins the property the same way
//! [`crate::scheduler::ScratchStats`] pins it for scheduler passes.

use crate::event::EventQueue;
use crate::job::JobId;
use crate::outcome::JobOutcome;
use crate::state::SimState;

/// Run-level scratch accounting, in the style of
/// [`crate::scheduler::ScratchStats`]: enough to verify that warm
/// cross-simulation runs allocate nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Simulation runs executed through this arena.
    pub runs: u64,
    /// Runs during which some arena buffer grew its capacity. After the
    /// arena has seen each workload shape once, this must stop
    /// increasing — the cross-simulation no-allocation property.
    pub reallocating_runs: u64,
}

/// Reusable per-run engine buffers — see the module docs.
///
/// Construct once (per worker, typically), then pass to
/// [`crate::engine::simulate_in`] for every run. A warm arena behaves
/// identically to a fresh one: reuse only retains *capacity*, never
/// state.
#[derive(Debug, Default)]
pub struct SimArena {
    pub(crate) state: SimState,
    pub(crate) events: EventQueue,
    /// Clamped prediction made at each job's submission (by job index).
    pub(crate) initial_predictions: Vec<i64>,
    /// Outcome table written by job index.
    pub(crate) outcomes: Vec<Option<JobOutcome>>,
    /// Event batch being applied (all events at one instant).
    pub(crate) pending: Vec<crate::event::EventKind>,
    /// Start list reused across scheduling passes.
    pub(crate) starts: Vec<JobId>,
    stats: ArenaStats,
}

impl SimArena {
    /// A fresh (cold) arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cross-simulation scratch accounting.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Resets the scratch accounting (buffers stay warm).
    pub fn reset_stats(&mut self) {
        self.stats = ArenaStats::default();
    }

    /// Total capacity (in elements) across every owned buffer.
    pub(crate) fn capacity_signature(&self) -> usize {
        self.state.scratch_capacity()
            + self.events.capacity()
            + self.initial_predictions.capacity()
            + self.outcomes.capacity()
            + self.pending.capacity()
            + self.starts.capacity()
    }

    /// Records one run and whether it grew any buffer.
    pub(crate) fn record_run(&mut self, capacity_before: usize) {
        self.stats.runs += 1;
        if self.capacity_signature() != capacity_before {
            self.stats.reallocating_runs += 1;
        }
    }
}
