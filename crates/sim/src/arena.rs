//! Cross-simulation scratch reuse: [`SimArena`].

use crate::event::EventQueue;
use crate::job::JobId;
use crate::outcome::JobOutcome;
use crate::state::SimState;

/// Reusable per-run engine buffers: cross-simulation scratch reuse.
///
/// Scheduler passes are allocation-free *within* one run; the arena
/// extends the property *across* runs. It owns every per-run buffer of
/// the engine — the indexed engine state, the event heap, the start list
/// and the outcome vector — and [`simulate_in`](crate::simulate_in)
/// re-initializes them in place instead of allocating fresh ones. The
/// outcome vector is the one buffer a run hands out: it moves into the
/// [`SimResult`](crate::SimResult), so each run sizes a new one once. A
/// worker that keeps one arena across the simulations it executes (the
/// campaign fan-out pattern — see `predictsim-experiments`) therefore
/// allocates only the run's result once the arena is warm;
/// `tests/scratch_reuse.rs` pins the exact count with a counting global
/// allocator.
///
/// Construct once (per worker, typically), then pass to `simulate_in`
/// for every run. A warm arena behaves identically to a fresh one:
/// reuse only retains *capacity*, never state.
#[derive(Debug, Default)]
pub struct SimArena {
    pub(crate) state: SimState,
    pub(crate) events: EventQueue,
    /// One outcome per arrived job, by job index: its own fields and
    /// initial prediction from its arrival, the rest from its finish.
    pub(crate) outcomes: Vec<JobOutcome>,
    /// Start list reused across scheduling passes.
    pub(crate) starts: Vec<JobId>,
}

impl SimArena {
    /// A fresh (cold) arena.
    pub fn new() -> Self {
        Self::default()
    }
}
