//! Cross-simulation scratch reuse: [`SimArena`].

use crate::event::EventQueue;
use crate::job::JobId;
use crate::outcome::JobOutcome;
use crate::state::SimState;

/// The most outcomes [`SimArena::reclaim`] keeps: 2¹⁹, 42 MB of
/// [`JobOutcome`]s. Every full-scale log of the paper fits under it
/// (Metacentrum, the largest, has 495 000 jobs), so a campaign worker
/// still reuses its vector; a run beyond it sizes its own.
const RECLAIM_LIMIT: usize = 1 << 19;

/// Reusable per-run engine buffers: cross-simulation scratch reuse.
///
/// Scheduler passes are allocation-free *within* one run; the arena
/// extends the property *across* runs. It owns every per-run buffer of
/// the engine — the indexed engine state, the event heap, the start list
/// and the outcome vector — and [`simulate_in`](crate::simulate_in)
/// re-initializes them in place instead of allocating fresh ones. The
/// outcome vector is the one buffer a run hands out: it moves into the
/// [`SimResult`](crate::SimResult), and a caller done with it gives it
/// back through [`SimArena::reclaim`]. A worker that keeps one arena
/// across the simulations it executes (the campaign fan-out pattern —
/// see `predictsim-experiments`) therefore allocates only the run's
/// outcome vector once the arena is warm, and nothing at all when it
/// reclaims each one; `tests/scratch_reuse.rs` pins both counts with a
/// counting global allocator.
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

    /// Takes back a finished run's outcome vector (its caller done with
    /// the [`SimResult`](crate::SimResult)), so the next run reuses its
    /// capacity instead of sizing a new one. The arena keeps the larger
    /// of the vector it holds and `outcomes`, up to 2¹⁹ outcomes (42 MB):
    /// a larger vector is dropped, so an idle worker that once ran a
    /// giant request does not hold its outcomes for life.
    pub fn reclaim(&mut self, mut outcomes: Vec<JobOutcome>) {
        if outcomes.capacity() > self.outcomes.capacity() && outcomes.capacity() <= RECLAIM_LIMIT {
            outcomes.clear();
            self.outcomes = outcomes;
        }
    }
}
