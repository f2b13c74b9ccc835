//! The in-memory layer of the [`SimCache`](super::SimCache): sharded,
//! single-flight, prediction-budgeted. Knows nothing of the disk layer
//! or of the cache's counters.
//!
//! # Sharding
//!
//! The layer is split into [`SHARD_COUNT`] shards selected by the cell
//! key's FNV-1a hash (the same hash that names persistent files), each
//! with its own lock and its own slice of the prediction budget.
//! Parallel campaign workers therefore contend only when they touch the
//! *same* shard, not on one global lock.
//!
//! # Single-flight
//!
//! A miss installs an in-flight marker in its shard before simulating;
//! concurrent requesters for the same cell block on that marker and are
//! handed the first simulation's result instead of duplicating the
//! work. [`CacheStats::simulated`](super::CacheStats::simulated) is
//! therefore a true work count: one cold cell requested from N workers
//! simulates exactly once. Waiters are counted as memory hits, with
//! [`CacheStats::coalesced`](super::CacheStats::coalesced) recording
//! how many of those hits were de-duplicated in-flight requests. If a
//! leader fails (simulation error), its marker is withdrawn and waiters
//! retry — one of them becomes the next leader and surfaces the error
//! itself.
//!
//! # Memory discipline
//!
//! Aggregates are tiny and kept for every cell; prediction vectors are
//! kept only while the shard's slice of the prediction budget
//! ([`PREDICTION_BUDGET`]) lasts — past it, new entries drop them
//! (consumers that need predictions then re-simulate that cell;
//! aggregates stay served from the cache). Re-inserting a key refunds
//! the replaced cell's vector before charging the new one, so repeated
//! inserts are budget-neutral.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use super::{CachedCell, CellKey};

/// Number of independently locked shards (power of two; the shard is
/// the key hash's low bits).
const SHARD_COUNT: usize = 16;

/// Prediction elements (8 bytes each) the layer may hold across all
/// shards: 64M ≈ 512 MB, far above any quick-scale run and a sane
/// ceiling for full-scale ones. Each shard owns a `1/SHARD_COUNT` slice.
const PREDICTION_BUDGET: usize = 64_000_000;

/// A slot in a shard's map: either a finished cell or a marker for the
/// worker currently simulating it.
enum Slot {
    Ready(CachedCell),
    InFlight(Arc<Flight>),
}

/// The rendezvous for one in-flight simulation.
pub(super) struct Flight {
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
    pub(super) fn wait(&self) -> Option<CachedCell> {
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

/// One independently locked slice of the layer.
struct Shard {
    cells: HashMap<CellKey, Slot>,
    /// Prediction elements still storable in this shard before its
    /// budget slice is exhausted.
    prediction_budget: usize,
}

/// What a shard lookup produced: a finished cell, a flight to wait on,
/// or leadership of the miss (the `Lease` below).
pub(super) enum Claim<'a> {
    Hit(CachedCell),
    Wait(Arc<Flight>),
    Lead(Lease<'a>),
}

/// Leadership of one in-flight cell. Dropping it without
/// [`Lease::fulfill`] withdraws the marker and signals waiters to retry
/// — so a simulation error (or panic) can never strand them.
pub(super) struct Lease<'a> {
    memory: &'a Memory,
    key: CellKey,
    flight: Arc<Flight>,
    fulfilled: bool,
}

impl Lease<'_> {
    /// Installs the finished cell in its shard and hands it to every
    /// waiter.
    pub(super) fn fulfill(mut self, cell: CachedCell) {
        self.memory.install(self.key.clone(), cell.clone());
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
            .memory
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

/// The sharded cell map — see the module docs.
pub(super) struct Memory {
    shards: [Mutex<Shard>; SHARD_COUNT],
}

impl Memory {
    pub(super) fn new() -> Self {
        Memory {
            shards: std::array::from_fn(|_| {
                Mutex::new(Shard {
                    cells: HashMap::new(),
                    prediction_budget: PREDICTION_BUDGET / SHARD_COUNT,
                })
            }),
        }
    }

    fn shard(&self, key: &CellKey) -> &Mutex<Shard> {
        &self.shards[(key.fnv() as usize) & (SHARD_COUNT - 1)]
    }

    /// One shard lookup: a ready cell, a flight to join, or leadership
    /// of the miss.
    pub(super) fn claim(&self, key: &CellKey) -> Claim<'_> {
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
                    memory: self,
                    key: key.clone(),
                    flight,
                    fulfilled: false,
                })
            }
        }
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

    /// Drops every cell and restores the prediction budget.
    pub(super) fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard lock");
            shard.cells.clear();
            shard.prediction_budget = PREDICTION_BUDGET / SHARD_COUNT;
        }
    }

    /// Overrides the total prediction budget, splitting it evenly
    /// across shards (remainder to the first).
    pub(super) fn set_prediction_budget(&self, total: usize) {
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
    pub(super) fn prediction_budget_remaining(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").prediction_budget)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::tests::tiny_arena;
    use crate::campaign::TripleResult;
    use crate::scenario::Scenario;
    use crate::triple::HeuristicTriple;

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

        let memory = Memory::new();
        let full = memory.prediction_budget_remaining();
        memory.install(key.clone(), cell.clone());
        let after_first = memory.prediction_budget_remaining();
        assert_eq!(after_first, full - predictions.len());
        // Same key again (two leaders racing across a `clear_memory`):
        // spend must not double.
        memory.install(key, cell);
        assert_eq!(
            memory.prediction_budget_remaining(),
            after_first,
            "double insert must be budget-neutral"
        );
        // And clearing restores the full budget exactly.
        memory.clear();
        assert_eq!(memory.prediction_budget_remaining(), PREDICTION_BUDGET);
    }
}
