//! The in-memory layer of the [`SimCache`](super::SimCache): sharded,
//! single-flight, aggregates only. Knows nothing of the disk layer or
//! of the cache's counters.
//!
//! # Sharding
//!
//! The layer is split into [`SHARD_COUNT`] shards selected by the cell
//! key's FNV-1a hash (the same hash that names persistent files), each
//! with its own lock. Parallel campaign workers therefore contend only
//! when they touch the *same* shard, not on one global lock.
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
//! The layer keeps each cell's aggregate [`TripleResult`] — tiny, and
//! what every table reads — and never its per-job prediction vector:
//! only the Figure 4/5 ECDFs read those, and
//! [`SimCache::run_cell_full_traced`](super::SimCache::run_cell_full_traced)
//! recovers them from the cell file (or a re-simulation).

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use super::CellKey;
use crate::campaign::TripleResult;

/// Number of independently locked shards (power of two; the shard is
/// the key hash's low bits).
const SHARD_COUNT: usize = 16;

/// A slot in a shard's map: either a finished cell's aggregates or a
/// marker for the worker currently simulating it.
enum Slot {
    Ready(TripleResult),
    InFlight(Arc<Flight>),
}

/// The rendezvous for one in-flight simulation.
pub(super) struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

enum FlightState {
    Pending,
    Ready(TripleResult),
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
    pub(super) fn wait(&self) -> Option<TripleResult> {
        let mut state = self.state.lock().expect("flight lock");
        while matches!(*state, FlightState::Pending) {
            state = self.done.wait(state).expect("flight lock");
        }
        match &*state {
            FlightState::Ready(result) => Some(result.clone()),
            FlightState::Failed => None,
            FlightState::Pending => unreachable!("waited past Pending"),
        }
    }

    /// Resolves the flight (first resolution wins) and wakes waiters.
    fn finish(&self, outcome: Option<TripleResult>) {
        let mut state = self.state.lock().expect("flight lock");
        if matches!(*state, FlightState::Pending) {
            *state = match outcome {
                Some(result) => FlightState::Ready(result),
                None => FlightState::Failed,
            };
        }
        drop(state);
        self.done.notify_all();
    }
}

/// One independently locked slice of the layer.
type Shard = HashMap<CellKey, Slot>;

/// What a shard lookup produced: a finished cell's aggregates, a flight
/// to wait on, or leadership of the miss (the `Lease` below).
pub(super) enum Claim<'a> {
    Hit(TripleResult),
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
    /// Installs the finished cell's aggregates in its shard and hands
    /// them to every waiter.
    pub(super) fn fulfill(mut self, result: TripleResult) {
        self.memory
            .shard(&self.key)
            .lock()
            .expect("cache shard lock")
            .insert(self.key.clone(), Slot::Ready(result.clone()));
        self.flight.finish(Some(result));
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
        if let Some(Slot::InFlight(flight)) = shard.get(&self.key) {
            if Arc::ptr_eq(flight, &self.flight) {
                shard.remove(&self.key);
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
            shards: std::array::from_fn(|_| Mutex::new(Shard::new())),
        }
    }

    fn shard(&self, key: &CellKey) -> &Mutex<Shard> {
        &self.shards[(key.fnv() as usize) & (SHARD_COUNT - 1)]
    }

    /// One shard lookup: a ready cell, a flight to join, or leadership
    /// of the miss.
    pub(super) fn claim(&self, key: &CellKey) -> Claim<'_> {
        let mut shard = self.shard(key).lock().expect("cache shard lock");
        match shard.get(key) {
            Some(Slot::Ready(result)) => Claim::Hit(result.clone()),
            Some(Slot::InFlight(flight)) => Claim::Wait(flight.clone()),
            None => {
                let flight = Arc::new(Flight::new());
                shard.insert(key.clone(), Slot::InFlight(flight.clone()));
                Claim::Lead(Lease {
                    memory: self,
                    key: key.clone(),
                    flight,
                    fulfilled: false,
                })
            }
        }
    }

    /// Drops every cell.
    pub(super) fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard lock").clear();
        }
    }
}
