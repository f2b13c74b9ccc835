//! The in-memory layer of the [`SimCache`](super::SimCache): one locked
//! map, single-flight, aggregates only. Knows nothing of the disk layer
//! or of the cache's counters.
//!
//! The lock is held for a map lookup and a [`TripleResult`] clone, never
//! across a disk probe or a simulation. Measured on 2 vCPUs, the `bench`
//! workloads make ≈ 18 000 lookups/s from one thread (`cache_resume`),
//! ≈ 55 cells/s over two workers (`campaign_cold`) and ≈ 400 requests/s
//! (`serve_mix`): one lock and one `Condvar` serve that, with no
//! key-hashed lock split and no rendezvous object per miss.
//!
//! A miss installs an in-flight marker before simulating; requesters of
//! the same cell wait until the marker is gone and are handed the first
//! simulation's result instead of duplicating the work, so
//! [`CacheStats::simulated`](super::CacheStats::simulated) is a true
//! work count and the waits count as
//! [`CacheStats::coalesced`](super::CacheStats::coalesced) memory hits.
//! A marker leaves the map only through its own [`Lease`]: a leader
//! that fails (error, panic or cancellation) withdraws it and one waiter
//! leads next, and [`Memory::clear`] keeps it, so a cell in flight during
//! a clear still simulates once.
//!
//! Only each cell's aggregate [`TripleResult`] is kept — what every table
//! reads — never its per-job prediction vector: only the Figure 4/5
//! ECDFs read those, and
//! [`SimCache::run_cell_full_traced`](super::SimCache::run_cell_full_traced)
//! recovers them from the cell file (or a re-simulation).

use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use super::CellKey;
use crate::campaign::TripleResult;

/// A slot in the map: a finished cell's aggregates, or the marker of
/// the worker currently simulating it.
enum Slot {
    Ready(TripleResult),
    Pending,
}

/// What a lookup produced: a finished cell's aggregates (`coalesced`
/// when the lookup waited on an in-flight simulation to get them), or
/// leadership of the miss.
pub(super) enum Claim<'a> {
    Hit {
        result: TripleResult,
        coalesced: bool,
    },
    Lead(Lease<'a>),
}

/// Leadership of one in-flight cell. Dropping it without
/// [`Lease::fulfill`] withdraws the marker and wakes the waiters, one of
/// which leads next — so a simulation error (or panic) can never strand
/// them.
pub(super) struct Lease<'a> {
    memory: &'a Memory,
    key: CellKey,
    result: Option<TripleResult>,
}

impl Lease<'_> {
    /// Replaces the marker with the finished cell's aggregates and wakes
    /// every waiter.
    pub(super) fn fulfill(mut self, result: TripleResult) {
        self.result = Some(result);
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        let mut cells = self.memory.cells();
        match self.result.take() {
            Some(result) => cells.insert(self.key.clone(), Slot::Ready(result)),
            None => cells.remove(&self.key),
        };
        self.memory.changed.notify_all();
    }
}

/// The cell map — see the module docs.
pub(super) struct Memory {
    cells: Mutex<HashMap<CellKey, Slot>>,
    /// Signalled whenever a marker is replaced or withdrawn.
    changed: Condvar,
}

impl Memory {
    pub(super) fn new() -> Self {
        Memory {
            cells: Mutex::new(HashMap::new()),
            changed: Condvar::new(),
        }
    }

    /// The locked map. Every update is one `insert`, `remove` or
    /// `retain`, so a guard poisoned by a panicking holder still guards
    /// a valid map, and taking it keeps [`Lease`]'s `Drop` from panicking.
    fn cells(&self) -> MutexGuard<'_, HashMap<CellKey, Slot>> {
        self.cells.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A ready cell, after waiting out any simulation of it in flight,
    /// or leadership of the miss.
    pub(super) fn claim(&self, key: &CellKey) -> Claim<'_> {
        let mut cells = self.cells();
        let mut coalesced = false;
        loop {
            match cells.get(key) {
                Some(Slot::Ready(result)) => {
                    return Claim::Hit {
                        result: result.clone(),
                        coalesced,
                    }
                }
                Some(Slot::Pending) => {
                    coalesced = true;
                    cells = self
                        .changed
                        .wait(cells)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => {
                    cells.insert(key.clone(), Slot::Pending);
                    return Claim::Lead(Lease {
                        memory: self,
                        key: key.clone(),
                        result: None,
                    });
                }
            }
        }
    }

    /// Drops every finished cell; markers stay with their leases.
    pub(super) fn clear(&self) {
        self.cells().retain(|_, slot| matches!(slot, Slot::Pending));
    }
}
