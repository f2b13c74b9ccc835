//! Scheduling policies.
//!
//! All policies implement [`Scheduler`]: given a read-only snapshot of the
//! system they return the jobs to start *now*. The engine applies the
//! decision, so policies stay pure and unit-testable.
//!
//! Provided policies:
//!
//! * [`FcfsScheduler`] — First-Come-First-Serve without backfilling;
//! * [`EasyScheduler`] — EASY (aggressive) backfilling \[9\], with either
//!   FCFS or Shortest-Job-Backfilled-First queue ordering during the
//!   backfilling phase (§5.1); EASY-SJBF is the \[24\] variant the paper's
//!   best heuristic triple uses;
//! * [`ConservativeScheduler`] — conservative backfilling \[14\], where every
//!   queued job holds a reservation (provided as an extension; the paper
//!   discusses it in §2.1).
//!
//! The production policies keep their scratch buffers across passes, so
//! a warm pass allocates nothing (conservative also keeps its last plan,
//! checked against each pass's context before it is used);
//! `tests/scratch_reuse.rs` checks that with a counting global
//! allocator, from outside the code it judges.
//! Their brute-force oracles live with the tests too
//! (`tests/support/reference.rs`), beside a whole-run reference engine.

mod conservative;
mod easy;
mod fcfs;
mod profile;

pub use conservative::ConservativeScheduler;
pub use easy::{BackfillOrder, EasyScheduler};
pub use fcfs::FcfsScheduler;
pub(crate) use profile::Profile;
pub use profile::{ReleasePoint, ReleaseSet};

use crate::job::JobId;
use crate::state::SchedulerContext;

/// A scheduling policy: decides which waiting jobs start now.
pub trait Scheduler {
    /// One scheduling pass: appends the ids of queue jobs to start
    /// immediately to `starts` (handed in cleared by the caller, and
    /// reused across passes so warm implementations allocate nothing).
    /// The engine validates capacity and applies the starts.
    ///
    /// Invariants the engine guarantees on `ctx`: the queue is in FCFS
    /// (submit, id) order; every running job's `predicted_end` is `> now`;
    /// `free` equals `machine_size` (the partition size) minus the
    /// processors held by the `running` jobs on `ctx.partition`;
    /// `releases` aggregates exactly those jobs'
    /// `(predicted_end, procs)`. On a multi-partition cluster the engine
    /// calls the scheduler once per partition in first-fit order (see
    /// [`crate::cluster::ClusterSpec`]); implementations that read
    /// `ctx.running` directly must filter it by
    /// [`crate::state::RunningJob::partition`].
    ///
    /// The engine **skips** passes that provably cannot start anything
    /// (empty queue, or zero free processors — every valid job needs at
    /// least one), and one instance may serve several runs. So the
    /// decision must be a function of `ctx` alone. An implementation may
    /// keep state across passes only as a cache that each pass checks
    /// against `ctx` before using it, as [`ConservativeScheduler`] keeps
    /// its last plan.
    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, starts: &mut Vec<JobId>);

    /// Display name used in reports (e.g. `"easy-sjbf"`).
    fn name(&self) -> String;
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Helpers shared by the scheduler unit tests.
    use crate::job::JobId;
    use crate::scheduler::{ReleaseSet, Scheduler};
    use crate::state::{RunningJob, SchedulerContext, WaitingJob};
    use crate::time::Time;

    /// One pass of `scheduler` over `ctx`: the jobs it starts.
    pub(crate) fn schedule(
        scheduler: &mut impl Scheduler,
        ctx: &SchedulerContext<'_>,
    ) -> Vec<JobId> {
        let mut starts = Vec::new();
        scheduler.schedule_into(ctx, &mut starts);
        starts
    }

    /// Builds a waiting job with prediction = requested.
    pub(crate) fn waiting(id: u32, procs: u32, predicted: i64, submit: i64) -> WaitingJob {
        WaitingJob {
            id: JobId(id),
            procs,
            predicted,
            requested: predicted,
            submit: Time(submit),
            user: 1,
        }
    }

    /// Builds a running job (on partition 0).
    pub(crate) fn running(id: u32, procs: u32, start: i64, predicted_end: i64) -> RunningJob {
        RunningJob {
            id: JobId(id),
            procs,
            start: Time(start),
            predicted_end: Time(predicted_end),
            deadline: Time(predicted_end + 100_000),
            user: 1,
            corrections: 0,
            partition: 0,
        }
    }

    /// Builds a context; `free` is derived from machine size minus
    /// running, and the release set from the running slice (leaked —
    /// test-only convenience that keeps call sites borrow-free).
    pub(crate) fn ctx<'a>(
        now: i64,
        machine: u32,
        queue: &'a [WaitingJob],
        running: &'a [RunningJob],
    ) -> SchedulerContext<'a> {
        let used: u32 = running.iter().map(|r| r.procs).sum();
        SchedulerContext {
            now: Time(now),
            partition: 0,
            machine_size: machine,
            free: machine - used,
            queue,
            running,
            releases: Box::leak(Box::new(ReleaseSet::from_running(running))),
            shortest_first: Box::leak(
                crate::state::sorted_shortest_first(queue).into_boxed_slice(),
            ),
        }
    }
}
