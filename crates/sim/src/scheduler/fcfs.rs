//! First-Come-First-Serve without backfilling.
//!
//! Starts queued jobs strictly in arrival order; the first job that does
//! not fit blocks everything behind it. This is the no-backfilling
//! baseline that EASY improves upon — useful for tests and ablations
//! (predictions cannot help FCFS, since it never looks at running times).

use crate::job::JobId;
use crate::scheduler::Scheduler;
use crate::state::SchedulerContext;

/// Plain FCFS: start the head of the queue while it fits, never skip.
#[derive(Debug, Default, Clone, Copy)]
pub struct FcfsScheduler;

impl Scheduler for FcfsScheduler {
    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, starts: &mut Vec<JobId>) {
        let mut free = ctx.free;
        for job in ctx.queue {
            if job.procs > free {
                break;
            }
            free -= job.procs;
            starts.push(job.id);
        }
    }

    fn name(&self) -> String {
        "fcfs".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::testutil::{ctx, running, schedule, waiting};

    #[test]
    fn starts_in_order_until_blocked() {
        let queue = [
            waiting(0, 4, 100, 0),
            waiting(1, 4, 100, 1),
            waiting(2, 2, 100, 2),
        ];
        let c = ctx(0, 8, &queue, &[]);
        let starts = schedule(&mut FcfsScheduler, &c);
        // Jobs 0 and 1 fill the machine; job 2 must wait even though it fits
        // behind job 1 — FCFS never skips.
        assert_eq!(starts, vec![JobId(0), JobId(1)]);
    }

    #[test]
    fn head_blocks_smaller_followers() {
        let queue = [waiting(0, 8, 100, 0), waiting(1, 1, 100, 1)];
        let running = [running(99, 1, 0, 50)];
        let c = ctx(10, 8, &queue, &running);
        // 7 free, head needs 8 -> nothing starts, not even the 1-proc job.
        assert!(schedule(&mut FcfsScheduler, &c).is_empty());
    }

    #[test]
    fn empty_queue_starts_nothing() {
        let c = ctx(0, 8, &[], &[]);
        assert!(schedule(&mut FcfsScheduler, &c).is_empty());
    }

    #[test]
    fn name() {
        assert_eq!(FcfsScheduler.name(), "fcfs");
    }
}
