//! Conservative backfilling \[14\].
//!
//! Every waiting job receives a reservation when it is considered, in
//! arrival order, at the earliest instant where the availability profile
//! can host it; a job starts when its reservation time is *now*. No job
//! can delay any earlier-arrived job, which gives conservative backfilling
//! its no-starvation guarantee — at the price of less aggressive packing
//! than EASY.
//!
//! The paper (§2.1) contrasts this with EASY: "In the former, the job
//! allocation is completely recomputed at each new event (job arrival or
//! job completion) while in the second, the process is purely on-line".
//! We follow that description: each scheduling pass rebuilds the plan from
//! the current predictions. Provided as an extension beyond the paper's
//! two evaluated variants; exercised by the scheduler ablation
//! (`repro ablation`) and the `conservative_deep` benchmark workload.

use crate::job::JobId;
use crate::scheduler::{Profile, Scheduler};
use crate::state::SchedulerContext;

/// Conservative backfilling: plan every queued job, start those planned
/// now.
///
/// On a heterogeneous cluster each partition plans only the jobs it can
/// ever host: a job wider than the partition is left to a wider one and
/// reserves nothing here.
///
/// The availability profile is a reusable scratch buffer refilled from
/// the engine's incrementally maintained
/// [`ReleaseSet`](crate::ReleaseSet) — no sort and, once warm, no
/// allocation per pass. Reservations for the tentative plan are carved
/// into the scratch copy, which the next pass overwrites.
#[derive(Debug, Default, Clone)]
pub struct ConservativeScheduler {
    profile: Profile,
}

impl ConservativeScheduler {
    /// A fresh scheduler (cold scratch).
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for ConservativeScheduler {
    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, starts: &mut Vec<JobId>) {
        self.profile.rebuild_from(ctx.now, ctx.free, ctx.releases);
        for job in ctx.queue.iter().filter(|j| j.procs <= ctx.machine_size) {
            let duration = job.predicted.max(1);
            let start = self.profile.earliest_start(ctx.now.0, job.procs, duration);
            self.profile.reserve(start, duration, job.procs);
            if start == ctx.now.0 {
                starts.push(job.id);
            }
        }
    }

    fn name(&self) -> String {
        "conservative".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::testutil::{ctx, running, schedule, waiting};

    #[test]
    fn starts_everything_on_free_machine() {
        let queue = [waiting(0, 4, 100, 0), waiting(1, 4, 100, 1)];
        let c = ctx(0, 8, &queue, &[]);
        let starts = schedule(&mut ConservativeScheduler::new(), &c);
        assert_eq!(starts, vec![JobId(0), JobId(1)]);
    }

    #[test]
    fn backfills_without_delaying_any_reservation() {
        // Machine 10: 8 busy until t=100. Head needs 8 (reserved at 100).
        // Short 2-proc job (pred 90) fits now without touching the head's
        // reservation.
        let queue = [waiting(2, 8, 200, 1), waiting(3, 2, 90, 2)];
        let running = [running(1, 8, 0, 100)];
        let c = ctx(0, 10, &queue, &running);
        let starts = schedule(&mut ConservativeScheduler::new(), &c);
        assert_eq!(starts, vec![JobId(3)]);
    }

    #[test]
    fn long_backfill_blocked_by_intermediate_reservation() {
        // Unlike EASY, conservative protects *every* queued job. Queue:
        // A (8 procs, reserved at 100), B (8 procs, reserved at 100+200),
        // C (2 procs, pred 250). EASY would check C only against A's
        // shadow... conservative must also not delay B.
        // C on 2 procs: free now=2. Interval [0,250). A reserved [100,300)
        // with 8 procs: free during [100,250) is 10-8-...
        // Profile after A,B reservations: [0,100):2, [100,300):2(10-8),
        // [300,500):2. C fits at 0 on 2 procs? free_at in [0,250) is 2 -> C
        // starts now *because the extra 2 procs happen to stay free*.
        let queue = [
            waiting(0, 8, 200, 0),
            waiting(1, 8, 200, 1),
            waiting(2, 2, 250, 2),
        ];
        let running = [running(9, 8, 0, 100)];
        let c = ctx(0, 10, &queue, &running);
        let starts = schedule(&mut ConservativeScheduler::new(), &c);
        assert_eq!(starts, vec![JobId(2)]);
    }

    #[test]
    fn backfill_that_would_delay_second_reservation_is_refused() {
        // Machine 10: 8 busy until 100. A needs 8 -> [100,300).
        // B needs 4 -> earliest with 4 free: t=300 (during [100,300) only
        // 2 free). C needs 2, pred 400: would hold [0,400) x2 procs; free
        // during [300, 400) would be 10-4(B)-... profile: [300,...) has
        // 10-4=6 free after B, so C fits at 0: starts.
        // Make C need 4 procs instead: free now = 2 -> cannot start now.
        let queue = [
            waiting(0, 8, 200, 0),
            waiting(1, 4, 200, 1),
            waiting(2, 4, 400, 2),
        ];
        let running = [running(9, 8, 0, 100)];
        let c = ctx(0, 10, &queue, &running);
        let starts = schedule(&mut ConservativeScheduler::new(), &c);
        assert!(starts.is_empty());
    }

    #[test]
    fn empty_queue() {
        let c = ctx(0, 8, &[], &[]);
        assert!(schedule(&mut ConservativeScheduler::new(), &c).is_empty());
    }

    #[test]
    fn name() {
        assert_eq!(ConservativeScheduler::new().name(), "conservative");
    }
}
