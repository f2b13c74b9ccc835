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
//! We follow that description: every pass starts exactly the jobs that a
//! plan recomputed from the current predictions starts. It recomputes
//! only what can differ, by two rules:
//!
//! * *The last plan holds while its inputs do.* [`Profile::place`]
//!   searches from the profile's first instant, which is `now` on both
//!   paths ([`Profile::rebuild_from`], [`Profile::advance_to`]): it
//!   returns the first feasible instant of the step function on
//!   `[now, ∞)`, and reads nothing before `now`. Suppose a pass at `now`
//!   sees, from `now` on, the capacity the last pass left once its own
//!   starts were applied, and the first jobs of its queue are the last
//!   pass's unstarted reservations, each with the same width and
//!   prediction and each reserved at `s ≥ now`. Then a search from `now`
//!   returns each of those `s` again. Every instant before `s` was
//!   refused on a profile that had at least as much room (the jobs that
//!   started since were reserved on it only if they came earlier in the
//!   queue), and `s` itself still fits, because the last plan's profile
//!   stayed non-negative with all of them carved out. So the kept profile
//!   *is* the recomputed one after those reservations, and only the
//!   queue behind them is planned.
//! * *Nothing more starts once `now` is too full.* Reservations only
//!   lower the profile, so once the processors free at `now` are fewer
//!   than the narrowest job left in the queue, no later job can start
//!   now. Planning stops there, and the next pass that needs the tail
//!   plans it.
//!
//! The kept plan is a cache checked against the pass's own context, not
//! history: a pass decides from `ctx` alone, whatever ran before it on
//! the same instance. Provided as an extension beyond the paper's two
//! evaluated variants; exercised by the scheduler ablation
//! (`repro ablation`) and the `conservative_deep` benchmark workload.

use crate::job::JobId;
use crate::scheduler::{Profile, ReleasePoint, ReleaseSet, Scheduler};
use crate::state::{SchedulerContext, WaitingJob};
use crate::time::Time;

/// Conservative backfilling: plan every queued job, start those planned
/// now.
///
/// On a heterogeneous cluster each partition plans only the jobs it can
/// ever host: a job wider than the partition is left to a wider one and
/// reserves nothing here.
///
/// The availability profile is a reusable buffer, refilled from the
/// engine's incrementally maintained [`ReleaseSet`] — no sort and, once
/// warm, no allocation per pass — unless the last pass's plan still
/// holds (see the module docs), in which case it is kept and advanced
/// to `now`.
#[derive(Debug, Default, Clone)]
pub struct ConservativeScheduler {
    /// The last pass's profile, after every reservation it made.
    profile: Profile,
    /// The last pass's reserved-but-unstarted jobs, in queue order.
    reserved: Vec<Reservation>,
    /// What the next pass must see for `profile` to still be its plan.
    expect: Expected,
    /// Jobs planned (searched for and reserved) over this instance's
    /// life.
    #[cfg(test)]
    planned: u64,
}

/// One job the last pass reserved in the future, and what it was
/// planned as.
#[derive(Debug, Clone, Copy)]
struct Reservation {
    id: JobId,
    procs: u32,
    predicted: i64,
    start: i64,
}

/// The context under which the kept profile is the next pass's plan:
/// the last pass's partition and instant, and the capacity it leaves
/// once its own starts run.
#[derive(Debug, Default, Clone)]
struct Expected {
    /// False until a first pass has run.
    held: bool,
    partition: u32,
    machine_size: u32,
    now: Time,
    free: u32,
    releases: ReleaseSet,
}

impl ConservativeScheduler {
    /// A fresh scheduler (cold scratch, no plan kept).
    pub fn new() -> Self {
        Self::default()
    }

    /// The queue index behind the kept reservations, when the last
    /// pass's plan holds under `ctx` (see the module docs), else `None`.
    fn kept_plan(&self, ctx: &SchedulerContext<'_>) -> Option<usize> {
        let expect = &self.expect;
        if !expect.held
            || (expect.partition, expect.machine_size) != (ctx.partition, ctx.machine_size)
            || ctx.now < expect.now
        {
            return None;
        }
        let (free, later) = expect.releases.capacity_from(ctx.now, expect.free);
        let (ctx_free, ctx_later) = ctx.releases.capacity_from(ctx.now, ctx.free);
        let key = |p: &ReleasePoint| (p.time, p.procs);
        if free != ctx_free || !later.iter().map(key).eq(ctx_later.iter().map(key)) {
            return None;
        }
        let mut fitting =
            (ctx.queue.iter().enumerate()).filter(|(_, w)| w.procs <= ctx.machine_size);
        let mut behind = 0;
        for r in &self.reserved {
            let (i, w) = fitting.next()?;
            if (w.id, w.procs, w.predicted) != (r.id, r.procs, r.predicted) || r.start < ctx.now.0 {
                return None;
            }
            behind = i + 1;
        }
        Some(behind)
    }

    /// Places `job`'s reservation at its earliest start, starting it if
    /// that is `now`.
    fn plan(&mut self, now: i64, job: &WaitingJob, starts: &mut Vec<JobId>) {
        let duration = job.predicted.max(1);
        let start = self.profile.place(job.procs, duration);
        if start == now {
            starts.push(job.id);
            self.expect.started(now + duration, job.procs);
        } else {
            self.reserved.push(Reservation {
                id: job.id,
                procs: job.procs,
                predicted: job.predicted,
                start,
            });
        }
        #[cfg(test)]
        {
            self.planned += 1;
        }
    }
}

impl Expected {
    /// What `ctx` shows, before this pass starts anything.
    fn reset(&mut self, ctx: &SchedulerContext<'_>) {
        self.held = true;
        (self.partition, self.machine_size) = (ctx.partition, ctx.machine_size);
        (self.now, self.free) = (ctx.now, ctx.free);
        self.releases.clone_from(ctx.releases);
    }

    /// A job of `procs` starts now and, as planned, releases them at
    /// `end`.
    fn started(&mut self, end: i64, procs: u32) {
        self.free -= procs;
        self.releases.add(end, procs);
    }
}

impl Scheduler for ConservativeScheduler {
    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, starts: &mut Vec<JobId>) {
        let now = ctx.now.0;
        let kept = self.kept_plan(ctx);
        self.expect.reset(ctx);
        let mut next = match kept {
            Some(behind) => {
                self.profile.advance_to(now);
                for r in self.reserved.iter().filter(|r| r.start == now) {
                    starts.push(r.id);
                    self.expect.started(now + r.predicted.max(1), r.procs);
                }
                self.reserved.retain(|r| r.start > now);
                behind
            }
            None => {
                self.profile.rebuild_from(ctx.now, ctx.free, ctx.releases);
                self.reserved.clear();
                0
            }
        };
        // Plan up to and including the next job narrow enough to start
        // on what is free now: the ones before it cannot start, but
        // their reservations shape its search. With no such job left,
        // nothing more starts now, and the rest waits for a later pass.
        let queue = ctx.queue;
        loop {
            let free_now = self.profile.free_now();
            let Some(k) = queue[next..]
                .iter()
                .position(|w| w.procs as i64 <= free_now)
            else {
                break;
            };
            for job in &queue[next..=next + k] {
                if job.procs <= ctx.machine_size {
                    self.plan(now, job, starts);
                }
            }
            next += k + 1;
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

    /// Complexity guard that reads no clock. Eight of ten processors are
    /// busy until t = 10 000, and a 10-wide job holds the machine from
    /// there to t = 15 000. Then one 2-wide job arrives per pass: each
    /// fits the two idle processors but not before t = 10 000, so none
    /// starts and none ends planning early. Re-planning the whole queue
    /// every pass would plan n(n + 3)/2 jobs over n passes; keeping the
    /// plan plans each job once.
    #[test]
    fn single_arrivals_behind_a_busy_machine_plan_each_job_once() {
        const PASSES: u32 = 300;
        let running = [running(0, 8, 0, 10_000)];
        let mut queue = vec![waiting(1, 10, 5_000, 0)];
        let mut scheduler = ConservativeScheduler::new();
        for k in 0..PASSES {
            queue.push(waiting(2 + k, 2, 20_000, k as i64));
            let c = ctx(k as i64, 10, &queue, &running);
            assert!(schedule(&mut scheduler, &c).is_empty(), "pass {k}");
        }
        assert_eq!(scheduler.planned, u64::from(PASSES) + 1);
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
