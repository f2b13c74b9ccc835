//! EASY (aggressive) backfilling, with FCFS or SJBF backfill ordering.
//!
//! EASY \[9\] grants a *reservation* to the first job in the queue that does
//! not fit: the earliest future instant at which enough processors will be
//! free, assuming running jobs end at their predicted times. Any other
//! waiting job may be *backfilled* (started immediately) iff it cannot
//! delay that reservation, i.e. it either completes (according to its
//! prediction) before the reservation's *shadow time*, or it only uses
//! *extra* processors that the reservation does not need (Mu'alem &
//! Feitelson's classic formulation \[14\]).
//!
//! The paper evaluates two orderings of the backfill candidates (§5.1):
//! arrival order (plain EASY) and increasing predicted running time —
//! *Shortest Job Backfilled First* (EASY-SJBF, from Tsafrir et al. \[24\]).
//! SJBF is one ingredient of the winning heuristic triple (§6.3.3).
//!
//! Running times enter this algorithm **only** through the predictions
//! (`WaitingJob::predicted`, `RunningJob::predicted_end`) — this is the
//! lever by which better predictions improve the schedule, and exactly
//! what Figure 2 of the paper illustrates.

use crate::job::JobId;
use crate::scheduler::Scheduler;
use crate::state::{SchedulerContext, WaitingJob};
use crate::time::Time;

/// Order in which backfill candidates are examined (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackfillOrder {
    /// Arrival (FCFS) order — plain EASY.
    #[default]
    Fcfs,
    /// Increasing predicted running time — EASY-SJBF \[24\]. Ties broken by
    /// arrival order, keeping the policy deterministic.
    ShortestFirst,
}

/// The reservation EASY computes for the blocked head job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reservation {
    /// Earliest instant at which the head job can start, assuming running
    /// jobs end at their predicted ends.
    shadow: Time,
    /// Processors that will be free at `shadow` beyond the head job's
    /// requirement — backfill jobs that outlive the shadow may use these.
    extra: u32,
}

/// EASY backfilling scheduler.
///
/// Owns reusable scratch buffers (the phase-1 release list and the
/// tie fallback's release vector) so a warm scheduling pass allocates
/// nothing. SJBF candidates come from the state layer's incrementally
/// maintained shortest-first view
/// ([`SchedulerContext::shortest_first`]), so no per-pass sort either.
#[derive(Debug, Default, Clone)]
pub struct EasyScheduler {
    order: BackfillOrder,
    /// Releases contributed by phase-1 starts of the current pass,
    /// sorted by time.
    phase1: Vec<(i64, u32)>,
    /// Legacy-order release vector for the tie fallback.
    fallback: Vec<(Time, u32)>,
    /// Passes that took the tie fallback (see
    /// [`EasyScheduler::slow_passes`]).
    slow_passes: u64,
}

impl EasyScheduler {
    /// Plain EASY (FCFS backfill order).
    pub fn new() -> Self {
        Self::default()
    }

    /// EASY with the given backfill ordering.
    pub fn with_order(order: BackfillOrder) -> Self {
        Self {
            order,
            ..Self::default()
        }
    }

    /// EASY-SJBF.
    pub fn sjbf() -> Self {
        Self::with_order(BackfillOrder::ShortestFirst)
    }

    /// The configured backfill ordering.
    pub fn order(&self) -> BackfillOrder {
        self.order
    }

    /// Passes so far that fell back to the from-scratch sort and walk
    /// because a backfill candidate's admission depended on the order
    /// of releases of different widths tied at the reservation's
    /// crossing instant.
    pub fn slow_passes(&self) -> u64 {
        self.slow_passes
    }

    /// The head reservation from the incrementally maintained release
    /// set merged with this pass's phase-1 releases, with no sort. The
    /// shadow time is order-free. So is `extra` unless several releases
    /// tie at the crossing instant, where the legacy per-release walk
    /// ([`head_reservation`]) may cross mid-group and what it reports
    /// depends on the order its unstable sort left the group in:
    ///
    /// * a *uniform* tie (every release there frees the same processor
    ///   count — see [`crate::scheduler::ReleasePoint::uniform`]) crosses
    ///   after the same number of jobs in every order: exact;
    /// * a group of two or three — found by one scan of the running jobs
    ///   that stops at the last member — is enumerated: `extra` lies
    ///   between the least and the greatest excess any order crosses
    ///   with ([`crossing_excess`]);
    /// * a larger group is bounded by 0 and by the whole group counted.
    fn fast_reservation(
        &self,
        ctx: &SchedulerContext<'_>,
        free: u32,
        head_procs: u32,
    ) -> ExtraBounds {
        let base = ctx.releases.points();
        let extra = &self.phase1;
        let (mut i, mut j) = (0usize, 0usize);
        let mut avail = free;
        while i < base.len() || j < extra.len() {
            let t = match (base.get(i), extra.get(j)) {
                (Some(b), Some(e)) => b.time.min(e.0),
                (Some(b), None) => b.time,
                (None, Some(e)) => e.0,
                (None, None) => unreachable!("loop condition"),
            };
            let avail_before = avail;
            let (mut running_here, first_extra) = (0u32, j);
            // The common per-job release size of this instant's group, or
            // 0 when unknown/heterogeneous.
            let mut uniform = u32::MAX;
            if i < base.len() && base[i].time == t {
                avail += base[i].procs;
                running_here = base[i].jobs;
                uniform = base[i].uniform;
                i += 1;
            }
            while j < extra.len() && extra[j].0 == t {
                avail += extra[j].1;
                uniform = if uniform == u32::MAX || uniform == extra[j].1 {
                    extra[j].1
                } else {
                    0
                };
                j += 1;
            }
            if avail < head_procs {
                continue;
            }
            let need = head_procs - avail_before;
            let all = avail - head_procs;
            let jobs_here = running_here as usize + (j - first_extra);
            let (lo, hi) = if jobs_here == 1 {
                (all, all)
            } else if uniform != 0 {
                let exact = need.next_multiple_of(uniform) - need;
                (exact, exact)
            } else if jobs_here > MAX_ENUMERATED_TIE {
                (0, all)
            } else {
                let mut group = [0u32; MAX_ENUMERATED_TIE];
                let running = ctx
                    .running
                    .iter()
                    .filter(|r| r.partition == ctx.partition && r.predicted_end.0 == t)
                    .take(running_here as usize)
                    .map(|r| r.procs);
                let phase1 = extra[first_extra..j].iter().map(|&(_, procs)| procs);
                let mut members = 0;
                for (slot, procs) in group.iter_mut().zip(running.chain(phase1)) {
                    *slot = procs;
                    members += 1;
                }
                debug_assert_eq!(members, jobs_here, "release set out of step with running");
                crossing_excess(&group[..members], need)
            };
            return ExtraBounds {
                shadow: Time(t),
                lo,
                hi,
            };
        }
        // Releases exhausted without covering the head: the degrade
        // branch is order-free.
        ExtraBounds {
            shadow: ctx.now,
            lo: 0,
            hi: 0,
        }
    }

    /// Phase 3 — backfill the rest of the queue without delaying the
    /// reservation, given only that the legacy `extra` lies in
    /// `[lo, hi]`. A candidate that outlives the shadow is admitted when
    /// it fits `lo` (it fits whatever the true value is; both bounds
    /// shrink by its size, as the true value does) and refused when it
    /// exceeds `hi`. Returns `false` — with `starts` partly filled —
    /// at the first candidate in between, the only kind whose admission
    /// depends on the tie order.
    ///
    /// Candidates are the queue positions after the head; in SJBF order
    /// they come from the incrementally maintained shortest-first view
    /// (a sorted list restricted to a subset is the sorted subset —
    /// identical to sorting the candidates per pass, without the
    /// per-pass sort).
    fn backfill(
        order: BackfillOrder,
        ctx: &SchedulerContext<'_>,
        head_idx: usize,
        reservation: ExtraBounds,
        mut free: u32,
        starts: &mut Vec<JobId>,
    ) -> bool {
        let ExtraBounds {
            shadow,
            mut lo,
            mut hi,
        } = reservation;
        // `false`: the interval cannot decide this candidate.
        let mut decide = |job: &WaitingJob, free: &mut u32| {
            if job.procs > *free {
                return true;
            }
            let ends_by_shadow = ctx.now.plus(job.predicted) <= shadow;
            if !ends_by_shadow {
                if job.procs > hi {
                    return true;
                }
                if job.procs > lo {
                    return false;
                }
                lo -= job.procs;
                hi -= job.procs;
            }
            *free -= job.procs;
            starts.push(job.id);
            true
        };
        // Once no processor is free, no candidate can start (every
        // valid job needs at least one), so the remaining iterations
        // are provably no-ops and the walk stops early — identical
        // decisions, less per-pass work on deep queues.
        match order {
            BackfillOrder::Fcfs => {
                for job in &ctx.queue[head_idx + 1..] {
                    if free == 0 {
                        break;
                    }
                    if !decide(job, &mut free) {
                        return false;
                    }
                }
            }
            BackfillOrder::ShortestFirst => {
                for &position in ctx.shortest_first {
                    if free == 0 {
                        break;
                    }
                    if (position as usize) <= head_idx {
                        continue;
                    }
                    if !decide(&ctx.queue[position as usize], &mut free) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Largest crossing-instant tie whose orders are enumerated; a larger
/// group keeps the trivial bounds.
const MAX_ENUMERATED_TIE: usize = 3;

/// What the sort-free reservation knows about the head: the shadow time,
/// and a closed interval holding the `extra` [`head_reservation`] would
/// report. `lo == hi` whenever no tie order can change it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ExtraBounds {
    shadow: Time,
    lo: u32,
    hi: u32,
}

/// Least and greatest excess with which a per-release walk can cross
/// `need` inside the tied `group`, over all the orders a sort might
/// leave it in: the walk crosses on member `e` after a set `S` of the
/// others exactly when `sum(S) < need ≤ sum(S) + e`, so every such pair
/// is tried. `need` is positive and at most the group's total.
fn crossing_excess(group: &[u32], need: u32) -> (u32, u32) {
    let (mut lo, mut hi) = (u32::MAX, 0);
    for (e, &last) in group.iter().enumerate() {
        for others in (0u32..1 << group.len()).filter(|set| set & (1 << e) == 0) {
            let before: u32 = group
                .iter()
                .enumerate()
                .filter(|&(m, _)| others & (1 << m) != 0)
                .map(|(_, &procs)| procs)
                .sum();
            if before < need && before + last >= need {
                lo = lo.min(before + last - need);
                hi = hi.max(before + last - need);
            }
        }
    }
    debug_assert!(lo <= hi, "no order of {group:?} crosses {need}");
    (lo, hi)
}

/// Computes the head job's reservation: the shadow time and extra
/// processors, given currently `free` processors and the predicted ends of
/// `releases` (pairs of `(predicted end, processors)`, in any order).
///
/// `releases` must cumulatively free enough processors for the head,
/// which holds whenever `head_procs ≤ machine_size`.
fn head_reservation(
    now: Time,
    free: u32,
    head_procs: u32,
    releases: &mut [(Time, u32)],
) -> Reservation {
    debug_assert!(free < head_procs, "head fits now; no reservation needed");
    releases.sort_unstable_by_key(|&(t, _)| t);
    let mut avail = free;
    for &(t, procs) in releases.iter() {
        avail += procs;
        if avail >= head_procs {
            return Reservation {
                shadow: t,
                extra: avail - head_procs,
            };
        }
    }
    // Unreachable for validated inputs (head_procs ≤ machine size means all
    // releases plus free cover it); degrade gracefully for robustness.
    Reservation {
        shadow: now,
        extra: 0,
    }
}

impl Scheduler for EasyScheduler {
    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, starts: &mut Vec<JobId>) {
        let mut free = ctx.free;

        // Phase 1 — start the head of the queue while it fits (pure FCFS).
        let mut head_idx = 0;
        while head_idx < ctx.queue.len() && ctx.queue[head_idx].procs <= free {
            free -= ctx.queue[head_idx].procs;
            starts.push(ctx.queue[head_idx].id);
            head_idx += 1;
        }
        if head_idx < ctx.queue.len() {
            // Phase 2 — reservation for the blocked head. Jobs just
            // started in phase 1 also release processors at their
            // predicted ends and must be part of the computation; the
            // running jobs' releases come pre-sorted from `ctx.releases`.
            // Phase 3 runs on what that determines without a sort.
            let head = &ctx.queue[head_idx];
            self.phase1.clear();
            self.phase1.extend(
                ctx.queue[..head_idx]
                    .iter()
                    .map(|w| (ctx.now.plus(w.predicted).0, w.procs)),
            );
            self.phase1.sort_unstable_by_key(|&(t, _)| t);
            if self.fallback.capacity() == 0 {
                // Every release holds at least one processor, so the
                // sort path's vector never outgrows this. Sized once,
                // up front: letting a rare tie grow it late in a run
                // cost 8 % of peak RSS through heap layout alone. A
                // machine too wide for the address space (a log may
                // claim 2³² − 1 processors) grows on demand instead of
                // aborting.
                let _ = self.fallback.try_reserve(ctx.machine_size as usize);
            }
            let after_phase1 = starts.len();
            let bounds = self.fast_reservation(ctx, free, head.procs);
            if !Self::backfill(self.order, ctx, head_idx, bounds, free, starts) {
                // A candidate's admission hangs on the tie order: undo
                // phase 3 and recompute exactly as the from-scratch
                // oracle would (legacy vector order, unstable sort,
                // per-release walk).
                starts.truncate(after_phase1);
                self.slow_passes += 1;
                self.fallback.clear();
                self.fallback.extend(
                    ctx.running
                        .iter()
                        .filter(|r| r.partition == ctx.partition)
                        .map(|r| (r.predicted_end, r.procs)),
                );
                self.fallback.extend(
                    ctx.queue[..head_idx]
                        .iter()
                        .map(|w| (ctx.now.plus(w.predicted), w.procs)),
                );
                let Reservation { shadow, extra } =
                    head_reservation(ctx.now, free, head.procs, &mut self.fallback);
                let exact = ExtraBounds {
                    shadow,
                    lo: extra,
                    hi: extra,
                };
                let decided = Self::backfill(self.order, ctx, head_idx, exact, free, starts);
                debug_assert!(decided, "an exact reservation leaves no gap");
            }
        }
    }

    fn name(&self) -> String {
        match self.order {
            BackfillOrder::Fcfs => "easy".into(),
            BackfillOrder::ShortestFirst => "easy-sjbf".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::testutil::{ctx, running, schedule, waiting};

    #[test]
    fn reservation_math() {
        // 2 free now; running jobs release 4 procs at t=100 and 2 at t=50.
        let mut releases = vec![(Time(100), 4), (Time(50), 2)];
        let r = head_reservation(Time(0), 2, 6, &mut releases);
        // At t=50: 4 avail (<6). At t=100: 8 avail -> shadow=100, extra=2.
        assert_eq!(r.shadow, Time(100));
        assert_eq!(r.extra, 2);
    }

    #[test]
    fn reservation_uses_earliest_sufficient_instant() {
        let mut releases = vec![(Time(30), 5), (Time(10), 1)];
        let r = head_reservation(Time(0), 0, 1, &mut releases);
        assert_eq!(r.shadow, Time(10));
        assert_eq!(r.extra, 0);
    }

    #[test]
    fn uncoverable_head_reserves_now_with_no_extra() {
        let mut releases = vec![(Time(50), 8), (Time(100), 8)];
        let r = head_reservation(Time(7), 0, 24, &mut releases);
        assert_eq!(
            r,
            Reservation {
                shadow: Time(7),
                extra: 0
            }
        );
    }

    /// `crossing_excess` against the walk it summarises: every order of
    /// every group of two or three widths 1–6, for every need the group
    /// can cover.
    #[test]
    fn crossing_excess_spans_every_order_of_the_group() {
        fn walk(order: &[u32], need: u32) -> u32 {
            let mut sum = 0;
            for &procs in order {
                sum += procs;
                if sum >= need {
                    return sum - need;
                }
            }
            unreachable!("need exceeds the group")
        }
        for (a, b, c) in
            (1..=6).flat_map(|a| (1..=6).flat_map(move |b| (0..=6).map(move |c| (a, b, c))))
        {
            // c = 0 stands for a group of two.
            let group: Vec<u32> = [a, b, c].into_iter().filter(|&p| p > 0).collect();
            let n = group.len();
            for need in 1..=group.iter().sum() {
                let mut seen = Vec::new();
                for i in 0..n {
                    for j in (0..n).filter(|&j| j != i) {
                        let mut order = vec![group[i], group[j]];
                        order.extend((0..n).filter(|&k| k != i && k != j).map(|k| group[k]));
                        seen.push(walk(&order, need));
                    }
                }
                let bounds = (*seen.iter().min().unwrap(), *seen.iter().max().unwrap());
                assert_eq!(
                    crossing_excess(&group, need),
                    bounds,
                    "{group:?} need {need}"
                );
            }
        }
        assert_eq!(crossing_excess(&[8, 2], 2), (0, 6));
        assert_eq!(crossing_excess(&[2, 3], 5), (0, 0));
    }

    #[test]
    fn paper_figure2_scenario() {
        // Figure 2 of the paper: machine of (say) 10 procs. Job 1 runs on 6
        // procs until t=100. Queue: job 2 needs 8 procs (blocked), job 3
        // needs 4 and is short -> backfilled at t0.
        let queue = [waiting(2, 8, 200, 1), waiting(3, 4, 90, 2)];
        let running = [running(1, 6, 0, 100)];
        let c = ctx(0, 10, &queue, &running);
        let starts = schedule(&mut EasyScheduler::new(), &c);
        // Job 3 ends (predicted) at 90 <= shadow 100: backfilled.
        assert_eq!(starts, vec![JobId(3)]);
    }

    #[test]
    fn backfill_rejected_if_it_would_delay_reservation() {
        // Same scenario but job 3 is long (ends after shadow) and the
        // reservation leaves 10-8=2 extra procs < 4 procs.
        let queue = [waiting(2, 8, 200, 1), waiting(3, 4, 150, 2)];
        let running = [running(1, 6, 0, 100)];
        let c = ctx(0, 10, &queue, &running);
        let starts = schedule(&mut EasyScheduler::new(), &c);
        assert!(starts.is_empty());
    }

    #[test]
    fn long_backfill_allowed_on_extra_processors() {
        // Head needs 6 of 10; shadow releases 6 at t=100, extra = 10-6-2...
        // Setup: 4 free now, running 6 procs end t=100. Head needs 6.
        // At t=100 avail = 10 -> extra = 4. A long 3-proc job fits in extra.
        let queue = [waiting(2, 6, 500, 1), waiting(3, 3, 400, 2)];
        let running = [running(1, 6, 0, 100)];
        let c = ctx(0, 10, &queue, &running);
        let starts = schedule(&mut EasyScheduler::new(), &c);
        assert_eq!(starts, vec![JobId(3)]);
    }

    #[test]
    fn extra_is_consumed_by_long_backfills() {
        // extra = 4; two long 3-proc jobs -> only the first backfills.
        let queue = [
            waiting(2, 6, 500, 1),
            waiting(3, 3, 400, 2),
            waiting(4, 3, 400, 3),
        ];
        let running = [running(1, 6, 0, 100)];
        let c = ctx(0, 10, &queue, &running);
        let starts = schedule(&mut EasyScheduler::new(), &c);
        assert_eq!(starts, vec![JobId(3)]);
    }

    #[test]
    fn short_backfills_do_not_consume_extra() {
        // Machine 12, 6 procs busy until t=100, head needs 7 -> shadow at
        // t=100 with extra = 12-7 = 5. Two short 2-proc jobs backfill
        // before the shadow without touching extra; a long 2-proc job
        // still fits in the extra afterwards.
        let queue = [
            waiting(2, 7, 500, 1),
            waiting(3, 2, 50, 2),
            waiting(4, 2, 50, 3),
            waiting(5, 2, 400, 4),
        ];
        let running = [running(1, 6, 0, 100)];
        let c = ctx(0, 12, &queue, &running);
        let starts = schedule(&mut EasyScheduler::new(), &c);
        assert_eq!(starts, vec![JobId(3), JobId(4), JobId(5)]);
    }

    #[test]
    fn sjbf_examines_shortest_first() {
        // 2 free procs; candidates in arrival order: long job then short
        // job, both 2 procs, only one can backfill (extra=0, shadow=100).
        // FCFS order backfills neither (first candidate too long, second
        // fits); SJBF backfills the short one.
        let queue = [
            waiting(2, 10, 500, 1),
            waiting(3, 2, 300, 2),
            waiting(4, 2, 80, 3),
        ];
        let running = [running(1, 8, 0, 100)];
        let c = ctx(0, 10, &queue, &running);

        let fcfs_starts = schedule(&mut EasyScheduler::new(), &c);
        // FCFS: job 3 rejected (ends at 300 > 100, extra=0 after head
        // needs all 10), job 4 accepted (ends 80 <= 100).
        assert_eq!(fcfs_starts, vec![JobId(4)]);

        let sjbf_starts = schedule(&mut EasyScheduler::sjbf(), &c);
        assert_eq!(sjbf_starts, vec![JobId(4)]);
    }

    #[test]
    fn sjbf_outbackfills_fcfs_when_short_job_is_behind() {
        // Machine 10, running job holds 8 until t=100 -> free=2. Head
        // needs 8: shadow=100, extra=10-8=2. Candidate A (arrives first):
        // 2 procs, predicted 300 -> outlives the shadow but fits in the 2
        // extra procs. Candidate B: 2 procs, predicted 50 -> fits before
        // the shadow. Only one of them can start (free=2).
        // FCFS examines A first and gives it the slot; SJBF examines the
        // short job B first — the behavior [24] argues improves packing.
        let queue = [
            waiting(2, 8, 500, 1),
            waiting(3, 2, 300, 2),
            waiting(4, 2, 50, 3),
        ];
        let running = [running(1, 8, 0, 100)];
        let c = ctx(0, 10, &queue, &running);

        let fcfs = schedule(&mut EasyScheduler::new(), &c);
        assert_eq!(fcfs, vec![JobId(3)]); // long job grabbed the slot
        let sjbf = schedule(&mut EasyScheduler::sjbf(), &c);
        assert_eq!(sjbf, vec![JobId(4)]); // short job preferred
    }

    #[test]
    fn whole_queue_starts_when_machine_is_free() {
        let queue = [
            waiting(0, 3, 10, 0),
            waiting(1, 3, 10, 1),
            waiting(2, 4, 10, 2),
        ];
        let c = ctx(0, 10, &queue, &[]);
        let starts = schedule(&mut EasyScheduler::new(), &c);
        assert_eq!(starts.len(), 3);
    }

    #[test]
    fn phase1_starts_feed_reservation() {
        // Machine 4. Queue: job A (2 procs, pred 100), job B (4 procs).
        // A starts now; B's reservation must account for A ending at 100,
        // plus running job ending at 50. At t=50 avail=2+...
        // free after A = 0; releases: running (2 procs @50), A (2 @100).
        // At 50: avail 2 < 4; at 100: avail 4 -> shadow=100.
        // Candidate C (2 procs, pred 40): free=0 -> cannot backfill.
        let queue = [
            waiting(10, 2, 100, 0),
            waiting(11, 4, 100, 1),
            waiting(12, 2, 40, 2),
        ];
        let running = [running(1, 2, 0, 50)];
        let c = ctx(0, 4, &queue, &running);
        let starts = schedule(&mut EasyScheduler::new(), &c);
        assert_eq!(starts, vec![JobId(10)]);
    }

    #[test]
    fn names() {
        assert_eq!(EasyScheduler::new().name(), "easy");
        assert_eq!(EasyScheduler::sjbf().name(), "easy-sjbf");
        assert_eq!(EasyScheduler::sjbf().order(), BackfillOrder::ShortestFirst);
    }
}
