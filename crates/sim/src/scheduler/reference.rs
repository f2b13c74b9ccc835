//! Brute-force reference schedulers: rebuild-from-scratch oracles.
//!
//! These are the pre-refactor implementations of EASY and conservative
//! backfilling, kept verbatim: every pass re-collects the running jobs'
//! releases into a fresh vector, re-sorts it, and (for conservative)
//! rebuilds the availability profile from scratch and searches it with
//! the original quadratic candidate scan (`BruteProfile`, private to
//! this module so the referee shares no code with the production
//! [`crate::scheduler::profile::Profile`] it judges; the EASY oracle's
//! sort-and-walk reservation is likewise its own copy). They are
//! deliberately slow and allocation-heavy — their only job is to be
//! *obviously* equivalent to the published algorithms, so the property
//! tests can assert that the production schedulers (incremental release
//! set, reusable scratch, slot-indexed state) produce identical starts
//! on arbitrary queue/running states.
//!
//! Not registered in the experiment registry; use
//! [`crate::scheduler::EasyScheduler`] /
//! [`crate::scheduler::ConservativeScheduler`] for real runs.

use crate::cluster::ClusterSpec;
use crate::job::JobId;
use crate::scheduler::easy::BackfillOrder;
use crate::scheduler::profile::ReleaseSet;
use crate::scheduler::Scheduler;
use crate::state::{sorted_shortest_first, RunningJob, SchedulerContext, WaitingJob};
use crate::time::Time;

/// The from-scratch EASY oracle (optionally SJBF-ordered), bit-equal to
/// the pre-refactor `EasyScheduler`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceEasy {
    /// Backfill candidate ordering (§5.1).
    pub order: BackfillOrder,
}

impl ReferenceEasy {
    /// Plain EASY oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// EASY-SJBF oracle.
    pub fn sjbf() -> Self {
        Self {
            order: BackfillOrder::ShortestFirst,
        }
    }
}

impl Scheduler for ReferenceEasy {
    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, starts: &mut Vec<JobId>) {
        let mut free = ctx.free;

        // Phase 1 — start the head of the queue while it fits (pure FCFS).
        let mut head_idx = 0;
        while head_idx < ctx.queue.len() && ctx.queue[head_idx].procs <= free {
            free -= ctx.queue[head_idx].procs;
            starts.push(ctx.queue[head_idx].id);
            head_idx += 1;
        }
        if head_idx >= ctx.queue.len() {
            return; // whole queue started
        }

        // Phase 2 — reservation for the blocked head, rebuilt from
        // scratch: running releases in running-vector order, then the
        // phase-1 starts, unstable-sorted by time.
        let head = &ctx.queue[head_idx];
        let mut releases: Vec<(Time, u32)> = ctx
            .running
            .iter()
            .filter(|r| r.partition == ctx.partition)
            .map(|r: &RunningJob| (r.predicted_end, r.procs))
            .chain(
                ctx.queue[..head_idx]
                    .iter()
                    .map(|w| (ctx.now.plus(w.predicted), w.procs)),
            )
            .collect();
        releases.sort_unstable_by_key(|&(t, _)| t);
        // Walk the releases until the head fits; releases that never
        // cover it (a head wider than the machine) reserve now, with
        // nothing extra.
        let (mut shadow, mut extra) = (ctx.now, 0);
        let mut avail = free;
        for &(t, procs) in &releases {
            avail += procs;
            if avail >= head.procs {
                (shadow, extra) = (t, avail - head.procs);
                break;
            }
        }

        // Phase 3 — backfill the rest of the queue without delaying the
        // reservation.
        let mut candidates: Vec<&WaitingJob> = ctx.queue[head_idx + 1..].iter().collect();
        if self.order == BackfillOrder::ShortestFirst {
            candidates.sort_by_key(|j| (j.predicted, j.submit, j.id));
        }
        for job in candidates {
            if job.procs > free {
                continue;
            }
            let ends_by_shadow = ctx.now.plus(job.predicted) <= shadow;
            if ends_by_shadow {
                free -= job.procs;
                starts.push(job.id);
            } else if job.procs <= extra {
                extra -= job.procs;
                free -= job.procs;
                starts.push(job.id);
            }
        }
    }

    fn name(&self) -> String {
        match self.order {
            BackfillOrder::Fcfs => "reference-easy".into(),
            BackfillOrder::ShortestFirst => "reference-easy-sjbf".into(),
        }
    }
}

/// The oracle's own availability profile: the pre-sweep
/// `Profile::{new, free_at, earliest_start, feasible_at, reserve,
/// ensure_breakpoint}` bodies, verbatim. Every candidate start re-scans
/// the breakpoints from index 0 and `reserve` walks all of them —
/// O(P²) per queued job, which is the point: nothing here is clever
/// enough to be wrong in the same way as the production sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BruteProfile {
    points: Vec<(i64, i64)>,
}

impl BruteProfile {
    /// Builds the profile as seen at `now` with `free` processors idle and
    /// each `(end, procs)` release adding capacity at its (predicted) end.
    ///
    /// Releases at or before `now` are treated as immediately free (they
    /// can occur transiently while corrections are being applied).
    fn new(now: Time, free: u32, releases: &[(Time, u32)]) -> Self {
        let mut deltas: Vec<(i64, i64)> = releases
            .iter()
            .map(|&(t, p)| (t.0.max(now.0), p as i64))
            .collect();
        deltas.sort_unstable();
        let mut points = Vec::with_capacity(deltas.len() + 1);
        points.push((now.0, free as i64));
        for (t, p) in deltas {
            let (last_t, last_free) = *points.last().expect("profile never empty");
            if t == last_t {
                points.last_mut().expect("non-empty").1 = last_free + p;
            } else {
                points.push((t, last_free + p));
            }
        }
        Self { points }
    }

    /// Free processors at instant `t` (clamped to the profile's start).
    fn free_at(&self, t: i64) -> i64 {
        match self.points.binary_search_by_key(&t, |&(pt, _)| pt) {
            Ok(i) => self.points[i].1,
            Err(0) => self.points[0].1,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Earliest start `s ≥ from` such that at least `procs` processors are
    /// free during the whole interval `[s, s + duration)`.
    fn earliest_start(&self, from: i64, procs: u32, duration: i64) -> i64 {
        let procs = procs as i64;
        debug_assert!(duration > 0, "reservation must have positive duration");
        // Candidate starts: `from` itself, then every later breakpoint.
        if self.feasible_at(from, procs, duration) {
            return from;
        }
        for i in 0..self.points.len() {
            let s = self.points[i].0;
            if s <= from {
                continue;
            }
            if self.feasible_at(s, procs, duration) {
                return s;
            }
        }
        // With procs ≤ machine size this is unreachable; degrade to the
        // profile's horizon for robustness.
        self.points
            .last()
            .map(|&(t, _)| t.max(from))
            .unwrap_or(from)
    }

    /// True when at least `procs` processors stay free during the whole
    /// interval `[s, s + duration)`.
    fn feasible_at(&self, s: i64, procs: i64, duration: i64) -> bool {
        if self.free_at(s) < procs {
            return false;
        }
        // Check every breakpoint inside (s, s+duration).
        for &(t, f) in &self.points {
            if t <= s {
                continue;
            }
            if t >= s + duration {
                break;
            }
            if f < procs {
                return false;
            }
        }
        true
    }

    /// Removes `procs` processors during `[start, start + duration)`.
    fn reserve(&mut self, start: i64, duration: i64, procs: u32) {
        let procs = procs as i64;
        let end = start + duration;
        self.ensure_breakpoint(start);
        self.ensure_breakpoint(end);
        for (t, f) in self.points.iter_mut() {
            if *t >= start && *t < end {
                *f -= procs;
                debug_assert!(*f >= 0, "over-reserved profile at t={t}: {f}");
            }
        }
    }

    fn ensure_breakpoint(&mut self, t: i64) {
        match self.points.binary_search_by_key(&t, |&(pt, _)| pt) {
            Ok(_) => {}
            Err(0) => {
                // Before profile start: extend backwards with the same free
                // count (callers only reserve from `now` on, so this is a
                // defensive path).
                let f = self.points[0].1;
                self.points.insert(0, (t, f));
            }
            Err(i) => {
                let f = self.points[i - 1].1;
                self.points.insert(i, (t, f));
            }
        }
    }
}

/// The from-scratch conservative oracle, bit-equal to the pre-refactor
/// `ConservativeScheduler`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceConservative;

impl Scheduler for ReferenceConservative {
    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, starts: &mut Vec<JobId>) {
        let releases: Vec<(Time, u32)> = ctx
            .running
            .iter()
            .filter(|r| r.partition == ctx.partition)
            .map(|r| (r.predicted_end, r.procs))
            .collect();
        let mut profile = BruteProfile::new(ctx.now, ctx.free, &releases);
        for job in ctx.queue {
            let duration = job.predicted.max(1);
            let start = profile.earliest_start(ctx.now.0, job.procs, duration);
            profile.reserve(start, duration, job.procs);
            if start == ctx.now.0 {
                starts.push(job.id);
            }
        }
    }

    fn name(&self) -> String {
        "reference-conservative".into()
    }
}

/// Brute-force oracle for the engine's heterogeneous routing policy:
/// first-fit by partition order, then per-partition EASY (optionally
/// SJBF) — see [`ClusterSpec`]. Rebuilds every per-partition view from
/// scratch (filtered running vectors, fresh release sets, re-sorted
/// shortest-first), so it is *obviously* the routing loop's semantics;
/// the property tests assert the production engine produces identical
/// `(job, partition)` placements.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceHetero {
    /// Backfill candidate ordering of the per-partition EASY passes.
    pub order: BackfillOrder,
}

impl ReferenceHetero {
    /// First-fit routing over per-partition plain EASY.
    pub fn new() -> Self {
        Self::default()
    }

    /// First-fit routing over per-partition EASY-SJBF.
    pub fn sjbf() -> Self {
        Self {
            order: BackfillOrder::ShortestFirst,
        }
    }

    /// One scheduling instant: the `(job, partition)` placements the
    /// engine's routing loop makes at `now`, given the global FCFS
    /// `queue` and the cluster-wide `running` set (each running job
    /// tagged with its partition).
    pub fn schedule(
        &self,
        now: Time,
        cluster: ClusterSpec,
        queue: &[WaitingJob],
        running: &[RunningJob],
    ) -> Vec<(JobId, u32)> {
        let mut placements = Vec::new();
        let mut remaining: Vec<WaitingJob> = queue.to_vec();
        for (p, part) in cluster.partitions().iter().enumerate() {
            if remaining.is_empty() {
                break;
            }
            let local: Vec<RunningJob> = running
                .iter()
                .filter(|r| r.partition as usize == p)
                .copied()
                .collect();
            let used: u32 = local.iter().map(|r| r.procs).sum();
            let free = part.size - used;
            if free == 0 {
                continue;
            }
            let releases = ReleaseSet::from_running(&local);
            let shortest = sorted_shortest_first(&remaining);
            let ctx = SchedulerContext {
                now,
                partition: p as u32,
                machine_size: part.size,
                free,
                queue: &remaining,
                running: &local,
                releases: &releases,
                shortest_first: &shortest,
            };
            let starts = ReferenceEasy { order: self.order }.schedule(&ctx);
            placements.extend(starts.iter().map(|&id| (id, p as u32)));
            remaining.retain(|w| !starts.contains(&w.id));
        }
        placements
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::profile::Profile;
    use crate::scheduler::testutil::{ctx, running, waiting};
    use crate::scheduler::{ConservativeScheduler, EasyScheduler};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The production sweep against the brute-force search, on
        /// random profiles carved by stacked reservations: `from` before
        /// the first breakpoint, on one and between two; windows inside
        /// one segment and across many; full-width reservations that
        /// leave zero-capacity segments; and requests wider than the
        /// machine, which take the "capacity never suffices" branch.
        /// After every reservation the breakpoints must be equal too.
        #[test]
        fn sweep_matches_brute_force_on_random_profiles(
            now in 0i64..40,
            free in 0u32..6,
            releases in prop::collection::vec((0i64..120, 1u32..5), 0..10),
            ops in prop::collection::vec((-10i64..160, 0u32..64, 1i64..90, 0u8..4), 1..24),
        ) {
            let mut set = ReleaseSet::new();
            for &(end, procs) in &releases {
                set.add(end, procs);
            }
            let mut sweep = Profile::empty();
            sweep.rebuild_from(Time(now), free, &set);
            let timed: Vec<(Time, u32)> = releases.iter().map(|&(t, p)| (Time(t), p)).collect();
            let mut brute = BruteProfile::new(Time(now), free, &timed);
            prop_assert_eq!(sweep.points(), &brute.points[..], "rebuild_from != from scratch");

            let machine = free + releases.iter().map(|&(_, p)| p).sum::<u32>();
            for (from, width, duration, keep) in ops {
                // 0 ..= machine + 1: nothing, a share, the whole machine
                // (zero-capacity segments), more than there will ever be.
                let procs = width % (machine + 2);
                let start = brute.earliest_start(from, procs, duration);
                prop_assert_eq!(
                    sweep.earliest_start(from, procs, duration),
                    start,
                    "from={} procs={} duration={} on {:?}", from, procs, duration, brute.points
                );
                if keep > 0 && brute.feasible_at(start, procs as i64, duration) {
                    brute.reserve(start, duration, procs);
                    sweep.reserve(start, duration, procs);
                    prop_assert_eq!(sweep.points(), &brute.points[..], "reserve diverged");
                }
            }
        }
    }

    #[test]
    fn oracles_match_production_on_the_figure2_scenario() {
        let queue = [waiting(2, 8, 200, 1), waiting(3, 4, 90, 2)];
        let running = [running(1, 6, 0, 100)];
        let c = ctx(0, 10, &queue, &running);
        assert_eq!(
            ReferenceEasy::new().schedule(&c),
            EasyScheduler::new().schedule(&c)
        );
        assert_eq!(
            ReferenceConservative.schedule(&c),
            ConservativeScheduler::new().schedule(&c)
        );
    }

    #[test]
    fn names() {
        assert_eq!(ReferenceEasy::new().name(), "reference-easy");
        assert_eq!(ReferenceEasy::sjbf().name(), "reference-easy-sjbf");
        assert_eq!(ReferenceConservative.name(), "reference-conservative");
    }
}
