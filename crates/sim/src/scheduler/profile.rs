//! Processor-availability profile over future time.
//!
//! Conservative backfilling \[14\] plans a tentative start time for *every*
//! waiting job, which requires reasoning about how many processors are
//! free at every future instant, given the predicted ends of running jobs
//! and the reservations already granted. [`Profile`] is that piecewise-
//! constant function, with the one operation conservative backfilling
//! needs: [`Profile::place`] finds the earliest feasible start for a
//! `(procs, duration)` rectangle and carves it out of the capacity.
//!
//! [`ReleaseSet`] is the *incrementally maintained* substrate both
//! backfilling families read: the time-sorted aggregate of future
//! capacity releases (one entry per distinct predicted end), kept up to
//! date by the engine on every start, finish, and correction instead of
//! being rebuilt and re-sorted from the running set on every scheduling
//! pass. EASY's reservation walk consumes it directly;
//! [`Profile::rebuild_from`] materializes it into a [`Profile`] for
//! conservative backfilling without sorting or allocating.

use crate::state::RunningJob;
use crate::time::Time;

/// One aggregated future capacity release.
///
/// Equality ignores the [`ReleasePoint::uniform`] cache: it is a
/// conservative summary of the *history* of additions, so an
/// incrementally maintained point can legitimately hold 0 where a
/// freshly aggregated one knows the common size — without the sets
/// differing in any behavior-relevant way (a 0 merely routes the EASY
/// fast path to the fallback, which computes the same reservation).
#[derive(Debug, Clone, Copy, Eq)]
pub struct ReleasePoint {
    /// The instant (a predicted end of one or more running jobs).
    pub time: i64,
    /// Total processors released at this instant.
    pub procs: u32,
    /// How many running jobs release at this instant. Scheduling fast
    /// paths that are only order-independent for a *single* release at
    /// the crossing instant use this to detect ties.
    pub jobs: u32,
    /// The common per-job processor count when every job releasing here
    /// is known to release the same amount, else 0. Conservative: a
    /// point that was ever heterogeneous stays 0 even if removals make
    /// it uniform again (the aggregate cannot tell). A *uniform* tie at
    /// a reservation's crossing instant is order-free — every
    /// permutation of equal releases crosses after the same number of
    /// jobs — which lets EASY's fast path resolve most ties without the
    /// legacy sort-and-walk fallback.
    pub uniform: u32,
}

impl PartialEq for ReleasePoint {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.procs, self.jobs) == (other.time, other.procs, other.jobs)
    }
}

/// Time-sorted aggregate of the future capacity releases of the running
/// set: for every distinct predicted end, the processors freed there.
///
/// Maintained incrementally by the engine — O(log n) locate plus a
/// memmove per update, no allocation after warm-up — so a scheduling
/// pass never sorts the running set again. The invariant the engine
/// upholds (and its state asserts in tests): the
/// multiset of `(predicted_end, procs)` over running jobs equals this
/// set's aggregated contents.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ReleaseSet {
    points: Vec<ReleasePoint>,
}

impl Clone for ReleaseSet {
    fn clone(&self) -> Self {
        Self {
            points: self.points.clone(),
        }
    }

    /// Copies into the buffer already held, so a warm copy allocates
    /// nothing.
    fn clone_from(&mut self, source: &Self) {
        self.points.clone_from(&source.points);
    }
}

impl ReleaseSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the set from a running slice (tests and oracles; the
    /// engine maintains its set incrementally instead).
    pub fn from_running(running: &[RunningJob]) -> Self {
        let mut set = Self::new();
        for r in running {
            set.add(r.predicted_end.0, r.procs);
        }
        set
    }

    /// Registers one job releasing `procs` processors at `time`.
    pub(crate) fn add(&mut self, time: i64, procs: u32) {
        match self.points.binary_search_by_key(&time, |p| p.time) {
            Ok(i) => {
                let p = &mut self.points[i];
                p.procs += procs;
                p.jobs += 1;
                if p.uniform != procs {
                    p.uniform = 0;
                }
            }
            Err(i) => self.points.insert(
                i,
                ReleasePoint {
                    time,
                    procs,
                    jobs: 1,
                    uniform: procs,
                },
            ),
        }
    }

    /// Unregisters one job that would have released `procs` at `time`
    /// (it finished, or its prediction moved).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if no such release is registered — that is
    /// an engine bookkeeping bug, not a runtime condition.
    pub(crate) fn remove(&mut self, time: i64, procs: u32) {
        match self.points.binary_search_by_key(&time, |p| p.time) {
            Ok(i) => {
                let p = &mut self.points[i];
                debug_assert!(
                    p.procs >= procs && p.jobs >= 1,
                    "release underflow at t={time}: removing {procs} from {p:?}"
                );
                p.procs -= procs;
                p.jobs -= 1;
                if p.jobs == 0 {
                    debug_assert_eq!(p.procs, 0, "procs left with no jobs at t={time}");
                    self.points.remove(i);
                }
            }
            Err(_) => debug_assert!(false, "no release registered at t={time}"),
        }
    }

    /// Moves one job's release of `procs` from `from` to `to` (a
    /// correction re-predicted its end).
    pub(crate) fn shift(&mut self, from: i64, to: i64, procs: u32) {
        if from == to {
            return;
        }
        self.remove(from, procs);
        self.add(to, procs);
    }

    /// The aggregated releases, sorted by time.
    pub fn points(&self) -> &[ReleasePoint] {
        &self.points
    }

    /// The capacity that `free` idle processors and this set give from
    /// `now` on: the processors free at `now`, with every release at or
    /// before `now` folded in, and the releases after `now`.
    pub(crate) fn capacity_from(&self, now: Time, free: u32) -> (i64, &[ReleasePoint]) {
        let later = self.points.partition_point(|p| p.time <= now.0);
        let folded: i64 = self.points[..later].iter().map(|p| p.procs as i64).sum();
        (free as i64 + folded, &self.points[later..])
    }

    /// Empties the set, keeping the buffer's capacity (scratch reuse
    /// across simulations).
    pub(crate) fn clear(&mut self) {
        self.points.clear();
    }

    /// Number of distinct release instants.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no job is due to release capacity.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Piecewise-constant "free processors" function of time.
///
/// Internally a sorted list of `(time, free)` breakpoints; `free` of the
/// last breakpoint extends to infinity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Profile {
    points: Vec<(i64, i64)>,
}

impl Profile {
    /// Refills this profile from `now`, `free` idle processors, and the
    /// incrementally maintained release set, without sorting or
    /// allocating: each release adds its processors at its instant.
    ///
    /// Releases at or before `now` fold into the immediately-free
    /// capacity (they can occur transiently while corrections are being
    /// applied).
    pub(crate) fn rebuild_from(&mut self, now: Time, free: u32, releases: &ReleaseSet) {
        self.points.clear();
        let (mut cum, later) = releases.capacity_from(now, free);
        self.points.push((now.0, cum));
        for p in later {
            cum += p.procs as i64;
            self.points.push((p.time, cum));
        }
    }

    /// Drops everything before `now`, which must not precede the
    /// profile's first instant: the segment holding `now` then starts
    /// at `now`, and the function on `[now, ∞)` is unchanged.
    pub(crate) fn advance_to(&mut self, now: i64) {
        debug_assert!(self.points[0].0 <= now, "advancing a profile backwards");
        let first = self.points.partition_point(|&(t, _)| t <= now) - 1;
        let free = self.points[first].1;
        self.points.drain(..first);
        self.points[0] = (now, free);
    }

    /// Free processors at the profile's first instant (`now`).
    pub(crate) fn free_now(&self) -> i64 {
        self.points[0].1
    }

    /// Free processors at instant `t` (clamped to the profile's start).
    #[cfg(test)]
    pub(crate) fn free_at(&self, t: i64) -> i64 {
        match self.points.binary_search_by_key(&t, |&(pt, _)| pt) {
            Ok(i) => self.points[i].1,
            Err(0) => self.points[0].1,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Reserves `procs` processors for `duration` at the earliest instant,
    /// from the profile's first on, at which they stay free throughout,
    /// and returns that instant.
    ///
    /// One forward sweep from index 0 (segment `i` spans
    /// `[points[i].0, points[i + 1].0)`). A segment with too little
    /// capacity rules out every start whose window would overlap it, so
    /// the candidate jumps to that segment's end: each breakpoint is read
    /// once, and the start is a breakpoint already. The window covers the
    /// segments `first..=last` crossed since, carved in place; only its
    /// end may need a new breakpoint, right after them.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `procs` exceeds the machine size: no
    /// window fits, and the reservation over-reserves the last segment.
    pub(crate) fn place(&mut self, procs: u32, duration: i64) -> i64 {
        debug_assert!(duration > 0, "reservation must have positive duration");
        let procs = procs as i64;
        let points = &mut self.points;
        let (mut first, mut last) = (0, 0);
        while let Some(&(end, _)) = points.get(last + 1) {
            if points[last].1 < procs {
                first = last + 1;
            } else if end >= points[first].0 + duration {
                break;
            }
            last += 1;
        }
        // Capacity is non-decreasing after the last breakpoint, so the
        // window fits there unless no window ever does: then degrade to
        // the profile's horizon.
        if points[last].1 < procs {
            first = last;
        }
        let (start, free) = (points[first].0, points[last].1);
        for (t, f) in &mut points[first..=last] {
            *f -= procs;
            debug_assert!(*f >= 0, "over-reserved profile at t={t}: {f}");
        }
        let stop = start + duration;
        if points.get(last + 1).is_none_or(|&(t, _)| t != stop) {
            points.insert(last + 1, (stop, free));
        }
        start
    }

    /// The breakpoints, for inspection in tests.
    #[cfg(test)]
    pub(crate) fn points(&self) -> &[(i64, i64)] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profile at `now` with `free` idle and one job releasing
    /// `procs` at each `(end, procs)`.
    fn built(now: i64, free: u32, releases: &[(i64, u32)]) -> Profile {
        let mut set = ReleaseSet::new();
        for &(end, procs) in releases {
            set.add(end, procs);
        }
        let mut p = Profile::default();
        p.rebuild_from(Time(now), free, &set);
        p
    }

    fn profile() -> Profile {
        // now=0, 2 free; +4 at t=100; +2 at t=50 -> [(0,2),(50,4),(100,8)]
        built(0, 2, &[(100, 4), (50, 2)])
    }

    #[test]
    fn construction_accumulates_releases() {
        let p = profile();
        assert_eq!(p.points(), &[(0, 2), (50, 4), (100, 8)]);
    }

    #[test]
    fn releases_at_same_instant_merge() {
        let p = built(0, 0, &[(10, 1), (10, 2)]);
        assert_eq!(p.points(), &[(0, 0), (10, 3)]);
    }

    #[test]
    fn past_releases_count_as_immediate() {
        let p = built(100, 1, &[(50, 3)]);
        assert_eq!(p.points(), &[(100, 4)]);
    }

    #[test]
    fn free_at_steps() {
        let p = profile();
        assert_eq!(p.free_at(0), 2);
        assert_eq!(p.free_at(49), 2);
        assert_eq!(p.free_at(50), 4);
        assert_eq!(p.free_at(1_000_000), 8);
        assert_eq!(p.free_at(-10), 2); // clamped
    }

    #[test]
    fn advancing_keeps_the_function_from_now_on() {
        let mut p = profile();
        assert_eq!(p.place(3, 20), 50); // [(0,2),(50,1),(70,4),(100,8)]
        p.advance_to(60);
        assert_eq!(p.points(), &[(60, 1), (70, 4), (100, 8)]);
        assert_eq!(p.free_now(), 1);
        p.advance_to(70);
        assert_eq!(p.points(), &[(70, 4), (100, 8)]);
    }

    #[test]
    fn earliest_start_immediate_fit() {
        let mut p = profile();
        assert_eq!(p.place(2, 1000), 0);
        assert_eq!(p.points(), &[(0, 0), (50, 2), (100, 6), (1000, 8)]);
    }

    #[test]
    fn earliest_start_waits_for_capacity() {
        assert_eq!(profile().place(3, 10), 50);
        assert_eq!(profile().place(8, 10), 100);
    }

    #[test]
    fn reserve_carves_capacity() {
        let mut p = profile();
        assert_eq!(p.place(2, 50), 0); // consume both free procs until t=50
        assert_eq!(p.free_at(0), 0);
        assert_eq!(p.free_at(49), 0);
        assert_eq!(p.free_at(50), 4);
        // Now a 1-proc job must wait until 50.
        assert_eq!(p.place(1, 10), 50);
    }

    #[test]
    fn place_inserts_only_the_end_breakpoint() {
        let mut p = profile();
        assert_eq!(p.place(1, 20), 0); // [0,20)
        assert_eq!(p.points(), &[(0, 1), (20, 2), (50, 4), (100, 8)]);
        // A window that ends on a breakpoint inserts none.
        assert_eq!(p.place(1, 50), 0); // [0,50)
        assert_eq!(p.points(), &[(0, 0), (20, 1), (50, 4), (100, 8)]);
    }

    #[test]
    fn reservation_spanning_releases() {
        let mut p = profile();
        // 4 procs for [50, 150): uses the t=50 capacity of 4 entirely,
        // leaving 4 at t=100.
        assert_eq!(p.place(4, 100), 50);
        assert_eq!(p.free_at(50), 0);
        assert_eq!(p.free_at(100), 4);
        assert_eq!(p.free_at(150), 8);
    }

    #[test]
    fn sequential_reservations_stack() {
        let mut p = built(0, 4, &[]);
        let s1 = p.place(3, 100);
        let s2 = p.place(3, 100);
        assert_eq!(s1, 0);
        assert_eq!(s2, 100); // must queue behind the first
    }

    /// A request wider than the machine lands on the horizon and
    /// over-reserves it; engine contexts never make one.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "over-reserved")]
    fn wider_than_the_machine_over_reserves_the_horizon() {
        profile().place(9, 10);
    }

    /// Complexity guard that reads no clock. 20 000 breakpoints whose
    /// capacity alternates 1, 0, 1, 0, … and 2 000 one-processor
    /// reservations two seconds long: none fits before the horizon, so
    /// each placement sweeps the whole profile once (4 × 10⁷ steps in
    /// all, milliseconds). Re-scanning from index 0 for every candidate
    /// breakpoint — the search this replaced, now `reference.rs`'s — is
    /// 10⁸ steps *per reservation* and would not finish in minutes, so
    /// the quadratic shape cannot come back unnoticed.
    #[test]
    fn alternating_profile_is_swept_in_linear_time() {
        const BREAKPOINTS: i64 = 20_000;
        let mut p = Profile {
            points: (0..BREAKPOINTS)
                .map(|t| (t, (t + 1) % 2))
                .chain([(BREAKPOINTS, 1)])
                .collect(),
        };
        for k in 0..2_000 {
            assert_eq!(p.place(1, 2), BREAKPOINTS + 2 * k, "reservation {k}");
        }
        assert_eq!(p.points().len() as i64, BREAKPOINTS + 2_001);
        assert_eq!(p.free_at(BREAKPOINTS + 3_999), 0);
        assert_eq!(p.free_at(BREAKPOINTS + 4_000), 1);
    }

    #[test]
    fn release_set_aggregates_and_sorts() {
        let mut s = ReleaseSet::new();
        s.add(100, 4);
        s.add(50, 2);
        s.add(100, 3);
        assert_eq!(
            s.points(),
            &[
                ReleasePoint {
                    time: 50,
                    procs: 2,
                    jobs: 1,
                    uniform: 0
                },
                ReleasePoint {
                    time: 100,
                    procs: 7,
                    jobs: 2,
                    uniform: 0
                },
            ]
        );
        let total: u64 = s.points().iter().map(|p| p.procs as u64).sum();
        assert_eq!(total, 9);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn release_set_remove_and_shift() {
        let mut s = ReleaseSet::new();
        s.add(100, 4);
        s.add(100, 3);
        s.remove(100, 4);
        assert_eq!(
            s.points(),
            &[ReleasePoint {
                time: 100,
                procs: 3,
                jobs: 1,
                uniform: 0
            }]
        );
        s.shift(100, 250, 3);
        assert_eq!(
            s.points(),
            &[ReleasePoint {
                time: 250,
                procs: 3,
                jobs: 1,
                uniform: 0
            }]
        );
        s.remove(250, 3);
        assert!(s.is_empty());
    }

    #[test]
    fn rebuild_from_matches_from_scratch_construction() {
        let mut set = ReleaseSet::new();
        set.add(100, 4);
        set.add(50, 2);
        set.add(100, 2);
        let mut incremental = Profile::default();
        incremental.rebuild_from(Time(0), 2, &set);
        // What sorting and accumulating the three releases from scratch
        // gives (the oracle's constructor; `reference.rs` compares the two
        // on random inputs).
        assert_eq!(incremental.points(), &[(0, 2), (50, 4), (100, 10)]);
    }

    #[test]
    fn rebuild_from_folds_past_releases_into_now() {
        let mut set = ReleaseSet::new();
        set.add(50, 3);
        set.add(200, 1);
        let mut incremental = Profile::default();
        incremental.rebuild_from(Time(100), 1, &set);
        assert_eq!(incremental.points(), &[(100, 4), (200, 5)]);
    }

    #[test]
    fn rebuild_reuses_capacity() {
        let mut set = ReleaseSet::new();
        for t in 0..32 {
            set.add(100 + t, 1);
        }
        let mut p = Profile::default();
        p.rebuild_from(Time(0), 4, &set);
        let cap = {
            p.rebuild_from(Time(0), 4, &set);
            p.points.capacity()
        };
        for _ in 0..100 {
            p.rebuild_from(Time(1), 2, &set);
        }
        assert_eq!(p.points.capacity(), cap, "rebuild must not reallocate");
    }
}
