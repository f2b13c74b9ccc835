//! The simulation state layer: indexed mutable state and the read views
//! handed to policies.
//!
//! [`SimState`] owns the waiting queue, the running set, and the free
//! processor count, all cross-indexed by a dense per-job slot map so
//! every engine operation — start, finish, prediction expiry — resolves
//! its job in O(1) instead of scanning. It also maintains the
//! [`ReleaseSet`] availability substrate incrementally, so schedulers
//! never rebuild it from the running set.
//!
//! Schedulers and predictors never mutate engine state directly; they read
//! the snapshot views ([`SchedulerContext`], [`SystemView`]) and return
//! decisions, which keeps every policy a (mostly) pure function that is
//! easy to unit-test in isolation.

use crate::cluster::{ClusterSpec, MAX_PARTITIONS};
use crate::job::JobId;
use crate::scheduler::ReleaseSet;
use crate::time::Time;

/// A job sitting in the waiting queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitingJob {
    /// Which job.
    pub id: JobId,
    /// Resource requirement `q_j`.
    pub procs: u32,
    /// Current predicted running time `p̂_j` used for scheduling decisions.
    pub predicted: i64,
    /// Requested running time `p̃_j` (the kill bound, never exceeded by
    /// `predicted`).
    pub requested: i64,
    /// Submission date (queue priority under FCFS).
    pub submit: Time,
    /// Submitting user as the *interned* dense index (`Job::user_ix`) —
    /// the key into the per-user running index and history slabs.
    pub user: u32,
}

/// A job currently executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningJob {
    /// Which job.
    pub id: JobId,
    /// Processors held.
    pub procs: u32,
    /// When it started.
    pub start: Time,
    /// When the scheduler currently believes it will end
    /// (`start + current prediction`), updated by corrections.
    pub predicted_end: Time,
    /// Requested-time bound on the end (`start + p̃`); the job is killed
    /// at this instant at the latest, so no prediction may exceed it.
    pub deadline: Time,
    /// Submitting user as the *interned* dense index (`Job::user_ix`).
    pub user: u32,
    /// How many corrections (§5.2) this job has received so far.
    pub corrections: u32,
    /// The cluster partition the job was placed on (0 on the legacy
    /// single-partition machine).
    pub partition: u32,
}

impl RunningJob {
    /// Time the job has been running as of `now`.
    #[inline]
    pub fn elapsed(&self, now: Time) -> i64 {
        now.since(self.start)
    }
}

/// Incrementally maintained per-user view of the running set.
///
/// Table 2's "current state of the system" features are per-user
/// aggregates over the running jobs (count, processors held, elapsed
/// times), which a predictor would otherwise recompute by scanning the
/// *whole* running set at every submission — O(running) per prediction,
/// the dominant feature-extraction cost on large machines. The engine
/// maintains this index on every start and finish instead, so
/// [`SystemView::running_of_user`]-style queries touch only the user's
/// own jobs.
///
/// Entries are `(procs, start)` pairs — exactly the fields the Table 2
/// aggregates read. Two identical pairs of one user are
/// interchangeable, so removal by value is sound, and the per-user
/// aggregates are order-free (integer-valued `f64` sums and maxima), so
/// iteration order never affects a feature value.
///
/// The index is a flat slab addressed by the *interned* dense user
/// index (`Job::user_ix`, assigned at load time) — no hashing per
/// event.
#[derive(Debug, Clone, Default)]
pub struct UserRunning {
    /// `users[user_ix]` = that user's running `(procs, start)` pairs.
    /// Grown lazily to the highest user index seen.
    users: Vec<Vec<(u32, Time)>>,
}

impl UserRunning {
    /// The `(procs, start)` pairs of `user`'s running jobs, unordered.
    pub fn of_user(&self, user: u32) -> &[(u32, Time)] {
        self.users
            .get(user as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    fn add(&mut self, user: u32, procs: u32, start: Time) {
        let ix = user as usize;
        if ix >= self.users.len() {
            self.users.resize_with(ix + 1, Vec::new);
        }
        self.users[ix].push((procs, start));
    }

    fn remove(&mut self, user: u32, procs: u32, start: Time) {
        let jobs = self
            .users
            .get_mut(user as usize)
            .expect("user has running jobs");
        let index = jobs
            .iter()
            .position(|&(p, s)| p == procs && s == start)
            .expect("running job indexed under its user");
        jobs.swap_remove(index);
    }

    /// Empties the index, keeping per-user buffer capacities (scratch
    /// reuse across simulations).
    fn clear(&mut self) {
        for jobs in &mut self.users {
            jobs.clear();
        }
    }
}

/// Snapshot handed to a [`crate::scheduler::Scheduler`] for one pass.
///
/// One pass schedules **one partition**: `machine_size`, `free` and
/// `releases` are scoped to `partition`, while `queue`, `running` and
/// `shortest_first` are cluster-global (schedulers that read `running`
/// must filter by [`RunningJob::partition`]). On the legacy
/// single-partition machine the scoped and global views coincide.
#[derive(Debug)]
pub struct SchedulerContext<'a> {
    /// Current simulation time.
    pub now: Time,
    /// The partition this pass places jobs onto.
    pub partition: u32,
    /// Size of this partition (the legacy machine size `m` when the
    /// cluster has one partition).
    pub machine_size: u32,
    /// Processors currently idle *in this partition*.
    pub free: u32,
    /// Waiting queue in FCFS (arrival) order (cluster-global).
    pub queue: &'a [WaitingJob],
    /// Running jobs, unordered (cluster-global — filter by
    /// [`RunningJob::partition`] for per-partition reasoning).
    pub running: &'a [RunningJob],
    /// Incrementally maintained aggregate of *this partition's* running
    /// jobs' future capacity releases (sorted by predicted end).
    /// Invariant: its aggregated contents equal the multiset of
    /// `(predicted_end, procs)` over the running jobs with
    /// `partition == ctx.partition`.
    pub releases: &'a ReleaseSet,
    /// Queue positions sorted by `(predicted, submit, id)` — the
    /// shortest-job-first view of `queue`, maintained incrementally (a
    /// waiting job's key never changes, so the order only moves on
    /// submit and start). EASY-SJBF reads its backfill candidates from
    /// here instead of sorting per pass.
    pub shortest_first: &'a [u32],
}

/// Lifecycle position of one job, the value of [`SimState`]'s dense
/// per-job slot map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Not yet submitted (no engine state holds the job).
    Unsubmitted,
    /// Waiting, at this index of the queue.
    Waiting(u32),
    /// Running, at this index of the running vector.
    Running(u32),
    /// Completed (an outcome exists).
    Finished,
}

/// Indexed mutable simulation state.
///
/// The queue stays in FCFS (submit, id) order; the running vector is
/// unordered and removal is swap-remove. The slot map is kept exact
/// under both disciplines: a swap-remove rewrites the moved job's slot,
/// and queue compaction (after starts) rewrites the slots of every
/// shifted entry. All buffers are allocated once per run and reused.
///
/// Starts are two-phase: [`SimState::start`] transitions jobs
/// waiting→running one at a time (so capacity checks interleave), and
/// [`SimState::compact_queue`] then drops the started entries from the
/// queue in a single order-preserving sweep. Between the two, the raw
/// queue contains already-started entries, so [`SimState::queue`]
/// asserts no starts are pending.
#[derive(Debug, Clone)]
pub(crate) struct SimState {
    cluster: ClusterSpec,
    /// Idle processors per partition (entries past the cluster length
    /// are unused and zero).
    free: [u32; MAX_PARTITIONS],
    /// Idle processors across all partitions.
    total_free: u32,
    queue: Vec<WaitingJob>,
    running: Vec<RunningJob>,
    slots: Vec<Slot>,
    /// One release aggregate per partition (extra entries from a wider
    /// earlier run are kept empty for scratch reuse).
    releases: Vec<ReleaseSet>,
    /// Queue positions sorted by `(predicted, submit, id)`.
    shortest_first: Vec<u32>,
    /// Old-position → new-position scratch for queue compaction.
    remap: Vec<u32>,
    /// Per-user index over `running` (see [`UserRunning`]).
    user_running: UserRunning,
    /// Whether the per-user index is maintained this run (predictors
    /// that never read it skip the bookkeeping — see
    /// [`crate::predict::RuntimePredictor::wants_user_running_index`]).
    user_index_enabled: bool,
    pending_starts: u32,
}

/// Sentinel for "entry removed" in the compaction remap.
const REMOVED: u32 = u32::MAX;

impl Default for SimState {
    /// An empty state for zero jobs on a zero-processor machine; reset
    /// it (see [`SimState::reset`]) before use.
    fn default() -> Self {
        Self::new_cluster(ClusterSpec::single(0), 0)
    }
}

/// Queue positions sorted by the shortest-job-first key
/// `(predicted, submit, id)` — the order the engine maintains
/// incrementally as [`SchedulerContext::shortest_first`]. The
/// from-scratch form exists for tests and oracles (the engine's own
/// consistency check compares the two), so every consumer tracks one
/// key definition.
pub fn sorted_shortest_first(queue: &[WaitingJob]) -> Vec<u32> {
    let mut positions: Vec<u32> = (0..queue.len() as u32).collect();
    positions.sort_by_key(|&p| SimState::sjbf_key(&queue[p as usize]));
    positions
}

impl SimState {
    /// Fresh state for `jobs` jobs on `cluster`.
    pub(crate) fn new_cluster(cluster: ClusterSpec, jobs: usize) -> Self {
        let mut state = Self {
            cluster,
            free: [0; MAX_PARTITIONS],
            total_free: 0,
            queue: Vec::new(),
            running: Vec::new(),
            slots: vec![Slot::Unsubmitted; jobs],
            releases: Vec::new(),
            shortest_first: Vec::new(),
            remap: Vec::new(),
            user_running: UserRunning::default(),
            user_index_enabled: true,
            pending_starts: 0,
        };
        state.reset_capacity(cluster);
        state
    }

    /// (Re)derives the per-partition free counters and release sets from
    /// `cluster`, keeping release-set capacity.
    fn reset_capacity(&mut self, cluster: ClusterSpec) {
        self.cluster = cluster;
        self.free = [0; MAX_PARTITIONS];
        for (i, p) in cluster.partitions().iter().enumerate() {
            self.free[i] = p.size;
        }
        self.total_free = cluster.total_procs();
        while self.releases.len() < cluster.len() {
            self.releases.push(ReleaseSet::new());
        }
        for set in &mut self.releases {
            set.clear();
        }
    }

    /// Re-initializes this state for a fresh run of `jobs` jobs on
    /// `cluster`, keeping every buffer's capacity (the cross-simulation
    /// scratch-reuse seam — see [`crate::arena::SimArena`]).
    /// `user_index` controls whether the per-user running index is
    /// maintained for this run.
    pub(crate) fn reset(&mut self, cluster: ClusterSpec, jobs: usize, user_index: bool) {
        self.user_index_enabled = user_index;
        self.queue.clear();
        self.running.clear();
        self.slots.clear();
        self.slots.resize(jobs, Slot::Unsubmitted);
        self.shortest_first.clear();
        self.remap.clear();
        self.user_running.clear();
        self.pending_starts = 0;
        self.reset_capacity(cluster);
    }

    /// The shortest-job-first key of a waiting job.
    #[inline]
    fn sjbf_key(w: &WaitingJob) -> (i64, Time, JobId) {
        (w.predicted, w.submit, w.id)
    }

    /// Processors currently idle across all partitions.
    pub(crate) fn free(&self) -> u32 {
        self.total_free
    }

    /// Processors currently idle in `partition`.
    pub(crate) fn free_in(&self, partition: u32) -> u32 {
        self.free[partition as usize]
    }

    /// The waiting queue in FCFS order.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) while starts are pending compaction — the
    /// raw queue still contains the started entries then.
    pub(crate) fn queue(&self) -> &[WaitingJob] {
        debug_assert_eq!(
            self.pending_starts, 0,
            "queue read while starts await compaction"
        );
        &self.queue
    }

    /// Number of waiting jobs (excluding started-but-uncompacted entries).
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len() - self.pending_starts as usize
    }

    /// True when no job is waiting.
    pub(crate) fn queue_is_empty(&self) -> bool {
        self.queue_len() == 0
    }

    /// The running jobs, unordered.
    pub(crate) fn running(&self) -> &[RunningJob] {
        &self.running
    }

    /// The incrementally maintained release aggregate of `partition`.
    pub(crate) fn releases_in(&self, partition: u32) -> &ReleaseSet {
        &self.releases[partition as usize]
    }

    /// The incrementally maintained per-user view of the running set,
    /// when it is being maintained this run (`None` when the predictor
    /// declined it — consumers then fall back to scanning `running`,
    /// which aggregates the same set).
    pub(crate) fn user_running(&self) -> Option<&UserRunning> {
        self.user_index_enabled.then_some(&self.user_running)
    }

    /// Queue positions sorted by `(predicted, submit, id)` (see
    /// [`SchedulerContext::shortest_first`]).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) while starts are pending compaction, like
    /// [`SimState::queue`].
    pub(crate) fn shortest_first(&self) -> &[u32] {
        debug_assert_eq!(
            self.pending_starts, 0,
            "shortest_first read while starts await compaction"
        );
        &self.shortest_first
    }

    /// O(1) lookup: the queue index of a waiting job.
    pub(crate) fn waiting_index(&self, id: JobId) -> Option<usize> {
        match self.slots[id.index()] {
            Slot::Waiting(i) => Some(i as usize),
            _ => None,
        }
    }

    /// O(1) lookup: the running-vector index of a running job.
    pub(crate) fn running_index(&self, id: JobId) -> Option<usize> {
        match self.slots[id.index()] {
            Slot::Running(i) => Some(i as usize),
            _ => None,
        }
    }

    /// The waiting job at `index` (valid even while starts are pending
    /// compaction, unlike [`SimState::queue`]).
    pub(crate) fn waiting_at(&self, index: usize) -> &WaitingJob {
        &self.queue[index]
    }

    /// Appends a newly submitted job to the queue tail.
    pub(crate) fn enqueue(&mut self, w: WaitingJob) {
        debug_assert_eq!(
            self.slots[w.id.index()],
            Slot::Unsubmitted,
            "{} enqueued twice",
            w.id
        );
        debug_assert_eq!(self.pending_starts, 0, "enqueue during start application");
        let position = self.queue.len() as u32;
        let rank = self
            .shortest_first
            .binary_search_by_key(&Self::sjbf_key(&w), |&p| {
                Self::sjbf_key(&self.queue[p as usize])
            })
            .expect_err("sjbf keys are unique (id component)");
        self.slots[w.id.index()] = Slot::Waiting(position);
        self.queue.push(w);
        self.shortest_first.insert(rank, position);
    }

    /// Transitions the waiting job at `queue_index` to running as `r`.
    /// The queue entry stays in place (tombstoned via the slot map) until
    /// [`SimState::compact_queue`].
    pub(crate) fn start(&mut self, queue_index: usize, r: RunningJob) {
        let w = self.queue[queue_index];
        debug_assert_eq!(w.id, r.id, "start() running job mismatches queue entry");
        debug_assert_eq!(self.slots[w.id.index()], Slot::Waiting(queue_index as u32));
        let partition = r.partition as usize;
        debug_assert!(
            partition < self.cluster.len(),
            "start() on unknown partition"
        );
        debug_assert!(
            r.procs <= self.free[partition],
            "start() over-commits partition {partition}"
        );
        self.free[partition] -= r.procs;
        self.total_free -= r.procs;
        self.slots[w.id.index()] = Slot::Running(self.running.len() as u32);
        self.releases[partition].add(r.predicted_end.0, r.procs);
        if self.user_index_enabled {
            self.user_running.add(r.user, r.procs, r.start);
        }
        self.running.push(r);
        self.pending_starts += 1;
    }

    /// Drops started entries from the queue in one order-preserving
    /// sweep, reindexing the slots of every shifted waiter and remapping
    /// the shortest-first view (a sorted list stays sorted under subset
    /// removal, so no re-sort).
    pub(crate) fn compact_queue(&mut self) {
        if self.pending_starts == 0 {
            return;
        }
        self.remap.clear();
        self.remap.resize(self.queue.len(), REMOVED);
        let mut write = 0;
        for read in 0..self.queue.len() {
            let id = self.queue[read].id;
            if matches!(self.slots[id.index()], Slot::Waiting(_)) {
                self.queue[write] = self.queue[read];
                self.slots[id.index()] = Slot::Waiting(write as u32);
                self.remap[read] = write as u32;
                write += 1;
            }
        }
        self.queue.truncate(write);
        let remap = &self.remap;
        self.shortest_first.retain_mut(|position| {
            let new = remap[*position as usize];
            *position = new;
            new != REMOVED
        });
        self.pending_starts = 0;
    }

    /// Completes a running job: swap-removes it (rewriting the moved
    /// job's slot), frees its processors, and retires its release.
    /// Returns `None` when the job is not running (a stale event).
    pub(crate) fn finish(&mut self, id: JobId) -> Option<RunningJob> {
        let index = self.running_index(id)?;
        let r = self.running.swap_remove(index);
        if index < self.running.len() {
            let moved = self.running[index].id;
            self.slots[moved.index()] = Slot::Running(index as u32);
        }
        self.slots[id.index()] = Slot::Finished;
        self.free[r.partition as usize] += r.procs;
        self.total_free += r.procs;
        self.releases[r.partition as usize].remove(r.predicted_end.0, r.procs);
        if self.user_index_enabled {
            self.user_running.remove(r.user, r.procs, r.start);
        }
        Some(r)
    }

    /// Applies a correction to the running job at `running_index`: moves
    /// its release to `new_predicted_end` and bumps its generation
    /// counter. Returns the new generation.
    pub(crate) fn apply_correction(
        &mut self,
        running_index: usize,
        new_predicted_end: Time,
    ) -> u32 {
        let r = &mut self.running[running_index];
        self.releases[r.partition as usize].shift(r.predicted_end.0, new_predicted_end.0, r.procs);
        r.predicted_end = new_predicted_end;
        r.corrections += 1;
        r.corrections
    }

    /// Exhaustively re-checks every cross-index invariant (test hook;
    /// O(n log n), not called on any hot path).
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    #[cfg(test)]
    pub(crate) fn assert_consistent(&self) {
        assert_eq!(self.pending_starts, 0, "starts pending compaction");
        for (i, w) in self.queue.iter().enumerate() {
            assert_eq!(
                self.slots[w.id.index()],
                Slot::Waiting(i as u32),
                "queue[{i}] = {} has slot {:?}",
                w.id,
                self.slots[w.id.index()]
            );
        }
        for (i, r) in self.running.iter().enumerate() {
            assert_eq!(
                self.slots[r.id.index()],
                Slot::Running(i as u32),
                "running[{i}] = {} has slot {:?}",
                r.id,
                self.slots[r.id.index()]
            );
        }
        let waiting = self
            .slots
            .iter()
            .filter(|s| matches!(s, Slot::Waiting(_)))
            .count();
        let running = self
            .slots
            .iter()
            .filter(|s| matches!(s, Slot::Running(_)))
            .count();
        assert_eq!(waiting, self.queue.len(), "slot map counts extra waiters");
        assert_eq!(running, self.running.len(), "slot map counts extra runners");
        let used: u32 = self.running.iter().map(|r| r.procs).sum();
        assert_eq!(
            self.total_free,
            self.cluster.total_procs() - used,
            "total free-processor accounting drifted"
        );
        for (p, part) in self.cluster.partitions().iter().enumerate() {
            let used_in: u32 = self
                .running
                .iter()
                .filter(|r| r.partition as usize == p)
                .map(|r| r.procs)
                .sum();
            assert_eq!(
                self.free[p],
                part.size - used_in,
                "partition {p} free-processor accounting drifted"
            );
            let filtered: Vec<RunningJob> = self
                .running
                .iter()
                .filter(|r| r.partition as usize == p)
                .copied()
                .collect();
            assert_eq!(
                self.releases[p],
                ReleaseSet::from_running(&filtered),
                "partition {p} release set drifted from the running set"
            );
        }
        assert_eq!(
            self.shortest_first,
            sorted_shortest_first(&self.queue),
            "shortest-first view drifted from the queue"
        );
        if !self.user_index_enabled {
            return;
        }
        let mut expected: Vec<(u32, u32, Time)> = self
            .running
            .iter()
            .map(|r| (r.user, r.procs, r.start))
            .collect();
        let mut indexed: Vec<(u32, u32, Time)> = self
            .running
            .iter()
            .map(|r| r.user)
            .collect::<std::collections::BTreeSet<u32>>()
            .into_iter()
            .flat_map(|user| {
                self.user_running
                    .of_user(user)
                    .iter()
                    .map(move |&(procs, start)| (user, procs, start))
            })
            .collect();
        expected.sort();
        indexed.sort();
        assert_eq!(indexed, expected, "per-user running index drifted");
    }
}

/// Snapshot handed to a [`crate::predict::RuntimePredictor`] when a job is
/// submitted. Carries the "current state of the system" features of
/// Table 2 (jobs currently running, occupied resources, …).
#[derive(Debug)]
pub struct SystemView<'a> {
    /// Current simulation time (the job's release date).
    pub now: Time,
    /// Machine size `m`.
    pub machine_size: u32,
    /// Running jobs, unordered.
    pub running: &'a [RunningJob],
    /// The engine's incrementally maintained per-user index over
    /// `running`, when one is available (views built by hand in tests
    /// may pass `None`; consumers must treat the index and a scan of
    /// `running` as interchangeable — they aggregate the same set).
    pub user_running: Option<&'a UserRunning>,
}

impl SystemView<'_> {
    /// Iterator over running jobs belonging to `user` — the basis of the
    /// "currently running" features of Table 2.
    pub fn running_of_user(&self, user: u32) -> impl Iterator<Item = &RunningJob> {
        self.running.iter().filter(move |r| r.user == user)
    }

    /// Total processors occupied by `user` right now
    /// (Table 2's "Occupied Resources").
    pub fn occupied_resources(&self, user: u32) -> u64 {
        self.running_of_user(user).map(|r| r.procs as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The slab's per-user slices agree with a brute-force model
        /// under arbitrary add/remove/clear interleavings over a sparse
        /// index space: every user's slice, empty ones included.
        #[test]
        fn user_running_counter_agrees_with_brute_force(
            ops in prop::collection::vec(
                (0u32..40, 1u32..8, 0i64..1_000, 0u8..8),
                1..120
            ),
        ) {
            let mut index = UserRunning::default();
            // Model: user → multiset of (procs, start).
            let mut model: std::collections::BTreeMap<u32, Vec<(u32, Time)>> =
                Default::default();
            for (user, procs, start, action) in ops {
                // Spread users across a sparse index range: the slab
                // must handle gaps, not just dense prefixes.
                let user = user * 7;
                match action {
                    0 if !model.is_empty() => {
                        // Remove one existing entry (deterministically:
                        // the first user's first entry).
                        let (&u, entries) = model.iter_mut().next().unwrap();
                        let (p, s) = entries[0];
                        entries.swap_remove(0);
                        if entries.is_empty() {
                            model.remove(&u);
                        }
                        index.remove(u, p, s);
                    }
                    1 => {
                        index.clear();
                        model.clear();
                    }
                    _ => {
                        index.add(user, procs, Time(start));
                        model.entry(user).or_default().push((procs, Time(start)));
                    }
                }
                for u in (0..40).map(|u| u * 7) {
                    let mut got: Vec<(u32, Time)> = index.of_user(u).to_vec();
                    let mut want = model.get(&u).cloned().unwrap_or_default();
                    got.sort_unstable();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                }
            }
        }
    }

    fn rj(id: u32, user: u32, procs: u32, start: i64, pend: i64) -> RunningJob {
        RunningJob {
            id: JobId(id),
            procs,
            start: Time(start),
            predicted_end: Time(pend),
            deadline: Time(pend + 1000),
            user,
            corrections: 0,
            partition: 0,
        }
    }

    #[test]
    fn elapsed_and_remaining() {
        let r = rj(1, 1, 4, 100, 500);
        assert_eq!(r.elapsed(Time(250)), 150);
    }

    fn wj(id: u32, procs: u32, predicted: i64) -> WaitingJob {
        WaitingJob {
            id: JobId(id),
            procs,
            predicted,
            requested: predicted,
            submit: Time(0),
            user: 1,
        }
    }

    fn running_job(id: u32, procs: u32, start: i64, pend: i64) -> RunningJob {
        RunningJob {
            id: JobId(id),
            procs,
            start: Time(start),
            predicted_end: Time(pend),
            deadline: Time(pend + 1_000),
            user: 1,
            corrections: 0,
            partition: 0,
        }
    }

    /// Starts the waiting job `id` with the given predicted end.
    fn start_job(state: &mut SimState, id: u32, pend: i64) {
        let index = state.waiting_index(JobId(id)).expect("job is waiting");
        let w = *state.waiting_at(index);
        state.start(index, running_job(id, w.procs, 0, pend));
    }

    #[test]
    fn slot_map_tracks_enqueue_start_finish() {
        let mut s = SimState::new_cluster(ClusterSpec::single(16), 4);
        for id in 0..4 {
            s.enqueue(wj(id, 2 + id, 100 + id as i64));
        }
        s.assert_consistent();
        assert_eq!(s.queue_len(), 4);
        assert_eq!(s.free(), 16);

        // Start jobs 0 and 2 (a backfill skipping 1), then compact.
        start_job(&mut s, 0, 100);
        start_job(&mut s, 2, 104);
        assert_eq!(s.queue_len(), 2, "pending starts excluded from len");
        s.compact_queue();
        s.assert_consistent();
        assert_eq!(s.queue().iter().map(|w| w.id.0).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(s.free(), 16 - 2 - 4);
        assert_eq!(s.waiting_index(JobId(3)), Some(1), "slots reindexed");
        assert_eq!(s.waiting_index(JobId(0)), None, "started job left queue");
        assert_eq!(s.running_index(JobId(2)), Some(1));

        // Finish 0: swap-remove moves 2 into its place; slot must follow.
        let r = s.finish(JobId(0)).expect("running");
        assert_eq!(r.procs, 2);
        assert_eq!(s.running_index(JobId(2)), Some(0), "swap-remove fixup");
        assert_eq!(s.slots[0], Slot::Finished);
        s.assert_consistent();
    }

    #[test]
    fn interleaved_finish_expiry_start_sequences_stay_consistent() {
        // A miniature engine batch: starts, corrections (expiry), and
        // finishes interleaved in every order the event ranks allow.
        let mut s = SimState::new_cluster(ClusterSpec::single(32), 8);
        for id in 0..8 {
            s.enqueue(wj(id, 4, 50 + id as i64));
        }
        for id in 0..6 {
            start_job(&mut s, id, 50 + id as i64);
        }
        s.compact_queue();
        s.assert_consistent();

        // Correct job 3 (expiry): release moves, generation bumps.
        let index = s.running_index(JobId(3)).unwrap();
        let generation = s.apply_correction(index, Time(500));
        assert_eq!(generation, 1);
        assert_eq!(
            s.running()[s.running_index(JobId(3)).unwrap()].corrections,
            1
        );
        s.assert_consistent();

        // Finish out of start order; every removal keeps the map exact.
        for id in [4u32, 0, 3, 5] {
            s.finish(JobId(id)).expect("running");
            s.assert_consistent();
        }
        // Stale events resolve to None in O(1), no scan.
        assert_eq!(s.finish(JobId(4)), None, "double finish is stale");
        assert_eq!(s.running_index(JobId(3)), None);

        // Remaining two run; queue still holds 6 and 7 in order.
        assert_eq!(s.running().len(), 2);
        assert_eq!(s.queue().iter().map(|w| w.id.0).collect::<Vec<_>>(), [6, 7]);
        start_job(&mut s, 6, 300);
        s.compact_queue();
        s.assert_consistent();
        assert_eq!(s.free(), 32 - 3 * 4);
    }

    #[test]
    fn release_set_follows_start_finish_correction() {
        let mut s = SimState::new_cluster(ClusterSpec::single(8), 3);
        for id in 0..3 {
            s.enqueue(wj(id, 2, 100));
        }
        start_job(&mut s, 0, 100);
        start_job(&mut s, 1, 100);
        start_job(&mut s, 2, 250);
        s.compact_queue();
        let pts = s.releases_in(0).points();
        assert_eq!(pts.len(), 2);
        assert_eq!((pts[0].time, pts[0].procs, pts[0].jobs), (100, 4, 2));
        assert_eq!((pts[1].time, pts[1].procs, pts[1].jobs), (250, 2, 1));

        let index = s.running_index(JobId(1)).unwrap();
        s.apply_correction(index, Time(250));
        let pts = s.releases_in(0).points();
        assert_eq!((pts[0].time, pts[0].procs, pts[0].jobs), (100, 2, 1));
        assert_eq!((pts[1].time, pts[1].procs, pts[1].jobs), (250, 4, 2));

        s.finish(JobId(0));
        s.finish(JobId(1));
        s.finish(JobId(2));
        assert!(s.releases_in(0).is_empty());
        s.assert_consistent();
    }

    #[test]
    fn system_view_user_filters() {
        let running = vec![
            rj(1, 7, 4, 0, 100),
            rj(2, 7, 2, 0, 100),
            rj(3, 9, 8, 0, 100),
        ];
        let view = SystemView {
            now: Time(50),
            machine_size: 64,
            running: &running,
            user_running: None,
        };
        assert_eq!(view.running_of_user(7).count(), 2);
        assert_eq!(view.occupied_resources(7), 6);
        assert_eq!(view.occupied_resources(9), 8);
        assert_eq!(view.occupied_resources(5), 0);
    }
}
