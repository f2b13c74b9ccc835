//! The discrete-event core: event kinds and a deterministic event queue.
//!
//! Determinism matters: the paper's campaign compares 128 heuristic triples
//! per log, and any tie-breaking nondeterminism in the simulator would
//! contaminate those comparisons. Events are totally ordered by
//! `(time, kind rank, insertion sequence)`:
//!
//! 1. **Finish** events first — completions free resources and teach the
//!    predictor before anything else at the same instant;
//! 2. **PredictionExpiry** next — corrections see the post-completion state.
//!
//! Arrivals are not events: the engine reads them from the submit-sorted
//! job slice and applies them after every queued event of their instant,
//! so a job arriving exactly when another ends sees the freed machine.

use std::collections::BinaryHeap;

use crate::job::JobId;
use crate::time::Time;

/// What happens at an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// A running job completes (or is killed at its requested time).
    Finish(JobId),
    /// A running job's predicted end passed but the job is still running;
    /// the correction mechanism must produce a new prediction (§5.2). The
    /// generation counter invalidates stale expiries after a correction.
    PredictionExpiry(JobId, u32),
}

impl EventKind {
    /// Processing rank at equal times (lower runs first).
    fn rank(&self) -> u8 {
        match self {
            EventKind::Finish(_) => 0,
            EventKind::PredictionExpiry(_, _) => 1,
        }
    }
}

/// A scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Event {
    /// When the event fires.
    pub time: Time,
    /// What fires.
    pub kind: EventKind,
    seq: u64,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert to get the earliest event first.
        (other.time, other.kind.rank(), other.seq).cmp(&(self.time, self.kind.rank(), self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic priority queue of the in-flight events: one binary
/// heap ordered by `(time, rank, seq)`, plus the sequence counter that
/// makes equal-time, equal-rank events FIFO.
///
/// The heap holds only events of running jobs — a finish and at most one
/// live expiry each, plus stale expiries — never the workload's
/// arrivals, so its size follows the machine's occupancy rather than the
/// trace length. Measured: reading arrivals from the job slice in place
/// of a pre-sorted bulk schedule of submit events beside this heap left
/// `deep_queue_easy` user CPU flat (medians 11.44 → 11.40 s, lower in 5
/// of 5 alternating pairs on a 2-vCPU host) and cut its `peak_rss_mb`
/// from 141 to 84. One heap of every event, arrivals included, built in
/// O(n) by `BinaryHeap::from`, was slower still: +8.0 % user CPU on
/// `deep_queue_easy` and +7.6 % on `campaign_cold` against the bulk
/// schedule (3 alternating pairs each, same host class).
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// Empties the queue and restarts the sequence, keeping the heap's
    /// capacity (the cross-simulation scratch-reuse seam).
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
    }

    /// Schedules `kind` at `time`.
    pub(crate) fn push(&mut self, time: Time, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, kind, seq });
    }

    /// Removes and returns the earliest event.
    pub(crate) fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// The time of the earliest pending event.
    pub(crate) fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::observe::SimEvent;
    use crate::predict::{FixedPredictor, RequestedTimeCorrection};
    use crate::scheduler::FcfsScheduler;
    use crate::{simulate_in, SimArena, SimConfig};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        q.push(Time(30), EventKind::Finish(JobId(3)));
        q.push(Time(10), EventKind::Finish(JobId(1)));
        q.push(Time(20), EventKind::Finish(JobId(2)));
        let order: Vec<i64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.0).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    /// One instant carries a finish, an expiry and an arrival: the
    /// engine applies them in that order, and the arrival starts on the
    /// processors the finish freed.
    #[test]
    fn finish_before_expiry_before_submit_at_same_time() {
        let job = |id: u32, submit: i64, run: i64, requested: i64| Job {
            id: JobId(id),
            submit: Time(submit),
            run,
            requested,
            procs: 2,
            user: id,
            user_ix: id,
            swf_id: id as u64 + 1,
        };
        // On 4 processors, j0 ends at t=100 exactly as predicted, j1's
        // prediction expires at t=100 while it runs on, and j2 arrives
        // at t=100 needing j0's 2 processors.
        let jobs = [
            job(0, 0, 100, 100),
            job(1, 0, 300, 1_000),
            job(2, 100, 10, 10),
        ];
        let mut log = Vec::new();
        simulate_in(
            &mut SimArena::new(),
            &jobs,
            SimConfig::single(4),
            &mut FcfsScheduler,
            &mut FixedPredictor(100.0),
            Some(&RequestedTimeCorrection),
            &mut |event: &SimEvent<'_>| {
                let (what, id, at) = match *event {
                    SimEvent::Finished { outcome } => ("finished", outcome.id, outcome.end),
                    SimEvent::Corrected { job, now, .. } => ("corrected", job.id, now),
                    SimEvent::Submitted { job, now, .. } => ("submitted", job.id, now),
                    SimEvent::Started { job, now, .. } => ("started", job.id, now),
                    SimEvent::Completed { .. } => return,
                };
                if at == Time(100) {
                    log.push((what, id.0));
                }
            },
        )
        .unwrap();
        assert_eq!(
            log,
            [
                ("finished", 0),
                ("corrected", 1),
                ("submitted", 2),
                ("started", 2)
            ]
        );
    }

    #[test]
    fn same_kind_same_time_is_fifo() {
        let mut q = EventQueue::default();
        for id in 0..100u32 {
            q.push(Time(1), EventKind::Finish(JobId(id)));
        }
        for expect in 0..100u32 {
            match q.pop().unwrap().kind {
                EventKind::Finish(JobId(id)) => assert_eq!(id, expect),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::default();
        assert!(q.is_empty());
        q.push(Time(1), EventKind::Finish(JobId(0)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(Time(1)));
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}
