//! The discrete-event core: event kinds and a deterministic event queue.
//!
//! Determinism matters: the paper's campaign compares 128 heuristic triples
//! per log, and any tie-breaking nondeterminism in the simulator would
//! contaminate those comparisons. Events are totally ordered by
//! `(time, kind rank, insertion sequence)`:
//!
//! 1. **Finish** events first — completions free resources and teach the
//!    predictor before anything else at the same instant;
//! 2. **PredictionExpiry** next — corrections see the post-completion state;
//! 3. **Submit** last — a job arriving exactly when another ends sees the
//!    freed machine.

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
    /// A job enters the waiting queue.
    Submit(JobId),
}

impl EventKind {
    /// Processing rank at equal times (lower runs first).
    fn rank(&self) -> u8 {
        match self {
            EventKind::Finish(_) => 0,
            EventKind::PredictionExpiry(_, _) => 1,
            EventKind::Submit(_) => 2,
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

/// Deterministic priority queue of events.
///
/// Internally a hybrid: a bulk schedule whose items arrive already
/// sorted by `(time, rank, seq)` (the common case — a workload's submit
/// events, sorted by submission) is kept as a plain vector drained
/// front to back, and only *dynamically scheduled* events (finishes,
/// prediction expiries) go through a binary heap. The heap therefore
/// holds O(in-flight) events instead of O(total), and popping a bulk
/// event is a cursor increment — while the pop order stays exactly the
/// total `(time, rank, seq)` order: bulk events carry the smallest
/// sequence numbers, so merging the two sources by that key reproduces
/// the single-heap order bit for bit.
///
/// Measured, kept: one `BinaryHeap` built in O(n) by `BinaryHeap::from`
/// in place of the hybrid raised user CPU on `deep_queue_easy` by 8.0 %
/// (medians 19.69 → 21.26 s) and on `campaign_cold` by 7.6 %
/// (38.40 → 41.31 s) — 3 alternating pairs each on a 2-vCPU host, every
/// single-heap run slower than every hybrid run.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    /// The pre-sorted bulk schedule, drained via `cursor`.
    schedule: Vec<Event>,
    cursor: usize,
    /// Dynamically pushed events (always later in sequence than every
    /// bulk event).
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// Refills the queue from `items` in O(n), reusing its buffers (the
    /// cross-simulation scratch-reuse seam). Sequence numbers are
    /// assigned in iteration order, so the pop order is identical to
    /// pushing the items one by one onto a fresh queue (events are
    /// totally ordered by `(time, rank, seq)`; out-of-order items just
    /// fall back to the heap).
    pub(crate) fn reset_from_schedule<I>(&mut self, items: I)
    where
        I: IntoIterator<Item = (Time, EventKind)>,
    {
        self.schedule.clear();
        self.cursor = 0;
        let mut heap_vec = std::mem::take(&mut self.heap).into_vec();
        heap_vec.clear();
        self.schedule.extend(
            items
                .into_iter()
                .enumerate()
                .map(|(seq, (time, kind))| Event {
                    time,
                    kind,
                    seq: seq as u64,
                }),
        );
        self.next_seq = self.schedule.len() as u64;
        // The fast path requires the bulk schedule to be sorted by the
        // total event order; spill any out-of-order suffix to the heap
        // (sequence numbers already reflect iteration order, so the
        // merged pop order is unchanged).
        if let Some(first_bad) = self
            .schedule
            .windows(2)
            .position(|w| sort_key(&w[1]) < sort_key(&w[0]))
        {
            heap_vec.extend(self.schedule.drain(first_bad + 1..));
        }
        self.heap = BinaryHeap::from(heap_vec);
    }

    /// Schedules `kind` at `time`.
    pub(crate) fn push(&mut self, time: Time, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, kind, seq });
    }

    /// The next bulk event, if any.
    #[inline]
    fn bulk_front(&self) -> Option<&Event> {
        self.schedule.get(self.cursor)
    }

    /// True when the next event in total order comes from the bulk
    /// schedule rather than the heap.
    #[inline]
    fn bulk_first(&self) -> Option<bool> {
        match (self.bulk_front(), self.heap.peek()) {
            (Some(b), Some(h)) => Some(sort_key(b) <= sort_key(h)),
            (Some(_), None) => Some(true),
            (None, Some(_)) => Some(false),
            (None, None) => None,
        }
    }

    /// Removes and returns the earliest event.
    pub(crate) fn pop(&mut self) -> Option<Event> {
        match self.bulk_first()? {
            true => {
                let event = self.schedule[self.cursor];
                self.cursor += 1;
                Some(event)
            }
            false => self.heap.pop(),
        }
    }

    /// The time of the earliest pending event.
    pub(crate) fn peek_time(&self) -> Option<Time> {
        match self.bulk_first()? {
            true => self.bulk_front().map(|e| e.time),
            false => self.heap.peek().map(|e| e.time),
        }
    }

    /// Number of pending events.
    #[cfg(test)]
    fn len(&self) -> usize {
        (self.schedule.len() - self.cursor) + self.heap.len()
    }

    /// True when no events are pending.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The total event order `(time, rank, seq)` as a comparable key.
#[inline]
fn sort_key(e: &Event) -> (Time, u8, u64) {
    (e.time, e.kind.rank(), e.seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        q.push(Time(30), EventKind::Submit(JobId(3)));
        q.push(Time(10), EventKind::Submit(JobId(1)));
        q.push(Time(20), EventKind::Submit(JobId(2)));
        let order: Vec<i64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.0).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn finish_before_expiry_before_submit_at_same_time() {
        let mut q = EventQueue::default();
        q.push(Time(5), EventKind::Submit(JobId(1)));
        q.push(Time(5), EventKind::PredictionExpiry(JobId(2), 0));
        q.push(Time(5), EventKind::Finish(JobId(3)));
        assert!(matches!(q.pop().unwrap().kind, EventKind::Finish(_)));
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::PredictionExpiry(_, _)
        ));
        assert!(matches!(q.pop().unwrap().kind, EventKind::Submit(_)));
    }

    #[test]
    fn same_kind_same_time_is_fifo() {
        let mut q = EventQueue::default();
        for id in 0..100u32 {
            q.push(Time(1), EventKind::Submit(JobId(id)));
        }
        for expect in 0..100u32 {
            match q.pop().unwrap().kind {
                EventKind::Submit(JobId(id)) => assert_eq!(id, expect),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn from_schedule_pops_like_sequential_pushes() {
        let items: Vec<(Time, EventKind)> = (0..200u32)
            .map(|i| (Time(((i * 7919) % 97) as i64), EventKind::Submit(JobId(i))))
            .collect();
        let mut pushed = EventQueue::default();
        for &(t, k) in &items {
            pushed.push(t, k);
        }
        let mut bulk = EventQueue::default();
        bulk.reset_from_schedule(items);
        loop {
            match (pushed.pop(), bulk.pop()) {
                (None, None) => break,
                (a, b) => assert_eq!(a, b, "heapified pop order diverged"),
            }
        }
    }

    #[test]
    fn from_schedule_continues_sequence_numbers() {
        let mut q = EventQueue::default();
        q.reset_from_schedule([(Time(5), EventKind::Submit(JobId(0)))]);
        // A later push at the same (time, rank) must order after the
        // bulk-scheduled event: its seq continues where the bulk left off.
        q.push(Time(5), EventKind::Submit(JobId(1)));
        assert!(matches!(q.pop().unwrap().kind, EventKind::Submit(JobId(0))));
        assert!(matches!(q.pop().unwrap().kind, EventKind::Submit(JobId(1))));
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
