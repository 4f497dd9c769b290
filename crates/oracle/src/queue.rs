//! The original `BinaryHeap`-backed event queue, kept verbatim as the
//! executable specification of `fgbd_des::queue`'s ordering contract:
//! ascending time, FIFO among events scheduled for the same instant.
//! `crates/des/tests/properties.rs` holds [`fgbd_des::EventQueue`]
//! bit-identical to it; the `event_queue` bench measures the gap.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use fgbd_des::SimTime;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap, the earliest entry must win.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A future-event list ordered by `(time, insertion sequence)`:
/// O(log n) schedule/pop, deterministic FIFO tie-breaking.
#[derive(Default)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapQueue::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        HeapQueue {
            heap: BinaryHeap::with_capacity(cap),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at `time` (FIFO at equal times),
    /// returning its insertion sequence number.
    pub fn schedule(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
        seq
    }

    /// Re-stamps the pending entry `(time, seq)` with a fresh insertion
    /// sequence number, as a cancel-and-reschedule at the same instant
    /// would; `None` if no such entry is pending. O(n) — this is the
    /// executable specification, not the fast path.
    pub fn restamp(&mut self, time: SimTime, seq: u64) -> Option<u64> {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        let found = entries
            .iter_mut()
            .find(|e| e.seq == seq && e.time == time)
            .map(|e| {
                let fresh = self.seq;
                self.seq += 1;
                e.seq = fresh;
                fresh
            });
        self.heap = entries.into();
        found
    }

    /// Removes and returns the earliest pending event, or `None` if
    /// empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// The timestamp of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Hand-built cases holding [`fgbd_des::EventQueue`] to this specification
/// (the randomized ones are `crates/des/tests/properties.rs`). They run from
/// here, not from `fgbd-des`'s unit tests, because this crate depends on
/// that one: its unit tests would see two copies of `SimTime`.
#[cfg(test)]
mod tests {
    use fgbd_des::{Dice, EventQueue};

    use super::*;

    /// First time offset (µs) past the wheel's range: `64^7`.
    const WHEEL_RANGE: u64 = 1 << 42;

    #[test]
    fn cascades_across_level_boundaries() {
        // Times straddling the 64^1, 64^2 and 64^3 slot boundaries, plus
        // equal-time ties on both sides, scheduled out of order.
        let times = [
            63u64, 64, 65, 4095, 4096, 4097, 262_143, 262_144, 262_145, 64, 4096,
        ];
        let mut q = EventQueue::new();
        let mut r = HeapQueue::new();
        for (i, &t) in times.iter().enumerate().rev() {
            q.schedule(SimTime::from_micros(t), i);
            r.schedule(SimTime::from_micros(t), i);
        }
        for _ in 0..times.len() {
            assert_eq!(q.peek_time(), r.peek_time());
            assert_eq!(q.pop(), r.pop());
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn with_capacity_matches_new_behaviour() {
        let mut q = EventQueue::with_capacity(1024);
        let mut r = HeapQueue::with_capacity(1024);
        for i in 0..2048u64 {
            let t = SimTime::from_micros(i * 37 % 911);
            q.schedule(t, i);
            r.schedule(t, i);
        }
        for _ in 0..2048 {
            assert_eq!(q.pop(), r.pop());
        }
    }

    #[test]
    fn restamp_reorders_ties_like_cancel_and_reschedule() {
        let mut q = EventQueue::new();
        let mut r = HeapQueue::new();
        let t = SimTime::from_micros(100);
        let ticket = q.schedule(t, "timer");
        assert_eq!(r.schedule(t, "timer"), ticket);
        q.schedule(t, "interloper");
        r.schedule(t, "interloper");
        // Re-stamping draws a fresh FIFO ticket: the timer now fires after
        // the event scheduled between its arming and its reuse — exactly as
        // if it had been cancelled and rescheduled.
        let fresh = q.restamp(t, ticket).expect("pending entry restamps");
        assert_eq!(r.restamp(t, ticket), Some(fresh));
        assert!(fresh > ticket);
        assert_eq!(q.pop().unwrap().1, "interloper");
        assert_eq!(q.pop().unwrap().1, "timer");
        assert_eq!(r.pop().unwrap().1, "interloper");
        assert_eq!(r.pop().unwrap().1, "timer");
        // A fired ticket is gone from both implementations.
        assert_eq!(q.restamp(t, fresh), None);
        assert_eq!(r.restamp(t, fresh), None);
    }

    #[test]
    fn restamp_finds_entries_across_levels_and_overflow() {
        let mut q = EventQueue::new();
        let mut r = HeapQueue::new();
        // Anchor at 0, then spread timers across level 1, a high level, and
        // the overflow heap, each followed by a same-instant rival.
        q.schedule(SimTime::ZERO, "anchor");
        r.schedule(SimTime::ZERO, "anchor");
        let times = [65u64, 262_145, WHEEL_RANGE + 7];
        let mut tickets = Vec::new();
        for &t in &times {
            let t = SimTime::from_micros(t);
            let ticket = q.schedule(t, "timer");
            assert_eq!(r.schedule(t, "timer"), ticket);
            q.schedule(t, "rival");
            r.schedule(t, "rival");
            tickets.push((t, ticket));
        }
        for (t, ticket) in tickets {
            // A bogus ticket misses without side effects; a live one
            // restamps wherever the entry sits (wheel bucket or overflow
            // heap), and the timer loses its same-instant tie to the rival.
            assert_eq!(q.restamp(t, u64::MAX - 1), None);
            assert_eq!(r.restamp(t, u64::MAX - 1), None);
            let fresh = q.restamp(t, ticket).expect("pending entry restamps");
            assert_eq!(r.restamp(t, ticket), Some(fresh));
        }
        // Deliver everything; both queues must agree bit-for-bit, with
        // every rival now beating its restamped timer.
        assert_eq!(q.pop().unwrap().1, "anchor");
        assert_eq!(r.pop().unwrap().1, "anchor");
        for _ in &times {
            assert_eq!(q.pop().unwrap().1, "rival");
            assert_eq!(r.pop().unwrap().1, "rival");
            assert_eq!(q.pop().unwrap().1, "timer");
            assert_eq!(r.pop().unwrap().1, "timer");
        }
        assert!(q.is_empty() && r.is_empty());
    }

    #[test]
    fn restamp_finds_entries_scheduled_far_behind_an_idle_reanchor() {
        // Re-anchoring an idle wheel far in the future, then scheduling
        // times far in the past, rewinds the clock: the early entries sit
        // in their own level-0 bucket and the anchor moves out to the
        // overflow heap. Restamp must find both.
        let mut q = EventQueue::new();
        let mut r = HeapQueue::new();
        let far = SimTime::from_micros(2 * WHEEL_RANGE + 54);
        let anchor = q.schedule(far, "anchor");
        assert_eq!(r.schedule(far, "anchor"), anchor);
        let t = SimTime::from_micros(7);
        let ticket = q.schedule(t, "timer");
        assert_eq!(r.schedule(t, "timer"), ticket);
        q.schedule(t, "rival");
        r.schedule(t, "rival");
        q.schedule(far, "late rival");
        r.schedule(far, "late rival");
        let fresh = q.restamp(t, ticket).expect("rewound entry restamps");
        assert_eq!(r.restamp(t, ticket), Some(fresh));
        let fresh = q.restamp(far, anchor).expect("overflowed anchor restamps");
        assert_eq!(r.restamp(far, anchor), Some(fresh));
        // Below the clock nothing can be pending.
        assert_eq!(q.restamp(SimTime::from_micros(3), ticket), None);
        for expect in ["rival", "timer", "late rival", "anchor"] {
            assert_eq!(q.peek_time(), r.peek_time());
            assert_eq!(q.pop().unwrap().1, expect);
            assert_eq!(r.pop().unwrap().1, expect);
        }
    }

    #[test]
    fn boot_shape_at_scale_drains_in_linear_time() {
        // The shape every n-tier run starts with: pop the queue empty, then
        // schedule the whole population's first think from one `now`. The
        // first schedule re-anchors the idle wheel at its own time; every
        // later one below it must rewind the clock, not pile up in one
        // bucket — a per-pop scan of that bucket is quadratic (minutes at
        // this size), the FIFO wheel takes milliseconds.
        const USERS: u64 = 200_000;
        let started = std::time::Instant::now();
        let mut dice = Dice::seed(20130708);
        let mut q = EventQueue::new();
        let mut r = HeapQueue::new();
        q.schedule(SimTime::ZERO, u64::MAX);
        r.schedule(SimTime::ZERO, u64::MAX);
        assert_eq!(q.pop(), r.pop());
        for user in 0..USERS {
            // Exponential think delays (mean 7 s) at 1 ms resolution, so
            // same-instant buckets are a few hundred entries deep.
            let t = SimTime::from_millis((dice.exp(7.0) * 1e3) as u64);
            assert_eq!(q.schedule(t, user), r.schedule(t, user));
        }
        for _ in 0..USERS {
            assert_eq!(q.pop(), r.pop());
        }
        assert!(q.is_empty() && r.is_empty());
        let took = started.elapsed();
        assert!(took.as_secs() < 5, "boot shape took {took:?}");
    }
}
