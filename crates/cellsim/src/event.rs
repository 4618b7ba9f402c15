//! The discrete-event queue.
//!
//! Events are ordered by time (earliest first); ties are broken by a
//! monotonically increasing sequence number so insertion order is preserved
//! and the simulation stays deterministic.  Sequence numbers are unique
//! within a queue, so `(time, sequence)` is a total order and any correct
//! min-heap on it pops exactly the same sequence of events.
//!
//! The queue holds run-time events only: departures and handoffs, small
//! `Copy` values carrying a dense [`CellIdx`] plus the connection's user
//! [`SlotId`] handle.  Faults, arrivals and utilisation ticks are not
//! queued: both engines merge them in as the other three of four event
//! streams, arrivals drawn from a [`crate::traffic::ArrivalStream`].
//!
//! [`EventQueue`] is an implicit 4-ary min-heap over one `Vec<Event>`.  A
//! metro run keeps tens of thousands of events pending per shard, and
//! sixteen shards' heaps together are far larger than the caches, so
//! every level a pop descends costs one dependent cache miss.
//! Four children per node halve the depth of a binary heap (8 levels
//! instead of 16 at 62k events), the four children of a node sit next to
//! each other in memory, and sift-down stops as soon as the displaced
//! last element fits instead of sinking to a leaf first.  The backing
//! vector keeps its capacity across [`EventQueue::clear`], so a warmed-up
//! simulator schedules and pops events without allocating.

use crate::geometry::CellIdx;
use crate::slab::SlotId;
use crate::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Children per node of the [`EventQueue`] heap.
const ARITY: usize = 4;

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum EventKind {
    /// An admitted connection completes normally.
    Departure {
        /// Dense index of the cell scheduled to serve the connection at
        /// completion time (a stale index after an intervening handoff —
        /// the release simply misses and the event is a no-op).
        cell: CellIdx,
        /// The connection id.
        connection_id: u64,
        /// The connection's user-state slot (`None` in single-cell runs,
        /// which track no user kinematics).
        user: Option<SlotId>,
    },
    /// An on-going connection attempts to hand off between two cells.
    Handoff {
        /// Dense index of the cell the connection is leaving.
        from: CellIdx,
        /// Dense index of the cell the connection wants to enter.
        to: CellIdx,
        /// The connection id.
        connection_id: u64,
        /// The connection's user-state slot.
        user: SlotId,
    },
}

/// A timestamped event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Firing time in seconds.
    pub time: SimTime,
    /// Insertion sequence number (used for deterministic tie-breaking).
    pub sequence: u64,
    /// What to do.
    pub kind: EventKind,
}

impl Eq for Event {}

/// Inverted firing order: the event that fires first is the *greatest*,
/// so a max-heap such as `std::collections::BinaryHeap<Event>` pops events
/// in the same order as [`EventQueue`].
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.sequence.cmp(&self.sequence))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// `true` when queued event `a` fires before queued event `b`.
///
/// The order is `time.total_cmp`, then `sequence`.  [`EventQueue::schedule`]
/// stores only `+0.0` or positive finite times, whose bit patterns order
/// as unsigned integers exactly as `total_cmp` orders the values, so an
/// integer tuple compare computes it (measured faster than `total_cmp`).
#[inline]
fn precedes(a: &Event, b: &Event) -> bool {
    (a.time.to_bits(), a.sequence) < (b.time.to_bits(), b.sequence)
}

/// A time-ordered event queue: an implicit 4-ary min-heap.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    /// Heap order: the children of node `i` are `ARITY * i + 1 ..=
    /// ARITY * i + ARITY`, and no child fires before its parent.
    heap: Vec<Event>,
    next_sequence: u64,
}

impl EventQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` at `time` (non-finite or negative times, and
    /// `-0.0`, are clamped to `+0.0`).
    pub fn schedule(&mut self, time: SimTime, kind: EventKind) {
        let time = if time.is_finite() && time > 0.0 {
            time
        } else {
            0.0
        };
        debug_assert!(time.is_sign_positive(), "`precedes` relies on the clamp");
        let ev = Event {
            time,
            sequence: self.next_sequence,
            kind,
        };
        self.next_sequence += 1;
        self.heap.push(ev);
        self.sift_up(self.heap.len() - 1, ev);
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        let last = self.heap.pop()?;
        if self.heap.is_empty() {
            return Some(last);
        }
        let first = self.heap[0];
        self.sift_down(last);
        Some(first)
    }

    /// Peek at the earliest event without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<&Event> {
        self.heap.first()
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Ensure room for at least `additional` more events without further
    /// growth reallocations.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Capacity of the backing heap.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Remove every pending event, keeping the backing storage, and reset
    /// the sequence counter.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_sequence = 0;
    }

    /// Move `ev`, just written at `pos`, up past every parent it fires
    /// before, shifting those parents down into the hole.
    fn sift_up(&mut self, mut pos: usize, ev: Event) {
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if !precedes(&ev, &self.heap[parent]) {
                break;
            }
            self.heap[pos] = self.heap[parent];
            pos = parent;
        }
        self.heap[pos] = ev;
    }

    /// Refill the root hole with `ev` (the former last element): move the
    /// earliest child up while it fires before `ev`, and stop at the first
    /// level where `ev` fits.
    fn sift_down(&mut self, ev: Event) {
        let len = self.heap.len();
        let mut pos = 0;
        loop {
            let first_child = ARITY * pos + 1;
            if first_child >= len {
                break;
            }
            let children = &self.heap[first_child..len.min(first_child + ARITY)];
            let mut best = 0;
            for (i, child) in children.iter().enumerate().skip(1) {
                if precedes(child, &children[best]) {
                    best = i;
                }
            }
            let child = children[best];
            if !precedes(&child, &ev) {
                break;
            }
            self.heap[pos] = child;
            pos = first_child + best;
        }
        self.heap[pos] = ev;
    }
}

/// The four event streams both engines merge, in tie-break order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stream {
    /// Scheduled faults: infrastructure changes take effect before
    /// same-instant traffic.
    Fault,
    /// Arrivals from the run's [`crate::traffic::ArrivalStream`], in
    /// time order.
    Arrival,
    /// Computed utilisation-sampling ticks.
    Tick,
    /// Run-time events (departures and handoffs) in the [`EventQueue`].
    Queue,
}

/// The stream whose next event fires first, with its time, given each
/// stream's next time.  On exact time ties the earlier [`Stream`] wins,
/// the order the one-heap engine's sequence numbers produced.
#[inline]
pub(crate) fn next_stream(
    fault: Option<SimTime>,
    arrival: Option<SimTime>,
    tick: Option<SimTime>,
    queued: Option<SimTime>,
) -> Option<(Stream, SimTime)> {
    if let Some(f) = fault {
        if arrival.is_none_or(|a| f <= a)
            && tick.is_none_or(|t| f <= t)
            && queued.is_none_or(|q| f <= q)
        {
            return Some((Stream::Fault, f));
        }
    }
    if let Some(a) = arrival {
        if tick.is_none_or(|t| a <= t) && queued.is_none_or(|q| a <= q) {
            return Some((Stream::Arrival, a));
        }
    }
    if let Some(t) = tick {
        if queued.is_none_or(|q| t <= q) {
            return Some((Stream::Tick, t));
        }
    }
    queued.map(|q| (Stream::Queue, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn departure(id: u64) -> EventKind {
        EventKind::Departure {
            cell: CellIdx(0),
            connection_id: id,
            user: None,
        }
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(10.0, departure(1));
        q.schedule(5.0, departure(2));
        q.schedule(7.5, departure(3));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().time, 5.0);
        assert_eq!(q.pop().unwrap().time, 7.5);
        assert_eq!(q.pop().unwrap().time, 10.0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_are_broken_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(1.0, departure(100));
        q.schedule(1.0, departure(200));
        q.schedule(1.0, departure(300));
        let ids: Vec<u64> = (0..3)
            .map(|_| match q.pop().unwrap().kind {
                EventKind::Departure { connection_id, .. } => connection_id,
                EventKind::Handoff { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![100, 200, 300]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(3.0, departure(1));
        assert_eq!(q.peek().unwrap().time, 3.0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn bad_times_are_clamped() {
        let mut q = EventQueue::new();
        q.schedule(-5.0, departure(1));
        q.schedule(f64::NAN, departure(2));
        assert_eq!(q.pop().unwrap().time, 0.0);
        assert_eq!(q.pop().unwrap().time, 0.0);
    }

    #[test]
    fn negative_zero_is_clamped_to_positive_zero() {
        let mut q = EventQueue::new();
        q.schedule(-0.0, departure(1));
        q.schedule(f64::NEG_INFINITY, departure(2));
        assert_eq!(q.pop().unwrap().time.to_bits(), 0.0f64.to_bits());
        assert_eq!(q.pop().unwrap().time.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn precedes_agrees_with_the_inverted_ord_on_queued_times() {
        let ev = |time: f64, sequence: u64| Event {
            time,
            sequence,
            kind: departure(1),
        };
        let events = [
            ev(0.0, 1),
            ev(0.0, 2),
            ev(f64::MIN_POSITIVE, 0),
            ev(1.5, 0),
            ev(1.5, 7),
            ev(2.0, 3),
            ev(f64::MAX, 4),
        ];
        for a in &events {
            for b in &events {
                assert_eq!(precedes(a, b), a.cmp(b) == Ordering::Greater, "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn pops_in_order_across_many_levels() {
        let mut q = EventQueue::new();
        let mut state = 1u64;
        for call in 0..5_000u64 {
            state = crate::rng::mix64(state.wrapping_add(crate::rng::SPLITMIX64_GAMMA));
            q.schedule(f64::from((state % 97) as u32), departure(call));
        }
        let mut prev = q.pop().unwrap();
        while let Some(next) = q.pop() {
            assert!(precedes(&prev, &next), "{prev:?} then {next:?}");
            prev = next;
        }
    }

    #[test]
    fn clear_empties_queue_and_keeps_capacity() {
        let mut q = EventQueue::new();
        for i in 0..64 {
            q.schedule(f64::from(i), departure(1));
        }
        let cap = q.capacity();
        q.clear();
        assert!(q.is_empty());
        assert!(q.capacity() >= cap, "clear must keep the backing storage");
        // Sequence numbers restart, so replays are bit-identical.
        q.schedule(1.0, departure(1));
        assert_eq!(q.pop().unwrap().sequence, 0);
    }

    #[test]
    fn events_are_small_copy_values() {
        // An event moves a few machine words through the heap: handles,
        // not owned connection state.
        assert!(
            std::mem::size_of::<Event>() <= 48,
            "Event grew to {} bytes",
            std::mem::size_of::<Event>()
        );
        let e = Event {
            time: 4.0,
            sequence: 9,
            kind: EventKind::Handoff {
                from: CellIdx(0),
                to: CellIdx(1),
                connection_id: 9,
                user: {
                    let mut slab = crate::slab::Slab::new();
                    slab.insert(())
                },
            },
        };
        let copy = e; // Copy, not move
        assert_eq!(copy, e);
    }

    #[test]
    fn handoff_and_departure_events_carry_cells() {
        let mut q = EventQueue::new();
        let mut slab = crate::slab::Slab::new();
        let slot = slab.insert(());
        q.schedule(
            4.0,
            EventKind::Handoff {
                from: CellIdx(0),
                to: CellIdx(1),
                connection_id: 9,
                user: slot,
            },
        );
        q.schedule(
            2.0,
            EventKind::Departure {
                cell: CellIdx(0),
                connection_id: 3,
                user: None,
            },
        );
        match q.pop().unwrap().kind {
            EventKind::Departure { connection_id, .. } => assert_eq!(connection_id, 3),
            other => panic!("unexpected {other:?}"),
        }
        match q.pop().unwrap().kind {
            EventKind::Handoff {
                from,
                to,
                connection_id,
                ..
            } => {
                assert_eq!(from, CellIdx(0));
                assert_eq!(to, CellIdx(1));
                assert_eq!(connection_id, 9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
