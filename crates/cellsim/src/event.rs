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
//! [`EventQueue`] is a calendar queue (Brown, CACM 1988).  A metro run
//! keeps tens of thousands of events pending per shard, and sixteen
//! shards' queues together are far larger than the caches, so a single
//! heap over every pending event pays one dependent cache miss per level
//! a pop descends.  The calendar files each event in a fixed-width time
//! bucket instead and orders only the bucket about to fire:
//!
//! - the **near** heap, a 4-ary min-heap holding exactly the events of the
//!   earliest non-empty bucket, small enough to stay in cache;
//! - the **ring**, one append-only slot per 4 s bucket for the 1024
//!   buckets starting at the bucket of the last popped event (the clock);
//!   slots store events in fixed-size blocks drawn from one per-queue
//!   pool, so a sparse bucket wastes less than a block;
//! - the **overflow** heap, a 4-ary min-heap for events past the ring.
//!
//! A pop takes the near heap's root; when the near heap empties, the next
//! non-empty ring slot (or the overflow heap's earliest bucket) is loaded
//! into it.  Every event in the ring or the overflow heap is in a later
//! bucket than every near event, and bucket order is time order, so pops
//! follow `(time, sequence)` exactly as one heap over all events would.
//! The paths that run once per bucket or less, rather than once per
//! event, stay out of line, so that `schedule` and `pop` stay small.
//!
//! The near heap keeps [`Event`]s, so [`EventQueue::peek`] can lend one.
//! The ring and the overflow heap, which hold almost every pending event
//! of a metro shard, keep a hand-packed 40-byte form instead of the
//! 48-byte `Event` (`EventKind`'s layout leaves no padding to pack the
//! variant and the `Option` into).  Both grow in fixed-size chunks that
//! are never reallocated, so a queue of tens of thousands of events grows
//! without copying.  All storage — the near heap's vector and both
//! chunked stores — is kept across [`EventQueue::clear`], so a warmed-up
//! simulator schedules and pops events without allocating.

use crate::chunks::{Chunks, CHUNK_LEN};
use crate::geometry::CellIdx;
use crate::heap::{Heap, Keyed};
use crate::slab::{SlotId, NO_SLOT};
use crate::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Calendar bucket width in seconds.  A power of two, so a time's bucket
/// is one exact multiply and a truncation.
const BUCKET_WIDTH_S: f64 = 4.0;

/// Buckets the ring spans ahead of the clock (4096 s of simulated time,
/// several mean holding times of a metro call).  A power of two, so a
/// bucket's slot is a mask.
const RING_SLOTS: usize = 1024;

/// The largest bucket index: times past it share the last bucket, and
/// `bucket + RING_SLOTS` never overflows.
const LAST_BUCKET: u64 = u64::MAX - RING_SLOTS as u64;

/// Events per block of ring storage.  A filled slot wastes the unused
/// rest of its last block, and each block costs a 4-byte link: four
/// events per block kept a metro run's peak memory lowest (measured
/// against two and eight).
const BLOCK_EVENTS: usize = 4;

/// One block of ring storage.
type Block = [Packed; BLOCK_EVENTS];

/// Blocks per chunk of the ring's pool: as many events as a chunk of
/// any other store holds.
const BLOCK_CHUNK: usize = CHUNK_LEN / BLOCK_EVENTS;

/// The null block index.
const NIL: u32 = u32::MAX;

/// The calendar bucket of a queued time (`+0.0` or positive finite).
#[inline]
fn bucket_of(time: SimTime) -> u64 {
    ((time * (1.0 / BUCKET_WIDTH_S)) as u64).min(LAST_BUCKET)
}

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

/// Queued events order by `(time bits, sequence)`: [`EventQueue::schedule`]
/// stores only `+0.0` or positive finite times, whose bit patterns order
/// as unsigned integers exactly as `total_cmp` orders the values, so an
/// integer tuple compare computes the order (measured faster than
/// `total_cmp`).
impl Keyed for Event {
    type Key = (u64, u64);

    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.time.to_bits(), self.sequence)
    }
}

/// The largest sequence number a [`Packed`] event holds.
const MAX_PACKED_SEQUENCE: u64 = u64::MAX >> 1;

/// An event as the ring and the overflow heap store it: 40 bytes, where
/// an [`Event`] takes 48.  The variant rides in the low bit of the
/// sequence, a departure's missing user is the slot index the slab never
/// issues, and a departure leaves `to` at 0.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Packed {
    time: SimTime,
    /// `sequence << 1 | variant`, the variant 1 for a handoff.
    /// Sequences are unique within a queue, so `(time bits, key)` orders
    /// events exactly as `(time bits, sequence)` does.
    key: u64,
    connection_id: u64,
    /// The departure's cell, or the handoff's source.
    cell: u32,
    /// The handoff's target.
    to: u32,
    /// The user's slot index ([`NO_SLOT`] for none) and generation.
    slot: u32,
    generation: u32,
}

impl Keyed for Packed {
    type Key = (u64, u64);

    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.time.to_bits(), self.key)
    }
}

impl Packed {
    /// The filler of a fresh ring block's unused entries (never read).
    const VACANT: Self = Self {
        time: 0.0,
        key: 0,
        connection_id: 0,
        cell: 0,
        to: 0,
        slot: NO_SLOT,
        generation: 0,
    };

    /// # Panics
    ///
    /// If the sequence is past [`MAX_PACKED_SEQUENCE`], or a departure's
    /// user has the slot index that stands for no user.
    #[inline]
    fn pack(ev: &Event) -> Self {
        assert!(
            ev.sequence <= MAX_PACKED_SEQUENCE,
            "event sequence {} is past the largest packable sequence {MAX_PACKED_SEQUENCE}",
            ev.sequence
        );
        let (variant, cell, to, connection_id, (slot, generation)) = match ev.kind {
            EventKind::Departure {
                cell,
                connection_id,
                user,
            } => {
                let parts = user.map_or((NO_SLOT, 0), SlotId::parts);
                assert!(
                    user.is_none() || parts.0 != NO_SLOT,
                    "a departure's user slot index {NO_SLOT} is reserved for no user"
                );
                (0, cell, CellIdx(0), connection_id, parts)
            }
            EventKind::Handoff {
                from,
                to,
                connection_id,
                user,
            } => (1, from, to, connection_id, user.parts()),
        };
        Self {
            time: ev.time,
            key: ev.sequence << 1 | variant,
            connection_id,
            cell: cell.0,
            to: to.0,
            slot,
            generation,
        }
    }

    #[inline]
    fn unpack(&self) -> Event {
        let user = SlotId::from_parts(self.slot, self.generation);
        let kind = if self.key & 1 == 0 {
            EventKind::Departure {
                cell: CellIdx(self.cell),
                connection_id: self.connection_id,
                user: (self.slot != NO_SLOT).then_some(user),
            }
        } else {
            EventKind::Handoff {
                from: CellIdx(self.cell),
                to: CellIdx(self.to),
                connection_id: self.connection_id,
                user,
            }
        };
        Event {
            time: self.time,
            sequence: self.key >> 1,
            kind,
        }
    }
}

/// One ring slot: a chain of blocks holding `len` events, all of one
/// bucket, in insertion order (the near heap orders them on loading).
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
    len: u32,
}

/// The ring of bucket slots and the pool of blocks they draw from.
/// Drained blocks are recycled through a free list, so the pool holds
/// about as many blocks as the ring's peak needs, and every slot wastes
/// less than one block: far less slack than one growable vector per
/// bucket.  The pool's blocks and links live in fixed-size chunks
/// ([`crate::chunks`]) of 1024 events' worth: the pool grows a chunk at a
/// time, never moves or copies a stored block, and keeps its chunks
/// across [`Ring::clear`].
#[derive(Debug, Clone)]
struct Ring {
    slots: Box<[Slot; RING_SLOTS]>,
    /// The pool's blocks.
    blocks: Chunks<Block, BLOCK_CHUNK>,
    /// Each block's successor in its slot's chain or in the free list.
    next: Chunks<u32>,
    /// Head of the free-block list.
    free: u32,
    /// Events in all slots.
    len: usize,
}

impl Default for Ring {
    fn default() -> Self {
        let empty = Slot {
            head: NIL,
            tail: NIL,
            len: 0,
        };
        Self {
            slots: Box::new([empty; RING_SLOTS]),
            blocks: Chunks::default(),
            next: Chunks::default(),
            free: NIL,
            len: 0,
        }
    }
}

impl Ring {
    fn slot(bucket: u64) -> usize {
        bucket as usize & (RING_SLOTS - 1)
    }

    /// The events of block `index`.
    fn block(&self, index: u32) -> &Block {
        &self.blocks[index as usize]
    }

    /// A block for a slot's chain: a recycled one, else a fresh one.
    fn alloc(&mut self) -> u32 {
        if self.free != NIL {
            let index = self.free;
            self.free = self.next[index as usize];
            return index;
        }
        let index = u32::try_from(self.next.len())
            .ok()
            .filter(|&i| i != NIL)
            .expect("event queue block pool exhausted");
        self.next.push(NIL);
        self.blocks.push([Packed::VACANT; BLOCK_EVENTS]);
        index
    }

    /// Append `ev`, whose bucket is `bucket`, to that bucket's slot.
    fn append(&mut self, bucket: u64, ev: Packed) {
        let s = Self::slot(bucket);
        let fill = self.slots[s].len as usize % BLOCK_EVENTS;
        if fill == 0 {
            let index = self.alloc();
            if self.slots[s].len == 0 {
                self.slots[s].head = index;
            } else {
                self.next[self.slots[s].tail as usize] = index;
            }
            self.slots[s].tail = index;
        }
        self.blocks[self.slots[s].tail as usize][fill] = ev;
        self.slots[s].len += 1;
        self.len += 1;
    }

    fn is_filled(&self, bucket: u64) -> bool {
        self.slots[Self::slot(bucket)].len > 0
    }

    /// Hand every event of `bucket`'s slot to `sink`, in insertion order,
    /// and recycle the slot's blocks.
    fn drain(&mut self, bucket: u64, mut sink: impl FnMut(&Packed)) {
        let Slot { head, tail, len } = self.slots[Self::slot(bucket)];
        if len == 0 {
            return;
        }
        let mut left = len as usize;
        let mut index = head;
        loop {
            let n = left.min(BLOCK_EVENTS);
            for ev in &self.block(index)[..n] {
                sink(ev);
            }
            left -= n;
            if left == 0 {
                break;
            }
            index = self.next[index as usize];
        }
        self.next[tail as usize] = self.free;
        self.free = head;
        self.slots[Self::slot(bucket)].len = 0;
        self.len -= len as usize;
    }

    /// Empty every slot and the pool, keeping the pool's chunks.  Free
    /// when the ring is already empty.
    fn clear(&mut self) {
        if self.len > 0 {
            for slot in self.slots.iter_mut() {
                slot.len = 0;
            }
            self.len = 0;
        }
        self.blocks.clear();
        self.next.clear();
        self.free = NIL;
    }
}

/// A time-ordered event queue: a calendar of fixed-width time buckets
/// whose earliest bucket is ordered by a small near heap (see the module
/// documentation).
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    /// Exactly the pending events of bucket `near_bucket`; non-empty
    /// whenever the queue is.
    near: Heap<Vec<Event>>,
    /// The events of buckets `near_bucket + 1 .. clock + RING_SLOTS`.
    ring: Ring,
    /// The events of buckets from `clock + RING_SLOTS` on (all after
    /// `near_bucket`).
    overflow: Heap<Chunks<Packed>>,
    /// The ring's first bucket: the bucket of the last event popped, or
    /// an earlier one after a schedule into the past; never after
    /// `near_bucket`.
    clock: u64,
    near_bucket: u64,
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
        let bucket = bucket_of(time);
        if self.near.is_empty() {
            // Nothing else is pending: the event's bucket becomes the near
            // bucket, and the clock stays at the last pop unless the event
            // is earlier still.
            self.clock = self.clock.min(bucket);
            self.near_bucket = bucket;
        } else if bucket > self.near_bucket {
            self.file(bucket, Packed::pack(&ev));
            return;
        } else if bucket < self.near_bucket {
            if bucket < self.clock {
                self.rewind(bucket);
            }
            self.demote();
            self.near_bucket = bucket;
        }
        self.near.push(ev);
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        let ev = self.near.pop()?;
        if self.clock != self.near_bucket {
            self.advance_clock();
        }
        if self.near.is_empty() {
            self.refill();
        }
        Some(ev)
    }

    /// Peek at the earliest event without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<&Event> {
        self.near.peek()
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.near.len() + self.ring.len + self.overflow.len()
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.near.is_empty()
    }

    /// Remove every pending event, keeping the backing storage, and reset
    /// the sequence counter.
    pub fn clear(&mut self) {
        self.near.items.clear();
        self.overflow.items.clear();
        self.ring.clear();
        self.clock = 0;
        self.near_bucket = 0;
        self.next_sequence = 0;
    }

    /// File `ev` of a bucket after the near bucket: in the ring if the
    /// bucket is in its span, else in the overflow heap.
    fn file(&mut self, bucket: u64, ev: Packed) {
        if bucket - self.clock < RING_SLOTS as u64 {
            self.ring.append(bucket, ev);
        } else {
            self.overflow.push(ev);
        }
    }

    /// Before an earlier event becomes the near bucket: file the near
    /// events back under their own, now later, bucket.
    #[inline(never)]
    fn demote(&mut self) {
        let mut near = std::mem::take(&mut self.near.items);
        for ev in near.drain(..) {
            self.file(self.near_bucket, Packed::pack(&ev));
        }
        self.near.items = near;
    }

    /// Move the clock back to `bucket`, before the last pop: the ring's
    /// span ends earlier, so the slots past its new end spill into the
    /// overflow heap.  The engines never schedule into the past; this
    /// path only keeps every `schedule` correct.
    #[inline(never)]
    fn rewind(&mut self, bucket: u64) {
        let end = self.clock + RING_SLOTS as u64;
        for later in (bucket + RING_SLOTS as u64).max(self.near_bucket + 1)..end {
            self.ring.drain(later, |ev| self.overflow.push(*ev));
        }
        self.clock = bucket;
    }

    /// The popped event was the first of a later bucket than the clock:
    /// the clock moves to it, and the ring's span moves along, taking in
    /// the overflow events it now covers.
    #[inline(never)]
    fn advance_clock(&mut self) {
        self.clock = self.near_bucket;
        while let Some(ev) = self.overflow.peek() {
            let bucket = bucket_of(ev.time);
            if bucket - self.clock >= RING_SLOTS as u64 {
                break;
            }
            debug_assert!(
                bucket > self.near_bucket,
                "overflow is after the near bucket"
            );
            let ev = self.overflow.pop().expect("peeked above");
            self.ring.append(bucket, ev);
        }
    }

    /// The near heap emptied: load the next non-empty bucket into it,
    /// from the ring if it holds any event, else from the overflow heap.
    #[inline(never)]
    fn refill(&mut self) {
        if self.ring.len > 0 {
            let end = self.clock + RING_SLOTS as u64;
            let bucket = (self.near_bucket + 1..end)
                .find(|&b| self.ring.is_filled(b))
                .expect("a non-empty ring has a filled slot in its span");
            self.near_bucket = bucket;
            self.ring.drain(bucket, |ev| self.near.push(ev.unpack()));
        } else if let Some(first) = self.overflow.peek() {
            let bucket = bucket_of(first.time);
            self.near_bucket = bucket;
            while self
                .overflow
                .peek()
                .is_some_and(|ev| bucket_of(ev.time) == bucket)
            {
                let ev = self.overflow.pop().expect("peeked above");
                self.near.push(ev.unpack());
            }
        }
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
    use crate::heap::precedes;
    use proptest::prelude::*;

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

    /// Check where every pending event is filed: the near heap holds one
    /// bucket, the ring its later buckets within the span, the overflow
    /// heap the rest.
    fn assert_calendar(q: &EventQueue) {
        assert!(
            !q.near.is_empty() || (q.ring.len == 0 && q.overflow.is_empty()),
            "a non-empty queue has a non-empty near heap"
        );
        assert!(q.clock <= q.near_bucket);
        for ev in &q.near.items {
            assert_eq!(bucket_of(ev.time), q.near_bucket, "near holds one bucket");
        }
        let mut ring_len = 0;
        for (s, slot) in q.ring.slots.iter().enumerate() {
            let mut left = slot.len as usize;
            ring_len += left;
            let mut index = slot.head;
            while left > 0 {
                for ev in &q.ring.block(index)[..left.min(BLOCK_EVENTS)] {
                    let bucket = bucket_of(ev.time);
                    assert_eq!(Ring::slot(bucket), s);
                    assert!(bucket > q.near_bucket && bucket - q.clock < RING_SLOTS as u64);
                }
                left = left.saturating_sub(BLOCK_EVENTS);
                index = q.ring.next[index as usize];
            }
        }
        assert_eq!(ring_len, q.ring.len);
        for ev in q.overflow.items.iter() {
            let bucket = bucket_of(ev.time);
            assert!(bucket > q.near_bucket && bucket - q.clock >= RING_SLOTS as u64);
        }
    }

    #[test]
    fn events_are_filed_by_bucket_under_metro_holds() {
        // Holds with a 1200 s mean after the last pop, and now and then a
        // time before the last pop: most events land in the ring, a few
        // past it, and the near heap never holds more than one bucket.
        let mut q = EventQueue::new();
        let mut rng = crate::rng::SimRng::new(7);
        let mut last_pop = 0.0;
        for step in 0..30_000u64 {
            if rng.uniform(0.0, 1.0) < if q.len() < 2_000 { 0.7 } else { 0.5 } {
                let time = if step % 64 == 0 {
                    last_pop - rng.uniform(0.0, 3_000.0)
                } else {
                    last_pop + rng.exponential(1200.0)
                };
                q.schedule(time, departure(step));
            } else if let Some(ev) = q.pop() {
                last_pop = ev.time;
            }
            if step % 97 == 0 {
                assert_calendar(&q);
            }
        }
        assert!(
            q.ring.len > 1_000 && !q.overflow.is_empty(),
            "{} in the ring",
            q.ring.len
        );
        assert_calendar(&q);
    }

    #[test]
    fn clear_empties_queue_and_keeps_capacity() {
        let mut q = EventQueue::new();
        for i in 0..64 {
            q.schedule(f64::from(i), departure(1));
        }
        let capacity = |q: &EventQueue| {
            q.near.items.capacity() + q.overflow.items.capacity() + q.ring.blocks.capacity()
        };
        let cap = capacity(&q);
        q.clear();
        assert!(q.is_empty());
        assert!(capacity(&q) >= cap, "clear must keep the backing storage");
        // Sequence numbers restart, so replays are bit-identical.
        q.schedule(1.0, departure(1));
        assert_eq!(q.pop().unwrap().sequence, 0);
    }

    #[test]
    fn events_are_small_copy_values() {
        // An event moves a few machine words through the heap: handles,
        // not owned connection state.  The ring and the overflow heap,
        // which hold almost every pending event, store the packed form.
        assert!(
            std::mem::size_of::<Event>() <= 48,
            "Event grew to {} bytes",
            std::mem::size_of::<Event>()
        );
        assert_eq!(std::mem::size_of::<Packed>(), 40);
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

    /// A slot handle as the slab would issue it.
    fn slot(index: u32, generation: u32) -> SlotId {
        SlotId::from_parts(index, generation)
    }

    fn any_event() -> impl Strategy<Value = Event> {
        let time = prop_oneof![Just(0.0), 0.0..1e7, Just(f64::MIN_POSITIVE), Just(f64::MAX),];
        let sequence = prop_oneof![
            0..=MAX_PACKED_SEQUENCE,
            MAX_PACKED_SEQUENCE - 1_000..=MAX_PACKED_SEQUENCE,
            0u64..1_000,
        ];
        let connection_id = prop_oneof![any::<u64>(), u64::MAX - 1_000..=u64::MAX, Just(0u64)];
        let cell = || prop_oneof![any::<u32>(), Just(u32::MAX - 1), Just(u32::MAX), Just(0u32)];
        let user = prop_oneof![
            (0..NO_SLOT, any::<u32>())
                .prop_map(|(index, generation)| Some(slot(index, generation))),
            Just(Some(slot(NO_SLOT - 1, u32::MAX))),
            Just(None),
        ];
        (
            time,
            sequence,
            connection_id,
            (cell(), cell()),
            user,
            any::<bool>(),
        )
            .prop_map(|(time, sequence, connection_id, (a, b), user, handoff)| {
                let kind = match (handoff, user) {
                    (true, Some(user)) => EventKind::Handoff {
                        from: CellIdx(a),
                        to: CellIdx(b),
                        connection_id,
                        user,
                    },
                    _ => EventKind::Departure {
                        cell: CellIdx(a),
                        connection_id,
                        user,
                    },
                };
                Event {
                    time,
                    sequence,
                    kind,
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4_096))]

        /// Packing loses nothing: both variants come back bit for bit,
        /// and two packed events order as the events do.
        #[test]
        fn packed_events_round_trip_bit_for_bit(a in any_event(), b in any_event()) {
            for ev in [a, b] {
                let back = Packed::pack(&ev).unpack();
                prop_assert_eq!(back.time.to_bits(), ev.time.to_bits());
                prop_assert_eq!(back.sequence, ev.sequence);
                prop_assert_eq!(back.kind, ev.kind);
            }
            prop_assume!(a.sequence != b.sequence);
            prop_assert_eq!(
                precedes(&Packed::pack(&a), &Packed::pack(&b)),
                precedes(&a, &b)
            );
        }
    }

    #[test]
    fn packing_keeps_the_edge_values() {
        let handoff = Event {
            time: 7.25,
            sequence: MAX_PACKED_SEQUENCE,
            kind: EventKind::Handoff {
                from: CellIdx(u32::MAX - 1),
                to: CellIdx(u32::MAX),
                connection_id: u64::MAX,
                user: slot(NO_SLOT - 1, u32::MAX),
            },
        };
        let departure = Event {
            time: 0.0,
            sequence: MAX_PACKED_SEQUENCE - 1,
            kind: EventKind::Departure {
                cell: CellIdx(u32::MAX - 1),
                connection_id: u64::MAX,
                user: None,
            },
        };
        for ev in [handoff, departure] {
            assert_eq!(Packed::pack(&ev).unpack(), ev);
        }
    }

    #[test]
    #[should_panic(expected = "past the largest packable sequence")]
    fn an_unpackable_sequence_panics() {
        let _ = Packed::pack(&Event {
            time: 1.0,
            sequence: MAX_PACKED_SEQUENCE + 1,
            kind: departure(1),
        });
    }

    #[test]
    #[should_panic(expected = "reserved for no user")]
    fn a_departure_on_the_no_user_slot_panics() {
        let _ = Packed::pack(&Event {
            time: 1.0,
            sequence: 0,
            kind: EventKind::Departure {
                cell: CellIdx(0),
                connection_id: 1,
                user: Some(slot(NO_SLOT, 1)),
            },
        });
    }
}
