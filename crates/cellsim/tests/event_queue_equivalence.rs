//! [`EventQueue`] against a reference `std::collections::BinaryHeap<Event>`.
//!
//! The queue is a hand-written 4-ary min-heap.  The reference is `std`'s
//! binary max-heap over `Event`'s inverted `Ord`, fed the same clamped
//! times and the same sequence numbers.  `(time, sequence)` is a total
//! order, so both must pop exactly the same events.  Random interleavings
//! of `schedule`, `pop`, `peek` and `clear` drive both, with many exact
//! time ties and the special times that `schedule` clamps, and at least
//! 10k events pending so the 4-ary heap is 7 or more levels deep.  After
//! every step the two must agree on the popped event (time bits, sequence,
//! kind), on `len` and on `peek`.

use cellsim::event::{Event, EventKind, EventQueue};
use cellsim::geometry::CellIdx;
use cellsim::rng::{mix64, SPLITMIX64_GAMMA};
use cellsim::slab::{Slab, SlotId};
use proptest::prelude::*;
use std::collections::BinaryHeap;

/// Pending events the drive keeps at least, once filled.
const MIN_PENDING: usize = 10_000;

/// The reference queue: `std`'s binary heap plus the documented clamp and
/// sequence rules of [`EventQueue::schedule`] and [`EventQueue::clear`].
#[derive(Default)]
struct Reference {
    heap: BinaryHeap<Event>,
    next_sequence: u64,
}

impl Reference {
    fn schedule(&mut self, time: f64, kind: EventKind) {
        let time = if time.is_finite() && time > 0.0 {
            time
        } else {
            0.0
        };
        self.heap.push(Event {
            time,
            sequence: self.next_sequence,
            kind,
        });
        self.next_sequence += 1;
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.next_sequence = 0;
    }
}

/// A SplitMix64 stream: the test's own randomness.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(SPLITMIX64_GAMMA);
        mix64(self.0)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// A firing time: mostly from a coarse grid (so exact ties are
    /// common), sometimes continuous, sometimes a value `schedule` clamps.
    fn time(&mut self) -> f64 {
        match self.below(20) {
            0 => 0.0,
            1 => -0.0,
            2 => -1.0 - self.below(1_000) as f64,
            3 => f64::NAN,
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            6..=13 => self.below(256) as f64 * 0.25,
            _ => (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 64.0,
        }
    }

    fn kind(&mut self, slots: &[SlotId]) -> EventKind {
        let cell = CellIdx(self.below(7) as u32);
        match self.below(2) {
            0 => EventKind::Departure {
                cell,
                connection_id: self.next(),
                user: (self.below(2) == 0).then(|| slots[self.below(4) as usize]),
            },
            _ => EventKind::Handoff {
                from: cell,
                to: CellIdx(self.below(7) as u32),
                connection_id: self.next(),
                user: slots[self.below(4) as usize],
            },
        }
    }
}

/// Everything that identifies a popped or peeked event, with the time as
/// bits so `-0.0`/`+0.0` and NaN payloads cannot compare equal by accident.
fn key(ev: &Event) -> (u64, u64, EventKind) {
    (ev.time.to_bits(), ev.sequence, ev.kind)
}

fn assert_agree(queue: &EventQueue, reference: &Reference, step: usize) {
    assert_eq!(queue.len(), reference.heap.len(), "len after step {step}");
    assert_eq!(queue.is_empty(), reference.heap.is_empty());
    assert_eq!(
        queue.peek().map(key),
        reference.heap.peek().map(key),
        "peek after step {step}"
    );
}

/// Drive both queues through `steps` random operations from `seed` and
/// drain them at the end; returns the largest pending count seen.
fn drive(seed: u64, steps: usize) -> usize {
    let mut rng = Stream(seed);
    let mut slab = Slab::new();
    let slots: Vec<SlotId> = (0..4).map(|_| slab.insert(())).collect();
    let mut queue = EventQueue::new();
    let mut reference = Reference::default();
    let mut filled = false;
    let mut peak = 0;
    for step in 0..steps {
        let pending = queue.len();
        filled |= pending >= MIN_PENDING + MIN_PENDING / 4;
        // Until filled, schedule three times as often as pop; once filled,
        // hold the population around the target with a fair coin.
        let schedule_weight = if !filled || pending < MIN_PENDING {
            75
        } else {
            50
        };
        // Clear now and then: often while the queue is small, rarely once
        // it holds the full population (it must then refill).
        let clear_odds = if pending < 64 { 100 } else { 20_000 };
        if (pending < 64 || filled) && rng.below(clear_odds) == 0 {
            queue.clear();
            reference.clear();
            filled = false;
        } else if rng.below(10) == 0 {
            // Peek alone; the agreement check below does the comparing.
        } else if rng.below(100) < schedule_weight {
            let time = rng.time();
            let kind = rng.kind(&slots);
            queue.schedule(time, kind);
            reference.schedule(time, kind);
        } else {
            assert_eq!(
                queue.pop().as_ref().map(key),
                reference.heap.pop().as_ref().map(key),
                "pop at step {step}"
            );
        }
        assert_agree(&queue, &reference, step);
        peak = peak.max(queue.len());
    }
    while let Some(ev) = queue.pop() {
        assert_eq!(Some(key(&ev)), reference.heap.pop().as_ref().map(key));
    }
    assert!(reference.heap.is_empty());
    peak
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn four_ary_queue_pops_exactly_like_a_binary_heap(seed in any::<u64>()) {
        let peak = drive(seed, 80_000);
        // A 4-ary heap of n events has ceil(log4(3n + 1)) levels: 10k
        // pending events fill 7 levels and start the 8th.
        prop_assert!(peak >= MIN_PENDING, "peak pending {peak}");
    }
}

#[test]
fn tie_heavy_small_queues_agree() {
    // Short drives never reach the steady state, so they exercise the
    // shallow heaps and the empty queue.
    for seed in 0..200 {
        drive(seed, 300);
    }
}
