//! [`EventQueue`] against a reference `std::collections::BinaryHeap<Event>`.
//!
//! The queue is a calendar: a small near heap over the earliest bucket, a
//! ring of time buckets ahead of it and an overflow heap past the ring.
//! The reference is `std`'s binary max-heap over `Event`'s inverted
//! `Ord`, fed the same clamped times and the same sequence numbers.
//! `(time, sequence)` is a total order, so both must pop exactly the same
//! events.  After every step the two must agree on the popped event (time
//! bits, sequence, kind), on `len` and on `peek`.
//!
//! Two drives interleave `schedule`, `pop`, `peek` and `clear` at random:
//!
//! - a tie-heavy drive over times in [0, 64] s, with the special times
//!   `schedule` clamps and at least 10k events pending, which keeps most
//!   events in a few buckets and the near heap deep;
//! - a metro-shaped drive that schedules the last popped time plus an
//!   exponential with a 1200 s mean, as a metro call's hold, so events
//!   spread over the whole ring and past its span into the overflow heap.
//!   It also schedules ties at exact bucket boundaries (multiples of any
//!   power-of-two width from 1/4 s to 64 s), times earlier than the
//!   earliest pending event, times before the last pop, and clears while
//!   events far past the ring are pending, and it drains the queue and
//!   restarts it far ahead.

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

/// A metro-shaped time: after `last_pop`, mostly by a hold drawn as an
/// exponential with a 1200 s mean.
fn hold(rng: &mut Stream, last_pop: f64) -> f64 {
    let u = ((rng.next() >> 11) + 1) as f64 / (1u64 << 53) as f64;
    last_pop - 1200.0 * u.ln()
}

/// What the metro-shaped drive exercised, so a test can require it.
#[derive(Debug, Default)]
struct MetroCoverage {
    peak: usize,
    /// Schedules more than the ring's 4096 s span after the last pop.
    past_ring: usize,
    /// Schedules on an exact multiple of 64 s, or the next time below it.
    boundary_ties: usize,
    /// Schedules after the last pop but before the earliest pending event.
    before_earliest: usize,
    /// Schedules before the last pop.
    before_last_pop: usize,
    /// Clears while an event past the ring's span was pending.
    clears_with_far_events: usize,
    /// Drains to empty followed by a schedule far ahead.
    far_restarts: usize,
}

/// Drive both queues through `steps` metro-shaped operations from `seed`
/// and drain them at the end.
fn metro_drive(seed: u64, steps: usize) -> MetroCoverage {
    const TARGET: usize = 4_000;
    let mut rng = Stream(seed);
    let mut slab = Slab::new();
    let slots: Vec<SlotId> = (0..4).map(|_| slab.insert(())).collect();
    let mut queue = EventQueue::new();
    let mut reference = Reference::default();
    let mut cover = MetroCoverage::default();
    let mut last_pop = 0.0f64;
    // The latest time scheduled since the last clear.
    let mut latest = 0.0f64;
    for step in 0..steps {
        let pending = queue.len();
        // Every 20k steps, a drain and a far restart halfway through and
        // a clear at the end, each after the population has refilled.
        if step % 20_000 == 19_999 {
            if latest - last_pop > 4_096.0 {
                cover.clears_with_far_events += 1;
            }
            queue.clear();
            reference.clear();
            latest = 0.0;
        } else if step % 20_000 == 9_999 {
            // Drain to empty, then restart far ahead of the last pop.
            while let Some(ev) = queue.pop() {
                assert_eq!(Some(key(&ev)), reference.heap.pop().as_ref().map(key));
                last_pop = ev.time;
            }
            let time = last_pop + 1.0e6 + rng.below(1 << 20) as f64;
            let kind = rng.kind(&slots);
            queue.schedule(time, kind);
            reference.schedule(time, kind);
            latest = time;
            cover.far_restarts += 1;
        } else if rng.below(100) < if pending < TARGET { 70 } else { 50 } {
            let time = match rng.below(20) {
                // A tie on a bucket boundary, or the last time below one.
                0 | 1 => {
                    let edge = (hold(&mut rng, last_pop) / 64.0).ceil() * 64.0;
                    cover.boundary_ties += 1;
                    if rng.below(2) == 0 {
                        edge
                    } else {
                        f64::from_bits(edge.to_bits() - 1)
                    }
                }
                // Between the last pop and the earliest pending event.
                2 => match queue.peek() {
                    Some(first) => {
                        cover.before_earliest += 1;
                        let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
                        last_pop + (first.time - last_pop) * u
                    }
                    None => last_pop,
                },
                // Before the last pop, up to a few ring spans back.
                3 => {
                    cover.before_last_pop += 1;
                    last_pop - 1.0 - rng.below(16_384) as f64
                }
                // Far past the ring.
                4 => last_pop + 4_096.0 + rng.below(65_536) as f64,
                _ => hold(&mut rng, last_pop),
            };
            if time - last_pop > 4_096.0 {
                cover.past_ring += 1;
            }
            latest = latest.max(time);
            let kind = rng.kind(&slots);
            queue.schedule(time, kind);
            reference.schedule(time, kind);
        } else {
            let popped = queue.pop();
            assert_eq!(
                popped.as_ref().map(key),
                reference.heap.pop().as_ref().map(key),
                "pop at step {step}"
            );
            if let Some(ev) = popped {
                last_pop = ev.time;
            }
        }
        assert_agree(&queue, &reference, step);
        cover.peak = cover.peak.max(queue.len());
    }
    while let Some(ev) = queue.pop() {
        assert_eq!(Some(key(&ev)), reference.heap.pop().as_ref().map(key));
    }
    assert!(reference.heap.is_empty());
    cover
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn calendar_queue_pops_exactly_like_a_binary_heap(seed in any::<u64>()) {
        let peak = drive(seed, 80_000);
        prop_assert!(peak >= MIN_PENDING, "peak pending {peak}");
    }

    #[test]
    fn metro_shaped_drive_pops_exactly_like_a_binary_heap(seed in any::<u64>()) {
        let cover = metro_drive(seed, 80_000);
        prop_assert!(cover.peak >= 3_000, "{cover:?}");
        prop_assert!(cover.past_ring > 1_000, "{cover:?}");
        prop_assert!(cover.boundary_ties > 1_000, "{cover:?}");
        prop_assert!(cover.before_earliest > 500, "{cover:?}");
        prop_assert!(cover.before_last_pop > 500, "{cover:?}");
        prop_assert!(cover.clears_with_far_events >= 3, "{cover:?}");
        prop_assert!(cover.far_restarts == 4, "{cover:?}");
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
