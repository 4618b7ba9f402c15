//! The metro-sized stores grow without copying: an [`EventQueue`] and a
//! [`Slab`] driven to one metro shard's peak (about 62k pending events
//! and 33k live users) never ask the allocator for more than one chunk
//! at a time, and a stored value never moves while its store grows.
//!
//! A `Vec` that grows to megabytes reallocates, copying every element
//! into a new block while the old one is still held; in a long process
//! the allocator serves those blocks from its heap, and every fresh
//! engine's run peaks higher.  Asserted with a counting global allocator,
//! as `zero_alloc.rs` does.  This file holds exactly one test: the
//! allocator's record is global, so a concurrently running sibling test
//! would pollute it.

use cellsim::event::{EventKind, EventQueue};
use cellsim::geometry::{CellIdx, Point};
use cellsim::mobility::UserState;
use cellsim::rng::SimRng;
use cellsim::slab::{Slab, SlotId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A `System` wrapper that records the largest block asked for, by
/// allocation or reallocation, while `RECORDING` is set.
struct RecordingAllocator;

static RECORDING: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn record(size: usize) {
    if RECORDING.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: delegates verbatim to `System`; the record has no safety impact.
unsafe impl GlobalAlloc for RecordingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static RECORDER: RecordingAllocator = RecordingAllocator;

/// One chunk of the largest stored entries: 1,024 entries of 40 bytes
/// (a packed event or a user's slab entry).
const CHUNK_BYTES: usize = 1024 * 40;
/// A metro shard's peak: pending events and live users.
const PENDING: u32 = 62_500;
const USERS: usize = 33_000;

#[test]
fn metro_sized_stores_grow_in_chunks_without_moving() {
    let mut rng = SimRng::new(0x5709E);
    let user = |i: usize| UserState::new(Point::new(i as f64, 0.0), 50.0, 0.0);
    // The test's own bookkeeping is allocated before recording starts.
    let mut live: Vec<SlotId> = Vec::with_capacity(USERS);
    let mut users = Slab::new();
    let mut queue = EventQueue::new();
    RECORDING.store(true, Ordering::SeqCst);

    let first = users.insert_tagged(user(0), 0);
    let first_address: *const UserState = users.get(first).expect("live");
    live.push(first);
    for i in 1..USERS {
        live.push(users.insert_tagged(user(i), i as u32));
    }
    // Churn a third of the users, so the free list is exercised too.
    for i in (1..USERS).step_by(3) {
        assert!(users.remove(live[i]).is_some());
        live[i] = users.insert_tagged(user(i), i as u32);
    }

    // A metro shard's queue: departures and, one in four, handoffs, on
    // 1200 s mean holds, so that most events land in the ring and some
    // past it in the overflow heap; then a hold model that pops each
    // event and schedules it again a hold later.
    for call in 0..PENDING {
        let user = live[call as usize % USERS];
        let cell = CellIdx(call % 128);
        let kind = if call % 4 == 0 {
            EventKind::Handoff {
                from: cell,
                to: CellIdx((call + 1) % 128),
                connection_id: u64::from(call),
                user,
            }
        } else {
            EventKind::Departure {
                cell,
                connection_id: u64::from(call),
                user: Some(user),
            }
        };
        queue.schedule(rng.exponential(1_200.0), kind);
    }
    for _ in 0..PENDING {
        let ev = queue.pop().expect("the hold model never drains");
        queue.schedule(ev.time + rng.exponential(1_200.0), ev.kind);
    }

    RECORDING.store(false, Ordering::SeqCst);
    let largest = LARGEST.load(Ordering::SeqCst);
    assert_eq!((queue.len(), users.len()), (PENDING as usize, USERS));
    assert!(
        std::ptr::eq(first_address, users.get(first).expect("still live")),
        "the first user's entry moved while the slab grew"
    );
    assert!(
        largest <= CHUNK_BYTES,
        "a store asked for a {largest}-byte block; growing by chunks never asks for more than {CHUNK_BYTES}"
    );
}
