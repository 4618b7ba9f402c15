//! The dense-state engine's steady-state guarantee: once a [`Simulator`]
//! has warmed up (batch request buffer, event heap, station storage, user slab
//! and scratch vectors all sized by a first run), further runs perform no
//! heap allocation beyond the single `String` that labels the returned
//! report — and the event loop itself performs none at all.
//!
//! Asserted with a counting global allocator, mirroring
//! `fuzzy/tests/zero_alloc.rs`.  This file holds exactly one test: the
//! allocation counter is global, so a concurrently running sibling test
//! would pollute the count.

use cellsim::sim::{AlwaysAccept, SimConfig, Simulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A `System` wrapper that counts every allocation and reallocation.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter has no safety impact.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

#[test]
fn warmed_up_runs_allocate_only_the_report_label() {
    // A multi-cell Poisson workload exercises every storage layer: the
    // arrival stream, the run-time event heap, departures, handoffs, the
    // user slab and the expiry scratch.  Utilisation sampling stays off —
    // its sample series is owned by the report, so a sampled run hands its
    // buffer away by design.
    let mut cfg = SimConfig::paper_default()
        .with_seed(0xA110C)
        .with_grid_radius(1)
        .with_cell_radius(300.0);
    cfg.traffic.mean_interarrival_s = 2.0;
    cfg.traffic.mean_holding_s = 240.0;
    cfg.traffic.min_speed_kmh = 40.0;

    let mut sim = Simulator::new(cfg.clone());
    let mut controller = AlwaysAccept;

    // Warm-up: the first run grows every buffer to the working-set size.
    let warm = sim.run_poisson(&mut controller, 1_000);
    assert!(warm.accepted > 0);

    // Steady state: identical workload (same seed via reset), so every
    // buffer is already large enough.  The only permitted allocation is
    // the report's `controller: String` label, built once per run.
    sim.reset(cfg.clone());
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let report = sim.run_poisson(&mut controller, 1_000);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(report, warm, "reset must replay the warm-up run exactly");
    assert!(
        after - before <= 1,
        "steady-state run_poisson allocated {} times (expected ≤ 1: the report label)",
        after - before
    );

    // The batch driver has the same property.
    let batch_cfg = SimConfig::paper_default().with_seed(0xBA7C);
    sim.reset(batch_cfg.clone());
    let warm_batch = sim.run_batch(&mut controller, 500);
    sim.reset(batch_cfg);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let batch = sim.run_batch(&mut controller, 500);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(batch, warm_batch);
    assert!(
        after - before <= 1,
        "steady-state run_batch allocated {} times (expected ≤ 1: the report label)",
        after - before
    );
}
