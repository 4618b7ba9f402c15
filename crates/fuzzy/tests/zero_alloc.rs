//! The headline guarantee of the compile/execute split: once a
//! [`CompiledEngine`] and its [`Scratch`] exist, `infer_into` performs
//! **zero heap allocations** — asserted with a counting global allocator.
//!
//! This file holds exactly one test: the allocation counter is global, so
//! a concurrently running sibling test would pollute the count.

use fuzzy::prelude::*;
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

/// An engine with the structural features of the paper's controllers:
/// multiple inputs, several terms each, a 3-antecedent rule grid, and a
/// single output defuzzified by centroid.
fn paper_shaped_engine() -> MamdaniEngine {
    let speed = LinguisticVariable::builder("speed", 0.0, 120.0)
        .triangle("slow", 0.0, 0.0, 60.0)
        .triangle("mid", 30.0, 60.0, 120.0)
        .trapezoid("fast", 60.0, 120.0, 120.0, 120.0)
        .build()
        .unwrap();
    let angle = LinguisticVariable::builder("angle", -180.0, 180.0)
        .trapezoid("back", -180.0, -180.0, -135.0, -90.0)
        .triangle("side", -135.0, -45.0, 45.0)
        .triangle("straight", -45.0, 0.0, 45.0)
        .trapezoid("away", 90.0, 135.0, 180.0, 180.0)
        .build()
        .unwrap();
    let request = LinguisticVariable::builder("request", 0.0, 10.0)
        .triangle("small", 0.0, 0.0, 5.0)
        .triangle("medium", 0.0, 5.0, 10.0)
        .triangle("big", 5.0, 10.0, 10.0)
        .build()
        .unwrap();
    let score = LinguisticVariable::builder("score", 0.0, 1.0)
        .triangle("low", 0.0, 0.0, 0.5)
        .triangle("mid", 0.25, 0.5, 0.75)
        .triangle("high", 0.5, 1.0, 1.0)
        .build()
        .unwrap();
    let mut engine = MamdaniEngine::builder()
        .input(speed)
        .input(angle)
        .input(request)
        .output(score)
        .build()
        .unwrap();
    for sp in ["slow", "mid", "fast"] {
        for an in ["back", "side", "straight", "away"] {
            for rq in ["small", "medium", "big"] {
                let out = match (sp, an) {
                    (_, "straight") => "high",
                    ("fast", _) => "mid",
                    (_, "away") | (_, "back") => "low",
                    _ => "mid",
                };
                engine
                    .add_rule(Rule::row(
                        &[("speed", sp), ("angle", an), ("request", rq)],
                        "score",
                        out,
                    ))
                    .unwrap();
            }
        }
    }
    engine
}

#[test]
fn infer_into_is_allocation_free_in_steady_state() {
    let engine = paper_shaped_engine();
    let compiled = engine.compile().unwrap();
    let mut scratch = compiled.scratch();

    // Warm up: first calls may touch lazily initialised runtime state.
    let mut acc = 0.0;
    for i in 0..10 {
        let x = f64::from(i);
        acc += compiled.infer_into(&[x * 12.0, x * 36.0 - 180.0, x], &mut scratch)[0];
    }

    // Steady state: thousands of inferences across the whole input space
    // must not allocate a single time.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..40 {
        for j in 0..40 {
            let speed = f64::from(i) * 3.0;
            let angle = f64::from(j) * 9.0 - 180.0;
            let request = f64::from((i + j) % 11);
            acc += compiled.infer_into(&[speed, angle, request], &mut scratch)[0];
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "CompiledEngine::infer_into allocated in steady state"
    );
    // The accumulator keeps the loops observable.
    assert!(acc.is_finite());

    // Contrast: the interpreted path allocates every call (this is exactly
    // what the compile/execute split removes from the hot path).
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let _ = engine.infer(&[60.0, 10.0, 5.0]).unwrap();
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(
        after - before > 0,
        "the interpreted reference path is expected to allocate"
    );
}
