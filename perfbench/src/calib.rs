//! Host speed, measured with a fixed task of the benchmark's own.
//!
//! The reference host's CPU speed drifts by about ±30 % over seconds to
//! minutes, with no steal time visible to the guest (process CPU time
//! drifts with wall time).  Every timed phase of an untraced run is
//! bracketed by runs of a fixed task that shares no code with the program,
//! and its measurement is scaled by how long that task took against
//! [`REFERENCE_S`], so a drift of the host cancels while a change of the
//! program does not.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Entries of the task's lookup table: 4 MiB, beyond the per-core caches.
const TABLE_LEN: usize = 1 << 19;
/// Steps of one task run (about 80 ms on the reference host).
const STEPS: u64 = 1_400_000;
/// Time of one task run on the reference host (s).
const REFERENCE_S: f64 = 0.08;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn table() -> &'static [u64] {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..TABLE_LEN).map(|_| xorshift(&mut x)).collect()
    })
}

/// The fixed task: integer hashing, table reads that depend on the float
/// result of the step before, and float arithmetic with a branch — the mix
/// of the program's hot paths (memory-bound metro, compute-bound fuzzy
/// inference).  Measured on the reference host, scaling by this one task
/// narrowed the run-to-run spread of the sweep, metro and set-up figures
/// more than separate compute-only and memory-only tasks did.
fn task(steps: u64, table: &[u64]) -> f64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut acc = 0.0f64;
    for _ in 0..steps {
        let v = table[(xorshift(&mut x) ^ acc.to_bits()) as usize & (TABLE_LEN - 1)];
        let f = (v >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        acc = (acc * 0.999 + f).clamp(-1e9, 1e9);
        if f > 0.5 {
            acc -= f.sqrt();
        }
    }
    acc
}

/// How much slower than the reference host the host runs now: one task
/// run's time over [`REFERENCE_S`].
#[must_use]
pub fn slowdown() -> f64 {
    let table = table();
    let t = Instant::now();
    black_box(task(black_box(STEPS), table));
    t.elapsed().as_secs_f64() / REFERENCE_S
}
