//! Fresh metro engines run one after another in one process peak at one
//! run's footprint: the later runs may raise the process's high-water
//! mark (`VmHWM` in `/proc/self/status`) by at most 1 MiB over the first.
//!
//! A per-shard store that grows by reallocation copies itself into a new
//! block while the old one is still held.  Once glibc has raised its
//! mmap threshold (it does when the first run frees its large mapped
//! blocks), those blocks come from the heap, and every later run peaks
//! higher than the first.  Stores that grow in fixed chunks never copy.
//!
//! The reading is glibc's and Linux's, so the test only exists on
//! linux-gnu.  This file holds exactly one test: the high-water mark is
//! per process, so a concurrently running sibling test would move it.
#![cfg(all(target_os = "linux", target_env = "gnu"))]

use cellsim::shard::{ShardConfig, ShardedSimulator};

/// The process's peak resident set so far, in KiB.
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported in kB")
}

#[test]
fn later_metro_runs_peak_no_higher_than_the_first() {
    // The quick-size metro run of the `perf` harness: the lowest load
    // point (200k requests, about 180k concurrent calls at its peak) on
    // 16 shards and 1 thread.
    let spec = sweep::builtin("metro").expect("metro is built in");
    let controller = spec.controllers[1];
    let config = spec.sim_config(&controller, 0, 0);
    let requests = spec.load_points[0];
    let mut peaks_kib = Vec::new();
    for _ in 0..3 {
        let mut sim = ShardedSimulator::new(config.clone(), ShardConfig::new(16).with_threads(1));
        let mut factory = || controller.build();
        let report = sim.run_poisson(&mut factory, requests);
        assert!(report.peak_concurrent_users > 100_000, "{report:?}");
        drop(sim);
        peaks_kib.push(vm_hwm_kib());
    }
    let growth_kib = peaks_kib[2] - peaks_kib[0];
    assert!(
        growth_kib <= 1024,
        "VmHWM after each run {peaks_kib:?} KiB: the later runs raised the peak by {growth_kib} KiB"
    );
}
