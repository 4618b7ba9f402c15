//! The tracked performance baseline: timed runs of every decision path.
//!
//! [`run`] measures the admission hot path at each layer of the
//! compile/execute split — the string-keyed interpreted engine, the
//! compiled allocation-free engine, the LUT backend, the end-to-end
//! `decide` of every controller and the cost of building
//! one (what a sweep pays per cell), the event heap, the metro station by
//! id and by position, and the engines end to end — and [`PerfReport`]
//! serialises the result as the `BENCH_perf.json` artifact the `perf` bin
//! writes.  CI runs the quick mode and fails when the artifact is empty or
//! malformed, so the perf trajectory of the hot path is tracked across
//! PRs.

use admitd::{BenchConfig, Server, ServerConfig, World, WorldConfig};
use cellsim::event::{EventKind, EventQueue};
use cellsim::geometry::{CellId, CellIdx, Point};
use cellsim::mobility::UserState;
use cellsim::shard::{ShardConfig, ShardedSimulator};
use cellsim::sim::{AdmissionController, AdmissionRequest, AlwaysAccept, SimConfig, Simulator};
use cellsim::station::BaseStation;
use cellsim::telemetry::{
    LabelPair, NoopRecorder, Recorder, Registry, SpanSnapshot, TelemetrySnapshot,
};
use cellsim::traffic::{MmppConfig, ServiceClass, TrafficModel};
use cellsim::SimRng;
use facs::{FacsController, FacsPController, Flc1, Flc2};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use sweep::{builtin, host_parallelism, ControllerSpec, SweepRunner};

/// One timed case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfCase {
    /// Case name (stable across runs; the JSON key consumers track).
    pub name: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Timed iterations.
    pub iters: u64,
}

/// Sweep throughput at one worker count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepThroughput {
    /// Worker threads the sweep ran with.
    pub threads: usize,
    /// Finished `(controller, load, replication)` cells per second.
    pub cells_per_sec: f64,
}

/// Metro-scale sharded-engine throughput at one thread count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardThroughput {
    /// Spatial shards the grid was partitioned into.
    pub shards: usize,
    /// Worker threads driving the shards.
    pub threads: usize,
    /// Total events per second through the sharded engine (per-shard
    /// three-stream events plus barrier-merge replays).
    pub events_per_sec: f64,
    /// Peak simultaneously-active connections across the whole metro —
    /// identical at every thread count by the determinism contract.
    pub peak_concurrent_users: u64,
}

/// The serialisable perf baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Whether the quick (CI) iteration budget was used.
    pub quick: bool,
    /// `std::thread::available_parallelism` of the measuring host.
    /// Thread-scaling gates are only meaningful relative to this: a
    /// 1-core container cannot show parallel speedup no matter how good
    /// the engine is, so [`PerfReport::scaling_regressions`] conditions
    /// its ≥1.6x demand on the host actually having ≥4 cores.
    pub host_parallelism: usize,
    /// All timed cases.
    pub cases: Vec<PerfCase>,
    /// Headline number: interpreted vs compiled speedup of the full
    /// FACS-P decision cascade (FLC1 + FLC2), `interpreted_ns /
    /// compiled_ns`.
    pub facs_decision_speedup: f64,
    /// Interpreted vs LUT speedup of the same cascade.
    pub facs_decision_speedup_lut: f64,
    /// Whole-simulation throughput: events per second through
    /// `run_poisson` on the paper-default configuration under the
    /// admit-if-it-fits controller — the engine-core headline (the
    /// decision-dominated variants are separate `sim/` cases).
    pub sim_events_per_sec: f64,
    /// End-to-end sweep throughput of the paper-default scenario at
    /// 1/2/4 worker threads.
    pub sweep_cells_per_sec: Vec<SweepThroughput>,
    /// Metro-scale sharded-engine throughput at 1/2/4 worker threads
    /// (2107 cells; ≥1M peak concurrent users in the full run).
    pub metro: Vec<ShardThroughput>,
    /// Decision throughput of the `admitd` server over loopback TCP:
    /// scenario replay through the pipelined binary protocol, best
    /// observed requests per second across the `server/` cases.  Defaults
    /// to 0 when loading a baseline recorded before the server existed.
    #[serde(default)]
    pub server_requests_per_sec: f64,
}

impl PerfReport {
    /// The timed case named `name`, if present.
    #[must_use]
    pub fn case(&self, name: &str) -> Option<&PerfCase> {
        self.cases.iter().find(|c| c.name == name)
    }

    /// Pretty JSON document of the report.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }

    /// Thread-scaling violations of this report, as human-readable
    /// descriptions; empty when the scaling story is healthy.
    ///
    /// Two tiers, both keyed on the *measuring host's* core count:
    ///
    /// * always: adding threads must never cost throughput — the
    ///   4-thread sweep and metro numbers must stay within 10 % of the
    ///   1-thread ones (the slack absorbs timer noise on 1-core hosts,
    ///   where 4 capped workers degenerate to the sequential path);
    /// * on hosts with ≥4 cores: the metro sharded engine must scale at
    ///   least [`Self::REQUIRED_METRO_SCALING`]x from 1 to 4 threads.
    #[must_use]
    pub fn scaling_regressions(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let pair = |entries: &[(usize, f64)]| -> Option<(f64, f64)> {
            let one = entries.iter().find(|(t, _)| *t == 1)?.1;
            let four = entries.iter().find(|(t, _)| *t == 4)?.1;
            Some((one, four))
        };

        let sweep: Vec<(usize, f64)> = self
            .sweep_cells_per_sec
            .iter()
            .map(|s| (s.threads, s.cells_per_sec))
            .collect();
        match pair(&sweep) {
            Some((one, four)) => {
                if four < one * Self::NO_SLOWDOWN_FACTOR {
                    problems.push(format!(
                        "sweep throughput regresses with threads: {four:.0} cells/s at 4 \
                         threads vs {one:.0} at 1"
                    ));
                }
            }
            None => problems.push("report lacks 1- and 4-thread sweep entries".to_string()),
        }

        let metro: Vec<(usize, f64)> = self
            .metro
            .iter()
            .map(|m| (m.threads, m.events_per_sec))
            .collect();
        match pair(&metro) {
            Some((one, four)) => {
                if four < one * Self::NO_SLOWDOWN_FACTOR {
                    problems.push(format!(
                        "metro shard throughput regresses with threads: {four:.0} events/s \
                         at 4 threads vs {one:.0} at 1"
                    ));
                }
                if self.host_parallelism >= 4 && four < one * Self::REQUIRED_METRO_SCALING {
                    problems.push(format!(
                        "metro shard scaling below {:.1}x on a {}-core host: {:.2}x \
                         ({four:.0} events/s at 4 threads vs {one:.0} at 1)",
                        Self::REQUIRED_METRO_SCALING,
                        self.host_parallelism,
                        four / one,
                    ));
                }
            }
            None => problems.push("report lacks 1- and 4-thread metro entries".to_string()),
        }

        problems
    }

    /// 4-thread throughput may not drop below this fraction of 1-thread.
    pub const NO_SLOWDOWN_FACTOR: f64 = 0.9;
    /// Required metro 1→4-thread speedup on hosts with ≥4 cores.
    pub const REQUIRED_METRO_SCALING: f64 = 1.6;
    /// Instrumented runs may cost at most this factor over their
    /// uninstrumented twins (≤5 % overhead).
    pub const MAX_TELEMETRY_OVERHEAD: f64 = 1.05;

    /// Telemetry-overhead violations, as human-readable descriptions;
    /// empty when every instrumented case is within
    /// [`Self::MAX_TELEMETRY_OVERHEAD`] of its uninstrumented twin.
    ///
    /// Cases pair by name: a case whose name contains the `, telemetry`
    /// marker is compared against the case named identically without it
    /// (e.g. `sim/... (always-accept, telemetry, 20000 req)` vs
    /// `sim/... (always-accept, 20000 req)`).  Both timings come from the
    /// *same* run of the same binary, so no cross-machine normalisation is
    /// needed — the ratio is the overhead.  A `, telemetry` case with no
    /// twin in the report is itself a violation: the gate must never pass
    /// vacuously because a rename broke the pairing.
    #[must_use]
    pub fn telemetry_overhead_regressions(&self) -> Vec<String> {
        const MARKER: &str = ", telemetry,";
        let mut problems = Vec::new();
        for case in &self.cases {
            if !case.name.contains(MARKER) {
                continue;
            }
            let plain_name = case.name.replace(MARKER, ",");
            let Some(plain) = self.case(&plain_name) else {
                problems.push(format!(
                    "telemetry case `{}` has no uninstrumented twin `{plain_name}`",
                    case.name
                ));
                continue;
            };
            if !(plain.ns_per_iter.is_finite() && plain.ns_per_iter > 0.0) {
                problems.push(format!("case `{plain_name}` has a bogus timing"));
                continue;
            }
            let ratio = case.ns_per_iter / plain.ns_per_iter;
            if ratio > Self::MAX_TELEMETRY_OVERHEAD {
                problems.push(format!(
                    "telemetry overhead {:.1} % on `{plain_name}` exceeds the {:.0} % budget \
                     ({:.1} ns/iter instrumented vs {:.1} plain)",
                    (ratio - 1.0) * 100.0,
                    (Self::MAX_TELEMETRY_OVERHEAD - 1.0) * 100.0,
                    case.ns_per_iter,
                    plain.ns_per_iter,
                ));
            }
        }
        problems
    }

    /// Plain-text table of the report.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<58} {:>14} {:>10}\n",
            "case", "ns/iter", "iters"
        ));
        for c in &self.cases {
            out.push_str(&format!(
                "{:<58} {:>14.1} {:>10}\n",
                c.name, c.ns_per_iter, c.iters
            ));
        }
        out.push_str(&format!(
            "\nFACS-P decision speedup (interpreted -> compiled): {:.1}x\n",
            self.facs_decision_speedup
        ));
        out.push_str(&format!(
            "FACS-P decision speedup (interpreted -> LUT):      {:.1}x\n",
            self.facs_decision_speedup_lut
        ));
        out.push_str(&format!(
            "Simulator throughput (paper-default, always-accept): {:.2}M events/s\n",
            self.sim_events_per_sec / 1e6
        ));
        for s in &self.sweep_cells_per_sec {
            out.push_str(&format!(
                "Sweep throughput (paper-default, {} thread{}):      {:.0} cells/s\n",
                s.threads,
                if s.threads == 1 { "" } else { "s" },
                s.cells_per_sec
            ));
        }
        for m in &self.metro {
            out.push_str(&format!(
                "Metro shard throughput ({} shards, {} thread{}):    {:.2}M events/s, \
                 peak {} concurrent users\n",
                m.shards,
                m.threads,
                if m.threads == 1 { "" } else { "s" },
                m.events_per_sec / 1e6,
                m.peak_concurrent_users
            ));
        }
        if self.server_requests_per_sec > 0.0 {
            out.push_str(&format!(
                "Server replay throughput (admitd, loopback TCP):    {:.0} requests/s\n",
                self.server_requests_per_sec
            ));
        }
        out.push_str(&format!(
            "Measured on a host with {} core(s)\n",
            self.host_parallelism
        ));
        out
    }
}

/// One case that slowed down past the comparison tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Case name.
    pub name: String,
    /// Baseline nanoseconds per iteration.
    pub baseline_ns: f64,
    /// Current nanoseconds per iteration.
    pub current_ns: f64,
    /// `current / baseline`, unnormalised.
    pub raw_ratio: f64,
    /// `current / (baseline * scale)` — how far past the
    /// machine-normalised baseline the case landed.
    pub normalised_ratio: f64,
}

/// Compare a fresh perf run against a committed baseline, normalising
/// away machine speed.
///
/// CI runners and the machines baselines were recorded on differ in
/// absolute speed, so raw `ns_per_iter` ratios alone would flag
/// everything (or nothing).  The per-case ratios `current/baseline` are
/// normalised by their median — the typical machine-speed factor between
/// the two runs — and a case counts as regressed only when it is more
/// than `tolerance` (e.g. `0.3` = 30 %) slower by **both** measures:
///
/// * the normalised ratio, so a uniformly slower machine (every ratio
///   and the median shift together) flags nothing, while a genuine
///   single-case regression (moves its own ratio, barely shifts the
///   median) stands out; and
/// * the raw ratio, so a *non-uniformly faster* current run cannot
///   manufacture regressions — after the `--check` retry loop min-merges
///   attempts, most cases drop well below the baseline while cases
///   already at their floor stay flat, and demanding raw evidence keeps
///   those flat cases (measured at baseline speed!) from being flagged
///   merely for not improving as much as the median did.
///
/// A real regression is slower by both measures on a comparable machine;
/// what the dual condition deliberately forgives is a regression masked
/// by a much faster machine — the machine-invariant speedup-retention
/// and scaling gates in the `perf` bin cover that quadrant.
///
/// Cases present only in one report are skipped: renames and new cases
/// must not fail CI retroactively.  Returns regressions sorted worst
/// first.
#[must_use]
pub fn compare_reports(
    current: &PerfReport,
    baseline: &PerfReport,
    tolerance: f64,
) -> Vec<Regression> {
    let mut ratios: Vec<(usize, f64)> = Vec::new();
    for (i, case) in current.cases.iter().enumerate() {
        if let Some(base) = baseline.case(&case.name) {
            if base.ns_per_iter > 0.0 && case.ns_per_iter.is_finite() {
                ratios.push((i, case.ns_per_iter / base.ns_per_iter));
            }
        }
    }
    if ratios.is_empty() {
        return Vec::new();
    }
    let mut sorted: Vec<f64> = ratios.iter().map(|&(_, r)| r).collect();
    sorted.sort_by(f64::total_cmp);
    let scale = if sorted.len() % 2 == 1 {
        sorted[sorted.len() / 2]
    } else {
        (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
    };

    let mut regressions: Vec<Regression> = ratios
        .into_iter()
        .filter_map(|(i, ratio)| {
            let normalised = ratio / scale;
            (normalised > 1.0 + tolerance && ratio > 1.0 + tolerance).then(|| {
                let case = &current.cases[i];
                Regression {
                    name: case.name.clone(),
                    baseline_ns: baseline
                        .case(&case.name)
                        .expect("matched above")
                        .ns_per_iter,
                    current_ns: case.ns_per_iter,
                    raw_ratio: ratio,
                    normalised_ratio: normalised,
                }
            })
        })
        .collect();
    regressions.sort_by(|a, b| b.normalised_ratio.total_cmp(&a.normalised_ratio));
    regressions
}

/// Merge two runs of the same suite into the best-observed report:
/// per-case minimum `ns_per_iter`, per-thread-count maximum throughput,
/// and headline speedups recomputed from the merged cases.
///
/// This backs the `--check` retry loop in the `perf` bin.  Sustained CPU
/// contention on a shared host can slow one case's entire measurement
/// window in a single run, and no within-run estimator can see through
/// that — but a genuine regression slows the case in *every* run, so the
/// min across independent attempts separates transient noise from real
/// slowdowns.
#[must_use]
pub fn merge_best(a: &PerfReport, b: &PerfReport) -> PerfReport {
    let mut cases = a.cases.clone();
    for case in &b.cases {
        match cases.iter_mut().find(|c| c.name == case.name) {
            Some(existing) => {
                if case.ns_per_iter < existing.ns_per_iter {
                    *existing = case.clone();
                }
            }
            None => cases.push(case.clone()),
        }
    }

    let ratio = |num: &str, den: &str, fallback: f64| -> f64 {
        match (
            cases.iter().find(|c| c.name == num),
            cases.iter().find(|c| c.name == den),
        ) {
            (Some(n), Some(d)) if d.ns_per_iter > 0.0 => n.ns_per_iter / d.ns_per_iter,
            _ => fallback,
        }
    };
    let facs_decision_speedup = ratio(
        "cascade/facs-p interpreted (flc1+flc2)",
        "cascade/facs-p compiled (flc1+flc2)",
        a.facs_decision_speedup.max(b.facs_decision_speedup),
    );
    let facs_decision_speedup_lut = ratio(
        "cascade/facs-p interpreted (flc1+flc2)",
        "cascade/facs-p lut (flc1+lut)",
        a.facs_decision_speedup_lut.max(b.facs_decision_speedup_lut),
    );

    let mut sweep_cells_per_sec = a.sweep_cells_per_sec.clone();
    for entry in &b.sweep_cells_per_sec {
        match sweep_cells_per_sec
            .iter_mut()
            .find(|s| s.threads == entry.threads)
        {
            Some(existing) => {
                existing.cells_per_sec = existing.cells_per_sec.max(entry.cells_per_sec);
            }
            None => sweep_cells_per_sec.push(*entry),
        }
    }
    let mut metro = a.metro.clone();
    for entry in &b.metro {
        match metro
            .iter_mut()
            .find(|m| m.threads == entry.threads && m.shards == entry.shards)
        {
            Some(existing) => {
                existing.events_per_sec = existing.events_per_sec.max(entry.events_per_sec);
            }
            None => metro.push(*entry),
        }
    }

    PerfReport {
        quick: a.quick && b.quick,
        host_parallelism: a.host_parallelism.max(b.host_parallelism),
        cases,
        facs_decision_speedup,
        facs_decision_speedup_lut,
        sim_events_per_sec: a.sim_events_per_sec.max(b.sim_events_per_sec),
        sweep_cells_per_sec,
        metro,
        server_requests_per_sec: a.server_requests_per_sec.max(b.server_requests_per_sec),
    }
}

/// Time `routine` over `iters` iterations (after one warm-up call),
/// split into fixed-size batches and reporting the *fastest* batch.
///
/// The minimum is the standard noise-robust location estimator for
/// microbenchmarks: scheduler preemption, frequency scaling and cache
/// pollution only ever make a batch slower, so the fastest batch is the
/// closest observation of the code's true cost — means on a shared
/// 1-core container were measured swinging 25 %+ between otherwise
/// identical runs, which is useless under a 30 % regression budget.
///
/// The batch size is a constant [`BATCH_ITERS`] rather than a fraction
/// of `iters`: quick and full mode must measure the *same* quantity
/// ("mean of the cleanest short window") for `--check` comparisons to
/// be apples-to-apples.  With `iters`-proportional batches the full
/// baseline's multi-millisecond windows almost always absorbed a
/// preemption slice while quick's sub-millisecond windows often landed
/// clean, skewing the two modes by different per-case amounts.  A full
/// run simply gets more batches, i.e. more chances at a clean window —
/// a small uniform bias the median normalisation in [`compare_reports`]
/// absorbs.
fn time_case(name: &str, iters: u64, mut routine: impl FnMut() -> f64) -> PerfCase {
    const BATCH_ITERS: u64 = 250;
    let mut sink = routine();
    let batch_iters = BATCH_ITERS.min(iters.max(1));
    let mut best_ns = f64::INFINITY;
    let mut timed = 0u64;
    while timed < iters {
        let start = Instant::now();
        for _ in 0..batch_iters {
            sink += std::hint::black_box(routine());
        }
        let batch_ns = start.elapsed().as_nanos() as f64 / batch_iters as f64;
        best_ns = best_ns.min(batch_ns);
        timed += batch_iters;
    }
    std::hint::black_box(sink);
    PerfCase {
        name: name.to_string(),
        ns_per_iter: best_ns,
        iters: timed,
    }
}

/// Time whole `run_poisson` simulations of `config`, reporting
/// nanoseconds *per processed event* of the fastest run (so
/// `1e9 / ns_per_iter` is the engine's events-per-second throughput).
/// One warm-up run sizes every reused buffer; the timed runs then reuse
/// the same simulator via `reset`, exactly like a sweep worker.  The case
/// is named `{case} ({label}, {requests} req)`: quick and full mode time
/// different workloads, and [`compare_reports`] must never compare a
/// 4k-request run against a 20k-request baseline.
fn time_sim_events(
    case: &str,
    label: &str,
    config: &SimConfig,
    controller: &mut dyn AdmissionController,
    quick: bool,
) -> PerfCase {
    // An explicit `NoopRecorder` rather than the default alias, so this
    // case times the uninstrumented engine even if some other crate in
    // the build graph unified the `telemetry` feature on.
    time_sim_events_with::<NoopRecorder>(case, label, config, controller, quick).0
}

/// The generic core of [`time_sim_events`]: times `Simulator<R>` and also
/// returns the simulator's final telemetry snapshot (empty for the no-op
/// recorder).  Used with [`Registry`] to measure the instrumented engine
/// for the telemetry-overhead gate — same workload, same seed, same case
/// naming scheme, with `, telemetry` spliced into the label so
/// [`PerfReport::telemetry_overhead_regressions`] can pair the two.
fn time_sim_events_with<R: Recorder>(
    case: &str,
    label: &str,
    config: &SimConfig,
    controller: &mut dyn AdmissionController,
    quick: bool,
) -> (PerfCase, TelemetrySnapshot) {
    let requests = if quick { 4_000 } else { 20_000 };
    let runs = if quick { 3 } else { 5 };
    let mut sim = Simulator::<R>::with_telemetry(config.clone());
    std::hint::black_box(sim.run_poisson(controller, requests));
    let mut events = 0u64;
    let mut best_ns = f64::INFINITY;
    for _ in 0..runs {
        sim.reset(config.clone());
        let start = Instant::now();
        std::hint::black_box(sim.run_poisson(controller, requests));
        let elapsed = start.elapsed();
        events += sim.events_processed();
        best_ns = best_ns.min(elapsed.as_nanos() as f64 / sim.events_processed() as f64);
    }
    let case = PerfCase {
        name: format!("{case} ({label}, {requests} req)"),
        ns_per_iter: best_ns,
        iters: events,
    };
    (case, sim.telemetry())
}

/// Time full paper-default sweeps at one worker count, reporting
/// nanoseconds *per finished cell* of the fastest run (so
/// `1e9 / ns_per_iter` is cells per second).  Quick mode sweeps the
/// trimmed `spec.quick()` workload, so its cases carry a `, quick`
/// suffix and are never compared against full-mode baselines.
fn time_sweep_cells(threads: usize, quick: bool) -> PerfCase {
    let spec = builtin("paper-default").expect("paper-default is built in");
    let spec = if quick { spec.quick() } else { spec };
    let cells_per_run =
        (spec.controllers.len() * spec.load_points.len() * spec.replications) as u64;
    let runs = 3;
    let runner = SweepRunner::with_threads(threads);
    std::hint::black_box(runner.run(&spec).expect("built-in spec is valid"));
    let mut best_ns = f64::INFINITY;
    for _ in 0..runs {
        let start = Instant::now();
        std::hint::black_box(runner.run(&spec).expect("built-in spec is valid"));
        let run_ns = start.elapsed().as_nanos() as f64 / cells_per_run as f64;
        best_ns = best_ns.min(run_ns);
    }
    PerfCase {
        name: format!(
            "sweep/paper-default cells ({threads} thread{})",
            if quick { ", quick" } else { "" }
        ),
        ns_per_iter: best_ns,
        iters: cells_per_run * runs,
    }
}

/// Time one metro-scale run of the sharded engine at a given worker
/// thread count, reporting nanoseconds *per processed event* and the peak
/// concurrent population.
///
/// The shard count is fixed at 16 for every thread count so the partition
/// (and, by the determinism contract, every counter in the report) is
/// identical across the 1/2/4-thread headline entries — only wall clock
/// may differ.  Quick mode runs the first metro load point (200k
/// requests, ~190k peak users); the full baseline runs the saturating top
/// load point, where the metro holds over a million concurrent users.
fn time_metro_events(threads: usize, quick: bool) -> (PerfCase, ShardThroughput) {
    const SHARDS: usize = 16;
    let spec = builtin("metro").expect("metro is built in");
    // The guard-channel threshold controller: capacity-relative (the
    // paper's absolute-BU controllers are mistuned at 2000 BU) and still
    // exercising a real reject path, unlike always-accept.
    let controller = spec.controllers[1];
    let load_index = if quick { 0 } else { spec.load_points.len() - 1 };
    let requests = spec.load_points[load_index];
    let config = spec.sim_config(&controller, load_index, 0);
    // Two timed runs, keeping the faster: a single multi-second sample is
    // one sustained-contention window away from recording a 20 % dent in
    // the committed headline throughput.
    let runs = 2;
    let mut events = 0u64;
    let mut peak = 0u64;
    let mut best_ns = f64::INFINITY;
    for _ in 0..runs {
        let mut sim = ShardedSimulator::new(
            config.clone(),
            ShardConfig::new(SHARDS).with_threads(threads),
        );
        let mut factory = || controller.build();
        let start = Instant::now();
        std::hint::black_box(sim.run_poisson(&mut factory, requests));
        let elapsed = start.elapsed();
        events = sim.events_processed();
        peak = sim.peak_concurrent_users();
        best_ns = best_ns.min(elapsed.as_nanos() as f64 / events as f64);
    }
    let case = PerfCase {
        name: format!("shard/metro events ({SHARDS} shards, {threads} thread, {requests} req)"),
        ns_per_iter: best_ns,
        iters: events * runs,
    };
    let throughput = ShardThroughput {
        shards: SHARDS,
        threads,
        events_per_sec: 1e9 / best_ns,
        peak_concurrent_users: peak,
    };
    (case, throughput)
}

/// Time scenario replay through a real `admitd` server on loopback TCP
/// at one client-connection count, reporting nanoseconds *per answered
/// request* of the fastest run (so `1e9 / ns_per_iter` is the server's
/// requests-per-second throughput).
///
/// Every run gets a fresh world and server: replaying the same arrival
/// stream against warm state would re-admit already-known connection
/// ids and rewind the per-cell clock, which is not the workload the
/// case claims to measure.  The world's capacity is raised far above
/// the paper's 50 BU so the steady-state population (arrival rate x
/// holding time, well under the limit) never saturates the station —
/// every frame reaches the controller's `decide` instead of dying on the
/// cheap `can_fit` fast-reject.  The per-connection request count is part
/// of the case name: quick and full mode time different workloads, and
/// [`compare_reports`] must never mix them.
fn time_server_requests(connections: usize, quick: bool) -> PerfCase {
    let requests_per_connection = if quick { 5_000 } else { 25_000 };
    let runs = if quick { 2 } else { 3 };
    let spec = ControllerSpec::FacsPLut;
    let mut world_config = WorldConfig::paper_default();
    world_config.station_capacity = 1_000_000;
    let mut best_ns = f64::INFINITY;
    let mut answered = 0u64;
    for _ in 0..runs {
        let world = std::sync::Arc::new(World::new(&world_config, &spec.label(), || spec.build()));
        let server = Server::bind(
            std::sync::Arc::clone(&world),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("bind loopback");
        let addr = server.local_addr().expect("bound address").to_string();
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.run());
        let config = BenchConfig {
            addr,
            connections,
            requests_per_connection,
            sim: SimConfig::paper_default().with_seed(0xBEEF),
            ..BenchConfig::default()
        };
        let report = admitd::client::run(&config).expect("loopback replay");
        shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
        handle
            .join()
            .expect("server thread")
            .expect("clean server shutdown");
        assert_eq!(report.errors, 0, "loopback replay must not error");
        answered += report.requests;
        best_ns = best_ns.min(1e9 / report.requests_per_sec);
    }
    PerfCase {
        name: format!(
            "server/replay pipelined (facs-p-lut, {connections} conn, \
             {requests_per_connection} req/conn)"
        ),
        ns_per_iter: best_ns,
        iters: answered,
    }
}

/// One sweep-like FLC input set of the mixed-input fuzzy cases.
struct MixedRequest {
    /// FLC1's `(speed km/h, angle deg, bandwidth BU)`.
    flc1: [f64; 3],
    /// FLC2's counter state `Cs` in BU.
    counter_state: f64,
}

/// 4096 fixed, seeded requests drawn the way the paper sweep's traffic
/// is: speed U[0, 120] km/h, angle U[-180, 180] degrees, a class
/// bandwidth of 1, 5 or 10 BU, and a counter state U[0, 40] BU.
fn mixed_requests() -> Vec<MixedRequest> {
    let mut rng = SimRng::new(0xF1C1);
    (0..4_096)
        .map(|_| {
            let speed = rng.uniform(0.0, 120.0);
            let angle = rng.uniform(-180.0, 180.0);
            let bandwidth = [1.0, 5.0, 10.0][(rng.uniform(0.0, 3.0) as usize).min(2)];
            MixedRequest {
                flc1: [speed, angle, bandwidth],
                counter_state: rng.uniform(0.0, 40.0),
            }
        })
        .collect()
}

fn probe_request(class: ServiceClass, speed: f64, angle: f64) -> AdmissionRequest {
    AdmissionRequest {
        id: 1,
        cell: CellId::origin(),
        time: 0.0,
        class,
        bandwidth: class.paper_bandwidth(),
        holding_time: 180.0,
        speed_kmh: speed,
        angle_deg: angle,
        distance_m: Some(420.0),
        is_handoff: false,
    }
}

/// Run the whole suite.  `quick` trims the iteration budget for CI smoke
/// runs.  Where quick mode times a genuinely different workload (sim
/// request count, sweep spec, metro load point) the workload is part of
/// the case name, so [`compare_reports`] between a quick run and a full
/// baseline silently skips those cases instead of mis-comparing them —
/// only the pure microbenchmarks (identical per-iteration work in both
/// modes) share names across modes.
#[must_use]
pub fn run(quick: bool) -> PerfReport {
    run_with_telemetry(quick).0
}

/// [`run`], also returning a telemetry snapshot of the suite itself: the
/// instrumented simulator's full registry (counters, histograms, gauges,
/// spans from the `, telemetry` sim case) plus one `bench_case_ns` span
/// per timed case carrying the min-of-batches result.  Exported by
/// `perf --telemetry PATH` in Prometheus or JSON form.
#[must_use]
pub fn run_with_telemetry(quick: bool) -> (PerfReport, TelemetrySnapshot) {
    // The microbenchmarks keep the full iteration budget even in quick
    // mode: they cost ~2 s total, and an identical budget means quick and
    // full runs measure matched cases identically (same batch count, same
    // min-of-batches sampling depth) — essential for the `--check`
    // comparison, where a shallower quick estimate would read as a
    // regression.  Quick mode trims only the expensive end-to-end
    // workloads (sim request count, sweep spec, metro load point), whose
    // cases carry the workload in their names and are never compared
    // cross-mode.
    let iters: u64 = 50_000;
    let mut cases = Vec::new();

    // --- controller construction: what a sweep pays per cell --------------
    // Timed first, before any other case builds an engine or tabulates a
    // LUT: a construction case allocates on every iteration, so it would
    // otherwise read whatever heap state the earlier cases leave behind.
    cases.push(time_case("controller/facs-p build", iters, || {
        FacsPController::paper_default().config().capacity_bu
    }));
    cases.push(time_case("controller/facs build", iters, || {
        FacsController::paper_default().config().capacity_bu
    }));
    cases.push(time_case("controller/scc build", iters, || {
        f64::from(scc::SccAdmission::default().config().cell_capacity)
    }));

    // --- fuzzy layer: one FLC1 inference, each execution model ----------
    let flc1 = Flc1::paper_default().expect("paper parameters are valid");
    let engine = flc1.engine().clone();
    let inputs = [63.0, 27.0, 5.0];
    cases.push(time_case("fuzzy/flc1 interpreted infer", iters, || {
        engine
            .infer(std::hint::black_box(&inputs))
            .unwrap()
            .crisp_or("Cv", 0.5)
    }));
    let compiled = flc1.compiled().clone();
    let mut scratch = compiled.scratch();
    cases.push(time_case(
        "fuzzy/flc1 compiled infer_into",
        iters * 10,
        || compiled.infer_into(std::hint::black_box(&inputs), &mut scratch)[0],
    ));
    // The fixed input above lets the branch predictor learn which rules
    // fire; the sweep's calls vary, so cycle through sweep-like requests.
    let mixed = mixed_requests();
    let mut next = 0usize;
    cases.push(time_case(
        "fuzzy/flc1 compiled infer_into (mixed inputs)",
        iters * 10,
        || {
            let r = &mixed[next % mixed.len()];
            next += 1;
            compiled.infer_into(std::hint::black_box(&r.flc1), &mut scratch)[0]
        },
    ));

    // --- LUT layer: one FLC2 decision from the tabulated lines ----------
    let flc2 = Flc2::paper_default().expect("paper parameters are valid");
    cases.push(time_case(
        "fuzzy/flc2 compiled decision",
        iters * 10,
        || {
            flc2.decision_value(
                std::hint::black_box(0.7),
                std::hint::black_box(5.0),
                std::hint::black_box(23.0),
            )
        },
    ));
    let mixed_flc2: Vec<[f64; 3]> = mixed
        .iter()
        .map(|r| {
            let [speed, angle, bandwidth] = r.flc1;
            [
                flc1.correction_value(speed, angle, bandwidth),
                bandwidth,
                r.counter_state,
            ]
        })
        .collect();
    let mut next = 0usize;
    cases.push(time_case(
        "fuzzy/flc2 compiled decision (mixed inputs)",
        iters * 10,
        || {
            let [cv, rq, cs] = std::hint::black_box(mixed_flc2[next % mixed_flc2.len()]);
            next += 1;
            flc2.decision_value(cv, rq, cs)
        },
    ));
    // The tabulation behind `Flc2Lut::paper_shared`, which every process
    // that serves `facs-p-lut` (an admitd start, a sweep) pays once: one
    // line per request class and reachable counter state, 1,371 lines of
    // 513 engine points.
    cases.push(time_case(
        "lut/flc2 tabulate lines (paper default)",
        3,
        || {
            flc2.compile_lut()
                .expect("paper parameters tabulate")
                .sample_bytes() as f64
        },
    ));
    let lut = flc2.compile_lut().expect("paper parameters tabulate");
    cases.push(time_case("lut/flc2 decision", iters * 10, || {
        lut.decision_value(
            std::hint::black_box(0.7),
            std::hint::black_box(5.0),
            std::hint::black_box(23.0),
        )
    }));
    // A tabulated score this close to the threshold is recomputed by the
    // compiled engine: the fallback path of the LUT.
    let (band_cv, band_rq, band_cs) = lut
        .lines()
        .find_map(|(rq, cs, line)| {
            let k = line
                .iter()
                .position(|v| f64::from(*v).abs() < facs::LUT_DECISION_BAND / 2.0)?;
            Some((k as f64 / (facs::LUT_LINE_POINTS - 1) as f64, rq, cs))
        })
        .expect("some FLC2 line crosses the threshold");
    cases.push(time_case(
        "lut/flc2 decision (inside band)",
        iters * 10,
        || {
            lut.decision_value(
                std::hint::black_box(band_cv),
                std::hint::black_box(band_rq),
                std::hint::black_box(band_cs),
            )
        },
    ));

    // --- controller layer: end-to-end decide per controller -------------
    let mut station = BaseStation::paper_default();
    station
        .admit(100, ServiceClass::Video, 10, 0.0, 600.0, false)
        .expect("station empty");
    station
        .admit(101, ServiceClass::Voice, 5, 0.0, 600.0, false)
        .expect("station has room");
    let req = probe_request(ServiceClass::Voice, 72.0, 15.0);

    let mut facsp = FacsPController::paper_default();
    cases.push(time_case("controller/facs-p decide", iters, || {
        facsp
            .decide(std::hint::black_box(&req), std::hint::black_box(&station))
            .score
    }));
    let mut facsp_lut = FacsPController::paper_default_lut();
    cases.push(time_case("controller/facs-p-lut decide", iters, || {
        facsp_lut
            .decide(std::hint::black_box(&req), std::hint::black_box(&station))
            .score
    }));
    let mut facs = FacsController::paper_default();
    cases.push(time_case("controller/facs decide", iters, || {
        facs.decide(std::hint::black_box(&req), std::hint::black_box(&station))
            .score
    }));
    let mut scc = scc::SccAdmission::default();
    cases.push(time_case("controller/scc decide", iters, || {
        scc.decide(std::hint::black_box(&req), std::hint::black_box(&station))
            .score
    }));
    // SCC's per-call cost spans three hooks: the offer path decides, then
    // registers the admitted call, and its release removes it again.  The
    // station's two calls are registered first so the estimator holds load.
    let mut scc = scc::SccAdmission::default();
    for (id, class, speed, angle) in [
        (100, ServiceClass::Video, 40.0, 120.0),
        (101, ServiceClass::Voice, 90.0, 30.0),
    ] {
        let mut background = probe_request(class, speed, angle);
        background.id = id;
        scc.on_admitted(&background, &station);
    }
    cases.push(time_case(
        "controller/scc admit+release cycle",
        iters,
        || {
            let score = scc
                .decide(std::hint::black_box(&req), std::hint::black_box(&station))
                .score;
            scc.on_admitted(&req, &station);
            scc.on_released(req.id, &station);
            score
        },
    ));

    // --- the headline: interpreted vs compiled/LUT full cascade ---------
    let interpreted_cascade = {
        let flc1_engine = flc1.engine().clone();
        let flc2_engine = flc2.engine().clone();
        time_case("cascade/facs-p interpreted (flc1+flc2)", iters, || {
            let cv = flc1_engine
                .infer(std::hint::black_box(&[72.0, 15.0, 5.0]))
                .unwrap()
                .crisp_or("Cv", 0.5)
                .clamp(0.0, 1.0);
            flc2_engine
                .infer(std::hint::black_box(&[cv, 5.0, 15.0]))
                .unwrap()
                .crisp_or("AR", 0.0)
                .clamp(-1.0, 1.0)
        })
    };
    let compiled_cascade = time_case("cascade/facs-p compiled (flc1+flc2)", iters * 4, || {
        let cv = flc1.correction_value(
            std::hint::black_box(72.0),
            std::hint::black_box(15.0),
            std::hint::black_box(5.0),
        );
        flc2.decision_value(cv, std::hint::black_box(5.0), std::hint::black_box(15.0))
    });
    let lut_cascade = time_case("cascade/facs-p lut (flc1+lut)", iters * 4, || {
        let cv = flc1.correction_value(
            std::hint::black_box(72.0),
            std::hint::black_box(15.0),
            std::hint::black_box(5.0),
        );
        lut.decision_value(cv, std::hint::black_box(5.0), std::hint::black_box(15.0))
    });
    let facs_decision_speedup = interpreted_cascade.ns_per_iter / compiled_cascade.ns_per_iter;
    let facs_decision_speedup_lut = interpreted_cascade.ns_per_iter / lut_cascade.ns_per_iter;
    cases.push(interpreted_cascade);
    cases.push(compiled_cascade);
    cases.push(lut_cascade);

    // --- engine data structures: the metro run's per-event lookups -------
    // A steady hold model on a heap as deep as one metro shard's: pop the
    // earliest event, schedule it again an exponential step later.  The
    // heap holds what the engines queue: departures and, one in four,
    // handoffs.
    let mut hold_rng = SimRng::new(0x4EA9);
    let steps: Vec<f64> = (0..4_096).map(|_| hold_rng.exponential(1.0)).collect();
    let mut users = cellsim::slab::Slab::new();
    let user = users.insert(());
    let mut queue = EventQueue::new();
    for call in 0..65_536u32 {
        let cell = CellIdx(call % 128);
        let connection_id = u64::from(call);
        let kind = if call % 4 == 0 {
            EventKind::Handoff {
                from: cell,
                to: CellIdx((call + 1) % 128),
                connection_id,
                user,
            }
        } else {
            EventKind::Departure {
                cell,
                connection_id,
                user: Some(user),
            }
        };
        queue.schedule(hold_rng.exponential(1.0), kind);
    }
    let mut step = 0usize;
    cases.push(time_case(
        "event/queue pop+schedule (65536 pending)",
        iters * 10,
        || {
            let ev = queue.pop().expect("the hold model never drains");
            queue.schedule(ev.time + steps[step & 4_095], ev.kind);
            step += 1;
            ev.time
        },
    ));
    // The same hold model in the metro run's regime: sixteen shard queues
    // of 62.5k pending events each (a metro shard's peak), far more than
    // the caches hold together, served round-robin one epoch at a time
    // (256 events: a shard's departures in a 5 s epoch at 1200 s mean
    // holds), each event rescheduled a 1200 s mean hold later.
    const METRO_QUEUES: usize = 16;
    const METRO_PENDING: u32 = 62_500;
    const EPOCH_EVENTS: u32 = 256;
    let mut metro_queues: Vec<EventQueue> = (0..METRO_QUEUES)
        .map(|_| {
            let mut queue = EventQueue::new();
            for call in 0..METRO_PENDING {
                let kind = EventKind::Departure {
                    cell: CellIdx(call % 128),
                    connection_id: u64::from(call),
                    user: Some(user),
                };
                queue.schedule(hold_rng.exponential(1_200.0), kind);
            }
            queue
        })
        .collect();
    let (mut shard, mut served) = (0usize, 0u32);
    cases.push(time_case(
        "event/queue pop+schedule (metro hold, 16 queues)",
        iters * 10,
        || {
            let queue = &mut metro_queues[shard];
            let ev = queue.pop().expect("the hold model never drains");
            queue.schedule(ev.time + 1_200.0 * steps[step & 4_095], ev.kind);
            step += 1;
            served += 1;
            if served == EPOCH_EVENTS {
                served = 0;
                shard = (shard + 1) % METRO_QUEUES;
            }
            ev.time
        },
    ));
    drop(metro_queues);
    // A metro station holding 600 calls, addressed by id as `admitd`
    // addresses it: admit the next id, release the oldest, so every
    // iteration is two index lookups and two updates.
    const LIVE: u64 = 600;
    let mut metro_station = BaseStation::new(CellId::origin(), Point::default(), 2_000);
    for id in 0..LIVE {
        metro_station
            .admit(id, ServiceClass::Text, 1, 0.0, 1e9, false)
            .expect("2000 BU hold 600 text calls");
    }
    let mut next_id = LIVE;
    cases.push(time_case(
        "station/2000-BU admit+release",
        iters * 10,
        || {
            metro_station
                .admit(next_id, ServiceClass::Text, 1, 0.0, 1e9, false)
                .expect("one call below capacity");
            let released = metro_station
                .release(next_id - LIVE)
                .expect("the oldest call is live");
            next_id += 1;
            f64::from(released.bandwidth)
        },
    ));
    // The same station addressed by position, as the engines address it:
    // release a random live call, fix the position of the call the swap
    // moved, and admit a new call for the freed owner.
    let mut metro_station = BaseStation::new(CellId::origin(), Point::default(), 2_000);
    let mut calls: Vec<(u64, u32)> = (0..LIVE as u32)
        .map(|owner| {
            let id = u64::from(owner);
            let position = metro_station
                .admit_owned(owner, id, ServiceClass::Text, 1, 0.0, 1e9, false)
                .expect("2000 BU hold 600 text calls");
            (id, position)
        })
        .collect();
    let picks: Vec<u32> = (0..4_096)
        .map(|_| hold_rng.uniform_u32(0, LIVE as u32 - 1))
        .collect();
    let mut next_id = LIVE;
    let mut step = 0usize;
    cases.push(time_case(
        "station/2000-BU admit+release (by position)",
        iters * 10,
        || {
            let owner = picks[step & 4_095];
            step += 1;
            let (id, position) = calls[owner as usize];
            let (released, moved) = metro_station
                .release_at(position, id)
                .expect("every owner's call is live");
            if let Some(moved) = moved {
                calls[moved as usize].1 = position;
            }
            let position = metro_station
                .admit_owned(owner, next_id, ServiceClass::Text, 1, 0.0, 1e9, false)
                .expect("one call below capacity");
            calls[owner as usize] = (next_id, position);
            next_id += 1;
            f64::from(released.bandwidth)
        },
    ));
    // The user slab at a metro shard's occupancy (33k live users), used as
    // the engines use it when a call departs and another is admitted:
    // read a random live user's position tag, remove the user, and insert
    // a new one, which takes the slot just freed.
    const SHARD_USERS: u32 = 33_000;
    let mut users = cellsim::slab::Slab::new();
    let mut live: Vec<cellsim::slab::SlotId> = (0..SHARD_USERS)
        .map(|i| users.insert_tagged(UserState::new(Point::new(f64::from(i), 0.0), 50.0, 0.0), i))
        .collect();
    let picks: Vec<u32> = (0..4_096)
        .map(|_| hold_rng.uniform_u32(0, SHARD_USERS - 1))
        .collect();
    cases.push(time_case(
        "slab/user tag+remove+insert (33000 live)",
        iters * 10,
        || {
            let owner = picks[step & 4_095];
            step += 1;
            let slot = live[owner as usize];
            let position = users.tag(slot).expect("every owner's user is live");
            let user = users.remove(slot).expect("live");
            live[owner as usize] = users.insert_tagged(user, position);
            user.speed_kmh
        },
    ));

    // --- whole-simulation throughput: events/sec through run_poisson -----
    const POISSON_EVENTS: &str = "sim/paper-default poisson events";
    let paper = SimConfig::paper_default().with_seed(0xBEEF);
    let engine_case = time_sim_events(
        POISSON_EVENTS,
        "always-accept",
        &paper,
        &mut AlwaysAccept,
        quick,
    );
    let sim_events_per_sec = 1e9 / engine_case.ns_per_iter;
    cases.push(engine_case);
    // The same workload through the instrumented recorder.  Its case name
    // differs from the plain one only by the `, telemetry` marker, which
    // is how `telemetry_overhead_regressions` pairs them; the snapshot it
    // produces is the sim-layer slice of the `--telemetry` export.
    let (telem_case, sim_snapshot) = time_sim_events_with::<Registry>(
        POISSON_EVENTS,
        "always-accept, telemetry",
        &paper,
        &mut AlwaysAccept,
        quick,
    );
    cases.push(telem_case);
    cases.push(time_sim_events(
        POISSON_EVENTS,
        "facs-p-lut",
        &paper,
        &mut FacsPController::paper_default_lut(),
        quick,
    ));
    // The same engine under bursty MMPP arrivals (the `flash_crowd`
    // preset on the paper's cell).  The bursty generator's state machine
    // sits on the arrival path, so this case pins its cost
    // next to the plain-Poisson case.
    cases.push(time_sim_events(
        "sim/burst events",
        "mmpp flash-crowd, always-accept",
        &paper
            .clone()
            .with_traffic_model(TrafficModel::Mmpp(MmppConfig::flash_crowd())),
        &mut AlwaysAccept,
        quick,
    ));

    // --- end-to-end sweep throughput at 1/2/4 workers --------------------
    let mut sweep_cells_per_sec = Vec::new();
    for threads in [1usize, 2, 4] {
        let case = time_sweep_cells(threads, quick);
        sweep_cells_per_sec.push(SweepThroughput {
            threads,
            cells_per_sec: 1e9 / case.ns_per_iter,
        });
        cases.push(case);
    }

    // --- metro-scale sharded engine at 1/2/4 workers ---------------------
    let mut metro = Vec::new();
    for threads in [1usize, 2, 4] {
        let (case, throughput) = time_metro_events(threads, quick);
        metro.push(throughput);
        cases.push(case);
    }

    // --- admission service: scenario replay over loopback TCP -----------
    let mut server_requests_per_sec = 0.0f64;
    for connections in [1usize, 4] {
        let case = time_server_requests(connections, quick);
        server_requests_per_sec = server_requests_per_sec.max(1e9 / case.ns_per_iter);
        cases.push(case);
    }

    let report = PerfReport {
        quick,
        host_parallelism: host_parallelism(),
        cases,
        facs_decision_speedup,
        facs_decision_speedup_lut,
        sim_events_per_sec,
        sweep_cells_per_sec,
        metro,
        server_requests_per_sec,
    };
    let snapshot = compose_bench_snapshot(&report, sim_snapshot);
    (report, snapshot)
}

/// Fold the suite's results into one exportable snapshot: the
/// instrumented sim run's registry series, then one `bench_case_ns` span
/// per case (count = iterations, min/max = best ns/iter — the only
/// per-iteration statistic min-of-batches timing retains).
fn compose_bench_snapshot(report: &PerfReport, sim: TelemetrySnapshot) -> TelemetrySnapshot {
    let mut snapshot = sim;
    for case in &report.cases {
        let ns = if case.ns_per_iter.is_finite() && case.ns_per_iter > 0.0 {
            case.ns_per_iter
        } else {
            0.0
        };
        snapshot.spans.push(SpanSnapshot {
            name: "bench_case_ns".to_string(),
            help: "Best-batch nanoseconds per iteration of each perf case".to_string(),
            labels: vec![LabelPair {
                key: "case".to_string(),
                value: case.name.clone(),
            }],
            count: case.iters,
            total_ns: (ns * case.iters as f64) as u64,
            min_ns: ns as u64,
            max_ns: ns as u64,
        });
    }
    snapshot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_a_complete_report() {
        let report = run(true);
        assert!(report.quick);
        assert!(report.cases.len() >= 10);
        for case in &report.cases {
            assert!(
                case.ns_per_iter.is_finite() && case.ns_per_iter > 0.0,
                "{} has a bogus timing",
                case.name
            );
            assert!(case.iters > 0);
        }
        assert!(report.case("cascade/facs-p compiled (flc1+flc2)").is_some());
        for name in [
            "controller/facs-p build",
            "controller/facs build",
            "controller/scc build",
            "controller/scc admit+release cycle",
            "event/queue pop+schedule (65536 pending)",
            "station/2000-BU admit+release",
            "station/2000-BU admit+release (by position)",
            "slab/user tag+remove+insert (33000 live)",
            "lut/flc2 tabulate lines (paper default)",
            "lut/flc2 decision (inside band)",
        ] {
            assert!(report.case(name).is_some(), "missing case {name}");
        }
        assert!(report.facs_decision_speedup > 0.0);
        assert!(report.facs_decision_speedup_lut > 0.0);
        // The end-to-end cases the CI perf gate requires.  Their names
        // encode the quick-mode workload so `--check` never compares them
        // against the full-mode baseline entries.
        assert!(report
            .case("sim/paper-default poisson events (always-accept, 4000 req)")
            .is_some());
        assert!(report
            .case("sim/paper-default poisson events (always-accept, telemetry, 4000 req)")
            .is_some());
        assert!(report
            .case("sim/paper-default poisson events (facs-p-lut, 4000 req)")
            .is_some());
        assert!(report
            .case("sim/burst events (mmpp flash-crowd, always-accept, 4000 req)")
            .is_some());
        for threads in [1, 2, 4] {
            assert!(report
                .case(&format!(
                    "sweep/paper-default cells ({threads} thread, quick)"
                ))
                .is_some());
            assert!(report
                .case(&format!(
                    "shard/metro events (16 shards, {threads} thread, 200000 req)"
                ))
                .is_some());
        }
        for connections in [1, 4] {
            assert!(report
                .case(&format!(
                    "server/replay pipelined (facs-p-lut, {connections} conn, 5000 req/conn)"
                ))
                .is_some());
        }
        assert!(report.server_requests_per_sec.is_finite() && report.server_requests_per_sec > 0.0);
        assert!(report.sim_events_per_sec.is_finite() && report.sim_events_per_sec > 0.0);
        assert_eq!(report.sweep_cells_per_sec.len(), 3);
        for s in &report.sweep_cells_per_sec {
            assert!(s.cells_per_sec.is_finite() && s.cells_per_sec > 0.0);
        }
        assert_eq!(report.metro.len(), 3);
        for m in &report.metro {
            assert!(m.events_per_sec.is_finite() && m.events_per_sec > 0.0);
            // Even the quick load point holds a six-figure population.
            assert!(m.peak_concurrent_users > 100_000);
        }
        // Thread count must never change the simulated outcome.
        assert!(report
            .metro
            .windows(2)
            .all(|w| w[0].peak_concurrent_users == w[1].peak_concurrent_users));
        assert!(report.host_parallelism >= 1);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = run(true);
        let json = report.to_json();
        assert!(json.contains("\"cases\""));
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(!report.render_table().is_empty());
    }

    /// A synthetic report with the given `(name, ns_per_iter)` cases and
    /// healthy scaling entries.
    fn synthetic(cases: &[(&str, f64)]) -> PerfReport {
        PerfReport {
            quick: true,
            host_parallelism: 8,
            cases: cases
                .iter()
                .map(|(name, ns)| PerfCase {
                    name: (*name).to_string(),
                    ns_per_iter: *ns,
                    iters: 100,
                })
                .collect(),
            facs_decision_speedup: 10.0,
            facs_decision_speedup_lut: 50.0,
            sim_events_per_sec: 1e6,
            sweep_cells_per_sec: vec![
                SweepThroughput {
                    threads: 1,
                    cells_per_sec: 1000.0,
                },
                SweepThroughput {
                    threads: 4,
                    cells_per_sec: 3200.0,
                },
            ],
            metro: vec![
                ShardThroughput {
                    shards: 16,
                    threads: 1,
                    events_per_sec: 1e6,
                    peak_concurrent_users: 1_200_000,
                },
                ShardThroughput {
                    shards: 16,
                    threads: 4,
                    events_per_sec: 2e6,
                    peak_concurrent_users: 1_200_000,
                },
            ],
            server_requests_per_sec: 250_000.0,
        }
    }

    #[test]
    fn comparison_ignores_uniform_machine_speed_differences() {
        let baseline = synthetic(&[("a", 100.0), ("b", 200.0), ("c", 400.0), ("d", 800.0)]);
        // Everything exactly 3x slower: a slower machine, not a regression.
        let current = synthetic(&[("a", 300.0), ("b", 600.0), ("c", 1200.0), ("d", 2400.0)]);
        assert!(compare_reports(&current, &baseline, 0.3).is_empty());
    }

    #[test]
    fn comparison_flags_a_single_genuine_regression() {
        let baseline = synthetic(&[("a", 100.0), ("b", 200.0), ("c", 400.0), ("d", 800.0)]);
        // Machine is 2x slower overall, but `c` alone regressed 4x.
        let current = synthetic(&[("a", 200.0), ("b", 400.0), ("c", 1600.0), ("d", 1600.0)]);
        let regressions = compare_reports(&current, &baseline, 0.3);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "c");
        assert!(regressions[0].normalised_ratio > 1.3);
    }

    #[test]
    fn comparison_requires_raw_evidence_too() {
        let baseline = synthetic(&[("a", 100.0), ("b", 200.0), ("c", 400.0), ("d", 800.0)]);
        // A min-merged retry run: most cases found much cleaner windows
        // (40 % below baseline) while `d` was already at its floor.  `d`
        // towers over the shrunken median, but at baseline speed in
        // absolute terms it is no regression.
        let current = synthetic(&[("a", 60.0), ("b", 120.0), ("c", 240.0), ("d", 800.0)]);
        assert!(compare_reports(&current, &baseline, 0.3).is_empty());
        // Whereas slow by both measures is flagged even in that skew.
        let regressed = synthetic(&[("a", 60.0), ("b", 120.0), ("c", 240.0), ("d", 1200.0)]);
        let regressions = compare_reports(&regressed, &baseline, 0.3);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "d");
        assert!(regressions[0].raw_ratio > 1.3);
        assert!(regressions[0].normalised_ratio > 1.3);
    }

    #[test]
    fn comparison_skips_renamed_and_new_cases() {
        let baseline = synthetic(&[("a", 100.0), ("gone", 50.0)]);
        let current = synthetic(&[("a", 100.0), ("new", 9999.0)]);
        assert!(compare_reports(&current, &baseline, 0.3).is_empty());
        assert!(compare_reports(&baseline, &baseline, 0.3).is_empty());
    }

    #[test]
    fn scaling_gate_passes_healthy_reports_and_catches_regressions() {
        let healthy = synthetic(&[("a", 100.0)]);
        assert!(healthy.scaling_regressions().is_empty());

        // 4 threads slower than 1: always a failure, any host.
        let mut inverted = synthetic(&[("a", 100.0)]);
        inverted.metro[1].events_per_sec = 0.5e6;
        inverted.host_parallelism = 1;
        let problems = inverted.scaling_regressions();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("metro"));

        // Flat scaling: fine on a 1-core host, a failure on a 4-core one.
        let mut flat = synthetic(&[("a", 100.0)]);
        flat.metro[1].events_per_sec = 1e6;
        flat.host_parallelism = 1;
        assert!(flat.scaling_regressions().is_empty());
        flat.host_parallelism = 4;
        let problems = flat.scaling_regressions();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("1.6"));

        // Missing entries are themselves a failure.
        let mut missing = synthetic(&[("a", 100.0)]);
        missing.metro.clear();
        assert!(!missing.scaling_regressions().is_empty());
    }

    #[test]
    fn telemetry_gate_pairs_cases_by_the_marker_in_their_names() {
        let plain = "sim/paper-default poisson events (always-accept, 20000 req)";
        let telem = "sim/paper-default poisson events (always-accept, telemetry, 20000 req)";

        // 4 % overhead: within the 5 % budget.
        let ok = synthetic(&[(plain, 100.0), (telem, 104.0)]);
        assert!(ok.telemetry_overhead_regressions().is_empty());

        // 10 % overhead: flagged, naming the plain case.
        let slow = synthetic(&[(plain, 100.0), (telem, 110.0)]);
        let problems = slow.telemetry_overhead_regressions();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains(plain), "{}", problems[0]);

        // A marker case without its twin must fail, not pass vacuously.
        let orphan = synthetic(&[(telem, 104.0)]);
        assert_eq!(orphan.telemetry_overhead_regressions().len(), 1);

        // No instrumented cases at all: nothing to gate.
        let none = synthetic(&[(plain, 100.0)]);
        assert!(none.telemetry_overhead_regressions().is_empty());
    }

    #[test]
    fn quick_telemetry_snapshot_covers_the_suite() {
        let (report, snapshot) = run_with_telemetry(true);
        // One bench span per case, after the instrumented sim's own spans.
        let bench_spans: Vec<_> = snapshot
            .spans
            .iter()
            .filter(|s| s.name == "bench_case_ns")
            .collect();
        assert_eq!(bench_spans.len(), report.cases.len());
        // The instrumented sim run contributes real counter series.
        assert!(snapshot
            .counters
            .iter()
            .any(|c| c.name == "sim_events_total" && c.value > 0));
        // The exposition both parses as Prometheus text and lints clean.
        cellsim::telemetry::lint_prometheus(&snapshot.to_prometheus())
            .expect("perf exposition lints clean");
    }

    #[test]
    fn merge_best_keeps_the_fastest_observation_of_every_metric() {
        let mut first = synthetic(&[("a", 100.0), ("b", 500.0), ("only-first", 7.0)]);
        first.sim_events_per_sec = 1e6;
        let mut second = synthetic(&[("a", 300.0), ("b", 250.0), ("only-second", 9.0)]);
        second.sim_events_per_sec = 2e6;
        second.sweep_cells_per_sec[1].cells_per_sec = 4000.0;
        second.metro[0].events_per_sec = 1.5e6;
        second.server_requests_per_sec = 400_000.0;

        let merged = merge_best(&first, &second);
        assert_eq!(merged.case("a").unwrap().ns_per_iter, 100.0);
        assert_eq!(merged.case("b").unwrap().ns_per_iter, 250.0);
        assert_eq!(merged.case("only-first").unwrap().ns_per_iter, 7.0);
        assert_eq!(merged.case("only-second").unwrap().ns_per_iter, 9.0);
        assert_eq!(merged.sim_events_per_sec, 2e6);
        assert_eq!(merged.sweep_cells_per_sec[1].cells_per_sec, 4000.0);
        assert_eq!(merged.metro[0].events_per_sec, 1.5e6);
        assert_eq!(merged.server_requests_per_sec, 400_000.0);
        // No cascade cases in the synthetic reports, so the headline
        // speedups fall back to the better of the two runs.
        assert_eq!(merged.facs_decision_speedup, 10.0);
        // Note: per-entry maxima drawn from different runs can yield a
        // worse 4t/1t *ratio* than either run showed (here 2.0/1.5 =
        // 1.33x < 1.6x), which is why the `perf` bin evaluates the
        // scaling gate on each fresh attempt, never on a merged report.
        assert!(!merged.scaling_regressions().is_empty());
    }

    #[test]
    fn merge_best_recomputes_headline_speedups_from_merged_cases() {
        let interp = "cascade/facs-p interpreted (flc1+flc2)";
        let compiled = "cascade/facs-p compiled (flc1+flc2)";
        let lut = "cascade/facs-p lut (flc1+lut)";
        // First run: contended compiled case.  Second run: contended
        // interpreted case.  The merged speedup uses the best of each.
        let first = synthetic(&[(interp, 1000.0), (compiled, 500.0), (lut, 50.0)]);
        let second = synthetic(&[(interp, 2000.0), (compiled, 100.0), (lut, 40.0)]);
        let merged = merge_best(&first, &second);
        assert_eq!(merged.facs_decision_speedup, 1000.0 / 100.0);
        assert_eq!(merged.facs_decision_speedup_lut, 1000.0 / 40.0);
    }
}
