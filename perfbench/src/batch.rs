//! The two batch phases: a scenario sweep on `SweepRunner` and a metro-scale
//! run on `ShardedSimulator`, each untraced (timed end to end) and traced
//! (per-layer numbers from the crates' telemetry and the controller
//! wrapper).

use std::time::Instant;

use cellsim::shard::{ShardConfig, ShardedSimulator};
use cellsim::telemetry::{Registry, TelemetrySnapshot};
use cellsim::{Metrics, ShardReport, SimConfig, SimReport, Simulator, StatAccumulator};
use sweep::{ControllerSpec, CurveReport, LoadMode, PointReport, RunReport, ScenarioSpec};

use crate::stats::fnv1a;
use crate::trace::{self, ControllerTotals, Traced};
use crate::Checks;

/// Worker threads of the timed batch runs.  On the two-vCPU reference host
/// two busy threads get about 1.4 CPUs between them, in stalls of about
/// 4 ms whose share varies from minute to minute, while one busy thread
/// loses almost nothing; one worker keeps the timings steady.
pub const WORKERS: usize = 1;
/// Worker threads of the untimed runs that check results do not depend on
/// the worker count.
pub const CHECK_WORKERS: usize = 2;
/// Spatial shards of the metro run.
pub const METRO_SHARDS: usize = 16;

/// Sum of a counter series (all label sets) in a snapshot.
#[must_use]
pub fn counter(snapshot: &TelemetrySnapshot, name: &str, label: Option<(&str, &str)>) -> u64 {
    snapshot
        .counters
        .iter()
        .filter(|c| c.name == name)
        .filter(|c| label.is_none_or(|(k, v)| c.labels.iter().any(|l| l.key == k && l.value == v)))
        .map(|c| c.value)
        .sum()
}

/// `(count, total_ns)` of a span series in a snapshot.
#[must_use]
pub fn span(snapshot: &TelemetrySnapshot, name: &str) -> (u64, u64) {
    snapshot
        .spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(c, t), s| (c + s.count, t + s.total_ns))
}

/// `(count, sum)` of a histogram series in a snapshot.
#[must_use]
pub fn histogram(snapshot: &TelemetrySnapshot, name: &str) -> (u64, u64) {
    snapshot
        .histograms
        .iter()
        .filter(|h| h.name == name)
        .fold((0, 0), |(c, s), h| (c + h.count, s + h.sum))
}

fn cells_of(spec: &ScenarioSpec) -> usize {
    spec.controllers.len() * spec.load_points.len() * spec.replications
}

/// Check the sweep's conservation law on every point (accepted + blocked =
/// offered, and every replication offers exactly the load point for the
/// window and batch modes) and return the report's digest.
fn check_sweep_report(spec: &ScenarioSpec, report: &RunReport, checks: &mut Checks) -> u64 {
    checks.require(
        report.curves.len() == spec.controllers.len(),
        "sweep report has one curve per controller",
    );
    for curve in &report.curves {
        for point in &curve.points {
            let m = &point.merged;
            checks.require(
                m.accepted() + m.blocked() == m.offered(),
                &format!(
                    "sweep {} load {}: accepted + blocked = offered",
                    curve.controller, point.load
                ),
            );
            if !matches!(spec.load_mode, LoadMode::TotalRequests) {
                checks.require(
                    m.offered() == (point.load * spec.replications) as u64,
                    &format!(
                        "sweep {} load {}: every replication offers the load",
                        curve.controller, point.load
                    ),
                );
            }
        }
    }
    fnv1a(report.to_json().as_bytes())
}

/// The untraced sweep phase: timed `SweepRunner` runs, one at a time.
#[derive(Debug)]
pub struct SweepBench {
    runner: sweep::SweepRunner,
    report: RunReport,
    /// Cells per run.
    pub cells: usize,
    /// Digest of the (run-invariant) report.
    pub digest: u64,
}

impl SweepBench {
    /// Run `spec` once untimed on [`WORKERS`] workers (the warm-up, whose
    /// report every later run must equal) and once on [`CHECK_WORKERS`]
    /// workers, which must give the same report.
    pub fn prepare(spec: &ScenarioSpec, checks: &mut Checks) -> Self {
        let runner = sweep::SweepRunner::with_threads(WORKERS);
        let report = runner.run(spec).expect("built-in spec is valid");
        let digest = check_sweep_report(spec, &report, checks);
        let parallel = sweep::SweepRunner::with_threads(CHECK_WORKERS)
            .run(spec)
            .expect("built-in spec is valid");
        checks.require(
            parallel == report,
            "sweep report is identical at 1 and 2 workers",
        );
        Self {
            runner,
            report,
            cells: cells_of(spec),
            digest,
        }
    }

    /// Time one run; returns finished cells per second.
    pub fn time_run(&mut self, spec: &ScenarioSpec, checks: &mut Checks) -> f64 {
        let t = Instant::now();
        let report = self.runner.run(spec).expect("built-in spec is valid");
        let rate = self.cells as f64 / t.elapsed().as_secs_f64();
        checks.require(
            report == self.report,
            "sweep report is identical across repeated runs",
        );
        rate
    }
}

/// Per-layer numbers of the traced sweep.
#[derive(Debug)]
pub struct SweepTrace {
    /// Cells per run.
    pub cells: usize,
    /// Wall time of the untraced `SweepRunner` run (s).
    pub untraced_s: f64,
    /// Wall time of the traced re-run (s).
    pub traced_s: f64,
    /// Worker wall time over workers x run wall time, from
    /// `run_instrumented`.
    pub worker_busy_frac: f64,
    /// Run wall time not covered by the slowest worker (spawn, join and
    /// aggregation), from `run_instrumented` (s).
    pub aggregate_s: f64,
    /// Controller calls made by the traced re-run.
    pub controller: ControllerTotals,
    /// Simulator telemetry of the traced re-run.
    pub sim: TelemetrySnapshot,
    /// Summed `run_poisson`/`run_batch` wall time of the traced re-run (ns).
    pub sim_run_ns: u64,
}

/// Trace the sweep: time one untraced run (after a warm-up run it must
/// equal), read the sweep series from `run_instrumented`, then re-run every
/// cell through `ScenarioSpec::sim_config` + `Simulator` with traced
/// controllers and require the rebuilt report to equal the untraced one.
pub fn trace_sweep(spec: &ScenarioSpec, checks: &mut Checks) -> SweepTrace {
    let runner = sweep::SweepRunner::with_threads(WORKERS);
    let reference = &runner.run(spec).expect("built-in spec is valid");
    check_sweep_report(spec, reference, checks);
    let t = Instant::now();
    let plain = runner.run(spec).expect("built-in spec is valid");
    let untraced_s = t.elapsed().as_secs_f64();
    checks.require(&plain == reference, "sweep report is identical across runs");

    let t = Instant::now();
    let (instrumented, snapshot) = runner
        .run_instrumented(spec, None)
        .expect("built-in spec is valid");
    let instrumented_s = t.elapsed().as_secs_f64();
    checks.require(
        &instrumented == reference,
        "instrumented sweep report equals the plain one",
    );
    let workers: Vec<u64> = snapshot
        .spans
        .iter()
        .filter(|s| s.name == "sweep_worker_wall_ns")
        .map(|s| s.total_ns)
        .collect();
    let busy_ns: u64 = workers.iter().sum();
    let slowest_s = workers.iter().copied().max().unwrap_or(0) as f64 / 1e9;

    let sink = trace::sink();
    let t = Instant::now();
    let (cells, sim) = rerun_cells(spec, &sink);
    let traced_s = t.elapsed().as_secs_f64();
    let controller = trace::drain(&sink);
    for (index, report) in cells.iter().enumerate() {
        let m = &report.metrics;
        checks.require(
            m.accepted() + m.blocked() == m.offered(),
            &format!("sweep cell {index}: accepted + blocked = offered"),
        );
    }
    checks.require(
        &aggregate(spec, &cells) == reference,
        "per-cell Simulator re-run reproduces the SweepRunner report",
    );
    let sim_run_ns = span(&sim, "sim_run_poisson_ns").1 + span(&sim, "sim_run_batch_ns").1;
    SweepTrace {
        cells: cells.len(),
        untraced_s,
        traced_s,
        worker_busy_frac: trace::ratio(busy_ns as f64 / 1e9, workers.len() as f64 * instrumented_s),
        aggregate_s: (instrumented_s - slowest_s).max(0.0),
        controller,
        sim,
        sim_run_ns,
    }
}

/// Run every cell of `spec` in grid order on one instrumented `Simulator`
/// re-armed per cell (as a `SweepRunner` worker does), with traced
/// controllers.  Returns the cell reports and the simulator's telemetry.
fn rerun_cells(spec: &ScenarioSpec, sink: &trace::Sink) -> (Vec<SimReport>, TelemetrySnapshot) {
    let reps = spec.replications;
    let points = spec.load_points.len();
    let mut sim: Option<Simulator<Registry>> = None;
    let cells = (0..cells_of(spec))
        .map(|index| {
            let point = (index / reps) % points;
            let controller_spec = &spec.controllers[index / (reps * points)];
            let config = spec.sim_config(controller_spec, point, index % reps);
            let sim = match &mut sim {
                Some(sim) => {
                    sim.reset(config);
                    sim
                }
                None => sim.insert(Simulator::with_telemetry(config)),
            };
            let mut controller = Traced::new(controller_spec.build(), sink);
            let load = spec.load_points[point];
            match spec.load_mode {
                LoadMode::Batch => sim.run_batch(&mut controller, load),
                _ => sim.run_poisson(&mut controller, load),
            }
        })
        .collect();
    let telemetry = sim.as_ref().map(Simulator::telemetry).unwrap_or_default();
    (cells, telemetry)
}

/// Fold cell reports into a `RunReport` in the same fixed order
/// `SweepRunner` aggregates.
fn aggregate(spec: &ScenarioSpec, cells: &[SimReport]) -> RunReport {
    let reps = spec.replications;
    let points = spec.load_points.len();
    let curves = spec
        .controllers
        .iter()
        .enumerate()
        .map(|(c, controller)| CurveReport {
            controller: controller.label(),
            points: spec
                .load_points
                .iter()
                .enumerate()
                .map(|(p, &load)| {
                    let mut acceptance = StatAccumulator::new();
                    let mut blocking = StatAccumulator::new();
                    let mut dropping = StatAccumulator::new();
                    let mut merged = Metrics::new();
                    for rep in 0..reps {
                        let cell = &cells[(c * points + p) * reps + rep];
                        acceptance.push(cell.acceptance_percentage);
                        blocking.push(cell.blocking_probability);
                        dropping.push(cell.dropping_probability);
                        merged.merge(&cell.metrics);
                    }
                    PointReport {
                        load,
                        acceptance: acceptance.summary(),
                        blocking: blocking.summary(),
                        dropping: dropping.summary(),
                        merged,
                    }
                })
                .collect(),
        })
        .collect();
    RunReport {
        scenario: spec.name.clone(),
        description: spec.description.clone(),
        replications: reps,
        base_seed: spec.base_seed,
        load_points: spec.load_points.clone(),
        curves,
    }
}

/// The metro run of a workload: configuration, controller and size.
#[derive(Debug, Clone)]
pub struct MetroCase {
    /// Simulator configuration (grid, traffic, seed).
    pub config: SimConfig,
    /// Controller in every cell.
    pub controller: ControllerSpec,
    /// Arrivals offered.
    pub requests: usize,
    /// Arrivals of the smaller run that checks the worker count does not
    /// change results (small enough that its two threads' allocations stay
    /// below the timed run's peak memory).
    pub check_requests: usize,
}

impl MetroCase {
    fn sharding(&self, threads: usize) -> ShardConfig {
        ShardConfig::new(METRO_SHARDS).with_threads(threads)
    }

    /// A fresh untraced engine (the timed set-up of the metro phase).
    #[must_use]
    pub fn build(&self, threads: usize) -> ShardedSimulator {
        ShardedSimulator::new(self.config.clone(), self.sharding(threads))
    }

    fn run(&self, threads: usize, requests: usize) -> (ShardReport, u64, f64) {
        let mut sim = self.build(threads);
        let mut factory = || self.controller.build();
        let t = Instant::now();
        let report = sim.run_poisson(&mut factory, requests);
        (report, sim.events_processed(), t.elapsed().as_secs_f64())
    }
}

/// Run the check-sized case on [`WORKERS`] and on [`CHECK_WORKERS`] threads
/// and require identical reports.
fn check_worker_invariance(case: &MetroCase, checks: &mut Checks) {
    let (solo, _, _) = case.run(WORKERS, case.check_requests);
    let (parallel, _, _) = case.run(CHECK_WORKERS, case.check_requests);
    check_metro_report(&solo, checks);
    check_metro(&solo, &parallel, "1 vs 2 threads", checks);
}

/// The whole report must match, event count and peak users included.
fn check_metro(reference: &ShardReport, other: &ShardReport, what: &str, checks: &mut Checks) {
    checks.require(other == reference, &format!("metro {what}: same report"));
}

fn check_metro_report(report: &ShardReport, checks: &mut Checks) {
    checks.require(
        report.events_processed > 0 && report.peak_concurrent_users > 0,
        "metro run processed events and held users",
    );
    checks.require(
        report.handoffs_accepted + report.handoffs_failed == report.handoffs_offered,
        "metro handoffs: accepted + failed = offered",
    );
}

/// The untraced metro phase: fresh timed runs, one at a time.
#[derive(Debug, Default)]
pub struct MetroBench {
    reference: Option<ShardReport>,
}

impl MetroBench {
    /// Time one fresh run on [`WORKERS`] threads, whose report must match
    /// the first; returns events per second.
    pub fn time_run(&mut self, case: &MetroCase, checks: &mut Checks) -> f64 {
        let (report, events, secs) = case.run(WORKERS, case.requests);
        match &self.reference {
            Some(r) => check_metro(r, &report, "repeated run", checks),
            None => {
                check_metro_report(&report, checks);
                self.reference = Some(report);
            }
        }
        events as f64 / secs
    }

    /// Check worker-count invariance on the smaller case and summarise.
    ///
    /// # Panics
    /// Panics when no run was timed.
    pub fn finish(self, case: &MetroCase, checks: &mut Checks) -> MetroMeasure {
        check_worker_invariance(case, checks);
        let reference = self.reference.expect("at least one metro run");
        MetroMeasure {
            events: reference.events_processed,
            peak_users: reference.peak_concurrent_users,
            digest: fnv1a(format!("{reference:?}").as_bytes()),
        }
    }
}

/// What the untraced metro phase measured.
#[derive(Debug)]
pub struct MetroMeasure {
    /// Events of one run.
    pub events: u64,
    /// Peak concurrent users of one run.
    pub peak_users: u64,
    /// Digest of the run report.
    pub digest: u64,
}

/// Per-layer numbers of the traced metro run.
#[derive(Debug)]
pub struct MetroTrace {
    /// Wall time of one untraced run (s).
    pub untraced_s: f64,
    /// Wall time of the traced run (s).
    pub traced_s: f64,
    /// Engine and shard telemetry of the traced run.
    pub telemetry: TelemetrySnapshot,
    /// Controller calls of the traced run.
    pub controller: ControllerTotals,
}

/// Trace the metro phase: one untraced run and one instrumented run with
/// traced controllers, whose reports must match, then the worker-count
/// check on the smaller case.
pub fn trace_metro(case: &MetroCase, checks: &mut Checks) -> MetroTrace {
    let (reference, _, untraced_s) = case.run(WORKERS, case.requests);
    check_metro_report(&reference, checks);
    let sink = trace::sink();
    let mut sim =
        ShardedSimulator::<Registry>::with_telemetry(case.config.clone(), case.sharding(WORKERS));
    let mut factory = || Traced::boxed(case.controller.build(), &sink);
    let t = Instant::now();
    let traced = sim.run_poisson(&mut factory, case.requests);
    let traced_s = t.elapsed().as_secs_f64();
    let telemetry = sim.telemetry();
    drop(sim);
    check_metro(&reference, &traced, "traced vs untraced", checks);
    check_worker_invariance(case, checks);
    MetroTrace {
        untraced_s,
        traced_s,
        telemetry,
        controller: trace::drain(&sink),
    }
}
