//! The deterministic parallel experiment engine.
//!
//! A [`SweepRunner`] expands a [`ScenarioSpec`] into its grid of
//! `(controller, load point, replication)` cells, fans the cells out across
//! `std::thread` workers, and folds the finished cells into a
//! [`RunReport`].  Two properties make the engine deterministic:
//!
//! 1. every cell is **self-seeded** — its RNG stream comes from
//!    [`ScenarioSpec::seed_for`], never from shared state, so a cell
//!    computes the same result no matter which worker runs it or when;
//! 2. aggregation is **order-fixed** — workers only *store* finished cells
//!    (indexed by their position in the grid); the merge into means,
//!    standard deviations and confidence intervals happens after all
//!    workers join, walking the grid in replication order.
//!
//! Together these make the report **bit-identical** for any worker count,
//! which `tests/determinism.rs` asserts for 1, 2 and 4 threads.
//!
//! Because results never depend on the worker count, the engine spawns at
//! most [`host_parallelism`] workers regardless of the configured thread
//! count: oversubscribing a small machine only adds context switches and
//! cache churn (the root cause of the historical "more threads, less
//! throughput" regression).  Workers also collect finished cells into
//! thread-local buffers merged after the join, so the hot loop takes no
//! locks at all.

use crate::report::{CurveReport, PointReport, RunReport};
use crate::spec::{LoadMode, ScenarioSpec, SpecError};
use cellsim::sim::Simulator;
use cellsim::telem::DefaultRecorder;
use cellsim::telemetry::{
    CounterSnapshot, LabelPair, Recorder, Registry, SpanSnapshot, TelemetrySnapshot,
};
use cellsim::{Metrics, StatAccumulator};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// The machine's available parallelism (1 when it cannot be determined).
#[must_use]
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Result of one finished `(controller, load, replication)` cell.
#[derive(Debug, Clone)]
struct CellOutcome {
    acceptance_percentage: f64,
    blocking_probability: f64,
    dropping_probability: f64,
    metrics: Metrics,
}

/// Live progress of a running sweep, delivered to the callback passed to
/// [`SweepRunner::run_with_progress`] roughly ten times a second (from a
/// dedicated monitor thread — the workers only bump an atomic counter, so
/// observing progress never perturbs results).
#[derive(Debug, Clone, Copy)]
pub struct SweepProgress {
    /// Cells finished so far.
    pub done: usize,
    /// Total cells in the grid.
    pub total: usize,
    /// Wall-clock seconds since the run started.
    pub elapsed_s: f64,
}

impl SweepProgress {
    /// Cells completed per wall-clock second so far (0 until the clock
    /// has measurably advanced).
    #[must_use]
    pub fn cells_per_sec(&self) -> f64 {
        if self.elapsed_s > 1e-9 {
            self.done as f64 / self.elapsed_s
        } else {
            0.0
        }
    }

    /// Estimated seconds to completion from the current rate (`None`
    /// until at least one cell has finished).
    #[must_use]
    pub fn eta_s(&self) -> Option<f64> {
        let rate = self.cells_per_sec();
        if rate > 0.0 {
            Some((self.total.saturating_sub(self.done)) as f64 / rate)
        } else {
            None
        }
    }
}

/// A progress observer: called from the monitor thread, so it must be
/// `Sync` (stderr writes are).
pub type ProgressFn<'a> = &'a (dyn Fn(SweepProgress) + Sync);

/// What one worker did during a run, in worker-spawn order.
struct WorkerStats {
    cells: u64,
    wall_ns: u64,
    telemetry: TelemetrySnapshot,
}

/// The parallel sweep engine.  See the module docs for the determinism
/// guarantees.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// An engine sized to the machine ([`host_parallelism`], capped at 16
    /// workers).
    #[must_use]
    pub fn new() -> Self {
        Self::with_threads(host_parallelism().min(16))
    }

    /// An engine with an explicit worker count (floored at 1).  The worker
    /// count only affects wall-clock time, never results.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Workers actually spawned for a grid of `total` cells: never more
    /// than the configured count, the cell count, or the machine's
    /// available parallelism.  Requesting 4 workers on a 1-core host runs
    /// 1 — identical results, none of the oversubscription penalty.
    #[must_use]
    fn effective_workers(&self, total: usize) -> usize {
        self.threads.min(total.max(1)).min(host_parallelism())
    }

    /// Run `spec` end to end and aggregate the result.
    pub fn run(&self, spec: &ScenarioSpec) -> Result<RunReport, SpecError> {
        self.run_impl::<DefaultRecorder>(spec, None)
            .map(|(report, _)| report)
    }

    /// [`SweepRunner::run`] with a live progress observer (used by the
    /// `sweep` binary's stderr progress line).  Progress reporting reads
    /// one atomic counter from a monitor thread and never changes
    /// results.
    pub fn run_with_progress(
        &self,
        spec: &ScenarioSpec,
        progress: ProgressFn<'_>,
    ) -> Result<RunReport, SpecError> {
        self.run_impl::<DefaultRecorder>(spec, Some(progress))
            .map(|(report, _)| report)
    }

    /// Run `spec` with the instrumented recorder (regardless of the
    /// `telemetry` cargo feature) and return the report together with the
    /// merged telemetry of the whole run: every worker's simulator series
    /// (merged in worker order) plus the sweep-level per-worker
    /// throughput series.  The report is byte-identical to
    /// [`SweepRunner::run`]'s.
    pub fn run_instrumented(
        &self,
        spec: &ScenarioSpec,
        progress: Option<ProgressFn<'_>>,
    ) -> Result<(RunReport, TelemetrySnapshot), SpecError> {
        let (report, stats) = self.run_impl::<Registry>(spec, progress)?;
        Ok((report, compose_sweep_snapshot(&stats)))
    }

    /// The engine core, generic over the telemetry recorder the workers'
    /// simulators carry (static dispatch: the default build's no-op
    /// recorder keeps the hot loop allocation- and syscall-free).
    fn run_impl<R: Recorder + Send>(
        &self,
        spec: &ScenarioSpec,
        progress: Option<ProgressFn<'_>>,
    ) -> Result<(RunReport, Vec<WorkerStats>), SpecError> {
        spec.validate()?;
        let n_controllers = spec.controllers.len();
        let n_points = spec.load_points.len();
        let n_reps = spec.replications;
        let total = n_controllers * n_points * n_reps;

        // Cell index layout: controller-major, then load point, then
        // replication — the same order aggregation walks below.
        let next_cell = AtomicUsize::new(0);
        let cells_done = AtomicUsize::new(0);
        let workers = self.effective_workers(total);

        // Each worker owns ONE simulator and re-arms it per cell with
        // `Simulator::reset` — stations, slabs, the event heap and the
        // batch request buffer all get reused, so a worker pays the engine's
        // allocation cost once instead of once per cell.  `reset` is
        // bit-identical to building a fresh simulator (asserted by the
        // engine's tests), so this is purely a throughput change.
        let run_cell = |index: usize, sim_slot: &mut Option<Simulator<R>>| {
            let rep = index % n_reps;
            let point = (index / n_reps) % n_points;
            let controller_idx = index / (n_reps * n_points);
            let load = spec.load_points[point];
            let controller_spec = &spec.controllers[controller_idx];
            let mut controller = controller_spec.build();
            let config = spec.sim_config(controller_spec, point, rep);
            let sim = match sim_slot {
                Some(sim) => {
                    sim.reset(config);
                    sim
                }
                None => sim_slot.insert(Simulator::with_telemetry(config)),
            };
            let report = match spec.load_mode {
                LoadMode::Batch => sim.run_batch(controller.as_mut(), load),
                LoadMode::RequestsPerWindow { .. } | LoadMode::TotalRequests => {
                    sim.run_poisson(controller.as_mut(), load)
                }
            };
            CellOutcome {
                acceptance_percentage: report.acceptance_percentage,
                blocking_probability: report.blocking_probability,
                dropping_probability: report.dropping_probability,
                metrics: report.metrics,
            }
        };

        // Workers buffer finished cells locally and hand the buffer back
        // at join time — no lock on the hot path, and each worker touches
        // only its own cache lines while simulating.  Each worker also
        // reports what it did (cell count, wall time, its simulator's
        // telemetry) for the sweep-level observability series.
        let worker_loop = || {
            let started = Instant::now();
            let mut sim: Option<Simulator<R>> = None;
            let mut local: Vec<(usize, CellOutcome)> = Vec::new();
            loop {
                let index = next_cell.fetch_add(1, Ordering::Relaxed);
                if index >= total {
                    break;
                }
                local.push((index, run_cell(index, &mut sim)));
                cells_done.fetch_add(1, Ordering::Relaxed);
            }
            let stats = WorkerStats {
                cells: local.len() as u64,
                wall_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                telemetry: sim.as_ref().map(Simulator::telemetry).unwrap_or_default(),
            };
            (local, stats)
        };

        let started = Instant::now();
        let mut cells: Vec<Option<CellOutcome>> = vec![None; total];
        let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(workers);
        if workers <= 1 && progress.is_none() {
            let (batch, stats) = worker_loop();
            for (index, outcome) in batch {
                cells[index] = Some(outcome);
            }
            worker_stats.push(stats);
        } else {
            let finished = AtomicBool::new(false);
            let batches = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker_loop)).collect();
                // The monitor only reads `cells_done`; it cannot affect
                // worker scheduling or results.
                let monitor = progress.map(|callback| {
                    let finished = &finished;
                    let cells_done = &cells_done;
                    scope.spawn(move || {
                        while !finished.load(Ordering::Relaxed) {
                            callback(SweepProgress {
                                done: cells_done.load(Ordering::Relaxed),
                                total,
                                elapsed_s: started.elapsed().as_secs_f64(),
                            });
                            std::thread::sleep(std::time::Duration::from_millis(100));
                        }
                        callback(SweepProgress {
                            done: cells_done.load(Ordering::Relaxed),
                            total,
                            elapsed_s: started.elapsed().as_secs_f64(),
                        });
                    })
                });
                let batches: Vec<_> = handles
                    .into_iter()
                    .map(|h| h.join().expect("sweep worker panicked"))
                    .collect();
                finished.store(true, Ordering::Relaxed);
                if let Some(monitor) = monitor {
                    monitor.join().expect("progress monitor panicked");
                }
                batches
            });
            for (batch, stats) in batches {
                for (index, outcome) in batch {
                    cells[index] = Some(outcome);
                }
                worker_stats.push(stats);
            }
        }
        let mut curves = Vec::with_capacity(n_controllers);
        for (controller_idx, controller) in spec.controllers.iter().enumerate() {
            let mut points = Vec::with_capacity(n_points);
            for (point, &load) in spec.load_points.iter().enumerate() {
                let mut acceptance = StatAccumulator::new();
                let mut blocking = StatAccumulator::new();
                let mut dropping = StatAccumulator::new();
                let mut merged = Metrics::new();
                // Replication order is fixed here; worker scheduling cannot
                // influence it.
                for rep in 0..n_reps {
                    let index = (controller_idx * n_points + point) * n_reps + rep;
                    let outcome = cells[index]
                        .as_ref()
                        .expect("every cell is filled before workers join");
                    acceptance.push(outcome.acceptance_percentage);
                    blocking.push(outcome.blocking_probability);
                    dropping.push(outcome.dropping_probability);
                    merged.merge(&outcome.metrics);
                }
                points.push(PointReport {
                    load,
                    acceptance: acceptance.summary(),
                    blocking: blocking.summary(),
                    dropping: dropping.summary(),
                    merged,
                });
            }
            curves.push(CurveReport {
                controller: controller.label(),
                points,
            });
        }

        Ok((
            RunReport {
                scenario: spec.name.clone(),
                description: spec.description.clone(),
                replications: n_reps,
                base_seed: spec.base_seed,
                load_points: spec.load_points.clone(),
                curves,
            },
            worker_stats,
        ))
    }
}

/// Compose the sweep-level snapshot: total cell throughput, one
/// `{worker="i"}` series per worker (spawn order), and every worker
/// simulator's own series merged in the same fixed order.
fn compose_sweep_snapshot(stats: &[WorkerStats]) -> TelemetrySnapshot {
    let mut snapshot = TelemetrySnapshot {
        counters: vec![CounterSnapshot {
            name: "sweep_cells_completed_total".to_string(),
            help: "Sweep cells completed across all workers".to_string(),
            labels: Vec::new(),
            value: stats.iter().map(|s| s.cells).sum(),
        }],
        ..TelemetrySnapshot::default()
    };
    for (worker, s) in stats.iter().enumerate() {
        let labels = vec![LabelPair {
            key: "worker".to_string(),
            value: worker.to_string(),
        }];
        snapshot.counters.push(CounterSnapshot {
            name: "sweep_worker_cells_total".to_string(),
            help: "Sweep cells completed by each worker".to_string(),
            labels: labels.clone(),
            value: s.cells,
        });
        snapshot.spans.push(SpanSnapshot {
            name: "sweep_worker_wall_ns".to_string(),
            help: "Wall time each worker spent draining the cell queue".to_string(),
            labels,
            count: s.cells,
            total_ns: s.wall_ns,
            min_ns: s.wall_ns,
            max_ns: s.wall_ns,
        });
    }
    for s in stats {
        snapshot.merge(&s.telemetry);
    }
    snapshot
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::builtin;
    use crate::spec::ControllerSpec;

    fn tiny_spec() -> ScenarioSpec {
        builtin("paper-default")
            .unwrap()
            .with_load_points(vec![10, 60])
            .with_replications(2)
            .with_controllers(vec![ControllerSpec::FacsP, ControllerSpec::AlwaysAccept])
    }

    #[test]
    fn report_shape_matches_the_spec() {
        let spec = tiny_spec();
        let report = SweepRunner::with_threads(2).run(&spec).unwrap();
        assert_eq!(report.scenario, "paper-default");
        assert_eq!(report.curves.len(), 2);
        assert_eq!(report.load_points, vec![10, 60]);
        for curve in &report.curves {
            assert_eq!(curve.points.len(), 2);
            for p in &curve.points {
                assert_eq!(p.acceptance.n, 2);
                assert!(p.acceptance.mean >= 0.0 && p.acceptance.mean <= 100.0);
                assert_eq!(
                    p.merged.offered(),
                    2 * p.load as u64,
                    "merged counters cover every replication"
                );
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let spec = tiny_spec();
        let one = SweepRunner::with_threads(1).run(&spec).unwrap();
        let three = SweepRunner::with_threads(3).run(&spec).unwrap();
        let many = SweepRunner::with_threads(64).run(&spec).unwrap();
        assert_eq!(one, three);
        assert_eq!(one, many);
    }

    #[test]
    fn controllers_draw_decorrelated_streams_over_the_same_load_axis() {
        // Every controller sweeps the same load axis with the same
        // replication count (offered totals match per point in the
        // single-cell batch-free scenario), but each controller's cells
        // draw their own hashed seed stream — the per-point spread
        // measures genuine run-to-run variance instead of replaying one
        // arrival sequence.
        let spec = tiny_spec();
        let report = SweepRunner::with_threads(2).run(&spec).unwrap();
        let facs_p = report.curve("FACS-P").unwrap();
        let upper = report.curve("always-accept").unwrap();
        for (i, (a, b)) in facs_p.points.iter().zip(&upper.points).enumerate() {
            assert_eq!(a.load, b.load);
            assert_eq!(
                a.merged.offered(),
                spec.replications as u64 * a.load as u64,
                "every replication offers exactly the load point"
            );
            assert_eq!(a.merged.offered(), b.merged.offered());
            assert_ne!(
                spec.seed_for(&spec.controllers[0], i, 0),
                spec.seed_for(&spec.controllers[1], i, 0),
                "controller streams are decorrelated"
            );
        }
    }

    #[test]
    fn invalid_specs_are_rejected_before_spawning() {
        let spec = tiny_spec().with_controllers(vec![]);
        assert!(SweepRunner::new().run(&spec).is_err());
    }

    #[test]
    fn thread_count_is_floored_and_capped() {
        assert_eq!(SweepRunner::with_threads(0).threads(), 1);
        assert!(SweepRunner::new().threads() >= 1);
        assert!(SweepRunner::new().threads() <= 16);
    }

    #[test]
    fn instrumented_run_matches_plain_run_and_exposes_sweep_series() {
        let spec = tiny_spec();
        let runner = SweepRunner::with_threads(2);
        let plain = runner.run(&spec).unwrap();
        let (instrumented, snapshot) = runner.run_instrumented(&spec, None).unwrap();
        assert_eq!(
            plain.to_json(),
            instrumented.to_json(),
            "telemetry must not perturb the report"
        );
        let total = (spec.controllers.len() * spec.load_points.len() * spec.replications) as u64;
        let cells = snapshot
            .counters
            .iter()
            .find(|c| c.name == "sweep_cells_completed_total")
            .expect("sweep counter present");
        assert_eq!(cells.value, total);
        let per_worker: u64 = snapshot
            .counters
            .iter()
            .filter(|c| c.name == "sweep_worker_cells_total")
            .map(|c| c.value)
            .sum();
        assert_eq!(per_worker, total, "worker series partition the grid");
        assert!(
            snapshot
                .counters
                .iter()
                .any(|c| c.name == "sim_events_total" && c.value > 0),
            "worker simulator series are merged in"
        );
        cellsim::telemetry::lint_prometheus(&snapshot.to_prometheus())
            .expect("sweep exposition lints clean");
    }

    #[test]
    fn progress_observer_sees_completion_without_changing_results() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let spec = tiny_spec();
        let runner = SweepRunner::with_threads(2);
        let last_done = AtomicUsize::new(usize::MAX);
        let calls = AtomicUsize::new(0);
        let observed = runner
            .run_with_progress(&spec, &|p: SweepProgress| {
                calls.fetch_add(1, Ordering::Relaxed);
                last_done.store(p.done, Ordering::Relaxed);
                assert!(p.done <= p.total);
                assert_eq!(
                    p.total,
                    spec.controllers.len() * spec.load_points.len() * spec.replications
                );
            })
            .unwrap();
        assert!(calls.load(Ordering::Relaxed) >= 1, "monitor fired");
        assert_eq!(
            last_done.load(Ordering::Relaxed),
            spec.controllers.len() * spec.load_points.len() * spec.replications,
            "final callback reports a drained queue"
        );
        assert_eq!(observed, runner.run(&spec).unwrap());
    }

    #[test]
    fn progress_math_is_sane() {
        let p = SweepProgress {
            done: 50,
            total: 100,
            elapsed_s: 10.0,
        };
        assert!((p.cells_per_sec() - 5.0).abs() < 1e-12);
        assert!((p.eta_s().unwrap() - 10.0).abs() < 1e-12);
        let idle = SweepProgress {
            done: 0,
            total: 100,
            elapsed_s: 0.0,
        };
        assert_eq!(idle.cells_per_sec(), 0.0);
        assert!(idle.eta_s().is_none());
    }

    #[test]
    fn spawned_workers_never_oversubscribe_the_host() {
        let runner = SweepRunner::with_threads(64);
        assert_eq!(runner.threads(), 64, "the configured count is preserved");
        assert!(runner.effective_workers(1000) <= host_parallelism());
        assert_eq!(runner.effective_workers(0), 1);
        assert_eq!(
            SweepRunner::with_threads(8).effective_workers(3),
            3.min(host_parallelism()),
            "small grids never spawn idle workers"
        );
    }
}
