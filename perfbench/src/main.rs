//! The repository benchmark: end-to-end metrics of the FACS/FACS-P
//! workspace from untraced runs, and per-layer metrics from traced runs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload poisson --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each workload runs three phases, so that every end-to-end metric is
//! measured on every workload: a scenario sweep on `SweepRunner`, a
//! metro-scale run on `ShardedSimulator`, and an open-loop admission
//! stream to an in-process `admitd` server.  Time-based end-to-end
//! figures are scaled to the reference host speed (see [`calib`]).  See
//! `perfbench/README.md`.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; a failed output check
//! makes the run exit with code 1.

mod batch;
mod calib;
mod openloop;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;

use cellsim::traffic::{GroupConfig, TrafficGenerator, TrafficModel};
use cellsim::{CallRequest, SimConfig};
use sweep::ScenarioSpec;

use crate::batch::MetroCase;
use crate::serve::Shape;
use crate::stats::median;
use crate::trace::{ratio, ControllerTotals, SpanLog};

/// Replications of the sweep phase: the paper's 20 raised until one
/// `SweepRunner` run (3000 cells) lasts about a second.
const SWEEP_REPLICATIONS: usize = 100;
/// The metro load point (index into the `metro` spec's axis): 600k
/// requests.
const METRO_LOAD_INDEX: usize = 1;
/// Seconds of `--seconds` per round of an untraced run.
const ROUND_S: f64 = 5.0;
/// Share of `--seconds` spent offering the admitd stream at the fixed
/// rates (split evenly between `low` and `high`).
const RATE_SHARE: f64 = 0.32;

/// Output checks of one run.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Record a failure unless `ok`.
    pub fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failures.push(what.to_string());
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload poisson|burst --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// A workload: the inputs of its three phases.
struct Workload {
    sweep: ScenarioSpec,
    metro: MetroCase,
    admitd: Shape,
}

/// Decorrelated per-phase seeds from the run's seed.
fn phase_seed(seed: u64, phase: u64) -> u64 {
    cellsim::SimRng::new(seed).derive(phase).seed()
}

fn metro_case(model: TrafficModel, seed: u64) -> MetroCase {
    let mut spec = sweep::builtin("metro")
        .expect("metro is built in")
        .with_base_seed(seed);
    spec.traffic_model = model;
    // The guard-channel threshold: capacity-relative, unlike the paper's
    // controllers, which are tuned to 40-BU cells.
    let controller = spec.controllers[1];
    MetroCase {
        config: spec.sim_config(&controller, METRO_LOAD_INDEX, 0),
        controller,
        requests: spec.load_points[METRO_LOAD_INDEX],
        check_requests: spec.load_points[0],
    }
}

fn workload(name: &str, seed: u64) -> Option<Workload> {
    let builtin = |n: &str| sweep::builtin(n).expect("scenario is built in");
    let sweep_seed = phase_seed(seed, 1);
    let metro_seed = phase_seed(seed, 2);
    match name {
        // Independent arrivals everywhere: the paper's own sweep, the metro
        // run, and an admission stream spread over a 19-cell highway grid,
        // where consecutive frames rarely share a cell.
        "poisson" => {
            let highway = builtin("highway-handoff");
            Some(Workload {
                sweep: builtin("paper-default")
                    .with_replications(SWEEP_REPLICATIONS)
                    .with_base_seed(sweep_seed),
                metro: metro_case(TrafficModel::Poisson, metro_seed),
                admitd: Shape {
                    world: admitd::WorldConfig::from_sim_config(
                        &highway.sim_config(&serve::CONTROLLER, 0, 0),
                        1,
                    ),
                    traffic: highway.traffic,
                    model: TrafficModel::Poisson,
                },
            })
        }
        // Correlated bursts everywhere: the paper's sweep under MMPP flash
        // bursts, the metro run under same-cell groups, and groups of 5-15
        // simultaneous calls against one paper cell, which the server's
        // micro-batch cache serves.
        "burst" => {
            let paper = builtin("paper-default");
            Some(Workload {
                sweep: builtin("burst-mmpp")
                    .with_replications(SWEEP_REPLICATIONS)
                    .with_base_seed(sweep_seed),
                metro: metro_case(TrafficModel::Groups(GroupConfig::new(5, 15)), metro_seed),
                admitd: Shape {
                    world: admitd::WorldConfig::paper_default(),
                    traffic: cellsim::traffic::TrafficConfig {
                        // About 1.5x the cell's capacity offered.
                        mean_interarrival_s: 8.0,
                        ..paper.traffic
                    },
                    model: TrafficModel::Groups(GroupConfig::new(5, 15)),
                },
            })
        }
        _ => None,
    }
}

/// The set-up a user pays before the first timed operation of each phase
/// (seconds).
fn time_setup(w: &Workload) -> f64 {
    let start = std::time::Instant::now();
    for controller in &w.sweep.controllers {
        std::hint::black_box(controller.build());
    }
    std::hint::black_box(w.metro.build(batch::WORKERS));
    start.elapsed().as_secs_f64() + serve::time_setup(&w.admitd)
}

/// Metric name → (value, unit), in output order.
#[derive(Debug, Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// Rounds of an untraced run: one per [`ROUND_S`] of `--seconds`, at
/// least three so every median has three samples.
fn rounds(seconds: f64) -> usize {
    ((seconds / ROUND_S).round() as usize).max(3)
}

/// Frames of one `low` and one `high` slice: each lasts the same share of a
/// round, and has at least [`serve::MIN_SLICE_FRAMES`], so every latency
/// window holds ten samples beyond its p99.
fn slice_frames(seconds: f64, rounds: usize) -> (usize, usize) {
    let slice_s = seconds * RATE_SHARE / rounds as f64;
    let frames = |rate: serve::Rate| ((rate.rps() * slice_s) as usize).max(serve::MIN_SLICE_FRAMES);
    (frames(serve::Rate::Low), frames(serve::Rate::High))
}

struct RunResult {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
}

/// Print each fixed rate's latencies and require that the generator kept
/// its schedule.  Overloaded frames are counted as failed, not as wrong:
/// a server that slows down until it sheds is slower, not incorrect.
fn check_rates(fixed: &serve::FixedRates, checks: &mut Checks) {
    for (name, r) in [("low", &fixed.low), ("high", &fixed.high)] {
        println!(
            "admitd {name}: {} frames, p50 {:.1} us, p99 {:.1} us over all {} samples \
             ({} beyond p99); first quartile of {} windows, scaled by the host slowdown in an \
             untraced run: p50 {:.1} us, p99 {:.1} us; \
             generator late p99 {:.1} us; {} failed (overload, error or unanswered)",
            r.sent,
            r.all_p50_us,
            r.all_p99_us,
            r.samples,
            r.beyond_p99,
            r.windows,
            r.p50_us,
            r.p99_us,
            r.late_p99_us,
            r.failed
        );
        checks.require(
            r.late_p99_us * 1e3 <= serve::LIMIT_NS as f64,
            &format!("admitd {name}: generator kept its schedule (run invalid if late)"),
        );
    }
}

/// The untraced run: after untimed warm-up and checks, rounds that each
/// time one set-up, one sweep run, one metro run, and one `low` and one
/// `high` slice of the admitd stream, with the host's slowdown measured
/// between phases.
/// Spreading every phase over the whole run keeps a slow stretch of the
/// host from landing on one phase only; each metric is a median over
/// rounds (or windows) of measurements scaled to the reference host speed
/// by the slowdown measured just before and just after them.
fn run_untraced(w: &Workload, args: &Args, checks: &mut Checks) -> RunResult {
    let rounds = rounds(args.seconds);
    let (n_low, n_high) = slice_frames(args.seconds, rounds);
    let mut sweep = batch::SweepBench::prepare(&w.sweep, checks);
    let mut metro = batch::MetroBench::default();
    let stream = serve::generate(
        &w.admitd,
        rounds * (n_low + n_high),
        phase_seed(args.seed, 3),
    );
    let mut session = serve::Session::start(&w.admitd, None);
    // Raw measurements, and the slowdowns measured between them.
    let (mut setups, mut sweeps, mut metros) = (Vec::new(), Vec::new(), Vec::new());
    let mut slowdowns = vec![calib::slowdown()];
    for _ in 0..rounds {
        setups.push(time_setup(w));
        slowdowns.push(calib::slowdown());
        sweeps.push(sweep.time_run(&w.sweep, checks));
        slowdowns.push(calib::slowdown());
        metros.push(metro.time_run(&w.metro, checks));
        slowdowns.push(calib::slowdown());
        session.offer(&stream, serve::Rate::Low, n_low);
        session.offer(&stream, serve::Rate::High, n_high);
        slowdowns.push(calib::slowdown());
    }
    // The slowdown around phase `phase` (0 to 3) of round `round`.
    let around = |round: usize, phase: usize| {
        let i = 4 * round + phase;
        (slowdowns[i] + slowdowns[i + 1]) / 2.0
    };
    // Times are divided by the slowdown around them, rates multiplied.
    let scaled = |f: &dyn Fn(usize) -> f64| median(&(0..rounds).map(f).collect::<Vec<_>>());
    let setup_s = scaled(&|r| setups[r] / around(r, 0));
    let cells_per_s = scaled(&|r| sweeps[r] * around(r, 1));
    let events_per_s = scaled(&|r| metros[r] * around(r, 2));
    let admitd_slowdowns: Vec<f64> = (0..rounds).map(|r| around(r, 3)).collect();
    let fixed = session.finish(&stream, &admitd_slowdowns, checks);
    let metro_run = metro.finish(&w.metro, checks);
    println!(
        "host slowdown against the reference speed: median {:.3}, range {:.3} to {:.3} \
         over {} measurements",
        median(&slowdowns),
        slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
        slowdowns.iter().copied().fold(0.0, f64::max),
        slowdowns.len()
    );
    println!(
        "setup: {setup_s:.3} s at the reference speed ({:.3} s measured)",
        median(&setups)
    );
    println!(
        "sweep {}: {} cells x {} runs, {cells_per_s:.0} cells/s at the reference speed \
         ({:.0} measured), report digest {:016x}",
        w.sweep.name,
        sweep.cells,
        sweeps.len(),
        median(&sweeps),
        sweep.digest
    );
    println!(
        "metro: {} events, {} peak users x {} runs, {events_per_s:.0} events/s at the \
         reference speed ({:.0} measured), report digest {:016x}",
        metro_run.events,
        metro_run.peak_users,
        metros.len(),
        median(&metros),
        metro_run.digest
    );
    check_rates(&fixed, checks);
    println!("admitd: response digest {:016x}", fixed.digest);
    let mut metrics = Metrics::default();
    metrics.put("setup_s", setup_s, "s");
    metrics.put("peak_rss_mb", stats::peak_rss_mib(), "MiB");
    metrics.put("sweep_cells_per_s", cells_per_s, "cells/s");
    metrics.put("metro_events_per_s", events_per_s, "events/s");
    metrics.put("p50_us.low", fixed.low.p50_us, "us");
    metrics.put("p50_us.high", fixed.high.p50_us, "us");
    RunResult {
        metrics,
        attempted: (sweep.cells * (sweeps.len() + 2)) as u64
            + (metros.len() + 2) as u64
            + (fixed.low.sent + fixed.high.sent) as u64,
        failed: (fixed.low.failed + fixed.high.failed) as u64,
    }
}

/// ns per arrival of the traffic generator for `config`'s traffic model.
fn arrival_ns(config: &SimConfig, n: usize) -> f64 {
    let mut generator =
        TrafficGenerator::with_model(config.traffic.clone(), &config.traffic_model, config.seed);
    let mut out: Vec<CallRequest> = Vec::new();
    let t = std::time::Instant::now();
    generator.generate_poisson_into(n, &mut out);
    std::hint::black_box(&out);
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Time the fuzzy layer on recorded FACS-P inputs: FLC1, compiled FLC2 and
/// the FLC2 LUT, in ns per call.
fn fuzzy_replay(inputs: &[trace::FlcInput]) -> (f64, f64, f64) {
    if inputs.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let flc1 = facs::Flc1::paper_default().expect("paper FLC1");
    let flc2 = facs::Flc2::paper_default().expect("paper FLC2");
    let lut = facs::Flc2Lut::paper_shared();
    let n = inputs.len() as f64;
    let t = std::time::Instant::now();
    let cvs: Vec<f64> = inputs
        .iter()
        .map(|i| flc1.correction_value(i.speed_kmh, i.angle_deg, i.request_bu))
        .collect();
    let flc1_ns = t.elapsed().as_nanos() as f64 / n;
    let t = std::time::Instant::now();
    for (i, &cv) in inputs.iter().zip(&cvs) {
        std::hint::black_box(flc2.decision_value(cv, i.request_bu, i.counter_state_bu));
    }
    let flc2_ns = t.elapsed().as_nanos() as f64 / n;
    let t = std::time::Instant::now();
    for (i, &cv) in inputs.iter().zip(&cvs) {
        std::hint::black_box(lut.decision_value(cv, i.request_bu, i.counter_state_bu));
    }
    (flc1_ns, flc2_ns, t.elapsed().as_nanos() as f64 / n)
}

fn put_controller(m: &mut Metrics, phase: &str, c: &ControllerTotals, worker_s: f64) {
    m.put(
        &format!("controller.decide_calls.{phase}"),
        c.decisions() as f64,
        "count",
    );
    m.put(
        &format!("controller.decide_ns.{phase}"),
        c.ns_per_decision(),
        "ns",
    );
    m.put(
        &format!("controller.busy_frac.{phase}"),
        ratio(c.busy_ns() as f64 / 1e9, worker_s),
        "ratio",
    );
    m.put(
        &format!("fuzzy.calls.{phase}"),
        c.fuzzy_decisions as f64,
        "count",
    );
}

fn run_traced(w: &Workload, args: &Args, checks: &mut Checks) -> RunResult {
    use batch::{counter, histogram, span};
    let mut log = SpanLog::new();
    let root = log.open("run", None);

    let (sweep, _) = log.time("sweep", Some(root), || batch::trace_sweep(&w.sweep, checks));
    let (metro, _) = log.time("metro", Some(root), || batch::trace_metro(&w.metro, checks));

    let admitd_span = log.open("admitd", Some(root));
    let (n_low, n_high) = slice_frames(args.seconds, rounds(args.seconds));
    let (stream, _) = log.time("admitd.generate", Some(admitd_span), || {
        serve::generate(
            &w.admitd,
            (n_low + n_high).max(serve::PROBE_MAX_FRAMES),
            phase_seed(args.seed, 3),
        )
    });
    let sink = trace::sink();
    let (fixed, _) = log.time("admitd.fixed_rates", Some(admitd_span), || {
        let mut session = serve::Session::start(&w.admitd, Some(&sink));
        session.offer(&stream, serve::Rate::Low, n_low);
        session.offer(&stream, serve::Rate::High, n_high);
        session.finish(&stream, &[1.0], checks)
    });
    check_rates(&fixed, checks);
    let admitd_ctl = fixed.controller.clone().unwrap_or_default();
    let split = n_low + n_high;
    let (costs, _) = log.time("admitd.layer_replay", Some(admitd_span), || {
        serve::layer_costs(
            &w.admitd,
            &stream.frames[..split],
            &stream.time_s[..split],
            &stream.expected[..split],
            checks,
        )
    });
    let ((slo_rps, probes, shed), _) = log.time("admitd.slo_search", Some(admitd_span), || {
        serve::slo_search(&w.admitd, &stream, checks)
    });
    println!(
        "admitd: response digest {:016x}; slo search probes (rate, pass, p99 us): {probes:?}, \
         {shed} frames shed",
        fixed.digest
    );
    log.close(admitd_span);

    let mut inputs = sweep.controller.inputs.clone();
    inputs.extend_from_slice(&admitd_ctl.inputs);
    let ((flc1_ns, flc2_ns, lut_ns), _) =
        log.time("fuzzy.replay", Some(root), || fuzzy_replay(&inputs));

    let sweep_config =
        w.sweep
            .sim_config(&w.sweep.controllers[0], w.sweep.load_points.len() - 1, 0);
    let admitd_config = SimConfig::paper_default()
        .with_traffic(w.admitd.traffic.clone())
        .with_traffic_model(w.admitd.model.clone())
        .with_seed(phase_seed(args.seed, 3));
    log.close(root);

    let mut m = Metrics::default();
    m.put("fuzzy.flc1_ns", flc1_ns, "ns");
    m.put("fuzzy.flc2_ns", flc2_ns, "ns");
    m.put("fuzzy.flc2_lut_ns", lut_ns, "ns");
    m.put("fuzzy.replayed_inputs", inputs.len() as f64, "count");
    let threads = batch::WORKERS as f64;
    put_controller(&mut m, "sweep", &sweep.controller, sweep.traced_s * threads);
    put_controller(&mut m, "metro", &metro.controller, metro.traced_s * threads);
    put_controller(&mut m, "admitd", &admitd_ctl, fixed.offered_s);
    let answered = (fixed.low.samples + fixed.high.samples) as f64;
    m.put(
        "controller.decisions_per_frame",
        ratio(admitd_ctl.decisions() as f64, answered),
        "ratio",
    );

    m.put(
        "traffic.arrival_ns.sweep",
        arrival_ns(&sweep_config, 200_000),
        "ns",
    );
    m.put(
        "traffic.arrival_ns.metro",
        arrival_ns(&w.metro.config, w.metro.requests),
        "ns",
    );
    m.put(
        "traffic.arrival_ns.admitd",
        arrival_ns(&admitd_config, 200_000),
        "ns",
    );

    let sim = &sweep.sim;
    let events = counter(sim, "sim_events_total", None);
    m.put("sim.events", events as f64, "count");
    m.put(
        "sim.self_ns_per_event",
        ratio(
            sweep.sim_run_ns.saturating_sub(sweep.controller.busy_ns()) as f64,
            events as f64,
        ),
        "ns",
    );
    for kind in ["arrival", "departure", "handoff", "mobility_tick"] {
        m.put(
            &format!("sim.events.{kind}"),
            counter(sim, "sim_events_total", Some(("kind", kind))) as f64,
            "count",
        );
    }

    let shard = &metro.telemetry;
    let parallel_ns = span(shard, "shard_parallel_phase_ns").1;
    let (epochs, merge_ns) = span(shard, "shard_merge_phase_ns");
    let (imbalance_n, imbalance_sum) = histogram(shard, "shard_epoch_imbalance_permille");
    let shard_busy_ns = histogram(shard, "shard_epoch_ns").1;
    m.put("shard.parallel_s", parallel_ns as f64 / 1e9, "s");
    m.put("shard.merge_s", merge_ns as f64 / 1e9, "s");
    m.put("shard.epochs", epochs as f64, "count");
    m.put(
        "shard.imbalance_permille",
        ratio(imbalance_sum as f64, imbalance_n as f64),
        "permille",
    );
    m.put(
        "shard.cross_shard_handoffs",
        counter(shard, "shard_merge_tasks_total", Some(("kind", "handoff"))) as f64,
        "count",
    );
    m.put(
        "shard.worker_busy_frac",
        ratio(shard_busy_ns as f64, parallel_ns as f64 * threads),
        "ratio",
    );

    m.put("sweep.worker_busy_frac", sweep.worker_busy_frac, "ratio");
    m.put("sweep.aggregate_s", sweep.aggregate_s, "s");

    m.put("wire.encode_ns", costs.encode_ns, "ns");
    m.put("wire.decode_ns", costs.decode_ns, "ns");
    m.put("state.process_ns_per_frame", costs.process_ns, "ns");
    let world = &fixed.world;
    let batches = counter(world, "admitd_batches_total", None);
    let (batch_n, batch_sum) = histogram(world, "admitd_batch_size");
    m.put("state.batches", batches as f64, "count");
    m.put(
        "state.mean_batch_size",
        ratio(batch_sum as f64, batch_n as f64),
        "count",
    );
    m.put(
        "state.expired",
        counter(world, "admitd_expired_releases_total", None) as f64,
        "count",
    );
    m.put(
        "server.residual_ns_per_frame",
        fixed.low.all_p50_us * 1e3 - costs.path_ns(),
        "ns",
    );
    m.put(
        "server.overloaded",
        fixed.summary.overloaded as f64,
        "count",
    );
    // p99 and the rate at the p99 limit ride on host stalls (see the
    // README), so they are reported here, without a bound, rather than as
    // end-to-end metrics.
    m.put("admitd.p99_us.low", fixed.low.p99_us, "us");
    m.put("admitd.p99_us.high", fixed.high.p99_us, "us");
    m.put("admitd.slo_rps", slo_rps, "frames/s");

    m.put(
        "trace.overhead_frac",
        ratio(
            sweep.traced_s + metro.traced_s,
            sweep.untraced_s + metro.untraced_s,
        ) - 1.0,
        "ratio",
    );

    let dir = std::path::Path::new("perfbench/trace");
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, log.to_json())) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
    }
    RunResult {
        metrics: m,
        attempted: (3 * sweep.cells) as u64 + 3 + (fixed.low.sent + fixed.high.sent) as u64,
        failed: (fixed.low.failed + fixed.high.failed) as u64,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(w) = workload(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload `{}`\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} on {} cores",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sweep::host_parallelism()
    );
    let mut checks = Checks::default();
    let result = if args.trace {
        run_traced(&w, &args, &mut checks)
    } else {
        run_untraced(&w, &args, &mut checks)
    };
    for failure in &checks.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let correct = checks.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.attempted.max(1),
        result.failed,
        result.metrics.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}
