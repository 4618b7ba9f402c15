//! The `admitd` binary: serve admission decisions, bench a running
//! server, or lint a scraped metrics exposition.
//!
//! ```text
//! admitd serve [--addr H:P] [--controller NAME] [--scenario NAME]
//!              [--grid-radius N] [--cell-radius M] [--capacity BU]
//!              [--shards N] [--max-pending N] [--chaos SEED]
//!              [--snapshot PATH] [--snapshot-every SECS]
//!              [--restore PATH] [--release-on-disconnect]
//! admitd bench [--addr H:P] [--scenario NAME] [--connections N]
//!              [--requests N] [--seed N] [--retries N]
//!              [--deadline-ms MS] [--json]
//! admitd check-metrics PATH
//! ```
//!
//! `serve` runs until SIGINT/SIGTERM (installed via a raw `signal(2)`
//! binding — the workspace is offline, so no signal crate), then joins
//! every connection, logs a state summary and exits 0.  `--chaos`,
//! `--snapshot`/`--restore` and `--release-on-disconnect` are the
//! robustness toolkit documented in `docs/FAULTS.md`.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use admitd::{
    client, parse_controller, ChaosConfig, RestoreError, Server, ServerConfig, World, WorldConfig,
};
use cellsim::SimConfig;
use sweep::{builtin, builtin_names, ControllerSpec};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "serve" => cmd_serve(rest),
        "bench" => cmd_bench(rest),
        "check-metrics" => cmd_check_metrics(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("admitd: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
admitd — admission control as a service

USAGE:
    admitd serve [--addr HOST:PORT] [--controller NAME] [--scenario NAME]
                 [--grid-radius N] [--cell-radius METRES] [--capacity BU]
                 [--shards N] [--max-pending N] [--chaos SEED]
                 [--snapshot PATH] [--snapshot-every SECS]
                 [--restore PATH] [--release-on-disconnect]
    admitd bench [--addr HOST:PORT] [--scenario NAME] [--connections N]
                 [--requests N] [--seed N] [--retries N]
                 [--deadline-ms MS] [--json]
    admitd check-metrics PATH

Controllers: facs-p (default), facs-p-lut, facs, scc, always-accept,
threshold:NEW/HANDOFF.  --scenario adopts a built-in sweep scenario's
grid/capacity (serve) or arrival stream (bench).

Robustness (docs/FAULTS.md): --chaos injects seeded connection resets,
delays and truncated frames server-side; --snapshot checkpoints world
state every --snapshot-every seconds (and on shutdown) for --restore
after a crash; --release-on-disconnect frees a dropped client's calls.
bench survives all of it with --retries reconnect attempts per
connection and an optional per-request --deadline-ms.";

/// Pop `--flag VALUE` pairs from an argument list.
struct Args<'a> {
    rest: &'a [String],
    at: usize,
}

impl<'a> Args<'a> {
    fn new(rest: &'a [String]) -> Self {
        Self { rest, at: 0 }
    }

    fn next_flag(&mut self) -> Option<&'a str> {
        let flag = self.rest.get(self.at)?;
        self.at += 1;
        Some(flag.as_str())
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        let value = self
            .rest
            .get(self.at)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        self.at += 1;
        Ok(value.as_str())
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: `{raw}` is not a valid number"))
}

fn scenario_sim_config(name: &str, controller: &ControllerSpec) -> Result<SimConfig, String> {
    let spec = builtin(name).ok_or_else(|| {
        format!(
            "unknown scenario `{name}` (built-ins: {})",
            builtin_names().join(", ")
        )
    })?;
    Ok(spec.sim_config(controller, 0, 0))
}

fn cmd_serve(rest: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:4640".to_string();
    let mut controller = ControllerSpec::FacsP;
    let mut world_config = WorldConfig::paper_default();
    let mut server_config = ServerConfig::default();
    let mut scenario: Option<String> = None;
    let mut restore: Option<String> = None;
    let mut args = Args::new(rest);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--addr" => addr = args.value(flag)?.to_string(),
            "--controller" => controller = parse_controller(args.value(flag)?)?,
            "--scenario" => scenario = Some(args.value(flag)?.to_string()),
            "--grid-radius" => {
                world_config.grid_radius_cells = parse_num(flag, args.value(flag)?)?;
            }
            "--cell-radius" => world_config.cell_radius_m = parse_num(flag, args.value(flag)?)?,
            "--capacity" => world_config.station_capacity = parse_num(flag, args.value(flag)?)?,
            "--shards" => world_config.shards = parse_num(flag, args.value(flag)?)?,
            "--max-pending" => {
                server_config.max_pending = parse_num::<usize>(flag, args.value(flag)?)?.max(1);
            }
            "--chaos" => {
                server_config.chaos =
                    Some(ChaosConfig::with_seed(parse_num(flag, args.value(flag)?)?));
            }
            "--snapshot" => {
                server_config.snapshot_path = Some(args.value(flag)?.into());
            }
            "--snapshot-every" => {
                let secs: f64 = parse_num(flag, args.value(flag)?)?;
                if !(secs >= 0.0 && secs.is_finite()) {
                    return Err(format!("{flag}: `{secs}` is not a valid interval"));
                }
                server_config.snapshot_every = Duration::from_secs_f64(secs);
            }
            "--restore" => restore = Some(args.value(flag)?.to_string()),
            "--release-on-disconnect" => server_config.release_on_disconnect = true,
            other => return Err(format!("unknown serve flag `{other}`\n{USAGE}")),
        }
    }
    if let Some(name) = &scenario {
        let sim = scenario_sim_config(name, &controller)?;
        let shards = world_config.shards;
        world_config = WorldConfig::from_sim_config(&sim, shards);
    }

    install_signal_handlers();

    let world = Arc::new(World::new(&world_config, &controller.label(), || {
        controller.build()
    }));
    if let Some(path) = &restore {
        let snapshot = admitd::state::load_snapshot(std::path::Path::new(path))?;
        let restored = world.restore(&snapshot).map_err(|e| match e {
            RestoreError::Shape { .. } => {
                // Lock sharding never changes a snapshot's cell count; only
                // the grid does.
                format!(
                    "cannot restore {path}: {e} (was the snapshot taken with a \
                     different --grid-radius or --scenario?)"
                )
            }
            RestoreError::Invalid { .. } => format!("cannot restore {path}: {e}"),
        })?;
        println!(
            "admitd: restored {restored} live connections from {path} \
             (snapshot taken under {})",
            snapshot.controller
        );
    }
    let server = Server::bind(Arc::clone(&world), &addr, server_config)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let bound = server
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;
    println!(
        "admitd: serving {} cells ({} shards) with {} on {bound}",
        world.grid().len(),
        world_config.shards.clamp(1, world.grid().len()),
        controller.label(),
    );
    let summary = server.run().map_err(|e| format!("server error: {e}"))?;
    let state = world.state();
    println!(
        "admitd: shutdown complete — {summary}; {} BU occupied across {} cells",
        state.occupied_total, state.cells
    );
    Ok(())
}

fn cmd_bench(rest: &[String]) -> Result<(), String> {
    let mut config = client::BenchConfig {
        addr: "127.0.0.1:4640".to_string(),
        connections: 4,
        requests_per_connection: 25_000,
        sim: SimConfig::paper_default(),
        retry: client::RetryConfig::default(),
    };
    let mut controller = ControllerSpec::FacsP;
    let mut scenario: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut json = false;
    let mut args = Args::new(rest);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--addr" => config.addr = args.value(flag)?.to_string(),
            "--scenario" => scenario = Some(args.value(flag)?.to_string()),
            "--controller" => controller = parse_controller(args.value(flag)?)?,
            "--connections" => {
                config.connections = parse_num::<usize>(flag, args.value(flag)?)?.max(1);
            }
            "--requests" => {
                config.requests_per_connection =
                    parse_num::<usize>(flag, args.value(flag)?)?.max(1);
            }
            "--seed" => seed = Some(parse_num(flag, args.value(flag)?)?),
            "--retries" => {
                let retries: u32 = parse_num(flag, args.value(flag)?)?;
                config.retry.max_attempts = retries.saturating_add(1);
            }
            "--deadline-ms" => {
                let ms: u64 = parse_num(flag, args.value(flag)?)?;
                if ms == 0 {
                    return Err(format!("{flag}: the deadline must be positive"));
                }
                config.retry.deadline = Some(Duration::from_millis(ms));
            }
            "--json" => json = true,
            other => return Err(format!("unknown bench flag `{other}`\n{USAGE}")),
        }
    }
    if let Some(name) = &scenario {
        config.sim = scenario_sim_config(name, &controller)?;
    }
    if let Some(seed) = seed {
        config.sim.seed = seed;
    }
    let report = client::run(&config).map_err(|e| format!("bench failed: {e}"))?;
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        println!(
            "admitd bench: {} requests over {} connections in {:.3}s — {:.0} req/s \
             ({} accepted, {} rejected, {} overloaded, {} errors, {} reconnects), \
             latency p50 ≤ {}ns p99 ≤ {}ns",
            report.requests,
            report.connections,
            report.elapsed_s,
            report.requests_per_sec,
            report.accepted,
            report.rejected,
            report.overloaded,
            report.errors,
            report.reconnects,
            report.latency_p50_ns,
            report.latency_p99_ns,
        );
    }
    if report.requests > 0 && report.errors == report.requests {
        return Err("every request errored".to_string());
    }
    Ok(())
}

fn cmd_check_metrics(rest: &[String]) -> Result<(), String> {
    let [path] = rest else {
        return Err("check-metrics takes exactly one PATH".to_string());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    telemetry::lint_prometheus(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("admitd: {path} is valid Prometheus text exposition");
    Ok(())
}

/// Route SIGINT and SIGTERM to [`admitd::server::request_shutdown`].
///
/// The workspace vendors no signal crate, so this binds `signal(2)`
/// directly; `std` already links libc on every Unix target.  The
/// handler body is a single atomic store — async-signal-safe.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        admitd::server::request_shutdown();
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// No signal wiring off Unix; ctrl-c terminates the process directly.
#[cfg(not(unix))]
fn install_signal_handlers() {}
