//! Run a scenario spec end to end from the command line.
//!
//! ```text
//! sweep --scenario paper-default [--quick] [--threads N] [--seed N]
//!       [--json PATH] [--csv PATH] [--telemetry PATH] [--quiet]
//! sweep --spec experiment.json          # load a ScenarioSpec from JSON
//! sweep --all --quick                   # every built-in scenario
//! sweep --list                          # list built-in scenario names
//! sweep --print-spec highway-handoff    # dump a spec as editable JSON
//! sweep --scenario paper-default --trace calls.trace   # replay a trace
//! ```
//!
//! `--trace PATH` loads a measured arrival trace (one
//! `inter_arrival_s duration_s class` line per call — the
//! [`cellsim::parse_trace`] format) and replays it as every selected
//! scenario's traffic model in place of the synthetic generator.
//!
//! `--telemetry PATH` runs the grid with the instrumented recorder and
//! writes the merged telemetry snapshot — Prometheus text exposition when
//! the path ends in `.prom`, JSON otherwise.  Reports are byte-identical
//! with and without it.  A live progress line (cells done, cells/s, ETA)
//! is written to stderr when it is a terminal; `--quiet` suppresses it.

use std::io::IsTerminal;
use std::io::Write;
use std::process::ExitCode;
use sweep::{builtin, builtin_names, RunReport, ScenarioSpec, SweepProgress, SweepRunner};

struct Args {
    scenario: Option<String>,
    spec_path: Option<String>,
    all: bool,
    list: bool,
    print_spec: Option<String>,
    help: bool,
    quick: bool,
    threads: Option<usize>,
    seed: Option<u64>,
    json: Option<String>,
    csv: Option<String>,
    telemetry: Option<String>,
    trace: Option<String>,
    quiet: bool,
}

fn usage() -> String {
    format!(
        "usage: sweep (--scenario NAME | --spec PATH.json | --all | --list | --print-spec NAME)\n\
         \x20      [--quick] [--threads N] [--seed N] [--json PATH] [--csv PATH]\n\
         \x20      [--telemetry PATH(.prom|.json)] [--trace PATH] [--quiet]\n\
         built-in scenarios: {}",
        builtin_names().join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        scenario: None,
        spec_path: None,
        all: false,
        list: false,
        print_spec: None,
        help: false,
        quick: false,
        threads: None,
        seed: None,
        json: None,
        csv: None,
        telemetry: None,
        trace: None,
        quiet: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--scenario" => args.scenario = Some(value("--scenario")?),
            "--spec" => args.spec_path = Some(value("--spec")?),
            "--all" => args.all = true,
            "--list" => args.list = true,
            "--print-spec" => args.print_spec = Some(value("--print-spec")?),
            "--quick" => args.quick = true,
            "--threads" => {
                args.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                );
            }
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--json" => args.json = Some(value("--json")?),
            "--csv" => args.csv = Some(value("--csv")?),
            "--telemetry" => args.telemetry = Some(value("--telemetry")?),
            "--trace" => args.trace = Some(value("--trace")?),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                args.help = true;
                return Ok(args);
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

fn load_specs(args: &Args) -> Result<Vec<ScenarioSpec>, String> {
    if args.all {
        return Ok(sweep::all_builtins());
    }
    if let Some(path) = &args.spec_path {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
        return Ok(vec![
            ScenarioSpec::from_json(&text).map_err(|e| e.to_string())?
        ]);
    }
    if let Some(name) = &args.scenario {
        return builtin(name).map(|s| vec![s]).ok_or_else(|| {
            format!(
                "unknown scenario `{name}`; built-ins: {}",
                builtin_names().join(", ")
            )
        });
    }
    Err(usage())
}

/// Load a `--trace` file into a replayable traffic model.
///
/// Errors carry the path plus the parser's own diagnosis (which names
/// the offending line), so a malformed trace fails with a message the
/// user can act on rather than a bare parse error.
fn load_trace(path: &str) -> Result<cellsim::TraceConfig, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("could not read trace {path}: {e}"))?;
    cellsim::TraceConfig::from_text(&text).map_err(|e| format!("invalid trace {path}: {e}"))
}

fn write_or_die(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("could not write {path}: {e}"))
}

/// With one scenario the output paths are used as-is; with several, each
/// report goes to `<stem>-<scenario>.<ext>` so nothing is overwritten.
/// Only the file name's extension is split — dots in directory components
/// are left alone.
fn output_path(template: &str, scenario: &str, many: bool) -> String {
    if !many {
        return template.to_string();
    }
    let path = std::path::Path::new(template);
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "report".to_string());
    let suffix = match path.extension() {
        Some(ext) => format!("{stem}-{scenario}.{}", ext.to_string_lossy()),
        None => format!("{stem}-{scenario}"),
    };
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir.join(suffix).to_string_lossy().into_owned(),
        _ => suffix,
    }
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;

    if args.help {
        println!("{}", usage());
        return Ok(());
    }
    if args.list {
        for name in builtin_names() {
            let spec = builtin(name).expect("listed names are built-ins");
            println!("{name:<20} {}", spec.description);
        }
        return Ok(());
    }
    if let Some(name) = &args.print_spec {
        let spec = builtin(name).ok_or_else(|| format!("unknown scenario `{name}`"))?;
        println!("{}", spec.to_json());
        return Ok(());
    }

    let mut specs = load_specs(&args)?;
    let many = specs.len() > 1;
    let trace = args.trace.as_deref().map(load_trace).transpose()?;
    for spec in &mut specs {
        if args.quick {
            *spec = spec.clone().quick();
        }
        if let Some(seed) = args.seed {
            *spec = spec.clone().with_base_seed(seed);
        }
        if let Some(config) = &trace {
            spec.traffic_model = cellsim::TrafficModel::Trace(config.clone());
        }
    }

    let runner = match args.threads {
        Some(n) => SweepRunner::with_threads(n),
        None => SweepRunner::new(),
    };
    let show_progress = !args.quiet && std::io::stderr().is_terminal();
    let progress = |p: SweepProgress| {
        let eta = match p.eta_s() {
            Some(eta) => format!("{eta:.0}s"),
            None => "?".to_string(),
        };
        eprint!(
            "\r{}/{} cells  {:.1} cells/s  ETA {eta}   ",
            p.done,
            p.total,
            p.cells_per_sec()
        );
        let _ = std::io::stderr().flush();
    };
    for spec in &specs {
        let (report, telemetry): (RunReport, _) = if args.telemetry.is_some() {
            let (report, snapshot) = runner
                .run_instrumented(spec, show_progress.then_some(&progress as _))
                .map_err(|e| e.to_string())?;
            (report, Some(snapshot))
        } else if show_progress {
            let report = runner
                .run_with_progress(spec, &progress)
                .map_err(|e| e.to_string())?;
            (report, None)
        } else {
            (runner.run(spec).map_err(|e| e.to_string())?, None)
        };
        if show_progress {
            eprintln!();
        }
        if report.is_empty() {
            return Err(format!("scenario `{}` produced an empty report", spec.name));
        }
        println!("{}", report.render_table());
        if let Some(path) = &args.json {
            write_or_die(&output_path(path, &spec.name, many), &report.to_json())?;
        }
        if let Some(path) = &args.csv {
            write_or_die(&output_path(path, &spec.name, many), &report.to_csv())?;
        }
        if let (Some(path), Some(snapshot)) = (&args.telemetry, &telemetry) {
            let path = output_path(path, &spec.name, many);
            let text = if path.ends_with(".prom") {
                snapshot.to_prometheus()
            } else {
                snapshot.to_json()
            };
            write_or_die(&path, &text)?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_scenario_uses_the_template_verbatim() {
        assert_eq!(output_path("out.json", "paper-default", false), "out.json");
    }

    #[test]
    fn multi_scenario_suffixes_only_the_file_name() {
        assert_eq!(
            output_path("out.json", "flash-crowd", true),
            "out-flash-crowd.json"
        );
        assert_eq!(
            output_path("results.v1/report.csv", "flash-crowd", true),
            "results.v1/report-flash-crowd.csv"
        );
        assert_eq!(
            output_path("./report", "flash-crowd", true),
            "./report-flash-crowd"
        );
        assert_eq!(output_path("report", "x", true), "report-x");
    }

    #[test]
    fn usage_names_every_builtin_scenario() {
        let text = usage();
        for name in builtin_names() {
            assert!(text.contains(name), "usage omits `{name}`:\n{text}");
        }
    }

    #[test]
    fn help_flag_parses_as_a_success() {
        let args = parse_args(&["--help".to_string()]).unwrap();
        assert!(args.help);
        assert!(parse_args(&["--bogus".to_string()]).is_err());
    }

    #[test]
    fn trace_flag_parses() {
        let argv: Vec<String> = ["--scenario", "paper-default", "--trace", "calls.trace"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.trace.as_deref(), Some("calls.trace"));
        assert!(parse_args(&["--trace".to_string()]).is_err());
    }

    #[test]
    fn trace_loader_reads_a_valid_file() {
        let path = std::env::temp_dir().join("sweep-trace-valid.trace");
        std::fs::write(
            &path,
            "# gap duration class\n0.0 120.0 voice\n1.5 300.0 video\n",
        )
        .unwrap();
        let config = load_trace(path.to_str().unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(config.entries.len(), 2);
        assert!(config.loop_replay);
    }

    #[test]
    fn trace_loader_names_the_file_and_line_of_a_malformed_entry() {
        let path = std::env::temp_dir().join("sweep-trace-malformed.trace");
        std::fs::write(&path, "0.0 120.0 voice\n1.0 oops video\n").unwrap();
        let err = load_trace(path.to_str().unwrap()).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            err.contains("sweep-trace-malformed.trace"),
            "error must name the file: {err}"
        );
        assert!(err.contains("line 2"), "error must name the line: {err}");

        let missing = load_trace("/nonexistent/calls.trace").unwrap_err();
        assert!(missing.contains("could not read trace"), "{missing}");
    }

    #[test]
    fn telemetry_and_quiet_flags_parse() {
        let argv: Vec<String> = [
            "--scenario",
            "paper-default",
            "--telemetry",
            "t.prom",
            "--quiet",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.telemetry.as_deref(), Some("t.prom"));
        assert!(args.quiet);
        assert!(parse_args(&["--telemetry".to_string()]).is_err());
    }
}
