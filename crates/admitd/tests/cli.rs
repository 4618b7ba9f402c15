//! Exit-code and error-message contract of the `admitd` binary: every
//! operator mistake (dead server, missing file, bad flag) must exit
//! nonzero with a message that names the problem, never a panic or a
//! silent success.

use admitd::{state, World, WorldConfig};
use std::process::{Command, Output};
use sweep::ControllerSpec;

fn admitd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_admitd"))
        .args(args)
        .output()
        .expect("spawn admitd")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// A loopback port with nothing listening on it: bind, read the port,
/// drop the listener.
fn dead_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .expect("bind probe")
        .local_addr()
        .expect("probe addr")
        .port()
}

#[test]
fn bench_against_unreachable_server_exits_nonzero_with_context() {
    let addr = format!("127.0.0.1:{}", dead_port());
    let out = admitd(&["bench", "--addr", &addr, "--requests", "10"]);
    assert!(!out.status.success(), "bench must fail without a server");
    let err = stderr(&out);
    assert!(err.contains("admitd:"), "prefixed for scripts: {err}");
    assert!(
        err.contains(&addr) && err.contains("is `admitd serve` running"),
        "error must say where it tried and hint at the fix: {err}"
    );
}

#[test]
fn bench_retries_report_the_attempt_count() {
    let addr = format!("127.0.0.1:{}", dead_port());
    let out = admitd(&[
        "bench",
        "--addr",
        &addr,
        "--requests",
        "10",
        "--retries",
        "2",
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("failed after 3 attempt(s)"),
        "attempt count (1 try + 2 retries) missing: {}",
        stderr(&out)
    );
}

#[test]
fn check_metrics_on_missing_file_exits_nonzero() {
    let out = admitd(&["check-metrics", "/nonexistent/metrics.prom"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("cannot read") && err.contains("/nonexistent/metrics.prom"),
        "must name the unreadable file: {err}"
    );
}

#[test]
fn serve_with_missing_restore_file_exits_nonzero() {
    let out = admitd(&["serve", "--restore", "/nonexistent/world.json"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("cannot read snapshot"),
        "must explain the failed restore: {}",
        stderr(&out)
    );
}

#[test]
fn restoring_onto_a_different_grid_names_the_grid_flag() {
    let config = WorldConfig {
        grid_radius_cells: 1,
        ..WorldConfig::paper_default()
    };
    let world = World::new(&config, "always-accept", || {
        ControllerSpec::AlwaysAccept.build()
    });
    let path = std::env::temp_dir().join(format!("admitd-cli-r1-{}.json", std::process::id()));
    state::save_snapshot(&world, &path).expect("write snapshot");
    let out = admitd(&[
        "serve",
        "--grid-radius",
        "2",
        "--restore",
        path.to_str().expect("utf-8 temp path"),
    ]);
    std::fs::remove_file(&path).ok();
    assert!(
        !out.status.success(),
        "a 7-cell snapshot cannot seed 19 cells"
    );
    let err = stderr(&out);
    assert!(
        err.contains("--grid-radius"),
        "hint must name the grid: {err}"
    );
}

#[test]
fn bad_invocations_exit_nonzero_with_usage_or_reason() {
    for (args, want) in [
        (vec!["frobnicate"], "unknown command"),
        (vec!["serve", "--chaos"], "--chaos"),
        (vec!["serve", "--shards", "2"], "serve flag `--shards`"),
        (vec!["serve", "--snapshot-every", "-1"], "--snapshot-every"),
        (vec!["bench", "--deadline-ms", "0"], "--deadline-ms"),
        (vec!["bench", "--connections", "zero"], "--connections"),
    ] {
        let out = admitd(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr(&out).contains(want),
            "{args:?} must mention `{want}`: {}",
            stderr(&out)
        );
    }
    let out = admitd(&[]);
    assert!(!out.status.success(), "no command is an error");
}

#[test]
fn help_exits_zero_and_documents_the_robustness_flags() {
    let out = admitd(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    for flag in [
        "--chaos",
        "--snapshot",
        "--restore",
        "--release-on-disconnect",
        "--retries",
        "--deadline-ms",
    ] {
        assert!(text.contains(flag), "usage must document {flag}");
    }
}
