//! Robustness end to end: the bench client must complete through
//! server-side chaos, disconnect releases must free abandoned calls,
//! and a snapshot taken before a SIGKILL must restore the exact
//! per-cell occupancy in a fresh process.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use admitd::chaos::ChaosConfig;
use admitd::client::{self, RetryConfig};
use admitd::state;
use admitd::wire::{self, AdmitFrame, Request, Status};
use admitd::{Server, ServerConfig, World, WorldConfig, WorldSnapshot};
use cellsim::{ServiceClass, SimConfig};
use sweep::ControllerSpec;

fn start_server(world_config: &WorldConfig, spec: ControllerSpec, config: ServerConfig) -> Running {
    let world = Arc::new(World::new(world_config, &spec.label(), || spec.build()));
    let server = Server::bind(Arc::clone(&world), "127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    Running {
        addr,
        shutdown,
        handle,
        world,
    }
}

struct Running {
    addr: std::net::SocketAddr,
    shutdown: Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<admitd::ServerSummary>,
    world: Arc<World>,
}

impl Running {
    fn stop(self) -> admitd::ServerSummary {
        self.shutdown
            .store(true, std::sync::atomic::Ordering::SeqCst);
        self.handle.join().expect("server thread")
    }
}

fn admit(cell: u32, id: u64, holding: f64) -> Request {
    Request::Admit(AdmitFrame {
        cell,
        id,
        class: ServiceClass::Voice,
        is_handoff: false,
        bandwidth: 5,
        time: 0.0,
        holding_time: holding,
        speed_kmh: 30.0,
        angle_deg: 0.0,
        distance_m: Some(250.0),
    })
}

/// The bench client must finish a replay — every frame acknowledged
/// exactly once — against a server that resets, delays and truncates
/// its responses, by backing off and reconnecting transparently.
#[test]
fn bench_completes_through_chaos() {
    let running = start_server(
        &WorldConfig::paper_default(),
        ControllerSpec::FacsPLut,
        ServerConfig {
            chaos: Some(ChaosConfig::with_seed(0xC4A05)),
            ..ServerConfig::default()
        },
    );
    let config = client::BenchConfig {
        addr: running.addr.to_string(),
        connections: 2,
        requests_per_connection: 800,
        sim: SimConfig::paper_default(),
        retry: RetryConfig {
            max_attempts: 64,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            deadline: Some(Duration::from_secs(5)),
            seed: 0x7E57,
        },
    };
    let report = client::run(&config).expect("bench must survive chaos");
    assert_eq!(report.requests, 1600, "every frame acknowledged once");
    assert_eq!(
        report.accepted + report.rejected + report.overloaded + report.errors,
        report.requests
    );
    assert!(
        report.reconnects > 0,
        "the chaos profile must actually cut connections"
    );
    running.stop();
}

/// Without retries the same chaos profile kills the run — proving the
/// resilience comes from the client policy, not from a soft server.
#[test]
fn chaos_without_retries_fails_fast_with_context() {
    let running = start_server(
        &WorldConfig::paper_default(),
        ControllerSpec::AlwaysAccept,
        ServerConfig {
            chaos: Some(ChaosConfig {
                reset_prob: 1.0, // every window dies
                ..ChaosConfig::with_seed(1)
            }),
            ..ServerConfig::default()
        },
    );
    let config = client::BenchConfig {
        addr: running.addr.to_string(),
        connections: 1,
        requests_per_connection: 200,
        sim: SimConfig::paper_default(),
        retry: RetryConfig::default(), // one attempt, the pre-chaos policy
    };
    let err = client::run(&config).expect_err("one attempt cannot survive 100% resets");
    assert!(
        err.to_string().contains("failed after 1 attempt"),
        "error must say what failed and how often: {err}"
    );
    running.stop();
}

/// `release_on_disconnect` frees whatever an abruptly dropped client
/// still held; with it off, the same workload leaks occupancy.
#[test]
fn disconnect_releases_abandoned_calls_only_when_enabled() {
    for (enabled, expect_occupied_after) in [(true, 0u32), (false, 15u32)] {
        let running = start_server(
            &WorldConfig::paper_default(),
            ControllerSpec::AlwaysAccept,
            ServerConfig {
                release_on_disconnect: enabled,
                ..ServerConfig::default()
            },
        );
        let mut stream = TcpStream::connect(running.addr).expect("connect");
        stream.write_all(&wire::MAGIC).expect("magic");
        let mut buf = Vec::new();
        for id in 0..3 {
            wire::encode_request(&admit(0, id, 1e6), &mut buf);
        }
        stream.write_all(&buf).expect("send admits");
        let mut response = [0u8; 4 + wire::RESPONSE_PAYLOAD_LEN];
        for _ in 0..3 {
            stream.read_exact(&mut response).expect("read response");
            let decoded = wire::decode_response(&response[4..]).expect("decode");
            assert_eq!(decoded.status, Status::Accept);
        }
        assert_eq!(running.world.occupied(0), Some(15));
        drop(stream);

        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let occupied = running.world.occupied(0).expect("origin cell");
            if occupied == expect_occupied_after {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "occupancy stuck at {occupied}, wanted {expect_occupied_after} \
                 (release_on_disconnect = {enabled})"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let summary = running.stop();
        assert_eq!(summary.connections, 1);
    }
}

/// An explicit client release must take the connection out of the
/// disconnect-cleanup set: dropping the client afterwards releases
/// only what it still held.
#[test]
fn explicit_releases_shrink_the_cleanup_set() {
    let running = start_server(
        &WorldConfig::paper_default(),
        ControllerSpec::AlwaysAccept,
        ServerConfig {
            release_on_disconnect: true,
            ..ServerConfig::default()
        },
    );
    let mut stream = TcpStream::connect(running.addr).expect("connect");
    stream.write_all(&wire::MAGIC).expect("magic");
    let mut buf = Vec::new();
    for id in 0..2 {
        wire::encode_request(&admit(0, id, 1e6), &mut buf);
    }
    wire::encode_request(
        &Request::Release(wire::ReleaseFrame {
            cell: 0,
            id: 0,
            time: 1.0,
        }),
        &mut buf,
    );
    stream.write_all(&buf).expect("send");
    let mut response = [0u8; 4 + wire::RESPONSE_PAYLOAD_LEN];
    for _ in 0..3 {
        stream.read_exact(&mut response).expect("read response");
    }
    assert_eq!(running.world.occupied(0), Some(5), "one call released");
    drop(stream);
    let deadline = Instant::now() + Duration::from_secs(5);
    while running.world.occupied(0) != Some(0) {
        assert!(Instant::now() < deadline, "abandoned call never freed");
        std::thread::sleep(Duration::from_millis(10));
    }
    running.stop();
}

/// `World::release_abandoned` itself: unknown ids and out-of-grid
/// cells are skipped, live ones freed and counted.
#[test]
fn release_abandoned_skips_what_is_already_gone() {
    let world = World::new(&WorldConfig::paper_default(), "always-accept", || {
        ControllerSpec::AlwaysAccept.build()
    });
    let mut out = Vec::new();
    world.process(&[admit(0, 1, 1e6), admit(0, 2, 1e6)], &mut out);
    assert!(out.iter().all(|r| r.status == Status::Accept));
    let freed = world.release_abandoned(&[(0, 1), (0, 999), (77, 1), (0, 2), (0, 2)]);
    assert_eq!(freed, 2);
    assert_eq!(world.occupied(0), Some(0));
}

/// Replayed admits (the at-least-once path after a reconnect) must be
/// answered idempotently: same Accept, no double occupancy.
#[test]
fn replayed_admits_are_idempotent() {
    let world = World::new(&WorldConfig::paper_default(), "FACS-P", || {
        ControllerSpec::FacsP.build()
    });
    let mut out = Vec::new();
    world.process(&[admit(0, 7, 1e6)], &mut out);
    assert_eq!(out[0].status, Status::Accept);
    let occupied = world.occupied(0).unwrap();
    out.clear();
    world.process(&[admit(0, 7, 1e6), admit(0, 7, 1e6)], &mut out);
    assert!(out.iter().all(|r| r.status == Status::Accept));
    assert_eq!(world.occupied(0), Some(occupied), "no double admission");
}

/// Snapshot → restore into a fresh world reproduces the authoritative
/// state byte for byte (stations, live connections, clocks).
#[test]
fn snapshot_restores_bit_identical_state() {
    let config = WorldConfig {
        grid_radius_cells: 2,
        cell_radius_m: 500.0,
        station_capacity: 40,
    };
    let world = World::new(&config, "FACS-P", || ControllerSpec::FacsP.build());
    let cells = world.grid().len() as u32;
    let mut out = Vec::new();
    for id in 0..60u64 {
        world.process(&[admit(id as u32 % cells, id, 500.0 + id as f64)], &mut out);
    }
    let snapshot = world.snapshot();
    assert!(snapshot.stations.iter().any(|s| s.occupied() > 0));

    let restored = World::new(&config, "FACS-P", || ControllerSpec::FacsP.build());
    let live = restored.restore(&snapshot).expect("same-shape world");
    assert!(live > 0);
    assert_eq!(
        serde_json::to_string(&restored.snapshot()).unwrap(),
        serde_json::to_string(&snapshot).unwrap(),
        "restore must reproduce the checkpoint exactly"
    );

    // And both worlds answer the traffic that follows identically.
    let mut a = Vec::new();
    let mut b = Vec::new();
    for id in 100..140u64 {
        world.process(&[admit(id as u32 % cells, id, 50.0)], &mut a);
        restored.process(&[admit(id as u32 % cells, id, 50.0)], &mut b);
    }
    assert_eq!(a, b, "restored world must decide like the original");

    let wrong_shape = World::new(&WorldConfig::paper_default(), "FACS-P", || {
        ControllerSpec::FacsP.build()
    });
    assert!(wrong_shape.restore(&snapshot).is_err());

    // Right shape, corrupt stations: each is refused, naming the cell and
    // the broken invariant, before any state moves.  Cell 0 holds ids 0,
    // 19, 38 and 57 (four 5-BU voice calls).
    let json = serde_json::to_string(&snapshot).unwrap();
    let edited = |key: &str, value: &str| -> WorldSnapshot {
        serde_json::from_str(&with_first(&json, key, value)).expect("edited snapshot parses")
    };
    let mut corrupt: Vec<(WorldSnapshot, &str)> = vec![
        (edited("nrtc", "4294967295"), "cell 0 is invalid: counters"),
        (edited("rtc", "25"), "cell 0 is invalid: counters"),
        (
            edited("id", "19"),
            "cell 0 is invalid: connection id 19 repeats",
        ),
    ];
    let mut swapped = snapshot.clone();
    swapped.stations.swap(0, 1);
    corrupt.push((swapped, "cell 0 is invalid: station for cell"));
    let mut resized = snapshot.clone();
    resized.stations[2].set_capacity(41);
    corrupt.push((resized, "cell 2 is invalid: capacity 41 BU"));
    let mut stopped = snapshot.clone();
    stopped.clocks[4] = f64::NAN;
    corrupt.push((stopped, "cell 4 is invalid: clock NaN"));
    let mut endless = snapshot.clone();
    endless.stations[5]
        .admit(9_999, ServiceClass::Voice, 5, 0.0, f64::INFINITY, false)
        .unwrap();
    corrupt.push((endless, "cell 5 is invalid: connection 9999"));
    let mut timeless = snapshot.clone();
    timeless.stations[6]
        .admit(9_998, ServiceClass::Text, 1, f64::NAN, 1.0, false)
        .unwrap();
    corrupt.push((timeless, "cell 6 is invalid: connection 9998"));
    let mut overfull = snapshot.clone();
    overfull.stations[7].set_capacity(60);
    overfull.stations[7]
        .admit(9_997, ServiceClass::Video, 30, 0.0, 1.0, false)
        .unwrap();
    overfull.stations[7].set_capacity(40);
    corrupt.push((overfull, "cell 7 is invalid: connections hold 45 BU"));
    let before = serde_json::to_string(&restored.snapshot()).unwrap();
    for (bad, reason) in &corrupt {
        let err = restored.restore(bad).expect_err(reason).to_string();
        assert!(err.contains(reason), "{err:?} should contain {reason:?}");
        assert_eq!(
            serde_json::to_string(&restored.snapshot()).unwrap(),
            before,
            "a refused restore ({reason}) must leave the world untouched"
        );
    }

    // The counter overflow that used to poison a shard lock: one 5-BU
    // voice call whose NRTC reads u32::MAX.
    let solo = World::new(&WorldConfig::paper_default(), "FACS-P", || {
        ControllerSpec::FacsP.build()
    });
    solo.process(&[admit(0, 1, 100.0)], &mut out);
    let text = serde_json::to_string(&solo.snapshot()).unwrap();
    let overflow: WorldSnapshot =
        serde_json::from_str(&with_first(&text, "nrtc", "4294967295")).unwrap();
    let fresh = World::new(&WorldConfig::paper_default(), "FACS-P", || {
        ControllerSpec::FacsP.build()
    });
    assert!(fresh.restore(&overflow).is_err());
    assert_eq!(fresh.occupied(0), Some(0));
}

/// `json` with the value of the first `"key":` replaced by `value`.
fn with_first(json: &str, key: &str, value: &str) -> String {
    let start = json.find(&format!("\"{key}\":")).expect("key present") + key.len() + 3;
    let end = start + json[start..].find([',', '}']).expect("value ends");
    format!("{}{value}{}", &json[..start], &json[end..])
}

/// Round-trip through the on-disk format used by `--snapshot` /
/// `--restore`, including the atomic temp-file rename.
#[test]
fn snapshot_files_round_trip() {
    let world = World::new(&WorldConfig::paper_default(), "always-accept", || {
        ControllerSpec::AlwaysAccept.build()
    });
    let mut out = Vec::new();
    // Clients choose connection ids, so ids above `i64::MAX` must survive
    // the JSON file exactly too.
    world.process(&[admit(0, 1, 1e6), admit(0, u64::MAX, 1e6)], &mut out);
    let path = std::env::temp_dir().join(format!("admitd-snap-{}.json", std::process::id()));
    state::save_snapshot(&world, &path).expect("write snapshot");
    let loaded = state::load_snapshot(&path).expect("read snapshot");
    assert_eq!(loaded.cells, 1);
    assert_eq!(loaded.stations[0].occupied(), 10);
    let mut ids: Vec<u64> = loaded.stations[0].connections().map(|c| c.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, [1, u64::MAX]);
    assert!(
        !path.with_extension("tmp").exists(),
        "temp file renamed away"
    );
    std::fs::remove_file(&path).ok();

    let missing = state::load_snapshot(std::path::Path::new("/nonexistent/snap.json"));
    assert!(missing.unwrap_err().contains("cannot read snapshot"));
}

/// The headline robustness proof: admit traffic through a chaotic
/// server that checkpoints continuously, SIGKILL it mid-flight, restart
/// from the snapshot and require the exact per-cell occupancy back.
#[test]
fn sigkill_then_restore_recovers_per_cell_occupancy() {
    let bin = env!("CARGO_BIN_EXE_admitd");
    let dir = std::env::temp_dir().join(format!("admitd-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let snap = dir.join("world.json");

    let mut serve = std::process::Command::new(bin)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--controller",
            "facs-p-lut",
            "--chaos",
            "7",
            "--snapshot",
            snap.to_str().unwrap(),
            "--snapshot-every",
            "0.05",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn admitd serve");
    let addr = read_bound_addr(serve.stdout.as_mut().expect("piped stdout"));

    // Load it through chaos with the resilient client.
    let report = client::run(&client::BenchConfig {
        addr: addr.clone(),
        connections: 2,
        requests_per_connection: 400,
        sim: SimConfig::paper_default(),
        retry: RetryConfig {
            max_attempts: 64,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            deadline: Some(Duration::from_secs(5)),
            seed: 1,
        },
    })
    .expect("bench through chaos");
    assert_eq!(report.requests, 800);

    // The world is now quiescent; wait for a checkpoint that captures
    // it (two snapshot intervals after the last admission).
    std::thread::sleep(Duration::from_millis(250));
    let before = state::load_snapshot(&snap).expect("snapshot written");
    let expected: Vec<u32> = before.stations.iter().map(|s| s.occupied()).collect();
    assert!(
        expected.iter().sum::<u32>() > 0,
        "bench must leave live calls"
    );

    serve.kill().expect("SIGKILL the server"); // SIGKILL: no shutdown path runs
    serve.wait().expect("reap");

    let mut revived = std::process::Command::new(bin)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--controller",
            "facs-p-lut",
            "--restore",
            snap.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn restored admitd");
    let addr = read_bound_addr(revived.stdout.as_mut().expect("piped stdout"));

    let state_json = http_get_body(&addr, "/state");
    let state: serde_json::Value = serde_json::from_str(&state_json).expect("valid /state JSON");
    let per_cell = state["per_cell"].as_array().expect("per_cell array");
    let recovered: Vec<u64> = per_cell
        .iter()
        .map(|c| c["occupied"].as_u64().expect("occupied"))
        .collect();
    assert_eq!(
        recovered,
        expected.iter().map(|&o| u64::from(o)).collect::<Vec<u64>>(),
        "restored server must report the checkpointed per-cell occupancy"
    );

    revived.kill().expect("stop restored server");
    revived.wait().expect("reap");
    std::fs::remove_dir_all(&dir).ok();
}

/// Parse the bound address out of the serve banner
/// (`admitd: serving ... on 127.0.0.1:PORT`).
fn read_bound_addr(stdout: &mut std::process::ChildStdout) -> String {
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read serve banner");
        assert_ne!(n, 0, "server exited before announcing its address");
        if let Some((_, addr)) = line.trim_end().rsplit_once(" on ") {
            return addr.to_string();
        }
    }
}

fn http_get_body(addr: &str, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect for HTTP");
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: admitd\r\n\r\n").as_bytes())
        .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw.split_once("\r\n\r\n")
        .expect("header/body split")
        .1
        .to_string()
}
