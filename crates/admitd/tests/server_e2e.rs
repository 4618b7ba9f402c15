//! End-to-end server tests over real sockets: pipelined binary
//! traffic, the HTTP observability endpoints, and clean shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use admitd::wire::{self, Status};
use admitd::{client, scenario, Server, ServerConfig, World, WorldConfig};
use cellsim::SimConfig;
use sweep::ControllerSpec;

struct Running {
    addr: std::net::SocketAddr,
    shutdown: Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<admitd::ServerSummary>,
    world: Arc<World>,
}

fn start_server(world_config: &WorldConfig, spec: ControllerSpec) -> Running {
    start_server_with(world_config, spec, ServerConfig::default())
}

fn start_server_with(
    world_config: &WorldConfig,
    spec: ControllerSpec,
    server_config: ServerConfig,
) -> Running {
    let world = Arc::new(World::new(world_config, &spec.label(), || spec.build()));
    let server =
        Server::bind(Arc::clone(&world), "127.0.0.1:0", server_config).expect("bind loopback");
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

fn stop(running: Running) -> admitd::ServerSummary {
    running
        .shutdown
        .store(true, std::sync::atomic::Ordering::SeqCst);
    running.handle.join().expect("server thread")
}

fn http_get(addr: std::net::SocketAddr, target: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: admitd\r\n\r\n").as_bytes())
        .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

#[test]
fn pipelined_replay_gets_one_response_per_frame_in_order() {
    let running = start_server(&WorldConfig::paper_default(), ControllerSpec::FacsPLut);
    let config = client::BenchConfig {
        addr: running.addr.to_string(),
        connections: 3,
        requests_per_connection: 500,
        sim: SimConfig::paper_default(),
        ..client::BenchConfig::default()
    };
    let report = client::run(&config).expect("bench run");
    assert_eq!(report.requests, 1500);
    assert_eq!(report.errors, 0);
    assert_eq!(
        report.accepted + report.rejected + report.overloaded,
        report.requests
    );
    assert!(report.accepted > 0, "some requests must be admitted");
    assert!(report.requests_per_sec > 0.0);
    let summary = stop(running);
    assert_eq!(summary.connections, 3);
    assert_eq!(summary.frames, 1500);
    assert_eq!(summary.overloaded, report.overloaded);
    assert_eq!(
        summary.accepted + summary.rejected + summary.overloaded + summary.errors,
        1500
    );
}

#[test]
fn metrics_endpoint_lints_clean_and_state_reports_occupancy() {
    let running = start_server(&WorldConfig::paper_default(), ControllerSpec::FacsP);
    // Admit some traffic first so the exposition has non-zero series.
    let config = client::BenchConfig {
        addr: running.addr.to_string(),
        connections: 1,
        requests_per_connection: 200,
        sim: SimConfig::paper_default(),
        ..client::BenchConfig::default()
    };
    client::run(&config).expect("bench run");

    let (head, body) = http_get(running.addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    telemetry::lint_prometheus(&body).expect("valid Prometheus exposition");
    assert!(body.contains("admitd_frames_total"), "{body}");
    // Same-cell admit groups applied under one world-lock hold, and their sizes.
    assert!(body.contains("admitd_batches_total"), "{body}");
    assert!(body.contains("admitd_batch_size"), "{body}");

    let (head, body) = http_get(running.addr, "/state");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    let state: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
    assert_eq!(state["cells"], 1u64);
    assert_eq!(
        state["occupied_total"].as_u64(),
        running.world.occupied(0).map(u64::from)
    );

    let (head, _) = http_get(running.addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    let (head, _) = http_get(running.addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    stop(running);
}

#[test]
fn oversized_length_prefix_drops_the_connection() {
    let running = start_server(&WorldConfig::paper_default(), ControllerSpec::AlwaysAccept);
    let mut stream = TcpStream::connect(running.addr).expect("connect");
    stream.write_all(&wire::MAGIC).expect("magic");
    stream
        .write_all(&u32::MAX.to_le_bytes())
        .expect("bogus length");
    let mut buf = [0u8; 16];
    // The server must close; the read drains to EOF rather than hang.
    let n = stream.read(&mut buf).expect("read EOF");
    assert_eq!(n, 0, "connection closed without a response");
    stop(running);
}

/// Read at least `n` response frames from `stream`.
fn read_responses(stream: &mut TcpStream, n: usize) -> Vec<wire::Response> {
    let mut seen = Vec::new();
    let mut inbuf = Vec::new();
    let mut chunk = [0u8; 8192];
    loop {
        while let Some((start, end)) = wire::next_frame(&inbuf).expect("well-formed responses") {
            let response = wire::decode_response(&inbuf[start..end]).expect("decode");
            inbuf.drain(..end);
            seen.push(response);
        }
        if seen.len() >= n {
            return seen;
        }
        let n = stream.read(&mut chunk).expect("read responses");
        assert_ne!(n, 0, "server closed early");
        inbuf.extend_from_slice(&chunk[..n]);
    }
}

/// Sum of every series of one counter family in a Prometheus exposition.
fn exposition_total(body: &str, family: &str) -> u64 {
    body.lines()
        .filter(|line| {
            line.strip_prefix(family)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .map(|line| {
            let value = line.rsplit(' ').next().expect("sample value");
            value.parse::<u64>().expect("integer counter")
        })
        .sum()
}

/// Every frame received and every response sent is counted once, shed
/// and undecodable ones included.
#[test]
fn shed_frames_and_their_responses_are_counted() {
    let running = start_server_with(
        &WorldConfig::paper_default(),
        ControllerSpec::AlwaysAccept,
        ServerConfig {
            max_pending: 4,
            ..ServerConfig::default()
        },
    );
    let frames = scenario::batch_frames(&SimConfig::paper_default(), 63, 0);
    let mut buf = Vec::new();
    buf.extend_from_slice(&wire::MAGIC);
    for frame in &frames {
        wire::encode_request(frame, &mut buf);
    }
    // One well-framed payload with an unknown opcode.
    buf.extend_from_slice(&4u32.to_le_bytes());
    buf.extend_from_slice(&[9, 0, 0, 0]);
    let mut stream = TcpStream::connect(running.addr).expect("connect");
    stream.write_all(&buf).expect("one write of 64 frames");
    let seen = read_responses(&mut stream, 64);
    assert_eq!(seen.len(), 64);
    let overloads = seen.iter().filter(|r| r.status == Status::Overload).count() as u64;
    let errors = seen.iter().filter(|r| r.status == Status::Error).count() as u64;
    assert!(
        overloads > 0,
        "a 4-frame window must shed part of 64 frames"
    );
    assert_eq!(errors, 1);

    let (_, body) = http_get(running.addr, "/metrics");
    assert_eq!(exposition_total(&body, "admitd_responses_total"), 64);
    assert_eq!(exposition_total(&body, "admitd_frames_total"), 64);
    let summary = stop(running);
    assert_eq!(summary.overloaded, overloads);
    assert_eq!(summary.errors, errors);
    assert_eq!(summary.frames, 64);
    assert_eq!(
        summary.accepted + summary.rejected + summary.overloaded + summary.errors,
        64
    );
}

#[test]
fn every_frame_of_a_large_single_write_is_answered() {
    let running = start_server(&WorldConfig::paper_default(), ControllerSpec::AlwaysAccept);
    let config = SimConfig::paper_default();
    let frames = scenario::batch_frames(&config, 300, 0);
    let mut buf = Vec::new();
    buf.extend_from_slice(&wire::MAGIC);
    for frame in &frames {
        wire::encode_request(frame, &mut buf);
    }
    let mut stream = TcpStream::connect(running.addr).expect("connect");
    stream.write_all(&buf).expect("one large write");

    let seen = read_responses(&mut stream, frames.len());
    // Exactly one response per frame, echoing ids in request order;
    // any mix of decided and overload statuses is legal, errors not.
    for (frame, response) in frames.iter().zip(&seen) {
        assert_eq!(frame.id(), response.id);
        assert_ne!(response.status, Status::Error);
    }
    stop(running);
}
