//! The `admitd` TCP server: accept loop, per-connection protocol
//! handlers, read-window collection and backpressure.
//!
//! # Connection model
//!
//! One OS thread per connection over a non-blocking accept loop (the
//! workspace is offline — `std::net` only).  A connection's first four
//! bytes select the protocol: the binary magic
//! ([`crate::wire::MAGIC`]) starts a frame stream, anything else is
//! served as one HTTP request ([`crate::http`]).
//!
//! # Read windows and backpressure
//!
//! The handler blocks for the first frame, then drains whatever
//! complete frames the socket already buffered (one non-blocking fill)
//! into a *bounded* window of [`ServerConfig::max_pending`] requests.
//! The window is applied in one [`crate::state::World::process`] call
//! — consecutive same-cell admits within it share one shard-lock hold,
//! each still decided on its own — and every response is written back
//! in request order.  Frames beyond the bound are answered with
//! [`Status::Overload`](crate::wire::Status::Overload) *without*
//! touching world state; nothing is ever buffered unboundedly.  Every
//! frame received and every response sent is counted once: the world
//! counts the frames it applies, the handler the ones it sheds or
//! cannot decode.
//!
//! # Shutdown
//!
//! [`Server::run`] polls its own [`Server::shutdown_handle`] flag and
//! the process-global flag ([`request_shutdown`], set by the binary's
//! SIGINT/SIGTERM handler).  On shutdown the listener stops accepting,
//! every connection handler notices via its read timeout and drains,
//! and `run` joins them all before returning a [`ServerSummary`].

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use telemetry::{CounterId, Recorder, Registry, TelemetrySnapshot};

use crate::chaos::{ChaosAction, ChaosConfig, ChaosInjector};
use crate::http;
use crate::metrics::{self, SCHEMA};
use crate::state::{self, World};
use crate::wire::{self, Request, Response};

/// Process-global shutdown flag, set by signal handlers in the binary.
static GLOBAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Request shutdown of every [`Server::run`] loop in the process.
/// Async-signal-safe (one atomic store).
pub fn request_shutdown() {
    GLOBAL_SHUTDOWN.store(true, Ordering::SeqCst);
}

/// `true` once [`request_shutdown`] has been called.
#[must_use]
pub fn global_shutdown_requested() -> bool {
    GLOBAL_SHUTDOWN.load(Ordering::SeqCst)
}

/// Tunables of the accept loop and connection handlers.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bound on requests decided per read window; frames beyond it are
    /// shed with overload responses.
    pub max_pending: usize,
    /// Read timeout used to poll the shutdown flag on idle
    /// connections.
    pub poll_interval: Duration,
    /// Seeded transport-fault injection (`--chaos`); `None` serves
    /// faithfully.
    pub chaos: Option<ChaosConfig>,
    /// Free a disconnected client's still-admitted connections
    /// (`--release-on-disconnect`).
    pub release_on_disconnect: bool,
    /// Periodically checkpoint world state to this path (`--snapshot`).
    pub snapshot_path: Option<PathBuf>,
    /// Interval between checkpoints when `snapshot_path` is set.
    pub snapshot_every: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_pending: 1024,
            poll_interval: Duration::from_millis(50),
            chaos: None,
            release_on_disconnect: false,
            snapshot_path: None,
            snapshot_every: Duration::from_secs(1),
        }
    }
}

/// Totals reported after a clean shutdown.
#[derive(Debug, Clone, Default)]
pub struct ServerSummary {
    /// Binary connections served.
    pub connections: u64,
    /// Request frames received (admits, releases and undecodable
    /// frames, shed ones included).
    pub frames: u64,
    /// Accept responses sent.
    pub accepted: u64,
    /// Reject responses sent.
    pub rejected: u64,
    /// Overload responses sent.
    pub overloaded: u64,
    /// Error responses sent.
    pub errors: u64,
    /// HTTP requests served.
    pub http_requests: u64,
}

impl std::fmt::Display for ServerSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} connections, {} frames ({} accepted, {} rejected, {} overloaded, {} errors), \
             {} http requests",
            self.connections,
            self.frames,
            self.accepted,
            self.rejected,
            self.overloaded,
            self.errors,
            self.http_requests
        )
    }
}

/// A bound `admitd` server, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    world: Arc<World>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    registry: Arc<Mutex<Registry>>,
}

impl Server {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(world: Arc<World>, addr: &str, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Self {
            listener,
            world,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            registry: Arc::new(Mutex::new(Registry::for_schema(&SCHEMA))),
        })
    }

    /// The bound socket address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A flag that stops this server (and only this server) when set.
    #[must_use]
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    fn should_stop(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || global_shutdown_requested()
    }

    /// Serve until shutdown is requested, then join every connection
    /// handler and return the session totals.
    pub fn run(self) -> io::Result<ServerSummary> {
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut connection_index: u64 = 0;
        let mut last_snapshot = Instant::now();
        while !self.should_stop() {
            if let Some(path) = &self.config.snapshot_path {
                if last_snapshot.elapsed() >= self.config.snapshot_every {
                    if let Err(e) = state::save_snapshot(&self.world, path) {
                        eprintln!("admitd: snapshot to {} failed: {e}", path.display());
                    }
                    last_snapshot = Instant::now();
                }
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let world = Arc::clone(&self.world);
                    let registry = Arc::clone(&self.registry);
                    let shutdown = Arc::clone(&self.shutdown);
                    let config = self.config.clone();
                    let index = connection_index;
                    connection_index += 1;
                    // Reap finished handlers so a long-lived server does
                    // not accumulate join handles.
                    handlers.retain(|h| !h.is_finished());
                    handlers.push(std::thread::spawn(move || {
                        let _ =
                            handle_connection(stream, &world, &registry, &shutdown, &config, index);
                    }));
                    self.registry
                        .lock()
                        .expect("server registry")
                        .high_water(metrics::gauge::OPEN_CONNECTIONS, handlers.len() as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(self.config.poll_interval.min(Duration::from_millis(10)));
                }
                Err(e) => return Err(e),
            }
        }
        // Close the listening socket while connections drain, then
        // derive the session totals from the merged telemetry.
        let Server {
            listener,
            world,
            registry,
            config,
            ..
        } = self;
        drop(listener);
        for handle in handlers {
            let _ = handle.join();
        }
        // One final checkpoint after the drain, so a clean shutdown
        // leaves the freshest possible restore point behind.
        if let Some(path) = &config.snapshot_path {
            if let Err(e) = state::save_snapshot(&world, path) {
                eprintln!("admitd: final snapshot to {} failed: {e}", path.display());
            }
        }
        Ok(summary_from(&merged_telemetry(&world, &registry)))
    }

    /// Merged telemetry of the accept loop and every shard.
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySnapshot {
        merged_telemetry(&self.world, &self.registry)
    }
}

fn merged_telemetry(world: &World, registry: &Mutex<Registry>) -> TelemetrySnapshot {
    let mut merged = world.telemetry();
    let server_snap = registry.lock().expect("server registry").snapshot();
    merged.merge(&server_snap);
    merged
}

fn counter_value(snapshot: &TelemetrySnapshot, name: &str, label: Option<(&str, &str)>) -> u64 {
    snapshot
        .counters
        .iter()
        .filter(|c| {
            c.name == name
                && label.is_none_or(|(k, v)| {
                    c.labels.iter().any(|pair| pair.key == k && pair.value == v)
                })
        })
        .map(|c| c.value)
        .sum()
}

/// Derive the shutdown summary from a merged telemetry snapshot.
#[must_use]
pub fn summary_from(snapshot: &TelemetrySnapshot) -> ServerSummary {
    ServerSummary {
        connections: counter_value(snapshot, "admitd_connections_total", None),
        frames: counter_value(snapshot, "admitd_frames_total", None),
        accepted: counter_value(
            snapshot,
            "admitd_responses_total",
            Some(("status", "accept")),
        ),
        rejected: counter_value(
            snapshot,
            "admitd_responses_total",
            Some(("status", "reject")),
        ),
        overloaded: counter_value(
            snapshot,
            "admitd_responses_total",
            Some(("status", "overload")),
        ),
        errors: counter_value(
            snapshot,
            "admitd_responses_total",
            Some(("status", "error")),
        ),
        http_requests: counter_value(snapshot, "admitd_http_requests_total", None),
    }
}

/// Split `inbuf` into at most `max_pending` decodable requests plus
/// shed/error responses for the remainder, consuming every complete
/// frame.  Returns the number of bytes consumed.
///
/// This is the bounded-queue policy in one pure function: complete
/// frames beyond `max_pending` get overload responses *now* instead of
/// queueing, and undecodable payloads get error responses.  Each `shed`
/// entry is the frame's position in the window, the
/// `admitd_frames_total` counter it counts under, and its response.
pub fn drain_window(
    inbuf: &[u8],
    max_pending: usize,
    requests: &mut Vec<Request>,
    shed: &mut Vec<(usize, CounterId, Response)>,
) -> Result<usize, wire::WireError> {
    let mut consumed = 0;
    let mut position = 0;
    while let Some((start, end)) = wire::next_frame(&inbuf[consumed..])? {
        let payload = &inbuf[consumed + start..consumed + end];
        match wire::decode_request(payload) {
            Ok(request) if requests.len() < max_pending => requests.push(request),
            Ok(request) => shed.push((
                position,
                metrics::frame_counter(&request),
                Response::overload(request.id()),
            )),
            Err(_) => shed.push((
                position,
                metrics::counter::FRAMES_UNDECODABLE,
                Response::error(0),
            )),
        }
        consumed += end;
        position += 1;
    }
    Ok(consumed)
}

fn handle_connection(
    mut stream: TcpStream,
    world: &World,
    registry: &Mutex<Registry>,
    shutdown: &AtomicBool,
    config: &ServerConfig,
    connection_index: u64,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(config.poll_interval))?;

    // Protocol selection: read until we have 4 bytes (or EOF).
    let mut head = [0u8; 4];
    let mut have = 0;
    while have < head.len() {
        if shutdown.load(Ordering::SeqCst) || global_shutdown_requested() {
            return Ok(());
        }
        match stream.read(&mut head[have..]) {
            Ok(0) => return Ok(()),
            Ok(n) => have += n,
            Err(e) if would_block(&e) => continue,
            Err(e) => return Err(e),
        }
    }
    if head == wire::MAGIC {
        registry
            .lock()
            .expect("server registry")
            .add(metrics::counter::CONNECTIONS, 1);
        serve_binary(stream, world, registry, shutdown, config, connection_index)
    } else {
        registry
            .lock()
            .expect("server registry")
            .add(metrics::counter::HTTP_REQUESTS, 1);
        serve_http(stream, world, registry, &head)
    }
}

fn would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn serve_binary(
    stream: TcpStream,
    world: &World,
    registry: &Mutex<Registry>,
    shutdown: &AtomicBool,
    config: &ServerConfig,
    connection_index: u64,
) -> io::Result<()> {
    let mut chaos = config
        .chaos
        .as_ref()
        .map(|c| ChaosInjector::for_connection(c, connection_index));
    let mut admitted: Vec<(u32, u64)> = Vec::new();
    let result = serve_binary_loop(
        stream,
        world,
        registry,
        shutdown,
        config,
        &mut chaos,
        &mut admitted,
    );
    // Whatever ended the stream — clean EOF, an io error or a chaos
    // cut — the client is gone; free what it still held if asked to.
    if config.release_on_disconnect && !admitted.is_empty() {
        world.release_abandoned(&admitted);
    }
    result
}

fn serve_binary_loop(
    mut stream: TcpStream,
    world: &World,
    registry: &Mutex<Registry>,
    shutdown: &AtomicBool,
    config: &ServerConfig,
    chaos: &mut Option<ChaosInjector>,
    admitted: &mut Vec<(u32, u64)>,
) -> io::Result<()> {
    let mut inbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = [0u8; 64 * 1024];
    let mut requests = Vec::with_capacity(config.max_pending);
    let mut shed: Vec<(usize, CounterId, Response)> = Vec::new();
    let mut responses = Vec::with_capacity(config.max_pending);
    let mut outbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    loop {
        // Block (with timeout, to poll shutdown) until bytes arrive.
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
            Err(e) if would_block(&e) => {
                if shutdown.load(Ordering::SeqCst) || global_shutdown_requested() {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        }

        requests.clear();
        shed.clear();
        let consumed = match drain_window(&inbuf, config.max_pending, &mut requests, &mut shed) {
            Ok(consumed) => consumed,
            // Protocol error (oversized length prefix): drop the
            // connection; there is no way to resynchronise the stream.
            Err(_) => return Ok(()),
        };
        if consumed == 0 {
            continue; // only a partial frame buffered so far
        }
        inbuf.drain(..consumed);
        if !shed.is_empty() {
            let mut registry = registry.lock().expect("server registry");
            for &(_, frame, response) in &shed {
                registry.add(frame, 1);
                registry.add(metrics::response_counter(response.status), 1);
            }
        }

        responses.clear();
        world.process(&requests, &mut responses);
        if config.release_on_disconnect {
            track_admissions(&requests, &responses, admitted);
        }

        // Interleave decided and shed responses back into arrival order.
        outbuf.clear();
        let mut decided = responses.iter();
        let mut shed_iter = shed.iter().peekable();
        let total = requests.len() + shed.len();
        for position in 0..total {
            if let Some(&&(at, _, response)) = shed_iter.peek() {
                if at == position {
                    wire::encode_response(&response, &mut outbuf);
                    shed_iter.next();
                    continue;
                }
            }
            let response = decided.next().expect("one response per request");
            wire::encode_response(response, &mut outbuf);
        }

        // Chaos fires *after* the world mutated and *before* the client
        // hears about it — exactly the window a real crash would hit.
        if let Some(injector) = chaos {
            match injector.next_action() {
                ChaosAction::None => {}
                ChaosAction::Delay(delay) => {
                    registry
                        .lock()
                        .expect("server registry")
                        .add(metrics::counter::CHAOS_DELAYS, 1);
                    std::thread::sleep(delay);
                }
                ChaosAction::Truncate => {
                    registry
                        .lock()
                        .expect("server registry")
                        .add(metrics::counter::CHAOS_TRUNCATIONS, 1);
                    let _ = stream.write_all(&outbuf[..outbuf.len() / 2]);
                    return Ok(());
                }
                ChaosAction::Reset => {
                    registry
                        .lock()
                        .expect("server registry")
                        .add(metrics::counter::CHAOS_RESETS, 1);
                    return Ok(());
                }
            }
        }
        stream.write_all(&outbuf)?;
    }
}

/// Maintain the set of connections this client is responsible for:
/// accepted admits join it, client-issued releases leave it.
fn track_admissions(requests: &[Request], responses: &[Response], admitted: &mut Vec<(u32, u64)>) {
    for (request, response) in requests.iter().zip(responses) {
        match request {
            Request::Admit(frame)
                if response.status == wire::Status::Accept
                    && !admitted.contains(&(frame.cell, frame.id)) =>
            {
                admitted.push((frame.cell, frame.id));
            }
            Request::Release(frame) => {
                admitted.retain(|&(cell, id)| (cell, id) != (frame.cell, frame.id));
            }
            _ => {}
        }
    }
}

fn serve_http(
    mut stream: TcpStream,
    world: &World,
    registry: &Mutex<Registry>,
    head: &[u8],
) -> io::Result<()> {
    let mut raw = head.to_vec();
    let mut chunk = [0u8; 8192];
    // Read until the end of the request head (or a bounded limit).
    while !raw.windows(4).any(|w| w == b"\r\n\r\n") && raw.len() < 64 * 1024 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e) if would_block(&e) => break,
            Err(e) => return Err(e),
        }
    }
    let text = String::from_utf8_lossy(&raw);
    let response = match http::parse_get_target(&text) {
        Err(error_response) => error_response,
        Ok(target) => match target.as_str() {
            "/metrics" => {
                let exposition = merged_telemetry(world, registry).to_prometheus();
                http::render_response(
                    200,
                    "OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    &exposition,
                )
            }
            "/state" => {
                let state = world.state();
                let body =
                    serde_json::to_string_pretty(&state).unwrap_or_else(|_| "{}".to_string());
                http::render_response(200, "OK", "application/json", &body)
            }
            "/healthz" => http::render_response(200, "OK", "text/plain; charset=utf-8", "ok\n"),
            _ => http::render_response(
                404,
                "Not Found",
                "text/plain; charset=utf-8",
                "unknown path; try /metrics, /state or /healthz\n",
            ),
        },
    };
    stream.write_all(&response)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{AdmitFrame, Status};
    use cellsim::ServiceClass;

    fn admit(id: u64) -> Request {
        Request::Admit(AdmitFrame {
            cell: 0,
            id,
            class: ServiceClass::Text,
            is_handoff: false,
            bandwidth: 1,
            time: 0.0,
            holding_time: 10.0,
            speed_kmh: 10.0,
            angle_deg: 0.0,
            distance_m: Some(100.0),
        })
    }

    #[test]
    fn drain_window_bounds_the_queue_and_sheds_with_overload() {
        let mut buf = Vec::new();
        for id in 0..6 {
            wire::encode_request(&admit(id), &mut buf);
        }
        let mut requests = Vec::new();
        let mut shed = Vec::new();
        let consumed = drain_window(&buf, 4, &mut requests, &mut shed).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(requests.len(), 4);
        assert_eq!(shed.len(), 2);
        let frames = metrics::counter::FRAMES_ADMIT;
        assert_eq!(shed[0], (4, frames, Response::overload(4)));
        assert_eq!(shed[1], (5, frames, Response::overload(5)));
    }

    #[test]
    fn drain_window_keeps_partial_frames_buffered() {
        let mut buf = Vec::new();
        wire::encode_request(&admit(1), &mut buf);
        let full = buf.len();
        wire::encode_request(&admit(2), &mut buf);
        let mut requests = Vec::new();
        let mut shed = Vec::new();
        let consumed = drain_window(&buf[..buf.len() - 3], 16, &mut requests, &mut shed).unwrap();
        assert_eq!(consumed, full);
        assert_eq!(requests.len(), 1);
        assert!(shed.is_empty());
    }

    #[test]
    fn drain_window_converts_bad_payloads_to_error_responses() {
        let mut buf = Vec::new();
        // A well-formed frame with an unknown opcode.
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.extend_from_slice(&[9, 0, 0, 0]);
        let mut requests = Vec::new();
        let mut shed = Vec::new();
        let consumed = drain_window(&buf, 16, &mut requests, &mut shed).unwrap();
        assert_eq!(consumed, buf.len());
        assert!(requests.is_empty());
        assert_eq!(shed[0].1, metrics::counter::FRAMES_UNDECODABLE);
        assert_eq!(shed[0].2.status, Status::Error);
    }
}
