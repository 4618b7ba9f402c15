//! The admitd phase: an open-loop admission stream over loopback to an
//! in-process `Server`, at two fixed offered rates, plus a search for the
//! highest rate that meets the latency limit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use admitd::wire::{self, AdmitFrame, ReleaseFrame, Request, Response, Status};
use admitd::{Server, ServerConfig, ServerSummary, World, WorldConfig};
use cellsim::telemetry::TelemetrySnapshot;
use cellsim::traffic::{SpawnCellAssigner, TrafficConfig, TrafficGenerator, TrafficModel};
use cellsim::SimRng;
use sweep::ControllerSpec;

use crate::openloop::{self, Outcome};
use crate::stats::{fnv1a, Samples};
use crate::trace::{self, ControllerTotals};
use crate::Checks;

/// Offered rate of the `low` phase (frames/s).
pub const LOW_RPS: f64 = 2_500.0;
/// Offered rate of the `high` phase (frames/s): between a third and a
/// sixth of the highest rate the one-cell burst stream sustains on the
/// reference host, which falls to about 36k frames/s when the host is
/// slow.  At 20k a host stall could grow a same-cell backlog past the
/// server's 1024-frame window, and shed frames fail the run.
pub const HIGH_RPS: f64 = 10_000.0;
/// The latency limit on p99 (ns).  Host stalls of about 4 ms reach the p99
/// of a healthy server on the two-vCPU reference host, so a 1 ms limit
/// would measure the host; at 10 ms the limit is crossed only when the
/// backlog grows.
pub const LIMIT_NS: u64 = 10_000_000;
/// Windows each fixed-rate slice is split into; reported percentiles are
/// first quartiles over the windows of all slices (see [`calm_quartile`]).
const SLICE_WINDOWS: usize = 4;
/// Fewest frames in a fixed-rate slice: at least 1000 in every window, so
/// at least ten samples lie beyond each window's p99.
pub const MIN_SLICE_FRAMES: usize = SLICE_WINDOWS * 1_000;
/// Windows a search probe is split into.
const PROBE_WINDOWS: usize = 8;
/// Bounds of the SLO search (frames/s).
const SEARCH_LO: f64 = 10_000.0;
const SEARCH_HI: f64 = 2_000_000.0;
/// Bisection steps of the SLO search (resolution about 4 %).
const SEARCH_STEPS: usize = 7;
/// Longest stretch of one search probe.
const PROBE_S: f64 = 0.5;
/// Frame cap of one search probe: the search replays at most this many
/// frames from the start of the stream.
pub const PROBE_MAX_FRAMES: usize = 100_000;
/// Controller in every lock shard of the served world.
pub const CONTROLLER: ControllerSpec = ControllerSpec::FacsPLut;
/// Share of accepted calls that end early with an explicit release.
const RELEASE_SHARE: f64 = 0.25;

/// What the admitd phase serves: the world and the arrival process the
/// frames are drawn from.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Grid, cell size and capacity.
    pub world: WorldConfig,
    /// Call parameters (mix, holding time, speeds, angles).
    pub traffic: TrafficConfig,
    /// Arrival process.
    pub model: TrafficModel,
}

/// A generated frame stream and the responses a correct server gives.
#[derive(Debug)]
pub struct Stream {
    /// Admit and release frames in time order.
    pub frames: Vec<Request>,
    /// Arrival (or release) time of each frame on the callers' clock (s).
    pub time_s: Vec<f64>,
    /// The in-process engine's response to each frame.
    pub expected: Vec<Response>,
}

fn build_world(shape: &Shape, sink: Option<&trace::Sink>) -> World {
    let label = CONTROLLER.label();
    match sink {
        Some(sink) => World::new(&shape.world, &label, || {
            trace::Traced::boxed(CONTROLLER.build(), sink)
        }),
        None => World::new(&shape.world, &label, || CONTROLLER.build()),
    }
}

/// Generate `n` frames from `seed`: arrivals from the shape's traffic
/// model spread over the grid, and a release for [`RELEASE_SHARE`] of the
/// accepted calls at a random point of their holding time.  The frames
/// are applied to an in-process world as they are generated, so every
/// release names a call that is live when the release is due, and no
/// frame of the stream fails on a correct server.
#[must_use]
pub fn generate(shape: &Shape, n: usize, seed: u64) -> Stream {
    let world = build_world(shape, None);
    let cells = world.grid().len();
    let radius = shape.world.cell_radius_m;
    let base = SimRng::new(seed);
    let mut arrivals =
        TrafficGenerator::with_model(shape.traffic.clone(), &shape.model, base.derive(1).seed());
    let mut assign = SpawnCellAssigner::new(&shape.model);
    let mut cell_rng = base.derive(2);
    let mut rng = base.derive(3);
    let mut releases: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
    let mut stream = Stream {
        frames: Vec::with_capacity(n),
        time_s: Vec::with_capacity(n),
        expected: Vec::with_capacity(n),
    };
    let mut out = Vec::with_capacity(1);
    let mut push = |stream: &mut Stream, frame: Request, time: f64| {
        out.clear();
        world.process(std::slice::from_ref(&frame), &mut out);
        stream.frames.push(frame);
        stream.time_s.push(time);
        stream.expected.push(out[0]);
        out[0]
    };
    while stream.frames.len() < n {
        let call = arrivals.next_request();
        let cell = assign.assign(call.arrival_time, cells, &mut cell_rng);
        // Non-negative f64 times order like their bit patterns.
        while let Some(&Reverse((bits, id, held_in))) = releases.peek() {
            let time = f64::from_bits(bits);
            if time > call.arrival_time || stream.frames.len() >= n {
                break;
            }
            releases.pop();
            let release = ReleaseFrame {
                cell: held_in,
                id,
                time,
            };
            push(&mut stream, Request::Release(release), time);
        }
        if stream.frames.len() >= n {
            break;
        }
        let frame = AdmitFrame {
            cell,
            id: call.id,
            class: call.class,
            is_handoff: call.is_handoff,
            bandwidth: call.bandwidth,
            time: call.arrival_time,
            holding_time: call.holding_time,
            speed_kmh: call.speed_kmh,
            angle_deg: call.angle_deg,
            distance_m: Some(rng.uniform(0.0, radius)),
        };
        let response = push(&mut stream, Request::Admit(frame), call.arrival_time);
        let ends_early = rng.uniform(0.0, 1.0) < RELEASE_SHARE;
        if response.status == Status::Accept && ends_early {
            let at = call.arrival_time + rng.uniform(0.2, 0.8) * call.holding_time;
            releases.push(Reverse((at.to_bits(), call.id, cell)));
        }
    }
    stream
}

/// Due times (ns from the phase start) that replay `time_s` at an average
/// of `rps` frames per second: the arrival process keeps its shape (a
/// burst of simultaneous calls is due at one instant), compressed in time.
#[must_use]
pub fn due_times(time_s: &[f64], rps: f64) -> Vec<u64> {
    let first = time_s[0];
    let span = time_s[time_s.len() - 1] - first;
    let wall_s = time_s.len() as f64 / rps;
    let scale = if span > 0.0 { wall_s / span } else { 0.0 };
    time_s
        .iter()
        .map(|&t| ((t - first) * scale * 1e9) as u64)
        .collect()
}

/// A 1024-bit `cpu_set_t`: bit i is CPU i.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Run `work` with the calling thread, and so the server threads it starts,
/// on the first CPU it may use, then give the thread back its CPUs.
/// Client and server then hand frames to each other on one vCPU: no
/// cross-CPU wake-up of a halted vCPU sits on the latency path, and only one
/// vCPU of the two-vCPU reference host is busy, which keeps it out of the
/// host's stalls (see [`crate::batch::WORKERS`]).
fn on_one_cpu<T>(work: impl FnOnce() -> T) -> T {
    let mut allowed: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `allowed` is a live, writable `cpu_set_t` of `size` bytes and
    // pid 0 names the calling thread.
    let known = unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } == 0;
    let mut one: CpuSet = [0; 16];
    if let Some((word, bits)) = allowed.iter().enumerate().find(|(_, &w)| w != 0) {
        one[word] = bits & bits.wrapping_neg();
    }
    if known {
        // SAFETY: `one` is a live `cpu_set_t` of `size` bytes, only read by
        // the call; a failure leaves the affinity unchanged, which only
        // affects how steady the timings are.
        unsafe { sched_setaffinity(0, size, one.as_ptr()) };
    }
    let value = work();
    if known {
        // SAFETY: as above, with the set read before pinning.
        unsafe { sched_setaffinity(0, size, allowed.as_ptr()) };
    }
    value
}

/// A running server with one connected client.
struct Served {
    world: Arc<World>,
    shutdown: Arc<std::sync::atomic::AtomicBool>,
    handle: JoinHandle<io::Result<ServerSummary>>,
    stream: TcpStream,
}

fn serve(world: World) -> io::Result<Served> {
    let world = Arc::new(world);
    let server = Server::bind(Arc::clone(&world), "127.0.0.1:0", ServerConfig::default())?;
    let addr = server.local_addr()?;
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run());
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(&wire::MAGIC)?;
    Ok(Served {
        world,
        shutdown,
        handle,
        stream,
    })
}

impl Served {
    /// Close the client, stop the server and wait for it; returns the
    /// server's totals and the world.
    fn stop(self) -> (ServerSummary, Arc<World>) {
        drop(self.stream);
        self.shutdown.store(true, Ordering::SeqCst);
        let summary = self
            .handle
            .join()
            .expect("server thread")
            .expect("clean server shutdown");
        (summary, self.world)
    }
}

/// Time the admitd set-up a user pays before the first frame: the LUT
/// tabulation behind `Flc2Lut::paper_shared` (timed directly, because the
/// shared copy is built once per process), the world's controllers, the
/// bind and the client connect.
#[must_use]
pub fn time_setup(shape: &Shape) -> f64 {
    let start = Instant::now();
    let lut = facs::Flc2::paper_default()
        .and_then(|flc2| flc2.compile_lut())
        .expect("paper parameters tabulate");
    std::hint::black_box(lut);
    let served = serve(build_world(shape, None)).expect("loopback server");
    let secs = start.elapsed().as_secs_f64();
    served.stop();
    secs
}

/// The two fixed offered rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rate {
    /// [`LOW_RPS`].
    Low,
    /// [`HIGH_RPS`].
    High,
}

impl Rate {
    /// Frames per second.
    #[must_use]
    pub fn rps(self) -> f64 {
        match self {
            Rate::Low => LOW_RPS,
            Rate::High => HIGH_RPS,
        }
    }
}

/// Latency summary of one fixed rate over all its slices.
#[derive(Debug, Clone, Copy)]
pub struct RateResult {
    /// First quartile over windows of the window p50, each divided by its
    /// slice's host slowdown (µs).
    pub p50_us: f64,
    /// First quartile over windows of the window p99, each divided by its
    /// slice's host slowdown (µs).
    pub p99_us: f64,
    /// Exact p50 over all samples (µs).
    pub all_p50_us: f64,
    /// Exact p99 over all samples (µs).
    pub all_p99_us: f64,
    /// Samples.
    pub samples: usize,
    /// Samples beyond the exact p99.
    pub beyond_p99: usize,
    /// Windows the reported percentiles are taken over.
    pub windows: usize,
    /// First quartile over windows of the p99 of the generator's lateness
    /// (µs).
    pub late_p99_us: f64,
    /// Frames sent.
    pub sent: usize,
    /// Frames answered with overload or error, or not answered.
    pub failed: usize,
}

/// Latency with failures counted as missing any limit.
fn effective_latency(outcome: &Outcome) -> Vec<u64> {
    let mut lat: Vec<u64> = outcome
        .responses
        .iter()
        .zip(&outcome.latency_ns)
        .map(|(r, &ns)| match r.status {
            Status::Accept | Status::Reject => ns,
            Status::Overload | Status::Error => u64::MAX,
        })
        .collect();
    lat.extend(std::iter::repeat_n(u64::MAX, outcome.unanswered));
    lat
}

/// Exact `(p50, p99)` in ns of each of `windows` consecutive, evenly sized
/// windows of `samples`.
///
/// # Panics
/// Panics when there are fewer samples than windows.
fn windows_of(samples: &[u64], windows: usize) -> Vec<(f64, f64)> {
    let n = samples.len();
    (0..windows)
        .map(|w| {
            let s = Samples::new(samples[w * n / windows..(w + 1) * n / windows].to_vec());
            (s.percentile(0.50) as f64, s.percentile(0.99) as f64)
        })
        .collect()
}

/// First quartile of `values`: the figure the calmest quarter of the
/// windows achieved.  It is the one statistic by which every windowed
/// percentile is summed up — reported latencies, the SLO probes and the
/// generator's lateness.  On the reference host, stalls of the host itself
/// (vCPU steal, up to ~10 ms) reach half the windows in some runs and none
/// in others, so a median over windows measures the host.  A slower
/// per-frame path, a growing backlog that has not yet reached the last
/// window, or a generator that cannot keep up moves every window, so it
/// still shows in the first quartile.
fn calm_quartile(values: impl Iterator<Item = f64>) -> f64 {
    let mut values: Vec<f64> = values.collect();
    values.sort_by(|a, b| a.partial_cmp(b).expect("latencies are not NaN"));
    values[values.len().div_ceil(4).max(1) - 1]
}

/// Summarise `slices`, scaling the windowed percentiles of each by its
/// entry of `slowdowns` (see [`crate::calib`]).
fn summarize(slices: &[Outcome], slowdowns: &[f64]) -> RateResult {
    assert_eq!(slices.len(), slowdowns.len(), "one slowdown per slice");
    let mut all = Vec::new();
    let mut windows = Vec::new();
    let mut late = Vec::new();
    let mut sent = 0;
    for (outcome, &slowdown) in slices.iter().zip(slowdowns) {
        // A sizing invariant, not an output check: every window then holds
        // at least 1000 samples, ten of them beyond its p99.
        assert!(
            outcome.late_ns.len() >= MIN_SLICE_FRAMES,
            "a fixed-rate slice sends at least {MIN_SLICE_FRAMES} frames"
        );
        let lat = effective_latency(outcome);
        windows.extend(
            windows_of(&lat, SLICE_WINDOWS)
                .into_iter()
                .map(|(p50, p99)| (p50 / slowdown, p99 / slowdown)),
        );
        late.extend(windows_of(&outcome.late_ns, SLICE_WINDOWS));
        sent += outcome.late_ns.len();
        all.extend(lat);
    }
    let failed = all.iter().filter(|&&ns| ns == u64::MAX).count();
    let all = Samples::new(all);
    RateResult {
        p50_us: calm_quartile(windows.iter().map(|w| w.0)) / 1e3,
        p99_us: calm_quartile(windows.iter().map(|w| w.1)) / 1e3,
        all_p50_us: all.percentile(0.50) as f64 / 1e3,
        all_p99_us: all.percentile(0.99) as f64 / 1e3,
        samples: all.len(),
        beyond_p99: all.beyond(0.99),
        windows: windows.len(),
        late_p99_us: calm_quartile(late.iter().map(|w| w.1)) / 1e3,
        sent,
        failed,
    }
}

/// Offer `frames` at `rps` over the served connection.
fn offer(served: &mut Served, frames: &[Request], time_s: &[f64], rps: f64) -> io::Result<Outcome> {
    let due = due_times(time_s, rps);
    openloop::run(
        &mut served.stream,
        frames,
        &due,
        Instant::now(),
        Duration::from_secs(2),
    )
}

/// Require `got`, the server's answers to the first `got.len()` frames of
/// `stream`, to equal an in-process `World::process` replay.  Shed
/// (overload) frames never touch state, so the other answers must equal a
/// replay of exactly the frames that were not shed; with none shed, that
/// replay is `stream.expected`.  An error answer is correct only where the
/// replay errs too (a release of a call whose admit was shed).
fn check_against_replay(
    shape: &Shape,
    stream: &Stream,
    got: &[Response],
    what: &str,
    checks: &mut Checks,
) {
    let kept: Vec<Response>;
    let replayed: Vec<Response>;
    let (got, expected) = if got.iter().any(|r| r.status == Status::Overload) {
        let frames: Vec<Request> = stream.frames[..got.len()]
            .iter()
            .zip(got)
            .filter(|(_, r)| r.status != Status::Overload)
            .map(|(f, _)| *f)
            .collect();
        let mut out = Vec::with_capacity(frames.len());
        build_world(shape, None).process(&frames, &mut out);
        replayed = out;
        kept = got
            .iter()
            .filter(|r| r.status != Status::Overload)
            .copied()
            .collect();
        (&kept[..], &replayed[..])
    } else {
        (got, &stream.expected[..got.len()])
    };
    let first_bad = got.iter().zip(expected).position(|(a, b)| a != b);
    checks.require(
        first_bad.is_none(),
        &format!(
            "{what}: server responses equal the in-process World::process replay \
             of the frames not shed (first difference at answer {first_bad:?})"
        ),
    );
}

/// Everything the fixed-rate slices produced.
#[derive(Debug)]
pub struct FixedRates {
    /// The `low` rate.
    pub low: RateResult,
    /// The `high` rate.
    pub high: RateResult,
    /// Server totals.
    pub summary: ServerSummary,
    /// The served world's telemetry.
    pub world: TelemetrySnapshot,
    /// Digest of the response sequence.
    pub digest: u64,
    /// Controller calls, when traced.
    pub controller: Option<ControllerTotals>,
    /// Wall time spent offering slices (s).
    pub offered_s: f64,
}

/// One server and one connection, fed consecutive slices of one frame
/// stream at the fixed rates, so the world's state carries on from slice to
/// slice while the slices can be spread over the whole run.
pub struct Session {
    shape: Shape,
    served: Served,
    sink: Option<trace::Sink>,
    next: usize,
    responses: Vec<Response>,
    low: Vec<Outcome>,
    high: Vec<Outcome>,
    offered_s: f64,
}

impl Session {
    /// Start a server for `shape` (its controllers traced into `sink`, if
    /// given) and connect to it.
    #[must_use]
    pub fn start(shape: &Shape, sink: Option<&trace::Sink>) -> Self {
        let served = on_one_cpu(|| serve(build_world(shape, sink)).expect("loopback server"));
        Self {
            shape: shape.clone(),
            served,
            sink: sink.cloned(),
            next: 0,
            responses: Vec::new(),
            low: Vec::new(),
            high: Vec::new(),
            offered_s: 0.0,
        }
    }

    /// Offer the next `frames` frames of `stream` at `rate`.
    pub fn offer(&mut self, stream: &Stream, rate: Rate, frames: usize) {
        let range = self.next..self.next + frames;
        let t = Instant::now();
        let outcome = on_one_cpu(|| {
            offer(
                &mut self.served,
                &stream.frames[range.clone()],
                &stream.time_s[range.clone()],
                rate.rps(),
            )
            .expect("fixed-rate slice")
        });
        self.offered_s += t.elapsed().as_secs_f64();
        self.next = range.end;
        self.responses.extend_from_slice(&outcome.responses);
        match rate {
            Rate::Low => self.low.push(outcome),
            Rate::High => self.high.push(outcome),
        }
    }

    /// Stop the server and require every response so far to equal the
    /// in-process replay of the frames that were not shed.  `slowdowns`
    /// holds the host slowdown of each `low`/`high` pair of slices, in
    /// order.
    pub fn finish(self, stream: &Stream, slowdowns: &[f64], checks: &mut Checks) -> FixedRates {
        let (summary, world) = self.served.stop();
        let world_telemetry = world.telemetry();
        drop(world);
        // Far below saturation, and with overload answered at once, a
        // frame still unanswered after the grace period was lost.
        checks.require(
            self.responses.len() == self.next,
            "admitd fixed rates: every frame answered",
        );
        check_against_replay(
            &self.shape,
            stream,
            &self.responses,
            "admitd fixed rates",
            checks,
        );
        let mut encoded = Vec::with_capacity(self.responses.len() * 24);
        for r in &self.responses {
            wire::encode_response(r, &mut encoded);
        }
        FixedRates {
            low: summarize(&self.low, slowdowns),
            high: summarize(&self.high, slowdowns),
            summary,
            world: world_telemetry,
            digest: fnv1a(&encoded),
            controller: self.sink.as_ref().map(trace::drain),
            offered_s: self.offered_s,
        }
    }
}

/// One probe: a fresh server, the stream's first frames offered at `rps`
/// for at most [`PROBE_S`], judged against the limit.  Passing needs the
/// windowed p99 (failures counted as misses) within the limit, a median
/// latency within the limit in the last window (a growing backlog fails),
/// and a generator that kept its schedule; windows are summed up by
/// [`calm_quartile`].  Returns `(passed, p99_us, overload responses)`.
fn probe(shape: &Shape, stream: &Stream, rps: f64, checks: &mut Checks) -> (bool, f64, u64) {
    let n = ((rps * PROBE_S) as usize).clamp(1_000, PROBE_MAX_FRAMES);
    let (outcome, summary) = on_one_cpu(|| {
        let mut served = serve(build_world(shape, None)).expect("loopback server");
        let outcome =
            offer(&mut served, &stream.frames[..n], &stream.time_s[..n], rps).expect("probe");
        (outcome, served.stop().0)
    });
    check_against_replay(shape, stream, &outcome.responses, "admitd probe", checks);
    let lat = effective_latency(&outcome);
    let p99 = calm_quartile(windows_of(&lat, PROBE_WINDOWS).iter().map(|w| w.1));
    let last = Samples::new(lat[lat.len() - lat.len() / PROBE_WINDOWS..].to_vec());
    let late = calm_quartile(
        windows_of(&outcome.late_ns, PROBE_WINDOWS)
            .iter()
            .map(|w| w.1),
    );
    let limit = LIMIT_NS as f64;
    let passed = p99 <= limit && last.percentile(0.5) as f64 <= limit && late <= limit;
    (passed, p99 / 1e3, summary.overloaded)
}

/// Geometric bisection over `[SEARCH_LO, SEARCH_HI]` for the highest rate
/// that meets the limit, [`SEARCH_STEPS`] probes.  Returns the highest rate
/// a probe passed at (0 when none passed), `(rate, passed, p99_us)` of
/// every probe in order, and the overload responses seen across probes.
pub fn slo_search(
    shape: &Shape,
    stream: &Stream,
    checks: &mut Checks,
) -> (f64, Vec<(f64, bool, f64)>, u64) {
    let (mut lo, mut hi) = (SEARCH_LO, SEARCH_HI);
    let mut slo_rps = 0.0;
    let mut probes = Vec::with_capacity(SEARCH_STEPS);
    let mut overloaded = 0;
    for _ in 0..SEARCH_STEPS {
        let mid = (lo * hi).sqrt();
        let (passed, p99_us, shed) = probe(shape, stream, mid, checks);
        probes.push((mid, passed, p99_us));
        overloaded += shed;
        if passed {
            // Each passing probe is above every earlier one.
            slo_rps = mid;
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (slo_rps, probes, overloaded)
}

/// Split `buf` into frames and decode each payload; returns how many
/// decoded cleanly.
fn decode_all(buf: &[u8], decode: impl Fn(&[u8]) -> Result<(), wire::WireError>) -> usize {
    let mut at = 0;
    let mut ok = 0;
    while let Ok(Some((s, e))) = wire::next_frame(&buf[at..]) {
        ok += usize::from(std::hint::black_box(decode(&buf[at + s..at + e])).is_ok());
        at += e;
    }
    ok
}

/// Per-frame costs of the wire codec and of `World::process`, timed
/// in-process on the stream's frames.
#[derive(Debug, Clone, Copy)]
pub struct LayerCosts {
    /// Request + response encode (ns per frame).
    pub encode_ns: f64,
    /// Request + response decode (ns per frame).
    pub decode_ns: f64,
    /// `World::process` (ns per frame).
    pub process_ns: f64,
    /// Mean frames per read-sized chunk.
    pub chunk_frames: f64,
}

impl LayerCosts {
    /// Codec and world time on one frame's path: the frame waits for its
    /// whole chunk to be decoded, processed and encoded (ns).
    #[must_use]
    pub fn path_ns(&self) -> f64 {
        self.chunk_frames * (self.encode_ns + self.decode_ns + self.process_ns)
    }
}

/// Time the codec on `frames` and replay them through a fresh world in
/// read-sized chunks: frames due at the same instant arrive in one read,
/// so they form one chunk.  The replay must reproduce `expected`.
pub fn layer_costs(
    shape: &Shape,
    frames: &[Request],
    time_s: &[f64],
    expected: &[Response],
    checks: &mut Checks,
) -> LayerCosts {
    let n = frames.len() as f64;
    let mut requests = Vec::with_capacity(frames.len() * 68);
    let mut responses = Vec::with_capacity(frames.len() * 24);
    let t = Instant::now();
    for (frame, response) in frames.iter().zip(expected) {
        wire::encode_request(frame, &mut requests);
        wire::encode_response(response, &mut responses);
    }
    let encode_ns = t.elapsed().as_nanos() as f64 / n;

    let t = Instant::now();
    let decoded_requests = decode_all(&requests, |p| wire::decode_request(p).map(|_| ()));
    let decoded_responses = decode_all(&responses, |p| wire::decode_response(p).map(|_| ()));
    let decode_ns = t.elapsed().as_nanos() as f64 / n;
    checks.require(
        decoded_requests == frames.len() && decoded_responses == frames.len(),
        "codec round trip decodes every frame",
    );

    let world = build_world(shape, None);
    let mut out = Vec::with_capacity(frames.len());
    let t = Instant::now();
    let mut chunks = 0usize;
    let mut i = 0;
    while i < frames.len() {
        let mut j = i + 1;
        while j < frames.len() && time_s[j].to_bits() == time_s[i].to_bits() {
            j += 1;
        }
        world.process(&frames[i..j], &mut out);
        chunks += 1;
        i = j;
    }
    let process_ns = t.elapsed().as_nanos() as f64 / n;
    checks.require(
        out == expected,
        "chunked World::process replay equals the stream's responses",
    );
    LayerCosts {
        encode_ns,
        decode_ns,
        process_ns,
        chunk_frames: n / chunks as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim::traffic::GroupConfig;

    fn burst_shape() -> Shape {
        Shape {
            world: WorldConfig::paper_default(),
            traffic: TrafficConfig {
                mean_interarrival_s: 8.0,
                ..TrafficConfig::paper_default()
            },
            model: TrafficModel::Groups(GroupConfig::new(5, 15)),
        }
    }

    #[test]
    fn windows_split_evenly_and_the_calm_quartile_is_the_lower_quarter() {
        // 4002 samples in four windows: 1000, 1001, 1000, 1001 of them, so
        // every window holds ten samples beyond its p99.
        let samples: Vec<u64> = (0..4_002).collect();
        let windows = windows_of(&samples, SLICE_WINDOWS);
        let p99s: Vec<f64> = windows.iter().map(|w| w.1).collect();
        assert_eq!(p99s, vec![989.0, 1_990.0, 2_990.0, 3_991.0]);
        assert_eq!(
            calm_quartile([4.0, 1.0, 3.0, 2.0, 8.0, 7.0, 6.0, 5.0].into_iter()),
            2.0
        );
    }

    #[test]
    fn shed_frames_are_compared_with_a_replay_of_the_frames_not_shed() {
        let shape = burst_shape();
        let stream = generate(&shape, 2_000, 7);
        // Shed every seventh frame, as a server with a full window would.
        let shed = |i: usize| i % 7 == 3;
        let kept: Vec<Request> = (0..stream.frames.len())
            .filter(|&i| !shed(i))
            .map(|i| stream.frames[i])
            .collect();
        let mut replayed = Vec::new();
        build_world(&shape, None).process(&kept, &mut replayed);
        let mut replayed = replayed.into_iter();
        let got: Vec<Response> = (0..stream.frames.len())
            .map(|i| match shed(i) {
                true => Response::overload(stream.frames[i].id()),
                false => replayed.next().expect("one answer per kept frame"),
            })
            .collect();
        let differs_after_shed = got
            .iter()
            .zip(&stream.expected)
            .enumerate()
            .any(|(i, (a, b))| !shed(i) && a != b);
        assert!(differs_after_shed, "shedding changes later decisions");

        let mut checks = Checks::default();
        check_against_replay(&shape, &stream, &got, "shed", &mut checks);
        assert!(checks.failures.is_empty(), "{:?}", checks.failures);

        // A wrong answer to a frame that was not shed still fails.
        let mut wrong = got;
        let i = (0..wrong.len())
            .find(|&i| !shed(i) && wrong[i].status == Status::Accept)
            .expect("some kept frame is accepted");
        wrong[i].status = Status::Reject;
        check_against_replay(&shape, &stream, &wrong, "wrong", &mut checks);
        assert_eq!(checks.failures.len(), 1, "{:?}", checks.failures);
    }
}
