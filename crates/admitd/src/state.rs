//! Authoritative per-cell counter state behind sharded locks, and the
//! per-frame decision engine.
//!
//! The server owns one [`BaseStation`] per cell in the dense
//! [`CellIdx`](cellsim::geometry::CellIdx) layout `cellsim` uses,
//! partitioned into contiguous
//! shards each guarded by its own mutex.  Every shard also owns its
//! own controller instance (the same per-shard controller-bank
//! semantics as `cellsim::shard::ShardedSimulator`) plus a telemetry
//! registry, so concurrent connections touching different shards never
//! contend.
//!
//! # Same-cell groups, one decision per frame
//!
//! [`World::process`] applies consecutive same-cell admit frames as one
//! group under a single shard lock, but decides every frame on its own:
//! the cell clock advances and expired calls complete, an id that is
//! already admitted is answered again without re-admitting, a call that
//! cannot fit is rejected without consulting the controller, and every
//! other frame gets exactly one
//! [`AdmissionController::decide`](cellsim::AdmissionController::decide)
//! against the cell's current state.  An accept changes the state the
//! next frame is decided against, so no decision is ever computed ahead
//! of its turn.
//!
//! Apart from the replay screen, every step is a station-level
//! transition of [`cellsim::cell`] ([`cell::release_expired`],
//! [`cell::offer`], [`cell::release`]), the same code both simulation
//! engines run, so the produced sequence is bit-identical to offering
//! every request on its own, which `tests/determinism.rs` proves against
//! the in-process engine.

use std::collections::HashSet;
use std::fmt;
use std::path::Path;
use std::sync::Mutex;

use cellsim::{
    cell, AdmissionRequest, Bandwidth, BaseStation, BoxedController, CellGrid, SimConfig,
};
use serde::{Deserialize, Serialize};
use telemetry::{CounterId, Recorder, Registry, Stopwatch, TelemetrySnapshot};

use crate::metrics::{self, SCHEMA};
use crate::wire::{AdmitFrame, Request, Response, Status};

/// Everything needed to build a [`World`].
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Hex-grid radius in cells (0 = single cell).
    pub grid_radius_cells: u32,
    /// Cell radius in metres.
    pub cell_radius_m: f64,
    /// Station capacity (BU).
    pub station_capacity: Bandwidth,
    /// Number of lock shards (clamped to `[1, cells]`).
    pub shards: usize,
}

impl WorldConfig {
    /// The paper's single 40-BU cell behind one lock.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            grid_radius_cells: 0,
            cell_radius_m: 1000.0,
            station_capacity: 40,
            shards: 1,
        }
    }

    /// Adopt the world-shaping fields of a simulator config (grid,
    /// cell radius, capacity).
    #[must_use]
    pub fn from_sim_config(config: &SimConfig, shards: usize) -> Self {
        Self {
            grid_radius_cells: config.grid_radius_cells,
            cell_radius_m: config.cell_radius_m,
            station_capacity: config.station_capacity,
            shards,
        }
    }
}

/// One lock shard: a contiguous run of stations plus its controller.
struct Shard {
    /// Dense index of the first cell in this shard.
    base: usize,
    stations: Vec<BaseStation>,
    /// Per-cell logical clocks (seconds); only move forward.
    clocks: Vec<f64>,
    controller: BoxedController,
    registry: Registry,
    /// Scratch for expired connections.
    expired: Vec<cellsim::station::ActiveConnection>,
}

impl Shard {
    /// Advance cell `local`'s clock to `time` (never backwards) and
    /// complete the calls that expired by then
    /// ([`cell::release_expired`]), as the sequential engine does before
    /// every offer.
    fn advance(&mut self, local: usize, time: f64) {
        let now = self.clocks[local].max(time);
        self.clocks[local] = now;
        cell::release_expired(
            &mut self.stations[local],
            &mut *self.controller,
            now,
            &mut self.expired,
        );
        if !self.expired.is_empty() {
            self.registry
                .add(metrics::counter::EXPIRED, self.expired.len() as u64);
        }
    }

    /// Offer one admission request to cell `local` ([`cell::offer`]) and
    /// answer with the outcome.
    fn offer(&mut self, local: usize, request: &AdmissionRequest) -> Response {
        // Idempotent replay: a client that reconnected after a lost
        // response window resends every unacknowledged frame, so an id
        // that is already admitted must answer Accept again without
        // re-admitting (or panicking on the duplicate).
        if self.stations[local].connection(request.id).is_some() {
            return Response {
                status: Status::Accept,
                id: request.id,
                score: 0.0,
            };
        }
        let decision = cell::offer(&mut self.stations[local], &mut *self.controller, request);
        Response {
            status: if decision.accept {
                Status::Accept
            } else {
                Status::Reject
            },
            id: request.id,
            score: decision.score,
        }
    }
}

/// Occupancy snapshot of one cell, as served by `/state`.
#[derive(Debug, Clone, Serialize)]
pub struct CellState {
    /// Axial `q` coordinate of the cell.
    pub q: i32,
    /// Axial `r` coordinate of the cell.
    pub r: i32,
    /// Occupied bandwidth (BU).
    pub occupied: Bandwidth,
    /// Station capacity (BU).
    pub capacity: Bandwidth,
    /// Live connection count.
    pub active: usize,
    /// Real-time counter (RTC) bandwidth.
    pub rtc: Bandwidth,
    /// Non-real-time counter (NRTC) bandwidth.
    pub nrtc: Bandwidth,
    /// Connections admitted over the cell's lifetime.
    pub total_admitted: u64,
    /// Connections released over the cell's lifetime.
    pub total_released: u64,
}

/// Whole-world snapshot of `/state`.
#[derive(Debug, Clone, Serialize)]
pub struct WorldState {
    /// Controller driving admissions.
    pub controller: String,
    /// Number of cells in the grid.
    pub cells: usize,
    /// Number of lock shards.
    pub shards: usize,
    /// Sum of `occupied` across cells (BU).
    pub occupied_total: u64,
    /// Sum of live connections across cells.
    pub active_total: u64,
    /// Per-cell occupancy in dense [`CellIdx`](cellsim::geometry::CellIdx)
    /// order.
    pub per_cell: Vec<CellState>,
}

/// The server's authoritative admission state.
pub struct World {
    grid: CellGrid,
    shards: Vec<Mutex<Shard>>,
    cells_per_shard: usize,
    /// Capacity every station is built with (BU).
    station_capacity: Bandwidth,
    controller_label: String,
    /// Frame and response counters of frames that name no cell of the
    /// grid; locked only when such a frame arrives.
    unrouted: Mutex<Registry>,
}

impl World {
    /// Build a world whose shards each own a fresh controller from
    /// `build_controller`.
    pub fn new(
        config: &WorldConfig,
        controller_label: &str,
        mut build_controller: impl FnMut() -> BoxedController,
    ) -> Self {
        let grid = CellGrid::new(config.grid_radius_cells, config.cell_radius_m);
        let cells = grid.len();
        let shard_count = config.shards.clamp(1, cells);
        let cells_per_shard = cells.div_ceil(shard_count);
        let mut shards = Vec::with_capacity(shard_count);
        let mut base = 0usize;
        while base < cells {
            let end = (base + cells_per_shard).min(cells);
            let stations: Vec<BaseStation> = grid.cells()[base..end]
                .iter()
                .map(|&c| BaseStation::new(c, grid.center_of(&c), config.station_capacity))
                .collect();
            shards.push(Mutex::new(Shard {
                base,
                clocks: vec![0.0; stations.len()],
                stations,
                controller: build_controller(),
                registry: Registry::for_schema(&SCHEMA),
                expired: Vec::new(),
            }));
            base = end;
        }
        Self {
            grid,
            shards,
            cells_per_shard,
            station_capacity: config.station_capacity,
            controller_label: controller_label.to_string(),
            unrouted: Mutex::new(Registry::for_schema(&SCHEMA)),
        }
    }

    /// The world's cell grid.
    #[must_use]
    pub fn grid(&self) -> &CellGrid {
        &self.grid
    }

    /// Label of the controller driving admissions.
    #[must_use]
    pub fn controller_label(&self) -> &str {
        &self.controller_label
    }

    fn shard_of(&self, cell: usize) -> usize {
        cell / self.cells_per_shard
    }

    /// Apply a run of request frames, appending exactly one response
    /// per frame to `out`, in order.
    ///
    /// Consecutive admit frames for the same cell are applied as one
    /// group under one shard lock; releases are applied one by one.
    /// Every frame is decided on its own, in order.  Frames naming a
    /// cell outside the grid get [`Status::Error`] responses.
    pub fn process(&self, requests: &[Request], out: &mut Vec<Response>) {
        let mut i = 0;
        while i < requests.len() {
            match requests[i] {
                Request::Admit(first) => {
                    // Extend the group over consecutive same-cell admits.
                    let mut j = i + 1;
                    while j < requests.len() {
                        match requests[j] {
                            Request::Admit(f) if f.cell == first.cell => j += 1,
                            _ => break,
                        }
                    }
                    self.admit_group(first.cell, &requests[i..j], out);
                    i = j;
                }
                Request::Release(frame) => {
                    out.push(self.release_one(frame.cell, frame.id, frame.time));
                    i += 1;
                }
            }
        }
    }

    /// Apply one group of admit frames for `cell`, one decision per
    /// frame that passes the replay and capacity screens.
    fn admit_group(&self, cell: u32, group: &[Request], out: &mut Vec<Response>) {
        let cell = cell as usize;
        if cell >= self.grid.len() {
            self.count_unrouted(metrics::counter::FRAMES_ADMIT, group.len());
            out.extend(group.iter().map(|r| Response::error(r.id())));
            return;
        }
        let shard = &mut *self.shards[self.shard_of(cell)].lock().expect("shard lock");
        let local = cell - shard.base;
        let watch = Stopwatch::started(true);
        let cell_id = shard.stations[local].cell();
        shard
            .registry
            .add(metrics::counter::FRAMES_ADMIT, group.len() as u64);
        shard.registry.add(metrics::counter::BATCHES, 1);
        shard
            .registry
            .observe(metrics::histogram::BATCH_SIZE, group.len() as u64);
        for request in group {
            let Request::Admit(frame) = request else {
                unreachable!("admit_group only sees admit runs");
            };
            let request = admission_request(frame, cell_id);
            shard.advance(local, request.time);
            let response = shard.offer(local, &request);
            shard
                .registry
                .add(metrics::response_counter(response.status), 1);
            out.push(response);
        }
        if let Some(ns) = watch.elapsed_ns() {
            shard.registry.span_ns(metrics::span::PROCESS, ns);
        }
    }

    /// Apply one release frame.
    fn release_one(&self, cell: u32, id: u64, time: f64) -> Response {
        let cell = cell as usize;
        if cell >= self.grid.len() {
            self.count_unrouted(metrics::counter::FRAMES_RELEASE, 1);
            return Response::error(id);
        }
        let shard = &mut *self.shards[self.shard_of(cell)].lock().expect("shard lock");
        let local = cell - shard.base;
        shard.registry.add(metrics::counter::FRAMES_RELEASE, 1);
        shard.advance(local, time);
        let response = match cell::release(&mut shard.stations[local], &mut *shard.controller, id) {
            Some(_) => Response {
                status: Status::Accept,
                id,
                score: 0.0,
            },
            None => Response::error(id),
        };
        shard
            .registry
            .add(metrics::response_counter(response.status), 1);
        response
    }

    /// Count `n` frames (under the `frames` counter) that named a cell
    /// outside the grid, and their error responses.
    fn count_unrouted(&self, frames: CounterId, n: usize) {
        let mut registry = self.unrouted.lock().expect("unrouted registry");
        registry.add(frames, n as u64);
        registry.add(metrics::response_counter(Status::Error), n as u64);
    }

    /// Merge every shard's telemetry into one snapshot.
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut merged = self.unrouted.lock().expect("unrouted registry").snapshot();
        for shard in &self.shards {
            let snap = shard.lock().expect("shard lock").registry.snapshot();
            merged.merge(&snap);
        }
        merged
    }

    /// Per-cell occupancy snapshot (the `/state` payload).
    #[must_use]
    pub fn state(&self) -> WorldState {
        let mut per_cell = Vec::with_capacity(self.grid.len());
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock");
            for station in &shard.stations {
                per_cell.push(CellState {
                    q: station.cell().q,
                    r: station.cell().r,
                    occupied: station.occupied(),
                    capacity: station.capacity(),
                    active: station.active_connections(),
                    rtc: station.rtc(),
                    nrtc: station.nrtc(),
                    total_admitted: station.total_admitted(),
                    total_released: station.total_released(),
                });
            }
        }
        WorldState {
            controller: self.controller_label.clone(),
            cells: per_cell.len(),
            shards: self.shards.len(),
            occupied_total: per_cell.iter().map(|c| u64::from(c.occupied)).sum(),
            active_total: per_cell.iter().map(|c| c.active as u64).sum(),
            per_cell,
        }
    }

    /// Occupied bandwidth of one cell by dense index, if it exists.
    #[must_use]
    pub fn occupied(&self, cell: usize) -> Option<Bandwidth> {
        if cell >= self.grid.len() {
            return None;
        }
        let shard = self.shards[self.shard_of(cell)].lock().expect("shard lock");
        Some(shard.stations[cell - shard.base].occupied())
    }

    /// Release every `(cell, id)` a disconnected client left behind,
    /// at each cell's current clock.  Ids that are no longer active
    /// (already expired or explicitly released) are skipped silently.
    /// Returns the number of connections actually freed.
    pub fn release_abandoned(&self, connections: &[(u32, u64)]) -> u64 {
        let mut freed = 0;
        for &(cell, id) in connections {
            let cell = cell as usize;
            if cell >= self.grid.len() {
                continue;
            }
            let shard = &mut *self.shards[self.shard_of(cell)].lock().expect("shard lock");
            let local = cell - shard.base;
            if cell::release(&mut shard.stations[local], &mut *shard.controller, id).is_some() {
                shard.registry.add(metrics::counter::DISCONNECT_RELEASES, 1);
                freed += 1;
            }
        }
        freed
    }

    /// Checkpoint the authoritative state: every station (active
    /// connections included) plus the per-cell clocks, in dense cell
    /// order.  Taken shard by shard under each shard's lock.
    #[must_use]
    pub fn snapshot(&self) -> WorldSnapshot {
        let mut stations = Vec::with_capacity(self.grid.len());
        let mut clocks = Vec::with_capacity(self.grid.len());
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock");
            stations.extend(shard.stations.iter().cloned());
            clocks.extend(shard.clocks.iter().copied());
        }
        WorldSnapshot {
            controller: self.controller_label.clone(),
            cells: stations.len(),
            stations,
            clocks,
        }
    }

    /// Install a checkpoint into this (freshly built) world: stations
    /// and clocks are restored exactly, and the per-shard controllers
    /// are re-warmed with one synthetic `on_admitted` per surviving
    /// connection.  Kinematics (speed, heading, distance) are not part
    /// of a checkpoint, so mobility-informed controller internals
    /// restart cold; the counter state every shipped controller decides
    /// against is bit-exact.  Returns the number of live connections
    /// restored.
    ///
    /// # Errors
    ///
    /// Fails without touching state when the snapshot's cell count does
    /// not match this world's grid ([`RestoreError::Shape`]), or when a
    /// station breaks an invariant every live station keeps
    /// ([`RestoreError::Invalid`]): station `i` must be the grid's `i`-th
    /// cell with this world's capacity, its RTC and NRTC counters must
    /// equal the per-class sums of its connections' bandwidths and
    /// together fit its capacity, no connection id may repeat within it,
    /// and its clock and every connection's `admitted_at` and `ends_at`
    /// must be finite.
    pub fn restore(&self, snapshot: &WorldSnapshot) -> Result<u64, RestoreError> {
        check_snapshot(snapshot, &self.grid, self.station_capacity)?;
        let mut restored = 0;
        for shard in &self.shards {
            let shard = &mut *shard.lock().expect("shard lock");
            let base = shard.base;
            for local in 0..shard.stations.len() {
                shard.stations[local] = snapshot.stations[base + local].clone();
                shard.clocks[local] = snapshot.clocks[base + local];
                let Shard {
                    controller,
                    stations,
                    ..
                } = shard;
                let station = &stations[local];
                for conn in station.connections() {
                    controller.on_admitted(&replayed_request(conn, station), station);
                    restored += 1;
                }
            }
        }
        Ok(restored)
    }
}

/// Why [`World::restore`] refused a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// The snapshot was taken from a world with a different cell count.
    Shape {
        /// Cells in the snapshot.
        snapshot: usize,
        /// Cells in the restoring world.
        world: usize,
    },
    /// Station `cell` (dense index) breaks the invariant `reason` names.
    Invalid {
        /// Dense index of the offending cell.
        cell: usize,
        /// The broken invariant.
        reason: String,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Shape { snapshot, world } => {
                write!(
                    f,
                    "snapshot has {snapshot} cells but this world has {world}"
                )
            }
            Self::Invalid { cell, reason } => {
                write!(f, "snapshot cell {cell} is invalid: {reason}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// The checks [`World::restore`] runs before touching any state, for a
/// world of `grid` whose stations hold `capacity` BU; returns the first
/// violation found.
fn check_snapshot(
    snapshot: &WorldSnapshot,
    grid: &CellGrid,
    capacity: Bandwidth,
) -> Result<(), RestoreError> {
    if snapshot.cells != grid.len()
        || snapshot.stations.len() != grid.len()
        || snapshot.clocks.len() != grid.len()
    {
        return Err(RestoreError::Shape {
            snapshot: snapshot.stations.len(),
            world: grid.len(),
        });
    }
    let mut ids = HashSet::new();
    for (i, (station, &clock)) in snapshot.stations.iter().zip(&snapshot.clocks).enumerate() {
        let invalid = |reason: String| RestoreError::Invalid { cell: i, reason };
        if station.cell() != grid.cells()[i] {
            return Err(invalid(format!(
                "station for cell {} where the grid has cell {}",
                station.cell(),
                grid.cells()[i]
            )));
        }
        if station.capacity() != capacity {
            return Err(invalid(format!(
                "capacity {} BU differs from the world's {capacity} BU",
                station.capacity()
            )));
        }
        if !clock.is_finite() {
            return Err(invalid(format!("clock {clock} is not finite")));
        }
        let (mut rt, mut nrt) = (0u64, 0u64);
        ids.clear();
        for conn in station.connections() {
            if !ids.insert(conn.id) {
                return Err(invalid(format!("connection id {} repeats", conn.id)));
            }
            if !(conn.admitted_at.is_finite() && conn.ends_at.is_finite()) {
                return Err(invalid(format!(
                    "connection {} has admitted_at {} and ends_at {}; both must be finite",
                    conn.id, conn.admitted_at, conn.ends_at
                )));
            }
            if conn.class.is_real_time() {
                rt += u64::from(conn.bandwidth);
            } else {
                nrt += u64::from(conn.bandwidth);
            }
        }
        if u64::from(station.rtc()) != rt || u64::from(station.nrtc()) != nrt {
            return Err(invalid(format!(
                "counters rtc {} / nrtc {} BU differ from its connections' {rt} / {nrt} BU",
                station.rtc(),
                station.nrtc()
            )));
        }
        if rt + nrt > u64::from(capacity) {
            return Err(invalid(format!(
                "connections hold {} BU of a {capacity} BU capacity",
                rt + nrt
            )));
        }
    }
    Ok(())
}

/// A durable checkpoint of a [`World`]'s authoritative state, written
/// by `admitd serve --snapshot` and re-installed by `--restore`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldSnapshot {
    /// Label of the controller the world was running.
    pub controller: String,
    /// Number of cells (must match the restoring world's grid).
    pub cells: usize,
    /// Every station in dense cell order, active connections included.
    pub stations: Vec<BaseStation>,
    /// Per-cell logical clocks in dense cell order.
    pub clocks: Vec<f64>,
}

/// Serialize `world` and write it to `path` atomically (temp file in
/// the same directory, then rename), so a crash mid-write can never
/// leave a torn checkpoint behind.
///
/// # Errors
///
/// Propagates filesystem errors from the write or the rename.
pub fn save_snapshot(world: &World, path: &Path) -> std::io::Result<()> {
    let snapshot = world.snapshot();
    let json = serde_json::to_string(&snapshot)
        .map_err(|e| std::io::Error::other(format!("cannot serialize snapshot: {e}")))?;
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, json)?;
    std::fs::rename(&tmp, path)
}

/// Read and parse a checkpoint written by [`save_snapshot`].
///
/// # Errors
///
/// Returns a message naming the path for unreadable files and parse
/// failures alike.
pub fn load_snapshot(path: &Path) -> Result<WorldSnapshot, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read snapshot {}: {e}", path.display()))?;
    serde_json::from_str(&text)
        .map_err(|e| format!("snapshot {} is not valid: {e}", path.display()))
}

/// The admission request re-announced to a controller for a connection
/// restored from a checkpoint.
fn replayed_request(
    conn: &cellsim::station::ActiveConnection,
    station: &BaseStation,
) -> AdmissionRequest {
    AdmissionRequest {
        id: conn.id,
        cell: station.cell(),
        time: conn.admitted_at,
        class: conn.class,
        bandwidth: conn.bandwidth,
        holding_time: conn.ends_at - conn.admitted_at,
        speed_kmh: 0.0,
        angle_deg: 0.0,
        distance_m: None,
        is_handoff: conn.was_handoff,
    }
}

/// Translate a wire frame into the engine's request type.
fn admission_request(frame: &AdmitFrame, cell: cellsim::CellId) -> AdmissionRequest {
    let mut request = AdmissionRequest {
        id: frame.id,
        cell,
        time: frame.time,
        class: frame.class,
        bandwidth: frame.bandwidth,
        holding_time: frame.holding_time,
        speed_kmh: frame.speed_kmh,
        angle_deg: frame.angle_deg,
        distance_m: None,
        is_handoff: frame.is_handoff,
    };
    if let Some(distance) = frame.distance_m {
        request = request.with_distance(distance);
    }
    request
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim::{AdmissionController, AdmissionDecision, ServiceClass, SimRng};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use sweep::ControllerSpec;

    const SPECS: [ControllerSpec; 6] = [
        ControllerSpec::FacsP,
        ControllerSpec::FacsPLut,
        ControllerSpec::Facs,
        ControllerSpec::Scc,
        ControllerSpec::AlwaysAccept,
        ControllerSpec::Threshold {
            new_call: 0.85,
            handoff: 0.95,
        },
    ];

    fn frame(id: u64, class: ServiceClass, time: f64, holding: f64) -> Request {
        Request::Admit(AdmitFrame {
            cell: 0,
            id,
            class,
            is_handoff: id % 3 == 0,
            bandwidth: class.paper_bandwidth(),
            time,
            holding_time: holding,
            speed_kmh: 40.0 + id as f64,
            angle_deg: (id as f64 * 37.0) % 180.0 - 90.0,
            distance_m: Some(200.0 + id as f64),
        })
    }

    fn workload(n: u64) -> Vec<Request> {
        (0..n)
            .map(|i| {
                let class = ServiceClass::ALL[(i % 3) as usize];
                frame(i, class, i as f64 * 0.25, 8.0 + (i % 5) as f64)
            })
            .collect()
    }

    /// A burst-shaped stream over a 19-cell grid: same-instant admit
    /// groups of 5-15 calls for one cell, some with a later tail so that
    /// calls admitted at the group's start expire inside it, holding
    /// times short enough that calls also expire between groups,
    /// duplicate-id replays inside and between groups, releases of live,
    /// expired and unknown ids, and frames naming cells outside the grid.
    fn burst_stream(seed: u64, groups: usize) -> Vec<Request> {
        let mut rng = SimRng::new(seed);
        let mut frames = Vec::new();
        let mut sent: Vec<AdmitFrame> = Vec::new();
        let mut time = 0.0;
        let mut next_id = 0u64;
        for _ in 0..groups {
            time += rng.exponential(0.3);
            // Cells 19 and up lie outside the 19-cell grid.
            let cell = if rng.chance(0.05) {
                rng.uniform_u32(19, 22)
            } else {
                rng.uniform_u32(0, 18)
            };
            let size = rng.uniform_u32(5, 15) as usize;
            let split = if rng.chance(0.3) {
                rng.uniform_u32(1, size as u32 - 1) as usize
            } else {
                size
            };
            let tail_at = time + rng.uniform(0.5, 3.0);
            let first = sent.len();
            for k in 0..size {
                if k > 0 && rng.chance(0.15) {
                    let replay = sent[first + rng.uniform_u32(0, (k - 1) as u32) as usize];
                    frames.push(Request::Admit(replay));
                }
                let class = ServiceClass::ALL[rng.uniform_u32(0, 2) as usize];
                let frame = AdmitFrame {
                    cell,
                    id: next_id,
                    class,
                    is_handoff: rng.chance(0.3),
                    bandwidth: class.paper_bandwidth(),
                    time: if k < split { time } else { tail_at },
                    holding_time: 0.05 + rng.exponential(6.0),
                    speed_kmh: rng.uniform(0.0, 120.0),
                    angle_deg: rng.uniform(-180.0, 180.0),
                    distance_m: Some(rng.uniform(0.0, 1000.0)),
                };
                next_id += 1;
                sent.push(frame);
                frames.push(Request::Admit(frame));
            }
            if rng.chance(0.1) {
                let replay = sent[rng.uniform_u32(0, sent.len() as u32 - 1) as usize];
                frames.push(Request::Admit(replay));
            }
            for _ in 0..rng.uniform_u32(0, 2) {
                let target = sent[rng.uniform_u32(0, sent.len() as u32 - 1) as usize];
                let cell = if rng.chance(0.05) { 40 } else { target.cell };
                frames.push(Request::Release(crate::wire::ReleaseFrame {
                    cell,
                    id: target.id,
                    time,
                }));
            }
        }
        frames
    }

    /// Submitting whole same-cell groups at once must answer exactly like
    /// submitting the same frames one by one, for every shipped
    /// controller: on the paper's single cell, and on a burst-shaped
    /// stream over a 19-cell world behind four lock shards.
    #[test]
    fn batched_processing_matches_frame_at_a_time() {
        let burst = WorldConfig {
            grid_radius_cells: 2,
            shards: 4,
            ..WorldConfig::paper_default()
        };
        let cases = [
            (WorldConfig::paper_default(), workload(160)),
            (burst, burst_stream(0xB0057, 400)),
        ];
        for (config, requests) in &cases {
            for spec in SPECS {
                let grouped = World::new(config, &spec.label(), || spec.build());
                let sequential = World::new(config, &spec.label(), || spec.build());
                let mut grouped_out = Vec::new();
                grouped.process(requests, &mut grouped_out);
                let mut sequential_out = Vec::new();
                for request in requests {
                    sequential.process(std::slice::from_ref(request), &mut sequential_out);
                }
                assert_eq!(grouped_out, sequential_out, "controller {}", spec.label());
                for cell in 0..grouped.grid().len() {
                    assert_eq!(grouped.occupied(cell), sequential.occupied(cell));
                }
                assert_eq!(
                    grouped.state().active_total,
                    sequential.state().active_total
                );
                // Frame, response and expiry counts agree; only the
                // number of groups differs.
                let counters = |world: &World| {
                    let mut counters = world.telemetry().counters;
                    counters.retain(|c| c.name != "admitd_batches_total");
                    counters
                };
                assert_eq!(counters(&grouped), counters(&sequential));
            }
        }
        // The burst stream exercises every path it claims to.
        let (_, requests) = &cases[1];
        let world = World::new(&cases[1].0, "always-accept", || {
            ControllerSpec::AlwaysAccept.build()
        });
        let mut out = Vec::new();
        world.process(requests, &mut out);
        let count = |status| out.iter().filter(|r| r.status == status).count();
        assert!(count(Status::Accept) > 0 && count(Status::Error) > 0);
        assert!(out
            .iter()
            .any(|r| r.status == Status::Reject && r.score == -1.0));
        let telemetry = world.telemetry();
        let expired = telemetry
            .counters
            .iter()
            .find(|c| c.name == "admitd_expired_releases_total")
            .map_or(0, |c| c.value);
        assert!(expired > 0);
    }

    /// A controller that counts the decisions it is asked for.
    struct Counting {
        inner: BoxedController,
        decides: Arc<AtomicU64>,
    }

    impl AdmissionController for Counting {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn decide(
            &mut self,
            request: &AdmissionRequest,
            station: &BaseStation,
        ) -> AdmissionDecision {
            self.decides.fetch_add(1, Ordering::Relaxed);
            self.inner.decide(request, station)
        }

        fn on_admitted(&mut self, request: &AdmissionRequest, station: &BaseStation) {
            self.inner.on_admitted(request, station);
        }

        fn on_released(&mut self, connection_id: u64, station: &BaseStation) {
            self.inner.on_released(connection_id, station);
        }
    }

    /// Every frame that passes the replay and capacity screens costs
    /// exactly one `decide`, and nothing is decided ahead of its turn.
    #[test]
    fn a_burst_is_decided_once_per_screened_frame() {
        let decides = Arc::new(AtomicU64::new(0));
        let world = World::new(&WorldConfig::paper_default(), "counting", || {
            Box::new(Counting {
                inner: ControllerSpec::AlwaysAccept.build(),
                decides: Arc::clone(&decides),
            })
        });
        // Fifteen calls at one instant, one of them a replay of an
        // earlier id, against one 40-BU cell.
        let mut burst: Vec<Request> = (0..14)
            .map(|i| frame(i, ServiceClass::ALL[(i % 3) as usize], 5.0, 60.0))
            .collect();
        burst.insert(6, burst[2]);
        let mut out = Vec::new();
        world.process(&burst, &mut out);

        // Under admit-if-it-fits, a frame passes the screens exactly when
        // its id is new and its bandwidth fits what is left.
        let mut occupied = 0;
        let mut admitted = Vec::new();
        for request in &burst {
            let Request::Admit(f) = request else {
                unreachable!()
            };
            if !admitted.contains(&f.id) && occupied + f.bandwidth <= 40 {
                occupied += f.bandwidth;
                admitted.push(f.id);
            }
        }
        assert!(admitted.len() < 14, "the burst overflows the cell");
        assert_eq!(decides.load(Ordering::Relaxed), admitted.len() as u64);
        assert_eq!(world.occupied(0), Some(occupied));
    }

    /// One same-cell group is one batch observation of the group's size.
    #[test]
    fn a_same_cell_group_records_one_batch_of_its_size() {
        let world = World::new(&WorldConfig::paper_default(), "always-accept", || {
            ControllerSpec::AlwaysAccept.build()
        });
        let mut out = Vec::new();
        world.process(&workload(10), &mut out);
        let telemetry = world.telemetry();
        let batches = telemetry
            .counters
            .iter()
            .find(|c| c.name == "admitd_batches_total")
            .expect("batch counter");
        assert_eq!(batches.value, 1);
        let sizes = telemetry
            .histograms
            .iter()
            .find(|h| h.name == "admitd_batch_size")
            .expect("batch-size histogram");
        assert_eq!((sizes.count, sizes.sum), (1, 10));
    }

    #[test]
    fn releases_free_capacity_and_unknown_ids_error() {
        let world = World::new(&WorldConfig::paper_default(), "always-accept", || {
            ControllerSpec::AlwaysAccept.build()
        });
        let mut out = Vec::new();
        world.process(&workload(4), &mut out);
        assert!(out.iter().all(|r| r.status == Status::Accept));
        let occupied = world.occupied(0).unwrap();
        assert!(occupied > 0);

        out.clear();
        world.process(
            &[Request::Release(crate::wire::ReleaseFrame {
                cell: 0,
                id: 1,
                time: 2.0,
            })],
            &mut out,
        );
        assert_eq!(out[0].status, Status::Accept);
        assert!(world.occupied(0).unwrap() < occupied);

        out.clear();
        world.process(
            &[Request::Release(crate::wire::ReleaseFrame {
                cell: 0,
                id: 999,
                time: 2.0,
            })],
            &mut out,
        );
        assert_eq!(out[0].status, Status::Error);
    }

    #[test]
    fn out_of_grid_cells_get_error_responses() {
        let world = World::new(&WorldConfig::paper_default(), "always-accept", || {
            ControllerSpec::AlwaysAccept.build()
        });
        let mut out = Vec::new();
        let mut bad = workload(1);
        if let Request::Admit(f) = &mut bad[0] {
            f.cell = 77;
        }
        bad.push(Request::Release(crate::wire::ReleaseFrame {
            cell: 77,
            id: 0,
            time: 1.0,
        }));
        world.process(&bad, &mut out);
        assert_eq!(out[0].status, Status::Error);
        assert_eq!(out[1].status, Status::Error);
        // Both frames and both responses are counted.
        let telemetry = world.telemetry();
        let total = |name: &str| -> u64 {
            telemetry
                .counters
                .iter()
                .filter(|c| c.name == name)
                .map(|c| c.value)
                .sum()
        };
        assert_eq!(total("admitd_frames_total"), 2);
        assert_eq!(total("admitd_responses_total"), 2);
        let summary = crate::server::summary_from(&telemetry);
        assert_eq!(summary.errors, 2);
    }

    #[test]
    fn telemetry_snapshot_lints_clean() {
        let world = World::new(&WorldConfig::paper_default(), "FACS-P", || {
            ControllerSpec::FacsP.build()
        });
        let mut out = Vec::new();
        world.process(&workload(64), &mut out);
        telemetry::lint_prometheus(&world.telemetry().to_prometheus()).expect("clean exposition");
        let state = world.state();
        assert_eq!(state.cells, 1);
        assert_eq!(state.per_cell.len(), 1);
        assert_eq!(u64::from(state.per_cell[0].occupied), state.occupied_total);
    }
}
