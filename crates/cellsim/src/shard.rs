//! Spatially sharded, epoch-synchronised parallel simulation engine.
//!
//! [`ShardedSimulator`] partitions the [`CellGrid`] into contiguous
//! [`CellIdx`] ranges — *shards* — each owning its cells' base stations,
//! per-cell admission controllers, user slab and event heap.  Time advances
//! in fixed-length **epochs**: within an epoch every shard runs the same
//! three-stream event loop as the sequential [`crate::sim::Simulator`]
//! (sorted arrival buffer / computed mobility ticks / run-time event heap)
//! over its own cells, completely independently of the other shards.
//!
//! The one interaction between cells — handoff admission at the target
//! station — is **deferred to the epoch boundary**: when a handoff fires,
//! the source shard transfers the connection out immediately (local state)
//! and emits a message carrying the connection and the user's kinematic
//! state.  At the barrier, all shards' messages are merged into a single
//! queue ordered by `(time, connection id)` (see [`MergeKey`]) and replayed
//! sequentially against the target cells; cascaded handoffs and departures
//! that land before the epoch boundary are folded into the same ordered
//! queue, and anything later is scheduled into the owning shard's heap for
//! a future epoch.
//!
//! # Determinism contract
//!
//! A run is **bit-identical for any shard count and any thread count**,
//! because nothing a shard computes depends on which other cells share its
//! shard:
//!
//! * arrivals are pre-generated and pre-assigned to cells by a global
//!   sequential RNG stream before sharding;
//! * each call's spawn kinematics come from an RNG derived from the call id
//!   (order-independent);
//! * controller state is strictly per-cell;
//! * handoff admissions are deferred to the `(time, connection id)`-ordered
//!   barrier merge *even when source and target share a shard*, so a
//!   1-shard run follows exactly the same rules as an N-shard run;
//! * metric counters merge commutatively and utilisation is accumulated
//!   per cell and reduced in global cell order.
//!
//! The deferral is a deliberate, uniform semantic difference from the
//! sequential engine (which admits handoffs with zero lookahead):
//! `ShardedSimulator` with one shard is the reference run that
//! `tests/golden/` pins, not `Simulator`.  The epoch length
//! ([`ShardConfig::epoch_s`]) is part of the contract: changing it changes
//! which admissions see which capacity, exactly like changing a seed.

use crate::event::{EventKind, EventQueue};
use crate::fault::FaultEvent;
use crate::geometry::{CellGrid, CellIdx};
use crate::metrics::Metrics;
use crate::mobility::{spawn_uniform, UserState};
use crate::rng::SimRng;
use crate::sim::{AdmissionController, AdmissionDecision, AdmissionRequest, SimConfig};
use crate::slab::{Slab, SlotId};
use crate::station::{ActiveConnection, BaseStation};
use crate::telem::{self, DefaultRecorder};
use crate::traffic::{CallRequest, ServiceClass, SpawnCellAssigner, TrafficGenerator};
use crate::{Bandwidth, SimTime};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use telemetry::{Recorder, Stopwatch, TelemetrySnapshot, TraceEvent};

/// A boxed admission controller that can move to a worker thread.
pub type BoxedController = Box<dyn AdmissionController + Send>;

/// Default epoch length (seconds) when none is configured.
pub const DEFAULT_EPOCH_S: SimTime = 5.0;

/// Sharding parameters: how the grid is partitioned and executed.
///
/// `shards` and `epoch_s` are part of the determinism contract (they select
/// *which* run is computed); `threads` is pure execution policy and never
/// changes results.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Number of spatial shards (clamped to `1..=cells`).
    pub shards: usize,
    /// Worker threads for the intra-epoch phase (floored at 1).
    pub threads: usize,
    /// Epoch length in seconds (must be finite and positive; falls back to
    /// [`DEFAULT_EPOCH_S`] otherwise).
    pub epoch_s: SimTime,
}

impl ShardConfig {
    /// A configuration with `shards` shards, one worker thread and the
    /// default epoch length.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            threads: 1,
            epoch_s: DEFAULT_EPOCH_S,
        }
    }

    /// The single-shard reference configuration.
    #[must_use]
    pub fn solo() -> Self {
        Self::new(1)
    }

    /// Set the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the epoch length in seconds.
    #[must_use]
    pub fn with_epoch_s(mut self, epoch_s: SimTime) -> Self {
        self.epoch_s = epoch_s;
        self
    }
}

/// The result of one sharded run.
///
/// Every field is **shard- and thread-count invariant**; the golden
/// equivalence tests compare serialised reports byte-for-byte across
/// shardings.  Execution metadata that *does* vary (worker count, wall
/// time) is deliberately excluded.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct ShardReport {
    /// Name of the admission controller driving every cell.
    pub controller: String,
    /// Offered connections (new calls + handoff attempts).
    pub offered: u64,
    /// Accepted connections.
    pub accepted: u64,
    /// Acceptance share of offered connections, in percent.
    pub acceptance_percentage: f64,
    /// New-call blocking probability.
    pub blocking_probability: f64,
    /// Handoff dropping probability.
    pub dropping_probability: f64,
    /// Connections that completed normally.
    pub completed: u64,
    /// Connections dropped at a failed handoff.
    pub dropped: u64,
    /// Handoff attempts offered.
    pub handoffs_offered: u64,
    /// Handoff attempts admitted at the target cell.
    pub handoffs_accepted: u64,
    /// Handoff attempts rejected (call dropped).
    pub handoffs_failed: u64,
    /// Mean utilisation over all per-cell samples, in `[0, 1]`.
    pub mean_utilization: f64,
    /// Number of per-cell utilisation samples taken.
    pub utilization_samples: u64,
    /// Peak number of concurrently active connections, sampled at every
    /// epoch boundary.
    pub peak_concurrent_users: u64,
    /// Arrivals, departures, handoffs and barrier-merge admissions
    /// processed (mobility ticks are counted by `utilization_samples`).
    pub events_processed: u64,
    /// Number of epochs executed (empty stretches are skipped).
    pub epochs: u64,
    /// Connections force-dropped by a cell outage (also counted in
    /// `dropped`).  Serialised only when nonzero, so fault-free reports
    /// keep their exact pre-fault byte layout.
    #[serde(default)]
    pub dropped_by_outage: u64,
}

// Hand-written so `dropped_by_outage` is emitted only when nonzero:
// every fault-free report (and thus every pre-fault golden snapshot)
// keeps its exact byte layout.  Field order mirrors the declaration.
impl Serialize for ShardReport {
    fn serialize_value(&self) -> serde::Value {
        let mut fields = vec![
            ("controller".to_string(), self.controller.serialize_value()),
            ("offered".to_string(), self.offered.serialize_value()),
            ("accepted".to_string(), self.accepted.serialize_value()),
            (
                "acceptance_percentage".to_string(),
                self.acceptance_percentage.serialize_value(),
            ),
            (
                "blocking_probability".to_string(),
                self.blocking_probability.serialize_value(),
            ),
            (
                "dropping_probability".to_string(),
                self.dropping_probability.serialize_value(),
            ),
            ("completed".to_string(), self.completed.serialize_value()),
            ("dropped".to_string(), self.dropped.serialize_value()),
            (
                "handoffs_offered".to_string(),
                self.handoffs_offered.serialize_value(),
            ),
            (
                "handoffs_accepted".to_string(),
                self.handoffs_accepted.serialize_value(),
            ),
            (
                "handoffs_failed".to_string(),
                self.handoffs_failed.serialize_value(),
            ),
            (
                "mean_utilization".to_string(),
                self.mean_utilization.serialize_value(),
            ),
            (
                "utilization_samples".to_string(),
                self.utilization_samples.serialize_value(),
            ),
            (
                "peak_concurrent_users".to_string(),
                self.peak_concurrent_users.serialize_value(),
            ),
            (
                "events_processed".to_string(),
                self.events_processed.serialize_value(),
            ),
            ("epochs".to_string(), self.epochs.serialize_value()),
        ];
        if self.dropped_by_outage > 0 {
            fields.push((
                "dropped_by_outage".to_string(),
                self.dropped_by_outage.serialize_value(),
            ));
        }
        serde::Value::Object(fields)
    }
}

/// Ordering key of the epoch-boundary merge queue.
///
/// Messages are replayed in ascending `(time, connection_id, rank)` order.
/// Connection ids are globally unique and assigned by the (shard-invariant)
/// arrival generator, so the order — unlike per-shard event sequence
/// numbers — does not depend on how the grid was partitioned.  `rank`
/// breaks the (structurally impossible, but float-edge conceivable) tie of
/// two queue entries for the same connection at the same instant:
/// releases before admissions before cascaded handoffs.
#[derive(Debug, Clone, Copy)]
pub struct MergeKey {
    /// Event time in seconds.
    pub time: SimTime,
    /// Globally unique connection id.
    pub connection_id: u64,
    /// Same-connection same-time tiebreak (release < admit < handoff).
    pub rank: u8,
}

/// [`MergeKey::rank`] of a deferred departure.
pub const RANK_RELEASE: u8 = 0;
/// [`MergeKey::rank`] of a handoff admission at the target cell.
pub const RANK_ADMIT: u8 = 1;
/// [`MergeKey::rank`] of a cascaded handoff discovered during the merge.
pub const RANK_HANDOFF: u8 = 2;
/// [`MergeKey::rank`] of a scheduled [`crate::fault::FaultEvent`].  Faults
/// carry a synthetic connection id in a reserved range (see
/// [`crate::fault::FaultEvent::merge_key`]), so the rank only matters for
/// documenting their position in the total order.
pub const RANK_FAULT: u8 = 3;

impl MergeKey {
    /// Build a key.
    #[must_use]
    pub fn new(time: SimTime, connection_id: u64, rank: u8) -> Self {
        Self {
            time,
            connection_id,
            rank,
        }
    }
}

impl Ord for MergeKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.connection_id.cmp(&other.connection_id))
            .then_with(|| self.rank.cmp(&other.rank))
    }
}

impl PartialOrd for MergeKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for MergeKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for MergeKey {}

/// A handoff admission deferred to the epoch barrier: the connection has
/// already been transferred out of its source cell; the target cell's
/// controller decides at merge time.
#[derive(Debug, Clone, Copy)]
struct AdmitMsg {
    time: SimTime,
    connection_id: u64,
    /// Global [`CellIdx`] of the target cell.
    to: u32,
    class: ServiceClass,
    bandwidth: Bandwidth,
    ends_at: SimTime,
    user: UserState,
}

/// Work items of the barrier merge.
#[derive(Debug, Clone, Copy)]
enum MergeTask {
    /// Offer a transferred-out connection to its target cell.
    Admit(AdmitMsg),
    /// A cascaded handoff (the connection was admitted during this merge
    /// and exits its new cell before the epoch boundary).
    Handoff {
        from: u32,
        to: u32,
        connection_id: u64,
        slot: SlotId,
    },
    /// A departure that lands before the epoch boundary.
    Release {
        cell: u32,
        connection_id: u64,
        slot: SlotId,
    },
}

struct MergeEntry {
    key: MergeKey,
    task: MergeTask,
}

impl Ord for MergeEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted: `BinaryHeap` is a max-heap, we want the earliest key.
        other.key.cmp(&self.key)
    }
}

impl PartialOrd for MergeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for MergeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for MergeEntry {}

/// Per-cell utilisation accumulator (mean only — the sharded engine does
/// not keep the full sample series).
#[derive(Debug, Clone, Copy, Default)]
struct UtilAcc {
    sum: f64,
    samples: u64,
}

/// One spatial shard: a contiguous range of cells with everything their
/// simulation needs.
struct Shard<R: Recorder> {
    /// Global [`CellIdx`] of the first cell in this shard.
    start: u32,
    stations: Vec<BaseStation>,
    controllers: Vec<BoxedController>,
    users: Slab<UserState>,
    queue: EventQueue,
    metrics: Metrics,
    util: Vec<UtilAcc>,
    /// Indices into the global arrival buffer, in arrival order.
    arrivals: Vec<u32>,
    next_arrival: usize,
    tick_interval: SimTime,
    next_tick: SimTime,
    ticks_pending: bool,
    clock: SimTime,
    events_processed: u64,
    outbox: Vec<AdmitMsg>,
    /// Nominal (configured) per-station capacity fault transitions are
    /// computed against.
    nominal_capacity: Bandwidth,
    /// This shard's slice of the fault plan, time-sorted (the fourth
    /// event stream).
    faults: Vec<FaultEvent>,
    next_fault: usize,
    /// Scratch buffer for outage force-drops (reused across faults).
    dropped_scratch: Vec<ActiveConnection>,
    rng: SimRng,
    /// Wall time of this shard's last epoch loop (0 with the no-op
    /// recorder — the disabled build makes no clock syscalls).
    last_epoch_ns: u64,
    /// Shard-local telemetry sink (observation-only; merged into the
    /// coordinator's snapshot by [`ShardedSimulator::telemetry`]).
    recorder: R,
}

impl<R: Recorder> Shard<R> {
    fn new(grid: &CellGrid, config: &SimConfig, start: u32, len: usize) -> Self {
        let stations = (start..start + len as u32)
            .map(|i| {
                let cell = grid.cell_id(CellIdx(i));
                BaseStation::new(cell, grid.center_of(&cell), config.station_capacity)
            })
            .collect();
        Self {
            start,
            stations,
            controllers: Vec::with_capacity(len),
            users: Slab::new(),
            queue: EventQueue::new(),
            metrics: Metrics::new(),
            util: vec![UtilAcc::default(); len],
            arrivals: Vec::new(),
            next_arrival: 0,
            tick_interval: config.utilization_sample_interval_s,
            next_tick: 0.0,
            ticks_pending: config.utilization_sample_interval_s > 0.0,
            clock: 0.0,
            events_processed: 0,
            outbox: Vec::new(),
            nominal_capacity: config.station_capacity,
            faults: Vec::new(),
            next_fault: 0,
            dropped_scratch: Vec::new(),
            rng: SimRng::new(config.seed).derive(0xD15C),
            last_epoch_ns: 0,
            recorder: R::for_schema(&telem::SCHEMA),
        }
    }

    /// Re-arm for a new run. The recorder is deliberately *not* reset:
    /// telemetry accumulates across runs like the sequential engine's.
    fn reset(&mut self, config: &SimConfig) {
        for station in &mut self.stations {
            station.reset_for_run(config.station_capacity);
        }
        self.users.clear();
        self.queue.clear();
        self.metrics.reset();
        for acc in &mut self.util {
            *acc = UtilAcc::default();
        }
        self.arrivals.clear();
        self.next_arrival = 0;
        self.tick_interval = config.utilization_sample_interval_s;
        self.next_tick = 0.0;
        self.ticks_pending = self.tick_interval > 0.0;
        self.clock = 0.0;
        self.events_processed = 0;
        self.outbox.clear();
        self.nominal_capacity = config.station_capacity;
        self.faults.clear();
        self.next_fault = 0;
        self.dropped_scratch.clear();
        self.rng = SimRng::new(config.seed).derive(0xD15C);
        self.last_epoch_ns = 0;
    }

    /// Earliest pending event time in this shard (arrival stream, tick
    /// stream or event heap), if any.
    fn next_event_time(&self, calls: &[CallRequest], horizon: SimTime) -> Option<SimTime> {
        let mut min: Option<SimTime> = None;
        let mut consider = |t: SimTime| min = Some(min.map_or(t, |m: SimTime| m.min(t)));
        if let Some(fault) = self.faults.get(self.next_fault) {
            consider(fault.time);
        }
        if let Some(&i) = self.arrivals.get(self.next_arrival) {
            consider(calls[i as usize].arrival_time);
        }
        if self.ticks_pending && self.next_tick <= horizon {
            consider(self.next_tick);
        }
        if let Some(event) = self.queue.peek() {
            consider(event.time);
        }
        min
    }

    /// Run this shard's three-stream loop up to (exclusive) `epoch_end`.
    ///
    /// Mirrors `Simulator::run_poisson` stream merging exactly: on time
    /// ties arrivals fire before ticks and ticks before run-time events.
    /// Handoff *admissions* are never performed here — the source side is
    /// applied locally and the admission is queued on `outbox` for the
    /// barrier merge.
    fn run_epoch(
        &mut self,
        grid: &CellGrid,
        calls: &[CallRequest],
        spawn_cells: &[u32],
        horizon: SimTime,
        epoch_end: SimTime,
    ) {
        let watch = Stopwatch::started(R::ENABLED);
        loop {
            let fault_time = self.faults.get(self.next_fault).map(|f| f.time);
            let arrival_time = self
                .arrivals
                .get(self.next_arrival)
                .map(|&i| calls[i as usize].arrival_time);
            let tick_time = if self.ticks_pending && self.next_tick <= horizon {
                Some(self.next_tick)
            } else {
                self.ticks_pending = false;
                None
            };
            let queued_time = self.queue.peek().map(|e| e.time);

            // Fourth stream: scheduled faults fire before any same-time
            // traffic (tie order fault < arrival < tick < heap), so an
            // arrival at the exact outage instant already sees the dark
            // cell.
            let fire_fault = match fault_time {
                Some(f) => {
                    arrival_time.is_none_or(|a| f <= a)
                        && tick_time.is_none_or(|t| f <= t)
                        && queued_time.is_none_or(|q| f <= q)
                }
                None => false,
            };
            if fire_fault {
                let time = fault_time.expect("checked above");
                if time >= epoch_end {
                    break;
                }
                self.clock = time;
                self.events_processed += 1;
                self.recorder.add(telem::counter::EVENT_FAULT, 1);
                let fault = self.faults[self.next_fault];
                self.next_fault += 1;
                self.apply_fault(&fault);
                continue;
            }
            let fire_arrival = match (arrival_time, tick_time, queued_time) {
                (Some(a), t, q) => t.is_none_or(|t| a <= t) && q.is_none_or(|q| a <= q),
                _ => false,
            };
            if fire_arrival {
                let time = arrival_time.expect("checked above");
                if time >= epoch_end {
                    break;
                }
                self.clock = time;
                self.events_processed += 1;
                self.recorder.add(telem::counter::EVENT_ARRIVAL, 1);
                let index = self.arrivals[self.next_arrival] as usize;
                self.next_arrival += 1;
                let call = calls[index];
                let cell = spawn_cells[index];
                self.handle_arrival(grid, &call, cell);
                continue;
            }
            let fire_tick = match (tick_time, queued_time) {
                (Some(t), q) => q.is_none_or(|q| t <= q),
                _ => false,
            };
            if fire_tick {
                if self.next_tick >= epoch_end {
                    break;
                }
                self.clock = self.next_tick;
                self.next_tick += self.tick_interval;
                self.recorder.add(telem::counter::EVENT_MOBILITY_TICK, 1);
                for (acc, station) in self.util.iter_mut().zip(&self.stations) {
                    acc.sum += station.utilization();
                    acc.samples += 1;
                }
                continue;
            }
            let Some(head) = self.queue.peek() else {
                break;
            };
            if head.time >= epoch_end {
                break;
            }
            let event = self.queue.pop().expect("peeked above");
            self.clock = event.time;
            self.events_processed += 1;
            if R::ENABLED {
                // Depth *including* the popped event, as in the
                // sequential engine.
                let depth = self.queue.len() as u64 + 1;
                self.recorder.observe(telem::histogram::HEAP_DEPTH, depth);
                self.recorder.high_water(telem::gauge::HEAP_DEPTH, depth);
            }
            match event.kind {
                EventKind::Departure {
                    cell,
                    connection_id,
                    user,
                } => {
                    self.recorder.add(telem::counter::EVENT_DEPARTURE, 1);
                    self.handle_departure(cell, connection_id, user);
                }
                EventKind::Handoff {
                    from,
                    to,
                    connection_id,
                    user,
                } => {
                    self.recorder.add(telem::counter::EVENT_HANDOFF, 1);
                    self.handle_handoff(from, to, connection_id, user);
                }
                EventKind::Arrival { .. } => {
                    unreachable!("arrivals are streamed, never heap-scheduled")
                }
                EventKind::MobilityTick | EventKind::EndOfSimulation => {
                    unreachable!("the sharded engine never heap-schedules ticks")
                }
            }
        }
        self.last_epoch_ns = watch.elapsed_ns().unwrap_or(0);
    }

    fn local(&self, cell: u32) -> usize {
        (cell - self.start) as usize
    }

    /// Apply one fault to its cell: adjust capacity, and on an outage
    /// force-drop every active connection (counted per class and in the
    /// outage-drop total) in the station's dense connection order —
    /// which is a pure function of the cell's event history, hence
    /// shard-invariant.  The dropped calls' queued departure/handoff
    /// events become stale and fall through the `Err` no-op paths; their
    /// slab slots are deliberately leaked until the end of the run.
    fn apply_fault(&mut self, fault: &FaultEvent) {
        let local = self.local(fault.cell);
        self.stations[local].set_capacity(fault.kind.capacity(self.nominal_capacity));
        if fault.kind.drops_connections() {
            let mut dropped = std::mem::take(&mut self.dropped_scratch);
            self.stations[local].drop_all_into(&mut dropped);
            for conn in &dropped {
                self.metrics.record_dropped(conn.class);
                self.metrics.record_dropped_by_outage();
                if R::ENABLED {
                    self.recorder.add(telem::counter::OUTAGE_DROPPED, 1);
                }
                self.controllers[local].on_released(conn.id, &self.stations[local]);
            }
            self.dropped_scratch = dropped;
        }
    }

    /// Mirror of `Simulator::handle_arrival` over shard-local state.
    fn handle_arrival(&mut self, grid: &CellGrid, call: &CallRequest, cell: u32) {
        let cell_id = grid.cell_id(CellIdx(cell));
        let center = grid.center_of(&cell_id);
        let mut spawn_rng = self.rng.derive(call.id ^ 0xA11C);
        let user = if grid.len() > 1 {
            let user = spawn_uniform(
                &center,
                grid.cell_radius_m(),
                (call.speed_kmh, call.speed_kmh),
                &mut spawn_rng,
            );
            let bearing = user.position.bearing_to(&center);
            Some(UserState::new(
                user.position,
                call.speed_kmh,
                bearing + call.angle_deg,
            ))
        } else {
            None
        };
        let distance = match &user {
            Some(user) => user.distance_to(&center),
            None => {
                // Same draw prefix as the sequential engine's single-cell
                // path, so the offered distance is bit-identical.
                let r = grid.cell_radius_m().max(0.0) * spawn_rng.uniform(0.0, 1.0).sqrt();
                let theta = spawn_rng.uniform(-std::f64::consts::PI, std::f64::consts::PI);
                let pos = center.translated(r * theta.cos(), r * theta.sin());
                pos.distance(&center)
            }
        };

        let request = AdmissionRequest::from_call(call, cell_id).with_distance(distance);
        if !self.offer_one(&request, cell) {
            return;
        }
        let slot = user.map(|user| self.users.insert(user));
        if R::ENABLED {
            self.recorder
                .high_water(telem::gauge::SLAB_USERS, self.users.len() as u64);
        }
        let departure_at = self.clock + call.holding_time;
        self.queue.schedule(
            departure_at,
            EventKind::Departure {
                cell: CellIdx(cell),
                connection_id: call.id,
                user: slot,
            },
        );
        if let Some(slot) = slot {
            self.maybe_schedule_handoff(grid, cell, call.id, slot, departure_at);
        }
    }

    /// Offer one request to the cell's own controller; `true` if admitted.
    fn offer_one(&mut self, request: &AdmissionRequest, cell: u32) -> bool {
        self.metrics
            .record_offered(request.class, request.is_handoff);
        let local = self.local(cell);
        let fits = self.stations[local].can_fit(request.bandwidth);
        let decision = if fits {
            self.controllers[local].decide(request, &self.stations[local])
        } else {
            AdmissionDecision::reject(-1.0)
        };
        if decision.accept && fits {
            self.stations[local]
                .admit(
                    request.id,
                    request.class,
                    request.bandwidth,
                    request.time,
                    request.holding_time,
                    request.is_handoff,
                )
                .expect("admission checked via can_fit");
            self.metrics
                .record_accepted(request.class, request.bandwidth, request.is_handoff);
            if R::ENABLED {
                self.recorder.add(
                    telem::admission_counter(request.class, true, request.is_handoff),
                    1,
                );
            }
            self.controllers[local].on_admitted(request, &self.stations[local]);
            true
        } else {
            self.metrics
                .record_blocked(request.class, request.is_handoff);
            if R::ENABLED {
                self.recorder.add(
                    telem::admission_counter(request.class, false, request.is_handoff),
                    1,
                );
            }
            false
        }
    }

    fn maybe_schedule_handoff(
        &mut self,
        grid: &CellGrid,
        cell: u32,
        connection_id: u64,
        slot: SlotId,
        departure_at: SimTime,
    ) {
        let Some(user) = self.users.get(slot).copied() else {
            return;
        };
        let cell_id = grid.cell_id(CellIdx(cell));
        let center = grid.center_of(&cell_id);
        let Some(exit_in) = user.time_to_exit(&center, grid.cell_radius_m()) else {
            return;
        };
        let handoff_at = self.clock + exit_in;
        if handoff_at >= departure_at {
            return;
        }
        let Some(target) = grid.next_cell_along(&cell_id, user.heading_deg) else {
            return;
        };
        let to = grid
            .index_of(&target)
            .expect("next_cell_along only returns grid cells");
        self.queue.schedule(
            handoff_at,
            EventKind::Handoff {
                from: CellIdx(cell),
                to,
                connection_id,
                user: slot,
            },
        );
    }

    fn handle_departure(&mut self, cell: CellIdx, connection_id: u64, user: Option<SlotId>) {
        let local = self.local(cell.index() as u32);
        if let Ok(conn) = self.stations[local].release(connection_id) {
            self.metrics.record_completed(conn.class);
            if let Some(slot) = user {
                self.users.remove(slot);
            }
            self.controllers[local].on_released(connection_id, &self.stations[local]);
        }
    }

    /// Source side of a handoff: transfer the connection out *now* (its
    /// bandwidth frees immediately for this shard's later events) and
    /// queue the target-side admission for the barrier merge.
    fn handle_handoff(&mut self, from: CellIdx, to: CellIdx, connection_id: u64, slot: SlotId) {
        let local = self.local(from.index() as u32);
        let Ok(conn) = self.stations[local].transfer_out(connection_id) else {
            return;
        };
        self.controllers[local].on_released(connection_id, &self.stations[local]);
        let Some(user) = self.users.get(slot).copied() else {
            return;
        };
        self.users.remove(slot);
        self.outbox.push(AdmitMsg {
            time: self.clock,
            connection_id,
            to: to.index() as u32,
            class: conn.class,
            bandwidth: conn.bandwidth,
            ends_at: conn.ends_at,
            user,
        });
    }

    fn active_connections(&self) -> u64 {
        self.stations
            .iter()
            .map(|s| s.active_connections() as u64)
            .sum()
    }
}

/// The sharded, epoch-synchronised simulation engine.  See the module docs
/// for the architecture and determinism contract.
///
/// Like [`crate::sim::Simulator`], the engine is generic over its
/// telemetry [`Recorder`] (static dispatch, defaulting to the
/// feature-selected [`DefaultRecorder`]).
/// Each shard carries its own recorder for the sim-level series, and the
/// coordinator records the sharding-specific signals — per-shard epoch
/// wall time, parallel-phase imbalance, merge-queue depth and phase
/// spans.  Recording never touches RNG streams or event order, so
/// reports stay bit-identical whichever recorder is plugged in.
pub struct ShardedSimulator<R: Recorder = DefaultRecorder> {
    config: SimConfig,
    sharding: ShardConfig,
    grid: CellGrid,
    shards: Vec<Shard<R>>,
    /// First global cell index of each shard, ascending.
    starts: Vec<u32>,
    /// Global pre-generated arrival buffer (reused across runs).
    arrivals: Vec<CallRequest>,
    /// Pre-assigned spawn cell of each arrival (global [`CellIdx`] values).
    arrival_cells: Vec<u32>,
    merge_heap: BinaryHeap<MergeEntry>,
    merge_events: u64,
    epochs: u64,
    peak_concurrent: u64,
    label: &'static str,
    /// `std::thread::available_parallelism` read once at construction: on
    /// Linux the call reads cgroup files (tens of microseconds), and the
    /// parallel phase runs once per epoch.
    host_cores: usize,
    /// Coordinator telemetry sink for the sharding-specific series
    /// (observation-only; accumulates across runs until
    /// [`ShardedSimulator::reset_telemetry`]).
    recorder: R,
}

impl ShardedSimulator {
    /// Build a sharded simulator with the feature-selected
    /// [`DefaultRecorder`] (the zero-cost
    /// no-op recorder unless the `telemetry` cargo feature is enabled).
    /// `sharding.shards` is clamped to the number of grid cells and
    /// `sharding.epoch_s` to a finite positive value ([`DEFAULT_EPOCH_S`]
    /// otherwise).
    #[must_use]
    pub fn new(config: SimConfig, sharding: ShardConfig) -> Self {
        Self::with_telemetry(config, sharding)
    }
}

impl<R: Recorder> ShardedSimulator<R> {
    /// Build a sharded simulator with an explicit recorder type, e.g.
    /// `ShardedSimulator::<telemetry::Registry>::with_telemetry(..)` to
    /// instrument a run in a build where the default recorder is the
    /// no-op.  Clamps `sharding` exactly like [`ShardedSimulator::new`].
    #[must_use]
    pub fn with_telemetry(config: SimConfig, sharding: ShardConfig) -> Self {
        let grid = CellGrid::new(config.grid_radius_cells, config.cell_radius_m);
        let cells = grid.len();
        let epoch_s = if sharding.epoch_s.is_finite() && sharding.epoch_s > 0.0 {
            sharding.epoch_s
        } else {
            DEFAULT_EPOCH_S
        };
        let sharding = ShardConfig {
            shards: sharding.shards.clamp(1, cells),
            threads: sharding.threads.max(1),
            epoch_s,
        };
        let base = cells / sharding.shards;
        let rem = cells % sharding.shards;
        let mut shards = Vec::with_capacity(sharding.shards);
        let mut starts = Vec::with_capacity(sharding.shards);
        let mut start = 0u32;
        for i in 0..sharding.shards {
            let len = base + usize::from(i < rem);
            shards.push(Shard::new(&grid, &config, start, len));
            starts.push(start);
            start += len as u32;
        }
        Self {
            config,
            sharding,
            grid,
            shards,
            starts,
            arrivals: Vec::new(),
            arrival_cells: Vec::new(),
            merge_heap: BinaryHeap::new(),
            merge_events: 0,
            epochs: 0,
            peak_concurrent: 0,
            label: "controller",
            host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            recorder: R::for_schema(&telem::SCHEMA),
        }
    }

    /// Snapshot of everything the coordinator *and* every shard recorded
    /// so far, merged in shard order.  Telemetry accumulates across runs;
    /// use [`ShardedSimulator::reset_telemetry`] to start a fresh window.
    /// Always empty with the no-op recorder.
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut snapshot = self.recorder.snapshot();
        for shard in &self.shards {
            snapshot.merge(&shard.recorder.snapshot());
        }
        snapshot
    }

    /// Clear everything the coordinator and shard recorders collected
    /// (capacity is retained).
    pub fn reset_telemetry(&mut self) {
        self.recorder.reset();
        for shard in &mut self.shards {
            shard.recorder.reset();
        }
    }

    /// The effective sharding (after clamping).
    #[must_use]
    pub fn sharding(&self) -> &ShardConfig {
        &self.sharding
    }

    /// The simulation configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The cell grid.
    #[must_use]
    pub fn grid(&self) -> &CellGrid {
        &self.grid
    }

    /// Events processed by the last run (arrivals, departures, handoffs
    /// and barrier-merge admissions; mobility-tick samples excluded).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.merge_events + self.shards.iter().map(|s| s.events_processed).sum::<u64>()
    }

    /// Peak concurrently active connections observed in the last run
    /// (sampled at every epoch boundary).
    #[must_use]
    pub fn peak_concurrent_users(&self) -> u64 {
        self.peak_concurrent
    }

    /// Shard index owning global cell `cell`.
    fn shard_of(&self, cell: u32) -> usize {
        self.starts.partition_point(|&s| s <= cell) - 1
    }

    fn reset_run(&mut self, factory: &mut dyn FnMut() -> BoxedController) {
        self.merge_heap.clear();
        self.merge_events = 0;
        self.epochs = 0;
        self.peak_concurrent = 0;
        let mut label = None;
        for shard in &mut self.shards {
            shard.reset(&self.config);
            shard.controllers.clear();
            for _ in 0..shard.stations.len() {
                let controller = factory();
                if label.is_none() {
                    label = Some(controller.name());
                }
                shard.controllers.push(controller);
            }
        }
        self.label = label.unwrap_or("controller");
    }

    /// Run a Poisson-arrival workload of `total_requests` calls, with one
    /// controller instance (from `factory`) per cell, and return the
    /// shard-invariant report.  Back-to-back runs on one instance are
    /// bit-identical (all state is re-armed first).
    pub fn run_poisson(
        &mut self,
        factory: &mut dyn FnMut() -> BoxedController,
        total_requests: usize,
    ) -> ShardReport
    where
        R: Send,
    {
        self.reset_run(factory);

        // Global arrival stream + spawn-cell assignment, both drawn from
        // the same derived streams as the sequential engine — and, being
        // pre-sharding, identical for every shard count.
        let base_rng = SimRng::new(self.config.seed).derive(0xD15C);
        let mut generator = TrafficGenerator::with_model(
            self.config.traffic.clone(),
            &self.config.traffic_model,
            base_rng.derive(2).seed(),
        );
        let mut arrivals = std::mem::take(&mut self.arrivals);
        generator.generate_poisson_into(total_requests, &mut arrivals);
        let mut spawn_rng = base_rng.derive(3);
        let mut spawn_cells = SpawnCellAssigner::new(&self.config.traffic_model);
        self.arrival_cells.clear();
        self.arrival_cells.reserve(arrivals.len());
        for call in &arrivals {
            let cell = spawn_cells.assign(call.arrival_time, self.grid.len(), &mut spawn_rng);
            self.arrival_cells.push(cell);
        }
        for (i, &cell) in self.arrival_cells.iter().enumerate() {
            let s = self.shard_of(cell);
            self.shards[s].arrivals.push(i as u32);
        }
        // Partition the fault plan to its owning shards in sorted order;
        // events naming cells outside the grid are ignored.
        for fault in self.config.fault_plan.sorted_events() {
            if (fault.cell as usize) < self.grid.len() {
                let s = self.shard_of(fault.cell);
                self.shards[s].faults.push(fault);
            }
        }
        let horizon = arrivals.last().map(|c| c.arrival_time).unwrap_or(0.0);
        self.arrivals = arrivals;

        loop {
            let t_min = self
                .shards
                .iter()
                .filter_map(|s| s.next_event_time(&self.arrivals, horizon))
                .fold(None, |min: Option<SimTime>, t| {
                    Some(min.map_or(t, |m| m.min(t)))
                });
            let Some(t_min) = t_min else {
                break;
            };
            // Jump straight to the epoch containing the next event; long
            // quiet stretches (e.g. the departure tail after the last
            // arrival) cost no empty barriers.
            let epoch_end = self.sharding.epoch_s * ((t_min / self.sharding.epoch_s).floor() + 1.0);
            let parallel_watch = Stopwatch::started(R::ENABLED);
            self.run_phase(epoch_end, horizon);
            if let Some(ns) = parallel_watch.elapsed_ns() {
                self.recorder.span_ns(telem::span::SHARD_PARALLEL_PHASE, ns);
            }
            if R::ENABLED {
                self.observe_epoch_balance();
            }
            let merge_watch = Stopwatch::started(R::ENABLED);
            let merge_depth = self.merge_epoch(epoch_end);
            if let Some(ns) = merge_watch.elapsed_ns() {
                self.recorder.span_ns(telem::span::SHARD_MERGE_PHASE, ns);
            }
            self.epochs += 1;
            let active: u64 = self.shards.iter().map(Shard::active_connections).sum();
            self.peak_concurrent = self.peak_concurrent.max(active);
            if R::ENABLED {
                self.recorder
                    .high_water(telem::gauge::SHARD_CONCURRENT_USERS, active);
                self.recorder.trace(TraceEvent {
                    time_s: epoch_end,
                    kind: telem::TRACE_EPOCH,
                    value: merge_depth,
                });
            }
        }
        self.build_report()
    }

    /// Per-epoch load-balance signals: one `shard_epoch_ns` observation
    /// per shard, plus the slowest-over-mean imbalance ratio in permille
    /// (1000 = perfectly balanced) — the inputs a future work-stealing
    /// scheduler or epoch auto-tuner would steer on.
    fn observe_epoch_balance(&mut self) {
        let mut max_ns = 0u64;
        let mut sum_ns = 0u64;
        for shard in &self.shards {
            let ns = shard.last_epoch_ns;
            self.recorder.observe(telem::histogram::SHARD_EPOCH_NS, ns);
            max_ns = max_ns.max(ns);
            sum_ns += ns;
        }
        let mean = sum_ns / self.shards.len().max(1) as u64;
        if let Some(permille) = max_ns.saturating_mul(1000).checked_div(mean) {
            self.recorder
                .observe(telem::histogram::EPOCH_IMBALANCE_PERMILLE, permille);
        }
    }

    /// Parallel phase: every shard independently runs its event loop up to
    /// `epoch_end`.  Work is chunked over at most `threads` scoped worker
    /// threads — additionally capped at the host's core count, since
    /// oversubscribed workers only add context-switch overhead per epoch
    /// (measured ~17 % at 4 threads on 1 core) — and chunking affects
    /// wall-clock only, never results.
    fn run_phase(&mut self, epoch_end: SimTime, horizon: SimTime)
    where
        R: Send,
    {
        let workers = self
            .sharding
            .threads
            .min(self.shards.len())
            .min(self.host_cores)
            .max(1);
        let grid = &self.grid;
        let calls = &self.arrivals[..];
        let cells = &self.arrival_cells[..];
        if workers <= 1 {
            for shard in &mut self.shards {
                shard.run_epoch(grid, calls, cells, horizon, epoch_end);
            }
            return;
        }
        let chunk = self.shards.len().div_ceil(workers);
        std::thread::scope(|scope| {
            for group in self.shards.chunks_mut(chunk) {
                scope.spawn(move || {
                    for shard in group {
                        shard.run_epoch(grid, calls, cells, horizon, epoch_end);
                    }
                });
            }
        });
    }

    /// Barrier phase: merge every shard's handoff messages into one queue
    /// ordered by [`MergeKey`] and replay it sequentially, folding in
    /// cascaded handoffs and pre-boundary departures as they are
    /// discovered.  Returns the merge-queue depth at the start of the
    /// barrier (carried-over entries plus this epoch's outboxes).
    fn merge_epoch(&mut self, epoch_end: SimTime) -> u64 {
        let mut heap = std::mem::take(&mut self.merge_heap);
        for shard in &mut self.shards {
            for msg in shard.outbox.drain(..) {
                heap.push(MergeEntry {
                    key: MergeKey::new(msg.time, msg.connection_id, RANK_ADMIT),
                    task: MergeTask::Admit(msg),
                });
            }
        }
        let initial_depth = heap.len() as u64;
        if R::ENABLED {
            self.recorder
                .observe(telem::histogram::MERGE_QUEUE_DEPTH, initial_depth);
        }
        while let Some(entry) = heap.pop() {
            self.merge_events += 1;
            let time = entry.key.time;
            match entry.task {
                MergeTask::Admit(msg) => {
                    self.recorder.add(telem::counter::MERGE_ADMIT, 1);
                    self.apply_admit(msg, epoch_end, &mut heap);
                }
                MergeTask::Handoff {
                    from,
                    to,
                    connection_id,
                    slot,
                } => {
                    self.recorder.add(telem::counter::MERGE_HANDOFF, 1);
                    let s = self.shard_of(from);
                    let shard = &mut self.shards[s];
                    let local = shard.local(from);
                    let Ok(conn) = shard.stations[local].transfer_out(connection_id) else {
                        continue;
                    };
                    shard.controllers[local].on_released(connection_id, &shard.stations[local]);
                    let Some(user) = shard.users.get(slot).copied() else {
                        continue;
                    };
                    shard.users.remove(slot);
                    self.apply_admit(
                        AdmitMsg {
                            time,
                            connection_id,
                            to,
                            class: conn.class,
                            bandwidth: conn.bandwidth,
                            ends_at: conn.ends_at,
                            user,
                        },
                        epoch_end,
                        &mut heap,
                    );
                }
                MergeTask::Release {
                    cell,
                    connection_id,
                    slot,
                } => {
                    self.recorder.add(telem::counter::MERGE_RELEASE, 1);
                    let s = self.shard_of(cell);
                    let shard = &mut self.shards[s];
                    let local = shard.local(cell);
                    if let Ok(conn) = shard.stations[local].release(connection_id) {
                        shard.metrics.record_completed(conn.class);
                        shard.users.remove(slot);
                        shard.controllers[local].on_released(connection_id, &shard.stations[local]);
                    }
                }
            }
        }
        self.merge_heap = heap;
        initial_depth
    }

    /// Target side of a handoff, mirroring `Simulator::handle_handoff`
    /// after its `transfer_out`: offer at the target cell; on admission,
    /// re-home the user and schedule the departure and any cascaded
    /// handoff — into the merge queue if before `epoch_end`, into the
    /// owning shard's heap otherwise.
    fn apply_admit(
        &mut self,
        msg: AdmitMsg,
        epoch_end: SimTime,
        heap: &mut BinaryHeap<MergeEntry>,
    ) {
        let s = self.shard_of(msg.to);
        let grid = &self.grid;
        let shard = &mut self.shards[s];
        let local = shard.local(msg.to);
        let to_id = grid.cell_id(CellIdx(msg.to));
        let center = grid.center_of(&to_id);
        let remaining = (msg.ends_at - msg.time).max(0.0);
        let request = AdmissionRequest {
            id: msg.connection_id,
            cell: to_id,
            time: msg.time,
            class: msg.class,
            bandwidth: msg.bandwidth,
            holding_time: remaining,
            speed_kmh: msg.user.speed_kmh,
            angle_deg: msg.user.angle_to_station(&center),
            distance_m: Some(msg.user.distance_to(&center)),
            is_handoff: true,
        };
        shard.metrics.record_offered(msg.class, true);
        let fits = shard.stations[local].can_fit(msg.bandwidth);
        let decision = if fits {
            shard.controllers[local].decide(&request, &shard.stations[local])
        } else {
            AdmissionDecision::reject(-1.0)
        };
        if decision.accept && fits {
            shard.stations[local]
                .admit(
                    msg.connection_id,
                    msg.class,
                    msg.bandwidth,
                    msg.time,
                    remaining,
                    true,
                )
                .expect("admission checked via can_fit");
            shard
                .metrics
                .record_accepted(msg.class, msg.bandwidth, true);
            if R::ENABLED {
                self.recorder
                    .add(telem::admission_counter(msg.class, true, true), 1);
            }
            let shard = &mut self.shards[s];
            shard.controllers[local].on_admitted(&request, &shard.stations[local]);
            let slot = shard.users.insert(msg.user);
            let departure_at = msg.ends_at;
            if departure_at < epoch_end {
                heap.push(MergeEntry {
                    key: MergeKey::new(departure_at, msg.connection_id, RANK_RELEASE),
                    task: MergeTask::Release {
                        cell: msg.to,
                        connection_id: msg.connection_id,
                        slot,
                    },
                });
            } else {
                shard.queue.schedule(
                    departure_at,
                    EventKind::Departure {
                        cell: CellIdx(msg.to),
                        connection_id: msg.connection_id,
                        user: Some(slot),
                    },
                );
            }
            if let Some(exit_in) = msg.user.time_to_exit(&center, grid.cell_radius_m()) {
                let handoff_at = msg.time + exit_in;
                if handoff_at < departure_at {
                    if let Some(target) = grid.next_cell_along(&to_id, msg.user.heading_deg) {
                        let to = grid
                            .index_of(&target)
                            .expect("next_cell_along only returns grid cells");
                        if handoff_at < epoch_end {
                            heap.push(MergeEntry {
                                key: MergeKey::new(handoff_at, msg.connection_id, RANK_HANDOFF),
                                task: MergeTask::Handoff {
                                    from: msg.to,
                                    to: to.index() as u32,
                                    connection_id: msg.connection_id,
                                    slot,
                                },
                            });
                        } else {
                            shard.queue.schedule(
                                handoff_at,
                                EventKind::Handoff {
                                    from: CellIdx(msg.to),
                                    to,
                                    connection_id: msg.connection_id,
                                    user: slot,
                                },
                            );
                        }
                    }
                }
            }
        } else {
            shard.metrics.record_blocked(msg.class, true);
            shard.metrics.record_dropped(msg.class);
            if R::ENABLED {
                self.recorder
                    .add(telem::admission_counter(msg.class, false, true), 1);
            }
        }
    }

    fn build_report(&mut self) -> ShardReport {
        let mut merged = Metrics::new();
        let mut util_sum = 0.0;
        let mut util_n = 0u64;
        // Shards are contiguous cell ranges in ascending order, so this
        // double loop reduces utilisation in global cell order — the fixed
        // float summation order the determinism contract requires.
        for shard in &self.shards {
            merged.merge(&shard.metrics);
            for acc in &shard.util {
                util_sum += acc.sum;
                util_n += acc.samples;
            }
        }
        let (handoffs_offered, handoffs_accepted, handoffs_failed) = merged.handoffs();
        ShardReport {
            controller: self.label.to_string(),
            offered: merged.offered(),
            accepted: merged.accepted(),
            acceptance_percentage: merged.acceptance_percentage(),
            blocking_probability: merged.blocking_probability(),
            dropping_probability: merged.dropping_probability(),
            completed: merged.completed(),
            dropped: merged.dropped(),
            handoffs_offered,
            handoffs_accepted,
            handoffs_failed,
            mean_utilization: if util_n == 0 {
                0.0
            } else {
                util_sum / util_n as f64
            },
            utilization_samples: util_n,
            peak_concurrent_users: self.peak_concurrent,
            events_processed: self.events_processed(),
            epochs: self.epochs,
            dropped_by_outage: merged.dropped_by_outage(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{AlwaysAccept, CapacityThreshold, Simulator};
    use crate::traffic::TrafficConfig;

    fn always() -> BoxedController {
        Box::new(AlwaysAccept)
    }

    fn threshold() -> BoxedController {
        Box::new(CapacityThreshold::new(0.8, 1.0))
    }

    fn multi_cell_config(seed: u64) -> SimConfig {
        SimConfig::paper_default()
            .with_seed(seed)
            .with_grid_radius(2)
            .with_cell_radius(300.0)
            .with_traffic(TrafficConfig {
                mean_interarrival_s: 1.0,
                mean_holding_s: 300.0,
                min_speed_kmh: 60.0,
                max_speed_kmh: 120.0,
                ..TrafficConfig::paper_default()
            })
            .with_utilization_sampling(60.0)
    }

    fn run(config: &SimConfig, sharding: ShardConfig, n: usize) -> ShardReport {
        let mut sim = ShardedSimulator::new(config.clone(), sharding);
        sim.run_poisson(&mut always, n)
    }

    #[test]
    fn report_is_invariant_over_shard_and_thread_count() {
        let config = multi_cell_config(0xBEEF);
        let solo = run(&config, ShardConfig::solo(), 2000);
        assert!(solo.handoffs_offered > 0, "scenario must exercise handoffs");
        for (shards, threads) in [(2, 1), (3, 2), (7, 4), (19, 3), (64, 2)] {
            let sharded = run(
                &config,
                ShardConfig::new(shards).with_threads(threads),
                2000,
            );
            assert_eq!(solo, sharded, "shards={shards} threads={threads}");
        }
    }

    #[test]
    fn json_serialisation_is_bit_identical_across_shardings() {
        let config = multi_cell_config(0x5EED);
        let a = serde_json::to_string(&run(&config, ShardConfig::solo(), 1500)).unwrap();
        let b = serde_json::to_string(&run(&config, ShardConfig::new(5).with_threads(2), 1500))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn single_cell_counters_match_the_sequential_engine() {
        // With one cell there are no handoffs, hence no deferred
        // admissions: the sharded engine replays the sequential engine's
        // exact decision sequence.
        let config = SimConfig::paper_default().with_seed(7);
        let mut seq = Simulator::new(config.clone());
        let mut controller = AlwaysAccept;
        let expected = seq.run_poisson(&mut controller, 500);
        let got = run(&config, ShardConfig::solo(), 500);
        assert_eq!(got.offered, expected.offered);
        assert_eq!(got.accepted, expected.accepted);
        assert_eq!(got.completed, expected.metrics.completed());
        assert_eq!(got.acceptance_percentage, expected.acceptance_percentage);
    }

    #[test]
    fn immobile_users_match_the_sequential_engine_multi_cell() {
        // Zero speed ⇒ no cell exits ⇒ no handoffs ⇒ no deferral: the two
        // engines must agree on every counter even on a multi-cell grid.
        let config = SimConfig::paper_default()
            .with_seed(11)
            .with_grid_radius(2)
            .with_traffic(TrafficConfig {
                mean_interarrival_s: 2.0,
                min_speed_kmh: 0.0,
                max_speed_kmh: 0.0,
                ..TrafficConfig::paper_default()
            });
        let mut seq = Simulator::new(config.clone());
        let mut controller = AlwaysAccept;
        let expected = seq.run_poisson(&mut controller, 800);
        let got = run(&config, ShardConfig::new(4), 800);
        assert_eq!(got.offered, expected.offered);
        assert_eq!(got.accepted, expected.accepted);
        assert_eq!(got.handoffs_offered, 0);
    }

    #[test]
    fn stateful_controllers_stay_per_cell() {
        let config = multi_cell_config(0xC0DE);
        let solo = {
            let mut sim = ShardedSimulator::new(config.clone(), ShardConfig::solo());
            sim.run_poisson(&mut threshold, 1200)
        };
        let sharded = {
            let mut sim =
                ShardedSimulator::new(config.clone(), ShardConfig::new(6).with_threads(2));
            sim.run_poisson(&mut threshold, 1200)
        };
        assert_eq!(solo, sharded);
        assert_eq!(solo.controller, "capacity-threshold");
    }

    #[test]
    fn repeated_runs_on_one_instance_are_identical() {
        let config = multi_cell_config(0xAB);
        let mut sim = ShardedSimulator::new(config, ShardConfig::new(3).with_threads(2));
        let a = sim.run_poisson(&mut always, 1000);
        let b = sim.run_poisson(&mut always, 1000);
        assert_eq!(a, b);
    }

    #[test]
    fn peak_concurrency_and_events_are_tracked() {
        let config = multi_cell_config(0xF00D);
        let report = run(&config, ShardConfig::new(4).with_threads(2), 2000);
        assert!(report.peak_concurrent_users > 0);
        assert!(report.events_processed as usize >= 2000);
        assert!(report.epochs > 0);
        assert!(report.utilization_samples > 0);
        assert!(report.mean_utilization > 0.0);
    }

    #[test]
    fn shard_count_is_clamped_to_the_grid() {
        let sim = ShardedSimulator::new(
            SimConfig::paper_default(),
            ShardConfig::new(16).with_threads(0).with_epoch_s(-1.0),
        );
        assert_eq!(sim.sharding().shards, 1, "single-cell grid ⇒ one shard");
        assert_eq!(sim.sharding().threads, 1);
        assert_eq!(sim.sharding().epoch_s, DEFAULT_EPOCH_S);
    }

    #[test]
    fn merge_key_orders_by_time_then_connection_then_rank() {
        let a = MergeKey::new(1.0, 5, RANK_ADMIT);
        let b = MergeKey::new(2.0, 1, RANK_RELEASE);
        let c = MergeKey::new(1.0, 6, RANK_RELEASE);
        let d = MergeKey::new(1.0, 5, RANK_HANDOFF);
        assert!(a < b, "time dominates");
        assert!(a < c, "connection id breaks time ties");
        assert!(a < d, "rank breaks (time, id) ties");
        let mut keys = vec![b, d, c, a];
        keys.sort();
        assert_eq!(keys, vec![a, d, c, b]);
    }
}
