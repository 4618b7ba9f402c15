//! Spatially sharded, epoch-synchronised parallel simulation engine.
//!
//! [`ShardedSimulator`] partitions the [`CellGrid`] into contiguous
//! [`CellIdx`] ranges — *shards* — each owning its cells' base stations,
//! per-cell admission controllers, user slab and event queue.  Time advances
//! in fixed-length **epochs**: within an epoch every shard runs the same
//! four-stream event loop as the sequential [`crate::sim::Simulator`]
//! (scheduled faults / the epoch's arrivals / computed sample ticks /
//! run-time event queue) over its own cells, completely independently of
//! the other shards.  Both engines apply every per-cell transition
//! through the shared [`crate::cell`] core.
//!
//! The one interaction between cells — handoff admission at the target
//! station — is **deferred to the epoch boundary**: when a handoff fires,
//! the source shard transfers the connection out immediately (local state)
//! and emits a message carrying the connection and the user's kinematic
//! state.  At the barrier, all shards' messages are merged into a single
//! queue ordered by `(time, connection id)` (see [`MergeKey`]) and replayed
//! sequentially against the target cells; cascaded handoffs and departures
//! that land before the epoch boundary are folded into the same ordered
//! queue, and anything later is scheduled into the owning shard's event queue for
//! a future epoch.
//!
//! # Determinism contract
//!
//! A run is **bit-identical for any shard count and any thread count**,
//! because nothing a shard computes depends on which other cells share its
//! shard:
//!
//! * arrivals are drawn and assigned to cells in global order by the
//!   coordinator, from one [`ArrivalStream`] whatever the partition, and
//!   handed to the owning shards one epoch at a time;
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
//! ([`EPOCH_S`]) is part of the contract: changing it changes which
//! admissions see which capacity, exactly like changing a seed.

use crate::cell::{Cells, Handoff};
use crate::chunks::Chunks;
use crate::event::{next_stream, EventKind, EventQueue, Stream};
use crate::fault::FaultEvent;
use crate::geometry::{CellGrid, CellIdx};
use crate::heap::{Heap, Keyed};
use crate::metrics::{is_zero, Metrics};
use crate::rng::SimRng;
use crate::sim::{AdmissionController, SimConfig};
use crate::telem::{self, DefaultRecorder};
use crate::traffic::{ArrivalStream, CallRequest};
use crate::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use telemetry::{Recorder, Stopwatch, TelemetrySnapshot, TraceEvent};

/// A boxed admission controller that can move to a worker thread.
pub type BoxedController = Box<dyn AdmissionController + Send>;

/// Epoch length (seconds): handoffs and releases cross cells only at
/// multiples of it.
pub const EPOCH_S: SimTime = 5.0;

/// Sharding parameters: how the grid is partitioned and executed.
///
/// `shards` is part of the determinism contract (with [`EPOCH_S`], it
/// selects *which* run is computed); `threads` is pure execution policy
/// and never changes results.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Number of spatial shards (clamped to `1..=cells`).
    pub shards: usize,
    /// Worker threads for the intra-epoch phase (floored at 1).
    pub threads: usize,
}

impl ShardConfig {
    /// A configuration with `shards` shards and one worker thread.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self { shards, threads: 1 }
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
}

/// The result of one sharded run.
///
/// Every field is **shard- and thread-count invariant**; the golden
/// equivalence tests compare serialised reports byte-for-byte across
/// shardings.  Execution metadata that *does* vary (worker count, wall
/// time) is deliberately excluded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// processed (utilisation-sample ticks are counted by
    /// `utilization_samples`).
    pub events_processed: u64,
    /// Number of epochs executed (empty stretches are skipped).
    pub epochs: u64,
    /// Connections force-dropped by a cell outage (also counted in
    /// `dropped`).  Serialised only when nonzero, so fault-free reports
    /// keep their exact pre-fault byte layout.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub dropped_by_outage: u64,
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

/// Work items of the barrier merge.
#[derive(Debug, Clone, Copy)]
enum MergeTask {
    /// Offer a transferred-out connection to its target cell.
    Admit(Handoff),
    /// A departure, or a cascaded handoff, of a connection admitted
    /// during this merge that lands before the epoch boundary.
    Event(EventKind),
}

#[derive(Debug, Clone, Copy)]
struct MergeEntry {
    key: MergeKey,
    task: MergeTask,
}

impl Keyed for MergeEntry {
    type Key = MergeKey;

    fn key(&self) -> MergeKey {
        self.key
    }
}

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
    /// The shard's stations, users, metrics and shard-local telemetry
    /// sink (observation-only; merged into the coordinator's snapshot by
    /// [`ShardedSimulator::telemetry`]).
    cells: Cells<R>,
    /// One controller per cell, in `cells.stations` order.
    controllers: Vec<BoxedController>,
    queue: EventQueue,
    util: Vec<UtilAcc>,
    /// This epoch's arrivals in this shard: indices into the
    /// coordinator's epoch buffer, in arrival order.
    arrivals: Vec<usize>,
    next_arrival: usize,
    tick_interval: SimTime,
    next_tick: SimTime,
    events_processed: u64,
    outbox: Vec<Handoff>,
    /// This shard's slice of the fault plan, time-sorted (the fourth
    /// event stream).
    faults: Vec<FaultEvent>,
    next_fault: usize,
    /// Wall time of this shard's last epoch loop (0 with the no-op
    /// recorder — the disabled build makes no clock syscalls).
    last_epoch_ns: u64,
}

impl<R: Recorder> Shard<R> {
    fn new(grid: &CellGrid, config: &SimConfig, start: u32, len: usize) -> Self {
        Self {
            cells: Cells::new(grid, start..start + len as u32, config),
            controllers: Vec::with_capacity(len),
            queue: EventQueue::new(),
            util: vec![UtilAcc::default(); len],
            arrivals: Vec::new(),
            next_arrival: 0,
            tick_interval: config.utilization_sample_interval_s,
            next_tick: 0.0,
            events_processed: 0,
            outbox: Vec::new(),
            faults: Vec::new(),
            next_fault: 0,
            last_epoch_ns: 0,
        }
    }

    /// Re-arm for a new run. The recorder is deliberately *not* reset:
    /// telemetry accumulates across runs like the sequential engine's.
    fn reset(&mut self, config: &SimConfig) {
        self.cells.reset(config);
        self.queue.clear();
        for acc in &mut self.util {
            *acc = UtilAcc::default();
        }
        self.arrivals.clear();
        self.next_arrival = 0;
        self.tick_interval = config.utilization_sample_interval_s;
        self.next_tick = 0.0;
        self.events_processed = 0;
        self.outbox.clear();
        self.faults.clear();
        self.next_fault = 0;
        self.last_epoch_ns = 0;
    }

    /// The stream whose next event fires first in this shard — fault
    /// stream, arrival stream, tick stream or event queue — with its time.
    fn next_stream(
        &self,
        epoch: &Chunks<(CallRequest, u32)>,
        horizon: SimTime,
    ) -> Option<(Stream, SimTime)> {
        next_stream(
            self.faults.get(self.next_fault).map(|f| f.time),
            self.arrivals
                .get(self.next_arrival)
                .map(|&i| epoch[i].0.arrival_time),
            (self.tick_interval > 0.0 && self.next_tick <= horizon).then_some(self.next_tick),
            self.queue.peek().map(|e| e.time),
        )
    }

    /// Run this shard's four-stream loop (faults, arrivals, ticks, event
    /// queue) up to (exclusive) `epoch_end`, merging the streams in the
    /// sequential engine's order.  Handoff *admissions* are never
    /// performed here — the source side is applied locally and the
    /// admission is queued on `outbox` for the barrier merge.
    fn run_epoch(
        &mut self,
        grid: &CellGrid,
        epoch: &Chunks<(CallRequest, u32)>,
        horizon: SimTime,
        epoch_end: SimTime,
    ) {
        let watch = Stopwatch::started(R::ENABLED);
        while let Some((stream, time)) = self.next_stream(epoch, horizon) {
            if time >= epoch_end {
                break;
            }
            match stream {
                Stream::Fault => {
                    self.events_processed += 1;
                    self.cells.recorder.add(telem::counter::EVENT_FAULT, 1);
                    let fault = self.faults[self.next_fault];
                    self.next_fault += 1;
                    let controller = &mut *self.controllers[self.cells.local(CellIdx(fault.cell))];
                    self.cells.fault(controller, &fault);
                }
                Stream::Arrival => {
                    self.events_processed += 1;
                    self.cells.recorder.add(telem::counter::EVENT_ARRIVAL, 1);
                    let (call, cell) = &epoch[self.arrivals[self.next_arrival]];
                    self.next_arrival += 1;
                    let cell = CellIdx(*cell);
                    let controller = &mut *self.controllers[self.cells.local(cell)];
                    let queue = &mut self.queue;
                    self.cells
                        .arrive(controller, grid, cell, call, time, |at, kind| {
                            queue.schedule(at, kind);
                        });
                }
                Stream::Tick => {
                    self.next_tick += self.tick_interval;
                    self.cells
                        .recorder
                        .add(telem::counter::EVENT_MOBILITY_TICK, 1);
                    for (acc, station) in self.util.iter_mut().zip(&self.cells.stations) {
                        acc.sum += station.utilization();
                        acc.samples += 1;
                    }
                }
                Stream::Queue => {
                    let event = self.queue.pop().expect("peeked above");
                    self.events_processed += 1;
                    if R::ENABLED {
                        // Depth *including* the popped event, as in the
                        // sequential engine.
                        let depth = self.queue.len() as u64 + 1;
                        let recorder = &mut self.cells.recorder;
                        recorder.observe(telem::histogram::HEAP_DEPTH, depth);
                        recorder.high_water(telem::gauge::HEAP_DEPTH, depth);
                    }
                    match event.kind {
                        EventKind::Departure {
                            cell,
                            connection_id,
                            user,
                        } => {
                            self.cells.recorder.add(telem::counter::EVENT_DEPARTURE, 1);
                            let controller = &mut *self.controllers[self.cells.local(cell)];
                            self.cells.depart(controller, cell, connection_id, user);
                        }
                        EventKind::Handoff {
                            from,
                            to,
                            connection_id,
                            user,
                        } => {
                            self.cells.recorder.add(telem::counter::EVENT_HANDOFF, 1);
                            // The source side applies now (its bandwidth
                            // frees for this shard's later events); the
                            // target side waits for the barrier merge.
                            let controller = &mut *self.controllers[self.cells.local(from)];
                            if let Some(handoff) =
                                self.cells
                                    .hand_out(controller, from, to, connection_id, user, time)
                            {
                                self.outbox.push(handoff);
                            }
                        }
                    }
                }
            }
        }
        self.last_epoch_ns = watch.elapsed_ns().unwrap_or(0);
    }

    fn active_connections(&self) -> u64 {
        self.cells
            .stations
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
    /// The current epoch's arrivals with their spawn cells (global
    /// [`CellIdx`] values), in arrival order; reused across epochs, and
    /// grown in chunks that never move.
    epoch_arrivals: Chunks<(CallRequest, u32)>,
    /// The barrier merge's queue, reused across epochs; it grows in
    /// chunks that never move.
    merge_heap: Heap<Chunks<MergeEntry>>,
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
    /// `sharding.threads` floored at 1.
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
        let sharding = ShardConfig {
            shards: sharding.shards.clamp(1, cells),
            threads: sharding.threads.max(1),
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
            epoch_arrivals: Chunks::default(),
            merge_heap: Heap::default(),
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
            snapshot.merge(&shard.cells.recorder.snapshot());
        }
        snapshot
    }

    /// Clear everything the coordinator and shard recorders collected
    /// (capacity is retained).
    pub fn reset_telemetry(&mut self) {
        self.recorder.reset();
        for shard in &mut self.shards {
            shard.cells.recorder.reset();
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
    /// and barrier-merge admissions; utilisation-sample ticks excluded).
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
        self.merge_heap.items.clear();
        self.merge_events = 0;
        self.epochs = 0;
        self.peak_concurrent = 0;
        let mut label = None;
        for shard in &mut self.shards {
            shard.reset(&self.config);
            shard.controllers.clear();
            for _ in 0..shard.cells.stations.len() {
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

        // One global arrival stream, drawn from the same derived streams
        // as the sequential engine and consumed in global order whatever
        // the partition.
        let mut arrivals = ArrivalStream::new(
            &self.config.traffic,
            &self.config.traffic_model,
            &SimRng::new(self.config.seed).derive(0xD15C),
            self.grid.len(),
            total_requests,
        );
        // Partition the fault plan to its owning shards in sorted order;
        // events naming cells outside the grid are ignored.
        for fault in self.config.fault_plan.sorted_events() {
            if (fault.cell as usize) < self.grid.len() {
                let s = self.shard_of(fault.cell);
                self.shards[s].faults.push(fault);
            }
        }

        loop {
            // Every shard has consumed its arrivals, so the stream's next
            // arrival stands in for all of them.  `horizon` is a lower
            // bound on the last arrival time that decides ticks exactly
            // (see [`ArrivalStream`]).
            let horizon = arrivals.horizon();
            let t_min = self
                .shards
                .iter()
                .filter_map(|s| Some(s.next_stream(&self.epoch_arrivals, horizon)?.1))
                .chain(arrivals.peek_time())
                .fold(None, |min: Option<SimTime>, t| {
                    Some(min.map_or(t, |m| m.min(t)))
                });
            let Some(t_min) = t_min else {
                break;
            };
            // Jump straight to the epoch containing the next event; long
            // quiet stretches (e.g. the departure tail after the last
            // arrival) cost no empty barriers.
            let epoch_end = EPOCH_S * ((t_min / EPOCH_S).floor() + 1.0);
            self.deal_arrivals(&mut arrivals, epoch_end);
            let parallel_watch = Stopwatch::started(R::ENABLED);
            self.run_phase(epoch_end, arrivals.horizon());
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

    /// Draw the arrivals before `epoch_end` into the epoch buffer and hand
    /// each to the shard owning its spawn cell, in arrival order.
    fn deal_arrivals(&mut self, arrivals: &mut ArrivalStream, epoch_end: SimTime) {
        self.epoch_arrivals.clear();
        for shard in &mut self.shards {
            shard.arrivals.clear();
            shard.next_arrival = 0;
        }
        while let Some(arrival) = arrivals.pop_before(epoch_end) {
            let s = self.shard_of(arrival.1);
            self.shards[s].arrivals.push(self.epoch_arrivals.len());
            self.epoch_arrivals.push(arrival);
        }
        if R::ENABLED {
            self.recorder.high_water(
                telem::gauge::SHARD_ARRIVAL_BUFFER,
                self.epoch_arrivals.len() as u64,
            );
        }
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
        let epoch = &self.epoch_arrivals;
        if workers <= 1 {
            for shard in &mut self.shards {
                shard.run_epoch(grid, epoch, horizon, epoch_end);
            }
            return;
        }
        let chunk = self.shards.len().div_ceil(workers);
        std::thread::scope(|scope| {
            for group in self.shards.chunks_mut(chunk) {
                scope.spawn(move || {
                    for shard in group {
                        shard.run_epoch(grid, epoch, horizon, epoch_end);
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
            for handoff in shard.outbox.drain(..) {
                heap.push(MergeEntry {
                    key: MergeKey::new(handoff.time, handoff.connection_id, RANK_ADMIT),
                    task: MergeTask::Admit(handoff),
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
            match entry.task {
                MergeTask::Admit(handoff) => {
                    self.recorder.add(telem::counter::MERGE_ADMIT, 1);
                    self.apply_admit(&handoff, epoch_end, &mut heap);
                }
                MergeTask::Event(EventKind::Handoff {
                    from,
                    to,
                    connection_id,
                    user,
                }) => {
                    self.recorder.add(telem::counter::MERGE_HANDOFF, 1);
                    let s = self.shard_of(from.0);
                    let shard = &mut self.shards[s];
                    let controller = &mut *shard.controllers[shard.cells.local(from)];
                    let handoff = shard.cells.hand_out(
                        controller,
                        from,
                        to,
                        connection_id,
                        user,
                        entry.key.time,
                    );
                    if let Some(handoff) = handoff {
                        self.apply_admit(&handoff, epoch_end, &mut heap);
                    }
                }
                MergeTask::Event(EventKind::Departure {
                    cell,
                    connection_id,
                    user,
                }) => {
                    self.recorder.add(telem::counter::MERGE_RELEASE, 1);
                    let s = self.shard_of(cell.0);
                    let shard = &mut self.shards[s];
                    let controller = &mut *shard.controllers[shard.cells.local(cell)];
                    shard.cells.depart(controller, cell, connection_id, user);
                }
            }
        }
        self.merge_heap = heap;
        initial_depth
    }

    /// Target side of a handoff: offer it at the target cell and route
    /// the admitted call's follow-up events — into the merge queue if
    /// before `epoch_end`, into the owning shard's event queue otherwise.
    fn apply_admit(
        &mut self,
        handoff: &Handoff,
        epoch_end: SimTime,
        heap: &mut Heap<Chunks<MergeEntry>>,
    ) {
        let s = self.shard_of(handoff.to.0);
        let Shard {
            cells,
            controllers,
            queue,
            ..
        } = &mut self.shards[s];
        let controller = &mut *controllers[cells.local(handoff.to)];
        cells.hand_in(controller, &self.grid, handoff, |time, kind| {
            if time < epoch_end {
                let rank = match kind {
                    EventKind::Departure { .. } => RANK_RELEASE,
                    _ => RANK_HANDOFF,
                };
                heap.push(MergeEntry {
                    key: MergeKey::new(time, handoff.connection_id, rank),
                    task: MergeTask::Event(kind),
                });
            } else {
                queue.schedule(time, kind);
            }
        });
    }

    fn build_report(&mut self) -> ShardReport {
        let mut merged = Metrics::new();
        let mut util_sum = 0.0;
        let mut util_n = 0u64;
        // Shards are contiguous cell ranges in ascending order, so this
        // double loop reduces utilisation in global cell order — the fixed
        // float summation order the determinism contract requires.
        for shard in &self.shards {
            merged.merge(&shard.cells.metrics);
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
    fn outage_drops_leave_no_user_slots_behind() {
        let config = crate::sim::tests::outage_churn_config();
        let mut sim = ShardedSimulator::new(config, ShardConfig::new(3));
        let report = sim.run_poisson(&mut always, 3000);
        assert!(report.dropped_by_outage > 100);
        assert!(report.handoffs_offered > 0);
        for shard in &sim.shards {
            assert!(
                shard.cells.users.is_empty(),
                "{} slots leaked",
                shard.cells.users.len()
            );
        }
    }

    #[test]
    fn metro_sized_stations_build_no_id_index() {
        // 2000-BU stations, each carrying hundreds of calls, with
        // handoffs and outages: every call is found through its slot.
        let mut config = multi_cell_config(0x1D)
            .with_capacity(2000)
            .with_traffic(TrafficConfig {
                mean_interarrival_s: 0.02,
                mean_holding_s: 200.0,
                min_speed_kmh: 30.0,
                max_speed_kmh: 120.0,
                ..TrafficConfig::paper_default()
            });
        config.fault_plan = (0..12).fold(crate::fault::FaultPlan::new(), |plan, i| {
            plan.with_outage(i % 19, 30.0 + 40.0 * f64::from(i), 5.0)
        });
        let requests = 25_000;
        for sharding in [ShardConfig::solo(), ShardConfig::new(4).with_threads(2)] {
            let mut sim = ShardedSimulator::new(config.clone(), sharding);
            let report = sim.run_poisson(&mut always, requests);
            assert!(report.peak_concurrent_users > 19 * 200, "{report:?}");
            assert!(report.handoffs_offered > 1_000 && report.dropped_by_outage > 0);
            for shard in &sim.shards {
                assert!(shard.cells.stations.iter().all(|s| !s.id_index_built()));
            }
        }
        let mut seq = Simulator::new(config);
        let report = seq.run_poisson(&mut AlwaysAccept, requests);
        assert!(report.metrics.handoffs().0 > 1_000);
        assert!(seq.stations().iter().all(|s| !s.id_index_built()));
    }

    #[test]
    fn shard_count_is_clamped_to_the_grid() {
        let sim = ShardedSimulator::new(
            SimConfig::paper_default(),
            ShardConfig::new(16).with_threads(0),
        );
        assert_eq!(sim.sharding().shards, 1, "single-cell grid ⇒ one shard");
        assert_eq!(sim.sharding().threads, 1);
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
