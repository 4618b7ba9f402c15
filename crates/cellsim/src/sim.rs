//! The simulation driver and the admission-controller interface.
//!
//! A [`Simulator`] owns a cell grid, one [`BaseStation`] per cell, a traffic
//! generator and an event queue; it feeds every arriving request to a
//! pluggable [`AdmissionController`] and records the outcome in
//! [`Metrics`].  Two driving modes are provided:
//!
//! * [`Simulator::run_batch`] — offer a fixed number of requesting
//!   connections against the (single-cell) base station, the workload shape
//!   of every figure in the paper's evaluation;
//! * [`Simulator::run_poisson`] — a full discrete-event run with Poisson
//!   arrivals, departures and handoffs across a multi-cell grid (used by
//!   the examples that go beyond the paper's single cell).

use crate::cell::Cells;
use crate::event::{next_stream, EventKind, EventQueue, Stream};
use crate::fault::{FaultEvent, FaultPlan};
use crate::geometry::{CellGrid, CellId, CellIdx};
use crate::metrics::Metrics;
use crate::station::BaseStation;
use crate::telem::{self, DefaultRecorder};
use crate::traffic::{
    ArrivalStream, CallRequest, ServiceClass, TrafficConfig, TrafficGenerator, TrafficModel,
};
use crate::{Bandwidth, SimTime};
use serde::{Deserialize, Serialize};
use telemetry::{Recorder, Stopwatch, TelemetrySnapshot};

/// Everything an admission controller may inspect about a request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionRequest {
    /// Connection id.
    pub id: u64,
    /// The cell where the request is made.
    pub cell: CellId,
    /// Time of the request (seconds).
    pub time: SimTime,
    /// Service class.
    pub class: ServiceClass,
    /// Requested bandwidth (BU) — the `Rq` / `Sr` inputs of the FLCs.
    pub bandwidth: Bandwidth,
    /// Expected holding time (seconds).
    pub holding_time: SimTime,
    /// User speed (km/h) — the `Sp` input of FLC1.
    pub speed_kmh: f64,
    /// Angle between the user's heading and the direction to the serving
    /// base station (degrees) — the `An` input of FLC1.
    pub angle_deg: f64,
    /// Distance from the user to the serving base station (metres), when
    /// known.  The previous-work FACS variant uses this instead of priority.
    pub distance_m: Option<f64>,
    /// `true` if the request is a handoff of an on-going connection.
    pub is_handoff: bool,
}

impl AdmissionRequest {
    /// Build an admission request from a generated [`CallRequest`].
    #[must_use]
    pub fn from_call(call: &CallRequest, cell: CellId) -> Self {
        Self {
            id: call.id,
            cell,
            time: call.arrival_time,
            class: call.class,
            bandwidth: call.bandwidth,
            holding_time: call.holding_time,
            speed_kmh: call.speed_kmh,
            angle_deg: call.angle_deg,
            distance_m: None,
            is_handoff: call.is_handoff,
        }
    }

    /// Attach the user-to-station distance.
    #[must_use]
    pub fn with_distance(mut self, distance_m: f64) -> Self {
        self.distance_m = Some(distance_m.max(0.0));
        self
    }

    /// `true` for real-time classes (voice, video).
    #[must_use]
    pub fn is_real_time(&self) -> bool {
        self.class.is_real_time()
    }
}

/// The outcome of one admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionDecision {
    /// `true` to admit the connection.
    pub accept: bool,
    /// The controller's raw decision score.  For the fuzzy controllers this
    /// is the defuzzified A/R value in `[-1, 1]`; threshold controllers
    /// report a load margin.  Only used for reporting and debugging.
    pub score: f64,
}

impl AdmissionDecision {
    /// An accepting decision with the given score.
    #[must_use]
    pub fn accept(score: f64) -> Self {
        Self {
            accept: true,
            score,
        }
    }

    /// A rejecting decision with the given score.
    #[must_use]
    pub fn reject(score: f64) -> Self {
        Self {
            accept: false,
            score,
        }
    }
}

/// A pluggable call-admission-control policy.
///
/// The cell core ([`crate::cell::offer`]) guarantees that `decide` is only
/// consulted for requests that are *physically* possible to carry (the
/// station still has `request.bandwidth` BU free); controllers therefore
/// only implement policy, not capacity enforcement.  Controllers are notified of
/// admissions and releases so they can maintain internal state.  Of the
/// shipped controllers only SCC does (its shadow-cluster projections);
/// FACS and FACS-P override neither hook and decide from the request and
/// the station alone (FACS-P weighs the station's connections by priority
/// on every call).
pub trait AdmissionController {
    /// Human-readable name used in reports.
    ///
    /// Static so the hot paths never allocate a label: a run's name is
    /// materialised into a `String` exactly once, when its [`SimReport`]
    /// is built.
    fn name(&self) -> &'static str;

    /// Decide whether to admit `request` given the current state of the
    /// serving `station`.
    fn decide(&mut self, request: &AdmissionRequest, station: &BaseStation) -> AdmissionDecision;

    /// Called after `request` has been admitted to `station`.
    fn on_admitted(&mut self, _request: &AdmissionRequest, _station: &BaseStation) {}

    /// Called after connection `connection_id` has left `station`
    /// (completion, drop or outbound handoff).
    fn on_released(&mut self, _connection_id: u64, _station: &BaseStation) {}

    /// Decide a whole batch of requests against **one station snapshot**.
    ///
    /// This is the batch counterpart of [`AdmissionController::decide`],
    /// added so a tick's arrivals can be screened in one pass (and so
    /// controllers with per-call setup cost can amortise it).  The
    /// contract:
    ///
    /// 1. `out` is cleared and refilled with exactly one decision per
    ///    request, in request order.
    /// 2. Every decision is evaluated against the *same* `station` state —
    ///    the snapshot passed in.  Implementations must **not** assume
    ///    earlier accepts in the batch consumed capacity; a caller that
    ///    goes on to admit must re-validate with
    ///    [`BaseStation::can_fit`] (and re-offer if it wants
    ///    admission-order-dependent policies like FLC2's counter state to
    ///    see the updated occupancy — this is why every admitting path
    ///    offers one request at a time).
    /// 3. The produced decisions must be identical to calling `decide`
    ///    sequentially on the same snapshot; overrides may only change
    ///    *how fast* the answers are produced, never the answers.
    /// 4. `decide_batch` must not alter state that `decide` would not
    ///    alter (learning controllers update on `on_admitted` /
    ///    `on_released`, not here).
    fn decide_batch(
        &mut self,
        requests: &[AdmissionRequest],
        station: &BaseStation,
        out: &mut Vec<AdmissionDecision>,
    ) {
        out.clear();
        out.reserve(requests.len());
        for request in requests {
            out.push(self.decide(request, station));
        }
    }
}

/// Admits every request that physically fits.  The most permissive possible
/// policy; useful as an upper bound on acceptance and as a test double.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysAccept;

impl AdmissionController for AlwaysAccept {
    fn name(&self) -> &'static str {
        "always-accept"
    }

    fn decide(&mut self, _request: &AdmissionRequest, _station: &BaseStation) -> AdmissionDecision {
        AdmissionDecision::accept(1.0)
    }
}

/// Admits a request only while the post-admission utilisation stays at or
/// below a threshold (a classical guard-channel style policy).
#[derive(Debug, Clone, Copy)]
pub struct CapacityThreshold {
    /// Maximum allowed utilisation in `[0, 1]` for new calls.
    pub new_call_threshold: f64,
    /// Maximum allowed utilisation in `[0, 1]` for handoff calls (usually
    /// higher than `new_call_threshold` to prioritise handoffs).
    pub handoff_threshold: f64,
}

impl CapacityThreshold {
    /// A policy reserving the top `(1 - new_call_threshold)` share of the
    /// capacity for handoffs.
    #[must_use]
    pub fn new(new_call_threshold: f64, handoff_threshold: f64) -> Self {
        Self {
            new_call_threshold: new_call_threshold.clamp(0.0, 1.0),
            handoff_threshold: handoff_threshold.clamp(0.0, 1.0),
        }
    }
}

impl Default for CapacityThreshold {
    fn default() -> Self {
        Self::new(0.8, 1.0)
    }
}

impl AdmissionController for CapacityThreshold {
    fn name(&self) -> &'static str {
        "capacity-threshold"
    }

    fn decide(&mut self, request: &AdmissionRequest, station: &BaseStation) -> AdmissionDecision {
        let capacity = f64::from(station.capacity()).max(1.0);
        let after = f64::from(station.occupied() + request.bandwidth) / capacity;
        let threshold = if request.is_handoff {
            self.handoff_threshold
        } else {
            self.new_call_threshold
        };
        let margin = threshold - after;
        if margin >= 0.0 {
            AdmissionDecision::accept(margin)
        } else {
            AdmissionDecision::reject(margin)
        }
    }
}

/// Static configuration of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Radius of the hexagonal grid in cells (0 = the paper's single cell).
    pub grid_radius_cells: u32,
    /// Cell radius in metres.
    pub cell_radius_m: f64,
    /// Capacity of every base station (BU).
    pub station_capacity: Bandwidth,
    /// Workload parameters.
    pub traffic: TrafficConfig,
    /// Arrival process (defaults to the paper's Poisson model; absent in
    /// serialized configs from before the field existed).
    #[serde(default)]
    pub traffic_model: TrafficModel,
    /// Scheduled cell faults — outages and capacity degradation — applied
    /// during [`Simulator::run_poisson`] runs (defaults to no faults;
    /// absent in serialized configs from before the field existed).
    /// [`Simulator::run_batch`] ignores the plan: the batch workload
    /// offers everything at time 0 against one station, so there is no
    /// timeline for faults to act on.
    #[serde(default)]
    pub fault_plan: FaultPlan,
    /// RNG seed.
    pub seed: u64,
    /// Interval between utilisation samples (seconds); 0 disables sampling.
    pub utilization_sample_interval_s: f64,
}

impl SimConfig {
    /// The paper's configuration: one 40-BU cell, the 70/20/10 mix and
    /// speeds of 0–120 km/h.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            grid_radius_cells: 0,
            cell_radius_m: 1000.0,
            station_capacity: 40,
            traffic: TrafficConfig::paper_default(),
            traffic_model: TrafficModel::Poisson,
            fault_plan: FaultPlan::new(),
            seed: 0xFAC5,
            utilization_sample_interval_s: 0.0,
        }
    }

    /// Override the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the traffic configuration.
    #[must_use]
    pub fn with_traffic(mut self, traffic: TrafficConfig) -> Self {
        self.traffic = traffic;
        self
    }

    /// Override the arrival process (see [`TrafficModel`]).
    #[must_use]
    pub fn with_traffic_model(mut self, model: TrafficModel) -> Self {
        self.traffic_model = model;
        self
    }

    /// Schedule cell faults for the run (see [`FaultPlan`]).
    #[must_use]
    pub fn with_fault_plan(mut self, fault_plan: FaultPlan) -> Self {
        self.fault_plan = fault_plan;
        self
    }

    /// Override the station capacity.
    #[must_use]
    pub fn with_capacity(mut self, capacity: Bandwidth) -> Self {
        self.station_capacity = capacity;
        self
    }

    /// Use a multi-cell grid of the given radius.
    #[must_use]
    pub fn with_grid_radius(mut self, radius_cells: u32) -> Self {
        self.grid_radius_cells = radius_cells;
        self
    }

    /// Override the cell radius (metres, floored at 1 m).
    #[must_use]
    pub fn with_cell_radius(mut self, radius_m: f64) -> Self {
        self.cell_radius_m = radius_m.max(1.0);
        self
    }

    /// Enable utilisation sampling at the given interval (seconds; 0
    /// disables sampling).
    #[must_use]
    pub fn with_utilization_sampling(mut self, interval_s: f64) -> Self {
        self.utilization_sample_interval_s = interval_s.max(0.0);
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Summary of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Name of the admission controller that produced this run.
    pub controller: String,
    /// Number of requests offered.
    pub offered: u64,
    /// Number of requests accepted.
    pub accepted: u64,
    /// Percentage of accepted calls (0–100).
    pub acceptance_percentage: f64,
    /// Overall blocking probability.
    pub blocking_probability: f64,
    /// Dropping probability among admitted calls.
    pub dropping_probability: f64,
    /// Mean station utilisation over the run (only sampled runs).
    pub mean_utilization: f64,
    /// Full metric counters.
    pub metrics: Metrics,
}

impl SimReport {
    fn from_metrics(controller: &str, metrics: Metrics) -> Self {
        Self {
            controller: controller.to_string(),
            offered: metrics.offered(),
            accepted: metrics.accepted(),
            acceptance_percentage: metrics.acceptance_percentage(),
            blocking_probability: metrics.blocking_probability(),
            dropping_probability: metrics.dropping_probability(),
            mean_utilization: metrics.mean_utilization(),
            metrics,
        }
    }
}

/// The discrete-event simulator.
///
/// All per-cell and per-connection state is stored densely: one
/// [`BaseStation`] per grid cell in a flat `Vec` indexed by [`CellIdx`]
/// (grid order — iteration is deterministic by construction), user
/// kinematics in a generational [`crate::slab::Slab`] whose handles ride
/// inside the (small, `Copy`) events, and the batch request buffer plus
/// all per-tick scratch reused across runs.  A warmed-up simulator therefore
/// runs its event loop without heap allocation, and [`Simulator::reset`]
/// recycles the whole machine for the next sweep cell.  Every per-cell
/// transition goes through the shared [`crate::cell`] core; the simulator
/// owns the event loop and schedules the follow-up events.
///
/// The simulator is generic over its telemetry [`Recorder`] (static
/// dispatch, defaulting to the feature-selected
/// [`DefaultRecorder`]): with the no-op
/// recorder every instrumentation call compiles to nothing, and with
/// [`telemetry::Registry`] the run is observable without perturbing it —
/// recording never touches the RNG streams or the event order, so reports
/// are byte-identical whichever recorder is plugged in.
pub struct Simulator<R: Recorder = DefaultRecorder> {
    config: SimConfig,
    grid: CellGrid,
    /// Every grid cell's station, plus the users, metrics, base RNG
    /// stream and telemetry sink (observation-only; it accumulates across
    /// runs and [`Simulator::reset`]s until [`Simulator::reset_telemetry`]).
    cells: Cells<R>,
    queue: EventQueue,
    clock: SimTime,
    /// Events popped by `run_poisson` loops since construction/reset.
    events_processed: u64,
    /// Reused request buffer of `run_batch` workloads (`run_poisson`
    /// streams its arrivals instead).
    arrivals: Vec<CallRequest>,
    /// Scheduled faults for the current `run_poisson` run, time-sorted
    /// (the fourth merge stream; armed from `config.fault_plan` at run
    /// start, cells outside the grid dropped).
    faults: Vec<FaultEvent>,
    /// Cursor into `faults`.
    next_fault: usize,
}

impl Simulator {
    /// Build a simulator from a configuration, using the feature-selected
    /// [`DefaultRecorder`] (the zero-cost
    /// no-op recorder unless the `telemetry` cargo feature is enabled).
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        Self::with_telemetry(config)
    }
}

impl<R: Recorder> Simulator<R> {
    /// Build a simulator with an explicit recorder type, e.g.
    /// `Simulator::<telemetry::Registry>::with_telemetry(config)` to
    /// instrument a run in a build where the default recorder is the
    /// no-op.
    #[must_use]
    pub fn with_telemetry(config: SimConfig) -> Self {
        let grid = CellGrid::new(config.grid_radius_cells, config.cell_radius_m);
        Self {
            cells: Cells::new(&grid, 0..grid.len() as u32, &config),
            grid,
            queue: EventQueue::new(),
            clock: 0.0,
            events_processed: 0,
            arrivals: Vec::new(),
            faults: Vec::new(),
            next_fault: 0,
            config,
        }
    }

    /// Re-arm the simulator for a fresh run under `config`, reusing every
    /// internal buffer (stations, user slab, event heap, arrival and
    /// scratch vectors).  Equivalent to `*self = Simulator::new(config)` —
    /// a reset simulator produces bit-identical results to a freshly
    /// built one (asserted by tests) — but without re-allocating, which
    /// is what lets a sweep worker run thousands of cells on one
    /// simulator.
    pub fn reset(&mut self, config: SimConfig) {
        if self.grid.radius_cells() != config.grid_radius_cells
            || self.grid.cell_radius_m() != CellGrid::effective_radius(config.cell_radius_m)
        {
            self.grid = CellGrid::new(config.grid_radius_cells, config.cell_radius_m);
            self.cells.cover(&self.grid, 0..self.grid.len() as u32);
        }
        self.cells.reset(&config);
        self.queue.clear();
        self.clock = 0.0;
        self.events_processed = 0;
        self.faults.clear();
        self.next_fault = 0;
        self.config = config;
    }

    /// The simulator's configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The cell grid.
    #[must_use]
    pub fn grid(&self) -> &CellGrid {
        &self.grid
    }

    /// The station serving `cell`, if it exists.
    #[must_use]
    pub fn station(&self, cell: &CellId) -> Option<&BaseStation> {
        self.grid
            .index_of(cell)
            .map(|idx| &self.cells.stations[idx.index()])
    }

    /// All stations, in dense [`CellIdx`] (grid) order.
    #[must_use]
    pub fn stations(&self) -> &[BaseStation] {
        &self.cells.stations
    }

    /// Current simulation time (seconds).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Events processed by [`Simulator::run_poisson`] loops since
    /// construction or the last [`Simulator::reset`] — the denominator of
    /// the engine's events-per-second throughput.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Metrics accumulated since the last report was taken.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.cells.metrics
    }

    /// Snapshot of everything the telemetry recorder collected so far.
    /// Telemetry accumulates across runs and [`Simulator::reset`]s (so a
    /// sweep worker's simulator aggregates all its cells); use
    /// [`Simulator::reset_telemetry`] to start a fresh window. Always
    /// empty with the no-op recorder.
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.cells.recorder.snapshot()
    }

    /// Clear everything the telemetry recorder collected (capacity is
    /// retained).
    pub fn reset_telemetry(&mut self) {
        self.cells.recorder.reset();
    }

    /// Build the run's report by *taking* the accumulated metrics (the
    /// accumulator is left empty for the next run; no clone of the sample
    /// series is made).
    fn take_report(&mut self, controller: &'static str) -> SimReport {
        let metrics = std::mem::take(&mut self.cells.metrics);
        SimReport::from_metrics(controller, metrics)
    }

    /// Offer `n` requesting connections (all generated from the configured
    /// traffic model, all targeting the origin cell, offered in sequence at
    /// time 0) to `controller` — the workload of the paper's figures.
    ///
    /// Admitted connections stay active for their holding time; because all
    /// requests are offered together, the base-station capacity is the
    /// binding resource exactly as in the paper's "number of requesting
    /// connections" sweeps.
    ///
    /// The returned report *takes* the metrics accumulated since the last
    /// report (the accumulator restarts from zero), so back-to-back runs
    /// on one simulator each describe exactly their own workload.
    pub fn run_batch<C: AdmissionController + ?Sized>(
        &mut self,
        controller: &mut C,
        n: usize,
    ) -> SimReport {
        let watch = Stopwatch::started(R::ENABLED);
        let mut generator = TrafficGenerator::with_model(
            self.config.traffic.clone(),
            &self.config.traffic_model,
            self.cells.rng.derive(1).seed(),
        );
        let mut requests = std::mem::take(&mut self.arrivals);
        generator.generate_batch_into(n, &mut requests);
        self.offer_requests(controller, &requests);
        self.arrivals = requests;
        if let Some(ns) = watch.elapsed_ns() {
            self.cells.recorder.span_ns(telem::span::RUN_BATCH, ns);
        }
        self.take_report(controller.name())
    }

    /// Offer a pre-generated sequence of requests (all against the origin
    /// cell).  Useful when several controllers must see the *identical*
    /// arrival sequence, as in the paper's FACS vs. SCC and FACS-P vs. FACS
    /// comparisons.
    pub fn offer_requests<C: AdmissionController + ?Sized>(
        &mut self,
        controller: &mut C,
        requests: &[CallRequest],
    ) {
        let cell = CellId::origin();
        let idx = self
            .grid
            .index_of(&cell)
            .expect("every grid contains the origin cell");
        for call in requests {
            self.clock = self.clock.max(call.arrival_time);
            // Complete any calls that finished before this arrival.
            self.cells.expire(controller, idx, self.clock);
            let distance = self
                .cells
                .rng
                .uniform(0.0, self.grid.cell_radius_m())
                .max(0.0);
            let request = AdmissionRequest::from_call(call, cell).with_distance(distance);
            self.cells.offer(controller, idx, &request);
        }
    }

    /// Run a full Poisson-arrival discrete-event simulation for
    /// `total_requests` arrivals (multi-cell aware: an admitted user keeps
    /// the speed and heading it spawned with and hands off when that
    /// straight-line path leaves its cell before the call ends).
    ///
    /// Arrivals are drawn one at a time from an [`ArrivalStream`]
    /// (time-sorted by construction, the same stream the sharded engine
    /// reads), utilisation-sample ticks are computed on the fly, and only the
    /// *run-time* events — departures and handoffs — live in the heap,
    /// which therefore stays at the size of the concurrent-call
    /// population instead of the whole workload.
    /// Scheduled faults from [`SimConfig::fault_plan`] form a fourth
    /// stream consumed the same way.  The streams are merged in exactly
    /// the order the one-big-heap engine produced (faults before
    /// arrivals before ticks before run-time events on time ties,
    /// matching its sequence numbering), so results are bit-identical;
    /// after warm-up the loop is allocation-free.  Like
    /// [`Simulator::run_batch`], the returned report takes the metrics
    /// accumulated since the last report.
    pub fn run_poisson<C: AdmissionController + ?Sized>(
        &mut self,
        controller: &mut C,
        total_requests: usize,
    ) -> SimReport {
        let watch = Stopwatch::started(R::ENABLED);
        let mut arrivals = ArrivalStream::new(
            &self.config.traffic,
            &self.config.traffic_model,
            &self.cells.rng,
            self.grid.len(),
            total_requests,
        );

        // Fault stream: scheduled capacity changes from the config's
        // [`FaultPlan`], time-sorted, cells outside the grid dropped.
        // Faults are pure config data — arming them touches no RNG
        // stream, so a fault-free plan leaves the run bit-identical to
        // builds that predate the field.
        self.faults.clear();
        self.next_fault = 0;
        let cells = self.grid.len();
        self.faults.extend(
            self.config
                .fault_plan
                .sorted_events()
                .into_iter()
                .filter(|f| (f.cell as usize) < cells),
        );

        // Utilisation-sample tick stream: the same `t += interval`
        // accumulation the scheduling loop used, so sample times are
        // bit-identical.  Ticks fire up to the last arrival; the stream's
        // horizon is a lower bound on it that decides the tick stream
        // exactly (see [`ArrivalStream`]).
        let tick_interval = self.config.utilization_sample_interval_s;
        let mut next_tick = 0.0;

        // Earliest of the four streams; time ties go faults, arrivals,
        // ticks, run-time events (see [`next_stream`]), the order the
        // sharded engine's merge uses too.
        while let Some((stream, time)) = next_stream(
            self.faults.get(self.next_fault).map(|f| f.time),
            arrivals.peek_time(),
            (tick_interval > 0.0 && next_tick <= arrivals.horizon()).then_some(next_tick),
            self.queue.peek().map(|e| e.time),
        ) {
            self.clock = time;
            self.events_processed += 1;
            match stream {
                Stream::Fault => {
                    self.cells.recorder.add(telem::counter::EVENT_FAULT, 1);
                    let fault = self.faults[self.next_fault];
                    self.next_fault += 1;
                    self.cells.fault(controller, &fault);
                }
                Stream::Arrival => {
                    self.cells.recorder.add(telem::counter::EVENT_ARRIVAL, 1);
                    let (call, cell) = arrivals.pop().expect("peeked above");
                    let cell = CellIdx(cell);
                    let queue = &mut self.queue;
                    self.cells
                        .arrive(controller, &self.grid, cell, &call, time, |at, kind| {
                            queue.schedule(at, kind);
                        });
                }
                Stream::Tick => {
                    next_tick += tick_interval;
                    self.cells
                        .recorder
                        .add(telem::counter::EVENT_MOBILITY_TICK, 1);
                    // Stations are stored in grid order, so the dense walk
                    // is deterministic by construction.
                    let Cells {
                        stations, metrics, ..
                    } = &mut self.cells;
                    for station in stations.iter() {
                        metrics.record_utilization(time, station.occupied(), station.capacity());
                    }
                }
                Stream::Queue => {
                    let event = self.queue.pop().expect("peeked above");
                    if R::ENABLED {
                        // Depth *including* the popped event; gated so the
                        // disabled build computes nothing here.
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
                            self.cells.depart(controller, cell, connection_id, user);
                        }
                        EventKind::Handoff {
                            from,
                            to,
                            connection_id,
                            user,
                        } => {
                            self.cells.recorder.add(telem::counter::EVENT_HANDOFF, 1);
                            // The sequential engine admits at the target
                            // with zero lookahead.
                            if let Some(handoff) =
                                self.cells
                                    .hand_out(controller, from, to, connection_id, user, time)
                            {
                                let queue = &mut self.queue;
                                self.cells
                                    .hand_in(controller, &self.grid, &handoff, |at, kind| {
                                        queue.schedule(at, kind);
                                    });
                            }
                        }
                    }
                }
            }
        }
        if let Some(ns) = watch.elapsed_ns() {
            self.cells.recorder.span_ns(telem::span::RUN_POISSON, ns);
        }
        self.take_report(controller.name())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn always_accept_fills_the_station() {
        let mut sim = Simulator::new(SimConfig::paper_default().with_seed(1));
        let mut controller = AlwaysAccept;
        let report = sim.run_batch(&mut controller, 100);
        assert_eq!(report.offered, 100);
        assert!(report.accepted > 0);
        // The 40-BU station cannot hold 100 requests averaging 2.7 BU.
        assert!(report.accepted < 100);
        let station = sim.station(&CellId::origin()).unwrap();
        assert!(station.occupied() <= station.capacity());
        // With AlwaysAccept the only rejections are capacity rejections, so
        // the station should be nearly full.
        assert!(station.occupied() >= station.capacity() - 10);
    }

    #[test]
    fn small_batches_are_fully_accepted() {
        let mut sim = Simulator::new(SimConfig::paper_default().with_seed(2));
        let mut controller = AlwaysAccept;
        let report = sim.run_batch(&mut controller, 5);
        assert_eq!(report.offered, 5);
        assert_eq!(report.accepted, 5);
        assert_eq!(report.acceptance_percentage, 100.0);
        assert_eq!(report.blocking_probability, 0.0);
    }

    #[test]
    fn batch_runs_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(SimConfig::paper_default().with_seed(seed));
            let mut controller = AlwaysAccept;
            sim.run_batch(&mut controller, 60).accepted
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn capacity_threshold_accepts_less_than_always_accept() {
        let n = 80;
        let mut sim_a = Simulator::new(SimConfig::paper_default().with_seed(3));
        let mut always = AlwaysAccept;
        let a = sim_a.run_batch(&mut always, n);

        let mut sim_t = Simulator::new(SimConfig::paper_default().with_seed(3));
        let mut threshold = CapacityThreshold::new(0.5, 1.0);
        let t = sim_t.run_batch(&mut threshold, n);

        assert!(t.accepted <= a.accepted);
        assert!(t.accepted > 0);
        // Threshold controller keeps utilisation at or below ~50 %.
        let station = sim_t.station(&CellId::origin()).unwrap();
        assert!(station.occupied() <= 20 + 10); // 50% of 40 plus one large call of slack
    }

    #[test]
    fn capacity_threshold_scores_sign_matches_decision() {
        let mut c = CapacityThreshold::default();
        let station = BaseStation::paper_default();
        let req = AdmissionRequest {
            id: 0,
            cell: CellId::origin(),
            time: 0.0,
            class: ServiceClass::Video,
            bandwidth: 10,
            holding_time: 60.0,
            speed_kmh: 50.0,
            angle_deg: 0.0,
            distance_m: None,
            is_handoff: false,
        };
        let d = c.decide(&req, &station);
        assert!(d.accept);
        assert!(d.score >= 0.0);
    }

    #[test]
    fn offer_requests_uses_identical_sequences() {
        let cfg = SimConfig::paper_default().with_seed(9);
        let mut gen = TrafficGenerator::new(cfg.traffic.clone(), 99);
        let requests = gen.generate_batch(50);

        let mut sim_a = Simulator::new(cfg.clone());
        let mut a = AlwaysAccept;
        sim_a.offer_requests(&mut a, &requests);

        let mut sim_b = Simulator::new(cfg);
        let mut b = AlwaysAccept;
        sim_b.offer_requests(&mut b, &requests);

        assert_eq!(sim_a.metrics().accepted(), sim_b.metrics().accepted());
        assert_eq!(sim_a.metrics().offered(), 50);
    }

    #[test]
    fn poisson_run_single_cell_completes_calls() {
        let mut cfg = SimConfig::paper_default().with_seed(4);
        cfg.traffic.mean_interarrival_s = 10.0;
        cfg.traffic.mean_holding_s = 60.0;
        cfg.utilization_sample_interval_s = 50.0;
        let mut sim = Simulator::new(cfg);
        let mut controller = AlwaysAccept;
        let report = sim.run_poisson(&mut controller, 200);
        assert_eq!(report.offered, 200);
        assert!(report.accepted > 100, "accepted {}", report.accepted);
        // With arrivals spread over time most admitted calls complete.
        assert!(report.metrics.completed() > 0);
        assert!(report.mean_utilization > 0.0);
        assert_eq!(report.dropping_probability, 0.0); // single cell: no handoffs
    }

    #[test]
    fn poisson_run_multi_cell_produces_handoffs() {
        let mut cfg = SimConfig::paper_default().with_seed(5).with_grid_radius(2);
        cfg.cell_radius_m = 300.0; // small cells + long calls => handoffs
        cfg.traffic.mean_interarrival_s = 5.0;
        cfg.traffic.mean_holding_s = 600.0;
        cfg.traffic.min_speed_kmh = 60.0;
        cfg.traffic.max_speed_kmh = 120.0;
        let mut sim = Simulator::new(cfg);
        let mut controller = AlwaysAccept;
        let report = sim.run_poisson(&mut controller, 300);
        let (offered, accepted, _failed) = report.metrics.handoffs();
        assert!(offered > 0, "expected some handoffs");
        assert!(accepted <= offered);
    }

    #[test]
    fn report_fields_are_consistent() {
        let mut sim = Simulator::new(SimConfig::paper_default().with_seed(8));
        let mut controller = AlwaysAccept;
        let report = sim.run_batch(&mut controller, 70);
        assert_eq!(report.offered, report.accepted + report.metrics.blocked());
        assert!(
            (report.acceptance_percentage - 100.0 * report.accepted as f64 / report.offered as f64)
                .abs()
                < 1e-9
        );
        assert_eq!(report.controller, "always-accept");
    }

    #[test]
    fn decide_batch_matches_sequential_decide() {
        let mut c = CapacityThreshold::default();
        let station = BaseStation::paper_default();
        let requests: Vec<AdmissionRequest> = (0..12)
            .map(|i| AdmissionRequest {
                id: i,
                cell: CellId::origin(),
                time: 0.0,
                class: ServiceClass::Voice,
                bandwidth: 5 + (i % 3) as u32 * 2,
                holding_time: 60.0,
                speed_kmh: 10.0 * i as f64,
                angle_deg: 0.0,
                distance_m: None,
                is_handoff: i % 2 == 0,
            })
            .collect();
        let mut batch = vec![AdmissionDecision::reject(0.0); 3]; // pre-filled: must be cleared
        c.decide_batch(&requests, &station, &mut batch);
        assert_eq!(batch.len(), requests.len());
        for (r, d) in requests.iter().zip(&batch) {
            assert_eq!(*d, c.decide(r, &station), "snapshot semantics for {}", r.id);
        }
    }

    #[test]
    fn reset_is_bit_identical_to_a_fresh_simulator() {
        // The sweep engine reuses one simulator per worker via `reset`;
        // that is only sound if a reset simulator reproduces a fresh one
        // exactly — across run modes, grid shapes and capacities.
        let configs = [
            SimConfig::paper_default().with_seed(11),
            SimConfig::paper_default().with_seed(12).with_capacity(25),
            {
                let mut cfg = SimConfig::paper_default()
                    .with_seed(13)
                    .with_grid_radius(1)
                    .with_cell_radius(300.0)
                    .with_utilization_sampling(40.0);
                cfg.traffic.mean_interarrival_s = 3.0;
                cfg.traffic.mean_holding_s = 300.0;
                cfg.traffic.min_speed_kmh = 40.0;
                cfg
            },
            SimConfig::paper_default().with_seed(14),
        ];
        // One reused simulator, reset before every run...
        let mut reused = Simulator::new(configs[0].clone());
        for (i, cfg) in configs.iter().enumerate() {
            reused.reset(cfg.clone());
            let mut a = AlwaysAccept;
            let reused_report = if cfg.grid_radius_cells > 0 {
                reused.run_poisson(&mut a, 150)
            } else {
                reused.run_batch(&mut a, 80)
            };
            // ...must match a simulator built from scratch for this cell.
            let mut fresh = Simulator::new(cfg.clone());
            let mut b = AlwaysAccept;
            let fresh_report = if cfg.grid_radius_cells > 0 {
                fresh.run_poisson(&mut b, 150)
            } else {
                fresh.run_batch(&mut b, 80)
            };
            assert_eq!(reused_report, fresh_report, "config #{i} diverged");
            assert_eq!(
                reused.station(&CellId::origin()).unwrap().occupied(),
                fresh.station(&CellId::origin()).unwrap().occupied(),
                "station state after run #{i}"
            );
        }
    }

    #[test]
    fn events_processed_counts_poisson_loop_events() {
        let mut cfg = SimConfig::paper_default().with_seed(15);
        cfg.traffic.mean_interarrival_s = 10.0;
        cfg.traffic.mean_holding_s = 60.0;
        let mut sim = Simulator::new(cfg.clone());
        let mut c = AlwaysAccept;
        let report = sim.run_poisson(&mut c, 200);
        // Every arrival is an event, every admitted call schedules a
        // departure that eventually fires (single cell: no handoffs).
        assert_eq!(
            sim.events_processed(),
            200 + report.accepted,
            "events = arrivals + departures"
        );
        sim.reset(cfg);
        assert_eq!(sim.events_processed(), 0, "reset restarts the counter");
    }

    #[test]
    fn outage_drops_active_calls_and_blocks_new_ones() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut cfg = SimConfig::paper_default().with_seed(21);
        cfg.traffic.mean_interarrival_s = 2.0;
        cfg.traffic.mean_holding_s = 120.0;
        // One outage mid-run, never recovered: the cell stays dark.
        cfg.fault_plan = FaultPlan::new().with_event(100.0, 0, FaultKind::Outage);
        let mut sim = Simulator::new(cfg);
        let mut controller = AlwaysAccept;
        let report = sim.run_poisson(&mut controller, 200);
        let dropped = report.metrics.dropped_by_outage();
        assert!(dropped > 0, "outage at t=100 must cut active calls");
        // Outage drops land in the per-class dropped counters too.
        assert!(report.metrics.dropped() >= dropped);
        // Post-outage the station has zero capacity: nothing occupied,
        // and every arrival after t=100 was blocked.
        let station = sim.station(&CellId::origin()).unwrap();
        assert_eq!(station.capacity(), 0);
        assert_eq!(station.occupied(), 0);
        assert!(report.accepted < report.offered);
    }

    #[test]
    fn recovery_restores_capacity_and_admissions() {
        use crate::fault::FaultPlan;
        let mut cfg = SimConfig::paper_default().with_seed(22);
        cfg.traffic.mean_interarrival_s = 5.0;
        cfg.traffic.mean_holding_s = 60.0;
        cfg.fault_plan = FaultPlan::new().with_outage(0, 200.0, 100.0);
        let mut sim = Simulator::new(cfg);
        let mut controller = AlwaysAccept;
        let report = sim.run_poisson(&mut controller, 300);
        assert!(report.metrics.dropped_by_outage() > 0);
        let station = sim.station(&CellId::origin()).unwrap();
        assert_eq!(station.capacity(), 40, "recovery returns to nominal");
        // Calls admitted after the recovery completed normally.
        assert!(report.metrics.completed() > 0);
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_the_pre_fault_engine() {
        use crate::fault::FaultPlan;
        let mut base = SimConfig::paper_default().with_seed(23).with_grid_radius(1);
        base.cell_radius_m = 300.0;
        base.traffic.mean_interarrival_s = 3.0;
        base.traffic.mean_holding_s = 300.0;
        base.utilization_sample_interval_s = 40.0;
        let with_plan = base.clone().with_fault_plan(FaultPlan::new());
        let mut a = AlwaysAccept;
        let ra = Simulator::new(base).run_poisson(&mut a, 200);
        let mut b = AlwaysAccept;
        let rb = Simulator::new(with_plan).run_poisson(&mut b, 200);
        assert_eq!(ra, rb);
        assert_eq!(ra.metrics.dropped_by_outage(), 0);
    }

    #[test]
    fn faults_outside_the_grid_are_ignored() {
        use crate::fault::{FaultKind, FaultPlan};
        let base = SimConfig::paper_default().with_seed(24);
        let ghost =
            base.clone()
                .with_fault_plan(FaultPlan::new().with_event(50.0, 99, FaultKind::Outage));
        let mut a = AlwaysAccept;
        let ra = Simulator::new(base).run_poisson(&mut a, 100);
        let mut b = AlwaysAccept;
        let rb = Simulator::new(ghost).run_poisson(&mut b, 100);
        assert_eq!(ra, rb, "out-of-grid faults must be no-ops");
    }

    /// A seven-cell grid under heavy mobile load with 120 outages
    /// rolling over its cells: many dropped calls whose users were being
    /// tracked.
    pub(crate) fn outage_churn_config() -> SimConfig {
        use crate::fault::FaultPlan;
        let mut cfg = SimConfig::paper_default()
            .with_seed(31)
            .with_grid_radius(1)
            .with_cell_radius(300.0);
        cfg.traffic.mean_interarrival_s = 0.5;
        cfg.traffic.mean_holding_s = 120.0;
        cfg.traffic.min_speed_kmh = 30.0;
        cfg.fault_plan = (0..120).fold(FaultPlan::new(), |plan, i| {
            plan.with_outage(i % 7, 10.0 + 10.0 * f64::from(i), 4.0)
        });
        cfg
    }

    #[test]
    fn outage_drops_leave_no_user_slots_behind() {
        let mut sim = Simulator::new(outage_churn_config());
        let report = sim.run_poisson(&mut AlwaysAccept, 3000);
        assert!(report.metrics.dropped_by_outage() > 100);
        assert!(report.metrics.handoffs().0 > 0);
        assert!(
            sim.cells.users.is_empty(),
            "{} slots leaked",
            sim.cells.users.len()
        );
    }

    #[test]
    fn zero_requests_is_a_noop() {
        let mut sim = Simulator::new(SimConfig::paper_default());
        let mut controller = AlwaysAccept;
        let report = sim.run_batch(&mut controller, 0);
        assert_eq!(report.offered, 0);
        assert_eq!(report.acceptance_percentage, 100.0);
    }
}
