//! Discrete-event wireless cellular network simulator.
//!
//! This crate is the evaluation substrate for the FACS / FACS-P
//! call-admission controllers: a hexagonal-cell wireless network with mobile
//! users, multimedia traffic (text / voice / video), base stations with a
//! fixed capacity in bandwidth units (BU), and a discrete-event simulation
//! driver that feeds admission requests to a pluggable
//! [`AdmissionController`].
//!
//! The paper's evaluation (Section 4) uses a single 40-BU base station, a
//! 70/20/10 % text/voice/video mix with 1/5/10 BU requests, user speeds of
//! 0–120 km/h and user directions of −180…180°.  Those defaults are captured
//! in [`traffic::TrafficMix::paper_default`] and
//! [`station::BaseStation::paper_default`], but every parameter can be
//! overridden; the simulator also supports multi-cell topologies with
//! handoffs for the scenarios that go beyond the paper (see
//! `examples/highway_handoff.rs` in the workspace root).
//!
//! # Crate layout
//!
//! * [`geometry`] — hexagonal cell grid, cell ids, neighbour rings and
//!   Euclidean positions.
//! * [`mobility`] — user kinematic state (position, speed, heading) and
//!   the angle-to-base-station computation used by FLC1; a user keeps the
//!   speed and heading it spawned with.
//! * [`traffic`] — service classes, bandwidth units, the paper's traffic mix
//!   and Poisson/exponential call generators, plus the bursty arrival
//!   models (trace replay, MMPP, correlated groups) in [`traffic::model`].
//! * [`station`] — base stations: capacity bookkeeping and the real-time /
//!   non-real-time occupancy counters (RTC / NRTC) used by FACS-P.
//! * [`event`] — the discrete-event queue (small `Copy` events over dense
//!   cell indices and slab handles).
//! * [`fault`] — deterministic scheduled cell faults (outages and
//!   capacity degradation), folded into both engines as a fourth merge
//!   stream.
//! * [`slab`] — generational slab storage for per-connection state.
//! * [`cell`] — the cell core: every per-cell transition (offer, expiry
//!   and release, outage force-drop, spawn kinematics, handoff), written
//!   once for both engines and the `admitd` server.
//! * [`sim`] — the simulation driver and the [`AdmissionController`] trait.
//! * [`shard`] — the spatially sharded, epoch-synchronised parallel engine
//!   for metro-scale runs (bit-identical for any shard/thread count).
//! * [`metrics`] — acceptance/blocking/dropping statistics and time series.
//! * [`telem`] — the telemetry schema and the feature-selected default
//!   [`telemetry::Recorder`] (observation-only; reports are byte-identical
//!   with telemetry on and off).
//! * [`rng`] — small deterministic RNG helpers so every experiment is
//!   reproducible from a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cell;
pub mod event;
pub mod fault;
pub mod geometry;
pub mod metrics;
pub mod mobility;
pub mod rng;
pub mod shard;
pub mod sim;
pub mod slab;
pub mod station;
pub mod telem;
pub mod traffic;

pub use telemetry;

pub use event::{Event, EventKind, EventQueue};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use geometry::{CellGrid, CellId, CellIdx, Point};
pub use metrics::{ClassMetrics, Metrics, StatAccumulator, SummaryStats};
pub use mobility::UserState;
pub use rng::SimRng;
pub use shard::{BoxedController, MergeKey, ShardConfig, ShardReport, ShardedSimulator};
pub use sim::{
    AdmissionController, AdmissionDecision, AdmissionRequest, AlwaysAccept, CapacityThreshold,
    SimConfig, SimReport, Simulator,
};
pub use slab::{Slab, SlotId};
pub use station::{BaseStation, StationError};
pub use traffic::{
    CallRequest, DurationPolicy, GroupConfig, MmppConfig, MmppState, ServiceClass, TraceConfig,
    TraceEntry, TraceError, TrafficGenerator, TrafficMix, TrafficModel,
};

/// Bandwidth unit (BU) type used throughout the simulator.
///
/// The paper expresses all capacities and requests in integer bandwidth
/// units (1 BU = the bandwidth of a text connection).
pub type Bandwidth = u32;

/// Simulation time in seconds.
pub type SimTime = f64;
