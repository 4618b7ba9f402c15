//! Facade crate for the FACS-P reproduction.
//!
//! This crate re-exports the whole workspace under one roof so examples,
//! integration tests and downstream users can depend on a single package:
//!
//! * [`fuzzy`] — the general-purpose Mamdani fuzzy-logic library;
//! * [`cellsim`] — the discrete-event wireless cellular network simulator;
//! * [`scc`] — the Shadow Cluster Concept admission baseline;
//! * [`facs`] — the FACS and FACS-P fuzzy admission controllers (the
//!   paper's contribution);
//! * [`sweep`] — declarative scenario specs and the deterministic
//!   parallel experiment engine (`facs-sweep`);
//! * [`admitd`] — the admission-decision server: the batched request
//!   path, wire protocol and load generator behind the `admitd` binary
//!   (`facs-admitd`).
//!
//! The `telemetry` cargo feature switches the default simulator recorder
//! from the zero-cost no-op to a live registry (see
//! [`cellsim::telemetry`] and the README's Observability section);
//! reports are byte-identical either way.
//!
//! # Quickstart
//!
//! ```
//! use facs_suite::prelude::*;
//!
//! let mut controller = FacsPController::paper_default();
//! let mut sim = Simulator::new(SimConfig::paper_default());
//! let report = sim.run_batch(&mut controller, 30);
//! assert!(report.accepted > 0);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and the `facs-bench`
//! crate for the binaries that regenerate every figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use admitd;
pub use cellsim;
pub use facs;
pub use fuzzy;
pub use scc;
pub use sweep;

/// Commonly used types from every crate in the workspace.
pub mod prelude {
    pub use admitd::{Server, ServerConfig, ServerSummary, World, WorldConfig};
    pub use cellsim::telemetry::{NoopRecorder, Recorder, Registry, TelemetrySnapshot};
    pub use cellsim::traffic::TrafficConfig;
    pub use cellsim::{
        AdmissionController, AdmissionDecision, AdmissionRequest, AlwaysAccept, BaseStation,
        BoxedController, CallRequest, CapacityThreshold, CellGrid, CellId, DurationPolicy,
        FaultEvent, FaultKind, FaultPlan, GroupConfig, Metrics, MmppConfig, Point, ServiceClass,
        ShardConfig, ShardReport, ShardedSimulator, SimConfig, SimReport, SimRng, Simulator,
        StatAccumulator, SummaryStats, TraceConfig, TrafficGenerator, TrafficMix, TrafficModel,
        UserState,
    };
    pub use facs::{
        DifferentiatedService, FacsConfig, FacsController, FacsPConfig, FacsPController, Flc1,
        Flc2, Flc2Lut, PaperParams, PriorityPolicy, RequestPriority,
    };
    pub use fuzzy::prelude::*;
    pub use scc::{SccAdmission, SccConfig};
    pub use sweep::{
        all_builtins, builtin, builtin_names, host_parallelism, ControllerSpec, CurveReport,
        LoadMode, PointReport, RunReport, ScenarioSpec, SweepProgress, SweepRunner,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_quickstart_runs() {
        let mut controller = FacsPController::paper_default();
        let mut sim = Simulator::new(SimConfig::paper_default());
        let report = sim.run_batch(&mut controller, 30);
        assert_eq!(report.offered, 30);
        assert!(report.accepted > 0);
    }
}
