//! `facs-sweep` — declarative scenario specs and a deterministic parallel
//! experiment engine.
//!
//! The paper's evaluation is a handful of fixed single-cell workloads; this
//! crate turns "an experiment" into a first-class value so any workload the
//! simulator can express is one JSON file away:
//!
//! * [`ScenarioSpec`] — a serde-serializable description of a full
//!   experiment: grid size, cell radius and capacity, traffic mix,
//!   speed/angle ranges, controller choices, load axis, replication count
//!   and base seed;
//! * [`scenarios`] — a built-in library of six ready-to-run specs
//!   (`paper-default`, `highway-handoff`, `downtown-hotspot`,
//!   `flash-crowd`, `mixed-multimedia`, and the metro-scale `metro`);
//! * [`SweepRunner`] — fans the spec's `(controller, load, replication)`
//!   grid out across `std::thread` workers; per-replication seeds are
//!   derived from the base seed and aggregation order is fixed, so reports
//!   are **bit-identical for any worker count**;
//! * [`RunReport`] — cross-replication aggregates (mean / std / 95 % CI
//!   per point plus merged raw counters) with JSON, CSV and plain-table
//!   rendering.
//!
//! # Example
//!
//! ```
//! use sweep::{builtin, SweepRunner};
//!
//! let spec = builtin("paper-default").unwrap().quick();
//! let report = SweepRunner::with_threads(2).run(&spec).unwrap();
//! assert_eq!(report.curves.len(), spec.controllers.len());
//! ```
//!
//! The `sweep` binary drives the same machinery from the command line:
//!
//! ```text
//! cargo run --release -p facs-sweep --bin sweep -- --scenario paper-default --quick
//! cargo run --release -p facs-sweep --bin sweep -- --spec my_experiment.json --csv out.csv
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod report;
pub mod runner;
pub mod scenarios;
pub mod spec;

pub use report::{CurveReport, PointReport, RunReport};
pub use runner::{host_parallelism, ProgressFn, SweepProgress, SweepRunner};
pub use scenarios::{all_builtins, builtin, builtin_names};
pub use spec::{ControllerSpec, LoadMode, ScenarioSpec, SpecError};
