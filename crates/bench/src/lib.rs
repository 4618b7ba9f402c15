//! Experiment harness for the FACS-P reproduction.
//!
//! Every figure of the paper's evaluation section (Figs. 7–10) is
//! regenerated by a function in [`experiments`] and printed by a binary of
//! the same name (`fig7` … `fig10`, plus `all_figures`).  The figure
//! workloads are built as `facs-sweep` [`sweep::ScenarioSpec`]s and driven
//! through its deterministic parallel [`sweep::SweepRunner`], so the bins
//! parallelise across replications for free while staying bit-identical to
//! a single-threaded run.  The [`perf`] module (the `perf` bin) is the
//! workspace's timing harness: it measures the fuzzy inference,
//! controller, simulator, sweep, sharded-engine and server layers and
//! writes and checks the committed `BENCH_perf.json` baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod experiments;
pub mod perf;
pub mod report;

pub use cli::FigureArgs;
pub use experiments::{
    acceptance_curve, acceptance_curves, fig10_series, fig7_series, fig8_series, fig9_series,
    figure_scenario, qos_protection_rows, series_from_report, ExperimentConfig, FigureSeries,
    QosRow,
};
pub use perf::{PerfCase, PerfReport, SweepThroughput};
pub use report::{render_qos_table, render_table, series_to_json};
