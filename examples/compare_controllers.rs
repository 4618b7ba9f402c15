//! Side-by-side comparison of every admission policy on the paper's
//! workload — a miniature version of Figs. 7 and 10 that runs in a couple
//! of seconds.
//!
//! ```text
//! cargo run --release --example compare_controllers
//! ```
//!
//! The workload is a single declarative [`ScenarioSpec`]; every
//! `(controller, load, replication)` cell draws its own SplitMix64-hashed
//! seed stream, so each policy's numbers come from genuinely independent
//! replications over the same load axis.  The FACS-P-LUT column runs the
//! same policy from pre-tabulated FLC2 lines, and decides every call as
//! the exact FACS-P does.

use facs_suite::prelude::*;

fn main() {
    let spec = ScenarioSpec {
        name: "compare-controllers".to_string(),
        description: "Every policy over the same load axis in one 40-BU cell".to_string(),
        grid_radius_cells: 0,
        cell_radius_m: 1000.0,
        station_capacity: 40,
        traffic: TrafficConfig {
            handoff_fraction: 0.3,
            direction_predictability: 1.0,
            ..TrafficConfig::paper_default()
        },
        traffic_model: TrafficModel::Poisson,
        fault_plan: FaultPlan::new(),
        utilization_sample_interval_s: 0.0,
        controllers: vec![
            ControllerSpec::FacsP,
            ControllerSpec::FacsPLut,
            ControllerSpec::Facs,
            ControllerSpec::Scc,
            ControllerSpec::AlwaysAccept,
        ],
        load_mode: LoadMode::RequestsPerWindow { window_s: 450.0 },
        load_points: vec![10, 25, 50, 75, 100],
        replications: 3,
        base_seed: 42,
    };

    let report = SweepRunner::new().run(&spec).expect("spec is valid");

    println!("Every admission policy over the same load axis (40-BU cell)\n");
    print!("{:>10}", "requests");
    for curve in &report.curves {
        print!("  {:>13}", curve.controller);
    }
    println!();
    for (i, load) in report.load_points.iter().enumerate() {
        print!("{load:>10}");
        for curve in &report.curves {
            print!("  {:>12.1}%", curve.points[i].acceptance.mean);
        }
        println!();
    }

    println!(
        "\nFACS-P trades new-call acceptance under load for protection of on-going \
         connections; run `cargo run -p facs-bench --bin all_figures` for the full \
         reproduction of the paper's figures, or `cargo run -p facs-sweep --bin sweep \
         -- --list` for more scenarios."
    );
}
