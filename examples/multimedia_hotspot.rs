//! Multimedia hotspot scenario: a single congested cell with a shifting
//! traffic mix.
//!
//! ```text
//! cargo run --release --example multimedia_hotspot
//! ```
//!
//! The paper's evaluation fixes the traffic mix at 70 % text / 20 % voice /
//! 10 % video.  This example sweeps the share of video traffic in a single
//! 40-BU cell (think of a stadium hotspot where everyone starts streaming):
//! each share is its own [`ScenarioSpec`] run through the sweep engine, so
//! the per-class fairness numbers come with replication-averaged counters.
//! The second half shows the priority of requesting connections (the
//! paper's future-work extension) via the lower-level controller API.

use facs_suite::prelude::*;

/// The hotspot spec for one video share.
fn hotspot_spec(video_share: f64) -> ScenarioSpec {
    let text = (1.0 - video_share) * 0.78;
    let voice = (1.0 - video_share) * 0.22;
    ScenarioSpec {
        name: format!("hotspot-video-{:.0}", 100.0 * video_share),
        description: "Single congested 40-BU cell with a shifting mix".to_string(),
        grid_radius_cells: 0,
        cell_radius_m: 1000.0,
        station_capacity: 40,
        traffic: TrafficConfig {
            mix: TrafficMix::new(text, voice, video_share),
            mean_interarrival_s: 6.0,
            mean_holding_s: 180.0,
            ..TrafficConfig::paper_default()
        },
        traffic_model: TrafficModel::Poisson,
        fault_plan: FaultPlan::new(),
        utilization_sample_interval_s: 0.0,
        controllers: vec![ControllerSpec::FacsP],
        load_mode: LoadMode::TotalRequests,
        load_points: vec![600],
        replications: 3,
        base_seed: 0xBEEF,
    }
}

fn main() {
    println!("Multimedia hotspot: one 40-BU cell, 600 requests, growing video share\n");
    println!(
        "{:>12}  {:>10}  {:>8}  {:>8}  {:>8}",
        "video share", "accepted", "text %", "voice %", "video %"
    );
    let runner = SweepRunner::new();
    for video_share in [0.1, 0.2, 0.3, 0.4, 0.5] {
        let report = runner
            .run(&hotspot_spec(video_share))
            .expect("hotspot specs are valid");
        let point = &report.curves[0].points[0];
        let ratio = |class: ServiceClass| 100.0 * point.merged.class(class).acceptance_ratio();
        println!(
            "{:>11.0}%  {:>9.1}%  {:>7.1}%  {:>7.1}%  {:>7.1}%",
            100.0 * video_share,
            point.acceptance.mean,
            ratio(ServiceClass::Text),
            ratio(ServiceClass::Voice),
            ratio(ServiceClass::Video),
        );
    }

    // Future-work extension: a high-priority slice of requesting
    // connections (e.g. emergency calls) sees a discounted counter state.
    println!("\nRequest-priority extension (video-heavy load, 30% video):");
    for (label, priority) in [
        ("low priority", RequestPriority::Low),
        ("normal", RequestPriority::Normal),
        ("high priority", RequestPriority::High),
    ] {
        let traffic = TrafficConfig {
            mix: TrafficMix::new(0.5, 0.2, 0.3),
            mean_interarrival_s: 6.0,
            mean_holding_s: 180.0,
            ..TrafficConfig::paper_default()
        };
        let config = SimConfig::paper_default()
            .with_seed(0xBEEF)
            .with_traffic(traffic);
        let mut controller =
            FacsPController::new(FacsPConfig::paper_default().with_request_priority(priority))
                .expect("paper parameters are valid");
        let mut sim = Simulator::new(config);
        let report = sim.run_poisson(&mut controller, 600);
        println!(
            "  {label:<14} accepted {:>5.1}%",
            report.acceptance_percentage
        );
    }
}
