//! The built-in scenario library.
//!
//! Ready-to-run [`ScenarioSpec`]s covering the paper's evaluation, the
//! workloads the ROADMAP asks the system to grow into, and the `burst-*`
//! non-Poisson variants behind the burstiness study (see
//! `docs/TRAFFIC_MODELS.md`).  Each is a plain value: fetch it with
//! [`builtin`], tweak it with the spec's builders, or dump it with
//! [`ScenarioSpec::to_json`] as a starting point for a custom spec file.

use crate::spec::{ControllerSpec, LoadMode, ScenarioSpec};
use cellsim::traffic::{
    GroupConfig, MmppConfig, TraceConfig, TrafficConfig, TrafficMix, TrafficModel,
};
use cellsim::FaultPlan;

/// Names of all built-in scenarios, in presentation order.
#[must_use]
pub fn builtin_names() -> &'static [&'static str] {
    &[
        "paper-default",
        "highway-handoff",
        "downtown-hotspot",
        "flash-crowd",
        "mixed-multimedia",
        "metro",
        "burst-mmpp",
        "burst-trace",
        "burst-groups",
        "outage-wave",
    ]
}

/// Fetch a built-in scenario by name; `None` for unknown names.
#[must_use]
pub fn builtin(name: &str) -> Option<ScenarioSpec> {
    match name {
        "paper-default" => Some(paper_default()),
        "highway-handoff" => Some(highway_handoff()),
        "downtown-hotspot" => Some(downtown_hotspot()),
        "flash-crowd" => Some(flash_crowd()),
        "mixed-multimedia" => Some(mixed_multimedia()),
        "metro" => Some(metro()),
        "burst-mmpp" => Some(burst_mmpp()),
        "burst-trace" => Some(burst_trace()),
        "burst-groups" => Some(burst_groups()),
        "outage-wave" => Some(outage_wave()),
        _ => None,
    }
}

/// Every built-in scenario, in presentation order.
#[must_use]
pub fn all_builtins() -> Vec<ScenarioSpec> {
    builtin_names()
        .iter()
        .map(|n| builtin(n).expect("builtin_names lists only builtins"))
        .collect()
}

/// The paper's evaluation setup (Figs. 7–10): one 40-BU cell, the
/// 70/20/10 % text/voice/video mix, 0–120 km/h users, 10–100 requesting
/// connections over a 450-second window, 20 replications.
fn paper_default() -> ScenarioSpec {
    ScenarioSpec {
        name: "paper-default".to_string(),
        description: "Single 40-BU cell, 70/20/10 multimedia mix, the paper's \
                      requesting-connections sweep"
            .to_string(),
        grid_radius_cells: 0,
        cell_radius_m: 1000.0,
        station_capacity: 40,
        traffic: TrafficConfig {
            mean_holding_s: 180.0,
            direction_predictability: 1.0,
            ..TrafficConfig::paper_default()
        },
        traffic_model: TrafficModel::Poisson,
        fault_plan: FaultPlan::new(),
        utilization_sample_interval_s: 0.0,
        controllers: vec![
            ControllerSpec::FacsP,
            ControllerSpec::Facs,
            ControllerSpec::Scc,
        ],
        load_mode: LoadMode::RequestsPerWindow { window_s: 450.0 },
        load_points: (1..=10).map(|i| i * 10).collect(),
        replications: 20,
        base_seed: 0x2009,
    }
}

/// Fast vehicular users crossing a 19-cell network with small cells: calls
/// hand off several times during their lifetime, so the dropping
/// probability — the QoS violation the paper's controllers are designed to
/// avoid — dominates the comparison.
fn highway_handoff() -> ScenarioSpec {
    ScenarioSpec {
        name: "highway-handoff".to_string(),
        description: "19 hexagonal cells of 300 m, 60-120 km/h users, long calls; \
                      handoff protection under saturation"
            .to_string(),
        grid_radius_cells: 2,
        cell_radius_m: 300.0,
        station_capacity: 40,
        traffic: TrafficConfig {
            mean_interarrival_s: 1.0,
            mean_holding_s: 300.0,
            min_speed_kmh: 60.0,
            max_speed_kmh: 120.0,
            direction_predictability: 1.0,
            ..TrafficConfig::paper_default()
        },
        traffic_model: TrafficModel::Poisson,
        fault_plan: FaultPlan::new(),
        utilization_sample_interval_s: 60.0,
        controllers: vec![
            ControllerSpec::FacsP,
            ControllerSpec::Facs,
            ControllerSpec::Scc,
            ControllerSpec::AlwaysAccept,
        ],
        load_mode: LoadMode::TotalRequests,
        load_points: vec![500, 1000, 2000],
        replications: 5,
        base_seed: 0xCAFE,
    }
}

/// A dense urban core: a 7-cell cluster of small cells, slow (pedestrian)
/// users and sustained overload — the regime where FLC1 rates direction
/// prediction lowest, since it trusts a slow user's heading least.
fn downtown_hotspot() -> ScenarioSpec {
    ScenarioSpec {
        name: "downtown-hotspot".to_string(),
        description: "7-cell downtown cluster, 0-15 km/h pedestrians, sustained overload"
            .to_string(),
        grid_radius_cells: 1,
        cell_radius_m: 250.0,
        station_capacity: 40,
        traffic: TrafficConfig {
            mean_interarrival_s: 2.0,
            mean_holding_s: 240.0,
            min_speed_kmh: 0.0,
            max_speed_kmh: 15.0,
            ..TrafficConfig::paper_default()
        },
        traffic_model: TrafficModel::Poisson,
        fault_plan: FaultPlan::new(),
        utilization_sample_interval_s: 60.0,
        controllers: vec![
            ControllerSpec::FacsP,
            ControllerSpec::Facs,
            ControllerSpec::Scc,
        ],
        load_mode: LoadMode::TotalRequests,
        load_points: vec![300, 600, 1200],
        replications: 8,
        base_seed: 0xD057,
    }
}

/// A stadium flash crowd: everyone requests admission at once against a
/// single cell, so the batch size is the load axis and capacity is the
/// binding resource from the first request on.
fn flash_crowd() -> ScenarioSpec {
    ScenarioSpec {
        name: "flash-crowd".to_string(),
        description: "Stadium flash crowd: simultaneous batch arrivals against one \
                      40-BU cell, growing crowd size"
            .to_string(),
        grid_radius_cells: 0,
        cell_radius_m: 500.0,
        station_capacity: 40,
        traffic: TrafficConfig {
            mean_holding_s: 120.0,
            min_speed_kmh: 0.0,
            max_speed_kmh: 6.0,
            ..TrafficConfig::paper_default()
        },
        traffic_model: TrafficModel::Poisson,
        fault_plan: FaultPlan::new(),
        utilization_sample_interval_s: 0.0,
        controllers: vec![
            ControllerSpec::FacsP,
            ControllerSpec::AlwaysAccept,
            ControllerSpec::Threshold {
                new_call: 0.8,
                handoff: 1.0,
            },
        ],
        load_mode: LoadMode::Batch,
        load_points: vec![20, 40, 80, 160, 320],
        replications: 10,
        base_seed: 0xF1A5,
    }
}

/// A video-heavy multimedia mix (streaming era): half the paper's text
/// share moves to voice and video, so large 10-BU requests contend for the
/// same 40-BU cell and per-class fairness becomes the interesting output.
fn mixed_multimedia() -> ScenarioSpec {
    ScenarioSpec {
        name: "mixed-multimedia".to_string(),
        description: "Video-heavy 40/30/30 mix in one 40-BU cell: large requests \
                      contend, per-class fairness under load"
            .to_string(),
        grid_radius_cells: 0,
        cell_radius_m: 1000.0,
        station_capacity: 40,
        traffic: TrafficConfig {
            mix: TrafficMix::new(0.4, 0.3, 0.3),
            mean_holding_s: 180.0,
            direction_predictability: 1.0,
            ..TrafficConfig::paper_default()
        },
        traffic_model: TrafficModel::Poisson,
        fault_plan: FaultPlan::new(),
        utilization_sample_interval_s: 0.0,
        controllers: vec![
            ControllerSpec::FacsP,
            ControllerSpec::Facs,
            ControllerSpec::Scc,
        ],
        load_mode: LoadMode::RequestsPerWindow { window_s: 450.0 },
        load_points: (1..=8).map(|i| i * 10).collect(),
        replications: 12,
        base_seed: 0x3D1A,
    }
}

/// The ROADMAP's metro-scale north star: a city-sized network of 2107
/// cells (grid radius 26) with 2000-BU macro stations.  At the top load
/// point the offered traffic saturates the whole metro — about 1.5 million
/// concurrent users — which is the workload the sharded engine's 1/2/4
/// thread headline numbers in `BENCH_perf.json` are measured on.
///
/// Arrivals come every 0.5 ms with 20-minute mean holding times, so the
/// population ramps to saturation within the run; 0–60 km/h users on
/// 1.5 km cells hand off several times per call, exercising cross-shard
/// migration.  One replication: at metro scale a single run already
/// aggregates millions of calls, and the perf harness re-runs the same
/// seed for timing stability.
///
/// The paper's fuzzy controllers are tuned to 40-BU cells (FLC2's counter
/// state and the LUT tabulation are absolute-BU quantities), so at
/// 2000 BU they reject almost everything; the metro baselines are the
/// capacity-*relative* controllers — admit-if-it-fits and a guard-channel
/// threshold — which scale with station size.
fn metro() -> ScenarioSpec {
    ScenarioSpec {
        name: "metro".to_string(),
        description: "Metro-scale saturation: 2107 cells of 1.5 km, 2000-BU stations, \
                      ~1.5M concurrent users at the top load point"
            .to_string(),
        grid_radius_cells: 26,
        cell_radius_m: 1500.0,
        station_capacity: 2000,
        traffic: TrafficConfig {
            mean_interarrival_s: 0.0005,
            mean_holding_s: 1200.0,
            min_speed_kmh: 0.0,
            max_speed_kmh: 60.0,
            direction_predictability: 1.0,
            ..TrafficConfig::paper_default()
        },
        traffic_model: TrafficModel::Poisson,
        fault_plan: FaultPlan::new(),
        utilization_sample_interval_s: 60.0,
        controllers: vec![
            ControllerSpec::AlwaysAccept,
            ControllerSpec::Threshold {
                new_call: 0.95,
                handoff: 1.0,
            },
        ],
        load_mode: LoadMode::TotalRequests,
        load_points: vec![200_000, 600_000, 1_800_000],
        replications: 1,
        base_seed: 0x3E7,
    }
}

/// The paper's Figs. 7–10 sweep re-run under a Markov-modulated Poisson
/// process: the same single 40-BU cell, mix, controllers and load axis
/// as `paper-default`, but arrivals alternate between a quiet quarter-rate
/// background and 4x flash bursts ([`MmppConfig::flash_crowd`]).  The
/// process is rate-preserving (time-average multiplier 1), so each load
/// point offers the same long-run traffic as the Poisson original —
/// every acceptance difference against `paper-default` is the burstiness
/// itself.  This is the headline scenario of the FACS-vs-SCC burstiness
/// study (`examples/burst_study.rs`).
fn burst_mmpp() -> ScenarioSpec {
    ScenarioSpec {
        name: "burst-mmpp".to_string(),
        description: "paper-default under rate-preserving MMPP flash bursts \
                      (quiet 0.25x / burst 4x)"
            .to_string(),
        traffic_model: TrafficModel::Mmpp(MmppConfig::flash_crowd()),
        base_seed: 0xB0057,
        ..paper_default()
    }
}

/// A recorded stadium-exit arrival pattern replayed against the paper's
/// cell: clustered bursts of voice/video with a long quiet tail, looped
/// for the length of the run.  The load axis is the run length
/// ([`LoadMode::TotalRequests`]) — the arrival *rate* is pinned by the
/// trace, so longer runs tighten the estimate rather than raising load.
fn burst_trace() -> ScenarioSpec {
    let trace = TraceConfig::from_text(
        "# stadium-exit recording: two clustered bursts per ~3-minute cycle\n\
         0.0    90.0  voice\n\
         0.4   180.0  video\n\
         0.7    45.0  text\n\
         1.2   120.0  voice\n\
         2.0    60.0  text\n\
         3.5   240.0  video\n\
         45.0   75.0  voice\n\
         0.3    30.0  text\n\
         0.8   150.0  voice\n\
         1.5    90.0  text\n\
         2.2   300.0  video\n\
         120.0  60.0  voice\n",
    )
    .expect("the embedded trace is well-formed");
    ScenarioSpec {
        name: "burst-trace".to_string(),
        description: "Looped replay of a recorded stadium-exit arrival trace \
                      against the paper's 40-BU cell"
            .to_string(),
        grid_radius_cells: 0,
        cell_radius_m: 1000.0,
        station_capacity: 40,
        traffic: TrafficConfig {
            mean_holding_s: 180.0,
            direction_predictability: 1.0,
            ..TrafficConfig::paper_default()
        },
        traffic_model: TrafficModel::Trace(trace),
        fault_plan: FaultPlan::new(),
        utilization_sample_interval_s: 0.0,
        controllers: vec![
            ControllerSpec::FacsP,
            ControllerSpec::Facs,
            ControllerSpec::Scc,
        ],
        load_mode: LoadMode::TotalRequests,
        load_points: vec![240, 480, 960],
        replications: 10,
        base_seed: 0x7ACE,
    }
}

/// The highway-handoff network under correlated group arrivals: trains of
/// 5–15 calls hit one cell simultaneously (`same_cell`), with leader gaps
/// stretched so the long-run per-call rate matches `highway-handoff`.
/// Fast users and small cells keep handoffs frequent, so this is also the
/// scenario `tests/golden_sharded.rs` pins solo-vs-sharded under bursty
/// traffic.
fn burst_groups() -> ScenarioSpec {
    ScenarioSpec {
        name: "burst-groups".to_string(),
        description: "19-cell highway network under correlated same-cell group \
                      arrivals of 5-15 calls"
            .to_string(),
        traffic_model: TrafficModel::Groups(GroupConfig::new(5, 15)),
        base_seed: 0x6B05,
        ..highway_handoff()
    }
}

/// The highway-handoff network hit by a rolling wave of cell outages plus
/// a degraded neighbour: cells 0–4 (the origin and its first ring) go dark
/// one after another for 90 s each, staggered a minute apart, while cell 5
/// runs at half capacity for the whole wave.  Every active call in a dark
/// cell is force-dropped and its traffic spills onto the survivors, so the
/// scenario measures how gracefully each controller sheds and re-absorbs
/// load ([`examples/outage_study.rs`]) — and, because faults stress every
/// engine stream at once, it is also the fault plan
/// `tests/golden_sharded.rs` and `tests/fault_determinism.rs` pin
/// solo-vs-sharded.
///
/// The wave finishes by t = 450 s, inside the horizon of even the lowest
/// load point (500 arrivals at 1 s mean spacing), so every sweep cell
/// experiences the full fault schedule.
fn outage_wave() -> ScenarioSpec {
    ScenarioSpec {
        name: "outage-wave".to_string(),
        description: "19-cell highway network under a rolling 5-cell outage wave \
                      with a half-capacity degraded neighbour"
            .to_string(),
        fault_plan: FaultPlan::new()
            .with_outage_wave(0, 5, 120.0, 90.0, 60.0)
            .with_degrade(5, 120.0, 330.0, 0.5),
        base_seed: 0xFA17,
        ..highway_handoff()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_is_valid_and_named_consistently() {
        for name in builtin_names() {
            let spec = builtin(name).unwrap();
            assert_eq!(&spec.name, name);
            spec.validate().unwrap();
            assert!(!spec.description.is_empty());
            assert!(!spec.controllers.is_empty());
        }
        assert_eq!(all_builtins().len(), builtin_names().len());
        assert!(builtin("no-such-scenario").is_none());
    }

    #[test]
    fn library_covers_every_load_mode() {
        let modes: Vec<&str> = all_builtins()
            .iter()
            .map(|s| match s.load_mode {
                LoadMode::RequestsPerWindow { .. } => "window",
                LoadMode::TotalRequests => "total",
                LoadMode::Batch => "batch",
            })
            .collect();
        assert!(modes.contains(&"window"));
        assert!(modes.contains(&"total"));
        assert!(modes.contains(&"batch"));
    }

    #[test]
    fn metro_is_metro_scale() {
        let spec = builtin("metro").unwrap();
        let cells = 3 * spec.grid_radius_cells * (spec.grid_radius_cells + 1) + 1;
        assert!(cells >= 2000, "thousands of cells, got {cells}");
        // Offered concurrent demand at the top load point exceeds the whole
        // metro's capacity in bandwidth units, so the saturated population
        // (capacity / mean request) clears the 1M-concurrent-users bar.
        let mean_bu = 0.7 * 1.0 + 0.2 * 5.0 + 0.1 * 10.0;
        let saturated_users = f64::from(cells * spec.station_capacity) / mean_bu;
        assert!(
            saturated_users >= 1_000_000.0,
            "saturated population must exceed 1M users, got {saturated_users:.0}"
        );
        let top = *spec.load_points.last().unwrap() as f64;
        let offered_bu = top * mean_bu;
        assert!(
            offered_bu >= f64::from(cells * spec.station_capacity),
            "top load point must saturate the metro"
        );
        spec.validate().unwrap();
    }

    #[test]
    fn outage_wave_fits_inside_the_lowest_load_horizon() {
        let spec = builtin("outage-wave").unwrap();
        assert!(!spec.fault_plan.is_empty());
        spec.fault_plan.validate().unwrap();
        let cells = 3 * spec.grid_radius_cells * (spec.grid_radius_cells + 1) + 1;
        let last_event = spec
            .fault_plan
            .sorted_events()
            .last()
            .map(|e| e.time)
            .unwrap();
        // Lowest load point at the configured mean inter-arrival time.
        let horizon = *spec.load_points.first().unwrap() as f64 * spec.traffic.mean_interarrival_s;
        assert!(
            last_event <= horizon,
            "wave must finish (t={last_event}) inside the horizon (~{horizon}s)"
        );
        for event in &spec.fault_plan.events {
            assert!(event.cell < cells, "faults target real cells");
        }
    }

    #[test]
    fn paper_default_matches_the_paper_axes() {
        let spec = builtin("paper-default").unwrap();
        assert_eq!(spec.station_capacity, 40);
        assert_eq!(spec.grid_radius_cells, 0);
        assert_eq!(
            spec.load_points,
            vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        );
        assert_eq!(spec.replications, 20);
    }
}
