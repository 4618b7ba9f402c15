//! Golden pinning of the arrival stream's edge cases, on both engines.
//!
//! Each case runs once on the sequential [`Simulator`] and once on the
//! [`ShardedSimulator`] at 1, 2 and 5 shards, all on a 7-cell grid.  The
//! sharded runs must be byte-identical to each other, and both engines'
//! reports are compared against JSON snapshots under `tests/golden/`.
//! The cases sit where an arrival source can go wrong:
//!
//! * an empty run and a one-request run with utilisation sampling on
//!   (the empty run records one tick at t = 0);
//! * trace-replayed arrivals exactly on the epoch boundaries (5 s, 10 s,
//!   ...), two of them at one instant, and a tick on the last arrival;
//! * same-cell group arrivals and MMPP bursts;
//! * a mid-run cell outage.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_arrivals
//! ```

use facs_suite::cellsim::shard::EPOCH_S;
use facs_suite::cellsim::telemetry::lint_prometheus;
use facs_suite::cellsim::traffic::{ArrivalStream, TraceEntry};
use facs_suite::prelude::*;
use std::path::PathBuf;

/// One pinned edge case.
struct Case {
    name: &'static str,
    config: SimConfig,
    requests: usize,
}

/// A 7-cell grid of small cells with fast users, so calls hand off.
fn grid7(seed: u64) -> SimConfig {
    SimConfig::paper_default()
        .with_seed(seed)
        .with_grid_radius(1)
        .with_cell_radius(300.0)
        .with_traffic(TrafficConfig {
            mean_interarrival_s: 1.0,
            mean_holding_s: 120.0,
            min_speed_kmh: 60.0,
            max_speed_kmh: 120.0,
            ..TrafficConfig::paper_default()
        })
        .with_utilization_sampling(5.0)
}

fn cases() -> Vec<Case> {
    // Gaps of 5, 5 and 0 s: arrivals at 5, 10, 10, 15, 20, 20, 25 s, each
    // on an epoch boundary and on a 5 s utilisation tick.
    let trace = TraceConfig::new(vec![
        TraceEntry {
            inter_arrival_s: 5.0,
            duration_s: 40.0,
            class: ServiceClass::Voice,
        },
        TraceEntry {
            inter_arrival_s: 5.0,
            duration_s: 30.0,
            class: ServiceClass::Video,
        },
        TraceEntry {
            inter_arrival_s: 0.0,
            duration_s: 20.0,
            class: ServiceClass::Text,
        },
    ]);
    vec![
        Case {
            name: "empty",
            config: grid7(1),
            requests: 0,
        },
        Case {
            name: "single",
            config: grid7(2),
            requests: 1,
        },
        Case {
            name: "trace-boundaries",
            config: grid7(3).with_traffic_model(TrafficModel::Trace(trace)),
            requests: 7,
        },
        Case {
            name: "groups-same-cell",
            config: grid7(4).with_traffic_model(TrafficModel::Groups(
                GroupConfig::new(3, 8).with_same_cell(true),
            )),
            requests: 300,
        },
        Case {
            name: "mmpp",
            config: grid7(5).with_traffic_model(TrafficModel::Mmpp(MmppConfig::flash_crowd())),
            requests: 300,
        },
        Case {
            name: "outage",
            config: grid7(6).with_fault_plan(FaultPlan::new().with_outage(3, 60.0, 120.0)),
            requests: 400,
        },
    ]
}

fn controller() -> BoxedController {
    Box::new(CapacityThreshold::new(0.8, 1.0))
}

fn snapshot_path(case: &str, engine: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("arrivals__{case}__{engine}.json"))
}

fn check(path: &PathBuf, json: &str, update: bool) {
    if update {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, format!("{json}\n")).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected.trim_end(),
        json,
        "report drifted from its golden snapshot {}; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}

#[test]
fn arrival_edge_cases_match_golden_on_both_engines() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    for case in cases() {
        let mut sim = Simulator::new(case.config.clone());
        let report = sim.run_poisson(controller().as_mut(), case.requests);
        let new_calls = report.offered - report.metrics.handoffs().0;
        assert_eq!(new_calls as usize, case.requests, "{}", case.name);
        let json = serde_json::to_string_pretty(&report).expect("reports serialize");
        check(&snapshot_path(case.name, "sim"), &json, update);

        let mut sharded_json = None;
        for (shards, threads) in [(1, 1), (2, 1), (5, 2)] {
            let mut sim = ShardedSimulator::new(
                case.config.clone(),
                ShardConfig::new(shards).with_threads(threads),
            );
            let report = sim.run_poisson(&mut controller, case.requests);
            let json = serde_json::to_string_pretty(&report).expect("reports serialize");
            match &sharded_json {
                None => sharded_json = Some(json),
                Some(solo) => assert_eq!(
                    solo, &json,
                    "{}: {shards} shards must reproduce the solo run",
                    case.name
                ),
            }
        }
        check(
            &snapshot_path(case.name, "sharded"),
            sharded_json.as_deref().unwrap(),
            update,
        );
    }
}

/// The sharded coordinator holds one epoch's arrivals at a time, not the
/// run's: on the first metro load point (200k requests over 2107 cells)
/// the `shard_arrival_buffer_high_water` gauge equals the busiest
/// epoch's arrival count, which is within twice the mean over the epochs
/// that have arrivals.  Metro's rate puts these 200k arrivals in 20
/// epochs, so the busiest holds about 5 % of the run.  The report is
/// byte-identical with the live registry and the no-op recorder, and the
/// coordinator's exposition lints clean.
#[test]
fn metro_arrival_buffer_holds_one_epoch() {
    let spec = builtin("metro").expect("metro is a built-in");
    let controller = spec.controllers[1];
    let requests = spec.load_points[0];
    let config = spec.sim_config(&controller, 0, 0);
    let sharding = ShardConfig::new(4).with_threads(2);
    let mut factory = || controller.build();

    let mut traced = ShardedSimulator::<Registry>::with_telemetry(config.clone(), sharding);
    let traced_report = traced.run_poisson(&mut factory, requests);
    let mut plain = ShardedSimulator::<NoopRecorder>::with_telemetry(config.clone(), sharding);
    let plain_report = plain.run_poisson(&mut factory, requests);
    assert_eq!(
        serde_json::to_string(&traced_report).unwrap(),
        serde_json::to_string(&plain_report).unwrap(),
        "the recorder must not change the report"
    );

    // The busiest epoch, counted from the same arrival stream the engines
    // read (base stream `0xD15C` of the run seed), with the engine's
    // epoch windows.
    let mut stream = ArrivalStream::new(
        &config.traffic,
        &config.traffic_model,
        &SimRng::new(config.seed).derive(0xD15C),
        2107,
        requests,
    );
    let mut busiest = 0u64;
    let mut arrival_epochs = 0u64;
    while let Some(t) = stream.peek_time() {
        arrival_epochs += 1;
        let epoch_end = EPOCH_S * ((t / EPOCH_S).floor() + 1.0);
        let mut n = 0;
        while stream.pop_before(epoch_end).is_some() {
            n += 1;
        }
        busiest = busiest.max(n);
    }

    let telemetry = traced.telemetry();
    let high_water = telemetry
        .gauges
        .iter()
        .find(|g| g.name == "shard_arrival_buffer_high_water")
        .expect("the schema declares the gauge")
        .value;
    assert_eq!(high_water, busiest, "the buffer holds exactly one epoch");
    assert!(
        high_water * arrival_epochs <= 2 * requests as u64,
        "{high_water} buffered arrivals exceed twice the mean of {requests} \
         requests over {arrival_epochs} epochs"
    );
    lint_prometheus(&telemetry.to_prometheus()).expect("the exposition must lint clean");
}
