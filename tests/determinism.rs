//! Reproducibility guarantees: identical seeds give identical results all
//! the way through the stack, and different seeds actually vary.

use facs_suite::prelude::*;

fn run_once(seed: u64, n: usize) -> SimReport {
    let mut controller = FacsPController::paper_default();
    let mut sim = Simulator::new(SimConfig::paper_default().with_seed(seed));
    sim.run_batch(&mut controller, n)
}

#[test]
fn identical_seeds_identical_reports() {
    let a = run_once(2024, 80);
    let b = run_once(2024, 80);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_differ_somewhere() {
    let reports: Vec<SimReport> = (0..8).map(|s| run_once(s, 80)).collect();
    let first = &reports[0];
    assert!(
        reports.iter().any(|r| r.accepted != first.accepted
            || r.metrics.bandwidth_admitted() != first.metrics.bandwidth_admitted()),
        "eight different seeds should not all produce identical outcomes"
    );
}

#[test]
fn traffic_generation_is_stable_across_runs() {
    let make = || TrafficGenerator::new(TrafficConfig::paper_default(), 555).generate_poisson(300);
    assert_eq!(make(), make());
}

#[test]
fn poisson_multicell_runs_are_reproducible() {
    let run = || {
        let mut cfg = SimConfig::paper_default().with_seed(77).with_grid_radius(1);
        cfg.cell_radius_m = 300.0;
        cfg.traffic.mean_interarrival_s = 2.0;
        let mut controller = FacsController::paper_default();
        let mut sim = Simulator::new(cfg);
        let report = sim.run_poisson(&mut controller, 400);
        (
            report.accepted,
            report.metrics.dropped(),
            report.metrics.handoffs(),
        )
    };
    assert_eq!(run(), run());
}

/// A full multi-cell `run_poisson` — handoffs, utilisation sampling —
/// must reproduce the *entire* report (every counter, every
/// sample) from its seed, not just the headline numbers.
#[test]
fn poisson_multicell_full_reports_are_identical() {
    let run = || {
        let mut cfg = SimConfig::paper_default()
            .with_seed(0xDE7E)
            .with_grid_radius(2)
            .with_cell_radius(300.0)
            .with_utilization_sampling(30.0);
        cfg.traffic.mean_interarrival_s = 2.0;
        cfg.traffic.mean_holding_s = 400.0;
        cfg.traffic.min_speed_kmh = 50.0;
        cfg.traffic.max_speed_kmh = 120.0;
        let mut controller = FacsPController::paper_default();
        let mut sim = Simulator::new(cfg);
        sim.run_poisson(&mut controller, 500)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "full SimReport must be bit-identical");
    let (handoffs_offered, _, _) = a.metrics.handoffs();
    assert!(handoffs_offered > 0, "the scenario must exercise handoffs");
    assert!(!a.metrics.utilization_samples().is_empty());
}

/// The sweep engine's headline guarantee: the aggregated report of a
/// scenario is bit-identical no matter how many worker threads run it.
#[test]
fn sweep_runner_aggregates_identical_at_1_2_4_threads() {
    let spec = builtin("paper-default")
        .expect("paper-default is built in")
        .quick()
        .with_controllers(vec![ControllerSpec::FacsP, ControllerSpec::Scc]);
    let one = SweepRunner::with_threads(1).run(&spec).unwrap();
    let two = SweepRunner::with_threads(2).run(&spec).unwrap();
    let four = SweepRunner::with_threads(4).run(&spec).unwrap();
    assert_eq!(one, two, "1 vs 2 worker threads");
    assert_eq!(two, four, "2 vs 4 worker threads");
    assert!(!one.is_empty());
    // The aggregates really carry data: every point averaged the spec's
    // replication count.
    for curve in &one.curves {
        for point in &curve.points {
            assert_eq!(point.acceptance.n as usize, spec.replications);
        }
    }
}

#[test]
fn fuzzy_inference_is_a_pure_function() {
    let flc1 = Flc1::paper_default().unwrap();
    let flc2 = Flc2::paper_default().unwrap();
    for _ in 0..5 {
        assert_eq!(
            flc1.correction_value(42.0, -30.0, 5.0),
            flc1.correction_value(42.0, -30.0, 5.0)
        );
        assert_eq!(
            flc2.decision_value(0.61, 5.0, 27.0),
            flc2.decision_value(0.61, 5.0, 27.0)
        );
    }
}
