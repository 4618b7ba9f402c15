//! Cross-crate integration tests: the fuzzy engine, the simulator, the
//! baselines and the FACS/FACS-P controllers working together through the
//! public facade API.

use facs_suite::prelude::*;

#[test]
fn facsp_full_pipeline_on_paper_workload() {
    let mut controller = FacsPController::paper_default();
    let mut sim = Simulator::new(SimConfig::paper_default().with_seed(101));
    let report = sim.run_batch(&mut controller, 100);

    assert_eq!(report.offered, 100);
    assert!(report.accepted > 0 && report.accepted < 100);
    assert!(report.acceptance_percentage > 0.0 && report.acceptance_percentage < 100.0);
    // Metric bookkeeping is consistent.
    assert_eq!(report.offered, report.accepted + report.metrics.blocked());
    // The physical capacity is never violated, and because every request in
    // a batch run arrives at t = 0 (nothing departs), the occupied bandwidth
    // equals the admitted bandwidth.
    let station = sim.station(&CellId::origin()).unwrap();
    assert!(station.occupied() <= station.capacity());
    assert_eq!(
        u64::from(station.occupied()),
        report.metrics.bandwidth_admitted()
    );
}

#[test]
fn all_controllers_respect_capacity_on_the_same_sequence() {
    let traffic = TrafficConfig {
        mean_interarrival_s: 5.0,
        handoff_fraction: 0.25,
        ..TrafficConfig::paper_default()
    };
    let mut generator = TrafficGenerator::new(traffic, 777);
    let requests = generator.generate_poisson(200);

    let mut controllers: Vec<Box<dyn AdmissionController>> = vec![
        Box::new(FacsPController::paper_default()),
        Box::new(FacsController::paper_default()),
        Box::new(SccAdmission::new(SccConfig::paper_default())),
        Box::new(AlwaysAccept),
        Box::new(CapacityThreshold::default()),
    ];
    for controller in controllers.iter_mut() {
        let mut sim = Simulator::new(SimConfig::paper_default().with_seed(9));
        sim.offer_requests(controller.as_mut(), &requests);
        let station = sim.station(&CellId::origin()).unwrap();
        assert!(
            station.occupied() <= station.capacity(),
            "{} violated capacity",
            controller.name()
        );
        assert_eq!(sim.metrics().offered(), 200);
    }
}

#[test]
fn multicell_simulation_conserves_connections() {
    let mut cfg = SimConfig::paper_default().with_seed(4).with_grid_radius(2);
    cfg.cell_radius_m = 400.0;
    cfg.traffic.mean_interarrival_s = 3.0;
    cfg.traffic.mean_holding_s = 300.0;
    cfg.traffic.min_speed_kmh = 30.0;
    let mut controller = FacsPController::paper_default();
    let mut sim = Simulator::new(cfg);
    let report = sim.run_poisson(&mut controller, 500);

    // Every offered request is either accepted or blocked.
    assert_eq!(report.offered, report.accepted + report.metrics.blocked());
    // Each successful handoff re-admits an existing connection, so the
    // number of *distinct* admitted connections is `accepted` minus the
    // accepted handoffs; every one of them either completed, was dropped,
    // or is still active somewhere in the grid.
    let (_, handoffs_accepted, _) = report.metrics.handoffs();
    let still_active: u64 = sim
        .grid()
        .cells()
        .iter()
        .map(|c| sim.station(c).unwrap().active_connections() as u64)
        .sum();
    assert_eq!(
        report.accepted - handoffs_accepted,
        report.metrics.completed() + report.metrics.dropped() + still_active
    );
    // No station is over capacity.
    for cell in sim.grid().cells() {
        let s = sim.station(cell).unwrap();
        assert!(s.occupied() <= s.capacity());
    }
}

#[test]
fn custom_fuzzy_controller_plugs_into_the_simulator() {
    // Build a tiny custom fuzzy admission controller directly from the
    // `fuzzy` crate to show the substrate is reusable beyond FACS.
    struct TinyFuzzyCac {
        engine: MamdaniEngine,
    }
    impl AdmissionController for TinyFuzzyCac {
        fn name(&self) -> &'static str {
            "tiny-fuzzy"
        }
        fn decide(
            &mut self,
            request: &AdmissionRequest,
            station: &BaseStation,
        ) -> AdmissionDecision {
            let load = f64::from(station.occupied());
            let score = self
                .engine
                .infer(&[load, f64::from(request.bandwidth)])
                .map(|o| o.crisp_or("decision", 0.0))
                .unwrap_or(0.0);
            if score > 0.5 {
                AdmissionDecision::accept(score)
            } else {
                AdmissionDecision::reject(score)
            }
        }
    }

    let load = LinguisticVariable::builder("load", 0.0, 40.0)
        .triangle("low", 0.0, 0.0, 30.0)
        .triangle("high", 20.0, 40.0, 40.0)
        .build()
        .unwrap();
    let size = LinguisticVariable::builder("size", 0.0, 10.0)
        .triangle("small", 0.0, 0.0, 10.0)
        .triangle("large", 0.0, 10.0, 10.0)
        .build()
        .unwrap();
    let decision = LinguisticVariable::builder("decision", 0.0, 1.0)
        .triangle("no", 0.0, 0.0, 0.6)
        .triangle("yes", 0.4, 1.0, 1.0)
        .build()
        .unwrap();
    let mut engine = MamdaniEngine::builder()
        .input(load)
        .input(size)
        .output(decision)
        .build()
        .unwrap();
    for (load, size, decision) in [
        ("low", "small", "yes"),
        ("low", "large", "yes"),
        ("high", "large", "no"),
        ("high", "small", "no"),
    ] {
        engine
            .add_rule(Rule::row(
                &[("load", load), ("size", size)],
                "decision",
                decision,
            ))
            .unwrap();
    }

    let mut controller = TinyFuzzyCac { engine };
    let mut sim = Simulator::new(SimConfig::paper_default().with_seed(55));
    let report = sim.run_batch(&mut controller, 60);
    assert!(report.accepted > 0);
    assert!(report.accepted < 60);
    assert_eq!(report.controller, "tiny-fuzzy");
}

#[test]
fn reports_serialize_to_json() {
    let mut controller = FacsPController::paper_default();
    let mut sim = Simulator::new(SimConfig::paper_default().with_seed(2));
    let report = sim.run_batch(&mut controller, 20);
    let json = serde_json::to_string(&report).unwrap();
    let back: SimReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
}
