//! The paper controllers share their compiled engines process-wide: every
//! instance built from the same parameters points at one engine, while
//! each keeps its own scratch memory.

use cellsim::geometry::CellId;
use cellsim::sim::{AdmissionController, AdmissionDecision, AdmissionRequest};
use cellsim::station::BaseStation;
use cellsim::traffic::ServiceClass;
use facs::{FacsConfig, FacsController, FacsPController, Flc1, Flc2, Flc2Lut, PaperParams};

#[test]
fn paper_controllers_share_one_engine() {
    let (a, b) = (
        Flc1::paper_default().unwrap(),
        Flc1::paper_default().unwrap(),
    );
    assert!(std::ptr::eq(a.compiled(), b.compiled()));
    assert!(std::ptr::eq(a.engine(), b.engine()));
    let (a, b) = (Flc1::distance().unwrap(), Flc1::distance().unwrap());
    assert!(std::ptr::eq(a.compiled(), b.compiled()));
    let (a, b) = (
        Flc2::paper_default().unwrap(),
        Flc2::with_capacity(40.0).unwrap(),
    );
    assert!(std::ptr::eq(a.compiled(), b.compiled()));
    // FLC1 and its distance variant have different rule bases.
    assert!(!std::ptr::eq(
        Flc1::paper_default().unwrap().compiled(),
        Flc1::distance().unwrap().compiled()
    ));
}

#[test]
fn lut_controllers_of_one_capacity_share_one_table() {
    // The first sample of the first line: equal addresses mean one table.
    let table = |lut: Option<&Flc2Lut>| lut.unwrap().lines().next().unwrap().2.as_ptr();
    let facs_p = FacsPController::paper_default().with_lut();
    let facs = FacsController::paper_default().with_lut();
    let shared = FacsPController::paper_default_lut();
    assert_eq!(table(facs_p.lut()), table(facs.lut()));
    assert_eq!(table(facs_p.lut()), table(shared.lut()));
    assert_eq!(table(facs_p.lut()), table(Some(&Flc2Lut::paper_shared())));
    let small = || {
        FacsController::new(FacsConfig { capacity_bu: 20.0 })
            .unwrap()
            .with_lut()
    };
    assert_eq!(table(small().lut()), table(small().lut()));
    assert_ne!(table(small().lut()), table(facs.lut()));
    // `compile_lut` tabulates afresh on every call.
    let fresh = Flc2::paper_default().unwrap().compile_lut().unwrap();
    assert_ne!(table(Some(&fresh)), table(facs.lut()));
}

#[test]
fn other_capacities_get_their_own_counter_state_terms() {
    let counter_state_max = |flc2: &Flc2| flc2.engine().inputs()[2].max();
    let paper = Flc2::paper_default().unwrap();
    let large = Flc2::with_capacity(80.0).unwrap();
    assert_eq!(counter_state_max(&paper), PaperParams::CAPACITY_BU);
    assert_eq!(counter_state_max(&large), 80.0);
    assert!(!std::ptr::eq(paper.compiled(), large.compiled()));
    // Same capacity again: shared, and still scaled to 80.
    let again = Flc2::with_capacity(80.0).unwrap();
    assert!(std::ptr::eq(large.compiled(), again.compiled()));
    // The paper capacity is unaffected by the 80-BU engine.
    assert_eq!(
        counter_state_max(&Flc2::paper_default().unwrap()),
        PaperParams::CAPACITY_BU
    );
    // 30 BU is three quarters of the paper cell but under half of 80 BU.
    assert!(large.decision_value(0.5, 5.0, 30.0) > paper.decision_value(0.5, 5.0, 30.0));
    // And each decides exactly as a freshly built, unshared engine would.
    for (flc2, capacity) in [(&paper, 40.0), (&large, 80.0)] {
        let reference = flc2
            .engine()
            .infer(&[0.5, 5.0, 30.0f64.min(capacity)])
            .unwrap()
            .crisp_or("AR", 0.0)
            .clamp(-1.0, 1.0);
        assert_eq!(
            flc2.decision_value(0.5, 5.0, 30.0).to_bits(),
            reference.to_bits()
        );
    }
}

fn requests(seed: u64) -> Vec<AdmissionRequest> {
    (0..400u64)
        .map(|i| {
            let k = i.wrapping_mul(2_654_435_761).wrapping_add(seed);
            let class =
                [ServiceClass::Text, ServiceClass::Voice, ServiceClass::Video][(k % 3) as usize];
            AdmissionRequest {
                id: i,
                cell: CellId::origin(),
                time: 0.0,
                class,
                bandwidth: class.paper_bandwidth(),
                holding_time: 180.0,
                speed_kmh: (k % 1_210) as f64 / 10.0,
                angle_deg: (k % 3_601) as f64 / 10.0 - 180.0,
                distance_m: Some((k % 1_001) as f64),
                is_handoff: k % 4 == 0,
            }
        })
        .collect()
}

/// Decide every request against stations at a range of loads.
fn decide_all(
    controller: &mut dyn AdmissionController,
    requests: &[AdmissionRequest],
) -> Vec<AdmissionDecision> {
    let mut station = BaseStation::paper_default();
    let mut out = Vec::with_capacity(requests.len());
    for (i, r) in requests.iter().enumerate() {
        if i % 40 == 0 && station.occupied() + 5 <= 40 {
            station
                .admit(10_000 + i as u64, ServiceClass::Voice, 5, 0.0, 600.0, false)
                .unwrap();
        }
        out.push(controller.decide(r, &station));
    }
    out
}

#[test]
fn controllers_on_two_threads_decide_like_sequential_ones() {
    let (first, second) = (requests(1), requests(7));
    let sequential = |build: fn() -> Box<dyn AdmissionController>| {
        let mut c = build();
        (
            decide_all(c.as_mut(), &first),
            decide_all(c.as_mut(), &second),
        )
    };
    let builders: [fn() -> Box<dyn AdmissionController>; 2] = [
        || Box::new(FacsPController::paper_default()),
        || Box::new(FacsController::paper_default()),
    ];
    for build in builders {
        let expected = sequential(build);
        // Two instances sharing one engine, deciding at the same time,
        // each interleaving its inferences with the other's.
        let concurrent = std::thread::scope(|s| {
            let a = s.spawn(|| decide_all(build().as_mut(), &first));
            let b = s.spawn(|| decide_all(build().as_mut(), &second));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(concurrent, expected);
    }
}
