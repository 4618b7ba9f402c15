//! Property-based tests for the FACS / FACS-P controllers: invariants that
//! must hold for *every* request and every cell state, not just the paper's
//! operating points.

use cellsim::geometry::{CellId, Point};
use cellsim::sim::AdmissionRequest;
use cellsim::station::BaseStation;
use cellsim::traffic::ServiceClass;
use facs::{FacsController, FacsPController, Flc1, Flc2, PaperParams, PriorityPolicy};
use proptest::prelude::*;

fn class_from_index(i: usize) -> ServiceClass {
    ServiceClass::ALL[i % 3]
}

fn request(
    class: ServiceClass,
    speed: f64,
    angle: f64,
    distance: f64,
    is_handoff: bool,
) -> AdmissionRequest {
    AdmissionRequest {
        id: 1,
        cell: CellId::origin(),
        time: 0.0,
        class,
        bandwidth: class.paper_bandwidth(),
        holding_time: 120.0,
        speed_kmh: speed,
        angle_deg: angle,
        distance_m: Some(distance),
        is_handoff,
    }
}

/// Build a station with `occupied` BU split between one video block and
/// text fillers, so both RTC and NRTC are exercised.
fn station_with(occupied: u32) -> BaseStation {
    let occupied = occupied.min(40);
    let mut s = BaseStation::new(CellId::origin(), Point::default(), 40);
    let mut id = 0u64;
    let mut left = occupied;
    while left >= 10 {
        s.admit(id, ServiceClass::Video, 10, 0.0, 500.0, false)
            .unwrap();
        id += 1;
        left -= 10;
    }
    while left > 0 {
        s.admit(id, ServiceClass::Text, 1, 0.0, 500.0, false)
            .unwrap();
        id += 1;
        left -= 1;
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flc1_output_is_always_a_valid_correction_value(
        speed in -50.0f64..300.0,
        angle in -720.0f64..720.0,
        sr in -5.0f64..20.0,
    ) {
        let flc1 = Flc1::paper_default().unwrap();
        let cv = flc1.correction_value(speed, angle, sr);
        prop_assert!((0.0..=1.0).contains(&cv));
    }

    #[test]
    fn flc2_output_is_always_a_valid_decision(
        cv in -1.0f64..2.0,
        rq in -5.0f64..20.0,
        cs in -10.0f64..80.0,
    ) {
        let flc2 = Flc2::paper_default().unwrap();
        let v = flc2.decision_value(cv, rq, cs);
        prop_assert!((-1.0..=1.0).contains(&v));
    }

    #[test]
    fn flc2_never_prefers_a_fuller_cell(
        cv in 0.0f64..=1.0,
        rq in 0.0f64..=10.0,
        cs in 0.0f64..=35.0,
        extra in 1.0f64..=5.0,
    ) {
        // More occupancy can never make the same request meaningfully more
        // attractive.  The bound is not zero because Table 2 itself is only
        // piecewise monotone in Cs: with a good correction value both
        // (Go, ·, Sa) and (Go, ·, Md) map to Accept, so as occupancy moves
        // from the Small term into the Middle term the Accept clip level
        // *rises* and the centroid can climb with it until the Full terms
        // take over.  An exhaustive grid search over (Cv, Rq, Cs, +5 BU)
        // puts the largest such rise at ~0.163, so 0.18 bounds the paper's
        // own table behaviour while still catching real regressions.
        let flc2 = Flc2::paper_default().unwrap();
        let emptier = flc2.decision_value(cv, rq, cs);
        let fuller = flc2.decision_value(cv, rq, (cs + extra).min(40.0));
        prop_assert!(fuller <= emptier + 0.18, "cv={cv} rq={rq} cs={cs}+{extra}: {fuller} > {emptier}");
    }

    #[test]
    fn decisions_are_bounded_and_consistent_for_both_controllers(
        class_idx in 0usize..3,
        speed in 0.0f64..=120.0,
        angle in -180.0f64..=180.0,
        distance in 0.0f64..=1000.0,
        occupied in 0u32..=40,
        is_handoff in proptest::bool::ANY,
    ) {
        let station = station_with(occupied);
        let req = request(class_from_index(class_idx), speed, angle, distance, is_handoff);

        let facs = FacsController::paper_default();
        let facsp = FacsPController::paper_default();
        for score in [facs.decision_value(&req, &station), facsp.decision_value(&req, &station)] {
            prop_assert!((-1.0..=1.0).contains(&score));
        }
        // The boolean decision must agree with the score/threshold contract.
        let mut facs = facs;
        let mut facsp = facsp;
        let d1 = cellsim::AdmissionController::decide(&mut facs, &req, &station);
        prop_assert_eq!(d1.accept, d1.score > PaperParams::ACCEPT_THRESHOLD);
        let d2 = cellsim::AdmissionController::decide(&mut facsp, &req, &station);
        prop_assert_eq!(d2.accept, d2.score > PaperParams::ACCEPT_THRESHOLD);
    }

    #[test]
    fn facsp_handoff_is_never_scored_below_the_same_new_call(
        class_idx in 0usize..3,
        speed in 0.0f64..=120.0,
        angle in -180.0f64..=180.0,
        occupied in 0u32..=40,
    ) {
        // Priority of on-going connections: for an identical request and
        // cell state, flagging it as a handoff can only help (up to the
        // few-hundredths slack inherent in centroid defuzzification when
        // both counter states land on the same output term).
        let station = station_with(occupied);
        let facsp = FacsPController::paper_default();
        let class = class_from_index(class_idx);
        let new_call = request(class, speed, angle, 400.0, false);
        let handoff = request(class, speed, angle, 400.0, true);
        let s_new = facsp.decision_value(&new_call, &station);
        let s_handoff = facsp.decision_value(&handoff, &station);
        prop_assert!(s_handoff >= s_new - 0.05, "handoff {s_handoff} < new {s_new} at occupied {occupied}");
    }

    #[test]
    fn facsp_is_never_more_permissive_than_its_priority_disabled_variant_for_new_calls(
        class_idx in 0usize..3,
        speed in 0.0f64..=120.0,
        angle in -180.0f64..=180.0,
        occupied in 0u32..=40,
    ) {
        let station = station_with(occupied);
        let class = class_from_index(class_idx);
        let req = request(class, speed, angle, 400.0, false);
        let with_priority = FacsPController::paper_default();
        let without_priority = FacsPController::new(
            facs::FacsPConfig::paper_default().without_priority(),
        ).unwrap();
        let strict = with_priority.decision_value(&req, &station);
        let relaxed = without_priority.decision_value(&req, &station);
        // Same slack as above: within the "accept" plateau the inflated
        // counter state can raise the centroid slightly, but it must never
        // turn a rejected new call into an accepted one.
        prop_assert!(strict <= relaxed + 0.1, "priority made a new call easier: {strict} > {relaxed}");
        if relaxed <= 0.0 {
            prop_assert!(strict <= 0.0, "priority flipped a reject into an accept");
        }
    }

    #[test]
    fn angle_symmetry_holds_for_facsp_decisions(
        class_idx in 0usize..3,
        speed in 0.0f64..=120.0,
        angle in 0.0f64..=180.0,
        occupied in 0u32..=40,
    ) {
        let station = station_with(occupied);
        let class = class_from_index(class_idx);
        let facsp = FacsPController::paper_default();
        let left = facsp.decision_value(&request(class, speed, -angle, 400.0, false), &station);
        let right = facsp.decision_value(&request(class, speed, angle, 400.0, false), &station);
        prop_assert!((left - right).abs() < 1e-9);
    }

    #[test]
    fn effective_counter_state_is_always_within_capacity(
        occupied in 0u32..=40,
        is_handoff in proptest::bool::ANY,
        alpha in 0.0f64..=2.0,
        beta in 0.0f64..=2.0,
        delta in 0.0f64..=1.0,
    ) {
        let station = station_with(occupied);
        let policy = PriorityPolicy {
            rt_protection_weight: alpha,
            nrt_protection_weight: beta,
            handoff_discount: delta,
        }.sanitized();
        let cs = policy.effective_counter_state(&station, is_handoff);
        prop_assert!(cs >= 0.0);
        prop_assert!(cs <= f64::from(station.capacity()) + 1e-9);
        if is_handoff {
            prop_assert!(cs <= f64::from(station.occupied()) + 1e-9);
        } else {
            prop_assert!(cs >= f64::from(station.occupied()) - 1e-9);
        }
    }
}
