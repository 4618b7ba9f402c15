//! How each cascade variant is wired: `decision_value` must equal, bit for
//! bit, the explicit FLC1 → FLC2 composition of that variant's inputs.
//!
//! * FACS-P feeds FLC1 the requested bandwidth and FLC2 the priority
//!   policy's effective counter state (which reads `is_handoff` and the
//!   RTC/NRTC mix).
//! * FACS feeds FLC1 the user-to-station distance
//!   (`PaperParams::DEFAULT_DISTANCE_M` when the request carries none) and
//!   FLC2 the physical counter state, so it must ignore `is_handoff` and
//!   the RTC/NRTC mix.
//!
//! Both the compiled and the LUT FLC2 backends are checked.

use cellsim::geometry::CellId;
use cellsim::sim::AdmissionRequest;
use cellsim::station::BaseStation;
use cellsim::traffic::ServiceClass;
use facs::{
    FacsController, FacsPController, Flc1, Flc2, Flc2Lut, PaperParams, PriorityPolicy,
    RequestPriority,
};

const SPEEDS: [f64; 6] = [0.0, 4.0, 35.0, 60.0, 110.0, 150.0];
const ANGLES: [f64; 6] = [-180.0, -75.0, -10.0, 0.0, 45.0, 135.0];
const CLASSES: [ServiceClass; 3] = [ServiceClass::Text, ServiceClass::Voice, ServiceClass::Video];

fn request(
    class: ServiceClass,
    speed_kmh: f64,
    angle_deg: f64,
    distance_m: Option<f64>,
    is_handoff: bool,
) -> AdmissionRequest {
    AdmissionRequest {
        id: 1,
        cell: CellId::origin(),
        time: 0.0,
        class,
        bandwidth: class.paper_bandwidth(),
        holding_time: 180.0,
        speed_kmh,
        angle_deg,
        distance_m,
        is_handoff,
    }
}

/// A paper station holding `occupied` BU: real-time voice calls topped up
/// with text when `real_time`, text calls alone otherwise.
fn station(occupied: u32, real_time: bool) -> BaseStation {
    let mut station = BaseStation::paper_default();
    let mut id = 100;
    while real_time && station.occupied() + 5 <= occupied {
        station
            .admit(id, ServiceClass::Voice, 5, 0.0, 600.0, false)
            .unwrap();
        id += 1;
    }
    while station.occupied() < occupied {
        station
            .admit(id, ServiceClass::Text, 1, 0.0, 600.0, false)
            .unwrap();
        id += 1;
    }
    station
}

/// Occupancies from an empty to a full 40-BU station.
fn occupancies() -> impl Iterator<Item = u32> {
    (0..=40).step_by(3).chain([40])
}

/// Every (request, station) point of the grid, for a given distance.
fn grid(distance_m: Option<f64>) -> Vec<(AdmissionRequest, BaseStation)> {
    let mut points = Vec::new();
    for occupied in occupancies() {
        for real_time in [false, true] {
            let station = station(occupied, real_time);
            for &speed in &SPEEDS {
                for &angle in &ANGLES {
                    for class in CLASSES {
                        for handoff in [false, true] {
                            let req = request(class, speed, angle, distance_m, handoff);
                            points.push((req, station.clone()));
                        }
                    }
                }
            }
        }
    }
    points
}

fn assert_bits(got: f64, want: f64, what: &str, req: &AdmissionRequest, station: &BaseStation) {
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{what}: {got} != {want} at {req:?}, occupied {} (RTC {}, NRTC {})",
        station.occupied(),
        station.rtc(),
        station.nrtc()
    );
}

#[test]
fn facs_p_is_flc1_on_the_request_then_flc2_on_the_priority_counter_state() {
    let flc1 = Flc1::paper_default().unwrap();
    let flc2 = Flc2::paper_default().unwrap();
    let lut = Flc2Lut::paper_shared();
    let policy = PriorityPolicy::paper_default();
    let compiled = FacsPController::paper_default();
    let tabulated = FacsPController::paper_default_lut();
    for (req, station) in grid(Some(300.0)) {
        let rq = f64::from(req.bandwidth);
        let cv = flc1.correction_value(req.speed_kmh, req.angle_deg, rq);
        let cs = policy.effective_counter_state_with_request_priority(
            &station,
            req.is_handoff,
            RequestPriority::Normal,
        );
        assert_bits(
            compiled.correction_value(&req),
            cv,
            "facs-p cv",
            &req,
            &station,
        );
        assert_bits(
            compiled.decision_value(&req, &station),
            flc2.decision_value(cv, rq, cs),
            "facs-p",
            &req,
            &station,
        );
        assert_bits(
            tabulated.decision_value(&req, &station),
            lut.decision_value(cv, rq, cs),
            "facs-p-lut",
            &req,
            &station,
        );
    }
}

#[test]
fn facs_is_flc1_on_the_distance_then_flc2_on_the_physical_counter_state() {
    let flc1 = Flc1::distance().unwrap();
    let flc2 = Flc2::paper_default().unwrap();
    let lut = Flc2Lut::paper_shared();
    let compiled = FacsController::paper_default();
    let tabulated = FacsController::paper_default()
        .with_lut_backend(lut.clone())
        .unwrap();
    for distance_m in [Some(0.0), Some(180.0), Some(720.0), Some(1500.0), None] {
        let di = distance_m.unwrap_or(PaperParams::DEFAULT_DISTANCE_M);
        for (req, station) in grid(distance_m) {
            let rq = f64::from(req.bandwidth);
            let cv = flc1.correction_value(req.speed_kmh, req.angle_deg, di);
            let cs = f64::from(station.counter_state());
            assert_bits(
                compiled.correction_value(&req),
                cv,
                "facs cv",
                &req,
                &station,
            );
            assert_bits(
                compiled.decision_value(&req, &station),
                flc2.decision_value(cv, rq, cs),
                "facs",
                &req,
                &station,
            );
            assert_bits(
                tabulated.decision_value(&req, &station),
                lut.decision_value(cv, rq, cs),
                "facs-lut",
                &req,
                &station,
            );
        }
    }
}

#[test]
fn facs_ignores_handoffs_and_the_rtc_mix_where_facs_p_does_not() {
    let facs = FacsController::paper_default();
    let facs_p = FacsPController::paper_default();
    let (mut facs_p_handoff_moved, mut facs_p_mix_moved) = (false, false);
    for occupied in occupancies() {
        let (text, voice) = (station(occupied, false), station(occupied, true));
        for &speed in &SPEEDS {
            for &angle in &ANGLES {
                let new_call = request(ServiceClass::Voice, speed, angle, Some(300.0), false);
                let handoff = request(ServiceClass::Voice, speed, angle, Some(300.0), true);
                let reference = facs.decision_value(&new_call, &text);
                for (req, station) in [(&handoff, &text), (&new_call, &voice), (&handoff, &voice)] {
                    assert_bits(
                        facs.decision_value(req, station),
                        reference,
                        "facs must ignore handoff and mix",
                        req,
                        station,
                    );
                }
                let p = |req, station| facs_p.decision_value(req, station).to_bits();
                facs_p_handoff_moved |= p(&new_call, &text) != p(&handoff, &text);
                facs_p_mix_moved |= p(&new_call, &text) != p(&new_call, &voice);
            }
        }
    }
    // The points above are ones where the wiring matters: FACS-P reads both.
    assert!(
        facs_p_handoff_moved,
        "no grid point separates FACS-P handoffs"
    );
    assert!(facs_p_mix_moved, "no grid point separates FACS-P's RTC mix");
}
