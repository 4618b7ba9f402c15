//! Quickstart: admit a handful of multimedia connections with FACS-P.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! This walks through the layers of the library:
//! 1. ask FLC1 for the correction value of a single user,
//! 2. ask FLC2 for the soft accept/reject decision,
//! 3. run the full controller against the paper's 40-BU base station.
//!
//! Every FLC call below runs on the compiled, allocation-free execute
//! path (`MamdaniEngine::compile` → `CompiledEngine::infer_into`), which
//! is bit-identical to the string-keyed reference engine.

use facs_suite::prelude::*;

fn main() {
    // --- 1. FLC1: how promising is this user? -----------------------------
    let flc1 = Flc1::paper_default().expect("paper parameters are valid");
    let speed_kmh = 72.0; // a car on an urban road
    let angle_deg = 10.0; // heading almost straight at the base station
    let service_bu = 5.0; // a voice call (5 bandwidth units)
    let cv = flc1.correction_value(speed_kmh, angle_deg, service_bu);
    println!("FLC1 correction value for a {speed_kmh} km/h user at {angle_deg}°: {cv:.3}");

    // --- 2. FLC2: should we admit it given the cell state? ----------------
    let flc2 = Flc2::paper_default().expect("paper parameters are valid");
    for occupied in [0.0, 20.0, 30.0, 38.0] {
        let decision = flc2.decision_value(cv, service_bu, occupied);
        println!(
            "  occupied {occupied:>4.0} BU -> A/R = {decision:+.3} ({})",
            if decision > 0.0 { "admit" } else { "refuse" }
        );
    }

    // --- 3. Full controller against the paper's base station --------------
    let mut controller = FacsPController::paper_default();
    let mut sim = Simulator::new(SimConfig::paper_default());
    let report = sim.run_batch(&mut controller, 40);
    println!(
        "\nFACS-P admitted {} of {} requesting connections ({:.1}%)",
        report.accepted, report.offered, report.acceptance_percentage
    );
    println!(
        "blocking probability {:.3}, station utilisation {} / {} BU",
        report.blocking_probability,
        sim.station(&CellId::origin()).unwrap().occupied(),
        sim.station(&CellId::origin()).unwrap().capacity()
    );

    // Per-class breakdown, as the paper's 70/20/10 mix would suggest.
    for class in ServiceClass::ALL {
        let m = report.metrics.class(class);
        println!(
            "  {class:<5} offered {:>3}, accepted {:>3} ({:.0}%)",
            m.offered,
            m.accepted,
            100.0 * m.acceptance_ratio()
        );
    }
}
