//! The LUT backends decide every call as the compiled controllers do.
//!
//! A checking controller decides with the LUT-backed cascade and also
//! computes the compiled cascade's score for the same request and station.
//! It runs every built-in scenario at its quick size (every load point and
//! replication, metro included), FACS-P-LUT against FACS-P and FACS-LUT
//! against FACS, and counts the decisions whose accept flag differs from
//! the compiled score's.  There must be none.
//!
//! Run with `--nocapture` to see the fallback rate: the share of decisions
//! the LUT hands to the compiled engine, because the pair of request class
//! and counter state has no line or the tabulated score lies within
//! `LUT_DECISION_BAND` of the threshold.

use facs_suite::facs::{Cascade, Variant, LUT_DECISION_BAND};
use facs_suite::prelude::*;

/// Decides with `lut` and counts where the compiled `exact` disagrees.
struct Checked<V> {
    lut: Cascade<V>,
    exact: Cascade<V>,
    decisions: u64,
    flips: u64,
    fallbacks: u64,
}

impl<V: Variant> Checked<V> {
    fn new() -> Self {
        Self {
            lut: Cascade::paper_default_lut(),
            exact: Cascade::paper_default(),
            decisions: 0,
            flips: 0,
            fallbacks: 0,
        }
    }
}

impl<V: Variant> AdmissionController for Checked<V> {
    fn name(&self) -> &'static str {
        self.lut.name()
    }

    fn decide(&mut self, request: &AdmissionRequest, station: &BaseStation) -> AdmissionDecision {
        let decision = self.lut.decide(request, station);
        let exact = self.exact.decision_value(request, station);
        self.decisions += 1;
        self.flips += u64::from(decision.accept != (exact > PaperParams::ACCEPT_THRESHOLD));
        let cv = self.lut.correction_value(request);
        let cs = self.lut.config().counter_state(request, station);
        let tabulated = self
            .lut
            .lut()
            .expect("the LUT backend is installed")
            .tabulated_value(cv, f64::from(request.bandwidth), cs);
        let served = tabulated
            .is_some_and(|score| (score - PaperParams::ACCEPT_THRESHOLD).abs() > LUT_DECISION_BAND);
        self.fallbacks += u64::from(!served);
        decision
    }
}

/// Run `controller` over every cell of every built-in scenario at its
/// quick size, on the configurations of the scenario's `label` cells.
fn run_every_scenario<V: Variant>(controller: &mut Checked<V>, label: &ControllerSpec) {
    for spec in all_builtins() {
        let spec = spec.quick();
        for (load_index, &load) in spec.load_points.iter().enumerate() {
            for replication in 0..spec.replications {
                let mut sim = Simulator::new(spec.sim_config(label, load_index, replication));
                match spec.load_mode {
                    LoadMode::Batch => sim.run_batch(controller, load),
                    LoadMode::RequestsPerWindow { .. } | LoadMode::TotalRequests => {
                        sim.run_poisson(controller, load)
                    }
                };
            }
        }
    }
}

fn assert_no_flip<V: Variant>(label: &ControllerSpec) {
    let mut checked = Checked::<V>::new();
    run_every_scenario(&mut checked, label);
    let Checked {
        decisions,
        flips,
        fallbacks,
        ..
    } = checked;
    eprintln!(
        "{}: {decisions} decisions, {flips} flips, {fallbacks} fallbacks ({:.3} %)",
        V::NAMES[1],
        100.0 * fallbacks as f64 / decisions as f64
    );
    assert!(
        decisions > 100_000,
        "only {decisions} decisions were checked"
    );
    assert_eq!(
        flips,
        0,
        "{flips} of {decisions} {} decisions differ from the compiled controller's",
        V::NAMES[1]
    );
}

#[test]
fn facs_p_lut_never_flips_a_compiled_facs_p_decision() {
    assert_no_flip::<FacsPConfig>(&ControllerSpec::FacsPLut);
}

#[test]
fn facs_lut_never_flips_a_compiled_facs_decision() {
    assert_no_flip::<FacsConfig>(&ControllerSpec::Facs);
}
