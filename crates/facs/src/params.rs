//! Membership-function parameters of the paper's controllers.
//!
//! The paper defines the membership functions only graphically (Figs. 5 and
//! 6); this module fixes the break-points read off those figures and builds
//! the corresponding [`LinguisticVariable`]s.  Every constant carries a doc
//! comment citing the figure it was read from, so the calibration is
//! auditable and adjustable in one place.

use fuzzy::{LinguisticVariable, Result};

/// All universe bounds and break-points used by FLC1 and FLC2.
///
/// The associated constants are the values read off Figs. 5 and 6; the
/// methods build ready-to-use linguistic variables from them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperParams;

impl PaperParams {
    /// Maximum user speed considered by the paper (km/h), Fig. 5(a).
    pub const SPEED_MAX_KMH: f64 = 120.0;
    /// Speed break-point separating "Slow" from "Middle" (km/h), Fig. 5(a).
    pub const SPEED_SLOW_ZERO: f64 = 60.0;
    /// Peak of the "Middle" speed term (km/h), Fig. 5(a).
    pub const SPEED_MIDDLE_PEAK: f64 = 60.0;
    /// Left foot of the "Middle" speed term (km/h), Fig. 5(a).
    pub const SPEED_MIDDLE_LEFT: f64 = 30.0;
    /// Speed at which "Fast" reaches full membership (km/h), Fig. 5(a).
    pub const SPEED_FAST_FULL: f64 = 120.0;
    /// Speed at which "Fast" membership starts rising (km/h), Fig. 5(a).
    pub const SPEED_FAST_ZERO: f64 = 60.0;

    /// Angle universe bound (degrees), Fig. 5(b).
    pub const ANGLE_MAX_DEG: f64 = 180.0;
    /// Spacing between adjacent directional terms (degrees), Fig. 5(b).
    pub const ANGLE_STEP_DEG: f64 = 45.0;

    /// Service-request universe upper bound (BU), Fig. 5(c).
    pub const SR_MAX_BU: f64 = 10.0;
    /// Peak of the "Medium" service-request term (BU), Fig. 5(c).
    pub const SR_MEDIUM_PEAK: f64 = 5.0;

    /// Number of correction-value terms (Cv1..Cv9), Fig. 5(d).
    pub const CV_TERMS: usize = 9;

    /// Peak of the "Normal" Cv input term of FLC2, Fig. 6(a).
    pub const CV_NORMAL_PEAK: f64 = 0.5;

    /// Request-type universe upper bound (BU), Fig. 6(b).
    pub const RQ_MAX_BU: f64 = 10.0;

    /// Default base-station capacity (BU), Section 4.
    pub const CAPACITY_BU: f64 = 40.0;

    /// Accept/Reject universe bounds, Fig. 6(d).
    pub const AR_MAX: f64 = 1.0;
    /// Peak of the "Weak Accept" / "Weak Reject" terms (±), Fig. 6(d).
    pub const AR_WEAK_PEAK: f64 = 0.3;
    /// Start of the full-accept / full-reject plateaus (±), Fig. 6(d).
    pub const AR_FULL_START: f64 = 0.6;

    /// Cell radius used for the distance variable of the previous-work FACS
    /// variant (metres).  The paper does not restate it; 1000 m matches the
    /// simulator's default cell.
    pub const DISTANCE_MAX_M: f64 = 1000.0;

    /// Distance FACS assumes when a request carries no distance
    /// measurement (metres): mid-cell.
    pub const DEFAULT_DISTANCE_M: f64 = Self::DISTANCE_MAX_M / 2.0;

    /// Crisp acceptance threshold on FLC2's defuzzified A/R value: a
    /// request is admitted when `A/R > ACCEPT_THRESHOLD`.  The paper's soft
    /// decision collapses with a threshold of 0 ("weak accept" or better
    /// admits).
    pub const ACCEPT_THRESHOLD: f64 = 0.0;

    /// FLC1 input: user Speed `Sp` over `[0, 120]` km/h with terms
    /// Slow / Middle / Fast (Fig. 5(a)).
    pub fn speed_variable() -> Result<LinguisticVariable> {
        LinguisticVariable::builder("Sp", 0.0, Self::SPEED_MAX_KMH)
            .triangle("Sl", 0.0, 0.0, Self::SPEED_SLOW_ZERO)
            .triangle(
                "Mi",
                Self::SPEED_MIDDLE_LEFT,
                Self::SPEED_MIDDLE_PEAK,
                Self::SPEED_FAST_FULL,
            )
            .trapezoid(
                "Fa",
                Self::SPEED_FAST_ZERO,
                Self::SPEED_FAST_FULL,
                Self::SPEED_MAX_KMH,
                Self::SPEED_MAX_KMH,
            )
            .build()
    }

    /// FLC1 input: user Angle `An` over `[-180, 180]` degrees with terms
    /// Back1 / Left1 / Left2 / Straight / Right1 / Right2 / Back2
    /// (Fig. 5(b)).  0° means the user is heading straight at the base
    /// station; ±180° means it is heading directly away.
    pub fn angle_variable() -> Result<LinguisticVariable> {
        let s = Self::ANGLE_STEP_DEG;
        LinguisticVariable::builder("An", -Self::ANGLE_MAX_DEG, Self::ANGLE_MAX_DEG)
            // B1: heading away (negative side), full below -135°.
            .trapezoid("B1", -180.0, -180.0, -3.0 * s, -2.0 * s)
            .triangle("L1", -3.0 * s, -2.0 * s, -s)
            .triangle("L2", -2.0 * s, -s, 0.0)
            .triangle("St", -s, 0.0, s)
            .triangle("R1", 0.0, s, 2.0 * s)
            .triangle("R2", s, 2.0 * s, 3.0 * s)
            // B2: heading away (positive side), full above +135°.
            .trapezoid("B2", 2.0 * s, 3.0 * s, 180.0, 180.0)
            .build()
    }

    /// FLC1 input: Service request `Sr` over `[0, 10]` BU with terms
    /// Small / Medium / Big (Fig. 5(c)).
    pub fn service_request_variable() -> Result<LinguisticVariable> {
        LinguisticVariable::builder("Sr", 0.0, Self::SR_MAX_BU)
            .triangle("Sm", 0.0, 0.0, Self::SR_MEDIUM_PEAK)
            .triangle("Me", 0.0, Self::SR_MEDIUM_PEAK, Self::SR_MAX_BU)
            .triangle("Bi", Self::SR_MEDIUM_PEAK, Self::SR_MAX_BU, Self::SR_MAX_BU)
            .build()
    }

    /// FLC1 output: Correction value `Cv` over `[0, 1]` with nine evenly
    /// spaced terms Cv1..Cv9 (Fig. 5(d)).  Cv1 and Cv9 are shoulders, the
    /// rest are triangles 0.1 apart.
    pub fn correction_value_output() -> Result<LinguisticVariable> {
        let mut builder =
            LinguisticVariable::builder("Cv", 0.0, 1.0).trapezoid("Cv1", 0.0, 0.0, 0.1, 0.2);
        for k in 2..=8u32 {
            let peak = f64::from(k) / 10.0;
            builder = builder.triangle(&format!("Cv{k}"), peak - 0.1, peak, peak + 0.1);
        }
        builder.trapezoid("Cv9", 0.8, 0.9, 1.0, 1.0).build()
    }

    /// FLC2 input: Correction value `Cv` over `[0, 1]` with terms
    /// Bad / Normal / Good (Fig. 6(a)).
    pub fn correction_value_input() -> Result<LinguisticVariable> {
        LinguisticVariable::builder("Cv", 0.0, 1.0)
            .triangle("Bd", 0.0, 0.0, Self::CV_NORMAL_PEAK)
            .triangle("No", 0.0, Self::CV_NORMAL_PEAK, 1.0)
            .triangle("Go", Self::CV_NORMAL_PEAK, 1.0, 1.0)
            .build()
    }

    /// FLC2 input: user Request `Rq` over `[0, 10]` BU with terms
    /// Text / Voice / Video (Fig. 6(b)).
    pub fn request_variable() -> Result<LinguisticVariable> {
        LinguisticVariable::builder("Rq", 0.0, Self::RQ_MAX_BU)
            .triangle("Tx", 0.0, 0.0, 5.0)
            .triangle("Vo", 0.0, 5.0, 10.0)
            .triangle("Vi", 5.0, 10.0, 10.0)
            .build()
    }

    /// FLC2 input: Counter state `Cs` over `[0, capacity]` BU with terms
    /// Small / Middle / Full (Fig. 6(c), drawn for the paper's 40-BU cell).
    ///
    /// Fig. 6(c) is drawn qualitatively; the break-points used here
    /// ("Middle" peaking at 3/4 of the capacity, "Full" only near the
    /// physical limit) are the calibration that reproduces the acceptance
    /// levels of the paper's Figs. 7–10 — see `EXPERIMENTS.md` for the
    /// sensitivity discussion.
    pub fn counter_state_variable(capacity_bu: f64) -> Result<LinguisticVariable> {
        let cap = if capacity_bu > 0.0 {
            capacity_bu
        } else {
            Self::CAPACITY_BU
        };
        let half = cap / 2.0;
        let knee = 0.75 * cap;
        let full = 0.9 * cap;
        LinguisticVariable::builder("Cs", 0.0, cap)
            .triangle("Sa", 0.0, 0.0, knee)
            .triangle("Md", half, knee, full)
            .trapezoid("Fu", knee, full, cap, cap)
            .build()
    }

    /// FLC2 output: the soft Accept/Reject decision `A/R` over `[-1, 1]`
    /// with terms Reject / Weak Reject / Not-Reject-Not-Accept /
    /// Weak Accept / Accept (Fig. 6(d)).
    pub fn accept_reject_output() -> Result<LinguisticVariable> {
        let w = Self::AR_WEAK_PEAK;
        let f = Self::AR_FULL_START;
        LinguisticVariable::builder("AR", -Self::AR_MAX, Self::AR_MAX)
            .trapezoid("R", -1.0, -1.0, -f, -w)
            .triangle("WR", -f, -w, 0.0)
            .triangle("NRNA", -w, 0.0, w)
            .triangle("WA", 0.0, w, f)
            .trapezoid("A", w, f, 1.0, 1.0)
            .build()
    }

    /// Distance input of the authors' *previous* FACS system over
    /// `[0, 1000]` m with terms Near / Middle / Far.
    ///
    /// The previous papers ([14, 15] in the reference list) are not part of
    /// the reproduced text, so the break-points are a documented
    /// reconstruction: evenly spaced over the cell radius, mirroring the
    /// shape of the other three-term variables.
    pub fn distance_variable() -> Result<LinguisticVariable> {
        let max = Self::DISTANCE_MAX_M;
        let half = max / 2.0;
        LinguisticVariable::builder("Di", 0.0, max)
            .triangle("Ne", 0.0, 0.0, half)
            .triangle("Md", 0.0, half, max)
            .triangle("Fr", half, max, max)
            .build()
    }

    /// The names of the nine correction-value terms, in order.
    #[must_use]
    pub fn cv_term_names() -> [&'static str; 9] {
        [
            "Cv1", "Cv2", "Cv3", "Cv4", "Cv5", "Cv6", "Cv7", "Cv8", "Cv9",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variables_build() {
        PaperParams::speed_variable().unwrap();
        PaperParams::angle_variable().unwrap();
        PaperParams::service_request_variable().unwrap();
        PaperParams::correction_value_output().unwrap();
        PaperParams::correction_value_input().unwrap();
        PaperParams::request_variable().unwrap();
        PaperParams::counter_state_variable(40.0).unwrap();
        PaperParams::accept_reject_output().unwrap();
        PaperParams::distance_variable().unwrap();
    }

    #[test]
    fn every_input_variable_covers_its_universe() {
        for var in [
            PaperParams::speed_variable().unwrap(),
            PaperParams::angle_variable().unwrap(),
            PaperParams::service_request_variable().unwrap(),
            PaperParams::correction_value_input().unwrap(),
            PaperParams::request_variable().unwrap(),
            PaperParams::counter_state_variable(40.0).unwrap(),
            PaperParams::distance_variable().unwrap(),
        ] {
            assert!(
                var.covers_universe(1e-9, 500),
                "variable `{}` leaves part of its universe uncovered",
                var.name()
            );
        }
    }

    #[test]
    fn output_variables_cover_their_universes() {
        assert!(PaperParams::correction_value_output()
            .unwrap()
            .covers_universe(1e-9, 500));
        assert!(PaperParams::accept_reject_output()
            .unwrap()
            .covers_universe(1e-9, 500));
    }

    #[test]
    fn speed_terms_behave_as_in_fig_5a() {
        let sp = PaperParams::speed_variable().unwrap();
        assert_eq!(sp.best_term(0.0), "Sl");
        assert_eq!(sp.best_term(60.0), "Mi");
        assert_eq!(sp.best_term(119.0), "Fa");
        // 4 km/h is almost fully Slow.
        let d = sp.fuzzify_named(4.0);
        let slow = d.iter().find(|(n, _)| *n == "Sl").unwrap().1;
        assert!(slow > 0.9);
    }

    #[test]
    fn angle_terms_behave_as_in_fig_5b() {
        let an = PaperParams::angle_variable().unwrap();
        assert_eq!(an.term_count(), 7);
        assert_eq!(an.best_term(0.0), "St");
        assert_eq!(an.best_term(45.0), "R1");
        assert_eq!(an.best_term(90.0), "R2");
        assert_eq!(an.best_term(-45.0), "L2");
        assert_eq!(an.best_term(-90.0), "L1");
        assert_eq!(an.best_term(170.0), "B2");
        assert_eq!(an.best_term(-170.0), "B1");
    }

    #[test]
    fn service_request_matches_paper_sizes() {
        let sr = PaperParams::service_request_variable().unwrap();
        // text = 1 BU is mostly Small, voice = 5 BU is Medium, video = 10 BU is Big.
        assert_eq!(sr.best_term(1.0), "Sm");
        assert_eq!(sr.best_term(5.0), "Me");
        assert_eq!(sr.best_term(10.0), "Bi");
    }

    #[test]
    fn cv_output_has_nine_ordered_terms() {
        let cv = PaperParams::correction_value_output().unwrap();
        assert_eq!(cv.term_count(), 9);
        let names = PaperParams::cv_term_names();
        for (i, t) in cv.terms().iter().enumerate() {
            assert_eq!(t.name(), names[i]);
        }
        // Peaks are increasing.
        assert_eq!(cv.best_term(0.05), "Cv1");
        assert_eq!(cv.best_term(0.5), "Cv5");
        assert_eq!(cv.best_term(0.95), "Cv9");
    }

    #[test]
    fn counter_state_scales_with_capacity() {
        let cs40 = PaperParams::counter_state_variable(40.0).unwrap();
        assert_eq!(cs40.best_term(0.0), "Sa");
        assert_eq!(cs40.best_term(30.0), "Md");
        assert_eq!(cs40.best_term(40.0), "Fu");
        // Half load is still dominated by "Small": the cell does not start
        // looking busy until ~3/4 of the capacity is committed.
        assert_eq!(cs40.best_term(20.0), "Sa");
        let cs100 = PaperParams::counter_state_variable(100.0).unwrap();
        assert_eq!(cs100.best_term(75.0), "Md");
        assert_eq!(cs100.best_term(99.0), "Fu");
        // Non-positive capacities fall back to the paper's 40 BU.
        let fallback = PaperParams::counter_state_variable(0.0).unwrap();
        assert_eq!(fallback.max(), 40.0);
    }

    #[test]
    fn accept_reject_terms_are_ordered() {
        let ar = PaperParams::accept_reject_output().unwrap();
        assert_eq!(ar.best_term(-0.9), "R");
        assert_eq!(ar.best_term(-0.3), "WR");
        assert_eq!(ar.best_term(0.0), "NRNA");
        assert_eq!(ar.best_term(0.3), "WA");
        assert_eq!(ar.best_term(0.9), "A");
    }

    #[test]
    fn distance_terms_cover_the_cell() {
        let di = PaperParams::distance_variable().unwrap();
        assert_eq!(di.best_term(0.0), "Ne");
        assert_eq!(di.best_term(500.0), "Md");
        assert_eq!(di.best_term(1000.0), "Fr");
    }
}
