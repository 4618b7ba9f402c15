//! FLC1 — the first fuzzy logic controller of the FLC1 → FLC2 cascade.
//!
//! Inputs: user Speed (`Sp`, km/h), user Angle (`An`, degrees relative to
//! the direction toward the serving base station) and a third input that
//! is the one difference between the two variants of [`Flc1`]:
//!
//! * FACS-P ([`Flc1::paper_default`]): the Service request (`Sr`,
//!   bandwidth units);
//! * FACS ([`Flc1::distance`]): the user-to-station Distance (`Di`, m).
//!
//! Output: the Correction value (`Cv` ∈ [0, 1]), a fuzzy estimate of how
//! worthwhile it is to commit resources to the user (it encodes how
//! predictable the user's trajectory is and how well the third input fits
//! that prediction).

use crate::frb1::{frb1_lookup, frb1_rules};
use crate::params::PaperParams;
use fuzzy::compile::{CompiledEngine, Scratch};
use fuzzy::engine::MamdaniEngine;
use fuzzy::rule::Rule;
use fuzzy::{LinguisticVariable, Result};
use std::cell::RefCell;
use std::sync::{Arc, Mutex, PoisonError};

/// An FLC's interpreted engine and its compiled twin, immutable once built
/// and shared process-wide by every controller built from the same
/// parameters.  Only the [`Scratch`] memory is per instance.
#[derive(Debug)]
pub(crate) struct SharedEngine {
    pub(crate) engine: MamdaniEngine,
    pub(crate) compiled: CompiledEngine,
}

/// A process-wide cache of shared engines, keyed by a parameter of the
/// controller (FLC2's capacity bits; FLC1's third input).
pub(crate) type EngineCache = Mutex<Vec<(u64, Arc<SharedEngine>)>>;

impl SharedEngine {
    /// Compile `engine` and pin the crisp fallback reported when no rule
    /// fires (the same value the string-keyed wrappers passed to
    /// `crisp_or`).
    pub(crate) fn compile(engine: MamdaniEngine, default: f64) -> Result<Self> {
        let mut compiled = engine.compile()?;
        compiled.set_empty_default(fuzzy::VarId::from_index(0), default);
        Ok(Self { engine, compiled })
    }

    /// The engine cached under `key`, built by `build` on first use.
    pub(crate) fn cached(
        cache: &EngineCache,
        key: u64,
        build: impl FnOnce() -> Result<Self>,
    ) -> Result<Arc<Self>> {
        // A panic while the lock is held can only come from `build`, before
        // the push, so a poisoned cache still holds only complete entries.
        let mut entries = cache.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, shared)) = entries.iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(shared));
        }
        let shared = Arc::new(build()?);
        entries.push((key, Arc::clone(&shared)));
        Ok(shared)
    }

    /// A fresh scratch for one controller instance.
    pub(crate) fn scratch(&self) -> RefCell<Scratch> {
        RefCell::new(self.compiled.scratch())
    }
}

/// FLC1: `(Sp, An, x) -> Cv`, where the third input `x` is the service
/// request (`Sr`, BU) in FACS-P and the user-to-station distance (`Di`, m)
/// in the previous-work FACS.
///
/// The string-keyed [`MamdaniEngine`] is kept for introspection and as the
/// bit-identical reference implementation; every
/// [`Flc1::correction_value`] call runs on the compiled, allocation-free
/// execute path.  Both engines are built once per process and third input
/// and shared by every `Flc1` of that input; each instance owns only its
/// scratch memory.
#[derive(Debug, Clone)]
pub struct Flc1 {
    shared: Arc<SharedEngine>,
    scratch: RefCell<Scratch>,
    /// The third input's upper clamp, and what a non-finite value reads as.
    third: (f64, f64),
}

impl Flc1 {
    /// The proposed system's FLC1, `(Sp, An, Sr) -> Cv`: the paper's
    /// membership functions (Fig. 5) and the 63-rule FRB1 (Table 1).
    pub fn paper_default() -> Result<Self> {
        let clamp = (PaperParams::SR_MAX_BU, 1.0);
        Self::build(0, PaperParams::service_request_variable, frb1_rules, clamp)
    }

    /// The previous-work FLC1 of the FACS comparison controller,
    /// `(Sp, An, Di) -> Cv`.
    ///
    /// The previous papers' rule table is not included in the reproduced
    /// text, so the rules are a documented reconstruction: each `(Sp, An)`
    /// pair keeps the structure of Table 1, with the distance terms mapped
    /// onto Table 1's service-request columns — `Near` behaves like `Me`
    /// (most favourable), `Middle` like `Bi`, and `Far` like `Sm` (least
    /// favourable) — reflecting that nearby users are the safest resource
    /// commitment.
    pub fn distance() -> Result<Self> {
        let clamp = (PaperParams::DISTANCE_MAX_M, 500.0);
        Self::build(1, PaperParams::distance_variable, distance_frb_rules, clamp)
    }

    /// The FLC1 whose third input is `third()`, with its engines built
    /// once per process and cached under `key`.
    fn build(
        key: u64,
        third: fn() -> Result<LinguisticVariable>,
        rules: fn() -> Vec<Rule>,
        clamp: (f64, f64),
    ) -> Result<Self> {
        static SHARED: EngineCache = Mutex::new(Vec::new());
        let shared = SharedEngine::cached(&SHARED, key, || {
            let mut engine = MamdaniEngine::builder()
                .input(PaperParams::speed_variable()?)
                .input(PaperParams::angle_variable()?)
                .input(third()?)
                .output(PaperParams::correction_value_output()?)
                .build()?;
            for rule in rules() {
                engine.add_rule(rule)?;
            }
            SharedEngine::compile(engine, 0.5)
        })?;
        Ok(Self {
            scratch: shared.scratch(),
            shared,
            third: clamp,
        })
    }

    /// The underlying Mamdani engine: the interpreted reference of the
    /// compiled path.
    #[must_use]
    pub fn engine(&self) -> &MamdaniEngine {
        &self.shared.engine
    }

    /// The compiled execute-path engine.
    #[must_use]
    pub fn compiled(&self) -> &CompiledEngine {
        &self.shared.compiled
    }

    /// Compute the correction value for a request.
    ///
    /// `third` is the service request (BU) for [`Flc1::paper_default`] and
    /// the distance (m) for [`Flc1::distance`].  Inputs are clamped into
    /// the paper's universes (speed to `[0, 120]` km/h, angle to
    /// `[-180, 180]`°, service request to `[0, 10]` BU, distance to
    /// `[0, 1000]` m).  The result is always in `[0, 1]`.
    #[must_use]
    pub fn correction_value(&self, speed_kmh: f64, angle_deg: f64, third: f64) -> f64 {
        let inputs = [
            clamp_or(speed_kmh, 0.0, PaperParams::SPEED_MAX_KMH, 0.0),
            clamp_or(
                angle_deg,
                -PaperParams::ANGLE_MAX_DEG,
                PaperParams::ANGLE_MAX_DEG,
                0.0,
            ),
            clamp_or(third, 0.0, self.third.0, self.third.1),
        ];
        let mut scratch = self.scratch.borrow_mut();
        self.shared.compiled.infer_into(&inputs, &mut scratch)[0].clamp(0.0, 1.0)
    }
}

/// The reconstructed 63-rule table of the distance-based FLC1:
/// `Near -> Table 1's Me column`, `Middle -> Bi`, `Far -> Sm`.
#[must_use]
pub fn distance_frb_rules() -> Vec<Rule> {
    let mut rules = Vec::with_capacity(63);
    let mapping = [("Ne", "Me"), ("Md", "Bi"), ("Fr", "Sm")];
    let mut index = 0usize;
    for sp in ["Sl", "Mi", "Fa"] {
        for an in ["B1", "L1", "L2", "St", "R1", "R2", "B2"] {
            for (di, sr_column) in mapping {
                let cv = frb1_lookup(sp, an, sr_column).expect("Table 1 covers the full grid");
                let rule = Rule::row(&[("Sp", sp), ("An", an), ("Di", di)], "Cv", cv)
                    .with_label(format!("FRB1-D rule {index}"));
                rules.push(rule);
                index += 1;
            }
        }
    }
    rules
}

fn clamp_or(value: f64, lo: f64, hi: f64, fallback: f64) -> f64 {
    if value.is_finite() {
        value.clamp(lo, hi)
    } else {
        fallback
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flc1() -> Flc1 {
        Flc1::paper_default().unwrap()
    }

    #[test]
    fn builds_with_63_rules() {
        let c = flc1();
        assert_eq!(c.engine().rules().len(), 63);
        let d = Flc1::distance().unwrap();
        assert_eq!(d.engine().rules().len(), 63);
    }

    #[test]
    fn output_is_always_in_unit_interval() {
        let c = flc1();
        for speed in [0.0, 4.0, 30.0, 60.0, 90.0, 120.0] {
            for angle in [-180.0, -90.0, -45.0, 0.0, 30.0, 60.0, 90.0, 150.0, 180.0] {
                for sr in [1.0, 5.0, 10.0] {
                    let cv = c.correction_value(speed, angle, sr);
                    assert!((0.0..=1.0).contains(&cv), "cv={cv} at {speed}/{angle}/{sr}");
                }
            }
        }
    }

    #[test]
    fn straight_fast_users_get_the_best_correction_value() {
        let c = flc1();
        let best = c.correction_value(120.0, 0.0, 5.0);
        assert!(best > 0.8, "Fa/St/Me should be near Cv9, got {best}");
        let worst = c.correction_value(120.0, 180.0, 10.0);
        assert!(worst < 0.25, "Fa/B2/Bi should be near Cv1, got {worst}");
        assert!(best > worst);
    }

    #[test]
    fn correction_value_increases_with_speed_when_heading_straight() {
        // Paper conclusion: "with the increase of the user speed, the
        // percentage of the number of the accepted calls is increased".
        let c = flc1();
        let cv_slow = c.correction_value(4.0, 0.0, 1.0);
        let cv_mid = c.correction_value(60.0, 0.0, 1.0);
        let cv_fast = c.correction_value(115.0, 0.0, 1.0);
        assert!(cv_slow < cv_mid, "{cv_slow} vs {cv_mid}");
        assert!(cv_mid <= cv_fast + 1e-9, "{cv_mid} vs {cv_fast}");
    }

    #[test]
    fn correction_value_decreases_with_angle() {
        // Paper conclusion: acceptance decreases as the angle grows.
        let c = flc1();
        let angles = [0.0, 30.0, 50.0, 60.0, 90.0, 135.0, 180.0];
        let cvs: Vec<f64> = angles
            .iter()
            .map(|&a| c.correction_value(60.0, a, 5.0))
            .collect();
        for w in cvs.windows(2) {
            assert!(
                w[1] <= w[0] + 0.05,
                "Cv should not increase with angle: {cvs:?}"
            );
        }
        assert!(cvs[0] > cvs[4], "angle 0 should beat angle 90: {cvs:?}");
    }

    #[test]
    fn symmetric_angles_give_symmetric_correction_values() {
        let c = flc1();
        for a in [15.0, 45.0, 90.0, 135.0] {
            let left = c.correction_value(50.0, -a, 5.0);
            let right = c.correction_value(50.0, a, 5.0);
            assert!((left - right).abs() < 1e-9, "asymmetry at ±{a}");
        }
    }

    #[test]
    fn out_of_range_inputs_are_clamped() {
        let c = flc1();
        let cv = c.correction_value(500.0, 720.0, 50.0);
        assert!((0.0..=1.0).contains(&cv));
        let nan = c.correction_value(f64::NAN, f64::INFINITY, f64::NAN);
        assert!((0.0..=1.0).contains(&nan));
    }

    #[test]
    fn distance_variant_prefers_nearby_users() {
        let d = Flc1::distance().unwrap();
        let near = d.correction_value(60.0, 0.0, 50.0);
        let far = d.correction_value(60.0, 0.0, 950.0);
        assert!(near >= far, "near {near} should be >= far {far}");
        // Off-straight headings make the difference pronounced.
        let near_side = d.correction_value(60.0, 45.0, 50.0);
        let far_side = d.correction_value(60.0, 45.0, 950.0);
        assert!(near_side > far_side);
    }

    #[test]
    fn distance_rules_cover_the_grid() {
        let rules = distance_frb_rules();
        assert_eq!(rules.len(), 63);
        let inputs = [
            PaperParams::speed_variable().unwrap(),
            PaperParams::angle_variable().unwrap(),
            PaperParams::distance_variable().unwrap(),
        ];
        let rb = fuzzy::RuleBase::from_rules(rules);
        assert!(rb.uncovered_combinations(&inputs).is_empty());
    }

    #[test]
    fn text_requests_from_sideways_users_get_low_cv() {
        // Table 1 gives small requests away from Straight very low Cv.
        let c = flc1();
        let cv = c.correction_value(30.0, 90.0, 1.0);
        assert!(cv < 0.35, "got {cv}");
    }
}
