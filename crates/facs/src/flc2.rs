//! FLC2 — the second fuzzy logic controller of the FLC1 → FLC2 cascade.
//!
//! Inputs: the Correction value produced by FLC1 (`Cv` ∈ [0, 1]), the
//! Request type (`Rq`, bandwidth units) and the Counter state (`Cs`, the
//! occupied bandwidth of the base station).  Output: the soft
//! Accept/Reject decision (`A/R` ∈ [-1, 1]) with linguistic terms
//! Reject / Weak Reject / Not-Reject-Not-Accept / Weak Accept / Accept.

use crate::flc1::{EngineCache, SharedEngine};
use crate::frb2::frb2_rules;
use crate::params::PaperParams;
use fuzzy::compile::{CompiledEngine, Scratch, VarId};
use fuzzy::engine::MamdaniEngine;
use fuzzy::{Lut2d, Result};
use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock};

/// Default base grid of [`Flc2Lut`]'s refined tabulation: uniform
/// `(Cv, Cs)` nodes per tabulated request class before local refinement.
pub const DEFAULT_LUT_BASE_RESOLUTION: (usize, usize) = (129, 129);

/// Default per-cell error target of [`Flc2Lut`]'s refined tabulation.
/// Chosen with ~2.5x headroom under the `1e-3` decision-value bound the
/// `lut_error_is_bounded` test pins (FRB2's kink bands make uniform grids
/// pay this density everywhere; the refined table pays it only along the
/// bands).
pub const DEFAULT_LUT_TARGET_ERROR: f64 = 4.0e-4;

/// Patch density cap of the refined tabulation (nodes per side per cell).
pub const DEFAULT_LUT_MAX_PATCH_NODES: usize = 129;

/// The admission-decision controller: `(Cv, Rq, Cs) -> A/R`.
///
/// The string-keyed [`MamdaniEngine`] is kept for introspection and as the
/// bit-identical reference implementation; every
/// [`Flc2::decision_value`] call runs on the compiled, allocation-free
/// execute path.  Both engines are built once per process and capacity and
/// shared by every `Flc2` of that capacity; each instance owns only its
/// scratch memory.
#[derive(Debug, Clone)]
pub struct Flc2 {
    shared: Arc<SharedEngine>,
    scratch: RefCell<Scratch>,
    capacity_bu: f64,
}

impl Flc2 {
    /// Build FLC2 with the paper's membership functions (Fig. 6), the
    /// 27-rule FRB2 (Table 2) and the paper's 40-BU capacity.
    pub fn paper_default() -> Result<Self> {
        Self::with_capacity(PaperParams::CAPACITY_BU)
    }

    /// Build FLC2 for a base station with a different capacity; the counter
    /// state terms (Small / Middle / Full) scale with it.
    pub fn with_capacity(capacity_bu: f64) -> Result<Self> {
        static SHARED: EngineCache = Mutex::new(Vec::new());
        let capacity_bu = if capacity_bu > 0.0 {
            capacity_bu
        } else {
            PaperParams::CAPACITY_BU
        };
        let shared = SharedEngine::cached(&SHARED, capacity_bu.to_bits(), || {
            let mut engine = MamdaniEngine::builder()
                .input(PaperParams::correction_value_input()?)
                .input(PaperParams::request_variable()?)
                .input(PaperParams::counter_state_variable(capacity_bu)?)
                .output(PaperParams::accept_reject_output()?)
                .build()?;
            for rule in frb2_rules() {
                engine.add_rule(rule)?;
            }
            SharedEngine::compile(engine, 0.0)
        })?;
        Ok(Self {
            scratch: shared.scratch(),
            shared,
            capacity_bu,
        })
    }

    /// The capacity (BU) the counter-state terms are scaled to.
    #[must_use]
    pub fn capacity_bu(&self) -> f64 {
        self.capacity_bu
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

    /// Pre-tabulate this controller into per-request-class lookup tables
    /// (see [`Flc2Lut`]): a [`DEFAULT_LUT_BASE_RESOLUTION`] uniform grid
    /// refined until every probed cell error is at or below
    /// [`DEFAULT_LUT_TARGET_ERROR`].
    pub fn compile_lut(&self) -> Result<Flc2Lut> {
        Flc2Lut::tabulate_refined(
            self,
            DEFAULT_LUT_BASE_RESOLUTION,
            DEFAULT_LUT_TARGET_ERROR,
            DEFAULT_LUT_MAX_PATCH_NODES,
        )
    }

    /// Compute the soft accept/reject value in `[-1, 1]`.
    ///
    /// * `correction_value` — FLC1's output, clamped to `[0, 1]`.
    /// * `request_bu` — requested bandwidth, clamped to `[0, 10]` BU.
    /// * `counter_state_bu` — occupied bandwidth, clamped to
    ///   `[0, capacity]`.
    ///
    /// Positive values lean toward acceptance, negative toward rejection;
    /// 0 is the "not reject, not accept" midpoint.
    #[must_use]
    pub fn decision_value(
        &self,
        correction_value: f64,
        request_bu: f64,
        counter_state_bu: f64,
    ) -> f64 {
        let inputs = [
            clamp_or(correction_value, 0.0, 1.0, 0.0),
            clamp_or(request_bu, 0.0, PaperParams::RQ_MAX_BU, 1.0),
            clamp_or(counter_state_bu, 0.0, self.capacity_bu, self.capacity_bu),
        ];
        let mut scratch = self.scratch.borrow_mut();
        self.shared.compiled.infer_into(&inputs, &mut scratch)[0].clamp(-1.0, 1.0)
    }

    /// Convenience wrapper: `true` if the decision value exceeds
    /// `threshold` (the paper's soft decision collapsed to a hard one).
    #[must_use]
    pub fn accepts(
        &self,
        correction_value: f64,
        request_bu: f64,
        counter_state_bu: f64,
        threshold: f64,
    ) -> bool {
        self.decision_value(correction_value, request_bu, counter_state_bu) > threshold
    }
}

/// LUT-backed FLC2: one pre-tabulated `(Cv, Cs)` surface per paper request
/// class (text = 1 BU, voice = 5 BU, video = 10 BU).
///
/// The request-type axis of FRB2 is only ever exercised at the three
/// discrete bandwidths the traffic model emits, so fixing `Rq` per class
/// turns the 3-input controller into three 2-input surfaces that
/// [`Lut2d`] can quantise.  Lookups for a tabulated class cost four table
/// reads and a bilinear blend; any other request bandwidth transparently
/// falls back to the compiled engine, so the policy is total either way.
///
/// The approximation error is measured at tabulation time:
/// [`Flc2Lut::max_error`] is the worst [`Lut2d::max_error`] across the
/// class surfaces (`< 1e-3` at the default settings; pinned by a test),
/// probed on a 3x3 lattice per base cell plus every patch sub-cell
/// midpoint.
///
/// The class surfaces and the exact fallback engine are stored behind
/// [`Arc`]s, so cloning an `Flc2Lut` (e.g. to share one tabulation across
/// many controllers via [`crate::Cascade::with_lut_backend`])
/// copies pointers, not megabytes.
#[derive(Debug, Clone)]
pub struct Flc2Lut {
    /// `(request_bu, surface)` pairs for the tabulated classes, shared
    /// across clones.
    luts: Arc<[(f64, Lut2d)]>,
    /// Exact compiled fallback for non-tabulated request bandwidths: the
    /// engine of the [`Flc2`] that was tabulated, shared with it.
    exact: Arc<SharedEngine>,
    scratch: RefCell<Scratch>,
    capacity_bu: f64,
}

impl Flc2Lut {
    /// Tabulate `flc2` for the paper's three request classes on a uniform
    /// base grid with local refinement down to `target_error` (see
    /// [`Lut2d::tabulate_fn_refined`]).
    pub fn tabulate_refined(
        flc2: &Flc2,
        base: (usize, usize),
        target_error: f64,
        max_patch_nodes: usize,
    ) -> Result<Self> {
        let compiled = flc2.compiled();
        let mut scratch = compiled.scratch();
        let mut luts = Vec::with_capacity(3);
        for rq in [1.0, 5.0, 10.0] {
            let lut = Lut2d::tabulate_fn_refined(
                0.0,
                1.0,
                0.0,
                flc2.capacity_bu,
                base,
                target_error,
                max_patch_nodes,
                class_line(compiled, &mut scratch, rq),
            )?;
            luts.push((rq, lut));
        }
        Ok(Self {
            luts: luts.into(),
            exact: Arc::clone(&flc2.shared),
            scratch: RefCell::new(scratch),
            capacity_bu: flc2.capacity_bu,
        })
    }

    /// One shared copy of the paper-default tabulation (40 BU capacity,
    /// default base/target): tabulated once per process, then handed out
    /// as cheap clones.  This is what lets a sweep build thousands of
    /// LUT-backed controllers without re-tabulating per cell.
    #[must_use]
    pub fn paper_shared() -> Self {
        // The cache holds only the Sync parts (surfaces + fallback
        // engine); each handed-out value gets fresh scratch memory.
        type SharedParts = (Arc<[(f64, Lut2d)]>, Arc<SharedEngine>, f64);
        static PAPER: OnceLock<SharedParts> = OnceLock::new();
        let (luts, exact, capacity_bu) = PAPER.get_or_init(|| {
            let lut = Flc2::paper_default()
                .expect("paper parameters are valid")
                .compile_lut()
                .expect("paper parameters tabulate cleanly");
            (lut.luts, lut.exact, lut.capacity_bu)
        });
        Self {
            luts: Arc::clone(luts),
            exact: Arc::clone(exact),
            scratch: exact.scratch(),
            capacity_bu: *capacity_bu,
        }
    }

    /// The capacity (BU) the tabulated counter-state axis spans.
    #[must_use]
    pub fn capacity_bu(&self) -> f64 {
        self.capacity_bu
    }

    /// The worst measured interpolation error over every tabulated class
    /// surface (see the type docs for the measurement basis).
    #[must_use]
    pub fn max_error(&self) -> f64 {
        self.luts
            .iter()
            .map(|(_, lut)| lut.max_error())
            .fold(0.0, f64::max)
    }

    /// Total memory held by the tabulated surfaces, in bytes (shared
    /// across clones).
    #[must_use]
    pub fn sample_bytes(&self) -> usize {
        self.luts.iter().map(|(_, lut)| lut.sample_bytes()).sum()
    }

    /// The tabulated request bandwidths (BU).
    #[must_use]
    pub fn tabulated_classes(&self) -> Vec<f64> {
        self.luts.iter().map(|&(rq, _)| rq).collect()
    }

    /// The tabulated `(request_bu, surface)` pairs, in class order.
    pub fn surfaces(&self) -> impl Iterator<Item = (f64, &Lut2d)> + '_ {
        self.luts.iter().map(|(rq, lut)| (*rq, lut))
    }

    /// The soft accept/reject value in `[-1, 1]`, served from the class
    /// surface when `request_bu` matches a tabulated class and from the
    /// compiled engine otherwise.
    #[must_use]
    pub fn decision_value(
        &self,
        correction_value: f64,
        request_bu: f64,
        counter_state_bu: f64,
    ) -> f64 {
        let rq = clamp_or(request_bu, 0.0, PaperParams::RQ_MAX_BU, 1.0);
        let cv = clamp_or(correction_value, 0.0, 1.0, 0.0);
        let cs = clamp_or(counter_state_bu, 0.0, self.capacity_bu, self.capacity_bu);
        for (tab_rq, lut) in self.luts.iter() {
            if rq == *tab_rq {
                return lut.lookup(cv, cs).clamp(-1.0, 1.0);
            }
        }
        // Exact fallback: the same operation sequence as
        // `Flc2::decision_value`, so untabulated classes stay bit-identical
        // to the compiled controller.
        let mut scratch = self.scratch.borrow_mut();
        self.exact.compiled.infer_into(&[cv, rq, cs], &mut scratch)[0].clamp(-1.0, 1.0)
    }
}

/// The `(Cv, Cs)` line function of request class `rq`: the compiled
/// engine's decision values at `Cv = cv` along the given counter states,
/// clamped to `[-1, 1]` as [`Flc2::decision_value`] clamps them.
fn class_line<'a>(
    compiled: &'a CompiledEngine,
    scratch: &'a mut Scratch,
    rq: f64,
) -> impl FnMut(f64, &[f64], &mut [f64]) + 'a {
    move |cv, counter_states, out| {
        // Inputs in declaration order: Cv, Rq, Cs.
        let cs = VarId::from_index(2);
        compiled.infer_line(&[cv, rq, 0.0], cs, counter_states, out, scratch);
        for v in out {
            *v = v.clamp(-1.0, 1.0);
        }
    }
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

    fn flc2() -> Flc2 {
        Flc2::paper_default().unwrap()
    }

    #[test]
    fn builds_with_27_rules_and_paper_capacity() {
        let c = flc2();
        assert_eq!(c.engine().rules().len(), 27);
        assert_eq!(c.capacity_bu(), 40.0);
        let custom = Flc2::with_capacity(80.0).unwrap();
        assert_eq!(custom.capacity_bu(), 80.0);
        let fallback = Flc2::with_capacity(-5.0).unwrap();
        assert_eq!(fallback.capacity_bu(), 40.0);
    }

    #[test]
    fn output_is_always_in_minus_one_one() {
        let c = flc2();
        for cv in [0.0, 0.25, 0.5, 0.75, 1.0] {
            for rq in [1.0, 5.0, 10.0] {
                for cs in [0.0, 10.0, 20.0, 30.0, 40.0] {
                    let v = c.decision_value(cv, rq, cs);
                    assert!((-1.0..=1.0).contains(&v), "{cv}/{rq}/{cs} -> {v}");
                }
            }
        }
    }

    #[test]
    fn empty_station_accepts_everything() {
        // Every Sa row of Table 2 is A or WA.
        let c = flc2();
        for cv in [0.05, 0.5, 0.95] {
            for rq in [1.0, 5.0, 10.0] {
                let v = c.decision_value(cv, rq, 0.0);
                assert!(v > 0.0, "cv={cv} rq={rq} -> {v}");
            }
        }
    }

    #[test]
    fn full_station_rejects_everything() {
        // Every Fu row of Table 2 is NRNA, WR or R.
        let c = flc2();
        for cv in [0.05, 0.5, 0.95] {
            for rq in [1.0, 5.0, 10.0] {
                let v = c.decision_value(cv, rq, 40.0);
                assert!(v <= 0.0 + 1e-9, "cv={cv} rq={rq} -> {v}");
            }
        }
    }

    #[test]
    fn good_cv_accepts_at_half_load_bad_cv_does_not() {
        let c = flc2();
        // At the "Middle" counter state (3/4 of the capacity), Table 2
        // accepts only Good Cv.
        let good = c.decision_value(0.95, 5.0, 30.0);
        let bad = c.decision_value(0.05, 5.0, 30.0);
        assert!(good > 0.0, "good cv at Md should accept, got {good}");
        assert!(bad <= 1e-9, "bad cv at Md should not accept, got {bad}");
        assert!(good > bad);
    }

    #[test]
    fn decision_is_monotone_in_cv_at_moderate_load() {
        // Mamdani centroid defuzzification is only piecewise smooth, so we
        // allow a small tolerance on the pairwise comparison and require a
        // clear overall increase from the worst to the best Cv.
        let c = flc2();
        let values: Vec<f64> = [0.1, 0.3, 0.5, 0.7, 0.9]
            .iter()
            .map(|&cv| c.decision_value(cv, 5.0, 30.0))
            .collect();
        for w in values.windows(2) {
            assert!(w[1] >= w[0] - 0.02, "not monotone: {values:?}");
        }
        assert!(
            values.last().unwrap() - values.first().unwrap() > 0.3,
            "best Cv should clearly beat worst Cv: {values:?}"
        );
    }

    #[test]
    fn decision_decreases_as_station_fills() {
        let c = flc2();
        let values: Vec<f64> = [0.0, 10.0, 20.0, 30.0, 40.0]
            .iter()
            .map(|&cs| c.decision_value(0.7, 1.0, cs))
            .collect();
        for w in values.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "not decreasing: {values:?}");
        }
        assert!(values[0] > 0.0);
        assert!(*values.last().unwrap() <= 0.0);
    }

    #[test]
    fn video_at_full_load_with_good_cv_is_a_hard_reject() {
        // Rule 26: Go Vi Fu -> R.
        let c = flc2();
        let v = c.decision_value(1.0, 10.0, 40.0);
        assert!(v < -0.4, "expected a strong reject, got {v}");
    }

    #[test]
    fn accepts_threshold_semantics() {
        let c = flc2();
        assert!(c.accepts(0.9, 1.0, 0.0, 0.0));
        assert!(!c.accepts(0.1, 10.0, 40.0, 0.0));
        // A higher threshold is stricter.
        let v = c.decision_value(0.9, 1.0, 15.0);
        assert!(c.accepts(0.9, 1.0, 15.0, v - 0.01));
        assert!(!c.accepts(0.9, 1.0, 15.0, v + 0.01));
    }

    #[test]
    fn non_finite_inputs_do_not_panic() {
        let c = flc2();
        let v = c.decision_value(f64::NAN, f64::INFINITY, f64::NEG_INFINITY);
        assert!((-1.0..=1.0).contains(&v));
    }

    #[test]
    fn paper_shared_lut_reuses_one_tabulation() {
        use std::time::Instant;
        let first = Flc2Lut::paper_shared();
        // Every further hand-out reuses the cached surfaces: identical
        // tables, and no re-tabulation (micro-seconds, not seconds).
        let t = Instant::now();
        let second = Flc2Lut::paper_shared();
        assert!(
            t.elapsed().as_millis() < 100,
            "second paper_shared() must not re-tabulate"
        );
        assert_eq!(first.max_error().to_bits(), second.max_error().to_bits());
        assert_eq!(first.tabulated_classes(), second.tabulated_classes());
        for (cv, rq, cs) in [(0.1, 1.0, 5.0), (0.8, 5.0, 30.0), (0.5, 10.0, 38.0)] {
            assert_eq!(
                first.decision_value(cv, rq, cs).to_bits(),
                second.decision_value(cv, rq, cs).to_bits()
            );
        }
    }

    #[test]
    fn counter_state_scales_with_custom_capacity() {
        let small = Flc2::with_capacity(40.0).unwrap();
        let large = Flc2::with_capacity(400.0).unwrap();
        // 30 BU is "three quarters full" for the small cell but nearly
        // empty for the large one, so the large cell should be more
        // willing to accept.
        let v_small = small.decision_value(0.5, 5.0, 30.0);
        let v_large = large.decision_value(0.5, 5.0, 30.0);
        assert!(v_large > v_small);
    }
}
