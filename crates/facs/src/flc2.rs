//! FLC2 — the second fuzzy logic controller of the FLC1 → FLC2 cascade.
//!
//! Inputs: the Correction value produced by FLC1 (`Cv` ∈ [0, 1]), the
//! Request type (`Rq`, bandwidth units) and the Counter state (`Cs`, the
//! occupied bandwidth of the base station).  Output: the soft
//! Accept/Reject decision (`A/R` ∈ [-1, 1]) with linguistic terms
//! Reject / Weak Reject / Not-Reject-Not-Accept / Weak Accept / Accept.

use crate::flc1::{cached, Cache, EngineCache, SharedEngine};
use crate::frb2::frb2_rules;
use crate::params::PaperParams;
use crate::priority::PriorityPolicy;
use fuzzy::compile::{CompiledEngine, Scratch, VarId};
use fuzzy::engine::MamdaniEngine;
use fuzzy::Result;
use std::cell::RefCell;
use std::sync::{Arc, Mutex};

/// Points per tabulated line of [`Flc2Lut`]: the correction values
/// `k / 512` for `k = 0..=512`.  The step is a power of two, so a grid
/// value reads its own sample exactly.
pub const LUT_LINE_POINTS: usize = 513;

/// Half-width of the band of scores around
/// [`PaperParams::ACCEPT_THRESHOLD`] that [`Flc2Lut`] hands to the compiled
/// engine.  Half of it, [`Flc2Lut::max_error`], lies above the worst
/// interpolation error found on FLC2's lines at 16 times the sample
/// density (1.69e-3), so a score outside the band has the sign of the
/// exact score.
pub const LUT_DECISION_BAND: f64 = 4.0e-3;

/// The request classes [`Flc2Lut`] tabulates: the paper's text, voice and
/// video bandwidths (BU).
const LUT_CLASSES: [f64; 3] = [1.0, 5.0, 10.0];

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
        let shared = cached(&SHARED, capacity_bu.to_bits(), || {
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

    /// Tabulate this controller into line tables (see [`Flc2Lut`]).  Every
    /// call tabulates from scratch; [`Flc2Lut::shared`] keeps one copy per
    /// capacity.
    pub fn compile_lut(&self) -> Result<Flc2Lut> {
        Ok(Flc2Lut::from_lines(Arc::new(Lines::reachable(self)), self))
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
        let inputs = engine_inputs(
            correction_value,
            request_bu,
            counter_state_bu,
            self.capacity_bu,
        );
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

/// LUT-backed FLC2: one line along the correction value for every pair
/// of request class (text = 1 BU, voice = 5 BU, video = 10 BU) and counter
/// state a station can show FLC2, so the counter state is never
/// interpolated.
///
/// The tabulated counter states are those of the paper's two policies at
/// FLC2's capacity `C`:
///
/// * the integers `0..=C`, the physical counter state FACS sees;
/// * the handoff states `occupied × 0.4` of [`PriorityPolicy::paper_default`]
///   up to `C`, which a station larger than `C` reaches up to
///   `occupied = 2.5 C`;
/// * its new-call states `occupied + 0.3 RTC + 0.1 NRTC` up to `C`, for
///   every split of `occupied ≤ C` into RTC and NRTC;
/// * `C` itself, where FLC2 clamps every larger state.
///
/// Each line holds [`LUT_LINE_POINTS`] scores, tabulated eagerly through
/// [`CompiledEngine::infer_line`], and is found by its counter state's
/// bits.  A lookup interpolates along the correction value.  A score within
/// [`LUT_DECISION_BAND`] of [`PaperParams::ACCEPT_THRESHOLD`], any other
/// counter state (another policy or request priority) and any other
/// request bandwidth are served by the compiled engine, bit-identical to
/// [`Flc2::decision_value`].  So the LUT accepts exactly the calls the
/// compiled engine accepts.
///
/// The lines and the exact fallback engine are stored behind [`Arc`]s, so
/// cloning an `Flc2Lut` (e.g. to share one tabulation across many
/// controllers via [`crate::Cascade::with_lut_backend`]) copies pointers,
/// not megabytes.
#[derive(Debug, Clone)]
pub struct Flc2Lut {
    /// The tabulated lines, shared across clones.
    lines: Arc<Lines>,
    /// Exact compiled fallback: the engine of the [`Flc2`] that was
    /// tabulated, shared with it.
    exact: Arc<SharedEngine>,
    scratch: RefCell<Scratch>,
    capacity_bu: f64,
}

/// The line tables of one capacity.
#[derive(Debug)]
struct Lines {
    /// The tabulated counter states' bits, ascending.  Every state is
    /// non-negative, so bit order is value order.
    states: Box<[u64]>,
    /// Class-major lines: class `c` at state `s` starts at
    /// `(c * states.len() + s) * LUT_LINE_POINTS`.
    samples: Box<[f32]>,
}

impl Lines {
    /// Tabulate `flc2`'s lines at every counter state it can be shown.
    fn reachable(flc2: &Flc2) -> Self {
        Self::tabulate(flc2, reachable_counter_states(flc2.capacity_bu))
    }

    /// Tabulate `flc2`'s lines at `states` (ascending, distinct bits).
    fn tabulate(flc2: &Flc2, states: Vec<f64>) -> Self {
        let compiled = flc2.compiled();
        let mut scratch = compiled.scratch();
        let last = (LUT_LINE_POINTS - 1) as f64;
        let cvs: Vec<f64> = (0..LUT_LINE_POINTS).map(|k| k as f64 / last).collect();
        let mut line = vec![0.0; LUT_LINE_POINTS];
        let mut samples = Vec::with_capacity(LUT_CLASSES.len() * states.len() * LUT_LINE_POINTS);
        // Inputs in declaration order: Cv, Rq, Cs.
        let cv = VarId::from_index(0);
        for rq in LUT_CLASSES {
            for &cs in &states {
                compiled.infer_line(&[0.0, rq, cs], cv, &cvs, &mut line, &mut scratch);
                // Scores lie in [-1, 1], where `f32` rounds by under 6e-8.
                samples.extend(line.iter().map(|v| v.clamp(-1.0, 1.0) as f32));
            }
        }
        Self {
            states: states.iter().map(|s| s.to_bits()).collect(),
            samples: samples.into(),
        }
    }

    /// The line of class `rq` at counter state `cs`, if tabulated.
    fn line(&self, rq: f64, cs: f64) -> Option<&[f32]> {
        let class = LUT_CLASSES.iter().position(|&c| c == rq)?;
        let state = self.states.binary_search(&cs.to_bits()).ok()?;
        let start = (class * self.states.len() + state) * LUT_LINE_POINTS;
        Some(&self.samples[start..start + LUT_LINE_POINTS])
    }
}

/// The counter states FLC2 of `capacity_bu` can be shown by FACS and by
/// FACS-P under the paper's policy, ascending and distinct by bits.
fn reachable_counter_states(capacity_bu: f64) -> Vec<f64> {
    let policy = PriorityPolicy::paper_default();
    let top = capacity_bu as u32;
    let mut states: Vec<f64> = (0..=top).map(f64::from).collect();
    states.push(capacity_bu);
    // A new call's state is at least `occupied`, so larger occupancies
    // show only states that FLC2 clamps to the capacity.
    for occupied in 0..=top {
        for rtc in 0..=occupied {
            states.push(policy.counter_state(rtc, occupied - rtc, u32::MAX, false));
        }
    }
    // A larger station keeps discounting handoffs below the capacity.
    let mut occupied = 0;
    loop {
        let state = policy.counter_state(0, occupied, u32::MAX, true);
        if state > capacity_bu {
            break;
        }
        states.push(state);
        occupied += 1;
    }
    states.retain(|&s| s <= capacity_bu);
    states.sort_by(f64::total_cmp);
    states.dedup_by(|a, b| a.to_bits() == b.to_bits());
    states
}

impl Flc2Lut {
    fn from_lines(lines: Arc<Lines>, flc2: &Flc2) -> Self {
        Self {
            lines,
            exact: Arc::clone(&flc2.shared),
            scratch: flc2.shared.scratch(),
            capacity_bu: flc2.capacity_bu,
        }
    }

    /// The tables of `flc2`'s capacity, as [`Flc2::compile_lut`] builds
    /// them: tabulated once per process and capacity, then handed out as
    /// cheap clones.  This is what lets a sweep build thousands of LUT-backed
    /// controllers without re-tabulating per cell.
    #[must_use]
    pub fn shared(flc2: &Flc2) -> Self {
        static LINES: Cache<Lines> = Mutex::new(Vec::new());
        let lines = cached(&LINES, flc2.capacity_bu.to_bits(), || {
            Ok(Lines::reachable(flc2))
        })
        .expect("tabulation cannot fail");
        Self::from_lines(lines, flc2)
    }

    /// The shared tables of the paper's FLC2 (40 BU capacity); see
    /// [`Flc2Lut::shared`].
    #[must_use]
    pub fn paper_shared() -> Self {
        Self::shared(&Flc2::paper_default().expect("paper parameters are valid"))
    }

    /// The capacity (BU) FLC2's counter-state input is clamped to.
    #[must_use]
    pub fn capacity_bu(&self) -> f64 {
        self.capacity_bu
    }

    /// The interpolation error [`LUT_DECISION_BAND`] is sized for: half the
    /// band.  It is not measured per table.  A test checks every line at
    /// the paper's capacity, and lines at a dense sweep of counter states,
    /// at 16 times the sample density against it.  Decisions do not depend
    /// on it: a score closer to the threshold than the band is exact.
    #[must_use]
    pub fn max_error(&self) -> f64 {
        LUT_DECISION_BAND / 2.0
    }

    /// Memory held by the tables (counter states and samples), in bytes,
    /// shared across clones.
    #[must_use]
    pub fn sample_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.lines.states) + std::mem::size_of_val(&*self.lines.samples)
    }

    /// The tabulated request bandwidths (BU).
    #[must_use]
    pub fn tabulated_classes(&self) -> Vec<f64> {
        LUT_CLASSES.to_vec()
    }

    /// The tabulated counter states (BU), ascending.
    pub fn counter_states(&self) -> impl Iterator<Item = f64> + '_ {
        self.lines.states.iter().map(|&bits| f64::from_bits(bits))
    }

    /// Every line as `(request_bu, counter_state_bu, samples)`, class by
    /// class; sample `k` is the score at correction value
    /// `k / (LUT_LINE_POINTS - 1)`.
    pub fn lines(&self) -> impl Iterator<Item = (f64, f64, &[f32])> + '_ {
        let states = self.lines.states.len();
        self.lines
            .samples
            .chunks_exact(LUT_LINE_POINTS)
            .enumerate()
            .map(move |(i, line)| {
                let cs = f64::from_bits(self.lines.states[i % states]);
                (LUT_CLASSES[i / states], cs, line)
            })
    }

    /// The score interpolated on the line of `(request_bu,
    /// counter_state_bu)`, with the inputs clamped as
    /// [`Flc2::decision_value`] clamps them; `None` when that pair has no
    /// line.
    #[must_use]
    pub fn tabulated_value(
        &self,
        correction_value: f64,
        request_bu: f64,
        counter_state_bu: f64,
    ) -> Option<f64> {
        let [cv, rq, cs] = engine_inputs(
            correction_value,
            request_bu,
            counter_state_bu,
            self.capacity_bu,
        );
        let line = self.lines.line(rq, cs)?;
        let x = cv * (LUT_LINE_POINTS - 1) as f64;
        // `cv` lies in [0, 1], so the cast floors.
        let i = (x as usize).min(LUT_LINE_POINTS - 2);
        let (a, b) = (f64::from(line[i]), f64::from(line[i + 1]));
        Some(a + (x - i as f64) * (b - a))
    }

    /// The soft accept/reject value in `[-1, 1]`: the tabulated score when
    /// there is one and it lies outside [`LUT_DECISION_BAND`] of the
    /// threshold, else the compiled engine's score.
    #[must_use]
    pub fn decision_value(
        &self,
        correction_value: f64,
        request_bu: f64,
        counter_state_bu: f64,
    ) -> f64 {
        if let Some(score) = self.tabulated_value(correction_value, request_bu, counter_state_bu) {
            if (score - PaperParams::ACCEPT_THRESHOLD).abs() > LUT_DECISION_BAND {
                return score;
            }
        }
        // Exact fallback: the same operation sequence as
        // `Flc2::decision_value`, so its bits equal the compiled controller's.
        let inputs = engine_inputs(
            correction_value,
            request_bu,
            counter_state_bu,
            self.capacity_bu,
        );
        let mut scratch = self.scratch.borrow_mut();
        self.exact.compiled.infer_into(&inputs, &mut scratch)[0].clamp(-1.0, 1.0)
    }
}

/// FLC2's inputs `[Cv, Rq, Cs]` as the engine reads them: clamped into
/// their universes, with a non-finite value replaced.
fn engine_inputs(cv: f64, rq: f64, cs: f64, capacity_bu: f64) -> [f64; 3] {
    [
        clamp_or(cv, 0.0, 1.0, 0.0),
        clamp_or(rq, 0.0, PaperParams::RQ_MAX_BU, 1.0),
        clamp_or(cs, 0.0, capacity_bu, capacity_bu),
    ]
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
    use cellsim::station::BaseStation;

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
        let first = Flc2Lut::paper_shared();
        // Every further hand-out shares the cached lines.
        let second = Flc2Lut::paper_shared();
        assert!(Arc::ptr_eq(&first.lines, &second.lines));
        assert_eq!(first.tabulated_classes(), second.tabulated_classes());
        // The cache holds what `compile_lut` builds.
        let fresh = flc2().compile_lut().unwrap();
        assert_eq!(fresh.lines.states, first.lines.states);
        assert_eq!(fresh.lines.samples, first.lines.samples);
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

    /// The worst distance between `lut`'s interpolated lines and the
    /// compiled engine, probed at 16 times the sample density.
    fn worst_line_error(flc2: &Flc2, lut: &Flc2Lut) -> f64 {
        let fine = 16 * (LUT_LINE_POINTS - 1);
        let cvs: Vec<f64> = (0..=fine).map(|k| k as f64 / fine as f64).collect();
        let mut exact = vec![0.0; cvs.len()];
        let mut scratch = flc2.compiled().scratch();
        let mut worst = 0.0f64;
        for (rq, cs, _) in lut.lines() {
            let inputs = [0.0, rq, cs];
            flc2.compiled().infer_line(
                &inputs,
                VarId::from_index(0),
                &cvs,
                &mut exact,
                &mut scratch,
            );
            for (&cv, &e) in cvs.iter().zip(&exact) {
                let approx = lut.tabulated_value(cv, rq, cs).expect("a tabulated line");
                worst = worst.max((approx - e.clamp(-1.0, 1.0)).abs());
            }
        }
        worst
    }

    #[test]
    fn every_paper_line_stays_within_half_the_band() {
        let c = flc2();
        let lut = c.compile_lut().unwrap();
        let worst = worst_line_error(&c, &lut);
        assert!(
            worst <= lut.max_error(),
            "worst line error {worst} exceeds half the band, {}",
            lut.max_error()
        );
    }

    #[test]
    fn lines_at_a_dense_sweep_of_counter_states_stay_within_half_the_band() {
        // The counter-state terms scale with the capacity, so lines between
        // the paper's states stand for the states of other capacities.
        let c = flc2();
        let sweep = (0..400).map(|k| 0.05 + 0.1 * f64::from(k)).collect();
        let lut = Flc2Lut::from_lines(Arc::new(Lines::tabulate(&c, sweep)), &c);
        let worst = worst_line_error(&c, &lut);
        assert!(
            worst <= lut.max_error(),
            "worst line error {worst} exceeds half the band, {}",
            lut.max_error()
        );
    }

    #[test]
    fn every_tabulated_state_hits_its_own_line() {
        let lut = Flc2Lut::paper_shared();
        let states: Vec<f64> = lut.counter_states().collect();
        // FACS's 41 integers, the paper policy's states and the handoff
        // states of larger stations, up to 0.4 x 100 BU.
        for cs in [0.0, 17.0, 40.0, 22.8, 7.2, 0.4 * 99.0] {
            assert!(states.contains(&cs), "{cs} BU is not tabulated");
        }
        assert!(states.windows(2).all(|w| w[0] < w[1]));
        let last = (LUT_LINE_POINTS - 1) as f64;
        for (rq, cs, line) in lut.lines() {
            for (k, &sample) in line.iter().enumerate() {
                let score = lut.tabulated_value(k as f64 / last, rq, cs);
                assert_eq!(score, Some(f64::from(sample)), "Rq={rq} Cs={cs} k={k}");
            }
        }
        assert_eq!(lut.lines().count(), 3 * states.len());
    }

    #[test]
    fn untabulated_inputs_and_band_scores_get_the_compiled_bits() {
        let exact = flc2();
        let lut = Flc2Lut::paper_shared();
        let check = |cv: f64, rq: f64, cs: f64| {
            assert_eq!(
                lut.decision_value(cv, rq, cs).to_bits(),
                exact.decision_value(cv, rq, cs).to_bits(),
                "Cv={cv} Rq={rq} Cs={cs}"
            );
        };
        // An off-grid state, and a 7-BU request at a tabulated state.
        assert_eq!(lut.tabulated_value(0.6, 5.0, 17.05), None);
        check(0.6, 5.0, 17.05);
        assert_eq!(lut.tabulated_value(0.6, 7.0, 17.0), None);
        check(0.6, 7.0, 17.0);
        // A score inside the band: find one on a tabulated line.
        let (cv, rq, cs) = lut
            .lines()
            .find_map(|(rq, cs, line)| {
                let k = line.iter().position(|v| v.abs() < 1e-3)?;
                Some((k as f64 / (LUT_LINE_POINTS - 1) as f64, rq, cs))
            })
            .expect("some line crosses the threshold");
        assert!(lut.tabulated_value(cv, rq, cs).unwrap().abs() <= LUT_DECISION_BAND);
        check(cv, rq, cs);
    }

    #[test]
    fn other_policies_and_request_priorities_get_the_compiled_bits() {
        use crate::priority::RequestPriority;
        use cellsim::geometry::{CellId, Point};
        use cellsim::traffic::ServiceClass;
        let exact = flc2();
        let lut = Flc2Lut::paper_shared();
        // 15 BU of real-time calls: every state below is off the paper's
        // grid.  (A state that lands on it is served by its own line.)
        let mut station = BaseStation::new(CellId::origin(), Point::default(), 40);
        station
            .admit(1, ServiceClass::Video, 10, 0.0, 100.0, false)
            .unwrap();
        station
            .admit(2, ServiceClass::Voice, 5, 0.0, 100.0, false)
            .unwrap();
        let paper = PriorityPolicy::paper_default();
        let other = PriorityPolicy {
            rt_protection_weight: 0.25,
            ..paper
        };
        let mut states = vec![
            other.effective_counter_state(&station, false),
            PriorityPolicy {
                handoff_discount: 0.55,
                ..paper
            }
            .effective_counter_state(&station, true),
        ];
        for priority in [RequestPriority::Low, RequestPriority::High] {
            for handoff in [false, true] {
                states
                    .push(paper.effective_counter_state_with_request_priority(
                        &station, handoff, priority,
                    ));
            }
        }
        for cs in states {
            for rq in [1.0, 5.0, 10.0] {
                assert_eq!(lut.tabulated_value(0.5, rq, cs), None, "Cs={cs}");
                for cv in [0.1, 0.5, 0.9] {
                    assert_eq!(
                        lut.decision_value(cv, rq, cs).to_bits(),
                        exact.decision_value(cv, rq, cs).to_bits(),
                        "Cv={cv} Rq={rq} Cs={cs}"
                    );
                }
            }
        }
    }
}
