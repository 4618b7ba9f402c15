//! The compile/execute split: a lowered, allocation-free inference engine.
//!
//! [`MamdaniEngine::infer`] is the readable reference implementation: it
//! resolves variables and terms by string name and returns a freshly
//! allocated [`crate::InferenceOutput`] per call.  That is the right shape
//! for building and debugging a controller, and exactly the wrong shape for
//! an admission hot path that runs millions of inferences per sweep.
//!
//! [`MamdaniEngine::compile`] lowers a validated engine into a
//! [`CompiledEngine`]:
//!
//! * names are interned into dense [`VarId`] / [`TermId`] handles resolved
//!   once at compile time — the execute path never touches a string;
//! * every rule is a row of an AND table — one clause per input, one
//!   consequent — so the rule base becomes a *rule grid*: one cell per
//!   input-term tuple, holding that tuple's rule and its output term, or
//!   nothing.  The execute path walks only the tuples of the non-zero
//!   input terms, carrying the running `min` of their degrees down the
//!   walk, and fires the rule in each cell it reaches with it.  The
//!   paper's triangles and trapezoids give a crisp input at most two
//!   non-zero terms per variable, so its 63-rule FRB1 fires at most 8
//!   rules per call instead of scanning 63;
//! * every consequent term's membership function is pre-sampled on the
//!   engine's output grid, so aggregation is `min`/`max` over arrays with
//!   no membership evaluation;
//! * each pre-sampled term also records its support window, the sample
//!   range where it is non-zero.  Aggregation, the empty-set check and the
//!   centroid run only over the hull of the fired terms' windows (a paper
//!   `Cv` term spans about 40 of the 201 samples, an `A/R` term 60 to 70);
//!   the skipped samples are zeros, so the result keeps its bits;
//! * all working memory lives in a caller-owned [`Scratch`], so the
//!   steady-state path [`CompiledEngine::infer_into`] performs **zero heap
//!   allocations** (asserted by a counting-allocator test);
//! * [`CompiledEngine::infer_line`] evaluates a *line* — one input free,
//!   the others fixed — and `infer_into` is a line of one point on the
//!   same code path.  The fixed inputs are fuzzified once per line; a
//!   point whose per-term heights equal the previous point's, bit for
//!   bit, repeats its outputs without aggregating or defuzzifying; and
//!   the centroids of up to four other points are summed side by side.  Tabulating the paper's FLC2 ([`crate::Lut2d`], three refined
//!   class surfaces) takes 1,809,557 engine points in 72,810 lines, and
//!   608,462 of them (34 %) skip aggregation and the centroid.
//!
//! The compiled path is *bit-identical* to the interpreted one: for the
//! same inputs, `infer_into` produces exactly the `f64` bits that
//! `MamdaniEngine::infer` + [`crate::defuzz::centroid`] produce.  This is
//! what lets the FACS controllers switch to the compiled path without
//! moving a single simulation result.
//!
//! The rule grid keeps those bits.  A rule whose tuple is not walked has a
//! zero-degree clause, so its AND fold is `+0.0` — the value an unreached
//! rule is given.  A reached rule's AND fold is the `min` over one
//! non-zero degree per input; the walk's running `min` is over the same
//! degrees, and `min` of the same non-zero values gives the same bits in
//! any order.  The per-term maximum that collects the fired heights is
//! order-independent too (heights are finite and positive), so visiting
//! rules in tuple order instead of rule-base order changes no bit.
//!
//! The line evaluator keeps them as well.  Aggregation and the centroid
//! read nothing but the term heights, so equal heights give the previous
//! point's bits; the memo never outlives one call, so a scratch handed
//! to another engine of the same shape cannot return a stale result.  A
//! lane sums its own set in the order `infer_into` does, over the hull of
//! all lanes' windows: the extra samples are `+0.0`, which leave both
//! sums unchanged for the reason the windowed centroid may skip them.
//!
//! # Quick example
//!
//! ```
//! use fuzzy::prelude::*;
//!
//! let temperature = LinguisticVariable::builder("temperature", 0.0, 40.0)
//!     .triangle("Cold", 0.0, 0.0, 20.0)
//!     .triangle("Hot", 20.0, 40.0, 40.0)
//!     .build()
//!     .unwrap();
//! let fan = LinguisticVariable::builder("fan", 0.0, 100.0)
//!     .triangle("Slow", 0.0, 0.0, 50.0)
//!     .triangle("Fast", 50.0, 100.0, 100.0)
//!     .build()
//!     .unwrap();
//! let mut engine = MamdaniEngine::builder()
//!     .input(temperature)
//!     .output(fan)
//!     .build()
//!     .unwrap();
//! engine.add_rule(Rule::row(&[("temperature", "Hot")], "fan", "Fast")).unwrap();
//! engine.add_rule(Rule::row(&[("temperature", "Cold")], "fan", "Slow")).unwrap();
//!
//! // Compile once, then run the allocation-free hot path.
//! let compiled = engine.compile().unwrap();
//! let mut scratch = compiled.scratch();
//! let crisp = compiled.infer_into(&[35.0], &mut scratch);
//! assert!(crisp[0] > 60.0);
//!
//! // Bit-identical to the interpreted reference path.
//! let reference = engine.infer(&[35.0]).unwrap().crisp("fan").unwrap();
//! assert_eq!(crisp[0].to_bits(), reference.to_bits());
//! ```

use crate::engine::MamdaniEngine;
use crate::error::{FuzzyError, Result};
use crate::membership::MembershipFunction;
use crate::rule::Clause;
use crate::variable::LinguisticVariable;

/// Interned handle to a variable of a [`CompiledEngine`].
///
/// For inputs the id is the position of the crisp value in the slice passed
/// to [`CompiledEngine::infer_into`]; for outputs it is the position of the
/// crisp result in the returned slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(u16);

impl VarId {
    /// The dense index this handle stands for.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// Handle for the variable at declaration position `index`.
    ///
    /// # Panics
    /// Panics when `index` exceeds `u16::MAX` (an engine can never intern
    /// that many variables).
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        Self(u16::try_from(index).expect("variable index fits in u16"))
    }
}

/// Interned handle to one term of one variable of a [`CompiledEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TermId {
    var: u16,
    term: u16,
}

impl TermId {
    /// The variable this term belongs to.
    #[must_use]
    pub fn var(self) -> VarId {
        VarId(self.var)
    }

    /// The term's position within its variable's term set.
    #[must_use]
    pub fn term_index(self) -> usize {
        usize::from(self.term)
    }
}

/// Reusable working memory for [`CompiledEngine::infer_into`].
///
/// Create one with [`CompiledEngine::scratch`] and reuse it across calls;
/// after construction the execute path never allocates.  A `Scratch` is
/// tied to the shape of the engine that created it (buffer sizes are
/// checked on every call).
#[derive(Debug, Clone, PartialEq)]
pub struct Scratch {
    /// Per-rule firing strength, in rule-base order.
    strengths: Vec<f64>,
    /// Per input, a run of its non-zero terms as pre-multiplied rule-grid
    /// offsets (`term * stride`) with their degrees, ended by
    /// [`END_OF_RUN`].  Input `v`'s run starts at its first term slot plus
    /// `v`: one slot per term and one for the end marker.
    active: Vec<(u32, f64)>,
    /// Maximum firing strength per output term, then the previous point's
    /// within one line (never read across calls).
    term_strengths: Vec<f64>,
    /// Aggregated output sets, one `resolution`-sized window per output
    /// and lane: lane `l`'s window of output `o` is window `l * outputs +
    /// o`.  A fresh scratch has one lane; the first
    /// [`CompiledEngine::infer_line`] call widens it to [`LANES`].
    aggregated: Vec<f64>,
    /// Per window of `aggregated`, the `[lo, hi)` sample range outside
    /// which it is known to be all zero.  Only this range is cleared
    /// before the window is aggregated again.
    dirty: Vec<(usize, usize)>,
    /// The lane holding the most recent inference's aggregated sets.
    last_lane: usize,
    /// Crisp result per output variable and lane, laid out like `dirty`;
    /// lane 0 ends up holding the most recent inference's.
    crisp: Vec<f64>,
    /// Output variables.
    outputs: usize,
    /// Samples per aggregated output window (copied from the engine so the
    /// accessors below cannot be fed a stale resolution).
    resolution: usize,
}

impl Scratch {
    /// Per-rule firing strengths of the most recent inference, in rule-base
    /// order — the diagnostic counterpart of
    /// [`crate::InferenceOutput::firing_strengths`].
    #[must_use]
    pub fn firing_strengths(&self) -> &[f64] {
        &self.strengths
    }

    /// The aggregated (sampled) output set of output `out` from the most
    /// recent inference.
    #[must_use]
    pub fn aggregated(&self, out: VarId) -> &[f64] {
        let window = self.last_lane * self.outputs + out.index();
        &self.aggregated[window * self.resolution..(window + 1) * self.resolution]
    }
}

/// A lowered Mamdani engine: the execute half of the compile/execute split.
///
/// Build one with [`MamdaniEngine::compile`]; see the [module docs](self)
/// for the design and a usage example.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledEngine {
    // --- inputs -----------------------------------------------------------
    input_names: Vec<String>,
    input_bounds: Vec<(f64, f64)>,
    /// `inputs + 1` offsets into `mfs`.
    input_term_offsets: Vec<u32>,
    input_term_names: Vec<String>,
    /// Every input term's membership function, flattened.
    mfs: Vec<MembershipFunction>,
    // --- rules ------------------------------------------------------------
    /// Rules in the rule base.
    rule_count: usize,
    /// Per input, the place value of its term index in a cell number: a
    /// tuple's cell is `sum(term[v] * strides[v])`, last input fastest.
    strides: Vec<u32>,
    /// The rule grid: per cell, its rule and that rule's flat output term,
    /// or [`EMPTY_CELL`].
    cells: Vec<Cell>,
    // --- outputs ----------------------------------------------------------
    output_names: Vec<String>,
    output_bounds: Vec<(f64, f64)>,
    /// `outputs + 1` offsets into the flat output-term index space.
    output_term_offsets: Vec<u32>,
    output_term_names: Vec<String>,
    /// Pre-sampled consequent membership functions: one `resolution`-sized
    /// window per flat output term.
    term_samples: Vec<f64>,
    /// Per flat output term, the `[lo, hi)` sample range outside which its
    /// pre-sampled membership is zero (`(0, 0)` for an all-zero term).
    term_support: Vec<(usize, usize)>,
    /// Pre-computed sample grids: one `resolution`-sized window per output.
    xs: Vec<f64>,
    /// Crisp value reported when no rule fired for an output (defaults to
    /// the universe midpoint, the same value the interpreted centroid
    /// degenerates to).
    empty_defaults: Vec<f64>,
    // --- configuration ----------------------------------------------------
    resolution: usize,
}

impl CompiledEngine {
    /// Lower `engine` into its compiled form.
    ///
    /// Fails when the engine has no rules, when its rule table has more
    /// than 65,536 cells (the product of the input term counts) or more
    /// than 16 inputs, or when a rule is not a row of the table (rules added through
    /// [`MamdaniEngine::add_rule`] always are; this guards deserialized
    /// engines).
    pub fn compile(engine: &MamdaniEngine) -> Result<Self> {
        if engine.rules().is_empty() {
            return Err(FuzzyError::EmptyEngine { missing: "rules" });
        }
        let resolution = engine.resolution();
        let inputs = engine.inputs();
        let outputs = engine.outputs();

        let mut input_term_offsets = Vec::with_capacity(inputs.len() + 1);
        let mut input_term_names = Vec::new();
        let mut mfs = Vec::new();
        input_term_offsets.push(0u32);
        for v in inputs {
            for t in v.terms() {
                input_term_names.push(t.name().to_string());
                mfs.push(t.membership_function().clone());
            }
            input_term_offsets.push(as_u32(mfs.len()));
        }

        let mut output_term_offsets = Vec::with_capacity(outputs.len() + 1);
        let mut output_term_names = Vec::new();
        let mut term_samples = Vec::new();
        let mut term_support = Vec::new();
        let mut xs = Vec::with_capacity(outputs.len() * resolution);
        let mut empty_defaults = Vec::with_capacity(outputs.len());
        output_term_offsets.push(0u32);
        let mut flat_terms = 0usize;
        for v in outputs {
            // The exact grid FuzzySet::x_at produces for this universe.
            let (min, max) = (v.min(), v.max());
            let grid_start = xs.len();
            for i in 0..resolution {
                xs.push(min + (max - min) * (i as f64) / ((resolution - 1) as f64));
            }
            for t in v.terms() {
                output_term_names.push(t.name().to_string());
                let mf = t.membership_function();
                let start = term_samples.len();
                for &x in &xs[grid_start..grid_start + resolution] {
                    term_samples.push(mf.membership(x));
                }
                term_support.push(support_of(&term_samples[start..]));
            }
            flat_terms += v.term_count();
            output_term_offsets.push(as_u32(flat_terms));
            empty_defaults.push(0.5 * (min + max));
        }

        let mut strides = vec![0usize; inputs.len()];
        let mut cell_count = 1usize;
        for (v, var) in inputs.iter().enumerate().rev() {
            strides[v] = cell_count;
            cell_count = cell_count.saturating_mul(var.term_count());
        }
        if cell_count > MAX_GRID_CELLS || inputs.len() > MAX_GRID_INPUTS {
            return Err(FuzzyError::TableTooLarge {
                cells: cell_count,
                inputs: inputs.len(),
            });
        }
        let term = |var: &LinguisticVariable, clause: &Clause| {
            var.term_index(&clause.term)
                .expect("a validated rule names known terms")
        };
        let mut cells = vec![EMPTY_CELL; cell_count];
        for (r, rule) in engine.rules().rules().iter().enumerate() {
            rule.validate(inputs, outputs)?;
            let cell: usize = inputs
                .iter()
                .zip(rule.antecedents())
                .zip(&strides)
                .map(|((var, clause), stride)| term(var, clause) * stride)
                .sum();
            if cells[cell].rule != EMPTY_CELL.rule {
                return Err(FuzzyError::InvalidRule {
                    rule: rule.to_string(),
                    reason: "its input terms already have a rule".into(),
                });
            }
            let c = rule.consequent();
            let out = outputs
                .iter()
                .position(|o| o.name() == c.variable)
                .expect("a validated rule names a known output");
            cells[cell] = Cell {
                rule: as_u32(r),
                flat_term: output_term_offsets[out] + as_u32(term(&outputs[out], c)),
            };
        }

        Ok(Self {
            input_names: inputs.iter().map(|v| v.name().to_string()).collect(),
            input_bounds: inputs.iter().map(|v| (v.min(), v.max())).collect(),
            input_term_offsets,
            input_term_names,
            mfs,
            rule_count: engine.rules().len(),
            strides: strides.into_iter().map(as_u32).collect(),
            cells,
            output_names: outputs.iter().map(|v| v.name().to_string()).collect(),
            output_bounds: outputs.iter().map(|v| (v.min(), v.max())).collect(),
            output_term_offsets,
            output_term_names,
            term_samples,
            term_support,
            xs,
            empty_defaults,
            resolution,
        })
    }

    /// Number of declared input variables (= required input arity).
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.input_bounds.len()
    }

    /// Number of declared output variables (= length of the crisp result).
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.output_bounds.len()
    }

    /// Number of compiled rules.
    #[must_use]
    pub fn rule_count(&self) -> usize {
        self.rule_count
    }

    /// The engine's output sampling resolution.
    #[must_use]
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// Universe bounds of input `id`.
    #[must_use]
    pub fn input_bounds(&self, id: VarId) -> (f64, f64) {
        self.input_bounds[id.index()]
    }

    /// Universe bounds of output `id`.
    #[must_use]
    pub fn output_bounds(&self, id: VarId) -> (f64, f64) {
        self.output_bounds[id.index()]
    }

    /// Resolve an input variable name to its interned handle.
    #[must_use]
    pub fn input_id(&self, name: &str) -> Option<VarId> {
        self.input_names
            .iter()
            .position(|n| n == name)
            .map(|i| VarId(i as u16))
    }

    /// Resolve an output variable name to its interned handle.
    #[must_use]
    pub fn output_id(&self, name: &str) -> Option<VarId> {
        self.output_names
            .iter()
            .position(|n| n == name)
            .map(|i| VarId(i as u16))
    }

    /// Resolve an input term name to its interned handle.
    #[must_use]
    pub fn input_term_id(&self, var: VarId, name: &str) -> Option<TermId> {
        let lo = self.input_term_offsets[var.index()] as usize;
        let hi = self.input_term_offsets[var.index() + 1] as usize;
        self.input_term_names[lo..hi]
            .iter()
            .position(|n| n == name)
            .map(|t| TermId {
                var: var.0,
                term: t as u16,
            })
    }

    /// Override the crisp value reported for output `id` when no rule fires
    /// (default: the universe midpoint, matching what the interpreted
    /// centroid degenerates to on an empty set).
    pub fn set_empty_default(&mut self, id: VarId, value: f64) {
        self.empty_defaults[id.index()] = value;
    }

    /// Allocate a [`Scratch`] sized for this engine.
    #[must_use]
    pub fn scratch(&self) -> Scratch {
        Scratch {
            strengths: vec![0.0; self.rule_count],
            active: vec![(END_OF_RUN, 0.0); self.mfs.len() + self.input_bounds.len()],
            term_strengths: vec![0.0; 2 * self.output_term_names.len()],
            aggregated: vec![0.0; self.output_bounds.len() * self.resolution],
            dirty: vec![(0, 0); self.output_bounds.len()],
            last_lane: 0,
            crisp: vec![0.0; self.output_bounds.len()],
            outputs: self.output_bounds.len(),
            resolution: self.resolution,
        }
    }

    /// Run one inference into caller-owned scratch memory and return the
    /// crisp outputs (one per output variable, declaration order).
    ///
    /// This is the steady-state hot path: after [`CompiledEngine::scratch`]
    /// has been allocated, **no heap allocation happens here**, and for any
    /// inputs inside the declared universes the results are bit-identical
    /// to [`MamdaniEngine::infer`] followed by the centroid.  It is a line
    /// of one point (see [`CompiledEngine::infer_line`]).
    ///
    /// Out-of-universe inputs are clamped (as [`LinguisticVariable::fuzzify`]
    /// does); a NaN input yields zero membership everywhere, so the affected
    /// outputs fall back to their empty defaults instead of erroring.
    ///
    /// # Panics
    /// Panics when `inputs` does not match the declared arity or `scratch`
    /// was created for a different engine shape.
    pub fn infer_into<'s>(&self, inputs: &[f64], scratch: &'s mut Scratch) -> &'s [f64] {
        self.check_call(inputs, scratch);
        self.run_line(inputs, 0, &inputs[..1], scratch, |_, _| {});
        &scratch.crisp[..self.output_bounds.len()]
    }

    /// Run inference at every point of a line: input `free` takes each
    /// value of `ys` in turn while every other input keeps its value in
    /// `inputs` (the value at `free` is ignored).  Point `k`'s crisp
    /// outputs land in `out[k * outputs..(k + 1) * outputs]`.
    ///
    /// Every point gets the bits [`CompiledEngine::infer_into`] gives it,
    /// for less work: the fixed inputs are fuzzified once per line, and a
    /// point whose per-term heights equal the previous point's, bit for
    /// bit, repeats that point's crisp values instead of aggregating and
    /// defuzzifying again (the memo never outlives the call).  The centroids
    /// of up to four points are summed side by side, each in its own
    /// order.  After a non-empty line `scratch` holds the last point's
    /// firing strengths and aggregated sets.  The first line a scratch
    /// serves widens it to four aggregation windows per output; after
    /// that no heap allocation happens here.
    ///
    /// # Panics
    /// Panics like [`CompiledEngine::infer_into`], and when `free` is not
    /// an input or `out.len() != ys.len() * self.output_count()`.
    pub fn infer_line(
        &self,
        inputs: &[f64],
        free: VarId,
        ys: &[f64],
        out: &mut [f64],
        scratch: &mut Scratch,
    ) {
        self.check_call(inputs, scratch);
        let n = self.output_bounds.len();
        assert!(
            free.index() < inputs.len(),
            "free input {} out of range",
            free.index()
        );
        assert_eq!(
            out.len(),
            ys.len() * n,
            "a line of {} points needs {} output slots",
            ys.len(),
            ys.len() * n
        );
        if scratch.dirty.len() < LANES * n {
            scratch.aggregated.resize(LANES * n * self.resolution, 0.0);
            scratch.dirty.resize(LANES * n, (0, 0));
            scratch.crisp.resize(LANES * n, 0.0);
        }
        self.run_line(inputs, free.index(), ys, scratch, |k, crisp| {
            out[k * n..(k + 1) * n].copy_from_slice(crisp);
        });
    }

    fn check_call(&self, inputs: &[f64], scratch: &Scratch) {
        assert_eq!(
            inputs.len(),
            self.input_bounds.len(),
            "compiled engine expects {} inputs, got {}",
            self.input_bounds.len(),
            inputs.len()
        );
        assert!(
            scratch.strengths.len() == self.rule_count
                && scratch.active.len() == self.mfs.len() + self.input_bounds.len()
                && scratch.term_strengths.len() == 2 * self.output_term_names.len()
                && scratch.outputs == self.output_bounds.len()
                && [1, LANES]
                    .map(|lanes| lanes * self.output_bounds.len())
                    .contains(&scratch.dirty.len())
                && scratch.crisp.len() == scratch.dirty.len()
                && scratch.aggregated.len() == scratch.dirty.len() * self.resolution
                && scratch.resolution == self.resolution,
            "scratch was created for a different engine shape"
        );
    }

    /// The execute path of [`CompiledEngine::infer_into`] and
    /// [`CompiledEngine::infer_line`]: fuzzify every input but `free`, then
    /// per point of `ys` fuzzify `free` and fire the reached rules.  A
    /// point whose term heights equal the previous point's repeats its
    /// outputs; any other takes the next lane, where its outputs are
    /// aggregated, and the lanes' centroids are summed together once every
    /// lane is taken or the line ends.  `emit(k, crisp)` receives point
    /// `k`'s outputs, in point order.
    fn run_line(
        &self,
        inputs: &[f64],
        free: usize,
        ys: &[f64],
        scratch: &mut Scratch,
        mut emit: impl FnMut(usize, &[f64]),
    ) {
        for (i, &raw) in inputs.iter().enumerate() {
            if i != free {
                self.fuzzify(i, raw, scratch);
            }
        }
        let terms = self.output_term_names.len();
        let lane_count = if scratch.dirty.len() == self.output_bounds.len() {
            1
        } else {
            LANES
        };
        // Points awaiting their centroids: `taken` lanes, the first
        // holding point `first`, each followed by `repeats[l]` points with
        // the same heights.
        let mut taken = 0;
        let mut first = 0;
        let mut repeats = [0usize; LANES];
        for (k, &y) in ys.iter().enumerate() {
            self.fuzzify(free, y, scratch);
            // Max aggregation commutes with clipping, so instead of one
            // array pass per fired *rule* we take the max strength per
            // consequent *term* and do one array pass per fired term —
            // exact (max and min are monotone), and typically 2–4x fewer
            // passes for the paper's 63-rule FRB1.  Only the rules the
            // non-zero terms reach are fired; the rest keep the `+0.0`
            // their AND fold would return.
            let (heights, prev) = scratch.term_strengths.split_at_mut(terms);
            prev.copy_from_slice(heights);
            heights.fill(0.0);
            scratch.strengths.fill(0.0);
            self.fire_grid(0, 0, 1.0, scratch);
            // Aggregation and the centroid are functions of the term
            // heights alone, so equal heights give equal outputs.  (Past
            // the first point a lane is always taken.)
            let (heights, prev) = scratch.term_strengths.split_at(terms);
            if k > 0 && same_bits(heights, prev) {
                repeats[taken - 1] += 1;
                continue;
            }
            if taken == lane_count {
                self.flush(taken, first, &repeats, scratch, &mut emit);
                taken = 0;
                repeats = [0; LANES];
            }
            if taken == 0 {
                first = k;
            }
            for out in 0..self.output_bounds.len() {
                self.aggregate_max(out, taken, scratch);
            }
            taken += 1;
        }
        if taken > 0 {
            self.flush(taken, first, &repeats, scratch, &mut emit);
        }
    }

    /// Defuzzify every output of the first `taken` lanes, the centroids of
    /// several lanes summed side by side, and emit the awaiting points
    /// from point `first` on: each lane's point, then its repeats.
    fn flush(
        &self,
        taken: usize,
        first: usize,
        repeats: &[usize; LANES],
        scratch: &mut Scratch,
        emit: &mut impl FnMut(usize, &[f64]),
    ) {
        let (outs, n) = (self.output_bounds.len(), self.resolution);
        for out in 0..outs {
            let xs = &self.xs[out * n..(out + 1) * n];
            let (min, max) = self.output_bounds[out];
            // The lanes with a non-empty set, and the hull of their hulls.
            let mut live = [0usize; LANES];
            let mut count = 0;
            let (mut lo, mut hi) = (n, 0);
            for lane in 0..taken {
                let w = lane * outs + out;
                let (l, h) = scratch.dirty[w];
                if scratch.aggregated[w * n..(w + 1) * n][l..h]
                    .iter()
                    .all(|&d| d == 0.0)
                {
                    scratch.crisp[w] = self.empty_defaults[out];
                    continue;
                }
                live[count] = lane;
                count += 1;
                lo = lo.min(l);
                hi = hi.max(h);
            }
            let window = |lane: usize| {
                let w = lane * outs + out;
                &scratch.aggregated[w * n..(w + 1) * n]
            };
            match count {
                0 => {}
                1 => {
                    let crisp = centroid_window(window(live[0]), xs, lo, hi, min, max);
                    scratch.crisp[live[0] * outs + out] = crisp;
                }
                _ => {
                    // Unused slots repeat the first live lane; their sums
                    // are dropped.
                    let sets = std::array::from_fn(|i| window(live[if i < count { i } else { 0 }]));
                    let crisp = centroid_lanes(sets, xs, lo, hi, min, max);
                    for (&lane, c) in live[..count].iter().zip(crisp) {
                        scratch.crisp[lane * outs + out] = c;
                    }
                }
            }
        }
        let mut k = first;
        for (lane, &repeat) in repeats[..taken].iter().enumerate() {
            let crisp = &scratch.crisp[lane * outs..(lane + 1) * outs];
            for _ in 0..=repeat {
                emit(k, crisp);
                k += 1;
            }
        }
        let last = taken - 1;
        scratch.last_lane = last;
        scratch.crisp.copy_within(last * outs..(last + 1) * outs, 0);
    }

    /// Fuzzify input `i` at `raw` (clamped into its universe, exactly as
    /// LinguisticVariable::fuzzify does), noting its non-zero terms and
    /// their degrees as rule-grid offsets.
    #[inline]
    fn fuzzify(&self, i: usize, raw: f64, scratch: &mut Scratch) {
        let (lo, hi) = self.input_bounds[i];
        let x = raw.clamp(lo, hi);
        let start = self.input_term_offsets[i] as usize;
        let end = self.input_term_offsets[i + 1] as usize;
        let stride = self.strides[i];
        let mut active = start + i;
        for t in start..end {
            let mu = self.mfs[t].membership(x);
            // Branch-free compaction (which terms are non-zero varies
            // call to call): always write, advance only on non-zero.
            // `active <= t + i`, so the write stays in this input's run.
            scratch.active[active] = (as_u32(t - start) * stride, mu);
            active += usize::from(mu != 0.0);
        }
        scratch.active[active] = (END_OF_RUN, 0.0);
    }

    /// Fire the rule of every cell whose tuple has only non-zero input
    /// terms: for each non-zero term of input `v`, add its offset to
    /// `cell`, fold its degree into the running minimum `strength` and
    /// walk the remaining inputs (call with `v = 0`, `cell = 0`,
    /// `strength = 1.0`).  A fired rule records its strength and raises
    /// its output term's height in `scratch.term_strengths`.
    ///
    /// A leaf's `strength` is the minimum over one non-zero degree per
    /// input, which is the AND fold of the rule there: `min` over the same
    /// non-zero degrees gives the same bits in any order.  It lies in
    /// `(0, 1]`, so it is the clipping height unchanged.
    fn fire_grid(&self, v: usize, cell: usize, strength: f64, scratch: &mut Scratch) {
        let mut at = self.input_term_offsets[v] as usize + v;
        loop {
            let (offset, degree) = scratch.active[at];
            if offset == END_OF_RUN {
                return;
            }
            let cell = cell + offset as usize;
            let strength = strength.min(degree);
            if v + 1 < self.input_bounds.len() {
                self.fire_grid(v + 1, cell, strength, scratch);
            } else {
                let Cell { rule, flat_term } = self.cells[cell];
                if rule != EMPTY_CELL.rule {
                    scratch.strengths[rule as usize] = strength;
                    let height = &mut scratch.term_strengths[flat_term as usize];
                    *height = height.max(strength);
                }
            }
            at += 1;
        }
    }

    /// Max-aggregate the fired terms of output `out` (heights already in
    /// `scratch.term_strengths`) into lane `lane`, recording the `[lo, hi)`
    /// hull of their supports, outside which the aggregated set is zero.
    ///
    /// Each term only touches its own support: beyond it every sample is
    /// zero, and `max(a, 0)` leaves a non-negative `a` unchanged.
    fn aggregate_max(&self, out: usize, lane: usize, scratch: &mut Scratch) {
        let n = self.resolution;
        let w = lane * self.output_bounds.len() + out;
        let agg = &mut scratch.aggregated[w * n..(w + 1) * n];
        let (prev_lo, prev_hi) = scratch.dirty[w];
        agg[prev_lo..prev_hi].fill(0.0);
        let (mut lo, mut hi) = (n, 0);
        let term_lo = self.output_term_offsets[out] as usize;
        let term_hi = self.output_term_offsets[out + 1] as usize;
        for flat in term_lo..term_hi {
            let height = scratch.term_strengths[flat];
            let (t_lo, t_hi) = self.term_support[flat];
            if height == 0.0 || t_lo == t_hi {
                continue;
            }
            lo = lo.min(t_lo);
            hi = hi.max(t_hi);
            let samples = &self.term_samples[flat * n + t_lo..flat * n + t_hi];
            let agg = &mut agg[t_lo..t_hi];
            // Compare-select instead of `f64::min`/`max`, whose NaN
            // handling costs extra instructions per lane: samples and
            // heights are finite and never `-0.0`, so both give the same
            // bits here.
            for (a, &s) in agg.iter_mut().zip(samples) {
                let clipped = if s < height { s } else { height };
                *a = if *a < clipped { clipped } else { *a };
            }
        }
        scratch.dirty[w] = if lo < hi { (lo, hi) } else { (0, 0) };
    }

    /// Convenience wrapper over [`CompiledEngine::infer_into`] that
    /// allocates a fresh [`Scratch`] — handy in tests, not for hot paths.
    #[must_use]
    pub fn infer(&self, inputs: &[f64]) -> Vec<f64> {
        let mut scratch = self.scratch();
        self.infer_into(inputs, &mut scratch).to_vec()
    }
}

/// Points whose centroids [`CompiledEngine::infer_line`] sums side by
/// side.
const LANES: usize = 4;

/// Ends an input's run in [`Scratch`]'s active-term list (no cell offset
/// reaches it: offsets stay below [`MAX_GRID_CELLS`]).
const END_OF_RUN: u32 = u32::MAX;

/// Largest rule table (product of the input term counts) an engine may
/// compile to: the grid holds one cell per input-term tuple.
pub(crate) const MAX_GRID_CELLS: usize = 1 << 16;

/// Most inputs an engine may compile with: the grid walk recurses once
/// per input.
pub(crate) const MAX_GRID_INPUTS: usize = 16;

/// One cell of the rule grid: the rule filed under its tuple and that
/// rule's flat output term.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    rule: u32,
    flat_term: u32,
}

/// A cell no rule is filed under.
const EMPTY_CELL: Cell = Cell {
    rule: u32::MAX,
    flat_term: 0,
};

impl MamdaniEngine {
    /// Lower this engine into an allocation-free [`CompiledEngine`] (the
    /// compile half of the compile/execute split — see the
    /// [`compile`](crate::compile) module docs).
    pub fn compile(&self) -> Result<CompiledEngine> {
        CompiledEngine::compile(self)
    }
}

/// `true` when `a` and `b` hold the same bits, element by element.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn as_u32(n: usize) -> u32 {
    u32::try_from(n).expect("compiled engine index spaces fit in u32")
}

/// The centroid of `degrees`, all of whose samples outside `[lo, hi)` are
/// zero, summed over `[lo, hi)` only.
///
/// Same accumulation order as [`crate::defuzz::centroid`] (end points get half
/// weight), with the interior branch hoisted out of the loop: `1.0 * mu * x`
/// and `mu * x` are the same bits.  Skipping the zero samples outside the
/// window is exact: both sums start at `+0.0` and can never become `-0.0`
/// (round-to-nearest gives `x + (-x) = +0.0`), and adding a signed zero to
/// anything but `-0.0` returns it unchanged.
fn centroid_window(degrees: &[f64], xs: &[f64], lo: usize, hi: usize, min: f64, max: f64) -> f64 {
    let n = degrees.len();
    let mut num = 0.0;
    let mut den = 0.0;
    if lo == 0 {
        num += 0.5 * degrees[0] * xs[0];
        den += 0.5 * degrees[0];
    }
    for i in lo.max(1)..hi.min(n - 1) {
        let mu = degrees[i];
        num += mu * xs[i];
        den += mu;
    }
    if hi == n {
        num += 0.5 * degrees[n - 1] * xs[n - 1];
        den += 0.5 * degrees[n - 1];
    }
    if den == 0.0 {
        0.5 * (min + max)
    } else {
        num / den
    }
}

/// [`centroid_window`] of [`LANES`] aggregated sets at once, each of
/// whose samples outside `[lo, hi)` are zero.
///
/// Lane `l` gets the bits `centroid_window(sets[l], ..)` gives it over any
/// narrower window holding its non-zero samples: the extra samples are
/// `+0.0`, which leave both sums unchanged (see [`centroid_window`]).  The
/// lanes' sums are independent, so their additions overlap instead of
/// waiting on one another.
fn centroid_lanes(
    sets: [&[f64]; LANES],
    xs: &[f64],
    lo: usize,
    hi: usize,
    min: f64,
    max: f64,
) -> [f64; LANES] {
    let n = xs.len();
    let mut num = [0.0; LANES];
    let mut den = [0.0; LANES];
    // The end points' half weights.
    let half = |num: &mut [f64; LANES], den: &mut [f64; LANES], i: usize| {
        for (l, set) in sets.iter().enumerate() {
            num[l] += 0.5 * set[i] * xs[i];
            den[l] += 0.5 * set[i];
        }
    };
    if lo == 0 {
        half(&mut num, &mut den, 0);
    }
    let (a, b) = (lo.max(1), hi.min(n - 1));
    if a < b {
        let [s0, s1, s2, s3] = sets.map(|s| &s[a..b]);
        let lanes = s0.iter().zip(s1).zip(s2).zip(s3);
        for (&x, (((&m0, &m1), &m2), &m3)) in xs[a..b].iter().zip(lanes) {
            for (l, mu) in [m0, m1, m2, m3].into_iter().enumerate() {
                num[l] += mu * x;
                den[l] += mu;
            }
        }
    }
    if hi == n {
        half(&mut num, &mut den, n - 1);
    }
    std::array::from_fn(|l| {
        if den[l] == 0.0 {
            0.5 * (min + max)
        } else {
            num[l] / den[l]
        }
    })
}

/// The `[lo, hi)` range outside which every sample is zero; `(0, 0)` when
/// all of them are.
fn support_of(samples: &[f64]) -> (usize, usize) {
    match samples.iter().position(|&s| s != 0.0) {
        Some(lo) => {
            let hi = samples.iter().rposition(|&s| s != 0.0).unwrap_or(lo) + 1;
            (lo, hi)
        }
        None => (0, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Rule;
    use crate::variable::LinguisticVariable;

    fn fan_engine() -> MamdaniEngine {
        let temperature = LinguisticVariable::builder("temperature", 0.0, 40.0)
            .triangle("Cold", 0.0, 0.0, 20.0)
            .triangle("Warm", 10.0, 20.0, 30.0)
            .triangle("Hot", 20.0, 40.0, 40.0)
            .build()
            .unwrap();
        let humidity = LinguisticVariable::builder("humidity", 0.0, 100.0)
            .triangle("Dry", 0.0, 0.0, 60.0)
            .triangle("Humid", 40.0, 100.0, 100.0)
            .build()
            .unwrap();
        let fan = LinguisticVariable::builder("fan", 0.0, 100.0)
            .triangle("Slow", 0.0, 0.0, 50.0)
            .triangle("Medium", 25.0, 50.0, 75.0)
            .triangle("Fast", 50.0, 100.0, 100.0)
            .build()
            .unwrap();
        let mut e = MamdaniEngine::builder()
            .input(temperature)
            .input(humidity)
            .output(fan)
            .build()
            .unwrap();
        // (Cold, Humid) is an empty cell.
        for (t, h, fan) in [
            ("Hot", "Humid", "Fast"),
            ("Hot", "Dry", "Medium"),
            ("Warm", "Dry", "Medium"),
            ("Warm", "Humid", "Medium"),
            ("Cold", "Dry", "Slow"),
        ] {
            e.add_rule(Rule::row(
                &[("temperature", t), ("humidity", h)],
                "fan",
                fan,
            ))
            .unwrap();
        }
        e
    }

    #[test]
    fn compile_requires_rules() {
        let t = LinguisticVariable::builder("t", 0.0, 1.0)
            .triangle("x", 0.0, 0.5, 1.0)
            .build()
            .unwrap();
        let o = LinguisticVariable::builder("o", 0.0, 1.0)
            .triangle("y", 0.0, 0.5, 1.0)
            .build()
            .unwrap();
        let e = MamdaniEngine::builder().input(t).output(o).build().unwrap();
        assert!(matches!(
            e.compile(),
            Err(FuzzyError::EmptyEngine { missing: "rules" })
        ));
    }

    #[test]
    fn compile_refuses_a_table_over_the_cell_cap() {
        // 64 x 64 x 16 cells compile; 64 x 64 x 17 do not.
        let var = |name: &str, terms: usize| {
            let mut b = LinguisticVariable::builder(name, 0.0, 1.0);
            for t in 0..terms {
                b = b.triangle(&format!("t{t}"), 0.0, 0.5, 1.0);
            }
            b.build().unwrap()
        };
        let engine = |terms: usize| {
            let mut e = MamdaniEngine::builder()
                .input(var("a", 64))
                .input(var("b", 64))
                .input(var("c", terms))
                .output(var("o", 1))
                .build()
                .unwrap();
            e.add_rule(Rule::row(
                &[("a", "t0"), ("b", "t7"), ("c", "t3")],
                "o",
                "t0",
            ))
            .unwrap();
            e
        };
        assert!(engine(16).compile().is_ok());
        assert!(matches!(
            engine(17).compile(),
            Err(FuzzyError::TableTooLarge {
                cells: 69_632,
                inputs: 3
            })
        ));
        // Seventeen one-term inputs: one cell, but too deep a walk.
        let mut b = MamdaniEngine::builder().output(var("o", 1));
        let mut row = Vec::new();
        let names: Vec<String> = (0..=MAX_GRID_INPUTS).map(|i| format!("in{i}")).collect();
        for name in &names {
            b = b.input(var(name, 1));
            row.push((name.as_str(), "t0"));
        }
        let mut e = b.build().unwrap();
        e.add_rule(Rule::row(&row, "o", "t0")).unwrap();
        assert!(matches!(
            e.compile(),
            Err(FuzzyError::TableTooLarge { cells: 1, .. })
        ));
    }

    #[test]
    fn compiled_shape_matches_engine() {
        let e = fan_engine();
        let c = e.compile().unwrap();
        assert_eq!(c.input_count(), 2);
        assert_eq!(c.output_count(), 1);
        assert_eq!(c.rule_count(), 5);
        assert_eq!(c.resolution(), e.resolution());
        let fan = c.output_id("fan").unwrap();
        assert_eq!(fan.index(), 0);
        assert_eq!(c.output_bounds(fan), (0.0, 100.0));
        let temp = c.input_id("temperature").unwrap();
        assert_eq!(c.input_bounds(temp), (0.0, 40.0));
        let hot = c.input_term_id(temp, "Hot").unwrap();
        assert_eq!(hot.var(), temp);
        assert_eq!(hot.term_index(), 2);
        assert!(c.input_id("pressure").is_none());
        assert!(c.input_term_id(temp, "Boiling").is_none());
    }

    #[test]
    fn compiled_matches_interpreted_bit_for_bit() {
        let e = fan_engine();
        let c = e.compile().unwrap();
        let mut scratch = c.scratch();
        for t in 0..=40 {
            for h in 0..=20 {
                let inputs = [f64::from(t), f64::from(h) * 5.0];
                let compiled = c.infer_into(&inputs, &mut scratch)[0];
                // The empty (Cold, Humid) cell leaves some points with
                // nothing fired: both paths report the universe midpoint.
                let interpreted = e.infer(&inputs).unwrap().crisp_or("fan", 50.0);
                assert_eq!(
                    compiled.to_bits(),
                    interpreted.to_bits(),
                    "divergence at {inputs:?}: {compiled} vs {interpreted}"
                );
            }
        }
    }

    #[test]
    fn firing_strengths_match_interpreted() {
        let e = fan_engine();
        let c = e.compile().unwrap();
        let mut scratch = c.scratch();
        let inputs = [33.0, 80.0];
        c.infer_into(&inputs, &mut scratch);
        let reference = e.infer(&inputs).unwrap();
        assert_eq!(scratch.firing_strengths(), reference.firing_strengths());
    }

    #[test]
    fn out_of_range_inputs_are_clamped_like_fuzzify() {
        let e = fan_engine();
        let c = e.compile().unwrap();
        let mut scratch = c.scratch();
        let clamped = c.infer_into(&[500.0, -3.0], &mut scratch)[0];
        let reference = e.infer(&[40.0, 0.0]).unwrap().crisp("fan").unwrap();
        assert_eq!(clamped.to_bits(), reference.to_bits());
    }

    #[test]
    fn empty_output_uses_configured_default() {
        // An engine whose single rule cannot fire at the probed input.
        let t = LinguisticVariable::builder("t", 0.0, 10.0)
            .triangle("low", 0.0, 0.0, 2.0)
            .triangle("high", 8.0, 10.0, 10.0)
            .build()
            .unwrap();
        let o = LinguisticVariable::builder("o", 0.0, 1.0)
            .triangle("yes", 0.0, 1.0, 1.0)
            .build()
            .unwrap();
        let mut e = MamdaniEngine::builder().input(t).output(o).build().unwrap();
        e.add_rule(Rule::row(&[("t", "high")], "o", "yes")).unwrap();
        let mut c = e.compile().unwrap();
        let mut scratch = c.scratch();
        // Default fallback: the universe midpoint.
        assert_eq!(c.infer_into(&[1.0], &mut scratch)[0], 0.5);
        c.set_empty_default(c.output_id("o").unwrap(), -7.0);
        assert_eq!(c.infer_into(&[1.0], &mut scratch)[0], -7.0);
        // Matches crisp_or with the same default.
        let interpreted = e.infer(&[1.0]).unwrap().crisp_or("o", -7.0);
        assert_eq!(c.infer_into(&[1.0], &mut scratch)[0], interpreted);
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn wrong_arity_panics() {
        let c = fan_engine().compile().unwrap();
        let mut scratch = c.scratch();
        let _ = c.infer_into(&[1.0], &mut scratch);
    }

    #[test]
    #[should_panic(expected = "different engine shape")]
    fn foreign_scratch_panics() {
        let c = fan_engine().compile().unwrap();
        let t = LinguisticVariable::builder("t", 0.0, 1.0)
            .triangle("x", 0.0, 0.5, 1.0)
            .build()
            .unwrap();
        let o = LinguisticVariable::builder("o", 0.0, 1.0)
            .triangle("y", 0.0, 0.5, 1.0)
            .build()
            .unwrap();
        let mut other = MamdaniEngine::builder().input(t).output(o).build().unwrap();
        other.add_rule(Rule::row(&[("t", "x")], "o", "y")).unwrap();
        let mut foreign = other.compile().unwrap().scratch();
        let _ = c.infer_into(&[1.0, 1.0], &mut foreign);
    }

    #[test]
    fn convenience_infer_matches_infer_into() {
        let c = fan_engine().compile().unwrap();
        let mut scratch = c.scratch();
        let a = c.infer(&[30.0, 60.0]);
        let b = c.infer_into(&[30.0, 60.0], &mut scratch);
        assert_eq!(a.as_slice(), b);
    }
}
