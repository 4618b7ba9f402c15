//! The rule grid of [`CompiledEngine`] against the interpreted engine's
//! full rule scan.
//!
//! The compiled engine files every rule under its term tuple and, per
//! inference, fires only the rules the non-zero input terms reach.  These
//! tests build random tables — random term counts, empty cells, rules
//! added out of tuple order — and check, on one reused scratch, that the
//! crisp bits, the firing strengths and the aggregated sets equal the
//! interpreted engine's for finite inputs (±inf is compared at the
//! universe edge it clamps to), and that a NaN input fires nothing.
//!
//! The same engines also check [`CompiledEngine::infer_line`] against
//! per-point `infer_into` on random lines through NaN, ±inf and runs of
//! points with repeated term heights, after every point of the line.

use fuzzy::prelude::*;
use proptest::prelude::*;

/// splitmix64: a small deterministic stream for building engines.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

const UNIVERSE: (f64, f64) = (0.0, 10.0);

/// A variable on `UNIVERSE` with `terms` random triangles and trapezoids;
/// their feet may reach past the universe, and they may overlap or leave
/// gaps, so an input can touch zero, one or several terms.
fn random_variable(name: &str, terms: usize, s: &mut Stream) -> LinguisticVariable {
    let mut b = LinguisticVariable::builder(name, UNIVERSE.0, UNIVERSE.1);
    for t in 0..terms {
        let a = s.uniform(-2.0, 10.0);
        let w: Vec<f64> = (0..3).map(|_| s.uniform(0.0, 4.0)).collect();
        let term = format!("t{t}");
        b = if s.below(2) == 0 {
            b.triangle(&term, a, a + w[0], a + w[0] + w[1] + 0.25)
        } else {
            b.trapezoid(
                &term,
                a,
                a + w[0],
                a + w[0] + w[1],
                a + w[0] + w[1] + w[2] + 0.25,
            )
        };
    }
    b.build().unwrap()
}

/// A random engine: one to three inputs of one to four terms each, one or
/// two outputs, and a row on about three of every four cells of the table,
/// added in a shuffled order so that rule-base order is not tuple order.
fn random_engine(seed: u64) -> MamdaniEngine {
    let mut s = Stream(seed);
    let n_inputs = 1 + s.below(3);
    let inputs: Vec<LinguisticVariable> = (0..n_inputs)
        .map(|i| random_variable(&format!("in{i}"), 1 + s.below(4), &mut s))
        .collect();
    let n_outputs = 1 + s.below(2);
    let outputs: Vec<LinguisticVariable> = (0..n_outputs)
        .map(|o| random_variable(&format!("out{o}"), 1 + s.below(3), &mut s))
        .collect();

    let mut b = MamdaniEngine::builder().resolution(41);
    for v in &inputs {
        b = b.input(v.clone());
    }
    for v in &outputs {
        b = b.output(v.clone());
    }
    let mut e = b.build().unwrap();

    let mut tuples: Vec<Vec<usize>> = vec![Vec::new()];
    for v in &inputs {
        tuples = tuples
            .into_iter()
            .flat_map(|t| {
                (0..v.term_count()).map(move |term| {
                    let mut t = t.clone();
                    t.push(term);
                    t
                })
            })
            .collect();
    }
    for i in (1..tuples.len()).rev() {
        tuples.swap(i, s.below(i + 1));
    }
    for (k, tuple) in tuples.iter().enumerate() {
        let last_chance = k + 1 == tuples.len() && e.rules().is_empty();
        if s.below(4) == 0 && !last_chance {
            continue;
        }
        let clauses: Vec<(&str, &str)> = inputs
            .iter()
            .zip(tuple)
            .map(|(v, &t)| (v.name(), v.terms()[t].name()))
            .collect();
        let out = &outputs[s.below(n_outputs)];
        let term = out.terms()[s.below(out.term_count())].name();
        e.add_rule(Rule::row(&clauses, out.name(), term)).unwrap();
    }
    e
}

/// An input coordinate: inside the universe (mostly), on an edge, outside
/// it, infinite or NaN.
fn coordinate(s: &mut Stream) -> f64 {
    match s.below(16) {
        0 => UNIVERSE.0,
        1 => UNIVERSE.1,
        2 => s.uniform(-8.0, 0.0),
        3 => s.uniform(10.0, 18.0),
        4 => f64::NAN,
        5 => f64::INFINITY,
        6 => f64::NEG_INFINITY,
        _ => s.uniform(UNIVERSE.0, UNIVERSE.1),
    }
}

fn check_case(seed: u64) {
    let engine = random_engine(seed);
    let compiled = engine.compile().unwrap();
    assert_eq!(compiled.rule_count(), engine.rules().len());
    let mut scratch = compiled.scratch();
    let mut s = Stream(seed ^ 0x1D);
    let n = compiled.input_count();
    for _ in 0..48 {
        let x: Vec<f64> = (0..n).map(|_| coordinate(&mut s)).collect();
        let crisp = compiled.infer_into(&x, &mut scratch).to_vec();
        let context = format!("seed {seed} at {x:?}");
        if x.iter().any(|v| v.is_nan()) {
            // A NaN input has no non-zero term, so no rule fires and
            // every output reports its empty default.
            assert!(
                scratch.firing_strengths().iter().all(|&f| f == 0.0),
                "strengths, {context}"
            );
            for (o, out) in engine.outputs().iter().enumerate() {
                let midpoint = 0.5 * (out.min() + out.max());
                assert_eq!(crisp[o].to_bits(), midpoint.to_bits(), "crisp, {context}");
                let set = scratch.aggregated(VarId::from_index(o));
                assert!(set.iter().all(|&d| d == 0.0), "aggregated, {context}");
            }
            continue;
        }
        // The interpreted engine rejects infinities; the compiled one
        // clamps them to the universe edge.
        let clamped: Vec<f64> = x.iter().map(|v| v.clamp(UNIVERSE.0, UNIVERSE.1)).collect();
        let reference = engine.infer(&clamped).unwrap();
        assert_eq!(
            scratch.firing_strengths(),
            reference.firing_strengths(),
            "strengths vs interpreted, {context}"
        );
        for (o, out) in engine.outputs().iter().enumerate() {
            let midpoint = 0.5 * (out.min() + out.max());
            assert_eq!(
                crisp[o].to_bits(),
                reference.crisp_or(out.name(), midpoint).to_bits(),
                "crisp vs interpreted, {context}"
            );
            assert_eq!(
                scratch.aggregated(VarId::from_index(o)),
                reference.aggregated(out.name()).unwrap().degrees(),
                "aggregated vs interpreted, {context}"
            );
        }
    }
}

/// The next point of a line after `prev`: mostly a fresh coordinate, but
/// often one with the same term heights as `prev` (the same value, or
/// another value past the same universe edge) so that the line evaluator
/// repeats a point's outputs between points that change them.
fn next_on_line(prev: f64, s: &mut Stream) -> f64 {
    match s.below(6) {
        0 => prev,
        1 if prev <= UNIVERSE.0 => s.uniform(-8.0, UNIVERSE.0),
        1 if prev >= UNIVERSE.1 => s.uniform(UNIVERSE.1, 18.0),
        _ => coordinate(s),
    }
}

/// `infer_line` equals `infer_into` point by point: crisp bits after the
/// whole line, and firing strengths and aggregated sets after every
/// prefix of it (the state a line leaves is its last point's).  One line
/// scratch serves every line, so no result may leak from one call into
/// the next.
fn check_lines(seed: u64) {
    let compiled = random_engine(seed).compile().unwrap();
    let mut line_scratch = compiled.scratch();
    let mut point_scratch = compiled.scratch();
    let mut s = Stream(seed ^ 0x11E);
    let (n, outs) = (compiled.input_count(), compiled.output_count());
    for _ in 0..6 {
        let fixed: Vec<f64> = (0..n).map(|_| coordinate(&mut s)).collect();
        let free = s.below(n);
        let mut ys = vec![coordinate(&mut s)];
        for _ in 0..s.below(32) {
            let prev = ys[ys.len() - 1];
            ys.push(next_on_line(prev, &mut s));
        }
        let mut out = vec![0.0; ys.len() * outs];
        for k in 0..ys.len() {
            let line = &ys[..=k];
            let got = &mut out[..line.len() * outs];
            compiled.infer_line(
                &fixed,
                VarId::from_index(free),
                line,
                got,
                &mut line_scratch,
            );
            let mut x = fixed.clone();
            x[free] = ys[k];
            let crisp = compiled.infer_into(&x, &mut point_scratch);
            let context = format!("seed {seed}, free input {free} of {fixed:?}, line {line:?}");
            for o in 0..outs {
                assert_eq!(
                    got[k * outs + o].to_bits(),
                    crisp[o].to_bits(),
                    "crisp, {context}"
                );
            }
            assert_eq!(
                line_scratch.firing_strengths(),
                point_scratch.firing_strengths(),
                "strengths, {context}"
            );
            for o in 0..outs {
                let id = VarId::from_index(o);
                assert_eq!(
                    line_scratch.aggregated(id),
                    point_scratch.aggregated(id),
                    "aggregated, {context}"
                );
            }
        }
        // The full line's crisp outputs, point by point.
        for (k, &y) in ys.iter().enumerate() {
            let mut x = fixed.clone();
            x[free] = y;
            let crisp = compiled.infer_into(&x, &mut point_scratch);
            for o in 0..outs {
                assert_eq!(
                    out[k * outs + o].to_bits(),
                    crisp[o].to_bits(),
                    "seed {seed}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rule_grid_matches_the_full_scan(seed in any::<u64>()) {
        check_case(seed);
    }

    #[test]
    fn line_inference_matches_point_inference(seed in any::<u64>()) {
        check_lines(seed);
    }
}
