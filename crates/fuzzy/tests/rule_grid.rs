//! The rule-grid index of [`CompiledEngine`] against the full rule scan.
//!
//! The compiled engine files every AND rule with exactly one plain clause
//! per input under its term tuple and, per inference, fires only the rules
//! the non-zero input terms reach; every other rule is fired on every
//! call.  These tests build random engines that mix both kinds — OR rules,
//! `NOT` clauses, rules missing a variable or testing one twice, duplicate
//! tuples, empty cells and clauses out of declaration order — and check,
//! on one reused scratch, that the crisp bits, the firing strengths and
//! the aggregated sets equal:
//!
//! * the interpreted engine, for finite inputs (±inf is compared at the
//!   universe edge it clamps to);
//! * the same engine with one extra input that no rule mentions, for every
//!   input including NaN: there no rule is indexable, so that engine runs
//!   the plain scan over all rules.
//!
//! The same engines also check [`CompiledEngine::infer_line`] against
//! per-point `infer_into` on random lines through NaN, ±inf and runs of
//! points with repeated term heights, after every point of the line.

use fuzzy::prelude::*;
use fuzzy::rule::Consequent;
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

/// A random engine and the number of its rules that are indexable.
struct Case {
    engine: MamdaniEngine,
    /// The same variables and rules plus one unreferenced input (last).
    padded: MamdaniEngine,
    indexable: usize,
}

fn random_case(seed: u64) -> Case {
    let mut s = Stream(seed);
    let n_inputs = 1 + s.below(3);
    let term_counts: Vec<usize> = (0..n_inputs).map(|_| 1 + s.below(4)).collect();
    let inputs: Vec<LinguisticVariable> = term_counts
        .iter()
        .enumerate()
        .map(|(i, &k)| random_variable(&format!("in{i}"), k, &mut s))
        .collect();
    let n_outputs = 1 + s.below(2);
    let outputs: Vec<LinguisticVariable> = (0..n_outputs)
        .map(|o| random_variable(&format!("out{o}"), 1 + s.below(3), &mut s))
        .collect();
    let pad = LinguisticVariable::builder("pad", 0.0, 1.0)
        .triangle("any", 0.0, 0.5, 1.0)
        .build()
        .unwrap();

    let clause = |v: usize, s: &mut Stream| {
        Antecedent::is(format!("in{v}"), format!("t{}", s.below(term_counts[v])))
    };
    let mut rules: Vec<Rule> = Vec::new();
    let mut indexable = 0;
    for _ in 0..1 + s.below(24) {
        let mut order: Vec<usize> = (0..n_inputs).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, s.below(i + 1));
        }
        let grid_clauses =
            |s: &mut Stream| -> Vec<Antecedent> { order.iter().map(|&v| clause(v, s)).collect() };
        let (antecedents, connective, is_grid) = match s.below(8) {
            // A grid rule, clauses in a shuffled order.
            0..=2 => (grid_clauses(&mut s), Connective::And, true),
            // A duplicate of an earlier rule's clauses (same cell).
            3 if !rules.is_empty() => {
                let earlier = &rules[s.below(rules.len())];
                let grid = earlier.connective() == Connective::And
                    && earlier.antecedents().len() == n_inputs
                    && earlier.antecedents().iter().all(|a| !a.negated)
                    && (0..n_inputs).all(|v| {
                        let name = format!("in{v}");
                        earlier.antecedents().iter().any(|a| a.variable == name)
                    });
                (earlier.antecedents().to_vec(), earlier.connective(), grid)
            }
            // One clause negated.
            4 => {
                let mut a = grid_clauses(&mut s);
                let i = s.below(a.len());
                a[i].negated = true;
                (a, Connective::And, false)
            }
            // OR of the grid clauses (a single clause is still an OR).
            5 => (grid_clauses(&mut s), Connective::Or, false),
            // A variable missing: drop one clause (or, with one input,
            // test it twice so the rule still is not a grid rule).
            6 => {
                let mut a = grid_clauses(&mut s);
                if a.len() > 1 {
                    a.remove(s.below(a.len()));
                } else {
                    a.push(clause(0, &mut s));
                }
                (a, Connective::And, false)
            }
            // One variable tested twice in place of another.
            _ => {
                let mut a = grid_clauses(&mut s);
                let v = order[s.below(n_inputs)];
                let i = s.below(a.len());
                a[i] = clause(v, &mut s);
                let grid = (0..n_inputs).all(|v| {
                    let name = format!("in{v}");
                    a.iter().filter(|c| c.variable == name).count() == 1
                });
                (a, Connective::And, grid)
            }
        };
        let mut consequents = Vec::new();
        for (o, out) in outputs.iter().enumerate() {
            if consequents.is_empty() || s.below(2) == 0 {
                let term = out.terms()[s.below(out.term_count())].name();
                consequents.push(Consequent::is(format!("out{o}"), term));
            }
        }
        indexable += usize::from(is_grid);
        rules.push(Rule::new(antecedents, connective, consequents).unwrap());
    }

    let build = |extra: Option<&LinguisticVariable>| {
        let mut b = MamdaniEngine::builder().resolution(41);
        for v in inputs.iter().chain(extra) {
            b = b.input(v.clone());
        }
        for v in &outputs {
            b = b.output(v.clone());
        }
        let mut e = b.build().unwrap();
        for r in &rules {
            e.add_rule(r.clone()).unwrap();
        }
        e
    };
    Case {
        engine: build(None),
        padded: build(Some(&pad)),
        indexable,
    }
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
    let case = random_case(seed);
    let compiled = case.engine.compile().unwrap();
    let scan = case.padded.compile().unwrap();
    assert_eq!(
        compiled.indexed_rule_count(),
        case.indexable,
        "seed {seed}: rules {:?}",
        case.engine.rules().rules()
    );
    assert_eq!(scan.indexed_rule_count(), 0, "seed {seed}");
    let mut scratch = compiled.scratch();
    let mut scan_scratch = scan.scratch();
    let mut s = Stream(seed ^ 0x1D);
    let n = compiled.input_count();
    for _ in 0..48 {
        let x: Vec<f64> = (0..n).map(|_| coordinate(&mut s)).collect();
        let crisp = compiled.infer_into(&x, &mut scratch).to_vec();
        let mut padded_x = x.clone();
        padded_x.push(0.5);
        let scan_crisp = scan.infer_into(&padded_x, &mut scan_scratch).to_vec();
        let context = format!("seed {seed} at {x:?}");
        assert_eq!(
            scratch.firing_strengths(),
            scan_scratch.firing_strengths(),
            "strengths vs scan, {context}"
        );
        for (o, out) in case.engine.outputs().iter().enumerate() {
            let id = VarId::from_index(o);
            assert_eq!(
                crisp[o].to_bits(),
                scan_crisp[o].to_bits(),
                "crisp vs scan, {context}"
            );
            assert_eq!(
                scratch.aggregated(id),
                scan_scratch.aggregated(id),
                "aggregated vs scan, {context}"
            );
            if x.iter().any(|v| v.is_nan()) {
                continue;
            }
            // The interpreted engine rejects infinities; the compiled one
            // clamps them to the universe edge.
            let clamped: Vec<f64> = x.iter().map(|v| v.clamp(UNIVERSE.0, UNIVERSE.1)).collect();
            let reference = case.engine.infer(&clamped).unwrap();
            let midpoint = 0.5 * (out.min() + out.max());
            assert_eq!(
                crisp[o].to_bits(),
                reference.crisp_or(out.name(), midpoint).to_bits(),
                "crisp vs interpreted, {context}"
            );
            assert_eq!(
                scratch.aggregated(id),
                reference.aggregated(out.name()).unwrap().degrees(),
                "aggregated vs interpreted, {context}"
            );
            assert_eq!(
                scratch.firing_strengths(),
                reference.firing_strengths(),
                "strengths vs interpreted, {context}"
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
    let case = random_case(seed);
    let compiled = case.engine.compile().unwrap();
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

/// Two inputs of three terms each; `rules` decides which rules are grid
/// rules.
fn two_by_three(rules: &[&str]) -> MamdaniEngine {
    let var = |name: &str| {
        LinguisticVariable::builder(name, 0.0, 10.0)
            .triangle("lo", 0.0, 0.0, 5.0)
            .triangle("md", 0.0, 5.0, 10.0)
            .triangle("hi", 5.0, 10.0, 10.0)
            .build()
            .unwrap()
    };
    let mut e = MamdaniEngine::builder()
        .input(var("a"))
        .input(var("b"))
        .output(var("o"))
        .build()
        .unwrap();
    e.add_rules_str(rules.iter().copied()).unwrap();
    e
}

#[test]
fn indexability_follows_the_rule_shape() {
    let e = two_by_three(&[
        "IF a IS lo AND b IS hi THEN o IS lo",
        // Out of declaration order: still a grid rule.
        "IF b IS md AND a IS hi THEN o IS md",
        // Same cell as the first rule.
        "IF a IS lo AND b IS hi THEN o IS hi",
        "IF a IS lo OR b IS hi THEN o IS lo",
        "IF a IS NOT lo AND b IS hi THEN o IS lo",
        "IF a IS md THEN o IS md",
        "IF a IS md AND a IS lo THEN o IS md",
    ]);
    let c = e.compile().unwrap();
    assert_eq!(c.rule_count(), 7);
    assert_eq!(c.indexed_rule_count(), 3);
}

#[test]
fn an_engine_without_grid_rules_scans_every_rule() {
    let e = two_by_three(&[
        "IF a IS lo OR b IS hi THEN o IS lo",
        "IF a IS md THEN o IS md",
        "IF a IS NOT hi AND b IS lo THEN o IS hi",
    ]);
    let c = e.compile().unwrap();
    assert_eq!(c.indexed_rule_count(), 0);
    let mut scratch = c.scratch();
    for x in [[1.0, 9.0], [5.0, 5.0], [10.0, 0.0], [3.0, 7.5]] {
        let crisp = c.infer_into(&x, &mut scratch)[0];
        let reference = e.infer(&x).unwrap();
        assert_eq!(crisp.to_bits(), reference.crisp_or("o", 5.0).to_bits());
        assert_eq!(scratch.firing_strengths(), reference.firing_strengths());
    }
}
