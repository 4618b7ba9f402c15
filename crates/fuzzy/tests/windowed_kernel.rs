//! The support-windowed max-aggregation kernel of [`CompiledEngine`]
//! against full-width references.
//!
//! The compiled engine aggregates each fired term over its support window
//! only, and runs the empty-set check and the centroid over the hull of
//! those windows.  These tests pin that the result is the one a full-width
//! clip-and-max pass and centroid give, bit for bit: on engines whose
//! output terms touch the first and the last sample (the half-weighted
//! centroid end points), interior-only terms and full-support terms, on a
//! reused scratch, at universe edges, out of range and with NaN inputs.

use fuzzy::defuzz::centroid_or;
use fuzzy::prelude::*;
use proptest::prelude::*;

/// Two inputs, two outputs.  Output `o` has terms touching sample 0
/// (`low`), sample n-1 (`high`), the interior only (`mid`, `spike`) and
/// every sample (`bump`); output `p` lives on a negative universe and
/// takes the rows where `b` is `zero`.
fn edge_engine(resolution: usize) -> MamdaniEngine {
    let a = LinguisticVariable::builder("a", 0.0, 1.0)
        .triangle("lo", 0.0, 0.0, 0.5)
        .triangle("md", 0.2, 0.5, 0.8)
        .triangle("hi", 0.5, 1.0, 1.0)
        .build()
        .unwrap();
    let b = LinguisticVariable::builder("b", -5.0, 5.0)
        .trapezoid("neg", -5.0, -5.0, -4.0, -1.0)
        .triangle("zero", -2.0, 0.0, 2.0)
        .trapezoid("pos", 1.0, 4.0, 5.0, 5.0)
        .build()
        .unwrap();
    let o = LinguisticVariable::builder("o", 0.0, 10.0)
        .triangle("low", 0.0, 0.0, 3.0)
        .triangle("mid", 2.0, 5.0, 8.0)
        .triangle("spike", 4.9, 5.0, 5.1)
        .triangle("bump", -1.0, 5.0, 11.0)
        .triangle("high", 7.0, 10.0, 10.0)
        .build()
        .unwrap();
    let p = LinguisticVariable::builder("p", -20.0, -10.0)
        .trapezoid("left", -20.0, -20.0, -18.0, -15.0)
        .triangle("right", -14.0, -10.0, -10.0)
        .build()
        .unwrap();
    let mut e = MamdaniEngine::builder()
        .input(a)
        .input(b)
        .output(o)
        .output(p)
        .resolution(resolution)
        .build()
        .unwrap();
    for (a, b, out, term) in [
        ("lo", "neg", "o", "low"),
        ("lo", "zero", "p", "left"),
        ("lo", "pos", "o", "mid"),
        ("md", "neg", "o", "high"),
        ("md", "zero", "p", "right"),
        ("md", "pos", "o", "spike"),
        ("hi", "neg", "o", "bump"),
        ("hi", "zero", "p", "left"),
        ("hi", "pos", "o", "high"),
    ] {
        e.add_rule(Rule::row(&[("a", a), ("b", b)], out, term))
            .unwrap();
    }
    e
}

/// The full-width reference of one compiled inference: the interpreted
/// aggregation over every sample, in rule-base order, driven by the
/// compiled firing strengths (so NaN inputs have a reference too), then
/// the interpreted centroid with the compiled empty-set fallback.
fn full_width_reference(engine: &MamdaniEngine, strengths: &[f64]) -> Vec<(FuzzySet, f64)> {
    let mut sets: Vec<FuzzySet> = engine
        .outputs()
        .iter()
        .map(|o| FuzzySet::empty(o.min(), o.max(), engine.resolution()).unwrap())
        .collect();
    for (rule, &strength) in engine.rules().rules().iter().zip(strengths) {
        if strength == 0.0 {
            continue;
        }
        let c = rule.consequent();
        let out = engine
            .outputs()
            .iter()
            .position(|o| o.name() == c.variable)
            .unwrap();
        let mf = engine.outputs()[out]
            .term(&c.term)
            .unwrap()
            .membership_function();
        sets[out].aggregate_clipped(mf, strength);
    }
    sets.into_iter()
        .map(|set| {
            let midpoint = 0.5 * (set.min() + set.max());
            let crisp = centroid_or(&set, midpoint);
            (set, crisp)
        })
        .collect()
}

/// Run `inputs` through the compiled engine on one reused scratch and
/// check every inference against the full-width reference and, for finite
/// inputs, against the interpreted engine.
fn check_sequence(engine: &MamdaniEngine, inputs: &[[f64; 2]]) {
    let compiled = engine.compile().unwrap();
    let mut scratch = compiled.scratch();
    for x in inputs {
        let crisp = compiled.infer_into(x, &mut scratch).to_vec();
        let reference = full_width_reference(engine, scratch.firing_strengths());
        let interpreted = if x.iter().all(|v| v.is_finite()) {
            Some(engine.infer(x).unwrap())
        } else {
            None
        };
        for (out, (set, expected)) in reference.iter().enumerate() {
            let id = VarId::from_index(out);
            let context = format!("n={} output {out} at {x:?}", engine.resolution());
            assert_eq!(crisp[out].to_bits(), expected.to_bits(), "crisp, {context}");
            // Value equality: a skipped sample may hold +0.0 where a
            // full-width max kept -0.0.
            assert_eq!(
                scratch.aggregated(id),
                set.degrees(),
                "aggregated, {context}"
            );
            if let Some(interpreted) = &interpreted {
                let name = engine.outputs()[out].name();
                let midpoint = 0.5 * (set.min() + set.max());
                assert_eq!(
                    crisp[out].to_bits(),
                    interpreted.crisp_or(name, midpoint).to_bits(),
                    "interpreted crisp, {context}"
                );
                assert_eq!(
                    scratch.aggregated(id),
                    interpreted.aggregated(name).unwrap().degrees(),
                    "interpreted aggregated, {context}"
                );
                assert_eq!(scratch.firing_strengths(), interpreted.firing_strengths());
            }
        }
    }
}

/// A coordinate in `[lo, hi]` widened by half its span on each side, its
/// exact edges, or NaN.
fn coordinate(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
    let margin = 0.5 * (hi - lo);
    prop_oneof![
        8 => (lo - margin)..(hi + margin),
        1 => Just(lo),
        1 => Just(hi),
        1 => Just(f64::NAN),
    ]
}

fn input_pair() -> impl Strategy<Value = [f64; 2]> {
    (coordinate(0.0, 1.0), coordinate(-5.0, 5.0)).prop_map(|(a, b)| [a, b])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn windowed_kernel_matches_full_width(
        inputs in prop::collection::vec(input_pair(), 1..24),
        resolution in prop_oneof![Just(2usize), Just(3usize), Just(11usize), Just(201usize)],
    ) {
        check_sequence(&edge_engine(resolution), &inputs);
    }
}

#[test]
fn end_point_terms_fire_alone_and_together() {
    // Inputs that fire only the sample-0 term, only the sample-(n-1) term,
    // both ends at once, the full-support term and only `p`, on a scratch
    // reused across all of them.
    let inputs = [
        [0.0, -5.0],
        [1.0, 5.0],
        [0.3, -5.0],
        [1.0, -5.0],
        [0.5, 0.0],
        [0.0, -5.0],
    ];
    for resolution in [2, 5, 201] {
        check_sequence(&edge_engine(resolution), &inputs);
    }
}

#[test]
fn nothing_fired_gives_the_empty_default_after_a_firing_inference() {
    let engine = edge_engine(201);
    let compiled = engine.compile().unwrap();
    let mut scratch = compiled.scratch();
    let fired = compiled.infer_into(&[0.9, 3.0], &mut scratch)[0];
    assert_ne!(fired, 5.0);
    // `b` at zero reaches only the `zero` rows, which fire `p`; nothing
    // reaches `o`.
    let empty = compiled.infer_into(&[0.9, 0.0], &mut scratch).to_vec();
    assert_eq!(empty[0], 5.0);
    assert!(scratch
        .aggregated(VarId::from_index(0))
        .iter()
        .all(|&d| d == 0.0));
    assert!(scratch
        .aggregated(VarId::from_index(1))
        .iter()
        .any(|&d| d > 0.0));
    // NaN zeroes every membership: nothing fires at all.
    let none = compiled
        .infer_into(&[f64::NAN, f64::NAN], &mut scratch)
        .to_vec();
    assert_eq!(none, [5.0, -15.0]);
}
