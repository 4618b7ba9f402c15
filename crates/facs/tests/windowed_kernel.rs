//! The paper controllers on the support-windowed compiled kernel: random
//! inputs (inside the universes, on their edges, out of range and NaN) run
//! on one reused scratch must reproduce the interpreted engine's crisp
//! bits, aggregated output set and firing strengths.

use facs::{Flc1, Flc2};
use fuzzy::{CompiledEngine, MamdaniEngine, VarId};
use proptest::prelude::*;

/// Check a sequence of inputs, given as fractions of each input universe
/// (`0` = lower edge, `1` = upper edge, NaN stays NaN).  `default` is the
/// crisp value the controller pins for an empty output.
fn check_sequence(
    engine: &MamdaniEngine,
    compiled: &CompiledEngine,
    default: f64,
    fractions: &[[f64; 3]],
) {
    let out = VarId::from_index(0);
    let name = engine.outputs()[0].name();
    let mut scratch = compiled.scratch();
    for f in fractions {
        let mut x = [0.0; 3];
        for (i, (xi, fi)) in x.iter_mut().zip(f).enumerate() {
            let (lo, hi) = compiled.input_bounds(VarId::from_index(i));
            *xi = lo + fi * (hi - lo);
        }
        let crisp = compiled.infer_into(&x, &mut scratch)[0];
        if x.iter().all(|v| v.is_finite()) {
            let reference = engine.infer(&x).unwrap();
            assert_eq!(
                crisp.to_bits(),
                reference.crisp_or(name, default).to_bits(),
                "{name} crisp at {x:?}"
            );
            assert_eq!(
                scratch.aggregated(out),
                reference.aggregated(name).unwrap().degrees(),
                "{name} aggregated at {x:?}"
            );
            assert_eq!(scratch.firing_strengths(), reference.firing_strengths());
        } else {
            // The paper rule bases are pure conjunctions: a NaN input (zero
            // membership in every term) fires nothing.
            assert!(scratch.firing_strengths().iter().all(|&s| s == 0.0));
            assert!(scratch.aggregated(out).iter().all(|&d| d == 0.0));
            assert_eq!(crisp.to_bits(), default.to_bits(), "{name} empty at {x:?}");
        }
    }
}

/// A position in an input universe: inside, half a span beyond either
/// edge, exactly on an edge, or NaN.
fn fraction() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => -0.5f64..1.5,
        1 => Just(0.0),
        1 => Just(1.0),
        1 => Just(f64::NAN),
    ]
}

fn inputs() -> impl Strategy<Value = Vec<[f64; 3]>> {
    prop::collection::vec(
        (fraction(), fraction(), fraction()).prop_map(|(a, b, c)| [a, b, c]),
        1..32,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flc1_windowed_kernel_is_bit_identical(seq in inputs()) {
        let flc1 = Flc1::paper_default().unwrap();
        check_sequence(flc1.engine(), flc1.compiled(), 0.5, &seq);
    }

    #[test]
    fn distance_flc1_windowed_kernel_is_bit_identical(seq in inputs()) {
        let flc1 = Flc1::distance().unwrap();
        check_sequence(flc1.engine(), flc1.compiled(), 0.5, &seq);
    }

    #[test]
    fn flc2_windowed_kernel_is_bit_identical_at_40_and_2000_bu(seq in inputs()) {
        for capacity in [40.0, 2000.0] {
            let flc2 = Flc2::with_capacity(capacity).unwrap();
            check_sequence(flc2.engine(), flc2.compiled(), 0.0, &seq);
        }
    }
}
