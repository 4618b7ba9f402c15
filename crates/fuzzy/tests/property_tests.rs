//! Property-based tests for the fuzzy-logic core.

use fuzzy::defuzz::centroid;
use fuzzy::prelude::*;
use proptest::prelude::*;

/// Two inputs, one output; "Warm -> Medium" and "Cold -> Slow" hold for
/// either humidity term, one row each.
fn fan_engine() -> MamdaniEngine {
    let temperature = LinguisticVariable::builder("temperature", 0.0, 40.0)
        .triangle("Cold", 0.0, 0.0, 20.0)
        .triangle("Warm", 10.0, 20.0, 30.0)
        .triangle("Hot", 20.0, 40.0, 40.0)
        .build()
        .unwrap();
    let humidity = LinguisticVariable::builder("humidity", 0.0, 100.0)
        .triangle("Dry", 0.0, 0.0, 50.0)
        .triangle("Humid", 50.0, 100.0, 100.0)
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
    for (t, h, fan) in [
        ("Hot", "Humid", "Fast"),
        ("Hot", "Dry", "Medium"),
        ("Warm", "Humid", "Medium"),
        ("Warm", "Dry", "Medium"),
        ("Cold", "Humid", "Slow"),
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

fn sorted3() -> impl Strategy<Value = (f64, f64, f64)> {
    (-1000.0f64..1000.0, 0.001f64..500.0, 0.001f64..500.0)
        .prop_map(|(b, w0, w1)| (b - w0, b, b + w1))
}

fn sorted4() -> impl Strategy<Value = (f64, f64, f64, f64)> {
    (
        -1000.0f64..1000.0,
        0.001f64..500.0,
        0.0f64..500.0,
        0.001f64..500.0,
    )
        .prop_map(|(b, w0, plateau, w1)| (b - w0, b, b + plateau, b + plateau + w1))
}

proptest! {
    #[test]
    fn triangular_membership_is_bounded((a, b, c) in sorted3(), x in -2000.0f64..2000.0) {
        let mf = MembershipFunction::triangular(a, b, c).unwrap();
        let mu = mf.membership(x);
        prop_assert!((0.0..=1.0).contains(&mu));
    }

    #[test]
    fn triangular_peak_is_one((a, b, c) in sorted3()) {
        let mf = MembershipFunction::triangular(a, b, c).unwrap();
        prop_assert!((mf.membership(b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn triangular_zero_outside_support((a, b, c) in sorted3(), delta in 0.001f64..1000.0) {
        let mf = MembershipFunction::triangular(a, b, c).unwrap();
        prop_assert_eq!(mf.membership(a - delta), 0.0);
        prop_assert_eq!(mf.membership(c + delta), 0.0);
    }

    #[test]
    fn triangular_monotone_on_each_side((a, b, c) in sorted3(), t1 in 0.0f64..1.0, t2 in 0.0f64..1.0) {
        let mf = MembershipFunction::triangular(a, b, c).unwrap();
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        // rising edge
        let x1 = a + lo * (b - a);
        let x2 = a + hi * (b - a);
        prop_assert!(mf.membership(x1) <= mf.membership(x2) + 1e-9);
        // falling edge
        let y1 = b + lo * (c - b);
        let y2 = b + hi * (c - b);
        prop_assert!(mf.membership(y1) + 1e-9 >= mf.membership(y2));
    }

    #[test]
    fn trapezoidal_membership_is_bounded((a, b, c, d) in sorted4(), x in -2000.0f64..2000.0) {
        let mf = MembershipFunction::trapezoidal(a, b, c, d).unwrap();
        let mu = mf.membership(x);
        prop_assert!((0.0..=1.0).contains(&mu));
    }

    #[test]
    fn trapezoidal_plateau_is_one((a, b, c, d) in sorted4(), t in 0.0f64..1.0) {
        let mf = MembershipFunction::trapezoidal(a, b, c, d).unwrap();
        let x = b + t * (c - b);
        prop_assert!((mf.membership(x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fuzzify_degrees_always_bounded(x in -500.0f64..500.0) {
        let v = LinguisticVariable::builder("speed", 0.0, 120.0)
            .triangle("Slow", 0.0, 0.0, 60.0)
            .triangle("Middle", 30.0, 60.0, 90.0)
            .trapezoid("Fast", 60.0, 120.0, 120.0, 120.0)
            .build()
            .unwrap();
        for mu in v.fuzzify(x) {
            prop_assert!((0.0..=1.0).contains(&mu));
        }
    }

    #[test]
    fn centroid_stays_inside_universe(peak in 0.05f64..0.95, height in 0.05f64..1.0) {
        let mf = MembershipFunction::triangular(peak - 0.05, peak, peak + 0.05).unwrap();
        let mut set = FuzzySet::empty(0.0, 1.0, 301).unwrap();
        set.aggregate_clipped(&mf, height);
        let c = centroid(&set, "x").unwrap();
        prop_assert!((0.0..=1.0).contains(&c));
        // the centroid should be near the (symmetric) peak
        prop_assert!((c - peak).abs() < 0.05, "centroid {} vs peak {}", c, peak);
    }

    #[test]
    fn engine_output_always_within_output_universe(t in 0.0f64..40.0, h in 0.0f64..100.0) {
        let e = fan_engine();
        let out = e.infer(&[t, h]).unwrap();
        let fan_speed = out.crisp_or("fan", 50.0);
        prop_assert!((0.0..=100.0).contains(&fan_speed));
    }

    #[test]
    fn compiled_engine_is_bit_identical_to_interpreted(
        t in 0.0f64..=40.0,
        h in 0.0f64..=100.0,
    ) {
        let e = fan_engine();
        let compiled = e.compile().unwrap();
        let mut scratch = compiled.scratch();
        let fast = compiled.infer_into(&[t, h], &mut scratch)[0];
        let reference = e.infer(&[t, h]).unwrap().crisp_or("fan", 50.0);
        prop_assert_eq!(fast.to_bits(), reference.to_bits());
    }
}
