//! The compile/execute contract for the paper's controllers: the compiled
//! hot path must be **bit-identical** to the string-keyed interpreted
//! engine across a dense input grid, and the LUT backend must stay within
//! its measured error bound (`< 1e-3` at the default resolution).

use facs::{Flc1, Flc2, Flc2Lut, PaperParams};

/// Compare two decision paths bit for bit and report the first divergence.
fn assert_bit_identical(a: f64, b: f64, context: &str) {
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "compiled/interpreted divergence at {context}: {a:?} vs {b:?}"
    );
}

#[test]
fn flc1_compiled_matches_interpreted_over_dense_grid() {
    let flc1 = Flc1::paper_default().unwrap();
    let engine = flc1.engine();
    let mut checked = 0usize;
    for speed_step in 0..=12 {
        let speed = f64::from(speed_step) * 10.0;
        for angle_step in 0..=24 {
            let angle = -180.0 + f64::from(angle_step) * 15.0;
            for sr_step in 0..=10 {
                let sr = f64::from(sr_step);
                // The controller's compiled path (clamped to [0, 1])...
                let compiled = flc1.correction_value(speed, angle, sr);
                // ...must reproduce the interpreted reference bit for bit.
                let interpreted = engine
                    .infer(&[speed, angle, sr])
                    .unwrap()
                    .crisp_or("Cv", 0.5)
                    .clamp(0.0, 1.0);
                assert_bit_identical(
                    compiled,
                    interpreted,
                    &format!("Sp={speed} An={angle} Sr={sr}"),
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 13 * 25 * 11);
}

#[test]
fn distance_flc1_compiled_matches_interpreted_over_dense_grid() {
    let flc1 = Flc1::distance().unwrap();
    let engine = flc1.engine();
    for speed_step in 0..=6 {
        let speed = f64::from(speed_step) * 20.0;
        for angle_step in 0..=12 {
            let angle = -180.0 + f64::from(angle_step) * 30.0;
            for di_step in 0..=10 {
                let di = f64::from(di_step) * 100.0;
                let compiled = flc1.correction_value(speed, angle, di);
                let interpreted = engine
                    .infer(&[speed, angle, di])
                    .unwrap()
                    .crisp_or("Cv", 0.5)
                    .clamp(0.0, 1.0);
                assert_bit_identical(
                    compiled,
                    interpreted,
                    &format!("Sp={speed} An={angle} Di={di}"),
                );
            }
        }
    }
}

#[test]
fn flc2_compiled_matches_interpreted_over_dense_grid() {
    let flc2 = Flc2::paper_default().unwrap();
    let engine = flc2.engine();
    for cv_step in 0..=20 {
        let cv = f64::from(cv_step) * 0.05;
        for rq in [1.0, 2.5, 5.0, 7.5, 10.0] {
            for cs_step in 0..=20 {
                let cs = f64::from(cs_step) * 2.0;
                let compiled = flc2.decision_value(cv, rq, cs);
                let interpreted = engine
                    .infer(&[cv, rq, cs])
                    .unwrap()
                    .crisp_or("AR", 0.0)
                    .clamp(-1.0, 1.0);
                assert_bit_identical(compiled, interpreted, &format!("Cv={cv} Rq={rq} Cs={cs}"));
            }
        }
    }
}

#[test]
fn flc2_compiled_matches_interpreted_with_custom_capacity() {
    let flc2 = Flc2::with_capacity(160.0).unwrap();
    let engine = flc2.engine();
    for cv in [0.0, 0.31, 0.5, 0.77, 1.0] {
        for rq in [1.0, 5.0, 10.0] {
            for cs in [0.0, 40.0, 80.0, 120.0, 160.0] {
                let compiled = flc2.decision_value(cv, rq, cs);
                let interpreted = engine
                    .infer(&[cv, rq, cs])
                    .unwrap()
                    .crisp_or("AR", 0.0)
                    .clamp(-1.0, 1.0);
                assert_bit_identical(compiled, interpreted, &format!("Cv={cv} Rq={rq} Cs={cs}"));
            }
        }
    }
}

#[test]
fn lut_error_is_bounded() {
    // On an off-grid lattice of correction values, at every tabulated
    // counter state, the LUT's score stays within `max_error` of the
    // compiled score and never crosses the threshold without it; any other
    // counter state is the compiled score itself.
    let flc2 = Flc2::paper_default().unwrap();
    let lut = flc2.compile_lut().unwrap();
    assert!(lut.max_error() < 2.5e-3, "max_error {}", lut.max_error());
    let states: Vec<f64> = lut.counter_states().collect();
    let mut worst = 0.0f64;
    for cv_step in 0..=97 {
        let cv = f64::from(cv_step) / 97.0;
        for rq in [1.0, 5.0, 10.0] {
            for &cs in &states {
                let exact = flc2.decision_value(cv, rq, cs);
                let approx = lut.decision_value(cv, rq, cs);
                worst = worst.max((exact - approx).abs());
                assert_eq!(
                    approx > PaperParams::ACCEPT_THRESHOLD,
                    exact > PaperParams::ACCEPT_THRESHOLD,
                    "Cv={cv} Rq={rq} Cs={cs}: LUT {approx}, compiled {exact}"
                );
            }
            for cs_step in 0..=83 {
                let cs = 40.0 * f64::from(cs_step) / 83.0;
                if !states.contains(&cs) {
                    let exact = flc2.decision_value(cv, rq, cs);
                    assert_bit_identical(lut.decision_value(cv, rq, cs), exact, "off-grid Cs");
                }
            }
        }
    }
    assert!(
        worst <= lut.max_error(),
        "observed error {worst} exceeds max_error {}",
        lut.max_error()
    );
}

#[test]
fn lut_falls_back_to_exact_for_untabulated_classes() {
    let flc2 = Flc2::paper_default().unwrap();
    let lut = Flc2Lut::paper_shared();
    assert_eq!(lut.tabulated_classes(), vec![1.0, 5.0, 10.0]);
    // 3.3 BU is no paper class: the LUT must defer to the compiled engine.
    assert_eq!(lut.tabulated_value(0.6, 3.3, 17.0), None);
    let exact = flc2.decision_value(0.6, 3.3, 17.0);
    assert_bit_identical(lut.decision_value(0.6, 3.3, 17.0), exact, "Rq=3.3");
}

#[test]
fn flc1_paper_universes_are_fully_interned() {
    // The compiled engine must have interned the paper's exact shape.
    let flc1 = Flc1::paper_default().unwrap();
    let c = flc1.compiled();
    assert_eq!(c.input_count(), 3);
    assert_eq!(c.output_count(), 1);
    assert_eq!(c.rule_count(), 63);
    let sp = c.input_id("Sp").unwrap();
    assert_eq!(c.input_bounds(sp), (0.0, PaperParams::SPEED_MAX_KMH));
    let an = c.input_id("An").unwrap();
    assert_eq!(
        c.input_bounds(an),
        (-PaperParams::ANGLE_MAX_DEG, PaperParams::ANGLE_MAX_DEG)
    );
    assert!(c.input_term_id(an, "St").is_some());
    assert!(c.output_id("Cv").is_some());
}
