//! Centroid defuzzification.
//!
//! The aggregated output [`FuzzySet`] produced by the inference engine is
//! collapsed to a crisp value by its centre of area, the method the
//! paper's controllers use.

use crate::error::{FuzzyError, Result};
use crate::set::FuzzySet;

/// Centre of area of `set`: `∫ x μ(x) dx / ∫ μ(x) dx`, by the trapezoidal
/// rule over its samples.
///
/// Returns [`FuzzyError::EmptyOutput`] naming `variable` when the set has
/// no support (no rule fired) — callers that want a fallback should use
/// [`centroid_or`].
pub fn centroid(set: &FuzzySet, variable: &str) -> Result<f64> {
    if set.is_empty() {
        return Err(FuzzyError::EmptyOutput {
            variable: variable.to_string(),
        });
    }
    let n = set.resolution();
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..n {
        let mu = set.degrees()[i];
        let x = set.x_at(i);
        // trapezoidal weights: half weight at the end points
        let w = if i == 0 || i == n - 1 { 0.5 } else { 1.0 };
        num += w * mu * x;
        den += w * mu;
    }
    Ok(if den == 0.0 {
        0.5 * (set.min() + set.max())
    } else {
        num / den
    })
}

/// [`centroid`], falling back to `default` when the set is empty.
#[must_use]
pub fn centroid_or(set: &FuzzySet, default: f64) -> f64 {
    centroid(set, "<fallback>").unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::MembershipFunction;

    fn tri_set(a: f64, b: f64, c: f64) -> FuzzySet {
        FuzzySet::from_membership(
            &MembershipFunction::triangular(a, b, c).unwrap(),
            0.0,
            10.0,
            1001,
        )
        .unwrap()
    }

    #[test]
    fn centroid_of_symmetric_triangle_is_its_peak() {
        let s = tri_set(2.0, 5.0, 8.0);
        let c = centroid(&s, "x").unwrap();
        assert!((c - 5.0).abs() < 0.01);
    }

    #[test]
    fn centroid_of_asymmetric_triangle_leans_toward_fat_side() {
        let s = tri_set(0.0, 1.0, 10.0);
        let c = centroid(&s, "x").unwrap();
        assert!(c > 1.0 && c < 5.5, "centroid {c}");
    }

    #[test]
    fn empty_set_is_an_error() {
        let s = FuzzySet::empty(0.0, 10.0, 101).unwrap();
        assert!(matches!(
            centroid(&s, "out"),
            Err(FuzzyError::EmptyOutput { .. })
        ));
    }

    #[test]
    fn defuzzify_or_falls_back() {
        let s = FuzzySet::empty(0.0, 10.0, 101).unwrap();
        assert_eq!(centroid_or(&s, -1.0), -1.0);
        let t = tri_set(2.0, 5.0, 8.0);
        assert!((centroid_or(&t, -1.0) - 5.0).abs() < 0.01);
    }

    #[test]
    fn centroid_stays_within_universe() {
        let s = tri_set(0.0, 0.5, 1.5);
        let v = centroid(&s, "x").unwrap();
        assert!((0.0..=10.0).contains(&v), "{v}");
    }
}
