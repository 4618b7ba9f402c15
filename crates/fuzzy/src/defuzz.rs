//! Defuzzification methods.
//!
//! The aggregated output [`FuzzySet`] produced by the inference engine is
//! collapsed to a crisp value.  The paper's controllers use the centre of
//! area (centroid); the other methods are provided for ablation and for
//! completeness.

use crate::error::{FuzzyError, Result};
use crate::set::FuzzySet;
use serde::{Deserialize, Serialize};

/// Strategy for collapsing a fuzzy set to a crisp value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Defuzzifier {
    /// Centre of area / gravity: `∫ x μ(x) dx / ∫ μ(x) dx`.
    #[default]
    Centroid,
    /// The `x` that splits the area under `μ` into two equal halves.
    Bisector,
    /// Mean of the maxima.
    MeanOfMaxima,
    /// Smallest of the maxima.
    SmallestOfMaxima,
    /// Largest of the maxima.
    LargestOfMaxima,
}

impl Defuzzifier {
    /// Defuzzify `set`.
    ///
    /// Returns [`FuzzyError::EmptyOutput`] when the set has no support
    /// (no rule fired) — callers that want a fallback should use
    /// [`Defuzzifier::defuzzify_or`].
    pub fn defuzzify(self, set: &FuzzySet, variable: &str) -> Result<f64> {
        if set.is_empty() {
            return Err(FuzzyError::EmptyOutput {
                variable: variable.to_string(),
            });
        }
        Ok(match self {
            Defuzzifier::Centroid => centroid(set),
            Defuzzifier::Bisector => bisector(set),
            Defuzzifier::MeanOfMaxima => mean_of_maxima(set),
            Defuzzifier::SmallestOfMaxima => smallest_of_maxima(set),
            Defuzzifier::LargestOfMaxima => largest_of_maxima(set),
        })
    }

    /// Defuzzify, falling back to `default` when the set is empty.
    #[must_use]
    pub fn defuzzify_or(self, set: &FuzzySet, default: f64) -> f64 {
        self.defuzzify(set, "<fallback>").unwrap_or(default)
    }
}

fn centroid(set: &FuzzySet) -> f64 {
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
    if den == 0.0 {
        0.5 * (set.min() + set.max())
    } else {
        num / den
    }
}

fn bisector(set: &FuzzySet) -> f64 {
    let n = set.resolution();
    let total: f64 = set.degrees().iter().sum();
    if total == 0.0 {
        return 0.5 * (set.min() + set.max());
    }
    let half = total / 2.0;
    let mut acc = 0.0;
    for i in 0..n {
        acc += set.degrees()[i];
        if acc >= half {
            return set.x_at(i);
        }
    }
    set.max()
}

fn maxima_indices(set: &FuzzySet) -> Vec<usize> {
    let h = set.height();
    let tol = 1e-12;
    set.degrees()
        .iter()
        .enumerate()
        .filter(|(_, &d)| (d - h).abs() <= tol)
        .map(|(i, _)| i)
        .collect()
}

fn mean_of_maxima(set: &FuzzySet) -> f64 {
    let idx = maxima_indices(set);
    let sum: f64 = idx.iter().map(|&i| set.x_at(i)).sum();
    sum / idx.len() as f64
}

fn smallest_of_maxima(set: &FuzzySet) -> f64 {
    let idx = maxima_indices(set);
    set.x_at(idx[0])
}

fn largest_of_maxima(set: &FuzzySet) -> f64 {
    let idx = maxima_indices(set);
    set.x_at(*idx.last().expect("non-empty set has at least one maximum"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::MembershipFunction;
    use crate::norms::SNorm;

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
        let c = Defuzzifier::Centroid.defuzzify(&s, "x").unwrap();
        assert!((c - 5.0).abs() < 0.01);
    }

    #[test]
    fn centroid_of_asymmetric_triangle_leans_toward_fat_side() {
        let s = tri_set(0.0, 1.0, 10.0);
        let c = Defuzzifier::Centroid.defuzzify(&s, "x").unwrap();
        assert!(c > 1.0 && c < 5.5, "centroid {c}");
    }

    #[test]
    fn bisector_of_symmetric_triangle() {
        let s = tri_set(2.0, 5.0, 8.0);
        let b = Defuzzifier::Bisector.defuzzify(&s, "x").unwrap();
        assert!((b - 5.0).abs() < 0.05);
    }

    #[test]
    fn maxima_methods_on_plateau() {
        // Clip a triangle so its maximum is a plateau from 4 to 6.
        let mut s = FuzzySet::empty(0.0, 10.0, 1001).unwrap();
        s.aggregate_clipped(
            &MembershipFunction::triangular(0.0, 5.0, 10.0).unwrap(),
            0.8,
            SNorm::Maximum,
        );
        let mom = Defuzzifier::MeanOfMaxima.defuzzify(&s, "x").unwrap();
        let som = Defuzzifier::SmallestOfMaxima.defuzzify(&s, "x").unwrap();
        let lom = Defuzzifier::LargestOfMaxima.defuzzify(&s, "x").unwrap();
        assert!((mom - 5.0).abs() < 0.05);
        assert!((som - 4.0).abs() < 0.05);
        assert!((lom - 6.0).abs() < 0.05);
        assert!(som <= mom && mom <= lom);
    }

    #[test]
    fn empty_set_is_an_error() {
        let s = FuzzySet::empty(0.0, 10.0, 101).unwrap();
        for d in [
            Defuzzifier::Centroid,
            Defuzzifier::Bisector,
            Defuzzifier::MeanOfMaxima,
            Defuzzifier::SmallestOfMaxima,
            Defuzzifier::LargestOfMaxima,
        ] {
            assert!(matches!(
                d.defuzzify(&s, "out"),
                Err(FuzzyError::EmptyOutput { .. })
            ));
        }
    }

    #[test]
    fn defuzzify_or_falls_back() {
        let s = FuzzySet::empty(0.0, 10.0, 101).unwrap();
        assert_eq!(Defuzzifier::Centroid.defuzzify_or(&s, -1.0), -1.0);
        let t = tri_set(2.0, 5.0, 8.0);
        assert!((Defuzzifier::Centroid.defuzzify_or(&t, -1.0) - 5.0).abs() < 0.01);
    }

    #[test]
    fn all_methods_stay_within_universe() {
        let s = tri_set(0.0, 0.5, 1.5);
        for d in [
            Defuzzifier::Centroid,
            Defuzzifier::Bisector,
            Defuzzifier::MeanOfMaxima,
            Defuzzifier::SmallestOfMaxima,
            Defuzzifier::LargestOfMaxima,
        ] {
            let v = d.defuzzify(&s, "x").unwrap();
            assert!((0.0..=10.0).contains(&v), "{d:?} -> {v}");
        }
    }

    #[test]
    fn default_is_centroid() {
        assert_eq!(Defuzzifier::default(), Defuzzifier::Centroid);
    }
}
