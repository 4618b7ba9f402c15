//! Discretised fuzzy sets over a one-dimensional universe of discourse.
//!
//! During Mamdani inference each fired rule clips its consequent
//! membership function; the clipped sets are aggregated into one output set
//! per output variable, which is then defuzzified.  [`FuzzySet`] is that
//! aggregated, sampled representation.

use crate::clamp_degree;
use crate::error::{FuzzyError, Result};
use crate::membership::MembershipFunction;
use serde::{Deserialize, Serialize};

/// A fuzzy set sampled on a uniform grid over `[min, max]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzySet {
    min: f64,
    max: f64,
    degrees: Vec<f64>,
}

impl FuzzySet {
    /// An empty (all-zero) set over `[min, max]` sampled at `resolution`
    /// points (at least 2).
    pub fn empty(min: f64, max: f64, resolution: usize) -> Result<Self> {
        if !(min.is_finite() && max.is_finite()) || min >= max {
            return Err(FuzzyError::InvalidUniverse {
                variable: "<anonymous set>".into(),
                min,
                max,
            });
        }
        let resolution = resolution.max(2);
        Ok(Self {
            min,
            max,
            degrees: vec![0.0; resolution],
        })
    }

    /// Sample a membership function over `[min, max]`.
    pub fn from_membership(
        mf: &MembershipFunction,
        min: f64,
        max: f64,
        resolution: usize,
    ) -> Result<Self> {
        let mut set = Self::empty(min, max, resolution)?;
        for i in 0..set.degrees.len() {
            let x = set.x_at(i);
            set.degrees[i] = mf.membership(x);
        }
        Ok(set)
    }

    /// Lower bound of the universe.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Upper bound of the universe.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Number of samples.
    #[must_use]
    pub fn resolution(&self) -> usize {
        self.degrees.len()
    }

    /// The sampled membership degrees.
    #[must_use]
    pub fn degrees(&self) -> &[f64] {
        &self.degrees
    }

    /// The `x` coordinate of sample `i`.
    #[must_use]
    pub fn x_at(&self, i: usize) -> f64 {
        let n = self.degrees.len();
        debug_assert!(i < n);
        self.min + (self.max - self.min) * (i as f64) / ((n - 1) as f64)
    }

    /// Membership degree at an arbitrary `x`, linearly interpolated between
    /// samples; 0 outside the universe.
    #[must_use]
    pub fn membership(&self, x: f64) -> f64 {
        if !x.is_finite() || x < self.min || x > self.max {
            return 0.0;
        }
        let n = self.degrees.len();
        let t = (x - self.min) / (self.max - self.min) * ((n - 1) as f64);
        let lo = t.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        let frac = t - lo as f64;
        clamp_degree(self.degrees[lo] * (1.0 - frac) + self.degrees[hi] * frac)
    }

    /// Merge another sampled membership function into this set, clipped at
    /// `height`, combining point-wise with the maximum.  This is the
    /// Mamdani "clip and aggregate" step.
    pub fn aggregate_clipped(&mut self, mf: &MembershipFunction, height: f64) {
        let height = clamp_degree(height);
        if height == 0.0 {
            return;
        }
        for i in 0..self.degrees.len() {
            let x = self.x_at(i);
            // Both operands are degrees in [0, 1]: no clamping needed.
            self.degrees[i] = self.degrees[i].max(mf.membership(x).min(height));
        }
    }

    /// The maximum membership degree of the set (its *height*).
    #[must_use]
    pub fn height(&self) -> f64 {
        self.degrees.iter().copied().fold(0.0, f64::max)
    }

    /// `true` if every sampled degree is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.degrees.iter().all(|&d| d == 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::MembershipFunction;

    fn tri(a: f64, b: f64, c: f64) -> MembershipFunction {
        MembershipFunction::triangular(a, b, c).unwrap()
    }

    #[test]
    fn empty_set_properties() {
        let s = FuzzySet::empty(0.0, 1.0, 11).unwrap();
        assert_eq!(s.resolution(), 11);
        assert!(s.is_empty());
        assert_eq!(s.height(), 0.0);
        assert_eq!(s.membership(0.5), 0.0);
    }

    #[test]
    fn empty_rejects_bad_universe() {
        assert!(FuzzySet::empty(1.0, 1.0, 10).is_err());
        assert!(FuzzySet::empty(2.0, 1.0, 10).is_err());
        assert!(FuzzySet::empty(f64::NAN, 1.0, 10).is_err());
    }

    #[test]
    fn resolution_is_clamped_to_two() {
        let s = FuzzySet::empty(0.0, 1.0, 0).unwrap();
        assert_eq!(s.resolution(), 2);
    }

    #[test]
    fn from_membership_samples_correctly() {
        let s = FuzzySet::from_membership(&tri(0.0, 5.0, 10.0), 0.0, 10.0, 101).unwrap();
        assert!((s.membership(5.0) - 1.0).abs() < 1e-9);
        assert!((s.membership(2.5) - 0.5).abs() < 1e-9);
        assert_eq!(s.membership(-1.0), 0.0);
        assert!((s.height() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn x_at_endpoints() {
        let s = FuzzySet::empty(2.0, 4.0, 5).unwrap();
        assert_eq!(s.x_at(0), 2.0);
        assert_eq!(s.x_at(4), 4.0);
        assert!((s.x_at(2) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_clipped_respects_height() {
        let mut s = FuzzySet::empty(0.0, 10.0, 101).unwrap();
        s.aggregate_clipped(&tri(0.0, 5.0, 10.0), 0.6);
        assert!((s.height() - 0.6).abs() < 1e-9);
        // Clipping at zero is a no-op.
        let mut s2 = FuzzySet::empty(0.0, 10.0, 101).unwrap();
        s2.aggregate_clipped(&tri(0.0, 5.0, 10.0), 0.0);
        assert!(s2.is_empty());
    }

    #[test]
    fn aggregation_takes_pointwise_max() {
        let mut s = FuzzySet::empty(0.0, 10.0, 201).unwrap();
        s.aggregate_clipped(&tri(0.0, 2.0, 4.0), 1.0);
        s.aggregate_clipped(&tri(6.0, 8.0, 10.0), 0.5);
        assert!((s.membership(2.0) - 1.0).abs() < 1e-9);
        assert!((s.membership(8.0) - 0.5).abs() < 1e-9);
        assert!(s.membership(5.0) < 0.3);
    }

    #[test]
    fn membership_interpolates_between_samples() {
        let s = FuzzySet::from_membership(&tri(0.0, 1.0, 1.0), 0.0, 1.0, 2).unwrap();
        assert_eq!(s.degrees(), &[0.0, 1.0]);
        assert!((s.membership(0.25) - 0.25).abs() < 1e-12);
        assert!((s.membership(0.75) - 0.75).abs() < 1e-12);
    }
}
