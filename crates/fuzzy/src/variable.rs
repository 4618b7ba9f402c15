//! Linguistic variables and their term sets.
//!
//! A [`LinguisticVariable`] is a named quantity (e.g. "speed") with a bounded
//! universe of discourse and a set of named [`Term`]s, each carrying a
//! [`MembershipFunction`].  Fuzzification of a crisp value is simply the
//! evaluation of every term's membership at that value.

use crate::error::{FuzzyError, Result};
use crate::membership::MembershipFunction;
use serde::{Deserialize, Serialize};

/// A named linguistic term (e.g. "Slow") with its membership function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Term {
    name: String,
    membership: MembershipFunction,
}

impl Term {
    /// Create a term from a name and a membership function.
    pub fn new(name: impl Into<String>, membership: MembershipFunction) -> Self {
        Self {
            name: name.into(),
            membership,
        }
    }

    /// The term's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The term's membership function.
    #[must_use]
    pub fn membership_function(&self) -> &MembershipFunction {
        &self.membership
    }

    /// Membership degree of `x` in this term.
    #[must_use]
    pub fn membership(&self, x: f64) -> f64 {
        self.membership.membership(x)
    }
}

/// A linguistic variable: name + universe of discourse + term set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinguisticVariable {
    name: String,
    min: f64,
    max: f64,
    terms: Vec<Term>,
}

impl LinguisticVariable {
    /// Start building a variable named `name` over the universe `[min, max]`.
    pub fn builder(name: impl Into<String>, min: f64, max: f64) -> VariableBuilder {
        VariableBuilder::new(name, min, max)
    }

    /// Construct directly from parts (prefer [`LinguisticVariable::builder`]).
    pub fn new(name: impl Into<String>, min: f64, max: f64, terms: Vec<Term>) -> Result<Self> {
        let name = name.into();
        if !(min.is_finite() && max.is_finite()) || min >= max {
            return Err(FuzzyError::InvalidUniverse {
                variable: name,
                min,
                max,
            });
        }
        if terms.is_empty() {
            return Err(FuzzyError::InvalidTerms {
                variable: name,
                reason: "term set is empty".into(),
            });
        }
        for (i, t) in terms.iter().enumerate() {
            if terms[..i].iter().any(|u| u.name() == t.name()) {
                return Err(FuzzyError::InvalidTerms {
                    variable: name,
                    reason: format!("duplicate term name `{}`", t.name()),
                });
            }
        }
        Ok(Self {
            name,
            min,
            max,
            terms,
        })
    }

    /// The variable's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Lower bound of the universe of discourse.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Upper bound of the universe of discourse.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The term set.
    #[must_use]
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Number of terms.
    #[must_use]
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Look up a term by name.
    #[must_use]
    pub fn term(&self, name: &str) -> Option<&Term> {
        self.terms.iter().find(|t| t.name() == name)
    }

    /// Index of a term by name.
    #[must_use]
    pub fn term_index(&self, name: &str) -> Option<usize> {
        self.terms.iter().position(|t| t.name() == name)
    }

    /// Clamp a crisp value into the universe of discourse.
    #[must_use]
    pub fn clamp(&self, x: f64) -> f64 {
        x.clamp(self.min, self.max)
    }

    /// Fuzzify a crisp value: membership degree of every term, in term order.
    ///
    /// The value is clamped into the universe first (the paper's controllers
    /// always receive in-range measurements, but a simulation substrate may
    /// produce values marginally outside due to floating point).
    #[must_use]
    pub fn fuzzify(&self, x: f64) -> Vec<f64> {
        let x = self.clamp(x);
        self.terms.iter().map(|t| t.membership(x)).collect()
    }

    /// Fuzzify and pair each degree with its term name.
    #[must_use]
    pub fn fuzzify_named(&self, x: f64) -> Vec<(&str, f64)> {
        let x = self.clamp(x);
        self.terms
            .iter()
            .map(|t| (t.name(), t.membership(x)))
            .collect()
    }

    /// The name of the term with the highest membership at `x`
    /// (ties broken by term order).
    #[must_use]
    pub fn best_term(&self, x: f64) -> &str {
        let x = self.clamp(x);
        let mut best = 0usize;
        let mut best_mu = f64::NEG_INFINITY;
        for (i, t) in self.terms.iter().enumerate() {
            let mu = t.membership(x);
            if mu > best_mu {
                best = i;
                best_mu = mu;
            }
        }
        self.terms[best].name()
    }

    /// Check that the term set *covers* the universe: every sampled point has
    /// at least one term with membership >= `epsilon`.
    ///
    /// Useful as a sanity check when defining controllers — an uncovered gap
    /// means no rule can fire there.
    #[must_use]
    pub fn covers_universe(&self, epsilon: f64, samples: usize) -> bool {
        let samples = samples.max(2);
        for i in 0..samples {
            let x = self.min + (self.max - self.min) * (i as f64) / ((samples - 1) as f64);
            let max_mu = self
                .terms
                .iter()
                .map(|t| t.membership(x))
                .fold(0.0, f64::max);
            if max_mu < epsilon {
                return false;
            }
        }
        true
    }
}

/// Builder for [`LinguisticVariable`].
#[derive(Debug, Clone)]
pub struct VariableBuilder {
    name: String,
    min: f64,
    max: f64,
    terms: Vec<Term>,
    error: Option<FuzzyError>,
}

impl VariableBuilder {
    fn new(name: impl Into<String>, min: f64, max: f64) -> Self {
        Self {
            name: name.into(),
            min,
            max,
            terms: Vec::new(),
            error: None,
        }
    }

    /// Add a pre-built term.
    #[must_use]
    pub fn term(mut self, term: Term) -> Self {
        self.terms.push(term);
        self
    }

    fn push(mut self, name: &str, mf: Result<MembershipFunction>) -> Self {
        match mf {
            Ok(mf) => self.terms.push(Term::new(name, mf)),
            Err(e) => {
                if self.error.is_none() {
                    self.error = Some(e);
                }
            }
        }
        self
    }

    /// Add a triangular term with explicit break-points `a <= b <= c`.
    #[must_use]
    pub fn triangle(self, name: &str, a: f64, b: f64, c: f64) -> Self {
        let mf = MembershipFunction::triangular(a, b, c);
        self.push(name, mf)
    }

    /// Add a trapezoidal term with explicit break-points `a <= b <= c <= d`.
    #[must_use]
    pub fn trapezoid(self, name: &str, a: f64, b: f64, c: f64, d: f64) -> Self {
        let mf = MembershipFunction::trapezoidal(a, b, c, d);
        self.push(name, mf)
    }

    /// Finish building the variable.
    pub fn build(self) -> Result<LinguisticVariable> {
        if let Some(e) = self.error {
            return Err(e);
        }
        LinguisticVariable::new(self.name, self.min, self.max, self.terms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speed() -> LinguisticVariable {
        LinguisticVariable::builder("speed", 0.0, 120.0)
            .triangle("Slow", 0.0, 0.0, 60.0)
            .triangle("Middle", 30.0, 60.0, 90.0)
            .trapezoid("Fast", 60.0, 120.0, 120.0, 120.0)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_builds_terms_in_order() {
        let v = speed();
        assert_eq!(v.name(), "speed");
        assert_eq!(v.term_count(), 3);
        assert_eq!(v.terms()[0].name(), "Slow");
        assert_eq!(v.terms()[2].name(), "Fast");
        assert_eq!(v.min(), 0.0);
        assert_eq!(v.max(), 120.0);
    }

    #[test]
    fn builder_propagates_membership_errors() {
        let r = LinguisticVariable::builder("bad", 0.0, 1.0)
            .triangle("broken", 1.0, 0.5, 0.0)
            .build();
        assert!(matches!(r, Err(FuzzyError::InvalidMembership { .. })));
    }

    #[test]
    fn rejects_empty_terms_and_bad_universe() {
        assert!(matches!(
            LinguisticVariable::builder("x", 0.0, 1.0).build(),
            Err(FuzzyError::InvalidTerms { .. })
        ));
        assert!(matches!(
            LinguisticVariable::builder("x", 1.0, 0.0)
                .triangle("t", 0.0, 0.5, 1.0)
                .build(),
            Err(FuzzyError::InvalidUniverse { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_term_names() {
        let r = LinguisticVariable::builder("x", 0.0, 1.0)
            .triangle("A", 0.0, 0.0, 1.0)
            .triangle("A", 0.0, 1.0, 1.0)
            .build();
        assert!(matches!(r, Err(FuzzyError::InvalidTerms { .. })));
    }

    #[test]
    fn fuzzify_returns_one_degree_per_term() {
        let v = speed();
        let degrees = v.fuzzify(45.0);
        assert_eq!(degrees.len(), 3);
        // 45 km/h: Slow = (60-45)/60 = 0.25, Middle = (45-30)/30 = 0.5, Fast = 0.
        assert!((degrees[0] - 0.25).abs() < 1e-12);
        assert!((degrees[1] - 0.5).abs() < 1e-12);
        assert_eq!(degrees[2], 0.0);
    }

    #[test]
    fn fuzzify_clamps_out_of_range() {
        let v = speed();
        let lo = v.fuzzify(-10.0);
        let hi = v.fuzzify(500.0);
        assert_eq!(lo[0], 1.0);
        assert_eq!(hi[2], 1.0);
    }

    #[test]
    fn fuzzify_named_pairs() {
        let v = speed();
        let named = v.fuzzify_named(0.0);
        assert_eq!(named[0], ("Slow", 1.0));
    }

    #[test]
    fn term_lookup() {
        let v = speed();
        assert!(v.term("Middle").is_some());
        assert!(v.term("Ludicrous").is_none());
        assert_eq!(v.term_index("Fast"), Some(2));
    }

    #[test]
    fn best_term_picks_max() {
        let v = speed();
        assert_eq!(v.best_term(0.0), "Slow");
        assert_eq!(v.best_term(60.0), "Middle");
        assert_eq!(v.best_term(119.0), "Fast");
    }

    #[test]
    fn coverage_check() {
        let v = speed();
        assert!(v.covers_universe(1e-6, 200));
        let gappy = LinguisticVariable::builder("gappy", 0.0, 100.0)
            .triangle("Low", 0.0, 10.0, 20.0)
            .triangle("High", 80.0, 90.0, 100.0)
            .build()
            .unwrap();
        assert!(!gappy.covers_universe(1e-6, 200));
    }
}
