//! The Mamdani fuzzy-logic engine behind the paper's controllers.
//!
//! This crate implements the fuzzy-logic building blocks used by the
//! FACS / FACS-P call-admission controllers described in
//! *"A Fuzzy-based Call Admission Control Scheme for Wireless Cellular
//! Networks Considering Priority of On-going Connections"* (ICDCSW 2009),
//! and only those: triangular and trapezoidal terms, and the classical
//! Mamdani operators.  Nothing in here knows about cellular networks.
//!
//! # Overview
//!
//! A Mamdani fuzzy controller is assembled from four elements (Fig. 2 of
//! the paper):
//!
//! 1. a **fuzzifier** — [`LinguisticVariable`]s map crisp inputs to
//!    membership degrees of linguistic *terms* (e.g. speed 35 km/h is
//!    `Middle` with degree 0.83 and `Slow` with degree 0.17);
//! 2. a **fuzzy rule base** — a [`RuleBase`] of IF/THEN [`Rule`]s over those
//!    terms, each one row of a complete AND table like the paper's FRB1
//!    and FRB2: one term per input, one output term ([`Rule::row`]);
//! 3. an **inference engine** — [`MamdaniEngine`] evaluates every rule
//!    (AND as the minimum), clips the consequent membership function at
//!    the rule's firing strength and aggregates the clipped sets with the
//!    maximum;
//! 4. a **defuzzifier** — the centroid ([`defuzz::centroid`]) collapses
//!    the aggregated output set back to a crisp number.
//!
//! # Quick example
//!
//! ```
//! use fuzzy::prelude::*;
//!
//! // A toy controller: IF temperature is Hot THEN fan is Fast.
//! let temperature = LinguisticVariable::builder("temperature", 0.0, 40.0)
//!     .triangle("Cold", 0.0, 0.0, 20.0)
//!     .triangle("Warm", 10.0, 20.0, 30.0)
//!     .triangle("Hot", 20.0, 40.0, 40.0)
//!     .build()
//!     .unwrap();
//! let fan = LinguisticVariable::builder("fan", 0.0, 100.0)
//!     .triangle("Slow", 0.0, 0.0, 50.0)
//!     .triangle("Fast", 50.0, 100.0, 100.0)
//!     .build()
//!     .unwrap();
//!
//! let mut engine = MamdaniEngine::builder()
//!     .input(temperature)
//!     .output(fan)
//!     .build()
//!     .unwrap();
//! engine.add_rule(Rule::row(&[("temperature", "Hot")], "fan", "Fast")).unwrap();
//! engine.add_rule(Rule::row(&[("temperature", "Cold")], "fan", "Slow")).unwrap();
//!
//! let out = engine.infer(&[35.0]).unwrap();
//! assert!(out.crisp("fan").unwrap() > 60.0);
//! ```
//!
//! # Design notes
//!
//! * [`MembershipFunction`] has the paper's two shapes (Fig. 3), the
//!   triangle `f(x)` and the trapezoid `g(x)`, both given by their
//!   break-points.
//! * All computation is `f64`; degrees are always clamped to `[0, 1]`.
//! * The crate is `#![forbid(unsafe_code)]` and has no non-`serde`
//!   dependencies.
//!
//! # Hot paths: compile/execute and LUTs
//!
//! [`MamdaniEngine::infer`] is the string-keyed reference path. For code
//! that runs inference in a loop, [`MamdaniEngine::compile`] lowers the
//! engine into a [`CompiledEngine`] whose
//! [`infer_into`](compile::CompiledEngine::infer_into) is allocation-free
//! and bit-identical to `infer`; [`Lut2d`] goes one step further and
//! pre-tabulates any 2-input compiled controller with a measured error
//! bound. See the [`compile`] and [`lut`] module docs for examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compile;
pub mod defuzz;
pub mod engine;
pub mod error;
pub mod lut;
pub mod membership;
pub mod rule;
pub mod set;
pub mod variable;

pub use compile::{CompiledEngine, Scratch, TermId, VarId};
pub use engine::{EngineBuilder, InferenceOutput, MamdaniEngine};
pub use error::{FuzzyError, Result};
pub use lut::Lut2d;
pub use membership::MembershipFunction;
pub use rule::{Clause, Rule, RuleBase};
pub use set::FuzzySet;
pub use variable::{LinguisticVariable, Term, VariableBuilder};

/// Convenience re-exports for users who want everything in scope.
pub mod prelude {
    pub use crate::compile::{CompiledEngine, Scratch, TermId, VarId};
    pub use crate::engine::{EngineBuilder, InferenceOutput, MamdaniEngine};
    pub use crate::error::{FuzzyError, Result};
    pub use crate::lut::Lut2d;
    pub use crate::membership::MembershipFunction;
    pub use crate::rule::{Clause, Rule, RuleBase};
    pub use crate::set::FuzzySet;
    pub use crate::variable::{LinguisticVariable, Term, VariableBuilder};
}

/// Default number of samples used when a fuzzy set over a continuous
/// universe has to be discretised (aggregation, defuzzification).
pub const DEFAULT_RESOLUTION: usize = 201;

/// Clamp a membership degree into the valid `[0, 1]` range.
///
/// NaN inputs are mapped to `0.0` so that a single degenerate membership
/// evaluation can never poison an entire inference run.
#[inline]
#[must_use]
pub fn clamp_degree(mu: f64) -> f64 {
    if mu.is_nan() {
        0.0
    } else {
        mu.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_degree_bounds() {
        assert_eq!(clamp_degree(-0.5), 0.0);
        assert_eq!(clamp_degree(0.0), 0.0);
        assert_eq!(clamp_degree(0.5), 0.5);
        assert_eq!(clamp_degree(1.0), 1.0);
        assert_eq!(clamp_degree(1.5), 1.0);
    }

    #[test]
    fn clamp_degree_nan_is_zero() {
        assert_eq!(clamp_degree(f64::NAN), 0.0);
    }

    #[test]
    fn doc_example_compiles_and_runs() {
        use crate::prelude::*;
        let temperature = LinguisticVariable::builder("temperature", 0.0, 40.0)
            .triangle("Cold", 0.0, 0.0, 20.0)
            .triangle("Warm", 10.0, 20.0, 30.0)
            .triangle("Hot", 20.0, 40.0, 40.0)
            .build()
            .unwrap();
        let fan = LinguisticVariable::builder("fan", 0.0, 100.0)
            .triangle("Slow", 0.0, 0.0, 50.0)
            .triangle("Fast", 50.0, 100.0, 100.0)
            .build()
            .unwrap();
        let mut engine = MamdaniEngine::builder()
            .input(temperature)
            .output(fan)
            .build()
            .unwrap();
        engine
            .add_rule(Rule::row(&[("temperature", "Hot")], "fan", "Fast"))
            .unwrap();
        engine
            .add_rule(Rule::row(&[("temperature", "Cold")], "fan", "Slow"))
            .unwrap();
        let out = engine.infer(&[35.0]).unwrap();
        assert!(out.crisp("fan").unwrap() > 60.0);
    }
}
