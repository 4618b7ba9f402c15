//! Error types for the fuzzy-logic library.

use crate::compile::{MAX_GRID_CELLS, MAX_GRID_INPUTS};
use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, FuzzyError>;

/// Errors produced while building or running fuzzy controllers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FuzzyError {
    /// A membership function was constructed with invalid geometry
    /// (e.g. negative width, or break-points out of order).
    InvalidMembership {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A linguistic variable was declared with an empty or inverted universe.
    InvalidUniverse {
        /// Name of the offending variable.
        variable: String,
        /// Lower bound supplied by the caller.
        min: f64,
        /// Upper bound supplied by the caller.
        max: f64,
    },
    /// A variable was declared with no terms, or with duplicate term names.
    InvalidTerms {
        /// Name of the offending variable.
        variable: String,
        /// Description of what is wrong with the term set.
        reason: String,
    },
    /// Two inputs, or two outputs, of an engine share a name: rules name
    /// their variables, so the name would resolve to either.
    DuplicateVariable {
        /// The shared name.
        name: String,
    },
    /// A rule references a variable that the engine does not know about.
    UnknownVariable {
        /// The variable name that failed to resolve.
        name: String,
    },
    /// A rule references a term that does not exist on its variable.
    UnknownTerm {
        /// The variable whose term set was searched.
        variable: String,
        /// The term name that failed to resolve.
        term: String,
    },
    /// A rule is not one row of the engine's table: one clause per input
    /// in declaration order and one consequent, on a term tuple that has
    /// no other rule.
    InvalidRule {
        /// The offending rule, as displayed.
        rule: String,
        /// What makes it not a row.
        reason: String,
    },
    /// The engine's rule table has more cells (the product of the input
    /// term counts) or more inputs than a compiled engine indexes.
    TableTooLarge {
        /// Cells of the table (saturated at `usize::MAX`).
        cells: usize,
        /// Declared inputs.
        inputs: usize,
    },
    /// `infer` was called with the wrong number of crisp inputs.
    InputArity {
        /// Number of declared input variables.
        expected: usize,
        /// Number of crisp values supplied.
        got: usize,
    },
    /// A crisp input was not a finite number.
    NonFiniteInput {
        /// Name of the input variable.
        variable: String,
        /// The offending value.
        value: f64,
    },
    /// The engine was built without inputs, outputs or rules.
    EmptyEngine {
        /// Which part of the engine is missing.
        missing: &'static str,
    },
    /// Defuzzification was attempted on a set with zero area / empty support
    /// and no fallback was configured.
    EmptyOutput {
        /// Name of the output variable whose aggregated set was empty.
        variable: String,
    },
    /// An output variable name passed to a lookup did not exist.
    UnknownOutput {
        /// The requested output name.
        name: String,
    },
    /// A lookup table could not be tabulated (wrong engine shape, bad
    /// bounds or a degenerate grid).
    InvalidLut {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for FuzzyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuzzyError::InvalidMembership { reason } => {
                write!(f, "invalid membership function: {reason}")
            }
            FuzzyError::InvalidUniverse { variable, min, max } => write!(
                f,
                "invalid universe [{min}, {max}] for linguistic variable `{variable}`"
            ),
            FuzzyError::InvalidTerms { variable, reason } => {
                write!(f, "invalid term set for `{variable}`: {reason}")
            }
            FuzzyError::DuplicateVariable { name } => {
                write!(
                    f,
                    "two variables on one side of the engine are named `{name}`"
                )
            }
            FuzzyError::UnknownVariable { name } => {
                write!(f, "unknown linguistic variable `{name}`")
            }
            FuzzyError::UnknownTerm { variable, term } => {
                write!(f, "variable `{variable}` has no term named `{term}`")
            }
            FuzzyError::InvalidRule { rule, reason } => {
                write!(f, "rule `{rule}` is not a table row: {reason}")
            }
            FuzzyError::TableTooLarge { cells, inputs } => write!(
                f,
                "a rule table of {cells} cells over {inputs} inputs is too large to compile \
                 (at most {MAX_GRID_CELLS} cells and {MAX_GRID_INPUTS} inputs)"
            ),
            FuzzyError::InputArity { expected, got } => {
                write!(f, "expected {expected} crisp inputs, got {got}")
            }
            FuzzyError::NonFiniteInput { variable, value } => {
                write!(f, "non-finite input {value} for variable `{variable}`")
            }
            FuzzyError::EmptyEngine { missing } => {
                write!(f, "engine cannot be built: no {missing} declared")
            }
            FuzzyError::EmptyOutput { variable } => write!(
                f,
                "aggregated output for `{variable}` is empty; no rule fired"
            ),
            FuzzyError::UnknownOutput { name } => {
                write!(f, "unknown output variable `{name}`")
            }
            FuzzyError::InvalidLut { reason } => {
                write!(f, "invalid lookup table: {reason}")
            }
        }
    }
}

impl std::error::Error for FuzzyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FuzzyError::UnknownTerm {
            variable: "speed".into(),
            term: "Ludicrous".into(),
        };
        let s = e.to_string();
        assert!(s.contains("speed"));
        assert!(s.contains("Ludicrous"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = FuzzyError::InputArity {
            expected: 3,
            got: 2,
        };
        let b = FuzzyError::InputArity {
            expected: 3,
            got: 2,
        };
        assert_eq!(a, b);
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(FuzzyError::EmptyEngine { missing: "rules" });
        assert!(e.to_string().contains("rules"));
    }
}
