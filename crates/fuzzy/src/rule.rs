//! Fuzzy rules and rule bases.
//!
//! A rule is one row of a complete AND table, the shape of the paper's
//! FRB1 and FRB2:
//!
//! ```text
//! IF Sp IS Slow AND An IS Straight AND Sr IS Small THEN Cv IS Cv5
//! ```
//!
//! It has one `IS` clause per input variable, in the engine's input
//! declaration order, ANDed, and exactly one consequent.  Build rows with
//! [`Rule::row`]; [`Rule::validate`] checks one against an engine's
//! declared variables.  A [`RuleBase`] owns an ordered collection of rows.

use crate::error::{FuzzyError, Result};
use crate::variable::LinguisticVariable;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One clause: `<variable> IS <term>`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Clause {
    /// Name of the linguistic variable.
    pub variable: String,
    /// Name of the term on that variable.
    pub term: String,
}

impl Clause {
    /// `<variable> IS <term>`.
    pub fn is(variable: impl Into<String>, term: impl Into<String>) -> Self {
        Self {
            variable: variable.into(),
            term: term.into(),
        }
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} IS {}", self.variable, self.term)
    }
}

/// One table row: `IF a IS x AND b IS y ... THEN out IS z`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    antecedents: Vec<Clause>,
    consequent: Clause,
    label: Option<String>,
}

impl Rule {
    /// The row `IF clauses[0] AND clauses[1] ... THEN output IS term`, each
    /// clause a `(variable, term)` pair, one per input in declaration
    /// order.
    #[must_use]
    pub fn row(clauses: &[(&str, &str)], output: &str, term: &str) -> Self {
        Self {
            antecedents: clauses.iter().map(|&(v, t)| Clause::is(v, t)).collect(),
            consequent: Clause::is(output, term),
            label: None,
        }
    }

    /// Attach a human-readable label (e.g. the FRB row number).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The antecedent clauses, one per input.
    #[must_use]
    pub fn antecedents(&self) -> &[Clause] {
        &self.antecedents
    }

    /// The consequent clause.
    #[must_use]
    pub fn consequent(&self) -> &Clause {
        &self.consequent
    }

    /// Optional label.
    #[must_use]
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// Check that this rule is a row over `inputs` and `outputs`: clause
    /// `i` tests input `i` with one of its terms, and the consequent names
    /// an output and one of its terms.
    pub fn validate(
        &self,
        inputs: &[LinguisticVariable],
        outputs: &[LinguisticVariable],
    ) -> Result<()> {
        let invalid = |reason: String| FuzzyError::InvalidRule {
            rule: self.to_string(),
            reason,
        };
        for (i, var) in inputs.iter().enumerate() {
            let Some(clause) = self.antecedents.get(i) else {
                return Err(invalid(format!("no clause for input `{}`", var.name())));
            };
            if clause.variable != var.name() {
                if inputs.iter().all(|v| v.name() != clause.variable) {
                    return Err(FuzzyError::UnknownVariable {
                        name: clause.variable.clone(),
                    });
                }
                return Err(invalid(format!(
                    "clause {} tests `{}` where input `{}` belongs",
                    i + 1,
                    clause.variable,
                    var.name()
                )));
            }
            check_term(var, clause)?;
        }
        if self.antecedents.len() > inputs.len() {
            return Err(invalid(format!(
                "{} clauses for {} inputs",
                self.antecedents.len(),
                inputs.len()
            )));
        }
        let out = outputs
            .iter()
            .find(|v| v.name() == self.consequent.variable)
            .ok_or_else(|| FuzzyError::UnknownVariable {
                name: self.consequent.variable.clone(),
            })?;
        check_term(out, &self.consequent)
    }
}

fn check_term(var: &LinguisticVariable, clause: &Clause) -> Result<()> {
    match var.term(&clause.term) {
        Some(_) => Ok(()),
        None => Err(FuzzyError::UnknownTerm {
            variable: clause.variable.clone(),
            term: clause.term.clone(),
        }),
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IF ")?;
        for (i, a) in self.antecedents.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, " THEN {}", self.consequent)
    }
}

/// An ordered collection of rules.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RuleBase {
    rules: Vec<Rule>,
}

impl RuleBase {
    /// An empty rule base.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a vector of rules.
    #[must_use]
    pub fn from_rules(rules: Vec<Rule>) -> Self {
        Self { rules }
    }

    /// Add a rule.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// The rules, in insertion order.
    #[must_use]
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` if the base holds no rules.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Check completeness against a full cartesian grid of input terms:
    /// returns the input-term combinations (by name) that no row covers.
    #[must_use]
    pub fn uncovered_combinations(&self, inputs: &[LinguisticVariable]) -> Vec<Vec<String>> {
        let mut uncovered = Vec::new();
        let mut indices = vec![0usize; inputs.len()];
        if inputs.is_empty() {
            return uncovered;
        }
        loop {
            let combo: Vec<Clause> = indices
                .iter()
                .zip(inputs)
                .map(|(&i, v)| Clause::is(v.name(), v.terms()[i].name()))
                .collect();
            if !self.rules.iter().any(|r| r.antecedents == combo) {
                uncovered.push(combo.into_iter().map(|c| c.term).collect());
            }
            // advance the odometer
            let mut pos = inputs.len();
            loop {
                if pos == 0 {
                    return uncovered;
                }
                pos -= 1;
                indices[pos] += 1;
                if indices[pos] < inputs[pos].term_count() {
                    break;
                }
                indices[pos] = 0;
            }
        }
    }
}

impl FromIterator<Rule> for RuleBase {
    fn from_iter<T: IntoIterator<Item = Rule>>(iter: T) -> Self {
        Self {
            rules: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variable::LinguisticVariable;

    fn vars() -> (Vec<LinguisticVariable>, Vec<LinguisticVariable>) {
        let sp = LinguisticVariable::builder("Sp", 0.0, 120.0)
            .triangle("Sl", 0.0, 0.0, 60.0)
            .triangle("Fa", 60.0, 120.0, 120.0)
            .build()
            .unwrap();
        let an = LinguisticVariable::builder("An", -180.0, 180.0)
            .triangle("Le", -180.0, -180.0, 0.0)
            .triangle("St", -90.0, 0.0, 90.0)
            .build()
            .unwrap();
        let cv = LinguisticVariable::builder("Cv", 0.0, 1.0)
            .triangle("Bad", 0.0, 0.0, 0.5)
            .triangle("Good", 0.5, 1.0, 1.0)
            .build()
            .unwrap();
        (vec![sp, an], vec![cv])
    }

    #[test]
    fn label_is_kept() {
        let r = Rule::row(&[("a", "x")], "o", "t").with_label("rule 7");
        assert_eq!(r.label(), Some("rule 7"));
    }

    #[test]
    fn display_prints_the_row() {
        let r = Rule::row(&[("Sp", "Sl"), ("An", "St")], "Cv", "Cv5");
        assert_eq!(r.to_string(), "IF Sp IS Sl AND An IS St THEN Cv IS Cv5");
        assert_eq!(r.antecedents()[1], Clause::is("An", "St"));
        assert_eq!(r.consequent(), &Clause::is("Cv", "Cv5"));
    }

    #[test]
    fn validate_against_variables() {
        let (inputs, outputs) = vars();
        let good = Rule::row(&[("Sp", "Sl"), ("An", "St")], "Cv", "Bad");
        assert!(good.validate(&inputs, &outputs).is_ok());

        let bad_var = Rule::row(&[("Speed", "Sl"), ("An", "St")], "Cv", "Bad");
        assert!(matches!(
            bad_var.validate(&inputs, &outputs),
            Err(FuzzyError::UnknownVariable { .. })
        ));

        let bad_term = Rule::row(&[("Sp", "Ludicrous"), ("An", "St")], "Cv", "Bad");
        assert!(matches!(
            bad_term.validate(&inputs, &outputs),
            Err(FuzzyError::UnknownTerm { .. })
        ));

        let bad_out = Rule::row(&[("Sp", "Sl"), ("An", "St")], "Cv", "Terrible");
        assert!(matches!(
            bad_out.validate(&inputs, &outputs),
            Err(FuzzyError::UnknownTerm { .. })
        ));

        for not_a_row in [
            Rule::row(&[("Sp", "Sl")], "Cv", "Bad"),
            Rule::row(&[("An", "St"), ("Sp", "Sl")], "Cv", "Bad"),
            Rule::row(&[("Sp", "Sl"), ("Sp", "Fa")], "Cv", "Bad"),
            Rule::row(&[("Sp", "Sl"), ("An", "St"), ("An", "Le")], "Cv", "Bad"),
        ] {
            assert!(
                matches!(
                    not_a_row.validate(&inputs, &outputs),
                    Err(FuzzyError::InvalidRule { .. })
                ),
                "{not_a_row}"
            );
        }
    }

    #[test]
    fn rulebase_push_and_validate() {
        let (inputs, outputs) = vars();
        let mut rb = RuleBase::new();
        assert!(rb.is_empty());
        rb.push(Rule::row(&[("Sp", "Sl"), ("An", "St")], "Cv", "Bad"));
        rb.push(Rule::row(&[("Sp", "Fa"), ("An", "St")], "Cv", "Good"));
        assert_eq!(rb.len(), 2);
        for r in rb.rules() {
            assert!(r.validate(&inputs, &outputs).is_ok());
        }
    }

    #[test]
    fn rulebase_uncovered_combinations() {
        let (inputs, _) = vars();
        let mut rb = RuleBase::new();
        for sp in ["Sl", "Fa"] {
            rb.push(Rule::row(&[("Sp", sp), ("An", "St")], "Cv", "Bad"));
        }
        rb.push(Rule::row(&[("Sp", "Sl"), ("An", "Le")], "Cv", "Bad"));
        let uncovered = rb.uncovered_combinations(&inputs);
        assert_eq!(uncovered, vec![vec!["Fa".to_string(), "Le".to_string()]]);
        rb.push(Rule::row(&[("Sp", "Fa"), ("An", "Le")], "Cv", "Good"));
        assert!(rb.uncovered_combinations(&inputs).is_empty());
    }

    #[test]
    fn rulebase_from_iterator() {
        let rules = vec![
            Rule::row(&[("a", "x")], "o", "t"),
            Rule::row(&[("a", "y")], "o", "u"),
        ];
        let rb: RuleBase = rules.clone().into_iter().collect();
        assert_eq!(rb.rules(), rules.as_slice());
    }
}
