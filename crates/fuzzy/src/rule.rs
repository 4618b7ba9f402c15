//! Fuzzy rules and rule bases.
//!
//! Rules are of the Mamdani form used by the paper:
//!
//! ```text
//! IF Sp IS Slow AND An IS Straight AND Sr IS Small THEN Cv IS Cv5
//! ```
//!
//! Rules can be built programmatically ([`Rule::new`]) or parsed from text
//! ([`Rule::parse`]).  A [`RuleBase`] owns an ordered collection of rules and
//! can verify them against the engine's declared variables.

use crate::error::{FuzzyError, Result};
use crate::variable::LinguisticVariable;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the antecedent clauses of a rule are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Connective {
    /// All clauses must hold (combined with the minimum).
    #[default]
    And,
    /// Any clause may hold (combined with the maximum).
    Or,
}

/// One antecedent clause: `<variable> IS <term>`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Antecedent {
    /// Name of the input linguistic variable.
    pub variable: String,
    /// Name of the term on that variable.
    pub term: String,
    /// If `true` the clause is negated (`IS NOT`).
    pub negated: bool,
}

impl Antecedent {
    /// A positive clause `<variable> IS <term>`.
    pub fn is(variable: impl Into<String>, term: impl Into<String>) -> Self {
        Self {
            variable: variable.into(),
            term: term.into(),
            negated: false,
        }
    }

    /// A negated clause `<variable> IS NOT <term>`.
    pub fn is_not(variable: impl Into<String>, term: impl Into<String>) -> Self {
        Self {
            variable: variable.into(),
            term: term.into(),
            negated: true,
        }
    }
}

impl fmt::Display for Antecedent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "{} IS NOT {}", self.variable, self.term)
        } else {
            write!(f, "{} IS {}", self.variable, self.term)
        }
    }
}

/// One consequent clause: `<output variable> IS <term>`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Consequent {
    /// Name of the output linguistic variable.
    pub variable: String,
    /// Name of the term assigned by the rule.
    pub term: String,
}

impl Consequent {
    /// `<variable> IS <term>`.
    pub fn is(variable: impl Into<String>, term: impl Into<String>) -> Self {
        Self {
            variable: variable.into(),
            term: term.into(),
        }
    }
}

impl fmt::Display for Consequent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} IS {}", self.variable, self.term)
    }
}

/// A complete IF/THEN rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    antecedents: Vec<Antecedent>,
    connective: Connective,
    consequents: Vec<Consequent>,
    label: Option<String>,
}

impl Rule {
    /// Build a rule from parts.
    pub fn new(
        antecedents: Vec<Antecedent>,
        connective: Connective,
        consequents: Vec<Consequent>,
    ) -> Result<Self> {
        if antecedents.is_empty() {
            return Err(FuzzyError::RuleParse {
                text: String::new(),
                reason: "a rule needs at least one antecedent".into(),
            });
        }
        if consequents.is_empty() {
            return Err(FuzzyError::RuleParse {
                text: String::new(),
                reason: "a rule needs at least one consequent".into(),
            });
        }
        Ok(Self {
            antecedents,
            connective,
            consequents,
            label: None,
        })
    }

    /// Attach a human-readable label (e.g. the FRB row number).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Parse a rule from text of the form
    /// `IF a IS x AND b IS NOT y THEN out IS z [AND out2 IS w]`.
    ///
    /// Keywords are case-insensitive; variable and term names are
    /// case-sensitive.  `AND`/`OR` may not be mixed within one antecedent.
    pub fn parse(text: &str) -> Result<Self> {
        let err = |reason: &str| FuzzyError::RuleParse {
            text: text.to_string(),
            reason: reason.to_string(),
        };
        let tokens: Vec<&str> = text.split_whitespace().collect();
        if tokens.is_empty() {
            return Err(err("empty rule"));
        }
        if !tokens[0].eq_ignore_ascii_case("if") {
            return Err(err("rule must start with IF"));
        }
        let then_pos = tokens
            .iter()
            .position(|t| t.eq_ignore_ascii_case("then"))
            .ok_or_else(|| err("missing THEN"))?;
        if then_pos + 1 >= tokens.len() {
            return Err(err("missing consequent after THEN"));
        }

        let (antecedents, connective) = parse_clauses(&tokens[1..then_pos], text, true)?;
        let (consequent_clauses, _) = parse_clauses(&tokens[then_pos + 1..], text, false)?;

        let antecedents: Vec<Antecedent> = antecedents;
        let consequents: Vec<Consequent> = consequent_clauses
            .into_iter()
            .map(|a| {
                if a.negated {
                    Err(err("consequents may not be negated"))
                } else {
                    Ok(Consequent {
                        variable: a.variable,
                        term: a.term,
                    })
                }
            })
            .collect::<Result<_>>()?;

        Rule::new(antecedents, connective, consequents)
    }

    /// The antecedent clauses.
    #[must_use]
    pub fn antecedents(&self) -> &[Antecedent] {
        &self.antecedents
    }

    /// How the antecedents are combined.
    #[must_use]
    pub fn connective(&self) -> Connective {
        self.connective
    }

    /// The consequent clauses.
    #[must_use]
    pub fn consequents(&self) -> &[Consequent] {
        &self.consequents
    }

    /// Optional label.
    #[must_use]
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// Verify that every referenced variable/term exists in the provided
    /// input and output variable lists.
    pub fn validate(
        &self,
        inputs: &[LinguisticVariable],
        outputs: &[LinguisticVariable],
    ) -> Result<()> {
        for a in &self.antecedents {
            let var = inputs
                .iter()
                .find(|v| v.name() == a.variable)
                .ok_or_else(|| FuzzyError::UnknownVariable {
                    name: a.variable.clone(),
                })?;
            if var.term(&a.term).is_none() {
                return Err(FuzzyError::UnknownTerm {
                    variable: a.variable.clone(),
                    term: a.term.clone(),
                });
            }
        }
        for c in &self.consequents {
            let var = outputs
                .iter()
                .find(|v| v.name() == c.variable)
                .ok_or_else(|| FuzzyError::UnknownVariable {
                    name: c.variable.clone(),
                })?;
            if var.term(&c.term).is_none() {
                return Err(FuzzyError::UnknownTerm {
                    variable: c.variable.clone(),
                    term: c.term.clone(),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let conn = match self.connective {
            Connective::And => " AND ",
            Connective::Or => " OR ",
        };
        write!(f, "IF ")?;
        for (i, a) in self.antecedents.iter().enumerate() {
            if i > 0 {
                write!(f, "{conn}")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, " THEN ")?;
        for (i, c) in self.consequents.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Parse `a IS x AND b IS NOT y ...` token runs into clauses.
fn parse_clauses(
    tokens: &[&str],
    full_text: &str,
    allow_or: bool,
) -> Result<(Vec<Antecedent>, Connective)> {
    let err = |reason: String| FuzzyError::RuleParse {
        text: full_text.to_string(),
        reason,
    };
    let mut clauses = Vec::new();
    let mut connective: Option<Connective> = None;
    let mut i = 0usize;
    while i < tokens.len() {
        if !clauses.is_empty() {
            let conn_tok = tokens[i];
            let conn = if conn_tok.eq_ignore_ascii_case("and") {
                Connective::And
            } else if conn_tok.eq_ignore_ascii_case("or") {
                if !allow_or {
                    return Err(err("OR is not allowed between consequents".into()));
                }
                Connective::Or
            } else {
                return Err(err(format!("expected AND/OR, found `{conn_tok}`")));
            };
            match connective {
                None => connective = Some(conn),
                Some(existing) if existing != conn => {
                    return Err(err("mixing AND and OR in one rule is not supported".into()))
                }
                _ => {}
            }
            i += 1;
        }
        // <variable> IS [NOT] <term>
        if i + 2 > tokens.len() {
            return Err(err("truncated clause".into()));
        }
        let variable = tokens[i];
        if !tokens[i + 1].eq_ignore_ascii_case("is") {
            return Err(err(format!("expected IS after `{variable}`")));
        }
        let (negated, term_idx) =
            if i + 2 < tokens.len() && tokens[i + 2].eq_ignore_ascii_case("not") {
                (true, i + 3)
            } else {
                (false, i + 2)
            };
        if term_idx >= tokens.len() {
            return Err(err(format!("missing term after `{variable} IS`")));
        }
        let term = tokens[term_idx];
        clauses.push(Antecedent {
            variable: variable.to_string(),
            term: term.to_string(),
            negated,
        });
        i = term_idx + 1;
    }
    if clauses.is_empty() {
        return Err(err("no clauses found".into()));
    }
    Ok((clauses, connective.unwrap_or_default()))
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

    /// Add a rule parsed from text.
    pub fn push_str(&mut self, text: &str) -> Result<()> {
        self.rules.push(Rule::parse(text)?);
        Ok(())
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

    /// Validate every rule against the declared variables.
    pub fn validate(
        &self,
        inputs: &[LinguisticVariable],
        outputs: &[LinguisticVariable],
    ) -> Result<()> {
        for r in &self.rules {
            r.validate(inputs, outputs)?;
        }
        Ok(())
    }

    /// Check completeness against a full cartesian grid of input terms:
    /// returns the input-term combinations (by name) that no rule covers.
    ///
    /// Only antecedents mentioning *all* inputs are considered covering for
    /// this check (the paper's FRBs enumerate the full grid).
    #[must_use]
    pub fn uncovered_combinations(&self, inputs: &[LinguisticVariable]) -> Vec<Vec<String>> {
        let mut uncovered = Vec::new();
        let mut indices = vec![0usize; inputs.len()];
        if inputs.is_empty() {
            return uncovered;
        }
        loop {
            let combo: Vec<String> = indices
                .iter()
                .zip(inputs)
                .map(|(&i, v)| v.terms()[i].name().to_string())
                .collect();
            let covered = self.rules.iter().any(|r| {
                inputs.iter().zip(&combo).all(|(v, term)| {
                    r.antecedents()
                        .iter()
                        .any(|a| !a.negated && a.variable == v.name() && &a.term == term)
                })
            });
            if !covered {
                uncovered.push(combo);
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
        let cv = LinguisticVariable::builder("Cv", 0.0, 1.0)
            .triangle("Bad", 0.0, 0.0, 0.5)
            .triangle("Good", 0.5, 1.0, 1.0)
            .build()
            .unwrap();
        (vec![sp], vec![cv])
    }

    #[test]
    fn parse_simple_rule() {
        let r = Rule::parse("IF Sp IS Sl THEN Cv IS Bad").unwrap();
        assert_eq!(r.antecedents().len(), 1);
        assert_eq!(r.antecedents()[0], Antecedent::is("Sp", "Sl"));
        assert_eq!(r.consequents().len(), 1);
        assert_eq!(r.consequents()[0], Consequent::is("Cv", "Bad"));
        assert_eq!(r.connective(), Connective::And);
    }

    #[test]
    fn parse_multi_clause_and() {
        let r = Rule::parse("IF a IS x AND b IS y AND c IS z THEN o IS t").unwrap();
        assert_eq!(r.antecedents().len(), 3);
        assert_eq!(r.connective(), Connective::And);
    }

    #[test]
    fn parse_or_and_negation() {
        let r = Rule::parse("if a is x or b is not y then o is t").unwrap();
        assert_eq!(r.connective(), Connective::Or);
        assert!(r.antecedents()[1].negated);
    }

    #[test]
    fn parse_multiple_consequents() {
        let r = Rule::parse("IF a IS x THEN o IS t AND p IS u").unwrap();
        assert_eq!(r.consequents().len(), 2);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Rule::parse("").is_err());
        assert!(Rule::parse("WHEN a IS x THEN o IS t").is_err());
        assert!(Rule::parse("IF a IS x").is_err());
        assert!(Rule::parse("IF a IS THEN o IS t").is_err());
        assert!(Rule::parse("IF a x THEN o IS t").is_err());
        assert!(Rule::parse("IF a IS x THEN").is_err());
        assert!(Rule::parse("IF a IS x AND b IS y OR c IS z THEN o IS t").is_err());
        assert!(Rule::parse("IF a IS x THEN o IS NOT t").is_err());
    }

    #[test]
    fn display_roundtrips_through_parse() {
        let original = Rule::parse("IF Sp IS Sl AND An IS St THEN Cv IS Cv5").unwrap();
        let reparsed = Rule::parse(&original.to_string()).unwrap();
        assert_eq!(original, reparsed);
    }

    #[test]
    fn label_is_kept() {
        let r = Rule::parse("IF a IS x THEN o IS t")
            .unwrap()
            .with_label("rule 7");
        assert_eq!(r.label(), Some("rule 7"));
    }

    #[test]
    fn validate_against_variables() {
        let (inputs, outputs) = vars();
        let good = Rule::parse("IF Sp IS Sl THEN Cv IS Bad").unwrap();
        assert!(good.validate(&inputs, &outputs).is_ok());

        let bad_var = Rule::parse("IF Speed IS Sl THEN Cv IS Bad").unwrap();
        assert!(matches!(
            bad_var.validate(&inputs, &outputs),
            Err(FuzzyError::UnknownVariable { .. })
        ));

        let bad_term = Rule::parse("IF Sp IS Ludicrous THEN Cv IS Bad").unwrap();
        assert!(matches!(
            bad_term.validate(&inputs, &outputs),
            Err(FuzzyError::UnknownTerm { .. })
        ));

        let bad_out = Rule::parse("IF Sp IS Sl THEN Cv IS Terrible").unwrap();
        assert!(matches!(
            bad_out.validate(&inputs, &outputs),
            Err(FuzzyError::UnknownTerm { .. })
        ));
    }

    #[test]
    fn rulebase_push_and_validate() {
        let (inputs, outputs) = vars();
        let mut rb = RuleBase::new();
        assert!(rb.is_empty());
        rb.push_str("IF Sp IS Sl THEN Cv IS Bad").unwrap();
        rb.push_str("IF Sp IS Fa THEN Cv IS Good").unwrap();
        assert_eq!(rb.len(), 2);
        assert!(rb.validate(&inputs, &outputs).is_ok());
    }

    #[test]
    fn rulebase_uncovered_combinations() {
        let (inputs, _) = vars();
        let mut rb = RuleBase::new();
        rb.push_str("IF Sp IS Sl THEN Cv IS Bad").unwrap();
        let uncovered = rb.uncovered_combinations(&inputs);
        assert_eq!(uncovered, vec![vec!["Fa".to_string()]]);
        rb.push_str("IF Sp IS Fa THEN Cv IS Good").unwrap();
        assert!(rb.uncovered_combinations(&inputs).is_empty());
    }

    #[test]
    fn rulebase_from_iterator() {
        let rules = vec![
            Rule::parse("IF a IS x THEN o IS t").unwrap(),
            Rule::parse("IF a IS y THEN o IS u").unwrap(),
        ];
        let rb: RuleBase = rules.clone().into_iter().collect();
        assert_eq!(rb.rules(), rules.as_slice());
    }

    #[test]
    fn rule_new_rejects_empty_parts() {
        assert!(Rule::new(vec![], Connective::And, vec![Consequent::is("o", "t")]).is_err());
        assert!(Rule::new(vec![Antecedent::is("a", "x")], Connective::And, vec![]).is_err());
    }
}
