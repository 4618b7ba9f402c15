//! The Mamdani inference engine.
//!
//! [`MamdaniEngine`] ties together linguistic variables and a rule base
//! under the classical Mamdani operators — minimum for AND, maximum for
//! aggregation, clipping implication and centroid
//! defuzzification — the "fuzzifier / inference engine / fuzzy rule base
//! / defuzzifier" structure of Fig. 2 in the paper.

use crate::defuzz;
use crate::error::{FuzzyError, Result};
use crate::rule::{Rule, RuleBase};
use crate::set::FuzzySet;
use crate::variable::LinguisticVariable;
use crate::DEFAULT_RESOLUTION;
use serde::{Deserialize, Serialize};

/// A complete Mamdani fuzzy controller.
///
/// Build one with [`MamdaniEngine::builder`], add the rows of its rule
/// table with [`MamdaniEngine::add_rule`], then call
/// [`MamdaniEngine::infer`] with one crisp value per declared input
/// variable, in declaration order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MamdaniEngine {
    inputs: Vec<LinguisticVariable>,
    outputs: Vec<LinguisticVariable>,
    rules: RuleBase,
    resolution: usize,
}

impl MamdaniEngine {
    /// Start building an engine.
    #[must_use]
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The declared input variables, in order.
    #[must_use]
    pub fn inputs(&self) -> &[LinguisticVariable] {
        &self.inputs
    }

    /// The declared output variables, in order.
    #[must_use]
    pub fn outputs(&self) -> &[LinguisticVariable] {
        &self.outputs
    }

    /// The rule base.
    #[must_use]
    pub fn rules(&self) -> &RuleBase {
        &self.rules
    }

    /// The sampling resolution of the aggregated output sets.
    #[must_use]
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// Add one row of the rule table.
    ///
    /// The rule must test every input once, in declaration order, with
    /// one of its terms, and assign one term of one output (see
    /// [`Rule::validate`]); its term tuple must not have a rule yet.
    /// Cells left without a rule are fine: nothing fires there.
    pub fn add_rule(&mut self, rule: Rule) -> Result<()> {
        rule.validate(&self.inputs, &self.outputs)?;
        if let Some(earlier) = self
            .rules
            .rules()
            .iter()
            .find(|r| r.antecedents() == rule.antecedents())
        {
            return Err(FuzzyError::InvalidRule {
                rule: rule.to_string(),
                reason: format!("its input terms already have the rule `{earlier}`"),
            });
        }
        self.rules.push(rule);
        Ok(())
    }

    /// Run one inference with `crisp_inputs[i]` bound to the `i`-th declared
    /// input variable.
    ///
    /// This is the readable, string-keyed reference path; it allocates one
    /// [`InferenceOutput`] per call.  Hot paths should [`compile`] the
    /// engine once and drive the allocation-free
    /// [`CompiledEngine::infer_into`](crate::compile::CompiledEngine::infer_into)
    /// instead, which produces bit-identical crisp outputs.
    ///
    /// [`compile`]: MamdaniEngine::compile
    pub fn infer(&self, crisp_inputs: &[f64]) -> Result<InferenceOutput<'_>> {
        if crisp_inputs.len() != self.inputs.len() {
            return Err(FuzzyError::InputArity {
                expected: self.inputs.len(),
                got: crisp_inputs.len(),
            });
        }
        if self.rules.is_empty() {
            return Err(FuzzyError::EmptyEngine { missing: "rules" });
        }
        for (v, &x) in self.inputs.iter().zip(crisp_inputs) {
            if !x.is_finite() {
                return Err(FuzzyError::NonFiniteInput {
                    variable: v.name().to_string(),
                    value: x,
                });
            }
        }

        // Fuzzify every input once.
        let fuzzified: Vec<Vec<f64>> = self
            .inputs
            .iter()
            .zip(crisp_inputs)
            .map(|(v, &x)| v.fuzzify(x))
            .collect();

        // Prepare one empty aggregated set per output variable.
        let mut aggregated: Vec<FuzzySet> = self
            .outputs
            .iter()
            .map(|o| FuzzySet::empty(o.min(), o.max(), self.resolution))
            .collect::<Result<_>>()?;
        let mut strengths = Vec::with_capacity(self.rules.len());

        for rule in self.rules.rules() {
            let strength = self.firing_strength(rule, &fuzzified)?;
            strengths.push(strength);
            if strength == 0.0 {
                continue;
            }
            let consequent = rule.consequent();
            let (out_idx, out_var) = self
                .outputs
                .iter()
                .enumerate()
                .find(|(_, o)| o.name() == consequent.variable)
                .ok_or_else(|| FuzzyError::UnknownVariable {
                    name: consequent.variable.clone(),
                })?;
            let term = out_var
                .term(&consequent.term)
                .ok_or_else(|| FuzzyError::UnknownTerm {
                    variable: consequent.variable.clone(),
                    term: consequent.term.clone(),
                })?;
            aggregated[out_idx].aggregate_clipped(term.membership_function(), strength);
        }

        Ok(InferenceOutput {
            outputs: &self.outputs,
            aggregated,
            firing_strengths: strengths,
        })
    }

    /// Convenience wrapper: infer and defuzzify the single output variable.
    ///
    /// Returns an error if the engine has more than one output.
    pub fn infer_single(&self, crisp_inputs: &[f64]) -> Result<f64> {
        if self.outputs.len() != 1 {
            return Err(FuzzyError::UnknownOutput {
                name: format!("<engine has {} outputs, expected 1>", self.outputs.len()),
            });
        }
        let out = self.infer(crisp_inputs)?;
        out.crisp(self.outputs[0].name())
    }

    /// Firing strength of a rule given pre-fuzzified inputs: the AND
    /// (minimum) of its clauses' degrees.
    fn firing_strength(&self, rule: &Rule, fuzzified: &[Vec<f64>]) -> Result<f64> {
        let mut degrees = Vec::with_capacity(rule.antecedents().len());
        for a in rule.antecedents() {
            let (var_idx, var) = self
                .inputs
                .iter()
                .enumerate()
                .find(|(_, v)| v.name() == a.variable)
                .ok_or_else(|| FuzzyError::UnknownVariable {
                    name: a.variable.clone(),
                })?;
            let term_idx = var
                .term_index(&a.term)
                .ok_or_else(|| FuzzyError::UnknownTerm {
                    variable: a.variable.clone(),
                    term: a.term.clone(),
                })?;
            degrees.push(fuzzified[var_idx][term_idx]);
        }
        // Degrees are already in [0, 1], so the plain `min` fold needs no
        // clamping.
        Ok(degrees.iter().fold(1.0, |acc, &d| acc.min(d)))
    }
}

/// The result of one inference: the aggregated output set per output
/// variable plus per-rule firing strengths.
///
/// Output names are borrowed from the engine that produced the result —
/// constructing and querying an `InferenceOutput` never clones a name.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceOutput<'e> {
    outputs: &'e [LinguisticVariable],
    aggregated: Vec<FuzzySet>,
    firing_strengths: Vec<f64>,
}

impl<'e> InferenceOutput<'e> {
    /// The aggregated fuzzy set for output variable `name`.
    pub fn aggregated(&self, name: &str) -> Result<&FuzzySet> {
        self.index_of(name).map(|i| &self.aggregated[i])
    }

    /// Centroid of the aggregated set of output variable `name`.
    pub fn crisp(&self, name: &str) -> Result<f64> {
        let i = self.index_of(name)?;
        defuzz::centroid(&self.aggregated[i], name)
    }

    /// Defuzzified crisp value, falling back to `default` if no rule fired.
    #[must_use]
    pub fn crisp_or(&self, name: &str, default: f64) -> f64 {
        match self.index_of(name) {
            Ok(i) => defuzz::centroid_or(&self.aggregated[i], default),
            Err(_) => default,
        }
    }

    /// Per-rule firing strengths, in rule-base order.
    #[must_use]
    pub fn firing_strengths(&self) -> &[f64] {
        &self.firing_strengths
    }

    /// Names of the output variables, in declaration order (zero-copy:
    /// the names are borrowed straight from the engine's variables).
    pub fn output_names(&self) -> impl Iterator<Item = &'e str> + '_ {
        self.outputs.iter().map(LinguisticVariable::name)
    }

    fn index_of(&self, name: &str) -> Result<usize> {
        self.outputs
            .iter()
            .position(|o| o.name() == name)
            .ok_or_else(|| FuzzyError::UnknownOutput {
                name: name.to_string(),
            })
    }
}

/// Builder for [`MamdaniEngine`].
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    inputs: Vec<LinguisticVariable>,
    outputs: Vec<LinguisticVariable>,
    resolution: Option<usize>,
}

impl EngineBuilder {
    /// Declare an input variable (order matters: it defines the order of the
    /// crisp values passed to [`MamdaniEngine::infer`]).
    #[must_use]
    pub fn input(mut self, variable: LinguisticVariable) -> Self {
        self.inputs.push(variable);
        self
    }

    /// Declare an output variable.
    #[must_use]
    pub fn output(mut self, variable: LinguisticVariable) -> Self {
        self.outputs.push(variable);
        self
    }

    /// Set the sampling resolution of the aggregated output sets
    /// (default: [`DEFAULT_RESOLUTION`]).
    #[must_use]
    pub fn resolution(mut self, resolution: usize) -> Self {
        self.resolution = Some(resolution.max(2));
        self
    }

    /// Build the engine (without rules; add them afterwards).
    pub fn build(self) -> Result<MamdaniEngine> {
        if self.inputs.is_empty() {
            return Err(FuzzyError::EmptyEngine { missing: "inputs" });
        }
        if self.outputs.is_empty() {
            return Err(FuzzyError::EmptyEngine { missing: "outputs" });
        }
        Ok(MamdaniEngine {
            inputs: self.inputs,
            outputs: self.outputs,
            rules: RuleBase::new(),
            resolution: self.resolution.unwrap_or(DEFAULT_RESOLUTION),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fan_engine() -> MamdaniEngine {
        let temperature = LinguisticVariable::builder("temperature", 0.0, 40.0)
            .triangle("Cold", 0.0, 0.0, 20.0)
            .triangle("Warm", 10.0, 20.0, 30.0)
            .triangle("Hot", 20.0, 40.0, 40.0)
            .build()
            .unwrap();
        let humidity = LinguisticVariable::builder("humidity", 0.0, 100.0)
            .triangle("Dry", 0.0, 0.0, 60.0)
            .triangle("Humid", 40.0, 100.0, 100.0)
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
            ("Warm", "Dry", "Medium"),
            ("Warm", "Humid", "Medium"),
            ("Cold", "Dry", "Slow"),
            ("Cold", "Humid", "Slow"),
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

    #[test]
    fn builder_requires_inputs_and_outputs() {
        assert!(matches!(
            MamdaniEngine::builder().build(),
            Err(FuzzyError::EmptyEngine { missing: "inputs" })
        ));
        let v = LinguisticVariable::builder("x", 0.0, 1.0)
            .triangle("t", 0.0, 0.5, 1.0)
            .build()
            .unwrap();
        assert!(matches!(
            MamdaniEngine::builder().input(v).build(),
            Err(FuzzyError::EmptyEngine { missing: "outputs" })
        ));
    }

    #[test]
    fn infer_requires_matching_arity() {
        let e = fan_engine();
        assert!(matches!(
            e.infer(&[10.0]),
            Err(FuzzyError::InputArity {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn infer_rejects_non_finite_inputs() {
        let e = fan_engine();
        assert!(matches!(
            e.infer(&[f64::NAN, 50.0]),
            Err(FuzzyError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn infer_without_rules_errors() {
        let temperature = LinguisticVariable::builder("t", 0.0, 1.0)
            .triangle("x", 0.0, 0.5, 1.0)
            .build()
            .unwrap();
        let out = LinguisticVariable::builder("o", 0.0, 1.0)
            .triangle("y", 0.0, 0.5, 1.0)
            .build()
            .unwrap();
        let e = MamdaniEngine::builder()
            .input(temperature)
            .output(out)
            .build()
            .unwrap();
        assert!(matches!(
            e.infer(&[0.5]),
            Err(FuzzyError::EmptyEngine { missing: "rules" })
        ));
    }

    #[test]
    fn hot_humid_yields_fast_fan() {
        let e = fan_engine();
        let out = e.infer(&[38.0, 90.0]).unwrap();
        let fan = out.crisp("fan").unwrap();
        assert!(fan > 70.0, "fan = {fan}");
    }

    #[test]
    fn cold_yields_slow_fan() {
        let e = fan_engine();
        let out = e.infer(&[2.0, 20.0]).unwrap();
        let fan = out.crisp("fan").unwrap();
        assert!(fan < 30.0, "fan = {fan}");
    }

    #[test]
    fn warm_yields_medium_fan() {
        let e = fan_engine();
        let out = e.infer(&[20.0, 50.0]).unwrap();
        let fan = out.crisp("fan").unwrap();
        assert!((fan - 50.0).abs() < 10.0, "fan = {fan}");
    }

    #[test]
    fn firing_strengths_are_reported_per_rule() {
        let e = fan_engine();
        let out = e.infer(&[38.0, 90.0]).unwrap();
        assert_eq!(out.firing_strengths().len(), 6);
        assert!(out.firing_strengths()[0] > 0.5); // Hot & Humid
        assert_eq!(out.firing_strengths()[5], 0.0); // Cold does not fire
    }

    #[test]
    fn add_rule_validates_names() {
        let mut e = fan_engine();
        let row = |t, h, fan| Rule::row(&[("temperature", t), ("humidity", h)], "fan", fan);
        assert!(matches!(
            e.add_rule(Rule::row(
                &[("pressure", "High"), ("humidity", "Dry")],
                "fan",
                "Fast"
            )),
            Err(FuzzyError::UnknownVariable { .. })
        ));
        assert!(matches!(
            e.add_rule(row("Boiling", "Dry", "Fast")),
            Err(FuzzyError::UnknownTerm { .. })
        ));
        assert!(matches!(
            e.add_rule(row("Hot", "Dry", "Ludicrous")),
            Err(FuzzyError::UnknownTerm { .. })
        ));
        assert!(matches!(
            e.add_rule(Rule::row(
                &[("temperature", "Hot"), ("humidity", "Dry")],
                "noise",
                "Slow"
            )),
            Err(FuzzyError::UnknownVariable { .. })
        ));
        assert_eq!(e.rules().len(), 6);
    }

    /// `add_rule` takes rows only: one clause per input, in declaration
    /// order, one consequent, and one rule per term tuple.
    #[test]
    fn add_rule_refuses_anything_but_a_new_row() {
        let temperature = LinguisticVariable::builder("temperature", 0.0, 40.0)
            .triangle("Cold", 0.0, 0.0, 40.0)
            .triangle("Hot", 0.0, 40.0, 40.0)
            .build()
            .unwrap();
        let humidity = LinguisticVariable::builder("humidity", 0.0, 100.0)
            .triangle("Dry", 0.0, 0.0, 100.0)
            .triangle("Humid", 0.0, 100.0, 100.0)
            .build()
            .unwrap();
        let level = |name: &str| {
            LinguisticVariable::builder(name, 0.0, 1.0)
                .triangle("Low", 0.0, 0.0, 1.0)
                .triangle("High", 0.0, 1.0, 1.0)
                .build()
                .unwrap()
        };
        let mut e = MamdaniEngine::builder()
            .input(temperature)
            .input(humidity)
            .output(level("fan"))
            .output(level("heater"))
            .build()
            .unwrap();
        e.add_rule(Rule::row(
            &[("temperature", "Hot"), ("humidity", "Humid")],
            "fan",
            "High",
        ))
        .unwrap();
        // An empty cell is no error: (Cold, Dry) keeps no rule.
        e.add_rule(Rule::row(
            &[("temperature", "Cold"), ("humidity", "Humid")],
            "heater",
            "Low",
        ))
        .unwrap();
        let refused = [
            // A missing input.
            Rule::row(&[("temperature", "Hot")], "fan", "High"),
            // A repeated input.
            Rule::row(
                &[("temperature", "Hot"), ("temperature", "Cold")],
                "fan",
                "High",
            ),
            // Clauses out of declaration order.
            Rule::row(
                &[("humidity", "Dry"), ("temperature", "Hot")],
                "fan",
                "High",
            ),
            // One clause too many.
            Rule::row(
                &[
                    ("temperature", "Hot"),
                    ("humidity", "Dry"),
                    ("humidity", "Dry"),
                ],
                "fan",
                "High",
            ),
            // A second consequent for (Hot, Humid), on the other output.
            Rule::row(
                &[("temperature", "Hot"), ("humidity", "Humid")],
                "heater",
                "Low",
            ),
            // A duplicate tuple: (Hot, Humid) again, same output.
            Rule::row(
                &[("temperature", "Hot"), ("humidity", "Humid")],
                "fan",
                "Low",
            ),
        ];
        for rule in refused {
            let text = rule.to_string();
            let err = e.add_rule(rule).unwrap_err();
            assert!(
                matches!(err, FuzzyError::InvalidRule { .. }),
                "{text}: {err}"
            );
        }
        // An unknown term is refused with its own error.
        assert!(matches!(
            e.add_rule(Rule::row(
                &[("temperature", "Warm"), ("humidity", "Dry")],
                "fan",
                "High"
            )),
            Err(FuzzyError::UnknownTerm { .. })
        ));
        assert_eq!(e.rules().len(), 2);
    }

    #[test]
    fn infer_single_requires_one_output() {
        let e = fan_engine();
        assert!(
            (e.infer_single(&[38.0, 90.0]).unwrap()
                - e.infer(&[38.0, 90.0]).unwrap().crisp("fan").unwrap())
            .abs()
                < 1e-12
        );
    }

    #[test]
    fn crisp_unknown_output_errors() {
        let e = fan_engine();
        let out = e.infer(&[20.0, 50.0]).unwrap();
        assert!(matches!(
            out.crisp("nonexistent"),
            Err(FuzzyError::UnknownOutput { .. })
        ));
        assert_eq!(out.crisp_or("nonexistent", -7.0), -7.0);
    }
}
