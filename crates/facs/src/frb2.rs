//! FRB2 — the 27-rule base of FLC2 (Table 2 of the paper), transcribed
//! verbatim.
//!
//! Each entry maps a combination of Correction-value term (`Bd`/`No`/`Go`),
//! Request term (`Tx`/`Vo`/`Vi`) and Counter-state term (`Sa`/`Md`/`Fu`) to
//! one of the five soft decisions `R` / `WR` / `NRNA` / `WA` / `A`.

use fuzzy::rule::Rule;

/// One row of Table 2: `(Cv, Rq, Cs, A/R)`.
pub type Frb2Row = (&'static str, &'static str, &'static str, &'static str);

/// Table 2 of the paper, row by row (rule 0 to rule 26).
pub const FRB2_TABLE: [Frb2Row; 27] = [
    ("Bd", "Tx", "Sa", "A"),
    ("Bd", "Tx", "Md", "NRNA"),
    ("Bd", "Tx", "Fu", "NRNA"),
    ("Bd", "Vo", "Sa", "A"),
    ("Bd", "Vo", "Md", "NRNA"),
    ("Bd", "Vo", "Fu", "WR"),
    ("Bd", "Vi", "Sa", "WA"),
    ("Bd", "Vi", "Md", "NRNA"),
    ("Bd", "Vi", "Fu", "WR"),
    ("No", "Tx", "Sa", "A"),
    ("No", "Tx", "Md", "NRNA"),
    ("No", "Tx", "Fu", "NRNA"),
    ("No", "Vo", "Sa", "A"),
    ("No", "Vo", "Md", "NRNA"),
    ("No", "Vo", "Fu", "NRNA"),
    ("No", "Vi", "Sa", "WA"),
    ("No", "Vi", "Md", "NRNA"),
    ("No", "Vi", "Fu", "NRNA"),
    ("Go", "Tx", "Sa", "A"),
    ("Go", "Tx", "Md", "A"),
    ("Go", "Tx", "Fu", "NRNA"),
    ("Go", "Vo", "Sa", "A"),
    ("Go", "Vo", "Md", "A"),
    ("Go", "Vo", "Fu", "WR"),
    ("Go", "Vi", "Sa", "A"),
    ("Go", "Vi", "Md", "A"),
    ("Go", "Vi", "Fu", "R"),
];

/// Build the 27 FRB2 rules ready to be added to FLC2's engine.
#[must_use]
pub fn frb2_rules() -> Vec<Rule> {
    FRB2_TABLE
        .iter()
        .enumerate()
        .map(|(i, &(cv, rq, cs, ar))| {
            Rule::row(&[("Cv", cv), ("Rq", rq), ("Cs", cs)], "AR", ar)
                .with_label(format!("FRB2 rule {i}"))
        })
        .collect()
}

/// The decision Table 2 assigns to an exact `(Cv, Rq, Cs)` term
/// combination.
#[must_use]
pub fn frb2_lookup(cv: &str, rq: &str, cs: &str) -> Option<&'static str> {
    FRB2_TABLE
        .iter()
        .find(|(c, r, s, _)| *c == cv && *r == rq && *s == cs)
        .map(|(_, _, _, ar)| *ar)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PaperParams;
    use fuzzy::RuleBase;
    use std::collections::HashSet;

    #[test]
    fn table_has_27_unique_antecedent_combinations() {
        assert_eq!(FRB2_TABLE.len(), 27);
        let combos: HashSet<(&str, &str, &str)> =
            FRB2_TABLE.iter().map(|(c, r, s, _)| (*c, *r, *s)).collect();
        assert_eq!(combos.len(), 27);
    }

    #[test]
    fn table_covers_the_full_term_grid() {
        let inputs = [
            PaperParams::correction_value_input().unwrap(),
            PaperParams::request_variable().unwrap(),
            PaperParams::counter_state_variable(40.0).unwrap(),
        ];
        let rb = RuleBase::from_rules(frb2_rules());
        assert!(rb.uncovered_combinations(&inputs).is_empty());
    }

    #[test]
    fn all_rules_validate_against_the_paper_variables() {
        let inputs = [
            PaperParams::correction_value_input().unwrap(),
            PaperParams::request_variable().unwrap(),
            PaperParams::counter_state_variable(40.0).unwrap(),
        ];
        let outputs = [PaperParams::accept_reject_output().unwrap()];
        for rule in frb2_rules() {
            rule.validate(&inputs, &outputs).unwrap();
        }
    }

    #[test]
    fn spot_check_rows_against_table_2() {
        assert_eq!(frb2_lookup("Bd", "Tx", "Sa"), Some("A"));
        assert_eq!(frb2_lookup("Bd", "Vi", "Sa"), Some("WA"));
        assert_eq!(frb2_lookup("Bd", "Vo", "Fu"), Some("WR"));
        assert_eq!(frb2_lookup("Go", "Tx", "Md"), Some("A"));
        assert_eq!(frb2_lookup("Go", "Vi", "Fu"), Some("R"));
        assert_eq!(frb2_lookup("No", "Vi", "Fu"), Some("NRNA"));
        assert_eq!(frb2_lookup("Xx", "Tx", "Sa"), None);
    }

    #[test]
    fn empty_cell_always_leans_accept() {
        // Every Sa (small counter state) row is A or WA.
        for (cv, rq, cs, ar) in FRB2_TABLE {
            if cs == "Sa" {
                assert!(ar == "A" || ar == "WA", "{cv}/{rq}/{cs} -> {ar}");
            }
        }
    }

    #[test]
    fn full_cell_never_accepts() {
        // Every Fu (full counter state) row is NRNA, WR or R.
        for (cv, rq, cs, ar) in FRB2_TABLE {
            if cs == "Fu" {
                assert!(
                    ar == "NRNA" || ar == "WR" || ar == "R",
                    "{cv}/{rq}/{cs} -> {ar}"
                );
            }
        }
    }

    #[test]
    fn good_cv_is_never_worse_than_bad_cv() {
        // Ordering of the output terms from worst to best.
        let rank = |ar: &str| match ar {
            "R" => 0,
            "WR" => 1,
            "NRNA" => 2,
            "WA" => 3,
            "A" => 4,
            _ => unreachable!(),
        };
        for rq in ["Tx", "Vo", "Vi"] {
            for cs in ["Sa", "Md"] {
                let bad = rank(frb2_lookup("Bd", rq, cs).unwrap());
                let good = rank(frb2_lookup("Go", rq, cs).unwrap());
                assert!(good >= bad, "{rq}/{cs}");
            }
        }
    }

    #[test]
    fn rules_carry_row_labels() {
        let rules = frb2_rules();
        assert_eq!(rules.len(), 27);
        assert_eq!(rules[26].label(), Some("FRB2 rule 26"));
    }
}
