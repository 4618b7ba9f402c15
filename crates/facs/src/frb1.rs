//! FRB1 — the 63-rule base of FLC1 (Table 1 of the paper), transcribed
//! verbatim.
//!
//! Each entry maps a combination of Speed term (`Sl`/`Mi`/`Fa`), Angle term
//! (`B1`/`L1`/`L2`/`St`/`R1`/`R2`/`B2`) and Service-request term
//! (`Sm`/`Me`/`Bi`) to one of the nine Correction-value terms `Cv1`..`Cv9`.

use fuzzy::rule::Rule;

/// One row of Table 1: `(Sp, An, Sr, Cv)`.
pub type Frb1Row = (&'static str, &'static str, &'static str, &'static str);

/// Table 1 of the paper, row by row (rule 0 to rule 62).
pub const FRB1_TABLE: [Frb1Row; 63] = [
    ("Sl", "B1", "Sm", "Cv1"),
    ("Sl", "B1", "Me", "Cv3"),
    ("Sl", "B1", "Bi", "Cv2"),
    ("Sl", "L1", "Sm", "Cv1"),
    ("Sl", "L1", "Me", "Cv4"),
    ("Sl", "L1", "Bi", "Cv3"),
    ("Sl", "L2", "Sm", "Cv2"),
    ("Sl", "L2", "Me", "Cv6"),
    ("Sl", "L2", "Bi", "Cv4"),
    ("Sl", "St", "Sm", "Cv5"),
    ("Sl", "St", "Me", "Cv9"),
    ("Sl", "St", "Bi", "Cv7"),
    ("Sl", "R1", "Sm", "Cv2"),
    ("Sl", "R1", "Me", "Cv6"),
    ("Sl", "R1", "Bi", "Cv4"),
    ("Sl", "R2", "Sm", "Cv1"),
    ("Sl", "R2", "Me", "Cv4"),
    ("Sl", "R2", "Bi", "Cv3"),
    ("Sl", "B2", "Sm", "Cv1"),
    ("Sl", "B2", "Me", "Cv3"),
    ("Sl", "B2", "Bi", "Cv2"),
    ("Mi", "B1", "Sm", "Cv1"),
    ("Mi", "B1", "Me", "Cv2"),
    ("Mi", "B1", "Bi", "Cv1"),
    ("Mi", "L1", "Sm", "Cv1"),
    ("Mi", "L1", "Me", "Cv4"),
    ("Mi", "L1", "Bi", "Cv3"),
    ("Mi", "L2", "Sm", "Cv1"),
    ("Mi", "L2", "Me", "Cv5"),
    ("Mi", "L2", "Bi", "Cv3"),
    ("Mi", "St", "Sm", "Cv8"),
    ("Mi", "St", "Me", "Cv9"),
    ("Mi", "St", "Bi", "Cv9"),
    ("Mi", "R1", "Sm", "Cv1"),
    ("Mi", "R1", "Me", "Cv5"),
    ("Mi", "R1", "Bi", "Cv3"),
    ("Mi", "R2", "Sm", "Cv1"),
    ("Mi", "R2", "Me", "Cv4"),
    ("Mi", "R2", "Bi", "Cv3"),
    ("Mi", "B2", "Sm", "Cv1"),
    ("Mi", "B2", "Me", "Cv2"),
    ("Mi", "B2", "Bi", "Cv1"),
    ("Fa", "B1", "Sm", "Cv1"),
    ("Fa", "B1", "Me", "Cv2"),
    ("Fa", "B1", "Bi", "Cv1"),
    ("Fa", "L1", "Sm", "Cv1"),
    ("Fa", "L1", "Me", "Cv3"),
    ("Fa", "L1", "Bi", "Cv2"),
    ("Fa", "L2", "Sm", "Cv2"),
    ("Fa", "L2", "Me", "Cv5"),
    ("Fa", "L2", "Bi", "Cv3"),
    ("Fa", "St", "Sm", "Cv9"),
    ("Fa", "St", "Me", "Cv9"),
    ("Fa", "St", "Bi", "Cv9"),
    ("Fa", "R1", "Sm", "Cv2"),
    ("Fa", "R1", "Me", "Cv5"),
    ("Fa", "R1", "Bi", "Cv3"),
    ("Fa", "R2", "Sm", "Cv1"),
    ("Fa", "R2", "Me", "Cv3"),
    ("Fa", "R2", "Bi", "Cv2"),
    ("Fa", "B2", "Sm", "Cv1"),
    ("Fa", "B2", "Me", "Cv2"),
    ("Fa", "B2", "Bi", "Cv1"),
];

/// Build the 63 FRB1 rules ready to be added to FLC1's engine.
#[must_use]
pub fn frb1_rules() -> Vec<Rule> {
    FRB1_TABLE
        .iter()
        .enumerate()
        .map(|(i, &(sp, an, sr, cv))| {
            Rule::row(&[("Sp", sp), ("An", an), ("Sr", sr)], "Cv", cv)
                .with_label(format!("FRB1 rule {i}"))
        })
        .collect()
}

/// The Cv term Table 1 assigns to an exact `(Sp, An, Sr)` term combination,
/// or `None` if the combination does not appear (it always does — the table
/// enumerates the full grid).
#[must_use]
pub fn frb1_lookup(sp: &str, an: &str, sr: &str) -> Option<&'static str> {
    FRB1_TABLE
        .iter()
        .find(|(s, a, r, _)| *s == sp && *a == an && *r == sr)
        .map(|(_, _, _, cv)| *cv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PaperParams;
    use fuzzy::RuleBase;
    use std::collections::HashSet;

    #[test]
    fn table_has_63_unique_antecedent_combinations() {
        assert_eq!(FRB1_TABLE.len(), 63);
        let combos: HashSet<(&str, &str, &str)> =
            FRB1_TABLE.iter().map(|(s, a, r, _)| (*s, *a, *r)).collect();
        assert_eq!(combos.len(), 63, "duplicate antecedent combination");
    }

    #[test]
    fn table_covers_the_full_term_grid() {
        let inputs = [
            PaperParams::speed_variable().unwrap(),
            PaperParams::angle_variable().unwrap(),
            PaperParams::service_request_variable().unwrap(),
        ];
        let rb = RuleBase::from_rules(frb1_rules());
        assert!(rb.uncovered_combinations(&inputs).is_empty());
    }

    #[test]
    fn all_rules_validate_against_the_paper_variables() {
        let inputs = [
            PaperParams::speed_variable().unwrap(),
            PaperParams::angle_variable().unwrap(),
            PaperParams::service_request_variable().unwrap(),
        ];
        let outputs = [PaperParams::correction_value_output().unwrap()];
        for rule in frb1_rules() {
            rule.validate(&inputs, &outputs).unwrap();
        }
    }

    #[test]
    fn spot_check_rows_against_table_1() {
        // Row 10: Sl St Me -> Cv9.
        assert_eq!(frb1_lookup("Sl", "St", "Me"), Some("Cv9"));
        // Row 30: Mi St Sm -> Cv8.
        assert_eq!(frb1_lookup("Mi", "St", "Sm"), Some("Cv8"));
        // Rows 51-53: Fa St * -> Cv9.
        for sr in ["Sm", "Me", "Bi"] {
            assert_eq!(frb1_lookup("Fa", "St", sr), Some("Cv9"));
        }
        // Row 0 and row 62.
        assert_eq!(frb1_lookup("Sl", "B1", "Sm"), Some("Cv1"));
        assert_eq!(frb1_lookup("Fa", "B2", "Bi"), Some("Cv1"));
        // Unknown combination.
        assert_eq!(frb1_lookup("Sl", "St", "Xx"), None);
    }

    #[test]
    fn straight_heading_never_gets_a_worse_cv_than_heading_back() {
        // For every speed and request size, the Cv index for St is >= B1/B2.
        let cv_index = |cv: &str| cv[2..].parse::<u32>().unwrap();
        for sp in ["Sl", "Mi", "Fa"] {
            for sr in ["Sm", "Me", "Bi"] {
                let st = cv_index(frb1_lookup(sp, "St", sr).unwrap());
                for back in ["B1", "B2"] {
                    let b = cv_index(frb1_lookup(sp, back, sr).unwrap());
                    assert!(st >= b, "{sp}/{sr}: St {st} < {back} {b}");
                }
            }
        }
    }

    #[test]
    fn table_is_left_right_symmetric() {
        // L1 mirrors R2, L2 mirrors R1, B1 mirrors B2 in Table 1.
        for sp in ["Sl", "Mi", "Fa"] {
            for sr in ["Sm", "Me", "Bi"] {
                assert_eq!(frb1_lookup(sp, "L1", sr), frb1_lookup(sp, "R2", sr));
                assert_eq!(frb1_lookup(sp, "L2", sr), frb1_lookup(sp, "R1", sr));
                assert_eq!(frb1_lookup(sp, "B1", sr), frb1_lookup(sp, "B2", sr));
            }
        }
    }

    #[test]
    fn rules_carry_row_labels() {
        let rules = frb1_rules();
        assert_eq!(rules.len(), 63);
        assert_eq!(rules[10].label(), Some("FRB1 rule 10"));
    }
}
