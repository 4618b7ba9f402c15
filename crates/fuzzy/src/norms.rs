//! The fuzzy complement used by negated antecedents (`IS NOT`).
//!
//! The paper's controllers combine AND antecedents with the minimum and
//! OR antecedents and rule outputs with the maximum; the engines apply
//! those two operators inline, so only the complement needs a home.

use crate::clamp_degree;

/// Standard fuzzy complement `1 - a`.
#[inline]
#[must_use]
pub fn complement(a: f64) -> f64 {
    clamp_degree(1.0 - clamp_degree(a))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complement_involution_on_grid() {
        for a in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert!((complement(complement(a)) - a).abs() < 1e-12);
        }
        assert_eq!(complement(1.2), 0.0);
    }
}
