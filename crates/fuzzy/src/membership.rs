//! Membership functions.
//!
//! The paper (Fig. 3) uses two parametric shapes, called `f(x)` (triangular)
//! and `g(x)` (trapezoidal with open shoulders), because they are cheap
//! enough for real-time admission decisions.  This module implements both,
//! parameterised by their break-points: the paper's `f(x; x0, w0, w1)` is
//! the triangle `(x0 - w0, x0, x0 + w1)` and `g(x; x0, x1, w0, w1)` the
//! trapezoid `(x0 - w0, x0, x1, x1 + w1)`; a shoulder is a trapezoid whose
//! plateau reaches the universe edge.

use crate::clamp_degree;
use crate::error::{FuzzyError, Result};
use serde::{Deserialize, Serialize};

/// A parametric membership function `μ(x) -> [0, 1]`, built with
/// [`MembershipFunction::triangular`] or
/// [`MembershipFunction::trapezoidal`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum MembershipFunction {
    /// Triangle with feet at `a` and `c` and peak at `b` (`a <= b <= c`).
    Triangular {
        /// Left foot (membership 0).
        a: f64,
        /// Peak (membership 1).
        b: f64,
        /// Right foot (membership 0).
        c: f64,
    },
    /// Trapezoid with feet at `a`/`d` and plateau between `b` and `c`
    /// (`a <= b <= c <= d`).
    Trapezoidal {
        /// Left foot (membership 0).
        a: f64,
        /// Left shoulder of the plateau (membership 1).
        b: f64,
        /// Right shoulder of the plateau (membership 1).
        c: f64,
        /// Right foot (membership 0).
        d: f64,
    },
}

impl MembershipFunction {
    /// Triangle from explicit break-points `a <= b <= c`.
    pub fn triangular(a: f64, b: f64, c: f64) -> Result<Self> {
        if !(a.is_finite() && b.is_finite() && c.is_finite()) {
            return Err(FuzzyError::InvalidMembership {
                reason: format!("triangular break-points must be finite, got ({a}, {b}, {c})"),
            });
        }
        if !(a <= b && b <= c) {
            return Err(FuzzyError::InvalidMembership {
                reason: format!(
                    "triangular break-points must be ordered a <= b <= c, got ({a}, {b}, {c})"
                ),
            });
        }
        if a == c {
            return Err(FuzzyError::InvalidMembership {
                reason: "triangular support must have positive width (a < c)".into(),
            });
        }
        Ok(Self::Triangular { a, b, c })
    }

    /// Trapezoid from explicit break-points `a <= b <= c <= d`.
    pub fn trapezoidal(a: f64, b: f64, c: f64, d: f64) -> Result<Self> {
        if !(a.is_finite() && b.is_finite() && c.is_finite() && d.is_finite()) {
            return Err(FuzzyError::InvalidMembership {
                reason: format!(
                    "trapezoidal break-points must be finite, got ({a}, {b}, {c}, {d})"
                ),
            });
        }
        if !(a <= b && b <= c && c <= d) {
            return Err(FuzzyError::InvalidMembership {
                reason: format!(
                    "trapezoidal break-points must be ordered a <= b <= c <= d, got ({a}, {b}, {c}, {d})"
                ),
            });
        }
        if a == d {
            return Err(FuzzyError::InvalidMembership {
                reason: "trapezoidal support must have positive width (a < d)".into(),
            });
        }
        Ok(Self::Trapezoidal { a, b, c, d })
    }

    /// Evaluate the membership degree of `x`.
    ///
    /// Always returns a value in `[0, 1]`; non-finite `x` yields `0`.
    #[must_use]
    pub fn membership(&self, x: f64) -> f64 {
        if !x.is_finite() {
            return 0.0;
        }
        let mu = match *self {
            Self::Triangular { a, b, c } => triangle(x, a, b, c),
            Self::Trapezoidal { a, b, c, d } => trapezoid(x, a, b, c, d),
        };
        clamp_degree(mu)
    }
}

#[inline]
fn triangle(x: f64, a: f64, b: f64, c: f64) -> f64 {
    if x <= a || x >= c {
        // The peak may sit on a foot (right-angled triangle); handle the
        // degenerate vertical edge so the peak itself still reports 1.
        if (x == a && a == b) || (x == c && c == b) {
            1.0
        } else {
            0.0
        }
    } else if x == b {
        1.0
    } else if x < b {
        (x - a) / (b - a)
    } else {
        (c - x) / (c - b)
    }
}

#[inline]
fn trapezoid(x: f64, a: f64, b: f64, c: f64, d: f64) -> f64 {
    if x < a || x > d {
        0.0
    } else if x >= b && x <= c {
        1.0
    } else if x < b {
        if b == a {
            1.0
        } else {
            (x - a) / (b - a)
        }
    } else if d == c {
        1.0
    } else {
        (d - x) / (d - c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangular_peak_and_feet() {
        let mf = MembershipFunction::triangular(0.0, 5.0, 10.0).unwrap();
        assert_eq!(mf.membership(5.0), 1.0);
        assert_eq!(mf.membership(0.0), 0.0);
        assert_eq!(mf.membership(10.0), 0.0);
        assert!((mf.membership(2.5) - 0.5).abs() < 1e-12);
        assert!((mf.membership(7.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn triangular_outside_support_is_zero() {
        let mf = MembershipFunction::triangular(0.0, 5.0, 10.0).unwrap();
        assert_eq!(mf.membership(-1.0), 0.0);
        assert_eq!(mf.membership(11.0), 0.0);
    }

    #[test]
    fn right_angled_triangle_left_edge() {
        // Peak at the left foot, as used for "Slow" style terms.
        let mf = MembershipFunction::triangular(0.0, 0.0, 30.0).unwrap();
        assert_eq!(mf.membership(0.0), 1.0);
        assert!((mf.membership(15.0) - 0.5).abs() < 1e-12);
        assert_eq!(mf.membership(30.0), 0.0);
    }

    #[test]
    fn right_angled_triangle_right_edge() {
        let mf = MembershipFunction::triangular(0.0, 30.0, 30.0).unwrap();
        assert_eq!(mf.membership(30.0), 1.0);
        assert!((mf.membership(15.0) - 0.5).abs() < 1e-12);
        assert_eq!(mf.membership(0.0), 0.0);
    }

    #[test]
    fn triangular_rejects_bad_order() {
        assert!(MembershipFunction::triangular(5.0, 1.0, 10.0).is_err());
        assert!(MembershipFunction::triangular(0.0, 11.0, 10.0).is_err());
        assert!(MembershipFunction::triangular(3.0, 3.0, 3.0).is_err());
        assert!(MembershipFunction::triangular(f64::NAN, 1.0, 2.0).is_err());
    }

    #[test]
    fn trapezoidal_plateau() {
        let mf = MembershipFunction::trapezoidal(0.0, 2.0, 8.0, 10.0).unwrap();
        assert_eq!(mf.membership(2.0), 1.0);
        assert_eq!(mf.membership(5.0), 1.0);
        assert_eq!(mf.membership(8.0), 1.0);
        assert!((mf.membership(1.0) - 0.5).abs() < 1e-12);
        assert!((mf.membership(9.0) - 0.5).abs() < 1e-12);
        assert_eq!(mf.membership(-0.1), 0.0);
        assert_eq!(mf.membership(10.1), 0.0);
    }

    #[test]
    fn trapezoidal_vertical_edges() {
        let mf = MembershipFunction::trapezoidal(0.0, 0.0, 5.0, 10.0).unwrap();
        assert_eq!(mf.membership(0.0), 1.0);
        let mf = MembershipFunction::trapezoidal(0.0, 5.0, 10.0, 10.0).unwrap();
        assert_eq!(mf.membership(10.0), 1.0);
    }

    #[test]
    fn trapezoidal_rejects_bad_order() {
        assert!(MembershipFunction::trapezoidal(0.0, 3.0, 2.0, 10.0).is_err());
        assert!(MembershipFunction::trapezoidal(4.0, 3.0, 5.0, 10.0).is_err());
        assert!(MembershipFunction::trapezoidal(2.0, 2.0, 2.0, 2.0).is_err());
    }

    #[test]
    fn non_finite_input_yields_zero() {
        let mf = MembershipFunction::triangular(0.0, 5.0, 10.0).unwrap();
        assert_eq!(mf.membership(f64::NAN), 0.0);
        assert_eq!(mf.membership(f64::INFINITY), 0.0);
    }

    #[test]
    fn serde_derives_exist() {
        fn assert_serialize<T: serde::Serialize>(_: &T) {}
        fn assert_deserialize<T: serde::Deserialize>() {}
        let mf = MembershipFunction::trapezoidal(0.1, 0.2, 0.4, 0.5).unwrap();
        assert_serialize(&mf);
        assert_deserialize::<MembershipFunction>();
    }
}
