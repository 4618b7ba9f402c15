//! Deterministic random-number helpers.
//!
//! Every stochastic component of the simulator draws from a [`SimRng`] that
//! is seeded explicitly, so any experiment (and any failing test) can be
//! reproduced exactly from its seed.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The SplitMix64 increment: the odd constant nearest `2^64 / φ`, added
/// to the state before every [`mix64`].
pub const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer: a bijection on `u64` in which every input bit
/// flips each output bit with probability close to 1/2.
///
/// It turns structured counters (adjacent seeds, stream ids, connection
/// ids spaced by a power of two) into decorrelated values, which is what
/// [`SimRng::derive`] needs for child seeds and what the base station's
/// connection index needs from a hash: a plain multiply would leave the
/// low bits of power-of-two-spaced ids zero and pile them into one bucket.
#[inline]
#[must_use]
pub const fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random-number generator with the handful of distributions the
/// simulator needs (uniform, exponential, Bernoulli, weighted choice).
#[derive(Debug, Clone)]
pub struct SimRng {
    rng: StdRng,
    seed: u64,
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this generator was created with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent child generator; `stream` distinguishes
    /// different uses of the same parent seed.
    #[must_use]
    pub fn derive(&self, stream: u64) -> Self {
        // SplitMix64-style mixing keeps child streams decorrelated even for
        // adjacent seeds / stream ids.
        Self::new(mix64(self.seed.wrapping_add(
            SPLITMIX64_GAMMA.wrapping_mul(stream.wrapping_add(1)),
        )))
    }

    /// Uniform value in `[lo, hi)` (returns `lo` when the range is empty or
    /// degenerate).
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if !(lo.is_finite() && hi.is_finite()) || hi <= lo {
            return lo;
        }
        Uniform::new(lo, hi).sample(&mut self.rng)
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn uniform_u32(&mut self, lo: u32, hi: u32) -> u32 {
        if hi <= lo {
            return lo;
        }
        self.rng.gen_range(lo..=hi)
    }

    /// Exponentially distributed value with the given mean (`> 0`).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if !(mean.is_finite()) || mean <= 0.0 {
            return 0.0;
        }
        // Inverse-CDF sampling; `1 - u` avoids ln(0).
        let u: f64 = self.rng.gen::<f64>();
        -mean * (1.0 - u).ln()
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        self.rng.gen::<f64>() < p
    }

    /// Choose an index according to non-negative `weights`.
    ///
    /// Returns 0 when all weights are zero or the slice is empty.
    pub fn weighted_choice(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        if total <= 0.0 || weights.is_empty() {
            return 0;
        }
        let mut target = self.rng.gen::<f64>() * total;
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w <= 0.0 {
                continue;
            }
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<f64> = (0..10).map(|_| a.uniform(0.0, 1.0)).collect();
        let vb: Vec<f64> = (0..10).map(|_| b.uniform(0.0, 1.0)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derived_streams_are_deterministic_and_distinct() {
        let parent = SimRng::new(7);
        let mut c1 = parent.derive(0);
        let mut c1b = parent.derive(0);
        let mut c2 = parent.derive(1);
        let a = c1.uniform(0.0, 1.0);
        assert_eq!(a, c1b.uniform(0.0, 1.0));
        assert_ne!(a, c2.uniform(0.0, 1.0));
        assert_eq!(parent.seed(), 7);
    }

    #[test]
    fn mix64_is_the_splitmix64_finalizer() {
        // First output of SplitMix64 seeded with 0 (reference vector).
        assert_eq!(mix64(SPLITMIX64_GAMMA), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix64(0), 0);
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            let v = rng.uniform(-180.0, 180.0);
            assert!((-180.0..180.0).contains(&v));
        }
        assert_eq!(rng.uniform(5.0, 5.0), 5.0);
        assert_eq!(rng.uniform(5.0, 1.0), 5.0);
    }

    #[test]
    fn uniform_u32_inclusive() {
        let mut rng = SimRng::new(3);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            let v = rng.uniform_u32(1, 4);
            assert!((1..=4).contains(&v));
            seen_lo |= v == 1;
            seen_hi |= v == 4;
        }
        assert!(seen_lo && seen_hi);
        assert_eq!(rng.uniform_u32(9, 3), 9);
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut rng = SimRng::new(11);
        let n = 20_000;
        let mean = 120.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let empirical = sum / n as f64;
        assert!(
            (empirical - mean).abs() < mean * 0.05,
            "empirical {empirical}"
        );
        assert_eq!(rng.exponential(0.0), 0.0);
        assert_eq!(rng.exponential(-3.0), 0.0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(5);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
        assert!(!rng.chance(f64::NAN));
    }

    #[test]
    fn chance_probability_is_roughly_right() {
        let mut rng = SimRng::new(6);
        let hits = (0..20_000).filter(|_| rng.chance(0.7)).count();
        let p = hits as f64 / 20_000.0;
        assert!((p - 0.7).abs() < 0.02, "p = {p}");
    }

    #[test]
    fn weighted_choice_follows_weights() {
        let mut rng = SimRng::new(8);
        let weights = [0.7, 0.2, 0.1];
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.weighted_choice(&weights)] += 1;
        }
        let p0 = counts[0] as f64 / 30_000.0;
        let p1 = counts[1] as f64 / 30_000.0;
        let p2 = counts[2] as f64 / 30_000.0;
        assert!((p0 - 0.7).abs() < 0.02, "{p0}");
        assert!((p1 - 0.2).abs() < 0.02, "{p1}");
        assert!((p2 - 0.1).abs() < 0.02, "{p2}");
    }

    #[test]
    fn weighted_choice_degenerate_cases() {
        let mut rng = SimRng::new(9);
        assert_eq!(rng.weighted_choice(&[]), 0);
        assert_eq!(rng.weighted_choice(&[0.0, 0.0]), 0);
        assert_eq!(rng.weighted_choice(&[0.0, 5.0]), 1);
        assert_eq!(rng.weighted_choice(&[f64::NAN, 1.0]), 1);
    }
}
