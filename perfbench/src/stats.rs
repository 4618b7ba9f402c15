//! Small statistics helpers: exact percentiles over raw samples, medians,
//! a stable digest, and the process's peak resident memory.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// An exact latency distribution: every sample is kept and sorted.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<u64>,
}

impl Samples {
    /// Take ownership of raw samples and sort them.
    #[must_use]
    pub fn new(mut raw: Vec<u64>) -> Self {
        raw.sort_unstable();
        Self { sorted: raw }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile `q` in `(0, 1]`: the smallest sample with
    /// at least `q` of all samples at or below it.
    ///
    /// # Panics
    /// Panics when there are no samples.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        assert!(!self.sorted.is_empty(), "percentile of no samples");
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Samples strictly above percentile `q`: a percentile is reported
    /// only when at least ten samples lie beyond it.
    #[must_use]
    pub fn beyond(&self, q: f64) -> usize {
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted.len().saturating_sub(rank)
    }
}

/// FNV-1a over bytes: a stable digest for printing decision sequences.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size of this process so far, in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable struct with the layout of the
    // C `struct rusage` on 64-bit Linux (two timevals, then fourteen
    // longs), and RUSAGE_SELF (0) is a valid `who`.
    let status = unsafe { getrusage(0, &mut usage) };
    assert_eq!(status, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.maxrss_kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_the_ten_beyond_rule() {
        let samples = Samples::new((1..=1000).rev().collect());
        assert_eq!(samples.percentile(0.5), 500);
        assert_eq!(samples.percentile(0.99), 990);
        assert_eq!(samples.beyond(0.99), 10);
        assert_eq!(Samples::new(vec![7]).percentile(0.99), 7);
        assert_eq!(Samples::new((1..=100).collect()).beyond(0.99), 1);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
