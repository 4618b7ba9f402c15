//! Simulation metrics: acceptance, blocking and dropping statistics.
//!
//! The paper's figures all plot the *percentage of accepted calls* against
//! the *number of requesting connections*; [`Metrics`] tracks those counts
//! (globally and per service class) plus the dropping statistics needed to
//! verify the "keeps the QoS of on-going connections" claim.

use crate::traffic::ServiceClass;
use crate::{Bandwidth, SimTime};
use serde::{Deserialize, Serialize};

/// Counters for one service class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassMetrics {
    /// Requests offered.
    pub offered: u64,
    /// Requests accepted.
    pub accepted: u64,
    /// Requests rejected (blocked).
    pub blocked: u64,
    /// Admitted connections dropped before completing.
    pub dropped: u64,
    /// Admitted connections that completed normally.
    pub completed: u64,
    /// Bandwidth-units admitted (sum of accepted request sizes).
    pub bandwidth_admitted: u64,
}

impl ClassMetrics {
    /// Acceptance ratio in `[0, 1]`; 1 when nothing was offered.
    #[must_use]
    pub fn acceptance_ratio(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.accepted as f64 / self.offered as f64
        }
    }

    /// Blocking ratio in `[0, 1]`; 0 when nothing was offered.
    #[must_use]
    pub fn blocking_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.blocked as f64 / self.offered as f64
        }
    }

    /// Dropping ratio among *admitted* connections; 0 when nothing was
    /// admitted.
    #[must_use]
    pub fn dropping_ratio(&self) -> f64 {
        if self.accepted == 0 {
            0.0
        } else {
            self.dropped as f64 / self.accepted as f64
        }
    }
}

/// A `(time, utilization)` sample of base-station load.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilizationSample {
    /// Sample time (seconds).
    pub time: SimTime,
    /// Occupied bandwidth at that time (BU).
    pub occupied: Bandwidth,
    /// Capacity at that time (BU).
    pub capacity: Bandwidth,
}

/// `true` for a zero counter: the `skip_serializing_if` test of the
/// counters that serialised reports carry only when nonzero.
pub(crate) fn is_zero(n: &u64) -> bool {
    *n == 0
}

/// Aggregated metrics of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    per_class: [ClassMetrics; 3],
    handoff_offered: u64,
    handoff_accepted: u64,
    handoff_failed: u64,
    utilization: Vec<UtilizationSample>,
    /// Connections force-dropped by cell outages (a subset of the
    /// per-class `dropped` counters).  `#[serde(default)]` so pre-fault
    /// reports deserialise; serialised only when nonzero so fault-free
    /// reports keep their exact pre-fault byte layout.
    #[serde(default, skip_serializing_if = "is_zero")]
    dropped_by_outage: u64,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Zero every counter and drop every sample, keeping the utilisation
    /// buffer's capacity — so a simulator reused across runs records fresh
    /// metrics without reallocating.
    pub fn reset(&mut self) {
        self.per_class = [ClassMetrics::default(); 3];
        self.handoff_offered = 0;
        self.handoff_accepted = 0;
        self.handoff_failed = 0;
        self.utilization.clear();
        self.dropped_by_outage = 0;
    }

    /// Record an offered request (before the admission decision).
    pub fn record_offered(&mut self, class: ServiceClass, is_handoff: bool) {
        self.per_class[class.index()].offered += 1;
        if is_handoff {
            self.handoff_offered += 1;
        }
    }

    /// Record an accepted request.
    pub fn record_accepted(&mut self, class: ServiceClass, bandwidth: Bandwidth, is_handoff: bool) {
        let m = &mut self.per_class[class.index()];
        m.accepted += 1;
        m.bandwidth_admitted += u64::from(bandwidth);
        if is_handoff {
            self.handoff_accepted += 1;
        }
    }

    /// Record a blocked (rejected) request.
    pub fn record_blocked(&mut self, class: ServiceClass, is_handoff: bool) {
        self.per_class[class.index()].blocked += 1;
        if is_handoff {
            self.handoff_failed += 1;
        }
    }

    /// Record the completion of an admitted connection.
    pub fn record_completed(&mut self, class: ServiceClass) {
        self.per_class[class.index()].completed += 1;
    }

    /// Record the dropping of an admitted connection.
    pub fn record_dropped(&mut self, class: ServiceClass) {
        self.per_class[class.index()].dropped += 1;
    }

    /// Record that an admitted connection was force-dropped by a cell
    /// outage.  Called *in addition to* [`Metrics::record_dropped`]:
    /// outage drops are a cause-attributed subset of the drop totals.
    pub fn record_dropped_by_outage(&mut self) {
        self.dropped_by_outage += 1;
    }

    /// Connections force-dropped by cell outages.
    #[must_use]
    pub fn dropped_by_outage(&self) -> u64 {
        self.dropped_by_outage
    }

    /// Record a base-station utilisation sample.
    pub fn record_utilization(&mut self, time: SimTime, occupied: Bandwidth, capacity: Bandwidth) {
        self.utilization.push(UtilizationSample {
            time,
            occupied,
            capacity,
        });
    }

    /// Metrics of one service class.
    #[must_use]
    pub fn class(&self, class: ServiceClass) -> &ClassMetrics {
        &self.per_class[class.index()]
    }

    /// Total requests offered.
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.per_class.iter().map(|m| m.offered).sum()
    }

    /// Total requests accepted.
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.per_class.iter().map(|m| m.accepted).sum()
    }

    /// Total requests blocked.
    #[must_use]
    pub fn blocked(&self) -> u64 {
        self.per_class.iter().map(|m| m.blocked).sum()
    }

    /// Total admitted connections dropped.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.per_class.iter().map(|m| m.dropped).sum()
    }

    /// Total admitted connections completed normally.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.per_class.iter().map(|m| m.completed).sum()
    }

    /// Total bandwidth-units admitted.
    #[must_use]
    pub fn bandwidth_admitted(&self) -> u64 {
        self.per_class.iter().map(|m| m.bandwidth_admitted).sum()
    }

    /// Handoff requests offered / accepted / failed.
    #[must_use]
    pub fn handoffs(&self) -> (u64, u64, u64) {
        (
            self.handoff_offered,
            self.handoff_accepted,
            self.handoff_failed,
        )
    }

    /// Percentage of accepted calls (0–100) — the y-axis of every figure in
    /// the paper.  100 when nothing was offered.
    #[must_use]
    pub fn acceptance_percentage(&self) -> f64 {
        if self.offered() == 0 {
            100.0
        } else {
            100.0 * self.accepted() as f64 / self.offered() as f64
        }
    }

    /// Overall blocking probability in `[0, 1]`.
    #[must_use]
    pub fn blocking_probability(&self) -> f64 {
        if self.offered() == 0 {
            0.0
        } else {
            self.blocked() as f64 / self.offered() as f64
        }
    }

    /// Overall dropping probability among admitted connections.
    #[must_use]
    pub fn dropping_probability(&self) -> f64 {
        if self.accepted() == 0 {
            0.0
        } else {
            self.dropped() as f64 / self.accepted() as f64
        }
    }

    /// Mean utilisation over the recorded samples, in `[0, 1]`.
    #[must_use]
    pub fn mean_utilization(&self) -> f64 {
        if self.utilization.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .utilization
            .iter()
            .map(|s| {
                if s.capacity == 0 {
                    1.0
                } else {
                    f64::from(s.occupied) / f64::from(s.capacity)
                }
            })
            .sum();
        sum / self.utilization.len() as f64
    }

    /// The recorded utilisation time series.
    #[must_use]
    pub fn utilization_samples(&self) -> &[UtilizationSample] {
        &self.utilization
    }

    /// Merge another metrics object into this one (for aggregating over
    /// repeated runs with different seeds).
    pub fn merge(&mut self, other: &Metrics) {
        for (dst, src) in self.per_class.iter_mut().zip(&other.per_class) {
            dst.offered += src.offered;
            dst.accepted += src.accepted;
            dst.blocked += src.blocked;
            dst.dropped += src.dropped;
            dst.completed += src.completed;
            dst.bandwidth_admitted += src.bandwidth_admitted;
        }
        self.handoff_offered += other.handoff_offered;
        self.handoff_accepted += other.handoff_accepted;
        self.handoff_failed += other.handoff_failed;
        self.utilization.extend_from_slice(&other.utilization);
        self.dropped_by_outage += other.dropped_by_outage;
    }
}

/// Streaming accumulator for a scalar observed once per replication
/// (Welford's algorithm), used to aggregate a metric — e.g. the acceptance
/// percentage — across repeated runs with different seeds.
///
/// Like [`Metrics::merge`], two accumulators can be merged (Chan et al.'s
/// parallel update), so partial aggregates computed by different workers
/// combine into the same result as a single sequential pass **provided the
/// merge order is fixed** — which is why the sweep engine always merges in
/// replication order, regardless of which thread produced each value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StatAccumulator {
    count: u64,
    mean: f64,
    m2: f64,
}

impl StatAccumulator {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &StatAccumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (0 with fewer than two observations).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).max(0.0).sqrt()
        }
    }

    /// Half-width of the normal-approximation 95 % confidence interval of
    /// the mean (0 with fewer than two observations).
    #[must_use]
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            1.96 * self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Snapshot the accumulated statistics.
    #[must_use]
    pub fn summary(&self) -> SummaryStats {
        let hw = self.ci95_half_width();
        SummaryStats {
            n: self.count,
            mean: self.mean(),
            std_dev: self.std_dev(),
            ci95_lo: self.mean() - hw,
            ci95_hi: self.mean() + hw,
        }
    }
}

/// Cross-replication summary of one scalar metric: mean, sample standard
/// deviation and the normal-approximation 95 % confidence interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SummaryStats {
    /// Number of replications aggregated.
    pub n: u64,
    /// Mean over the replications.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Lower bound of the 95 % confidence interval of the mean.
    pub ci95_lo: f64,
    /// Upper bound of the 95 % confidence interval of the mean.
    pub ci95_hi: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_serializing_if_omits_a_zero_field_and_emits_a_nonzero_one() {
        #[derive(Serialize)]
        struct Probe {
            before: u64,
            #[serde(default, skip_serializing_if = "is_zero")]
            counter: u64,
            after: u64,
        }
        let json = |counter| {
            serde_json::to_string(&Probe {
                before: 7,
                counter,
                after: 9,
            })
            .unwrap()
        };
        assert_eq!(json(0), r#"{"before":7,"after":9}"#);
        assert_eq!(json(1), r#"{"before":7,"counter":1,"after":9}"#);
    }

    #[test]
    fn empty_metrics_defaults() {
        let m = Metrics::new();
        assert_eq!(m.offered(), 0);
        assert_eq!(m.acceptance_percentage(), 100.0);
        assert_eq!(m.blocking_probability(), 0.0);
        assert_eq!(m.dropping_probability(), 0.0);
        assert_eq!(m.mean_utilization(), 0.0);
    }

    /// Pin the zero-offered / degenerate-denominator contract of every
    /// ratio accessor: a run that offered nothing (or admitted nothing,
    /// or sampled nothing) reports exact, finite sentinel values — never
    /// NaN or ±Inf — at both the aggregate and the per-class level.
    #[test]
    fn ratio_accessors_never_nan_on_empty_or_degenerate_runs() {
        let empty = Metrics::new();
        for value in [
            empty.acceptance_percentage(),
            empty.blocking_probability(),
            empty.dropping_probability(),
            empty.mean_utilization(),
        ] {
            assert!(value.is_finite(), "empty-run ratio must be finite");
        }
        for class in ServiceClass::ALL {
            let c = empty.class(class);
            assert_eq!(c.acceptance_ratio(), 1.0, "nothing offered => all accepted");
            assert_eq!(c.blocking_ratio(), 0.0);
            assert_eq!(c.dropping_ratio(), 0.0);
        }

        // Offered but nothing admitted: dropping ratio must stay 0/0-safe.
        let mut blocked_only = Metrics::new();
        blocked_only.record_offered(ServiceClass::Voice, false);
        blocked_only.record_blocked(ServiceClass::Voice, false);
        assert_eq!(blocked_only.acceptance_percentage(), 0.0);
        assert_eq!(blocked_only.blocking_probability(), 1.0);
        assert_eq!(blocked_only.dropping_probability(), 0.0);
        assert!(blocked_only.dropping_probability().is_finite());

        // Zero-capacity stations count as fully utilised, not NaN.
        let mut degenerate = Metrics::new();
        degenerate.record_utilization(0.0, 0, 0);
        assert_eq!(degenerate.mean_utilization(), 1.0);
        assert!(degenerate.mean_utilization().is_finite());
    }

    #[test]
    fn outage_drops_serialise_only_when_present() {
        // Fault-free metrics keep the exact pre-fault JSON shape...
        let clean = Metrics::new();
        let json = serde_json::to_string(&clean).unwrap();
        assert!(!json.contains("dropped_by_outage"));
        // ...and pre-fault JSON (no key) still deserialises.
        let back: Metrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back.dropped_by_outage(), 0);

        let mut faulted = Metrics::new();
        faulted.record_dropped(ServiceClass::Voice);
        faulted.record_dropped_by_outage();
        let json = serde_json::to_string(&faulted).unwrap();
        assert!(json.contains("\"dropped_by_outage\":1"));
        let back: Metrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, faulted);
        assert_eq!(back.dropped_by_outage(), 1);

        // Merge and reset cover the new counter.
        let mut merged = Metrics::new();
        merged.merge(&faulted);
        merged.merge(&faulted);
        assert_eq!(merged.dropped_by_outage(), 2);
        merged.reset();
        assert_eq!(merged.dropped_by_outage(), 0);
    }

    #[test]
    fn acceptance_percentage_tracks_counts() {
        let mut m = Metrics::new();
        for i in 0..10 {
            m.record_offered(ServiceClass::Text, false);
            if i < 7 {
                m.record_accepted(ServiceClass::Text, 1, false);
            } else {
                m.record_blocked(ServiceClass::Text, false);
            }
        }
        assert_eq!(m.offered(), 10);
        assert_eq!(m.accepted(), 7);
        assert_eq!(m.blocked(), 3);
        assert!((m.acceptance_percentage() - 70.0).abs() < 1e-12);
        assert!((m.blocking_probability() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn per_class_ratios() {
        let mut m = Metrics::new();
        m.record_offered(ServiceClass::Video, false);
        m.record_accepted(ServiceClass::Video, 10, false);
        m.record_offered(ServiceClass::Video, false);
        m.record_blocked(ServiceClass::Video, false);
        let v = m.class(ServiceClass::Video);
        assert_eq!(v.offered, 2);
        assert!((v.acceptance_ratio() - 0.5).abs() < 1e-12);
        assert!((v.blocking_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(v.bandwidth_admitted, 10);
        // Untouched class reports the no-traffic defaults.
        let t = m.class(ServiceClass::Text);
        assert_eq!(t.acceptance_ratio(), 1.0);
        assert_eq!(t.blocking_ratio(), 0.0);
        assert_eq!(t.dropping_ratio(), 0.0);
    }

    #[test]
    fn dropping_probability_counts_admitted_only() {
        let mut m = Metrics::new();
        for _ in 0..4 {
            m.record_offered(ServiceClass::Voice, false);
            m.record_accepted(ServiceClass::Voice, 5, false);
        }
        m.record_dropped(ServiceClass::Voice);
        m.record_completed(ServiceClass::Voice);
        assert!((m.dropping_probability() - 0.25).abs() < 1e-12);
        assert_eq!(m.completed(), 1);
        assert_eq!(m.dropped(), 1);
        assert!((m.class(ServiceClass::Voice).dropping_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn handoff_counters() {
        let mut m = Metrics::new();
        m.record_offered(ServiceClass::Voice, true);
        m.record_accepted(ServiceClass::Voice, 5, true);
        m.record_offered(ServiceClass::Video, true);
        m.record_blocked(ServiceClass::Video, true);
        assert_eq!(m.handoffs(), (2, 1, 1));
    }

    #[test]
    fn utilization_mean() {
        let mut m = Metrics::new();
        m.record_utilization(0.0, 0, 40);
        m.record_utilization(1.0, 20, 40);
        m.record_utilization(2.0, 40, 40);
        assert!((m.mean_utilization() - 0.5).abs() < 1e-12);
        assert_eq!(m.utilization_samples().len(), 3);
        // zero capacity counts as fully utilised
        let mut z = Metrics::new();
        z.record_utilization(0.0, 0, 0);
        assert_eq!(z.mean_utilization(), 1.0);
    }

    #[test]
    fn reset_zeroes_counters_and_keeps_sample_capacity() {
        let mut m = Metrics::new();
        m.record_offered(ServiceClass::Voice, true);
        m.record_accepted(ServiceClass::Voice, 5, true);
        for i in 0..32 {
            m.record_utilization(f64::from(i), i, 40);
        }
        let cap = m.utilization.capacity();
        m.reset();
        assert_eq!(m, Metrics::new());
        assert_eq!(m.utilization.capacity(), cap, "sample buffer is reused");
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Metrics::new();
        a.record_offered(ServiceClass::Text, false);
        a.record_accepted(ServiceClass::Text, 1, false);
        let mut b = Metrics::new();
        b.record_offered(ServiceClass::Text, false);
        b.record_blocked(ServiceClass::Text, false);
        b.record_utilization(5.0, 10, 40);
        a.merge(&b);
        assert_eq!(a.offered(), 2);
        assert_eq!(a.accepted(), 1);
        assert_eq!(a.blocked(), 1);
        assert_eq!(a.utilization_samples().len(), 1);
        assert!((a.acceptance_percentage() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn stat_accumulator_mean_std_ci() {
        let mut acc = StatAccumulator::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            acc.push(v);
        }
        let s = acc.summary();
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std of this classic data set is sqrt(32/7).
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert!(s.ci95_lo < s.mean && s.mean < s.ci95_hi);
        assert!(
            (s.ci95_hi - s.mean - 1.96 * s.std_dev / 8.0f64.sqrt()).abs() < 1e-12,
            "ci half-width"
        );
    }

    #[test]
    fn stat_accumulator_degenerate_counts() {
        let empty = StatAccumulator::new();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.std_dev(), 0.0);
        assert_eq!(empty.ci95_half_width(), 0.0);
        let mut one = StatAccumulator::new();
        one.push(42.0);
        let s = one.summary();
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95_lo, 42.0);
        assert_eq!(s.ci95_hi, 42.0);
    }

    #[test]
    fn stat_accumulator_merge_matches_sequential() {
        let values = [3.5, -1.0, 7.25, 0.0, 12.0, 5.5, 5.5];
        let mut sequential = StatAccumulator::new();
        for v in values {
            sequential.push(v);
        }
        let mut left = StatAccumulator::new();
        let mut right = StatAccumulator::new();
        for v in &values[..3] {
            left.push(*v);
        }
        for v in &values[3..] {
            right.push(*v);
        }
        let mut merged = StatAccumulator::new();
        merged.merge(&left);
        merged.merge(&right);
        assert_eq!(merged.count(), sequential.count());
        assert!((merged.mean() - sequential.mean()).abs() < 1e-12);
        assert!((merged.std_dev() - sequential.std_dev()).abs() < 1e-12);
        // Merging an empty accumulator is a no-op.
        let before = merged;
        merged.merge(&StatAccumulator::new());
        assert_eq!(merged, before);
    }

    #[test]
    fn bandwidth_admitted_sums() {
        let mut m = Metrics::new();
        m.record_offered(ServiceClass::Text, false);
        m.record_accepted(ServiceClass::Text, 1, false);
        m.record_offered(ServiceClass::Video, false);
        m.record_accepted(ServiceClass::Video, 10, false);
        assert_eq!(m.bandwidth_admitted(), 11);
    }
}
