//! The simulator's telemetry schema and the feature-selected default
//! recorder.
//!
//! One static [`Schema`] covers both the sequential engine
//! ([`crate::sim::Simulator`]) and the sharded engine
//! ([`crate::shard::ShardedSimulator`]), so per-shard snapshots merge
//! into the coordinator's without series collisions.
//!
//! The `telemetry` cargo feature selects which [`telemetry::Recorder`] a plain
//! `Simulator::new` gets: [`telemetry::Registry`] (instrumented) with the
//! feature, [`telemetry::NoopRecorder`] (zero-cost, the default) without.
//! Both types are always available, so a default build can still
//! instantiate `Simulator::<Registry>` explicitly — that is how the
//! on-vs-off invariance test and the telemetry-overhead benchmark case
//! run inside a single binary.
//!
//! # Determinism contract
//!
//! Recording never reads an RNG stream, never mutates simulation state,
//! and never reorders events. Reports and golden snapshots are therefore
//! byte-identical whichever recorder is plugged in; see
//! `tests/telemetry_invariance.rs`.

use telemetry::{CounterId, GaugeId, HistogramId, MetricDef, Schema, SpanId};

use crate::traffic::ServiceClass;

/// The recorder a plain [`crate::sim::Simulator::new`] uses: the real
/// [`telemetry::Registry`] when the `telemetry` cargo feature is on.
#[cfg(feature = "telemetry")]
pub type DefaultRecorder = telemetry::Registry;

/// The recorder a plain [`crate::sim::Simulator::new`] uses: the
/// zero-cost [`telemetry::NoopRecorder`] in the default build.
#[cfg(not(feature = "telemetry"))]
pub type DefaultRecorder = telemetry::NoopRecorder;

/// Counter ids into [`SCHEMA`].
pub mod counter {
    use super::CounterId;

    /// Arrival events processed by the event loop.
    pub const EVENT_ARRIVAL: CounterId = CounterId(0);
    /// Departure events processed.
    pub const EVENT_DEPARTURE: CounterId = CounterId(1);
    /// Handoff events processed.
    pub const EVENT_HANDOFF: CounterId = CounterId(2);
    /// Utilisation-sample ticks processed (exported as `mobility_tick`).
    pub const EVENT_MOBILITY_TICK: CounterId = CounterId(3);
    /// First of the 12 admission-decision counters (class × kind ×
    /// outcome); see [`super::admission_counter`].
    pub const ADMISSION_BASE: u16 = 4;
    /// Cross-shard admit merge tasks replayed at an epoch barrier.
    pub const MERGE_ADMIT: CounterId = CounterId(16);
    /// Cross-shard release merge tasks replayed.
    pub const MERGE_RELEASE: CounterId = CounterId(17);
    /// Cross-shard handoff merge tasks replayed.
    pub const MERGE_HANDOFF: CounterId = CounterId(18);
    /// Scheduled fault events applied (outage / recovery / degrade /
    /// restore).
    pub const EVENT_FAULT: CounterId = CounterId(19);
    /// Active connections force-dropped by cell outages.
    pub const OUTAGE_DROPPED: CounterId = CounterId(20);
}

/// Histogram ids into [`SCHEMA`].
pub mod histogram {
    use super::HistogramId;

    /// Event-heap depth observed at every run-time event pop.
    pub const HEAP_DEPTH: HistogramId = HistogramId(0);
    /// Wall time of one shard's epoch loop, nanoseconds (one observation
    /// per shard per epoch).
    pub const SHARD_EPOCH_NS: HistogramId = HistogramId(1);
    /// Parallel-phase imbalance per epoch: slowest shard over mean shard
    /// wall time, in permille (1000 = perfectly balanced).
    pub const EPOCH_IMBALANCE_PERMILLE: HistogramId = HistogramId(2);
    /// Cross-shard merge-queue depth at each epoch barrier.
    pub const MERGE_QUEUE_DEPTH: HistogramId = HistogramId(3);
}

/// Gauge (high-water mark) ids into [`SCHEMA`].
pub mod gauge {
    use super::GaugeId;

    /// High-water mark of live user-kinematics slots in the slab.
    pub const SLAB_USERS: GaugeId = GaugeId(0);
    /// High-water mark of the event-heap depth.
    pub const HEAP_DEPTH: GaugeId = GaugeId(1);
    /// High-water mark of concurrent users across all shards.
    pub const SHARD_CONCURRENT_USERS: GaugeId = GaugeId(2);
    /// High-water mark of the sharded coordinator's epoch arrival buffer
    /// (arrivals drawn for one epoch).
    pub const SHARD_ARRIVAL_BUFFER: GaugeId = GaugeId(3);
}

/// Span-timer ids into [`SCHEMA`].
pub mod span {
    use super::SpanId;

    /// Wall time of one [`crate::sim::Simulator::run_poisson`] call.
    pub const RUN_POISSON: SpanId = SpanId(0);
    /// Wall time of one [`crate::sim::Simulator::run_batch`] call.
    pub const RUN_BATCH: SpanId = SpanId(1);
    /// Wall time of the parallel phase of one sharded epoch.
    pub const SHARD_PARALLEL_PHASE: SpanId = SpanId(2);
    /// Wall time of the sequential merge phase of one sharded epoch.
    pub const SHARD_MERGE_PHASE: SpanId = SpanId(3);
}

/// Trace kind for one epoch barrier (value = merge-queue depth).
pub const TRACE_EPOCH: u16 = 0;

#[cfg(test)]
const CLASS_NAMES: [&str; 3] = ["text", "voice", "video"];

/// The admission-decision counter for a `(class, kind, outcome)` cell:
/// `kind` is new-call vs handoff, `outcome` accepted vs blocked (a
/// blocked handoff is a dropped call).
#[inline]
#[must_use]
pub fn admission_counter(class: ServiceClass, accepted: bool, is_handoff: bool) -> CounterId {
    CounterId(
        counter::ADMISSION_BASE
            + class.index() as u16 * 4
            + u16::from(is_handoff) * 2
            + u16::from(accepted),
    )
}

/// The cellsim metric layout. Admission counters are laid out
/// `class-major, then kind, then outcome` to match
/// [`admission_counter`].
pub static SCHEMA: Schema = Schema {
    counters: &[
        MetricDef {
            name: "sim_events_total",
            help: "Events processed by the run_poisson loop, by kind",
            labels: &[("kind", "arrival")],
        },
        MetricDef {
            name: "sim_events_total",
            help: "Events processed by the run_poisson loop, by kind",
            labels: &[("kind", "departure")],
        },
        MetricDef {
            name: "sim_events_total",
            help: "Events processed by the run_poisson loop, by kind",
            labels: &[("kind", "handoff")],
        },
        MetricDef {
            name: "sim_events_total",
            help: "Events processed by the run_poisson loop, by kind",
            // Counts utilisation-sample ticks; the label keeps its old
            // name because perfbench reads it.
            labels: &[("kind", "mobility_tick")],
        },
        admission_metric(0, false, false),
        admission_metric(0, false, true),
        admission_metric(0, true, false),
        admission_metric(0, true, true),
        admission_metric(1, false, false),
        admission_metric(1, false, true),
        admission_metric(1, true, false),
        admission_metric(1, true, true),
        admission_metric(2, false, false),
        admission_metric(2, false, true),
        admission_metric(2, true, false),
        admission_metric(2, true, true),
        MetricDef {
            name: "shard_merge_tasks_total",
            help: "Cross-shard merge tasks replayed at epoch barriers, by kind",
            labels: &[("kind", "admit")],
        },
        MetricDef {
            name: "shard_merge_tasks_total",
            help: "Cross-shard merge tasks replayed at epoch barriers, by kind",
            labels: &[("kind", "release")],
        },
        MetricDef {
            name: "shard_merge_tasks_total",
            help: "Cross-shard merge tasks replayed at epoch barriers, by kind",
            labels: &[("kind", "handoff")],
        },
        MetricDef {
            name: "sim_events_total",
            help: "Events processed by the run_poisson loop, by kind",
            labels: &[("kind", "fault")],
        },
        MetricDef {
            name: "sim_outage_dropped_total",
            help: "Active connections force-dropped by cell outages",
            labels: &[],
        },
    ],
    histograms: &[
        MetricDef {
            name: "sim_heap_depth",
            help: "Event-heap depth at run-time event pops (log2 buckets)",
            labels: &[],
        },
        MetricDef {
            name: "shard_epoch_ns",
            help: "Per-shard epoch loop wall time in nanoseconds (log2 buckets)",
            labels: &[],
        },
        MetricDef {
            name: "shard_epoch_imbalance_permille",
            help: "Slowest shard over mean shard wall time per epoch, permille",
            labels: &[],
        },
        MetricDef {
            name: "shard_merge_queue_depth",
            help: "Cross-shard merge-queue depth at each epoch barrier",
            labels: &[],
        },
    ],
    gauges: &[
        MetricDef {
            name: "sim_slab_users_high_water",
            help: "High-water mark of live user-kinematics slab slots",
            labels: &[],
        },
        MetricDef {
            name: "sim_heap_depth_high_water",
            help: "High-water mark of the event-heap depth",
            labels: &[],
        },
        MetricDef {
            name: "shard_concurrent_users_high_water",
            help: "High-water mark of concurrent users across all shards",
            labels: &[],
        },
        MetricDef {
            name: "shard_arrival_buffer_high_water",
            help: "High-water mark of the arrivals drawn for one sharded epoch",
            labels: &[],
        },
    ],
    spans: &[
        MetricDef {
            name: "sim_run_poisson_ns",
            help: "Wall time of run_poisson calls",
            labels: &[],
        },
        MetricDef {
            name: "sim_run_batch_ns",
            help: "Wall time of run_batch calls",
            labels: &[],
        },
        MetricDef {
            name: "shard_parallel_phase_ns",
            help: "Wall time of the parallel phase of each sharded epoch",
            labels: &[],
        },
        MetricDef {
            name: "shard_merge_phase_ns",
            help: "Wall time of the sequential merge phase of each sharded epoch",
            labels: &[],
        },
    ],
    trace_kinds: &["epoch"],
    trace_capacity: 256,
};

const fn admission_metric(class: usize, is_handoff: bool, accepted: bool) -> MetricDef {
    MetricDef {
        name: "sim_admissions_total",
        help: "Admission decisions by service class, request kind, and outcome",
        labels: match (class, is_handoff, accepted) {
            (0, false, false) => &[("class", "text"), ("kind", "new"), ("outcome", "blocked")],
            (0, false, true) => &[("class", "text"), ("kind", "new"), ("outcome", "accepted")],
            (0, true, false) => &[
                ("class", "text"),
                ("kind", "handoff"),
                ("outcome", "blocked"),
            ],
            (0, true, true) => &[
                ("class", "text"),
                ("kind", "handoff"),
                ("outcome", "accepted"),
            ],
            (1, false, false) => &[("class", "voice"), ("kind", "new"), ("outcome", "blocked")],
            (1, false, true) => &[("class", "voice"), ("kind", "new"), ("outcome", "accepted")],
            (1, true, false) => &[
                ("class", "voice"),
                ("kind", "handoff"),
                ("outcome", "blocked"),
            ],
            (1, true, true) => &[
                ("class", "voice"),
                ("kind", "handoff"),
                ("outcome", "accepted"),
            ],
            (2, false, false) => &[("class", "video"), ("kind", "new"), ("outcome", "blocked")],
            (2, false, true) => &[("class", "video"), ("kind", "new"), ("outcome", "accepted")],
            (2, true, false) => &[
                ("class", "video"),
                ("kind", "handoff"),
                ("outcome", "blocked"),
            ],
            _ => &[
                ("class", "video"),
                ("kind", "handoff"),
                ("outcome", "accepted"),
            ],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::Recorder;

    #[test]
    fn admission_counter_layout_matches_schema_labels() {
        for class in ServiceClass::ALL {
            for is_handoff in [false, true] {
                for accepted in [false, true] {
                    let id = admission_counter(class, accepted, is_handoff);
                    let def = &SCHEMA.counters[id.0 as usize];
                    assert_eq!(def.name, "sim_admissions_total");
                    let want_class = CLASS_NAMES[class.index()];
                    let want_kind = if is_handoff { "handoff" } else { "new" };
                    let want_outcome = if accepted { "accepted" } else { "blocked" };
                    assert_eq!(def.labels[0], ("class", want_class));
                    assert_eq!(def.labels[1], ("kind", want_kind));
                    assert_eq!(def.labels[2], ("outcome", want_outcome));
                }
            }
        }
    }

    #[test]
    fn schema_ids_are_in_range_and_exposition_lints() {
        let mut r = telemetry::Registry::for_schema(&SCHEMA);
        r.add(counter::EVENT_ARRIVAL, 1);
        r.add(counter::MERGE_HANDOFF, 1);
        r.observe(histogram::HEAP_DEPTH, 3);
        r.observe(histogram::MERGE_QUEUE_DEPTH, 9);
        r.high_water(gauge::SLAB_USERS, 7);
        r.high_water(gauge::SHARD_CONCURRENT_USERS, 11);
        r.high_water(gauge::SHARD_ARRIVAL_BUFFER, 13);
        r.span_ns(span::RUN_POISSON, 42);
        r.span_ns(span::SHARD_MERGE_PHASE, 42);
        let text = r.snapshot().to_prometheus();
        telemetry::lint_prometheus(&text).expect("cellsim schema exposition must lint clean");
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn feature_selects_registry_as_default() {
        const { assert!(<DefaultRecorder as Recorder>::ENABLED) }
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn default_build_selects_noop() {
        const { assert!(!<DefaultRecorder as Recorder>::ENABLED) }
        assert_eq!(std::mem::size_of::<DefaultRecorder>(), 0);
    }
}
