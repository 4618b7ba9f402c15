//! The `admitd` telemetry schema.
//!
//! One static [`Schema`] covers the server (the world's registry plus a
//! server-level registry for connection/HTTP counters) and the bench
//! client (per-connection registries merged at the end).  Following the
//! `cellsim::telem` idiom, metric ids are dense indices into the static
//! schema so the hot path never does a name lookup.

use telemetry::{CounterId, GaugeId, HistogramId, MetricDef, Schema, SpanId};

use crate::wire::{Request, Status};

/// Counter ids into [`SCHEMA`].
pub mod counter {
    use super::CounterId;

    /// Admit request frames received, shed ones included.
    pub const FRAMES_ADMIT: CounterId = CounterId(0);
    /// Release request frames received, shed ones included.
    pub const FRAMES_RELEASE: CounterId = CounterId(1);
    /// First of the four response-status counters; see
    /// [`super::response_counter`].
    pub const RESPONSE_BASE: u16 = 2;
    /// Binary-protocol connections accepted.
    pub const CONNECTIONS: CounterId = CounterId(6);
    /// HTTP requests served (all paths).
    pub const HTTP_REQUESTS: CounterId = CounterId(7);
    /// Same-cell admit groups applied, one per world-lock hold.
    pub const BATCHES: CounterId = CounterId(8);
    /// Connections the controller saw expire (implicit releases).
    pub const EXPIRED: CounterId = CounterId(9);
    /// Connections freed because their client disconnected
    /// (`--release-on-disconnect`).
    pub const DISCONNECT_RELEASES: CounterId = CounterId(10);
    /// Chaos injections: connections reset before a response window.
    pub const CHAOS_RESETS: CounterId = CounterId(11);
    /// Chaos injections: response windows truncated mid-frame.
    pub const CHAOS_TRUNCATIONS: CounterId = CounterId(12);
    /// Chaos injections: response windows delayed.
    pub const CHAOS_DELAYS: CounterId = CounterId(13);
    /// Frames whose payload did not decode into a request.
    pub const FRAMES_UNDECODABLE: CounterId = CounterId(14);
}

/// Histogram ids into [`SCHEMA`].
pub mod histogram {
    use super::HistogramId;

    /// Frames in one same-cell admit group (log2 buckets).
    pub const BATCH_SIZE: HistogramId = HistogramId(0);
    /// Bench-client request → response latency, nanoseconds.
    pub const CLIENT_LATENCY_NS: HistogramId = HistogramId(1);
}

/// Gauge (high-water mark) ids into [`SCHEMA`].
pub mod gauge {
    use super::GaugeId;

    /// High-water mark of concurrently open binary connections.
    pub const OPEN_CONNECTIONS: GaugeId = GaugeId(0);
}

/// Span-timer ids into [`SCHEMA`].
pub mod span {
    use super::SpanId;

    /// Wall time spent inside [`crate::state::World::process`].
    pub const PROCESS: SpanId = SpanId(0);
}

/// The response counter for one wire [`Status`].
#[inline]
#[must_use]
pub fn response_counter(status: Status) -> CounterId {
    let offset = match status {
        Status::Reject => 0,
        Status::Accept => 1,
        Status::Overload => 2,
        Status::Error => 3,
    };
    CounterId(counter::RESPONSE_BASE + offset)
}

/// The frame counter for one decoded request.
#[inline]
#[must_use]
pub(crate) fn frame_counter(request: &Request) -> CounterId {
    match request {
        Request::Admit(_) => counter::FRAMES_ADMIT,
        Request::Release(_) => counter::FRAMES_RELEASE,
    }
}

/// The `admitd` metric layout.
pub static SCHEMA: Schema = Schema {
    counters: &[
        MetricDef {
            name: "admitd_frames_total",
            help: "Request frames received, by operation",
            labels: &[("op", "admit")],
        },
        MetricDef {
            name: "admitd_frames_total",
            help: "Request frames received, by operation",
            labels: &[("op", "release")],
        },
        MetricDef {
            name: "admitd_responses_total",
            help: "Response frames sent, by status",
            labels: &[("status", "reject")],
        },
        MetricDef {
            name: "admitd_responses_total",
            help: "Response frames sent, by status",
            labels: &[("status", "accept")],
        },
        MetricDef {
            name: "admitd_responses_total",
            help: "Response frames sent, by status",
            labels: &[("status", "overload")],
        },
        MetricDef {
            name: "admitd_responses_total",
            help: "Response frames sent, by status",
            labels: &[("status", "error")],
        },
        MetricDef {
            name: "admitd_connections_total",
            help: "Binary-protocol connections accepted",
            labels: &[],
        },
        MetricDef {
            name: "admitd_http_requests_total",
            help: "HTTP requests served",
            labels: &[],
        },
        MetricDef {
            name: "admitd_batches_total",
            help: "Same-cell admit groups applied under one world-lock hold",
            labels: &[],
        },
        MetricDef {
            name: "admitd_expired_releases_total",
            help: "Connections released by holding-time expiry",
            labels: &[],
        },
        MetricDef {
            name: "admitd_disconnect_releases_total",
            help: "Connections freed because their client disconnected",
            labels: &[],
        },
        MetricDef {
            name: "admitd_chaos_injections_total",
            help: "Server-side chaos faults injected, by kind",
            labels: &[("kind", "reset")],
        },
        MetricDef {
            name: "admitd_chaos_injections_total",
            help: "Server-side chaos faults injected, by kind",
            labels: &[("kind", "truncate")],
        },
        MetricDef {
            name: "admitd_chaos_injections_total",
            help: "Server-side chaos faults injected, by kind",
            labels: &[("kind", "delay")],
        },
        MetricDef {
            name: "admitd_frames_total",
            help: "Request frames received, by operation",
            labels: &[("op", "undecodable")],
        },
    ],
    histograms: &[
        MetricDef {
            name: "admitd_batch_size",
            help: "Admit frames in one same-cell group (log2 buckets)",
            labels: &[],
        },
        MetricDef {
            name: "admitd_client_latency_ns",
            help: "Bench-client request to response latency in nanoseconds",
            labels: &[],
        },
    ],
    gauges: &[MetricDef {
        name: "admitd_open_connections_high_water",
        help: "High-water mark of concurrently open binary connections",
        labels: &[],
    }],
    spans: &[MetricDef {
        name: "admitd_process_ns",
        help: "Wall time spent applying request batches to world state",
        labels: &[],
    }],
    trace_kinds: &[],
    trace_capacity: 0,
};

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::{lint_prometheus, Recorder, Registry};

    #[test]
    fn response_counters_line_up_with_the_schema() {
        for (status, label) in [
            (Status::Reject, "reject"),
            (Status::Accept, "accept"),
            (Status::Overload, "overload"),
            (Status::Error, "error"),
        ] {
            let id = response_counter(status);
            let def = SCHEMA.counters[id.0 as usize];
            assert_eq!(def.name, "admitd_responses_total");
            assert_eq!(def.labels, &[("status", label)]);
        }
    }

    #[test]
    fn exposition_lints_clean() {
        let mut reg = Registry::for_schema(&SCHEMA);
        reg.add(counter::FRAMES_ADMIT, 3);
        reg.add(response_counter(Status::Accept), 2);
        reg.observe(histogram::BATCH_SIZE, 17);
        reg.high_water(gauge::OPEN_CONNECTIONS, 4);
        reg.span_ns(span::PROCESS, 12_345);
        lint_prometheus(&reg.snapshot().to_prometheus()).expect("clean exposition");
    }
}
