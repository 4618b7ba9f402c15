//! Tracing from outside the program: a counting and timing wrapper around
//! admission controllers, and an in-memory span log written once at the end
//! of a traced run.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use cellsim::{
    AdmissionController, AdmissionDecision, AdmissionRequest, BaseStation, BoxedController,
};
use facs::{PriorityPolicy, RequestPriority};

/// Most FLC inputs kept per phase for the fuzzy replay.
const MAX_RECORDED_INPUTS: usize = 200_000;

/// The FLC1/FLC2 inputs of one FACS-P decision, recorded so the fuzzy layer
/// can be timed on the workload's own inputs.
#[derive(Debug, Clone, Copy)]
pub struct FlcInput {
    /// User speed (km/h), FLC1's `Sp`.
    pub speed_kmh: f64,
    /// Heading angle (degrees), FLC1's `An`.
    pub angle_deg: f64,
    /// Requested bandwidth (BU), FLC1's `Sr` and FLC2's `Rq`.
    pub request_bu: f64,
    /// Effective counter state (BU), FLC2's `Cs`.
    pub counter_state_bu: f64,
}

/// Calls into the controller layer and the time spent in them.
#[derive(Debug, Clone, Default)]
pub struct ControllerTotals {
    /// `decide` calls.
    pub decide_calls: u64,
    /// Nanoseconds inside `decide`.
    pub decide_ns: u64,
    /// `decide_batch` calls.
    pub batch_calls: u64,
    /// Decisions computed by `decide_batch`.
    pub batch_decisions: u64,
    /// Nanoseconds inside `decide_batch`.
    pub batch_ns: u64,
    /// `on_admitted` calls.
    pub admitted_calls: u64,
    /// `on_released` calls.
    pub released_calls: u64,
    /// Nanoseconds inside `on_admitted` and `on_released`.
    pub notify_ns: u64,
    /// Decisions computed by a fuzzy controller (FACS or FACS-P).
    pub fuzzy_decisions: u64,
    /// Recorded FACS-P inputs (capped).
    pub inputs: Vec<FlcInput>,
}

impl ControllerTotals {
    /// Decisions computed, scalar and batched.
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.decide_calls + self.batch_decisions
    }

    /// Nanoseconds spent in the controller layer.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.decide_ns + self.batch_ns + self.notify_ns
    }

    /// Mean nanoseconds per computed decision (0 without decisions).
    #[must_use]
    pub fn ns_per_decision(&self) -> f64 {
        ratio(
            (self.decide_ns + self.batch_ns) as f64,
            self.decisions() as f64,
        )
    }

    fn absorb(&mut self, other: &mut ControllerTotals) {
        self.decide_calls += other.decide_calls;
        self.decide_ns += other.decide_ns;
        self.batch_calls += other.batch_calls;
        self.batch_decisions += other.batch_decisions;
        self.batch_ns += other.batch_ns;
        self.admitted_calls += other.admitted_calls;
        self.released_calls += other.released_calls;
        self.notify_ns += other.notify_ns;
        self.fuzzy_decisions += other.fuzzy_decisions;
        let room = MAX_RECORDED_INPUTS.saturating_sub(self.inputs.len());
        self.inputs.extend(other.inputs.drain(..).take(room));
    }
}

/// `a / b`, or 0 when `b` is 0.
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Where traced controllers deposit their totals when they are dropped.
pub type Sink = Arc<Mutex<ControllerTotals>>;

/// A new, empty sink.
#[must_use]
pub fn sink() -> Sink {
    Arc::new(Mutex::new(ControllerTotals::default()))
}

/// Take the totals out of a sink (every traced controller feeding it must
/// have been dropped).
#[must_use]
pub fn drain(sink: &Sink) -> ControllerTotals {
    std::mem::take(&mut *sink.lock().expect("trace sink lock"))
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An admission controller that counts and times every call into the
/// controller it wraps, without changing a single decision.  Totals are
/// kept locally and added to the shared sink when the wrapper is dropped,
/// so worker threads never contend on the hot path.
pub struct Traced {
    inner: BoxedController,
    local: ControllerTotals,
    sink: Sink,
    fuzzy: bool,
    record_inputs: bool,
    policy: PriorityPolicy,
}

impl Traced {
    /// Wrap `inner`, reporting into `sink`.
    #[must_use]
    pub fn new(inner: BoxedController, sink: &Sink) -> Self {
        let name = inner.name();
        Self {
            fuzzy: matches!(name, "facs" | "facs-p" | "facs-p-lut"),
            record_inputs: matches!(name, "facs-p" | "facs-p-lut"),
            inner,
            local: ControllerTotals::default(),
            sink: Arc::clone(sink),
            policy: PriorityPolicy::paper_default(),
        }
    }

    /// [`Traced::new`] behind the boxed-controller type the engines take.
    #[must_use]
    pub fn boxed(inner: BoxedController, sink: &Sink) -> BoxedController {
        Box::new(Self::new(inner, sink))
    }

    fn record(&mut self, request: &AdmissionRequest, station: &BaseStation) {
        if self.fuzzy {
            self.local.fuzzy_decisions += 1;
        }
        if self.record_inputs && self.local.inputs.len() < MAX_RECORDED_INPUTS {
            self.local.inputs.push(FlcInput {
                speed_kmh: request.speed_kmh,
                angle_deg: request.angle_deg,
                request_bu: f64::from(request.bandwidth),
                counter_state_bu: self.policy.effective_counter_state_with_request_priority(
                    station,
                    request.is_handoff,
                    RequestPriority::Normal,
                ),
            });
        }
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        if let Ok(mut totals) = self.sink.lock() {
            totals.absorb(&mut self.local);
        }
    }
}

impl AdmissionController for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, request: &AdmissionRequest, station: &BaseStation) -> AdmissionDecision {
        let start = Instant::now();
        let decision = self.inner.decide(request, station);
        self.local.decide_ns += elapsed_ns(start);
        self.local.decide_calls += 1;
        self.record(request, station);
        decision
    }

    fn on_admitted(&mut self, request: &AdmissionRequest, station: &BaseStation) {
        let start = Instant::now();
        self.inner.on_admitted(request, station);
        self.local.notify_ns += elapsed_ns(start);
        self.local.admitted_calls += 1;
    }

    fn on_released(&mut self, connection_id: u64, station: &BaseStation) {
        let start = Instant::now();
        self.inner.on_released(connection_id, station);
        self.local.notify_ns += elapsed_ns(start);
        self.local.released_calls += 1;
    }

    fn decide_batch(
        &mut self,
        requests: &[AdmissionRequest],
        station: &BaseStation,
        out: &mut Vec<AdmissionDecision>,
    ) {
        let start = Instant::now();
        self.inner.decide_batch(requests, station, out);
        self.local.batch_ns += elapsed_ns(start);
        self.local.batch_calls += 1;
        self.local.batch_decisions += requests.len() as u64;
        for request in requests {
            self.record(request, station);
        }
    }
}

/// One timed interval of a traced run.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory for the whole traced run and written out once.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span under `parent`; returns its id.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns: elapsed_ns(self.origin),
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = elapsed_ns(self.origin);
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 / 1e9
    }

    /// Time `work` as a span; returns its result and duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        work: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let value = work();
        (value, self.close(id))
    }

    /// The spans as one JSON document: each with its name, parent, start
    /// and end (nanoseconds since the run started) and self time (its
    /// duration minus what its children cover).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                let self_ns = (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(child_ns[id]);
                format!(
                    "  {{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
                     \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim::{CellId, ServiceClass};
    use sweep::ControllerSpec;

    fn request(id: u64) -> AdmissionRequest {
        AdmissionRequest {
            id,
            cell: CellId::origin(),
            time: 0.0,
            class: ServiceClass::Voice,
            bandwidth: 5,
            holding_time: 100.0,
            speed_kmh: 50.0,
            angle_deg: 10.0,
            distance_m: Some(300.0),
            is_handoff: false,
        }
    }

    #[test]
    fn traced_controller_decides_like_the_wrapped_one_and_counts_calls() {
        let sink = sink();
        let station = BaseStation::paper_default();
        let mut plain = ControllerSpec::FacsP.build();
        let mut traced = Traced::new(ControllerSpec::FacsP.build(), &sink);
        let requests: Vec<_> = (0..4).map(request).collect();
        for r in &requests {
            assert_eq!(plain.decide(r, &station), traced.decide(r, &station));
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        plain.decide_batch(&requests, &station, &mut a);
        traced.decide_batch(&requests, &station, &mut b);
        assert_eq!(a, b);
        traced.on_admitted(&requests[0], &station);
        traced.on_released(0, &station);
        drop(traced);
        let totals = drain(&sink);
        assert_eq!(totals.decide_calls, 4);
        assert_eq!(totals.batch_calls, 1);
        assert_eq!(totals.decisions(), 8);
        assert_eq!(totals.fuzzy_decisions, 8);
        assert_eq!(totals.inputs.len(), 8);
        assert_eq!((totals.admitted_calls, totals.released_calls), (1, 1));
    }

    #[test]
    fn span_self_time_excludes_children() {
        let mut log = SpanLog::new();
        let outer = log.open("outer", None);
        let inner = log.open("inner", Some(outer));
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.close(inner);
        log.close(outer);
        let json = log.to_json();
        assert!(json.contains("\"name\": \"inner\", \"parent\": 0"));
        let outer_self: u64 = json
            .lines()
            .find(|l| l.contains("\"outer\""))
            .and_then(|l| l.rsplit("\"self_ns\": ").next())
            .and_then(|v| v.trim_end_matches(['}', ',']).parse().ok())
            .expect("outer span row");
        assert!(outer_self < 2_000_000);
    }
}
