//! Multimedia traffic: service classes, traffic mixes and call generation.
//!
//! The paper's workload (Section 4): text, voice and video connections make
//! up 70 %, 20 % and 10 % of requests and require 1, 5 and 10 bandwidth
//! units respectively.  Voice and video are *real-time* services (they feed
//! the RTC counter of FACS-P); text is *non-real-time* (NRTC).
//!
//! Arrivals default to the paper's Poisson process; the [`model`]
//! submodule adds bursty alternatives (trace replay, MMPP, correlated
//! groups) selected through [`TrafficModel`] — see `docs/TRAFFIC_MODELS.md`.

pub mod model;

use crate::geometry::normalize_angle;
use crate::rng::SimRng;
use crate::{Bandwidth, SimTime};
use serde::{Deserialize, Serialize};

pub use model::{
    parse_trace, DurationPolicy, GroupConfig, MmppConfig, MmppState, SpawnCellAssigner,
    TraceConfig, TraceEntry, TraceError, TrafficModel,
};

/// The three multimedia service classes of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ServiceClass {
    /// Non-real-time data (1 BU).
    Text,
    /// Real-time voice (5 BU).
    Voice,
    /// Real-time video (10 BU).
    Video,
}

impl ServiceClass {
    /// All classes, in paper order.
    pub const ALL: [ServiceClass; 3] =
        [ServiceClass::Text, ServiceClass::Voice, ServiceClass::Video];

    /// The bandwidth the paper assigns to this class (1 / 5 / 10 BU).
    #[must_use]
    pub fn paper_bandwidth(&self) -> Bandwidth {
        match self {
            ServiceClass::Text => 1,
            ServiceClass::Voice => 5,
            ServiceClass::Video => 10,
        }
    }

    /// `true` for classes with real-time QoS constraints (voice, video).
    ///
    /// This is the "Differentiated service (Ds)" classification of FACS-P:
    /// real-time connections are counted in the RTC, the rest in the NRTC.
    #[must_use]
    pub fn is_real_time(&self) -> bool {
        matches!(self, ServiceClass::Voice | ServiceClass::Video)
    }

    /// Short lowercase label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ServiceClass::Text => "text",
            ServiceClass::Voice => "voice",
            ServiceClass::Video => "video",
        }
    }

    /// Index into [`ServiceClass::ALL`].
    #[must_use]
    pub fn index(&self) -> usize {
        match self {
            ServiceClass::Text => 0,
            ServiceClass::Voice => 1,
            ServiceClass::Video => 2,
        }
    }
}

impl std::fmt::Display for ServiceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The proportions of the three service classes in the offered traffic and
/// the per-class bandwidth demands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficMix {
    /// Fraction of requests that are text (non-real-time).
    pub text_fraction: f64,
    /// Fraction of requests that are voice.
    pub voice_fraction: f64,
    /// Fraction of requests that are video.
    pub video_fraction: f64,
    /// Bandwidth of one text connection (BU).
    pub text_bandwidth: Bandwidth,
    /// Bandwidth of one voice connection (BU).
    pub voice_bandwidth: Bandwidth,
    /// Bandwidth of one video connection (BU).
    pub video_bandwidth: Bandwidth,
}

impl TrafficMix {
    /// The paper's mix: 70 % text (1 BU), 20 % voice (5 BU), 10 % video
    /// (10 BU).
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            text_fraction: 0.7,
            voice_fraction: 0.2,
            video_fraction: 0.1,
            text_bandwidth: 1,
            voice_bandwidth: 5,
            video_bandwidth: 10,
        }
    }

    /// A custom mix; the fractions are normalised so they need not sum to 1.
    #[must_use]
    pub fn new(text: f64, voice: f64, video: f64) -> Self {
        Self {
            text_fraction: text.max(0.0),
            voice_fraction: voice.max(0.0),
            video_fraction: video.max(0.0),
            ..Self::paper_default()
        }
    }

    /// The bandwidth this mix assigns to `class`.
    #[must_use]
    pub fn bandwidth_of(&self, class: ServiceClass) -> Bandwidth {
        match class {
            ServiceClass::Text => self.text_bandwidth,
            ServiceClass::Voice => self.voice_bandwidth,
            ServiceClass::Video => self.video_bandwidth,
        }
    }

    /// The (normalised) probability of `class` in this mix.
    #[must_use]
    pub fn fraction_of(&self, class: ServiceClass) -> f64 {
        let total = self.text_fraction + self.voice_fraction + self.video_fraction;
        if total <= 0.0 {
            return 0.0;
        }
        let raw = match class {
            ServiceClass::Text => self.text_fraction,
            ServiceClass::Voice => self.voice_fraction,
            ServiceClass::Video => self.video_fraction,
        };
        raw / total
    }

    /// Mean bandwidth of a request drawn from this mix (BU).
    #[must_use]
    pub fn mean_bandwidth(&self) -> f64 {
        ServiceClass::ALL
            .iter()
            .map(|&c| self.fraction_of(c) * f64::from(self.bandwidth_of(c)))
            .sum()
    }

    /// Draw a service class according to the mix.
    pub fn sample_class(&self, rng: &mut SimRng) -> ServiceClass {
        let idx =
            rng.weighted_choice(&[self.text_fraction, self.voice_fraction, self.video_fraction]);
        ServiceClass::ALL[idx]
    }
}

impl Default for TrafficMix {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// One call / connection request as offered to the admission controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CallRequest {
    /// Monotonically increasing identifier.
    pub id: u64,
    /// Time at which the request is made (seconds).
    pub arrival_time: SimTime,
    /// Service class of the request.
    pub class: ServiceClass,
    /// Requested bandwidth (BU).
    pub bandwidth: Bandwidth,
    /// Requested holding time (seconds); the call ends this long after
    /// admission unless dropped.
    pub holding_time: SimTime,
    /// User speed in km/h at request time.
    pub speed_kmh: f64,
    /// User direction relative to the serving base station, in degrees
    /// (0° = heading straight at the base station, ±180° = heading directly
    /// away).  This is the `An` input of FLC1.
    pub angle_deg: f64,
    /// `true` if this is a handoff of an on-going connection from a
    /// neighbouring cell (handoffs carry priority over new calls).
    pub is_handoff: bool,
}

impl CallRequest {
    /// `true` if the request belongs to a real-time class.
    #[must_use]
    pub fn is_real_time(&self) -> bool {
        self.class.is_real_time()
    }
}

/// Parameters of the call generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// Service mix and per-class bandwidths.
    pub mix: TrafficMix,
    /// Mean inter-arrival time between consecutive requests (seconds).
    /// The paper sweeps the *number* of requesting connections rather than
    /// the rate, so the experiment harness typically generates a fixed count
    /// with [`TrafficGenerator::generate_batch`].
    pub mean_interarrival_s: f64,
    /// Mean call holding time (seconds).
    pub mean_holding_s: f64,
    /// Minimum user speed (km/h).
    pub min_speed_kmh: f64,
    /// Maximum user speed (km/h) — the paper uses 0..120 km/h.
    pub max_speed_kmh: f64,
    /// Minimum user angle (degrees) — the paper uses −180°.
    pub min_angle_deg: f64,
    /// Maximum user angle (degrees) — the paper uses +180°.
    pub max_angle_deg: f64,
    /// Fraction of requests that are handoffs of on-going connections
    /// (0 reproduces the paper's new-call experiments).
    pub handoff_fraction: f64,
    /// Strength of the speed/direction correlation in `[0, 1]`.
    ///
    /// The paper's evaluation argues that *"with the increase of the user
    /// speed, the user direction can not be changed easily, this results in
    /// a better prediction of the user direction"*: fast users travel on
    /// roads roughly radial to the serving base station, so their measured
    /// angle concentrates around 0°, while slow (pedestrian) users point in
    /// arbitrary directions.  With predictability `p`, a user at speed `v`
    /// draws its angle uniformly from `±spread` where
    /// `spread = 180° − p · 200° · v / 120 km/h` (never below 25°);
    /// `p = 0` (the default) keeps the angle fully uniform over the
    /// configured range.
    pub direction_predictability: f64,
}

impl TrafficConfig {
    /// The paper's workload parameters.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            mix: TrafficMix::paper_default(),
            mean_interarrival_s: 30.0,
            mean_holding_s: 180.0,
            min_speed_kmh: 0.0,
            max_speed_kmh: 120.0,
            min_angle_deg: -180.0,
            max_angle_deg: 180.0,
            handoff_fraction: 0.0,
            direction_predictability: 0.0,
        }
    }

    /// Fix the user speed to a single value (Fig. 8 sweeps this).
    #[must_use]
    pub fn with_fixed_speed(mut self, speed_kmh: f64) -> Self {
        self.min_speed_kmh = speed_kmh;
        self.max_speed_kmh = speed_kmh;
        self
    }

    /// Fix the user angle to a single value (Fig. 9 sweeps this).
    #[must_use]
    pub fn with_fixed_angle(mut self, angle_deg: f64) -> Self {
        self.min_angle_deg = angle_deg;
        self.max_angle_deg = angle_deg;
        self
    }

    /// Set the traffic mix.
    #[must_use]
    pub fn with_mix(mut self, mix: TrafficMix) -> Self {
        self.mix = mix;
        self
    }

    /// Set the handoff fraction (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_handoff_fraction(mut self, fraction: f64) -> Self {
        self.handoff_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Set the speed/direction correlation strength (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_direction_predictability(mut self, predictability: f64) -> Self {
        self.direction_predictability = predictability.clamp(0.0, 1.0);
        self
    }
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Run-time state of the selected [`TrafficModel`].
///
/// The `Poisson` variant carries no data, so the default construction
/// path stays allocation-free and draw-for-draw identical to the
/// historical generator.
#[derive(Debug, Clone)]
enum ModelRuntime {
    Poisson,
    Mmpp {
        states: Vec<model::MmppState>,
        state: usize,
        next_transition: SimTime,
    },
    Trace {
        entries: Vec<model::TraceEntry>,
        duration: model::DurationPolicy,
        loop_replay: bool,
        pos: usize,
    },
    Groups {
        config: model::GroupConfig,
        remaining: u32,
    },
}

/// Per-request overrides supplied by the active model (`None` keeps the
/// historical draw for that attribute).
#[derive(Debug, Clone, Copy, Default)]
struct RequestOverrides {
    class: Option<ServiceClass>,
    holding: Option<SimTime>,
}

/// Stochastic call-request generator.
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    config: TrafficConfig,
    rng: SimRng,
    next_id: u64,
    clock: SimTime,
    model: ModelRuntime,
}

impl TrafficGenerator {
    /// Create a generator from a configuration and a seed.
    #[must_use]
    pub fn new(config: TrafficConfig, seed: u64) -> Self {
        Self {
            config,
            rng: SimRng::new(seed),
            next_id: 0,
            clock: 0.0,
            model: ModelRuntime::Poisson,
        }
    }

    /// Create a generator driving the given arrival [`TrafficModel`].
    ///
    /// With [`TrafficModel::Poisson`] this is draw-for-draw identical to
    /// [`TrafficGenerator::new`]; the other models reshape the arrival
    /// *times* (and, for trace replay, the class/duration of each call)
    /// while speed, angle and handoff draws keep their historical order.
    ///
    /// # Panics
    ///
    /// Panics if `model` fails [`TrafficModel::validate`] — validate
    /// first when the model comes from user input.
    #[must_use]
    pub fn with_model(config: TrafficConfig, traffic_model: &TrafficModel, seed: u64) -> Self {
        if let Err(reason) = traffic_model.validate() {
            panic!("invalid traffic model: {reason}");
        }
        let mut rng = SimRng::new(seed);
        let model = match traffic_model {
            TrafficModel::Poisson => ModelRuntime::Poisson,
            TrafficModel::Mmpp(mmpp) => {
                let next_transition = rng.exponential(mmpp.states[0].mean_sojourn_s);
                ModelRuntime::Mmpp {
                    states: mmpp.states.clone(),
                    state: 0,
                    next_transition,
                }
            }
            TrafficModel::Trace(trace) => ModelRuntime::Trace {
                entries: trace.entries.clone(),
                duration: trace.duration,
                loop_replay: trace.loop_replay,
                pos: 0,
            },
            TrafficModel::Groups(groups) => ModelRuntime::Groups {
                config: *groups,
                remaining: 0,
            },
        };
        Self {
            config,
            rng,
            next_id: 0,
            clock: 0.0,
            model,
        }
    }

    /// The generator's configuration.
    #[must_use]
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// Number of requests generated so far.
    #[must_use]
    pub fn generated(&self) -> u64 {
        self.next_id
    }

    /// Generate the next request: the active [`TrafficModel`] advances
    /// the internal clock (exponential gaps for the default Poisson
    /// model) and may pin the class/duration (trace replay).
    pub fn next_request(&mut self) -> CallRequest {
        let overrides = self.advance_clock();
        let at = self.clock;
        self.make_request_with(at, overrides)
    }

    /// Generate a batch of `n` requests all offered at time zero — the shape
    /// of the paper's "number of requesting connections" sweeps, where a
    /// growing population of users asks for admission against the same
    /// 40-BU base station.  A trace-replay model still pins each request's
    /// class and duration; time-structure models (MMPP, groups) have no
    /// effect because every request is offered at once.
    pub fn generate_batch(&mut self, n: usize) -> Vec<CallRequest> {
        (0..n)
            .map(|_| {
                let overrides = self.batch_overrides();
                self.make_request_with(0.0, overrides)
            })
            .collect()
    }

    /// [`TrafficGenerator::generate_batch`] into a reused buffer (`out` is
    /// cleared first): a warmed-up buffer makes repeated runs
    /// allocation-free.
    pub fn generate_batch_into(&mut self, n: usize, out: &mut Vec<CallRequest>) {
        out.clear();
        out.reserve(n);
        for _ in 0..n {
            let overrides = self.batch_overrides();
            let req = self.make_request_with(0.0, overrides);
            out.push(req);
        }
    }

    /// Generate `n` requests with Poisson arrivals.
    pub fn generate_poisson(&mut self, n: usize) -> Vec<CallRequest> {
        (0..n).map(|_| self.next_request()).collect()
    }

    /// [`TrafficGenerator::generate_poisson`] into a reused buffer (`out`
    /// is cleared first).
    pub fn generate_poisson_into(&mut self, n: usize, out: &mut Vec<CallRequest>) {
        out.clear();
        out.reserve(n);
        for _ in 0..n {
            let req = self.next_request();
            out.push(req);
        }
    }

    /// Advance the clock to the next arrival per the active model and
    /// return any class/duration overrides it dictates.
    fn advance_clock(&mut self) -> RequestOverrides {
        match &mut self.model {
            ModelRuntime::Poisson => {
                let gap = self.rng.exponential(self.config.mean_interarrival_s);
                self.clock += gap;
                RequestOverrides::default()
            }
            ModelRuntime::Mmpp {
                states,
                state,
                next_transition,
            } => loop {
                let current = states[*state];
                if current.rate_multiplier > 0.0 {
                    let mean = self.config.mean_interarrival_s / current.rate_multiplier;
                    let t = self.clock + self.rng.exponential(mean);
                    if t <= *next_transition {
                        self.clock = t;
                        return RequestOverrides::default();
                    }
                }
                // Cross into the next modulation state.  The exponential
                // gap is memoryless, so redrawing from the transition
                // time leaves the per-state arrival law exact; a
                // zero-rate state jumps straight to its transition.
                self.clock = *next_transition;
                *state = (*state + 1) % states.len();
                *next_transition = self.clock + self.rng.exponential(states[*state].mean_sojourn_s);
            },
            ModelRuntime::Trace {
                entries,
                duration,
                loop_replay,
                pos,
            } => {
                if *pos >= entries.len() {
                    if *loop_replay {
                        *pos = 0;
                    } else {
                        // Trace exhausted: fall back to plain Poisson.
                        let gap = self.rng.exponential(self.config.mean_interarrival_s);
                        self.clock += gap;
                        return RequestOverrides::default();
                    }
                }
                let entry = entries[*pos];
                *pos += 1;
                self.clock += entry.inter_arrival_s;
                trace_overrides(entry, *duration)
            }
            ModelRuntime::Groups { config, remaining } => {
                if *remaining > 0 {
                    // Followers share the leader's arrival time exactly
                    // (the clock does not move), which is also how the
                    // spawn-cell assigner recognises them.
                    *remaining -= 1;
                } else {
                    // Leader gaps are stretched by the mean group size so
                    // the long-run call rate matches plain Poisson.
                    let mean = self.config.mean_interarrival_s * config.mean_size();
                    self.clock += self.rng.exponential(mean);
                    let size = self.rng.uniform_u32(config.min_size, config.max_size);
                    *remaining = size.saturating_sub(1);
                }
                RequestOverrides::default()
            }
        }
    }

    /// Overrides for a time-zero batch request: only trace replay has an
    /// effect (it pins class and duration); time-structure models do not.
    fn batch_overrides(&mut self) -> RequestOverrides {
        match &mut self.model {
            ModelRuntime::Trace {
                entries,
                duration,
                loop_replay,
                pos,
            } => {
                if *pos >= entries.len() {
                    if *loop_replay {
                        *pos = 0;
                    } else {
                        return RequestOverrides::default();
                    }
                }
                let entry = entries[*pos];
                *pos += 1;
                trace_overrides(entry, *duration)
            }
            _ => RequestOverrides::default(),
        }
    }

    fn make_request_with(&mut self, at: SimTime, overrides: RequestOverrides) -> CallRequest {
        let class = match overrides.class {
            Some(class) => class,
            None => self.config.mix.sample_class(&mut self.rng),
        };
        let bandwidth = self.config.mix.bandwidth_of(class);
        let holding = match overrides.holding {
            Some(holding) => holding,
            None => self.rng.exponential(self.config.mean_holding_s).max(1.0),
        };
        let speed = self
            .rng
            .uniform(self.config.min_speed_kmh, self.config.max_speed_kmh)
            .max(self.config.min_speed_kmh);
        let angle = if self.config.min_angle_deg >= self.config.max_angle_deg {
            self.config.min_angle_deg
        } else {
            // The spread is referenced to the paper's 120 km/h maximum so a
            // series with a fixed (low) speed still gets the wide spread it
            // should.
            const REFERENCE_MAX_SPEED_KMH: f64 = 120.0;
            let p = self.config.direction_predictability.clamp(0.0, 1.0);
            let spread = if p > 0.0 {
                let ratio = (speed / REFERENCE_MAX_SPEED_KMH).clamp(0.0, 1.0);
                (180.0 - p * 200.0 * ratio).max(25.0)
            } else {
                180.0
            };
            let lo = self.config.min_angle_deg.max(-spread);
            let hi = self.config.max_angle_deg.min(spread);
            if lo >= hi {
                lo
            } else {
                self.rng.uniform(lo, hi)
            }
        };
        let is_handoff = self.rng.chance(self.config.handoff_fraction);
        let req = CallRequest {
            id: self.next_id,
            arrival_time: at,
            class,
            bandwidth,
            holding_time: holding,
            speed_kmh: speed,
            angle_deg: normalize_angle(angle),
            is_handoff,
        };
        self.next_id += 1;
        req
    }
}

/// The class/duration overrides one trace entry dictates under the given
/// duration policy.
fn trace_overrides(entry: model::TraceEntry, duration: model::DurationPolicy) -> RequestOverrides {
    let holding = match duration {
        model::DurationPolicy::FromTrace => Some(entry.duration_s),
        model::DurationPolicy::Fixed { duration_s } => Some(duration_s),
        model::DurationPolicy::Bounded { min_s, max_s } => {
            Some(entry.duration_s.clamp(min_s, max_s))
        }
        model::DurationPolicy::Randomized => None,
    };
    RequestOverrides {
        class: Some(entry.class),
        holding,
    }
}

/// One run's arrivals, drawn on demand in global arrival order.
///
/// Both engines read their arrivals from this stream, so a run holds
/// only the arrivals it is about to process.  It owns the run's
/// [`TrafficGenerator`] (base stream `derive(2)`), the
/// [`SpawnCellAssigner`] with its RNG (`derive(3)`), the count of
/// requests still to draw and a one-arrival lookahead.  Requests are drawn
/// one after another from one generator and spawn cells are assigned in
/// the same order, so the sequence depends only on the run's
/// configuration, not on what consumes it or how the world is sharded.
///
/// # The tick horizon
///
/// Utilisation-sample ticks fire while `tick <= t_last`, the time of the
/// run's last arrival, which is unknown until the stream is drained.
/// [`ArrivalStream::horizon`] returns `t_last` once drained and the
/// lookahead's time before that, a lower bound.  The bound decides the
/// tick stream exactly as `t_last` would:
///
/// * every tick the engines can reach before the lookahead fires is at or
///   below the lookahead's time, so it is due under both horizons;
/// * a later tick cannot win the engines' stream merge against the
///   earlier pending arrival, so whether it counts as due does not matter
///   until the lookahead has been popped, and the horizon has moved on.
#[derive(Debug)]
pub struct ArrivalStream {
    generator: TrafficGenerator,
    spawn_cells: SpawnCellAssigner,
    spawn_rng: SimRng,
    num_cells: usize,
    /// Requests not yet drawn from the generator (the lookahead excluded).
    remaining: usize,
    next: Option<CallRequest>,
    /// Time of the last popped arrival (0 before the first).
    last_time: SimTime,
}

impl ArrivalStream {
    /// The stream of `requests` arrivals on a grid of `num_cells` cells,
    /// drawn from the streams derived from the run's `base` RNG.
    ///
    /// # Panics
    ///
    /// Panics if `model` fails [`TrafficModel::validate`], like
    /// [`TrafficGenerator::with_model`].
    #[must_use]
    pub fn new(
        traffic: &TrafficConfig,
        model: &TrafficModel,
        base: &SimRng,
        num_cells: usize,
        requests: usize,
    ) -> Self {
        let mut generator =
            TrafficGenerator::with_model(traffic.clone(), model, base.derive(2).seed());
        let next = (requests > 0).then(|| generator.next_request());
        Self {
            generator,
            spawn_cells: SpawnCellAssigner::new(model),
            spawn_rng: base.derive(3),
            num_cells,
            remaining: requests.saturating_sub(1),
            next,
            last_time: 0.0,
        }
    }

    /// Arrival time of the next arrival, `None` once drained.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next.map(|call| call.arrival_time)
    }

    /// The tick horizon: the last arrival's time once drained, the next
    /// arrival's time (a lower bound) before that, and 0 for an empty run.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        self.peek_time().unwrap_or(self.last_time)
    }

    /// Take the next arrival and its spawn cell (an index into the grid's
    /// cell order).
    pub fn pop(&mut self) -> Option<(CallRequest, u32)> {
        let call = self.next.take()?;
        if self.remaining > 0 {
            self.remaining -= 1;
            self.next = Some(self.generator.next_request());
        }
        self.last_time = call.arrival_time;
        let cell = self
            .spawn_cells
            .assign(call.arrival_time, self.num_cells, &mut self.spawn_rng);
        Some((call, cell))
    }

    /// Take the next arrival if it arrives before `end`.
    pub fn pop_before(&mut self, end: SimTime) -> Option<(CallRequest, u32)> {
        if self.peek_time()? < end {
            self.pop()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bandwidths() {
        assert_eq!(ServiceClass::Text.paper_bandwidth(), 1);
        assert_eq!(ServiceClass::Voice.paper_bandwidth(), 5);
        assert_eq!(ServiceClass::Video.paper_bandwidth(), 10);
    }

    #[test]
    fn real_time_classification() {
        assert!(!ServiceClass::Text.is_real_time());
        assert!(ServiceClass::Voice.is_real_time());
        assert!(ServiceClass::Video.is_real_time());
    }

    #[test]
    fn class_labels_and_indices() {
        for (i, c) in ServiceClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(ServiceClass::Video.to_string(), "video");
    }

    #[test]
    fn paper_mix_fractions() {
        let mix = TrafficMix::paper_default();
        assert!((mix.fraction_of(ServiceClass::Text) - 0.7).abs() < 1e-12);
        assert!((mix.fraction_of(ServiceClass::Voice) - 0.2).abs() < 1e-12);
        assert!((mix.fraction_of(ServiceClass::Video) - 0.1).abs() < 1e-12);
        // Mean request size: 0.7*1 + 0.2*5 + 0.1*10 = 2.7 BU.
        assert!((mix.mean_bandwidth() - 2.7).abs() < 1e-12);
    }

    #[test]
    fn custom_mix_is_normalised() {
        let mix = TrafficMix::new(2.0, 1.0, 1.0);
        assert!((mix.fraction_of(ServiceClass::Text) - 0.5).abs() < 1e-12);
        let empty = TrafficMix::new(0.0, 0.0, 0.0);
        assert_eq!(empty.fraction_of(ServiceClass::Voice), 0.0);
    }

    #[test]
    fn sample_class_matches_mix() {
        let mix = TrafficMix::paper_default();
        let mut rng = SimRng::new(123);
        let n = 30_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[mix.sample_class(&mut rng).index()] += 1;
        }
        assert!((counts[0] as f64 / n as f64 - 0.7).abs() < 0.02);
        assert!((counts[1] as f64 / n as f64 - 0.2).abs() < 0.02);
        assert!((counts[2] as f64 / n as f64 - 0.1).abs() < 0.02);
    }

    #[test]
    fn generator_batch_has_paper_ranges() {
        let mut gen = TrafficGenerator::new(TrafficConfig::paper_default(), 42);
        let reqs = gen.generate_batch(500);
        assert_eq!(reqs.len(), 500);
        assert_eq!(gen.generated(), 500);
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert_eq!(r.arrival_time, 0.0);
            assert!(r.speed_kmh >= 0.0 && r.speed_kmh <= 120.0);
            assert!(r.angle_deg >= -180.0 && r.angle_deg <= 180.0);
            assert!(r.holding_time >= 1.0);
            assert_eq!(r.bandwidth, r.class.paper_bandwidth());
            assert!(!r.is_handoff);
        }
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let a = TrafficGenerator::new(TrafficConfig::paper_default(), 7).generate_batch(50);
        let b = TrafficGenerator::new(TrafficConfig::paper_default(), 7).generate_batch(50);
        let c = TrafficGenerator::new(TrafficConfig::paper_default(), 8).generate_batch(50);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_arrivals_are_increasing() {
        let mut gen = TrafficGenerator::new(TrafficConfig::paper_default(), 11);
        let reqs = gen.generate_poisson(200);
        for w in reqs.windows(2) {
            assert!(w[1].arrival_time >= w[0].arrival_time);
        }
        // Mean inter-arrival should be close to the configured 30 s.
        let total = reqs.last().unwrap().arrival_time;
        let mean = total / reqs.len() as f64;
        assert!((mean - 30.0).abs() < 10.0, "mean inter-arrival {mean}");
    }

    #[test]
    fn fixed_speed_and_angle() {
        let cfg = TrafficConfig::paper_default()
            .with_fixed_speed(60.0)
            .with_fixed_angle(30.0);
        let mut gen = TrafficGenerator::new(cfg, 5);
        for r in gen.generate_batch(100) {
            assert_eq!(r.speed_kmh, 60.0);
            assert_eq!(r.angle_deg, 30.0);
        }
    }

    #[test]
    fn handoff_fraction_is_respected() {
        let cfg = TrafficConfig::paper_default().with_handoff_fraction(0.4);
        let mut gen = TrafficGenerator::new(cfg, 77);
        let reqs = gen.generate_batch(10_000);
        let handoffs = reqs.iter().filter(|r| r.is_handoff).count() as f64 / 10_000.0;
        assert!((handoffs - 0.4).abs() < 0.03, "handoff fraction {handoffs}");
        // clamping
        let cfg = TrafficConfig::paper_default().with_handoff_fraction(7.0);
        assert_eq!(cfg.handoff_fraction, 1.0);
    }

    #[test]
    fn direction_predictability_concentrates_fast_users() {
        let base = TrafficConfig::paper_default().with_direction_predictability(1.0);
        let mean_abs_angle = |speed: f64| {
            let cfg = base.clone().with_fixed_speed(speed);
            let mut gen = TrafficGenerator::new(cfg, 99);
            let reqs = gen.generate_batch(2000);
            reqs.iter().map(|r| r.angle_deg.abs()).sum::<f64>() / reqs.len() as f64
        };
        let slow = mean_abs_angle(4.0);
        let fast = mean_abs_angle(110.0);
        assert!(
            fast < slow * 0.6,
            "fast users should have concentrated angles: fast {fast:.1} vs slow {slow:.1}"
        );
        // Fast users stay within the shrunken spread.
        let cfg = base.clone().with_fixed_speed(120.0);
        let mut gen = TrafficGenerator::new(cfg, 7);
        for r in gen.generate_batch(500) {
            assert!(r.angle_deg.abs() <= 25.0 + 1e-9);
        }
        // Predictability 0 keeps angles spread over the full range.
        let mut gen =
            TrafficGenerator::new(TrafficConfig::paper_default().with_fixed_speed(120.0), 7);
        let wide = gen
            .generate_batch(500)
            .iter()
            .any(|r| r.angle_deg.abs() > 90.0);
        assert!(wide);
        // Clamping of the builder argument.
        assert_eq!(
            TrafficConfig::paper_default()
                .with_direction_predictability(5.0)
                .direction_predictability,
            1.0
        );
    }

    #[test]
    fn angle_is_normalised() {
        let cfg = TrafficConfig::paper_default().with_fixed_angle(270.0);
        let mut gen = TrafficGenerator::new(cfg, 5);
        let r = gen.generate_batch(1).remove(0);
        assert_eq!(r.angle_deg, -90.0);
    }

    #[test]
    fn poisson_model_matches_plain_generator() {
        let cfg = TrafficConfig::paper_default();
        let plain_p = TrafficGenerator::new(cfg.clone(), 31).generate_poisson(300);
        let model_p = TrafficGenerator::with_model(cfg.clone(), &TrafficModel::Poisson, 31)
            .generate_poisson(300);
        assert_eq!(plain_p, model_p);
        let plain_b = TrafficGenerator::new(cfg.clone(), 31).generate_batch(300);
        let model_b =
            TrafficGenerator::with_model(cfg, &TrafficModel::Poisson, 31).generate_batch(300);
        assert_eq!(plain_b, model_b);
    }

    #[test]
    fn mmpp_is_deterministic_and_bursty() {
        let cfg = TrafficConfig::paper_default();
        let model = TrafficModel::Mmpp(MmppConfig::flash_crowd());
        let a = TrafficGenerator::with_model(cfg.clone(), &model, 99).generate_poisson(2000);
        let b = TrafficGenerator::with_model(cfg.clone(), &model, 99).generate_poisson(2000);
        assert_eq!(a, b);
        let other_seed =
            TrafficGenerator::with_model(cfg.clone(), &model, 100).generate_poisson(2000);
        assert_ne!(a, other_seed);
        for w in a.windows(2) {
            assert!(w[1].arrival_time >= w[0].arrival_time);
        }
        // Burstiness: the squared coefficient of variation of the gaps
        // must exceed the exponential's 1.0 by a clear margin.
        let gaps: Vec<f64> = a
            .windows(2)
            .map(|w| w[1].arrival_time - w[0].arrival_time)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let scv = var / (mean * mean);
        assert!(
            scv > 1.3,
            "MMPP gaps should be over-dispersed, SCV = {scv:.2}"
        );
        // The rate-preserving preset keeps the long-run rate near the base.
        assert!((mean - 30.0).abs() < 6.0, "mean gap {mean:.1}");
    }

    #[test]
    fn zero_rate_mmpp_states_are_silent() {
        let cfg = TrafficConfig::paper_default();
        // on/off process: silence alternating with 2x bursts.
        let model = TrafficModel::Mmpp(MmppConfig::new().state(0.0, 60.0).state(2.0, 60.0));
        let reqs = TrafficGenerator::with_model(cfg, &model, 5).generate_poisson(500);
        assert_eq!(reqs.len(), 500);
        for w in reqs.windows(2) {
            assert!(w[1].arrival_time >= w[0].arrival_time);
        }
    }

    #[test]
    fn trace_replay_pins_times_classes_and_durations() {
        let cfg = TrafficConfig::paper_default();
        let trace = TraceConfig::from_text("5.0 60.0 voice\n10.0 120.0 video\n").unwrap();
        let model = TrafficModel::Trace(trace);
        let reqs = TrafficGenerator::with_model(cfg, &model, 1).generate_poisson(5);
        let times: Vec<f64> = reqs.iter().map(|r| r.arrival_time).collect();
        assert_eq!(times, vec![5.0, 15.0, 20.0, 30.0, 35.0]); // loops after 2 entries
        assert_eq!(reqs[0].class, ServiceClass::Voice);
        assert_eq!(reqs[1].class, ServiceClass::Video);
        assert_eq!(reqs[2].class, ServiceClass::Voice);
        assert_eq!(reqs[0].holding_time, 60.0);
        assert_eq!(reqs[1].holding_time, 120.0);
        assert_eq!(reqs[0].bandwidth, ServiceClass::Voice.paper_bandwidth());
    }

    #[test]
    fn trace_duration_policies() {
        let cfg = TrafficConfig::paper_default();
        let base = TraceConfig::from_text("5.0 200.0 voice\n").unwrap();
        let fixed = TrafficModel::Trace(
            base.clone()
                .with_duration(DurationPolicy::Fixed { duration_s: 42.0 }),
        );
        let r = TrafficGenerator::with_model(cfg.clone(), &fixed, 1).next_request();
        assert_eq!(r.holding_time, 42.0);
        let bounded = TrafficModel::Trace(base.clone().with_duration(DurationPolicy::Bounded {
            min_s: 10.0,
            max_s: 90.0,
        }));
        let r = TrafficGenerator::with_model(cfg.clone(), &bounded, 1).next_request();
        assert_eq!(r.holding_time, 90.0);
        let randomized = TrafficModel::Trace(base.with_duration(DurationPolicy::Randomized));
        let a = TrafficGenerator::with_model(cfg.clone(), &randomized, 1).next_request();
        let b = TrafficGenerator::with_model(cfg, &randomized, 1).next_request();
        assert_eq!(a.holding_time, b.holding_time, "still seed-deterministic");
        assert!(a.holding_time >= 1.0);
        assert_ne!(a.holding_time, 200.0);
    }

    #[test]
    fn exhausted_trace_falls_back_to_poisson() {
        let cfg = TrafficConfig::paper_default();
        let trace = TraceConfig::from_text("5.0 60.0 voice\n")
            .unwrap()
            .with_loop_replay(false);
        let model = TrafficModel::Trace(trace);
        let reqs = TrafficGenerator::with_model(cfg, &model, 8).generate_poisson(50);
        assert_eq!(reqs[0].arrival_time, 5.0);
        assert_eq!(reqs[0].class, ServiceClass::Voice);
        // The Poisson tail keeps strictly increasing times and draws all
        // three classes eventually.
        for w in reqs.windows(2) {
            assert!(w[1].arrival_time >= w[0].arrival_time);
        }
        assert!(reqs[1..].iter().any(|r| r.class == ServiceClass::Text));
    }

    #[test]
    fn trace_batch_mode_pins_class_and_duration() {
        let cfg = TrafficConfig::paper_default();
        let trace = TraceConfig::from_text("5.0 60.0 voice\n7.0 30.0 video\n").unwrap();
        let model = TrafficModel::Trace(trace);
        let reqs = TrafficGenerator::with_model(cfg, &model, 8).generate_batch(4);
        for r in &reqs {
            assert_eq!(r.arrival_time, 0.0);
        }
        assert_eq!(reqs[0].class, ServiceClass::Voice);
        assert_eq!(reqs[1].class, ServiceClass::Video);
        assert_eq!(reqs[2].class, ServiceClass::Voice);
        assert_eq!(reqs[3].holding_time, 30.0);
    }

    #[test]
    fn group_arrivals_share_times_and_preserve_rate() {
        let cfg = TrafficConfig::paper_default();
        let model = TrafficModel::Groups(GroupConfig::new(4, 4));
        let reqs = TrafficGenerator::with_model(cfg, &model, 3).generate_poisson(4000);
        // Exactly groups of 4 share each arrival time.
        let mut run = 1usize;
        let mut runs = Vec::new();
        for w in reqs.windows(2) {
            if w[1].arrival_time.to_bits() == w[0].arrival_time.to_bits() {
                run += 1;
            } else {
                runs.push(run);
                run = 1;
            }
        }
        runs.push(run);
        assert!(runs.iter().all(|&r| r == 4), "group sizes {runs:?}");
        // Leader gaps are stretched 4x, so the long-run per-call rate
        // stays near the base 30 s mean.
        let total = reqs.last().unwrap().arrival_time;
        let mean = total / reqs.len() as f64;
        assert!((mean - 30.0).abs() < 8.0, "mean inter-arrival {mean}");
    }

    #[test]
    #[should_panic(expected = "invalid traffic model")]
    fn with_model_rejects_invalid_models() {
        let _ = TrafficGenerator::with_model(
            TrafficConfig::paper_default(),
            &TrafficModel::Mmpp(MmppConfig::new()),
            1,
        );
    }

    #[test]
    fn request_real_time_flag() {
        let req = CallRequest {
            id: 0,
            arrival_time: 0.0,
            class: ServiceClass::Voice,
            bandwidth: 5,
            holding_time: 60.0,
            speed_kmh: 10.0,
            angle_deg: 0.0,
            is_handoff: false,
        };
        assert!(req.is_real_time());
    }

    #[test]
    fn arrival_stream_replays_the_generator_and_assigner_in_order() {
        let config = TrafficConfig::paper_default();
        let model = TrafficModel::Groups(GroupConfig::new(2, 4).with_same_cell(true));
        let base = SimRng::new(17);
        let calls = TrafficGenerator::with_model(config.clone(), &model, base.derive(2).seed())
            .generate_poisson(50);
        let mut assigner = SpawnCellAssigner::new(&model);
        let mut rng = base.derive(3);
        let mut stream = ArrivalStream::new(&config, &model, &base, 7, 50);
        for call in &calls {
            // Before it is drained, the horizon is the next arrival.
            assert_eq!(stream.horizon(), call.arrival_time);
            assert_eq!(stream.pop_before(call.arrival_time), None);
            let cell = assigner.assign(call.arrival_time, 7, &mut rng);
            assert_eq!(stream.pop(), Some((*call, cell)));
        }
        assert_eq!(stream.pop(), None);
        assert_eq!(stream.horizon(), calls[49].arrival_time);

        let empty = ArrivalStream::new(&config, &model, &base, 7, 0);
        assert_eq!(empty.peek_time(), None);
        assert_eq!(empty.horizon(), 0.0);
    }
}
