//! Non-Poisson arrival processes: trace replay, MMPP bursts and
//! correlated group arrivals.
//!
//! The paper evaluates FACS/FACS-P against SCC entirely under i.i.d.
//! Poisson arrivals.  Real cellular load is diurnal, bursty and
//! session-structured, so this module adds a [`TrafficModel`] switch the
//! generator, both engines and the sweep spec all understand:
//!
//! * [`TrafficModel::Poisson`] — the default; byte-identical to the
//!   historical generator (all golden snapshots are pinned against it).
//! * [`TrafficModel::Mmpp`] — a Markov-modulated Poisson process whose
//!   states scale the base arrival rate (flash crowds, diurnal curves).
//! * [`TrafficModel::Trace`] — replay of a recorded arrival trace
//!   (inter-arrival + duration + class per line) with optional duration
//!   overrides.
//! * [`TrafficModel::Groups`] — correlated batch arrivals (a stadium
//!   letting out, a train arriving) that can hit one cell simultaneously.
//!
//! Every model is deterministic: the whole stream is a pure function of
//! the generator seed, and because the sharded engine's coordinator draws
//! arrivals in global order whatever the partition, replay is
//! bit-identical at any shard or thread count (pinned by
//! `tests/golden_sharded.rs`).

use crate::rng::SimRng;
use crate::traffic::ServiceClass;
use crate::SimTime;
use serde::{Deserialize, Serialize};

/// The arrival process used by [`TrafficGenerator`](super::TrafficGenerator).
///
/// The default is [`TrafficModel::Poisson`], which reproduces the
/// historical exponential-gap generator draw-for-draw — configs and
/// specs that never mention a model keep their exact streams.
///
/// ```
/// use cellsim::traffic::{TrafficConfig, TrafficGenerator, TrafficModel, MmppConfig};
///
/// let config = TrafficConfig::paper_default();
/// // The default model is plain Poisson and matches `TrafficGenerator::new`:
/// let mut plain = TrafficGenerator::new(config.clone(), 7);
/// let mut modeled = TrafficGenerator::with_model(config.clone(), &TrafficModel::default(), 7);
/// assert_eq!(plain.generate_poisson(50), modeled.generate_poisson(50));
///
/// // A bursty model produces a different (but equally deterministic) stream:
/// let mmpp = TrafficModel::Mmpp(MmppConfig::flash_crowd());
/// let a = TrafficGenerator::with_model(config.clone(), &mmpp, 7).generate_poisson(50);
/// let b = TrafficGenerator::with_model(config, &mmpp, 7).generate_poisson(50);
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum TrafficModel {
    /// Exponential inter-arrival gaps (the paper's workload).
    #[default]
    Poisson,
    /// Markov-modulated Poisson process: bursty / diurnal load.
    Mmpp(MmppConfig),
    /// Replay of a recorded arrival trace.
    Trace(TraceConfig),
    /// Correlated group arrivals (several calls share one arrival time,
    /// optionally one spawn cell).
    Groups(GroupConfig),
}

impl TrafficModel {
    /// Short lowercase label for display (`poisson`, `mmpp`, `trace`,
    /// `groups`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            TrafficModel::Poisson => "poisson",
            TrafficModel::Mmpp(_) => "mmpp",
            TrafficModel::Trace(_) => "trace",
            TrafficModel::Groups(_) => "groups",
        }
    }

    /// Validate the model's parameters.
    ///
    /// Returns a human-readable description of the first problem found.
    /// [`TrafficGenerator::with_model`](super::TrafficGenerator::with_model)
    /// panics on an invalid model, so validate first when the model comes
    /// from user input (the sweep spec's `validate()` does).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            TrafficModel::Poisson => Ok(()),
            TrafficModel::Mmpp(mmpp) => mmpp.validate(),
            TrafficModel::Trace(trace) => trace.validate(),
            TrafficModel::Groups(groups) => groups.validate(),
        }
    }
}

/// One state of a [Markov-modulated Poisson process](MmppConfig).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MmppState {
    /// Arrival-rate multiplier while in this state: the effective mean
    /// inter-arrival time is `mean_interarrival_s / rate_multiplier`.
    /// `0` silences arrivals entirely for the state's sojourn.
    pub rate_multiplier: f64,
    /// Mean sojourn time in this state (seconds, exponential).
    pub mean_sojourn_s: f64,
}

/// A Markov-modulated Poisson process: the generator cycles through
/// `states` (exponential sojourns), and while in a state arrivals are
/// Poisson at `rate_multiplier` times the configured base rate.
///
/// Build one state-by-state with [`MmppConfig::state`]:
///
/// ```
/// use cellsim::traffic::{MmppConfig, TrafficModel};
///
/// // Quiet 4x-under-rate background with 4x flash bursts: the
/// // time-average of 0.25 over 120 s and 4.0 over 30 s is 1.0, so the
/// // long-run offered load matches the plain Poisson run it replaces.
/// let mmpp = MmppConfig::new().state(0.25, 120.0).state(4.0, 30.0);
/// assert_eq!(mmpp.states.len(), 2);
/// assert!((mmpp.mean_rate_multiplier() - 1.0).abs() < 1e-12);
/// assert!(TrafficModel::Mmpp(mmpp).validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct MmppConfig {
    /// The cycle of modulation states (at least one; at least one state
    /// must have a positive rate multiplier).
    pub states: Vec<MmppState>,
}

impl MmppConfig {
    /// An empty process; add states with [`MmppConfig::state`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a state with the given rate multiplier and mean sojourn
    /// (seconds).
    #[must_use]
    pub fn state(mut self, rate_multiplier: f64, mean_sojourn_s: f64) -> Self {
        self.states.push(MmppState {
            rate_multiplier,
            mean_sojourn_s,
        });
        self
    }

    /// A rate-preserving flash-crowd process: long quiet stretches at a
    /// quarter of the base rate punctuated by short 4x bursts.  The
    /// time-average multiplier is exactly 1, so swapping it in for
    /// Poisson keeps the long-run offered load identical.
    #[must_use]
    pub fn flash_crowd() -> Self {
        Self::new().state(0.25, 120.0).state(4.0, 30.0)
    }

    /// A three-phase diurnal curve (night / day / evening peak) whose
    /// sojourn-weighted mean multiplier is exactly 1:
    /// `(0.2·400 + 1.2·400 + 2.2·200) / 1000 = 1`.
    #[must_use]
    pub fn diurnal() -> Self {
        Self::new()
            .state(0.2, 400.0)
            .state(1.2, 400.0)
            .state(2.2, 200.0)
    }

    /// The sojourn-weighted mean rate multiplier — `1.0` means the
    /// process offers the same long-run load as plain Poisson.
    #[must_use]
    pub fn mean_rate_multiplier(&self) -> f64 {
        let total: f64 = self.states.iter().map(|s| s.mean_sojourn_s).sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.states
            .iter()
            .map(|s| s.rate_multiplier * s.mean_sojourn_s)
            .sum::<f64>()
            / total
    }

    fn validate(&self) -> Result<(), String> {
        if self.states.is_empty() {
            return Err("MMPP needs at least one state".into());
        }
        for (i, s) in self.states.iter().enumerate() {
            if !s.rate_multiplier.is_finite() || s.rate_multiplier < 0.0 {
                return Err(format!(
                    "MMPP state {i}: rate multiplier must be finite and >= 0, got {}",
                    s.rate_multiplier
                ));
            }
            if !s.mean_sojourn_s.is_finite() || s.mean_sojourn_s <= 0.0 {
                return Err(format!(
                    "MMPP state {i}: mean sojourn must be finite and > 0, got {}",
                    s.mean_sojourn_s
                ));
            }
        }
        if !self.states.iter().any(|s| s.rate_multiplier > 0.0) {
            return Err("MMPP needs at least one state with a positive rate multiplier".into());
        }
        Ok(())
    }
}

/// One recorded arrival of a [`TraceConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Gap to the previous arrival (seconds; the first entry's gap is
    /// from time zero).
    pub inter_arrival_s: f64,
    /// Recorded call duration (seconds).
    pub duration_s: f64,
    /// Recorded service class.
    pub class: ServiceClass,
}

/// How replay maps a [`TraceEntry`]'s recorded duration onto the
/// generated call's holding time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum DurationPolicy {
    /// Use the recorded duration as-is.
    #[default]
    FromTrace,
    /// Ignore the recording; every call holds for exactly this long.
    Fixed {
        /// Holding time of every replayed call (seconds).
        duration_s: f64,
    },
    /// Clamp the recorded duration into `[min_s, max_s]`.
    Bounded {
        /// Lower bound on the holding time (seconds).
        min_s: f64,
        /// Upper bound on the holding time (seconds).
        max_s: f64,
    },
    /// Ignore the recording; redraw the holding time from the configured
    /// exponential distribution (`mean_holding_s`), like Poisson does.
    Randomized,
}

/// Replay of a recorded arrival trace.
///
/// The trace supplies the inter-arrival gap, the recorded duration and
/// the service class of every call; speed, angle and handoff flags are
/// still drawn from the traffic config, as for every other model.
/// See `docs/TRAFFIC_MODELS.md` for the on-disk text format parsed by
/// [`parse_trace`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// The recorded arrivals, in order.
    pub entries: Vec<TraceEntry>,
    /// How recorded durations become holding times.
    #[serde(default)]
    pub duration: DurationPolicy,
    /// `true` wraps back to the first entry when the trace is exhausted;
    /// `false` falls back to plain Poisson arrivals after the last entry.
    #[serde(default)]
    pub loop_replay: bool,
}

impl TraceConfig {
    /// A looping replay of `entries` with durations taken from the trace.
    #[must_use]
    pub fn new(entries: Vec<TraceEntry>) -> Self {
        Self {
            entries,
            duration: DurationPolicy::FromTrace,
            loop_replay: true,
        }
    }

    /// Parse the text trace format (see [`parse_trace`]) into a looping
    /// replay config.
    pub fn from_text(text: &str) -> Result<Self, TraceError> {
        Ok(Self::new(parse_trace(text)?))
    }

    /// Set the duration policy.
    #[must_use]
    pub fn with_duration(mut self, duration: DurationPolicy) -> Self {
        self.duration = duration;
        self
    }

    /// Set whether the trace wraps around when exhausted.
    #[must_use]
    pub fn with_loop_replay(mut self, loop_replay: bool) -> Self {
        self.loop_replay = loop_replay;
        self
    }

    fn validate(&self) -> Result<(), String> {
        if self.entries.is_empty() {
            return Err("trace replay needs at least one entry".into());
        }
        for (i, e) in self.entries.iter().enumerate() {
            if !e.inter_arrival_s.is_finite() || e.inter_arrival_s < 0.0 {
                return Err(format!(
                    "trace entry {i}: inter-arrival must be finite and >= 0, got {}",
                    e.inter_arrival_s
                ));
            }
            if !e.duration_s.is_finite() || e.duration_s <= 0.0 {
                return Err(format!(
                    "trace entry {i}: duration must be finite and > 0, got {}",
                    e.duration_s
                ));
            }
        }
        match self.duration {
            DurationPolicy::FromTrace | DurationPolicy::Randomized => {}
            DurationPolicy::Fixed { duration_s } => {
                if !duration_s.is_finite() || duration_s <= 0.0 {
                    return Err(format!(
                        "fixed duration must be finite and > 0, got {duration_s}"
                    ));
                }
            }
            DurationPolicy::Bounded { min_s, max_s } => {
                if !min_s.is_finite() || !max_s.is_finite() || min_s <= 0.0 || max_s < min_s {
                    return Err(format!(
                        "bounded duration needs 0 < min <= max, got [{min_s}, {max_s}]"
                    ));
                }
            }
        }
        if self.loop_replay && self.entries.iter().all(|e| e.inter_arrival_s == 0.0) {
            return Err("a looping trace needs at least one positive inter-arrival gap".into());
        }
        Ok(())
    }
}

/// Errors from [`parse_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The trace contained no arrival lines (only blanks / comments).
    Empty,
    /// A line had fewer than the three required fields.
    MissingFields {
        /// 1-based line number.
        line: usize,
    },
    /// A numeric field did not parse as a finite non-negative number.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// Which field failed (`"inter_arrival"` or `"duration"`).
        field: &'static str,
    },
    /// The class field was not `text`, `voice` or `video`.
    BadClass {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        value: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace contains no arrivals"),
            TraceError::MissingFields { line } => {
                write!(
                    f,
                    "trace line {line}: expected `inter_arrival duration class`"
                )
            }
            TraceError::BadNumber { line, field } => {
                write!(
                    f,
                    "trace line {line}: {field} is not a finite non-negative number"
                )
            }
            TraceError::BadClass { line, value } => {
                write!(
                    f,
                    "trace line {line}: unknown class `{value}` (expected text, voice or video)"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Parse the text trace format: one arrival per line as
/// `inter_arrival_s duration_s class` (whitespace-separated), where
/// `class` is `text`, `voice` or `video`.  Blank lines and `#` comments
/// are ignored.
///
/// ```
/// use cellsim::traffic::{parse_trace, ServiceClass};
///
/// let entries = parse_trace(
///     "# time gaps, durations, classes\n\
///      0.0  120.0 voice\n\
///      0.5  300.0 video\n\
///      12.0 30.0  text\n",
/// )
/// .unwrap();
/// assert_eq!(entries.len(), 3);
/// assert_eq!(entries[1].class, ServiceClass::Video);
/// assert!(parse_trace("1.0 oops voice").is_err());
/// ```
pub fn parse_trace(text: &str) -> Result<Vec<TraceEntry>, TraceError> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut fields = content.split_whitespace();
        let (Some(gap), Some(duration), Some(class)) =
            (fields.next(), fields.next(), fields.next())
        else {
            return Err(TraceError::MissingFields { line });
        };
        let inter_arrival_s: f64 = gap.parse().map_err(|_| TraceError::BadNumber {
            line,
            field: "inter_arrival",
        })?;
        if !inter_arrival_s.is_finite() || inter_arrival_s < 0.0 {
            return Err(TraceError::BadNumber {
                line,
                field: "inter_arrival",
            });
        }
        let duration_s: f64 = duration.parse().map_err(|_| TraceError::BadNumber {
            line,
            field: "duration",
        })?;
        if !duration_s.is_finite() || duration_s <= 0.0 {
            return Err(TraceError::BadNumber {
                line,
                field: "duration",
            });
        }
        let class = match class {
            "text" => ServiceClass::Text,
            "voice" => ServiceClass::Voice,
            "video" => ServiceClass::Video,
            other => {
                return Err(TraceError::BadClass {
                    line,
                    value: other.to_string(),
                })
            }
        };
        entries.push(TraceEntry {
            inter_arrival_s,
            duration_s,
            class,
        });
    }
    if entries.is_empty() {
        return Err(TraceError::Empty);
    }
    Ok(entries)
}

/// Correlated group arrivals: calls arrive in batches whose members
/// share one arrival time (and, with [`GroupConfig::same_cell`], one
/// spawn cell) — a stadium letting out or a train pulling into a
/// station.  Group leaders arrive with exponential gaps stretched by the
/// mean group size, so the long-run call rate matches plain Poisson.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupConfig {
    /// Smallest group size (>= 1).
    pub min_size: u32,
    /// Largest group size (>= `min_size`).
    pub max_size: u32,
    /// `true` spawns every member of a group in the same cell (the
    /// stadium case); `false` scatters members across the grid like
    /// independent arrivals.
    pub same_cell: bool,
}

impl GroupConfig {
    /// Groups of `min_size..=max_size` calls hitting one cell at once.
    #[must_use]
    pub fn new(min_size: u32, max_size: u32) -> Self {
        Self {
            min_size,
            max_size,
            same_cell: true,
        }
    }

    /// Set whether group members share a spawn cell.
    #[must_use]
    pub fn with_same_cell(mut self, same_cell: bool) -> Self {
        self.same_cell = same_cell;
        self
    }

    /// Mean group size under the uniform size draw.
    #[must_use]
    pub fn mean_size(&self) -> f64 {
        f64::from(self.min_size + self.max_size) / 2.0
    }

    fn validate(&self) -> Result<(), String> {
        if self.min_size < 1 {
            return Err("group arrivals need min_size >= 1".into());
        }
        if self.max_size < self.min_size {
            return Err(format!(
                "group arrivals need min_size <= max_size, got [{}, {}]",
                self.min_size, self.max_size
            ));
        }
        const MAX_GROUP: u32 = 100_000;
        if self.max_size > MAX_GROUP {
            return Err(format!(
                "group arrivals cap max_size at {MAX_GROUP}, got {}",
                self.max_size
            ));
        }
        Ok(())
    }
}

/// Assigns arrivals to spawn cells, in arrival order.
///
/// Both engines route every arrival's cell draw through one of these so
/// the sequential and sharded simulators consume *identical* RNG call
/// sequences: one `uniform_u32` per independent arrival, zero draws on a
/// single-cell grid, and — for [`TrafficModel::Groups`] with
/// [`GroupConfig::same_cell`] — zero draws for the followers of a group,
/// which reuse their leader's cell.  Followers are recognised by sharing
/// the leader's exact arrival time, which only group generation produces
/// (continuous gap draws never collide bit-for-bit).
#[derive(Debug, Clone)]
pub struct SpawnCellAssigner {
    correlated: bool,
    last: Option<(SimTime, u32)>,
}

impl SpawnCellAssigner {
    /// An assigner for the given model.
    #[must_use]
    pub fn new(model: &TrafficModel) -> Self {
        let correlated = matches!(model, TrafficModel::Groups(g) if g.same_cell);
        Self {
            correlated,
            last: None,
        }
    }

    /// The spawn cell (as an index into the grid's cell order) for an
    /// arrival at `arrival_time` on a grid of `num_cells` cells.
    pub fn assign(&mut self, arrival_time: SimTime, num_cells: usize, rng: &mut SimRng) -> u32 {
        if num_cells <= 1 {
            return 0;
        }
        if self.correlated {
            if let Some((t, c)) = self.last {
                if t.to_bits() == arrival_time.to_bits() {
                    return c;
                }
            }
        }
        let cell = rng.uniform_u32(0, (num_cells - 1) as u32);
        if self.correlated {
            self.last = Some((arrival_time, cell));
        }
        cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_is_poisson() {
        assert_eq!(TrafficModel::default(), TrafficModel::Poisson);
        assert_eq!(TrafficModel::Poisson.label(), "poisson");
        assert!(TrafficModel::Poisson.validate().is_ok());
    }

    #[test]
    fn mmpp_builder_and_presets() {
        let flash = MmppConfig::flash_crowd();
        assert!((flash.mean_rate_multiplier() - 1.0).abs() < 1e-12);
        let diurnal = MmppConfig::diurnal();
        assert!((diurnal.mean_rate_multiplier() - 1.0).abs() < 1e-12);
        assert!(TrafficModel::Mmpp(flash).validate().is_ok());
        assert!(TrafficModel::Mmpp(diurnal).validate().is_ok());
    }

    #[test]
    fn mmpp_validation_rejects_degenerate_processes() {
        let empty = TrafficModel::Mmpp(MmppConfig::new());
        assert!(empty.validate().is_err());
        let all_silent = TrafficModel::Mmpp(MmppConfig::new().state(0.0, 10.0));
        assert!(all_silent.validate().is_err());
        let bad_sojourn = TrafficModel::Mmpp(MmppConfig::new().state(1.0, 0.0));
        assert!(bad_sojourn.validate().is_err());
        let nan_rate = TrafficModel::Mmpp(MmppConfig::new().state(f64::NAN, 10.0));
        assert!(nan_rate.validate().is_err());
    }

    #[test]
    fn trace_parser_accepts_comments_and_blanks() {
        let entries = parse_trace(
            "# header\n\
             \n\
             0.0 60.0 text   # inline comment\n\
             1.5 10.0 voice\n",
        )
        .unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].class, ServiceClass::Text);
        assert_eq!(entries[1].inter_arrival_s, 1.5);
    }

    #[test]
    fn trace_parser_rejects_malformed_input() {
        assert_eq!(parse_trace(""), Err(TraceError::Empty));
        assert_eq!(parse_trace("# only comments\n"), Err(TraceError::Empty));
        assert_eq!(
            parse_trace("1.0 2.0\n"),
            Err(TraceError::MissingFields { line: 1 })
        );
        assert_eq!(
            parse_trace("0.0 60.0 text\nnope 2.0 voice\n"),
            Err(TraceError::BadNumber {
                line: 2,
                field: "inter_arrival"
            })
        );
        assert_eq!(
            parse_trace("-1.0 2.0 voice\n"),
            Err(TraceError::BadNumber {
                line: 1,
                field: "inter_arrival"
            })
        );
        assert_eq!(
            parse_trace("1.0 0.0 voice\n"),
            Err(TraceError::BadNumber {
                line: 1,
                field: "duration"
            })
        );
        assert_eq!(
            parse_trace("1.0 inf voice\n"),
            Err(TraceError::BadNumber {
                line: 1,
                field: "duration"
            })
        );
        assert_eq!(
            parse_trace("1.0 2.0 fax\n"),
            Err(TraceError::BadClass {
                line: 1,
                value: "fax".into()
            })
        );
        // Errors render as readable text.
        let msg = TraceError::BadClass {
            line: 3,
            value: "fax".into(),
        }
        .to_string();
        assert!(msg.contains("line 3") && msg.contains("fax"));
    }

    #[test]
    fn trace_validation() {
        let ok = TraceConfig::from_text("1.0 60.0 voice\n").unwrap();
        assert!(TrafficModel::Trace(ok.clone()).validate().is_ok());
        let empty = TraceConfig {
            entries: vec![],
            duration: DurationPolicy::FromTrace,
            loop_replay: false,
        };
        assert!(TrafficModel::Trace(empty).validate().is_err());
        let zero_gap_loop = TraceConfig::from_text("0.0 60.0 voice\n").unwrap();
        assert!(TrafficModel::Trace(zero_gap_loop.clone())
            .validate()
            .is_err());
        assert!(TrafficModel::Trace(zero_gap_loop.with_loop_replay(false))
            .validate()
            .is_ok());
        let bad_fixed = ok
            .clone()
            .with_duration(DurationPolicy::Fixed { duration_s: 0.0 });
        assert!(TrafficModel::Trace(bad_fixed).validate().is_err());
        let bad_bounds = ok.with_duration(DurationPolicy::Bounded {
            min_s: 10.0,
            max_s: 5.0,
        });
        assert!(TrafficModel::Trace(bad_bounds).validate().is_err());
    }

    #[test]
    fn group_validation_and_mean() {
        let g = GroupConfig::new(5, 15);
        assert_eq!(g.mean_size(), 10.0);
        assert!(TrafficModel::Groups(g).validate().is_ok());
        assert!(TrafficModel::Groups(GroupConfig::new(0, 3))
            .validate()
            .is_err());
        assert!(TrafficModel::Groups(GroupConfig::new(5, 2))
            .validate()
            .is_err());
        assert!(TrafficModel::Groups(GroupConfig::new(1, 200_000))
            .validate()
            .is_err());
    }

    #[test]
    fn assigner_matches_plain_draw_for_uncorrelated_models() {
        let mut direct = SimRng::new(42);
        let mut via = SimRng::new(42);
        let mut assigner = SpawnCellAssigner::new(&TrafficModel::Poisson);
        for i in 0..100 {
            let t = i as f64 * 0.5;
            assert_eq!(assigner.assign(t, 19, &mut via), direct.uniform_u32(0, 18));
        }
    }

    #[test]
    fn assigner_reuses_cell_for_same_time_groups() {
        let model = TrafficModel::Groups(GroupConfig::new(3, 3));
        let mut rng = SimRng::new(7);
        let mut assigner = SpawnCellAssigner::new(&model);
        let leader = assigner.assign(10.0, 19, &mut rng);
        let follower_a = assigner.assign(10.0, 19, &mut rng);
        let follower_b = assigner.assign(10.0, 19, &mut rng);
        assert_eq!(leader, follower_a);
        assert_eq!(leader, follower_b);
        // A new arrival time draws a fresh cell (and may of course
        // coincide; the point is the draw happens again).
        let mut fresh = rng.clone();
        let next = assigner.assign(11.0, 19, &mut rng);
        assert_eq!(next, fresh.uniform_u32(0, 18));
    }

    #[test]
    fn assigner_single_cell_never_draws() {
        let mut rng = SimRng::new(9);
        let before = rng.clone().uniform_u32(0, 1000);
        let mut assigner = SpawnCellAssigner::new(&TrafficModel::Poisson);
        assert_eq!(assigner.assign(0.0, 1, &mut rng), 0);
        assert_eq!(assigner.assign(1.0, 0, &mut rng), 0);
        assert_eq!(rng.uniform_u32(0, 1000), before, "no draws consumed");
    }

    #[test]
    fn models_round_trip_through_serde() {
        let models = [
            TrafficModel::Poisson,
            TrafficModel::Mmpp(MmppConfig::flash_crowd()),
            TrafficModel::Trace(
                TraceConfig::from_text("0.5 60.0 voice\n1.0 10.0 text\n")
                    .unwrap()
                    .with_duration(DurationPolicy::Bounded {
                        min_s: 5.0,
                        max_s: 120.0,
                    }),
            ),
            TrafficModel::Groups(GroupConfig::new(5, 20)),
        ];
        for model in models {
            let json = serde_json::to_string(&model).unwrap();
            let back: TrafficModel = serde_json::from_str(&json).unwrap();
            assert_eq!(back, model);
        }
    }
}
