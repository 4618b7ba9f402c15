//! Declarative experiment descriptions.
//!
//! A [`ScenarioSpec`] captures *everything* a full experiment needs — the
//! network (grid size, cell radius, station capacity), the workload
//! (traffic mix, speed and angle ranges, load axis), the admission
//! controllers to compare, and the statistical design (replication count,
//! base seed) — as one serde-serializable value.  A spec can therefore live in a JSON file,
//! be shipped to another machine, and reproduce the exact same numbers,
//! because every random draw of every replication is derived from the
//! spec's `base_seed` by a fixed rule ([`ScenarioSpec::seed_for`]).

use cellsim::shard::BoxedController;
use cellsim::sim::{AlwaysAccept, CapacityThreshold, SimConfig};
use cellsim::traffic::{TrafficConfig, TrafficModel};
use cellsim::{Bandwidth, FaultPlan};
use facs::{FacsController, FacsPController};
use scc::SccAdmission;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which admission controller a scenario runs (the controller factory:
/// every variant knows how to build its boxed
/// [`AdmissionController`](cellsim::sim::AdmissionController)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ControllerSpec {
    /// The proposed FACS-P controller.
    FacsP,
    /// FACS-P with the LUT decision backend: FLC2 pre-tabulated into
    /// per-class `(Cv, Cs)` surfaces (decisions within the measured LUT
    /// error of `FacsP`, lookups independent of rule count).
    FacsPLut,
    /// The authors' previous FACS controller.
    Facs,
    /// The Shadow Cluster Concept baseline.
    Scc,
    /// Admit-if-it-fits upper bound.
    AlwaysAccept,
    /// Guard-channel style utilisation threshold.
    Threshold {
        /// Maximum post-admission utilisation for new calls, in `[0, 1]`.
        new_call: f64,
        /// Maximum post-admission utilisation for handoffs, in `[0, 1]`.
        handoff: f64,
    },
}

impl ControllerSpec {
    /// Label used in reports and figure series.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            ControllerSpec::FacsP => "FACS-P".to_string(),
            ControllerSpec::FacsPLut => "FACS-P-LUT".to_string(),
            ControllerSpec::Facs => "FACS".to_string(),
            ControllerSpec::Scc => "SCC".to_string(),
            ControllerSpec::AlwaysAccept => "always-accept".to_string(),
            ControllerSpec::Threshold { new_call, handoff } => {
                format!("threshold({new_call:.2}/{handoff:.2})")
            }
        }
    }

    /// Instantiate a fresh controller for one replication.
    ///
    /// The box is `Send` so the same factory drives both the sequential
    /// per-cell sweep workers and the sharded engine's per-shard
    /// controller banks.
    #[must_use]
    pub fn build(&self) -> BoxedController {
        match self {
            ControllerSpec::FacsP => FacsPController::boxed_paper_default(),
            ControllerSpec::FacsPLut => FacsPController::boxed_paper_default_lut(),
            ControllerSpec::Facs => FacsController::boxed_paper_default(),
            ControllerSpec::Scc => SccAdmission::boxed_paper_default(),
            ControllerSpec::AlwaysAccept => Box::new(AlwaysAccept),
            ControllerSpec::Threshold { new_call, handoff } => {
                Box::new(CapacityThreshold::new(*new_call, *handoff))
            }
        }
    }
}

impl fmt::Display for ControllerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// How a load point `n` translates into offered traffic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LoadMode {
    /// The paper's figure shape: `n` requesting connections arrive over a
    /// fixed observation window (`mean_interarrival_s = window_s / n`),
    /// driven through the Poisson event loop.
    RequestsPerWindow {
        /// Observation window length (seconds).
        window_s: f64,
    },
    /// `n` Poisson arrivals at the inter-arrival time already configured in
    /// the spec's [`TrafficConfig`] — the load axis is the run length.
    TotalRequests,
    /// `n` requests all offered at time zero against the origin cell (the
    /// paper's batch shape; capacity is the binding resource).
    Batch,
}

/// Errors produced when validating or loading a [`ScenarioSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpecError {
    /// A structural problem with the spec (empty axis, zero capacity, …).
    Invalid(String),
    /// The spec could not be parsed from JSON.
    Parse(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Invalid(msg) => write!(f, "invalid scenario spec: {msg}"),
            SpecError::Parse(msg) => write!(f, "could not parse scenario spec: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A complete, serializable description of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (used in reports and file names).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Radius of the hexagonal grid in cells (0 = the paper's single cell).
    pub grid_radius_cells: u32,
    /// Cell radius in metres.
    pub cell_radius_m: f64,
    /// Capacity of every base station (BU).
    pub station_capacity: Bandwidth,
    /// Workload parameters: service mix, holding times, speed and angle
    /// ranges, handoff fraction, direction predictability.  When the load
    /// mode is [`LoadMode::RequestsPerWindow`] the configured
    /// `mean_interarrival_s` is overridden per load point.
    pub traffic: TrafficConfig,
    /// The arrival process: Poisson (the paper's workload and the
    /// default), MMPP bursts, trace replay or correlated groups.
    ///
    /// The field is optional in spec JSON — absent means Poisson, so
    /// every spec written before the field existed parses to the exact
    /// same experiment:
    ///
    /// ```
    /// use sweep::ScenarioSpec;
    /// use cellsim::traffic::TrafficModel;
    ///
    /// let mut spec = sweep::builtin("paper-default").unwrap();
    /// assert_eq!(spec.traffic_model, TrafficModel::Poisson);
    ///
    /// // A JSON spec without the field round-trips to Poisson...
    /// let json = spec.to_json().replace("\"traffic_model\": \"Poisson\",", "");
    /// assert!(!json.contains("traffic_model"));
    /// assert_eq!(
    ///     ScenarioSpec::from_json(&json).unwrap().traffic_model,
    ///     TrafficModel::Poisson,
    /// );
    ///
    /// // ...and a bursty model is validated like the rest of the spec.
    /// spec.traffic_model = TrafficModel::Mmpp(cellsim::MmppConfig::new());
    /// assert!(spec.validate().is_err(), "empty MMPP must be rejected");
    /// ```
    #[serde(default)]
    pub traffic_model: TrafficModel,
    /// Scheduled cell faults — outages and capacity degradation —
    /// applied identically to every `(controller, load, replication)`
    /// cell of the sweep, so robustness comparisons are paired exactly
    /// like the load comparisons.  Absent in spec JSON means no faults,
    /// so every spec written before the field existed parses to the
    /// exact same experiment.
    #[serde(default)]
    pub fault_plan: FaultPlan,
    /// Interval between utilisation samples (seconds); 0 disables sampling.
    pub utilization_sample_interval_s: f64,
    /// The controllers to compare.  Every controller sees the identical
    /// arrival sequence at each (load, replication) point, so comparisons
    /// are paired exactly like the paper's Fig. 7 / Fig. 10 methodology.
    pub controllers: Vec<ControllerSpec>,
    /// How a load point translates into offered traffic.
    pub load_mode: LoadMode,
    /// The load axis: numbers of requesting connections to sweep.
    pub load_points: Vec<usize>,
    /// Independent replications (distinct seeds) aggregated per point.
    pub replications: usize,
    /// Base RNG seed; see [`ScenarioSpec::seed_for`] for the derivation.
    pub base_seed: u64,
}

/// One round of the SplitMix64 finalizer: the standard avalanching mix
/// used to turn structured counters into decorrelated seed streams.
fn splitmix64(z: u64) -> u64 {
    cellsim::rng::mix64(z.wrapping_add(cellsim::rng::SPLITMIX64_GAMMA))
}

/// FNV-1a over a byte string: a stable, dependency-free label hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

impl ScenarioSpec {
    /// The seed of one `(controller, load point, replication)` cell: a
    /// SplitMix64-style hash of `(base_seed, controller label, load index,
    /// replication)`.
    ///
    /// The previous `base + 1000·load + replication` formula was
    /// collision-prone (structured, and adjacent load points were only
    /// 1000 seeds apart, capping replications) and handed *correlated*
    /// `StdRng` neighbour streams to "independent" replications.  The
    /// hashed derivation gives every cell of the grid a provably distinct,
    /// decorrelated stream — including across controllers, so the per-point
    /// spread measures genuine run-to-run variance rather than reusing one
    /// arrival sequence per cell.  (Cross-controller comparisons are still
    /// exact at the *aggregate* level: every controller sweeps the same
    /// load axis with the same replication count.)
    ///
    /// The derivation depends on the controller's [`ControllerSpec::label`]
    /// — not its position in the controller list — so adding or reordering
    /// controllers never moves another controller's numbers, and sweeping a
    /// controller alone reproduces its curve from a joint sweep exactly.
    ///
    /// This rule is part of the spec format: published results are
    /// reproducible from their specs only while it stays fixed.
    #[must_use]
    pub fn seed_for(
        &self,
        controller: &ControllerSpec,
        load_index: usize,
        replication: usize,
    ) -> u64 {
        let mut z = splitmix64(self.base_seed);
        z = splitmix64(z ^ fnv1a(controller.label().as_bytes()));
        z = splitmix64(z ^ (load_index as u64));
        splitmix64(z ^ (replication as u64))
    }

    /// The simulator configuration of one `(controller, load point,
    /// replication)` cell; `load_index` indexes
    /// [`ScenarioSpec::load_points`].
    ///
    /// # Panics
    /// Panics when `load_index` is out of range.
    #[must_use]
    pub fn sim_config(
        &self,
        controller: &ControllerSpec,
        load_index: usize,
        replication: usize,
    ) -> SimConfig {
        let load = self.load_points[load_index];
        let mut traffic = self.traffic.clone();
        if let LoadMode::RequestsPerWindow { window_s } = self.load_mode {
            traffic.mean_interarrival_s = if load == 0 {
                window_s
            } else {
                window_s / load as f64
            };
        }
        SimConfig::paper_default()
            .with_grid_radius(self.grid_radius_cells)
            .with_cell_radius(self.cell_radius_m)
            .with_capacity(self.station_capacity)
            .with_traffic(traffic)
            .with_traffic_model(self.traffic_model.clone())
            .with_fault_plan(self.fault_plan.clone())
            .with_utilization_sampling(self.utilization_sample_interval_s)
            .with_seed(self.seed_for(controller, load_index, replication))
    }

    /// Check the spec is runnable.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(SpecError::Invalid("scenario name is empty".into()));
        }
        if self.controllers.is_empty() {
            return Err(SpecError::Invalid("no controllers configured".into()));
        }
        if self.load_points.is_empty() {
            return Err(SpecError::Invalid("load axis is empty".into()));
        }
        if self.load_points.contains(&0) {
            return Err(SpecError::Invalid("load points must be positive".into()));
        }
        if self.replications == 0 {
            return Err(SpecError::Invalid("replications must be at least 1".into()));
        }
        if self.station_capacity == 0 {
            return Err(SpecError::Invalid("station capacity is zero".into()));
        }
        if let LoadMode::RequestsPerWindow { window_s } = self.load_mode {
            if !(window_s.is_finite() && window_s > 0.0) {
                return Err(SpecError::Invalid(format!(
                    "observation window must be positive, got {window_s}"
                )));
            }
        }
        self.traffic_model.validate().map_err(SpecError::Invalid)?;
        self.fault_plan.validate().map_err(SpecError::Invalid)?;
        Ok(())
    }

    /// A cheaper variant for CI smoke runs: at most three load points
    /// (first, middle, last) and at most three replications.
    #[must_use]
    pub fn quick(mut self) -> Self {
        if self.load_points.len() > 3 {
            let first = *self.load_points.first().expect("non-empty");
            let mid = self.load_points[self.load_points.len() / 2];
            let last = *self.load_points.last().expect("non-empty");
            self.load_points = vec![first, mid, last];
            self.load_points.dedup();
        }
        self.replications = self.replications.clamp(1, 3);
        self
    }

    /// Override the base seed.
    #[must_use]
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Override the replication count (at least 1).
    #[must_use]
    pub fn with_replications(mut self, replications: usize) -> Self {
        self.replications = replications.max(1);
        self
    }

    /// Override the load axis.
    #[must_use]
    pub fn with_load_points(mut self, points: Vec<usize>) -> Self {
        self.load_points = points;
        self
    }

    /// Override the controller list.
    #[must_use]
    pub fn with_controllers(mut self, controllers: Vec<ControllerSpec>) -> Self {
        self.controllers = controllers;
        self
    }

    /// Serialise to pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }

    /// Parse a spec from JSON and validate it.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let spec: ScenarioSpec =
            serde_json::from_str(text).map_err(|e| SpecError::Parse(e.to_string()))?;
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::builtin;

    #[test]
    fn controller_specs_build_matching_controllers() {
        for (spec, expected_name) in [
            (ControllerSpec::FacsP, "facs-p"),
            (ControllerSpec::FacsPLut, "facs-p-lut"),
            (ControllerSpec::Facs, "facs"),
            (ControllerSpec::Scc, "scc"),
            (ControllerSpec::AlwaysAccept, "always-accept"),
            (
                ControllerSpec::Threshold {
                    new_call: 0.8,
                    handoff: 1.0,
                },
                "capacity-threshold",
            ),
        ] {
            assert_eq!(spec.build().name(), expected_name);
            assert!(!spec.label().is_empty());
        }
        assert_eq!(
            ControllerSpec::Threshold {
                new_call: 0.8,
                handoff: 1.0
            }
            .to_string(),
            "threshold(0.80/1.00)"
        );
    }

    #[test]
    fn specs_with_a_mobility_field_still_load() {
        // `downtown-hotspot` as `to_json()` wrote it while specs carried a
        // `mobility` field that no engine read.  The field is ignored, and
        // only the description (which promised wandering headings) moved.
        let old = ScenarioSpec::from_json(include_str!(
            "../tests/data/downtown-hotspot-with-mobility.json"
        ))
        .unwrap();
        let current = builtin("downtown-hotspot").unwrap();
        assert!(old.description.contains("wandering headings"));
        assert_eq!(
            ScenarioSpec {
                description: current.description.clone(),
                ..old.clone()
            },
            current
        );
        for controller in &current.controllers {
            for load_index in 0..current.load_points.len() {
                for rep in 0..current.replications {
                    assert_eq!(
                        old.sim_config(controller, load_index, rep),
                        current.sim_config(controller, load_index, rep)
                    );
                }
            }
        }
    }

    #[test]
    fn seed_derivation_is_deterministic_and_input_sensitive() {
        let spec = builtin("paper-default").unwrap().with_base_seed(100);
        let c = ControllerSpec::FacsP;
        // Deterministic.
        assert_eq!(spec.seed_for(&c, 3, 0), spec.seed_for(&c, 3, 0));
        // Sensitive to every component of the cell coordinate.
        assert_ne!(spec.seed_for(&c, 3, 0), spec.seed_for(&c, 3, 1));
        assert_ne!(spec.seed_for(&c, 3, 0), spec.seed_for(&c, 4, 0));
        assert_ne!(
            spec.seed_for(&c, 3, 0),
            spec.seed_for(&ControllerSpec::Facs, 3, 0)
        );
        assert_ne!(
            spec.seed_for(&c, 3, 0),
            spec.clone().with_base_seed(101).seed_for(&c, 3, 0)
        );
        // Keyed on the controller *label*, not its list position: a
        // controller's stream is the same whether swept alone or jointly.
        assert_eq!(
            spec.seed_for(&ControllerSpec::Facs, 2, 1),
            spec.clone()
                .with_controllers(vec![ControllerSpec::Facs])
                .seed_for(&ControllerSpec::Facs, 2, 1)
        );
        // Wrapping, never panicking.
        let spec = spec.with_base_seed(u64::MAX);
        let _ = spec.seed_for(&c, usize::MAX, usize::MAX);
    }

    #[test]
    fn seeds_are_distinct_across_a_large_cell_grid() {
        // The satellite guarantee of the SplitMix64 derivation: every
        // (controller, load index, replication) cell of a large grid gets
        // its own seed — the old affine formula collided as soon as
        // replications crossed the 1000-seed load spacing.
        let spec = builtin("paper-default").unwrap().with_base_seed(0xFACADE);
        let controllers = [
            ControllerSpec::FacsP,
            ControllerSpec::Facs,
            ControllerSpec::Scc,
            ControllerSpec::AlwaysAccept,
            ControllerSpec::Threshold {
                new_call: 0.8,
                handoff: 1.0,
            },
        ];
        let loads = 40;
        let reps = 250;
        let mut seeds = std::collections::HashSet::new();
        for c in &controllers {
            for load_index in 0..loads {
                for rep in 0..reps {
                    seeds.insert(spec.seed_for(c, load_index, rep));
                }
            }
        }
        assert_eq!(
            seeds.len(),
            controllers.len() * loads * reps,
            "every cell must draw a distinct seed"
        );
    }

    #[test]
    fn requests_per_window_scales_interarrival() {
        let spec = builtin("paper-default").unwrap();
        let LoadMode::RequestsPerWindow { window_s } = spec.load_mode else {
            panic!("paper-default sweeps requests per window");
        };
        let c = ControllerSpec::FacsP;
        let load_index = spec.load_points.iter().position(|&l| l == 50).unwrap();
        let cfg = spec.sim_config(&c, load_index, 0);
        assert!((cfg.traffic.mean_interarrival_s - window_s / 50.0).abs() < 1e-12);
        assert_eq!(cfg.seed, spec.seed_for(&c, load_index, 0));
        assert_eq!(cfg.station_capacity, spec.station_capacity);
    }

    #[test]
    fn total_requests_keeps_configured_interarrival() {
        let mut spec = builtin("highway-handoff").unwrap();
        spec.load_mode = LoadMode::TotalRequests;
        let expected = spec.traffic.mean_interarrival_s;
        let cfg = spec.sim_config(&ControllerSpec::Scc, 0, 2);
        assert_eq!(cfg.traffic.mean_interarrival_s, expected);
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        let good = builtin("paper-default").unwrap();
        assert!(good.validate().is_ok());
        assert!(good.clone().with_controllers(vec![]).validate().is_err());
        assert!(good.clone().with_load_points(vec![]).validate().is_err());
        assert!(good
            .clone()
            .with_load_points(vec![10, 0])
            .validate()
            .is_err());
        let mut zero_cap = good.clone();
        zero_cap.station_capacity = 0;
        assert!(zero_cap.validate().is_err());
        // The hashed seed derivation has no replication ceiling (the old
        // affine formula capped replications at its 1000-seed spacing).
        assert!(good.clone().with_replications(100_000).validate().is_ok());
        let mut bad_window = good.clone();
        bad_window.load_mode = LoadMode::RequestsPerWindow { window_s: -1.0 };
        assert!(bad_window.validate().is_err());
        let mut unnamed = good;
        unnamed.name.clear();
        assert!(unnamed.validate().is_err());
    }

    #[test]
    fn quick_shrinks_points_and_replications() {
        let spec = builtin("paper-default").unwrap();
        let quick = spec.clone().quick();
        assert!(quick.load_points.len() <= 3);
        assert!(quick.replications <= 3);
        assert_eq!(
            quick.load_points.first(),
            spec.load_points.first(),
            "quick keeps the endpoints"
        );
        assert_eq!(quick.load_points.last(), spec.load_points.last());
        assert!(quick.validate().is_ok());
    }

    #[test]
    fn specs_round_trip_through_json() {
        for name in crate::scenarios::builtin_names() {
            let spec = builtin(name).unwrap();
            let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(back, spec, "{name} must round-trip");
        }
    }

    #[test]
    fn fault_plan_is_optional_and_validated() {
        use cellsim::fault::FaultKind;
        // Pre-fault spec JSON (no `fault_plan` key) parses to no faults.
        let spec = builtin("paper-default").unwrap();
        assert!(spec.fault_plan.is_empty());
        let serde::Value::Object(mut fields) =
            serde_json::from_str::<serde::Value>(&spec.to_json()).unwrap()
        else {
            panic!("spec JSON is an object");
        };
        fields.retain(|(key, _)| key != "fault_plan");
        let stripped = serde_json::to_string(&serde::Value::Object(fields)).unwrap();
        assert_eq!(ScenarioSpec::from_json(&stripped).unwrap(), spec);
        // A plan rides through sim_config into every sweep cell.
        let mut faulted = builtin("highway-handoff").unwrap();
        faulted.fault_plan = FaultPlan::new().with_outage(3, 100.0, 50.0);
        let cfg = faulted.sim_config(&ControllerSpec::Facs, 0, 0);
        assert_eq!(cfg.fault_plan, faulted.fault_plan);
        let back = ScenarioSpec::from_json(&faulted.to_json()).unwrap();
        assert_eq!(back, faulted);
        // Invalid plans are rejected like any other bad spec field.
        faulted.fault_plan = FaultPlan::new().with_event(
            10.0,
            0,
            FaultKind::Degrade {
                capacity_fraction: 2.0,
            },
        );
        assert!(matches!(faulted.validate(), Err(SpecError::Invalid(_))));
    }

    #[test]
    fn from_json_rejects_garbage_and_invalid_specs() {
        assert!(matches!(
            ScenarioSpec::from_json("not json"),
            Err(SpecError::Parse(_))
        ));
        let mut spec = builtin("paper-default").unwrap();
        spec.replications = 0;
        assert!(matches!(
            ScenarioSpec::from_json(&spec.to_json()),
            Err(SpecError::Invalid(_))
        ));
    }
}
