//! The FACS and FACS-P admission controllers.
//!
//! Both controllers implement [`cellsim::AdmissionController`] so they plug
//! directly into the simulator:
//!
//! * [`FacsController`] — the authors' *previous* system (the comparison
//!   point of Figs. 7 and 10): FLC1 driven by speed, angle and
//!   user-to-station distance, FLC2 driven by the physical counter state,
//!   no priority handling.
//! * [`FacsPController`] — the *proposed* system: FLC1 driven by speed,
//!   angle and the requested bandwidth, FLC2 driven by the priority-aware
//!   effective counter state of [`PriorityPolicy`].

use crate::flc1::{DistanceFlc1, Flc1};
use crate::flc2::{Flc2, Flc2Lut};
use crate::params::PaperParams;
use crate::priority::{PriorityPolicy, RequestPriority};
use cellsim::shard::BoxedController;
use cellsim::sim::{AdmissionController, AdmissionDecision, AdmissionRequest};
use cellsim::station::BaseStation;
use fuzzy::Result;
use serde::{Deserialize, Serialize};

/// Configuration of the previous-work FACS controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FacsConfig {
    /// Base-station capacity the counter-state terms are scaled to (BU).
    pub capacity_bu: f64,
}

impl FacsConfig {
    /// The paper's configuration (40 BU).
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            capacity_bu: PaperParams::CAPACITY_BU,
        }
    }
}

impl Default for FacsConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The authors' previous fuzzy admission control system (FACS).
#[derive(Debug, Clone)]
pub struct FacsController {
    flc1: DistanceFlc1,
    flc2: Flc2,
    /// Optional LUT-backed FLC2 (see [`FacsController::with_lut`]).
    lut: Option<Flc2Lut>,
    config: FacsConfig,
}

impl FacsController {
    /// Build the controller with [`FacsConfig::paper_default`].
    ///
    /// # Panics
    /// Never panics: the paper parameters are statically valid (covered by
    /// tests); the fallible constructor is [`FacsController::new`].
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(FacsConfig::paper_default()).expect("paper parameters are valid")
    }

    /// Build the controller from an explicit configuration.
    pub fn new(config: FacsConfig) -> Result<Self> {
        Ok(Self {
            flc1: DistanceFlc1::paper_default()?,
            flc2: Flc2::with_capacity(config.capacity_bu)?,
            lut: None,
            config,
        })
    }

    /// Switch the FLC2 stage to the LUT backend (pre-tabulated per-class
    /// `(Cv, Cs)` surfaces at the default refined settings).  Decisions
    /// then track the compiled path within the *measured*
    /// [`Flc2Lut::max_error`]; the controller reports itself as `facs-lut`.
    pub fn with_lut(mut self) -> Result<Self> {
        self.lut = Some(self.flc2.compile_lut()?);
        Ok(self)
    }

    /// Install a pre-built LUT backend (e.g. custom refinement settings, or
    /// one shared across controller instances).
    ///
    /// Fails when the LUT was tabulated for another station capacity than
    /// this controller's FLC2: its counter-state axis would clamp at the
    /// wrong capacity.
    pub fn with_lut_backend(mut self, lut: Flc2Lut) -> Result<Self> {
        check_lut_capacity(&lut, &self.flc2)?;
        self.lut = Some(lut);
        Ok(self)
    }

    /// The paper-default controller behind the [`AdmissionController`]
    /// trait object — the factory shape scenario specs build from.
    #[must_use]
    pub fn boxed_paper_default() -> BoxedController {
        Box::new(Self::paper_default())
    }

    /// The controller's configuration.
    #[must_use]
    pub fn config(&self) -> &FacsConfig {
        &self.config
    }

    /// The LUT backend, when enabled.
    #[must_use]
    pub fn lut(&self) -> Option<&Flc2Lut> {
        self.lut.as_ref()
    }

    /// The defuzzified A/R value FACS would produce for a request, given
    /// the station state (exposed for tests).
    #[must_use]
    pub fn decision_value(&self, request: &AdmissionRequest, station: &BaseStation) -> f64 {
        let distance = request
            .distance_m
            .unwrap_or(PaperParams::DEFAULT_DISTANCE_M);
        let cv = self
            .flc1
            .correction_value(request.speed_kmh, request.angle_deg, distance);
        let rq = f64::from(request.bandwidth);
        let cs = f64::from(station.counter_state());
        match &self.lut {
            Some(lut) => lut.decision_value(cv, rq, cs),
            None => self.flc2.decision_value(cv, rq, cs),
        }
    }
}

impl AdmissionController for FacsController {
    fn name(&self) -> &'static str {
        if self.lut.is_some() {
            "facs-lut"
        } else {
            "facs"
        }
    }

    fn decide(&mut self, request: &AdmissionRequest, station: &BaseStation) -> AdmissionDecision {
        let score = self.decision_value(request, station);
        if score > PaperParams::ACCEPT_THRESHOLD {
            AdmissionDecision::accept(score)
        } else {
            AdmissionDecision::reject(score)
        }
    }
}

/// Configuration of the proposed FACS-P controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FacsPConfig {
    /// Base-station capacity the counter-state terms are scaled to (BU).
    pub capacity_bu: f64,
    /// The on-going-connection priority policy.
    pub priority: PriorityPolicy,
    /// Default priority assigned to requesting connections (the paper's
    /// future-work extension; `Normal` reproduces the paper).
    pub request_priority: RequestPriority,
}

impl FacsPConfig {
    /// The paper's configuration.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            capacity_bu: PaperParams::CAPACITY_BU,
            priority: PriorityPolicy::paper_default(),
            request_priority: RequestPriority::Normal,
        }
    }

    /// Disable the priority handling (ablation: plain FLC1/FLC2 cascade).
    #[must_use]
    pub fn without_priority(mut self) -> Self {
        self.priority = PriorityPolicy::disabled();
        self
    }

    /// Set the priority of requesting connections (future-work extension).
    #[must_use]
    pub fn with_request_priority(mut self, priority: RequestPriority) -> Self {
        self.request_priority = priority;
        self
    }
}

impl Default for FacsPConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The proposed fuzzy admission control system with priority of on-going
/// connections (FACS-P).
#[derive(Debug, Clone)]
pub struct FacsPController {
    flc1: Flc1,
    flc2: Flc2,
    /// Optional LUT-backed FLC2 (see [`FacsPController::with_lut`]).
    lut: Option<Flc2Lut>,
    config: FacsPConfig,
}

impl FacsPController {
    /// Build the controller with [`FacsPConfig::paper_default`].
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(FacsPConfig::paper_default()).expect("paper parameters are valid")
    }

    /// Build the controller from an explicit configuration.
    pub fn new(config: FacsPConfig) -> Result<Self> {
        let config = FacsPConfig {
            priority: config.priority.sanitized(),
            ..config
        };
        Ok(Self {
            flc1: Flc1::paper_default()?,
            flc2: Flc2::with_capacity(config.capacity_bu)?,
            lut: None,
            config,
        })
    }

    /// Switch the FLC2 stage to the LUT backend (pre-tabulated per-class
    /// `(Cv, Cs)` surfaces at the default refined settings).  Decisions
    /// then track the compiled path within the *measured*
    /// [`Flc2Lut::max_error`]; the controller reports itself as `facs-p-lut`.
    pub fn with_lut(mut self) -> Result<Self> {
        self.lut = Some(self.flc2.compile_lut()?);
        Ok(self)
    }

    /// Install a pre-built LUT backend (e.g. custom refinement settings, or
    /// one shared across controller instances).
    ///
    /// Fails when the LUT was tabulated for another station capacity than
    /// this controller's FLC2: its counter-state axis would clamp at the
    /// wrong capacity.
    pub fn with_lut_backend(mut self, lut: Flc2Lut) -> Result<Self> {
        check_lut_capacity(&lut, &self.flc2)?;
        self.lut = Some(lut);
        Ok(self)
    }

    /// The paper-default controller with the LUT decision backend.
    ///
    /// The tabulation is shared process-wide ([`Flc2Lut::paper_shared`]):
    /// the first call pays the tabulation cost, every further call —
    /// including the thousands of per-cell controllers a sweep builds —
    /// reuses the same surfaces.
    ///
    /// # Panics
    /// Never panics: the paper parameters are statically valid.
    #[must_use]
    pub fn paper_default_lut() -> Self {
        Self::paper_default()
            .with_lut_backend(Flc2Lut::paper_shared())
            .expect("the shared LUT is tabulated for the paper capacity")
    }

    /// The paper-default controller behind the [`AdmissionController`]
    /// trait object — the factory shape scenario specs build from.
    #[must_use]
    pub fn boxed_paper_default() -> BoxedController {
        Box::new(Self::paper_default())
    }

    /// The paper-default LUT-backed controller behind the
    /// [`AdmissionController`] trait object.
    #[must_use]
    pub fn boxed_paper_default_lut() -> BoxedController {
        Box::new(Self::paper_default_lut())
    }

    /// The controller's configuration.
    #[must_use]
    pub fn config(&self) -> &FacsPConfig {
        &self.config
    }

    /// The LUT backend, when enabled.
    #[must_use]
    pub fn lut(&self) -> Option<&Flc2Lut> {
        self.lut.as_ref()
    }

    /// FLC1's correction value for a request: the first stage of the
    /// cascade, before FLC2 weighs it against the station state.
    #[must_use]
    pub fn correction_value(&self, request: &AdmissionRequest) -> f64 {
        self.flc1.correction_value(
            request.speed_kmh,
            request.angle_deg,
            f64::from(request.bandwidth),
        )
    }

    /// The defuzzified A/R value FACS-P would produce for a request.
    #[must_use]
    pub fn decision_value(&self, request: &AdmissionRequest, station: &BaseStation) -> f64 {
        let cv = self.correction_value(request);
        let cs = self
            .config
            .priority
            .effective_counter_state_with_request_priority(
                station,
                request.is_handoff,
                self.config.request_priority,
            );
        let rq = f64::from(request.bandwidth);
        match &self.lut {
            Some(lut) => lut.decision_value(cv, rq, cs),
            None => self.flc2.decision_value(cv, rq, cs),
        }
    }
}

impl AdmissionController for FacsPController {
    fn name(&self) -> &'static str {
        if self.lut.is_some() {
            "facs-p-lut"
        } else {
            "facs-p"
        }
    }

    fn decide(&mut self, request: &AdmissionRequest, station: &BaseStation) -> AdmissionDecision {
        let score = self.decision_value(request, station);
        if score > PaperParams::ACCEPT_THRESHOLD {
            AdmissionDecision::accept(score)
        } else {
            AdmissionDecision::reject(score)
        }
    }
}

/// Refuse a LUT tabulated for another station capacity than `flc2`'s.
fn check_lut_capacity(lut: &Flc2Lut, flc2: &Flc2) -> Result<()> {
    if lut.capacity_bu() == flc2.capacity_bu() {
        Ok(())
    } else {
        Err(fuzzy::FuzzyError::InvalidLut {
            reason: format!(
                "tabulated for {} BU, but the controller's station holds {} BU",
                lut.capacity_bu(),
                flc2.capacity_bu()
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim::geometry::CellId;
    use cellsim::sim::{SimConfig, Simulator};
    use cellsim::traffic::{ServiceClass, TrafficConfig};

    fn request(
        id: u64,
        class: ServiceClass,
        speed: f64,
        angle: f64,
        handoff: bool,
    ) -> AdmissionRequest {
        AdmissionRequest {
            id,
            cell: CellId::origin(),
            time: 0.0,
            class,
            bandwidth: class.paper_bandwidth(),
            holding_time: 180.0,
            speed_kmh: speed,
            angle_deg: angle,
            distance_m: Some(400.0),
            is_handoff: handoff,
        }
    }

    fn fill_station(station: &mut BaseStation, target_bu: u32) {
        let mut id = 10_000;
        while station.occupied() + 5 <= target_bu {
            station
                .admit(id, ServiceClass::Voice, 5, 0.0, 600.0, false)
                .unwrap();
            id += 1;
        }
        while station.occupied() < target_bu {
            station
                .admit(id, ServiceClass::Text, 1, 0.0, 600.0, false)
                .unwrap();
            id += 1;
        }
    }

    #[test]
    fn controllers_build_with_paper_defaults() {
        let facs = FacsController::paper_default();
        let facsp = FacsPController::paper_default();
        assert_eq!(facs.config().capacity_bu, 40.0);
        assert_eq!(facsp.config().capacity_bu, 40.0);
    }

    #[test]
    fn empty_station_accepts_favourable_requests() {
        let mut facs = FacsController::paper_default();
        let mut facsp = FacsPController::paper_default();
        let station = BaseStation::paper_default();
        let req = request(1, ServiceClass::Voice, 80.0, 0.0, false);
        assert!(facs.decide(&req, &station).accept);
        assert!(facsp.decide(&req, &station).accept);
    }

    #[test]
    fn full_station_rejects_everything() {
        let mut facs = FacsController::paper_default();
        let mut facsp = FacsPController::paper_default();
        let mut station = BaseStation::paper_default();
        fill_station(&mut station, 40);
        assert_eq!(station.occupied(), 40);
        let req = request(1, ServiceClass::Text, 100.0, 0.0, false);
        assert!(!facs.decide(&req, &station).accept);
        assert!(!facsp.decide(&req, &station).accept);
    }

    #[test]
    fn facsp_rejects_new_calls_earlier_than_facs_under_load() {
        // At moderate occupancy the priority inflation makes FACS-P stricter
        // with new calls than plain FACS for the same request.
        let facs = FacsController::paper_default();
        let facsp = FacsPController::paper_default();
        let mut station = BaseStation::paper_default();
        fill_station(&mut station, 20); // all voice => RTC-heavy
        let req = request(1, ServiceClass::Voice, 60.0, 20.0, false);
        let facs_score = facs.decision_value(&req, &station);
        let facsp_score = facsp.decision_value(&req, &station);
        assert!(
            facsp_score < facs_score,
            "facs-p ({facsp_score}) should be stricter than facs ({facs_score})"
        );
    }

    #[test]
    fn facsp_favours_handoffs_of_ongoing_connections() {
        let mut facsp = FacsPController::paper_default();
        let mut station = BaseStation::paper_default();
        fill_station(&mut station, 30);
        let new_call = request(1, ServiceClass::Voice, 60.0, 10.0, false);
        let handoff = request(2, ServiceClass::Voice, 60.0, 10.0, true);
        let new_score = facsp.decision_value(&new_call, &station);
        let handoff_score = facsp.decision_value(&handoff, &station);
        assert!(
            handoff_score > new_score,
            "handoff ({handoff_score}) should score above new call ({new_score})"
        );
        // At this load the handoff is accepted while the new call is not.
        assert!(facsp.decide(&handoff, &station).accept);
        assert!(!facsp.decide(&new_call, &station).accept);
    }

    #[test]
    fn disabling_priority_removes_the_handoff_advantage() {
        let plain = FacsPController::new(FacsPConfig::paper_default().without_priority()).unwrap();
        let mut station = BaseStation::paper_default();
        fill_station(&mut station, 25);
        let new_call = request(1, ServiceClass::Voice, 60.0, 10.0, false);
        let handoff = request(2, ServiceClass::Voice, 60.0, 10.0, true);
        let d_new = plain.decision_value(&new_call, &station);
        let d_handoff = plain.decision_value(&handoff, &station);
        assert!((d_new - d_handoff).abs() < 1e-9);
    }

    #[test]
    fn decision_score_sign_matches_accept_flag() {
        let mut facsp = FacsPController::paper_default();
        let station = BaseStation::paper_default();
        for (speed, angle, class) in [
            (100.0, 0.0, ServiceClass::Text),
            (5.0, 170.0, ServiceClass::Video),
            (60.0, 45.0, ServiceClass::Voice),
        ] {
            let req = request(7, class, speed, angle, false);
            let d = facsp.decide(&req, &station);
            assert_eq!(d.accept, d.score > PaperParams::ACCEPT_THRESHOLD);
        }
    }

    #[test]
    fn fast_straight_users_are_preferred_over_slow_backward_users() {
        let facsp = FacsPController::paper_default();
        let mut station = BaseStation::paper_default();
        fill_station(&mut station, 18);
        let good = request(1, ServiceClass::Voice, 110.0, 0.0, false);
        let bad = request(2, ServiceClass::Voice, 5.0, 175.0, false);
        assert!(facsp.decision_value(&good, &station) > facsp.decision_value(&bad, &station));
    }

    #[test]
    fn high_request_priority_accepts_more_than_low() {
        let high = FacsPController::new(
            FacsPConfig::paper_default().with_request_priority(RequestPriority::High),
        )
        .unwrap();
        let low = FacsPController::new(
            FacsPConfig::paper_default().with_request_priority(RequestPriority::Low),
        )
        .unwrap();
        let mut station = BaseStation::paper_default();
        fill_station(&mut station, 16);
        let req = request(1, ServiceClass::Voice, 60.0, 30.0, false);
        assert!(high.decision_value(&req, &station) >= low.decision_value(&req, &station));
    }

    #[test]
    fn lut_backend_tracks_the_compiled_decisions() {
        let exact = FacsPController::paper_default();
        let lut = FacsPController::paper_default_lut();
        assert!(lut.lut().map(Flc2Lut::max_error).is_some());
        let bound = lut.lut().unwrap().max_error();
        let mut station = BaseStation::paper_default();
        fill_station(&mut station, 22);
        for (speed, angle, class, handoff) in [
            (100.0, 0.0, ServiceClass::Text, false),
            (10.0, 120.0, ServiceClass::Video, false),
            (60.0, 30.0, ServiceClass::Voice, true),
            (80.0, -45.0, ServiceClass::Voice, false),
        ] {
            let req = request(9, class, speed, angle, handoff);
            let d_exact = exact.decision_value(&req, &station);
            let d_lut = lut.decision_value(&req, &station);
            assert!(
                (d_exact - d_lut).abs() <= bound + 1e-12,
                "LUT decision {d_lut} drifted from {d_exact} (bound {bound})"
            );
        }
    }

    #[test]
    fn lut_backend_reports_distinct_names() {
        let mut p = FacsPController::paper_default();
        assert_eq!(p.name(), "facs-p");
        p = p.with_lut_backend(Flc2Lut::paper_shared()).unwrap();
        assert_eq!(p.name(), "facs-p-lut");
        let mut f = FacsController::paper_default();
        assert_eq!(f.name(), "facs");
        f = f.with_lut_backend(Flc2Lut::paper_shared()).unwrap();
        assert_eq!(f.name(), "facs-lut");
    }

    #[test]
    fn lut_backend_must_match_the_station_capacity() {
        // A coarse table without patches (a target no cell exceeds) keeps
        // this capacity-only test cheap.
        let lut = |capacity_bu| {
            let flc2 = crate::flc2::Flc2::with_capacity(capacity_bu).unwrap();
            Flc2Lut::tabulate_refined(&flc2, (17, 17), f64::MAX, 3).unwrap()
        };
        let large_p = || {
            FacsPController::new(FacsPConfig {
                capacity_bu: 80.0,
                ..FacsPConfig::default()
            })
            .unwrap()
        };
        assert!(matches!(
            large_p().with_lut_backend(lut(40.0)),
            Err(fuzzy::FuzzyError::InvalidLut { .. })
        ));
        let large = FacsController::new(FacsConfig { capacity_bu: 80.0 }).unwrap();
        assert!(large.with_lut_backend(lut(40.0)).is_err());
        // A LUT tabulated for 80 BU fits the 80-BU controller.
        assert!(large_p().with_lut_backend(lut(80.0)).is_ok());
    }

    #[test]
    fn decide_batch_matches_decide_on_a_snapshot() {
        let mut facsp = FacsPController::paper_default();
        let mut station = BaseStation::paper_default();
        fill_station(&mut station, 18);
        let requests: Vec<AdmissionRequest> = (0..16)
            .map(|i| {
                request(
                    i,
                    [ServiceClass::Text, ServiceClass::Voice, ServiceClass::Video]
                        [(i % 3) as usize],
                    7.5 * i as f64,
                    22.5 * i as f64 - 180.0,
                    i % 4 == 0,
                )
            })
            .collect();
        let mut batch = Vec::new();
        facsp.decide_batch(&requests, &station, &mut batch);
        assert_eq!(batch.len(), requests.len());
        for (r, d) in requests.iter().zip(&batch) {
            assert_eq!(*d, facsp.decide(r, &station));
        }
    }

    #[test]
    fn simulator_integration_both_controllers() {
        let mut facs = FacsController::paper_default();
        let mut sim = Simulator::new(SimConfig::paper_default().with_seed(21));
        let facs_report = sim.run_batch(&mut facs, 60);
        assert_eq!(facs_report.controller, "facs");
        assert!(facs_report.accepted > 0);
        assert!(facs_report.accepted <= facs_report.offered);

        let mut facsp = FacsPController::paper_default();
        let mut sim = Simulator::new(SimConfig::paper_default().with_seed(21));
        let facsp_report = sim.run_batch(&mut facsp, 60);
        assert_eq!(facsp_report.controller, "facs-p");
        assert!(facsp_report.accepted > 0);
    }

    #[test]
    fn facsp_protects_ongoing_connections_in_handoff_heavy_traffic() {
        // In a saturated multi-cell network FACS-P should admit handoffs of
        // on-going connections at a higher rate than brand-new calls: that
        // is exactly the priority mechanism of the paper.
        let mut cfg = SimConfig::paper_default().with_seed(33).with_grid_radius(1);
        cfg.cell_radius_m = 250.0;
        cfg.traffic = TrafficConfig {
            mean_interarrival_s: 1.5,
            mean_holding_s: 400.0,
            min_speed_kmh: 40.0,
            max_speed_kmh: 120.0,
            ..TrafficConfig::paper_default()
        };
        let mut facsp = FacsPController::paper_default();
        let mut sim = Simulator::new(cfg);
        let report = sim.run_poisson(&mut facsp, 600);
        let (ho_offered, ho_accepted, _) = report.metrics.handoffs();
        assert!(
            ho_offered > 20,
            "expected a handoff-heavy run, got {ho_offered}"
        );
        let handoff_acceptance = ho_accepted as f64 / ho_offered as f64;
        let new_offered = report.offered - ho_offered;
        let new_accepted = report.accepted - ho_accepted;
        let new_acceptance = new_accepted as f64 / new_offered as f64;
        assert!(
            handoff_acceptance > new_acceptance,
            "handoff acceptance {handoff_acceptance:.3} should exceed new-call acceptance {new_acceptance:.3}"
        );
    }
}
