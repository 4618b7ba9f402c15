//! The SCC admission controller.
//!
//! [`SccAdmission`] implements [`cellsim::AdmissionController`]: every
//! request is turned into a tentative [`ShadowCluster`]; the request is
//! admitted only if the tentative cluster's projected demand fits within
//! every touched cell's capacity budget on top of the demand already
//! projected by the active clusters.  New calls are additionally held to a
//! reduced budget (the reservation for predicted handoff demand), which is
//! what makes SCC deny new requests even when the home cell still has free
//! bandwidth — the behaviour the FACS paper contrasts itself against.

use crate::cluster::ShadowCluster;
use crate::config::SccConfig;
use crate::estimator::LoadEstimator;
use crate::projection::HomeGeometry;
use cellsim::geometry::{CellGrid, CellId};
use cellsim::shard::BoxedController;
use cellsim::sim::{AdmissionController, AdmissionDecision, AdmissionRequest};
use cellsim::station::BaseStation;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Shadow-Cluster-Concept admission controller.
#[derive(Debug, Clone)]
pub struct SccAdmission {
    config: SccConfig,
    /// The virtual grid, shared by every controller of the same
    /// `cluster_radius` and `cell_radius_m` (see [`shared_grid`]).
    grid: Arc<CellGrid>,
    estimator: LoadEstimator,
    /// Projection geometry per home cell of the virtual grid (by dense
    /// index), built on first use.
    geometry: Vec<Option<HomeGeometry>>,
    /// The same for home cells outside the virtual grid.
    outside_geometry: BTreeMap<CellId, HomeGeometry>,
    /// The tentative cluster of the latest `decide`, with the bits of the
    /// request's speed and angle: `on_admitted` for the same request
    /// registers it instead of projecting again.
    tentative: Option<(ShadowCluster, u64, u64)>,
}

impl SccAdmission {
    /// Build a controller; the internal (virtual) grid spans the configured
    /// cluster radius so neighbour-cell reservations are tracked even when
    /// the simulator only materialises the home cell.
    #[must_use]
    pub fn new(config: SccConfig) -> Self {
        let grid = shared_grid(config.cluster_radius.max(1), config.cell_radius_m);
        Self {
            estimator: LoadEstimator::with_extent(grid.radius_cells(), config.slots.max(1)),
            geometry: vec![None; grid.len()],
            outside_geometry: BTreeMap::new(),
            tentative: None,
            config,
            grid,
        }
    }

    /// The paper-default controller behind the [`AdmissionController`]
    /// trait object — the factory shape scenario specs build from.
    #[must_use]
    pub fn boxed_paper_default() -> BoxedController {
        Box::new(Self::new(SccConfig::paper_default()))
    }

    /// The controller's configuration.
    #[must_use]
    pub fn config(&self) -> &SccConfig {
        &self.config
    }

    /// Number of shadow clusters currently registered.
    #[must_use]
    pub fn active_clusters(&self) -> usize {
        self.estimator.active_clusters()
    }

    /// Read-only access to the load estimator (used by tests to check
    /// projected load).
    #[must_use]
    pub fn estimator(&self) -> &LoadEstimator {
        &self.estimator
    }

    /// The shadow cluster `request` would get if admitted.
    fn tentative_cluster(&mut self, request: &AdmissionRequest) -> ShadowCluster {
        let (config, grid) = (&self.config, &self.grid);
        let home = request.cell;
        let build = || HomeGeometry::new(config, grid, home);
        let geometry = match grid.index_of(&home) {
            Some(idx) => self.geometry[idx.index()].get_or_insert_with(build),
            None => self.outside_geometry.entry(home).or_insert_with(build),
        };
        ShadowCluster::from_geometry(
            config,
            geometry,
            request.id,
            request.bandwidth,
            request.speed_kmh,
            request.angle_deg,
        )
    }

    /// The cluster `decide` projected for this very request, if it was the
    /// latest one decided.
    fn take_tentative(&mut self, request: &AdmissionRequest) -> Option<ShadowCluster> {
        let (cluster, speed_bits, angle_bits) = self.tentative.take()?;
        let same = cluster.connection_id == request.id
            && cluster.home == request.cell
            && cluster.bandwidth == request.bandwidth
            && speed_bits == request.speed_kmh.to_bits()
            && angle_bits == request.angle_deg.to_bits();
        same.then_some(cluster)
    }
}

/// The grid of `radius_cells` and `cell_radius_m`, built once per process
/// and shared: a sweep builds a controller per cell run, and the grid
/// depends only on these two numbers.  The cache holds one grid per
/// distinct pair a process asks for.
fn shared_grid(radius_cells: u32, cell_radius_m: f64) -> Arc<CellGrid> {
    type Grids = Vec<((u32, u64), Arc<CellGrid>)>;
    static GRIDS: Mutex<Grids> = Mutex::new(Vec::new());
    let key = (radius_cells, cell_radius_m.to_bits());
    let mut grids = GRIDS.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, grid)) = grids.iter().find(|(k, _)| *k == key) {
        return Arc::clone(grid);
    }
    let grid = Arc::new(CellGrid::new(radius_cells, cell_radius_m));
    grids.push((key, Arc::clone(&grid)));
    grid
}

impl Default for SccAdmission {
    fn default() -> Self {
        Self::new(SccConfig::paper_default())
    }
}

impl AdmissionController for SccAdmission {
    fn name(&self) -> &'static str {
        "scc"
    }

    fn decide(&mut self, request: &AdmissionRequest, station: &BaseStation) -> AdmissionDecision {
        let tentative = self.tentative_cluster(request);
        // Handoffs of on-going calls may consume the full capacity; new
        // calls only the reserved-down budget.
        let capacity = f64::from(station.capacity().max(self.config.cell_capacity));
        let budget = if request.is_handoff {
            capacity
        } else {
            capacity * (1.0 - self.config.new_call_reservation)
        };
        // The physical occupancy of the home station also bounds admission:
        // projected load is probabilistic and can momentarily sit below the
        // deterministic occupancy of already-admitted calls.
        let physical_after = f64::from(station.occupied() + request.bandwidth);
        let fits_projection = self.estimator.fits_within(&tentative, budget);
        let fits_physical = physical_after <= budget.max(f64::from(request.bandwidth));
        let margin = budget - physical_after.max(self.estimator.load_on(request.cell, 0));
        self.tentative = Some((
            tentative,
            request.speed_kmh.to_bits(),
            request.angle_deg.to_bits(),
        ));
        if fits_projection && fits_physical {
            AdmissionDecision::accept(margin)
        } else {
            AdmissionDecision::reject(margin.min(-0.0))
        }
    }

    fn on_admitted(&mut self, request: &AdmissionRequest, _station: &BaseStation) {
        let cluster = match self.take_tentative(request) {
            Some(cluster) => cluster,
            None => self.tentative_cluster(request),
        };
        self.estimator.register(cluster);
    }

    fn on_released(&mut self, connection_id: u64, _station: &BaseStation) {
        self.estimator.remove(connection_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim::geometry::CellId;
    use cellsim::sim::{SimConfig, Simulator};
    use cellsim::traffic::ServiceClass;

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
            distance_m: Some(300.0),
            is_handoff: handoff,
        }
    }

    #[test]
    fn controllers_of_one_configuration_share_one_grid() {
        let a = SccAdmission::default();
        let b = SccAdmission::new(SccConfig::paper_default());
        assert!(Arc::ptr_eq(&a.grid, &b.grid), "one grid per configuration");
        assert!(Arc::ptr_eq(&a.grid, &a.clone().grid));
        let wider = SccAdmission::new(SccConfig {
            cluster_radius: 3,
            ..SccConfig::paper_default()
        });
        let larger = SccAdmission::new(SccConfig {
            cell_radius_m: 1500.0,
            ..SccConfig::paper_default()
        });
        for other in [&wider, &larger] {
            assert!(!Arc::ptr_eq(&a.grid, &other.grid));
        }
        assert_eq!(wider.grid.radius_cells(), 3);
        assert_eq!(*a.grid, CellGrid::new(2, 1000.0));
    }

    #[test]
    fn empty_station_accepts_new_calls() {
        let mut scc = SccAdmission::default();
        let station = BaseStation::paper_default();
        let d = scc.decide(
            &request(1, ServiceClass::Video, 50.0, 30.0, false),
            &station,
        );
        assert!(d.accept);
        assert!(d.score > 0.0);
    }

    #[test]
    fn new_calls_are_limited_by_the_reservation_budget() {
        let mut scc = SccAdmission::new(SccConfig::paper_default().with_reservation(0.2));
        let mut station = BaseStation::paper_default();
        // Fill the station up to 30 BU of slow users and register them.
        let mut id = 0u64;
        while station.occupied() < 30 {
            id += 1;
            let req = request(id, ServiceClass::Video, 0.0, 90.0, false);
            station
                .admit(id, req.class, req.bandwidth, 0.0, 600.0, false)
                .unwrap();
            scc.on_admitted(&req, &station);
        }
        // Occupancy 30/40; the new-call budget is 32 BU so a 10-BU video
        // new call must be rejected while a 5-BU handoff is still accepted.
        let new_video = scc.decide(
            &request(100, ServiceClass::Video, 0.0, 90.0, false),
            &station,
        );
        assert!(!new_video.accept);
        let handoff_voice = scc.decide(
            &request(101, ServiceClass::Voice, 0.0, 90.0, true),
            &station,
        );
        assert!(handoff_voice.accept);
    }

    #[test]
    fn release_frees_projected_demand() {
        let mut scc = SccAdmission::default();
        let mut station = BaseStation::paper_default();
        let req = request(1, ServiceClass::Video, 0.0, 90.0, false);
        station
            .admit(1, req.class, req.bandwidth, 0.0, 60.0, false)
            .unwrap();
        scc.on_admitted(&req, &station);
        assert_eq!(scc.active_clusters(), 1);
        station.release(1).unwrap();
        scc.on_released(1, &station);
        assert_eq!(scc.active_clusters(), 0);
        assert_eq!(scc.estimator().load_on(CellId::origin(), 0), 0.0);
    }

    #[test]
    fn handoff_budget_is_full_capacity() {
        let cfg = SccConfig::paper_default().with_reservation(0.5);
        let mut scc = SccAdmission::new(cfg);
        let mut station = BaseStation::paper_default();
        // Occupy 20 BU (the new-call budget exactly).
        for id in 0..4u64 {
            let req = request(id, ServiceClass::Voice, 0.0, 90.0, false);
            station
                .admit(id, req.class, req.bandwidth, 0.0, 600.0, false)
                .unwrap();
            scc.on_admitted(&req, &station);
        }
        assert_eq!(station.occupied(), 20);
        let new_call = scc.decide(&request(50, ServiceClass::Text, 0.0, 0.0, false), &station);
        assert!(!new_call.accept, "new call should hit the 20-BU budget");
        let handoff = scc.decide(&request(51, ServiceClass::Text, 0.0, 0.0, true), &station);
        assert!(handoff.accept, "handoff may use the reserved headroom");
    }

    #[test]
    fn integrates_with_the_simulator() {
        let mut controller = SccAdmission::default();
        let mut sim = Simulator::new(SimConfig::paper_default().with_seed(77));
        let report = sim.run_batch(&mut controller, 80);
        assert_eq!(report.offered, 80);
        assert!(report.accepted > 0);
        assert!(report.accepted < 80);
        assert_eq!(report.controller, "scc");
        // The reservation keeps the physical occupancy at or below ~32 BU
        // (one in-flight request of slack).
        let station = sim.station(&CellId::origin()).unwrap();
        assert!(station.occupied() <= 32 + 10);
    }

    #[test]
    fn scc_admits_less_bandwidth_than_always_accept() {
        // SCC may admit *more calls* than AlwaysAccept (rejecting a large
        // video early leaves room for several small texts later), but its
        // reservation means it always commits less total bandwidth.
        let n = 80;
        let mut scc = SccAdmission::default();
        let mut sim_scc = Simulator::new(SimConfig::paper_default().with_seed(5));
        let scc_report = sim_scc.run_batch(&mut scc, n);

        let mut always = cellsim::sim::AlwaysAccept;
        let mut sim_always = Simulator::new(SimConfig::paper_default().with_seed(5));
        let always_report = sim_always.run_batch(&mut always, n);

        assert!(
            scc_report.metrics.bandwidth_admitted() <= always_report.metrics.bandwidth_admitted(),
            "scc {} > always {}",
            scc_report.metrics.bandwidth_admitted(),
            always_report.metrics.bandwidth_admitted()
        );
    }
}
