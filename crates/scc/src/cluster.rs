//! Shadow clusters.
//!
//! A [`ShadowCluster`] is the per-connection record the SCC controller
//! keeps: which cells the connection influences, with what probability per
//! future slot, and how much bandwidth each unit of probability represents.

use crate::config::SccConfig;
use crate::projection::{project_demand, project_from, CellProbability, HomeGeometry};
use cellsim::geometry::{CellGrid, CellId};
use cellsim::Bandwidth;
use serde::{Deserialize, Serialize};

/// The probabilistic influence region of one admitted (or tentative)
/// connection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShadowCluster {
    /// The connection this cluster belongs to.
    pub connection_id: u64,
    /// The connection's home cell at the time the cluster was built.
    pub home: CellId,
    /// Reserved bandwidth of the connection (BU).
    pub bandwidth: Bandwidth,
    /// Per-cell, per-slot activity probabilities.
    pub probabilities: Vec<CellProbability>,
}

impl ShadowCluster {
    /// Build the shadow cluster of a connection from its kinematic state.
    ///
    /// `angle_deg` uses the FLC1 convention (0° = heading straight at the
    /// home base station).
    #[must_use]
    pub fn build(
        config: &SccConfig,
        grid: &CellGrid,
        connection_id: u64,
        home: CellId,
        bandwidth: Bandwidth,
        speed_kmh: f64,
        angle_deg: f64,
    ) -> Self {
        let probabilities = project_demand(config, grid, home, speed_kmh, angle_deg);
        Self {
            connection_id,
            home,
            bandwidth,
            probabilities,
        }
    }

    /// [`ShadowCluster::build`] from the precomputed geometry of the home
    /// cell: the same cluster, without recomputing the neighbourhood.
    #[must_use]
    pub(crate) fn from_geometry(
        config: &SccConfig,
        geometry: &HomeGeometry,
        connection_id: u64,
        bandwidth: Bandwidth,
        speed_kmh: f64,
        angle_deg: f64,
    ) -> Self {
        Self {
            connection_id,
            home: geometry.home(),
            bandwidth,
            probabilities: project_from(config, geometry, speed_kmh, angle_deg),
        }
    }

    /// The projected bandwidth demand (BU, fractional) this connection puts
    /// on `cell` during `slot`.
    #[must_use]
    pub fn demand_on(&self, cell: CellId, slot: usize) -> f64 {
        self.probabilities
            .iter()
            .filter(|p| p.cell == cell && p.slot == slot)
            .map(|p| p.probability * f64::from(self.bandwidth))
            .sum()
    }

    /// Every cell this cluster projects any demand onto.
    #[must_use]
    pub fn cells(&self) -> Vec<CellId> {
        let mut cells: Vec<CellId> = self.probabilities.iter().map(|p| p.cell).collect();
        cells.sort();
        cells.dedup();
        cells
    }

    /// Total projected demand summed over cells for a given slot (BU).
    #[must_use]
    pub fn total_demand_in_slot(&self, slot: usize) -> f64 {
        self.probabilities
            .iter()
            .filter(|p| p.slot == slot)
            .map(|p| p.probability * f64::from(self.bandwidth))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(speed: f64, angle: f64) -> ShadowCluster {
        let cfg = SccConfig::paper_default();
        let grid = CellGrid::new(2, 1000.0);
        ShadowCluster::build(&cfg, &grid, 42, CellId::origin(), 10, speed, angle)
    }

    #[test]
    fn build_records_identity() {
        let c = cluster(60.0, 120.0);
        assert_eq!(c.connection_id, 42);
        assert_eq!(c.home, CellId::origin());
        assert_eq!(c.bandwidth, 10);
        assert!(!c.probabilities.is_empty());
    }

    #[test]
    fn demand_scales_with_bandwidth() {
        let cfg = SccConfig::paper_default();
        let grid = CellGrid::new(2, 1000.0);
        let small = ShadowCluster::build(&cfg, &grid, 1, CellId::origin(), 1, 60.0, 90.0);
        let large = ShadowCluster::build(&cfg, &grid, 2, CellId::origin(), 10, 60.0, 90.0);
        let ds = small.demand_on(CellId::origin(), 0);
        let dl = large.demand_on(CellId::origin(), 0);
        assert!(dl > ds * 9.0 && dl < ds * 11.0);
    }

    #[test]
    fn total_demand_never_exceeds_bandwidth() {
        let c = cluster(120.0, 180.0);
        for slot in 0..SccConfig::paper_default().slots {
            assert!(c.total_demand_in_slot(slot) <= f64::from(c.bandwidth) + 1e-9);
        }
    }

    #[test]
    fn cells_always_include_home() {
        let c = cluster(100.0, 170.0);
        assert!(c.cells().contains(&CellId::origin()));
        // A mobile heading away at speed spreads into at least one neighbour.
        assert!(c.cells().len() > 1);
    }

    #[test]
    fn stationary_cluster_is_home_only() {
        let c = cluster(0.0, 170.0);
        assert_eq!(c.cells(), vec![CellId::origin()]);
        assert_eq!(c.demand_on(CellId::new(1, 0), 0), 0.0);
    }
}
