//! Per-cell projected-load accounting.
//!
//! The [`LoadEstimator`] is each base station's view of the probabilistic
//! demand projected onto it by every active shadow cluster.  Adding and
//! removing clusters keeps the per-`(cell, slot)` totals up to date so the
//! admission test is O(cluster size) rather than O(active connections).
//!
//! The totals live in a dense table over a square of axial coordinates
//! around the origin (the controller's virtual grid), so the hot path never
//! hashes; keys outside it fall back to an ordered map.  Each key's total
//! is the same sequence of additions and subtractions wherever it lives.

use crate::cluster::ShadowCluster;
use cellsim::geometry::CellId;
use std::collections::BTreeMap;

/// Totals below this are treated as fully released and reset to zero.
const RELEASED: f64 = 1e-9;

/// Aggregated projected load per cell and time slot.
#[derive(Debug, Clone, Default)]
pub struct LoadEstimator {
    /// The dense table covers cells with `|q|, |r| <= radius`.
    radius: i64,
    /// Slots per cell in the dense table.
    slots: usize,
    /// `(cell, slot)` → projected demand in (fractional) bandwidth units,
    /// for keys inside the table; `0.0` means no demand.
    table: Vec<f64>,
    /// The same for keys outside the table.
    overflow: BTreeMap<(CellId, usize), f64>,
    /// Registered clusters by connection id.
    clusters: BTreeMap<u64, ShadowCluster>,
}

impl LoadEstimator {
    /// An empty estimator without a dense table: every key lives in the
    /// fallback map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty estimator whose dense table covers `slots` slots of every
    /// cell with axial coordinates `|q|, |r| <= radius_cells` (a superset
    /// of the hexagonal grid of that radius).
    #[must_use]
    pub fn with_extent(radius_cells: u32, slots: usize) -> Self {
        let side = 2 * radius_cells as usize + 1;
        Self {
            radius: i64::from(radius_cells),
            slots,
            table: vec![0.0; side * side * slots],
            ..Self::default()
        }
    }

    /// Number of registered clusters.
    #[must_use]
    pub fn active_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// `true` if a cluster is registered for `connection_id`.
    #[must_use]
    pub fn contains(&self, connection_id: u64) -> bool {
        self.clusters.contains_key(&connection_id)
    }

    /// The projected load on `cell` during `slot` (BU, fractional).
    #[must_use]
    pub fn load_on(&self, cell: CellId, slot: usize) -> f64 {
        match self.table_index(cell, slot) {
            Some(i) => self.table[i],
            None => self.overflow.get(&(cell, slot)).copied().unwrap_or(0.0),
        }
    }

    /// Register a cluster, adding its demand to the per-cell totals.
    /// Registering the same connection twice replaces the previous cluster.
    pub fn register(&mut self, cluster: ShadowCluster) {
        if self.clusters.contains_key(&cluster.connection_id) {
            self.remove(cluster.connection_id);
        }
        for p in &cluster.probabilities {
            let demand = p.probability * f64::from(cluster.bandwidth);
            match self.table_index(p.cell, p.slot) {
                Some(i) => self.table[i] += demand,
                None => *self.overflow.entry((p.cell, p.slot)).or_insert(0.0) += demand,
            }
        }
        self.clusters.insert(cluster.connection_id, cluster);
    }

    /// Remove the cluster of `connection_id`, subtracting its demand.
    /// Unknown ids are ignored.
    ///
    /// A total that drops below `1e-9` (or is NaN) is reset to zero.
    /// Only the removed cluster's keys are visited.
    pub fn remove(&mut self, connection_id: u64) {
        let Some(cluster) = self.clusters.remove(&connection_id) else {
            return;
        };
        for p in &cluster.probabilities {
            let demand = p.probability * f64::from(cluster.bandwidth);
            match self.table_index(p.cell, p.slot) {
                Some(i) => {
                    let v = &mut self.table[i];
                    *v -= demand;
                    if *v < RELEASED || v.is_nan() {
                        *v = 0.0;
                    }
                }
                None => {
                    let key = (p.cell, p.slot);
                    if let Some(v) = self.overflow.get_mut(&key) {
                        *v -= demand;
                        if *v < RELEASED || v.is_nan() {
                            self.overflow.remove(&key);
                        }
                    }
                }
            }
        }
    }

    /// Would admitting `candidate` keep the projected load within `budget`
    /// bandwidth units in every cell/slot the candidate touches?
    #[must_use]
    pub fn fits_within(&self, candidate: &ShadowCluster, budget: f64) -> bool {
        for p in &candidate.probabilities {
            let projected =
                self.load_on(p.cell, p.slot) + p.probability * f64::from(candidate.bandwidth);
            if projected > budget + 1e-9 {
                return false;
            }
        }
        true
    }

    /// The maximum projected load over all slots for a given cell.
    #[must_use]
    pub fn peak_load(&self, cell: CellId) -> f64 {
        let dense = match self.table_index(cell, 0) {
            Some(i) => self.table[i..i + self.slots]
                .iter()
                .copied()
                .fold(0.0, f64::max),
            None => 0.0,
        };
        self.overflow
            .range((cell, 0)..=(cell, usize::MAX))
            .map(|(_, v)| *v)
            .fold(dense, f64::max)
    }

    /// The dense-table position of `(cell, slot)`, if the table covers it.
    fn table_index(&self, cell: CellId, slot: usize) -> Option<usize> {
        let side = 2 * self.radius + 1;
        let q = i64::from(cell.q) + self.radius;
        let r = i64::from(cell.r) + self.radius;
        if slot < self.slots && (0..side).contains(&q) && (0..side).contains(&r) {
            Some((q * side + r) as usize * self.slots + slot)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SccConfig;
    use cellsim::geometry::CellGrid;

    fn cluster(id: u64, bw: u32, speed: f64, angle: f64) -> ShadowCluster {
        let cfg = SccConfig::paper_default();
        let grid = CellGrid::new(2, 1000.0);
        ShadowCluster::build(&cfg, &grid, id, CellId::origin(), bw, speed, angle)
    }

    #[test]
    fn register_accumulates_and_remove_restores() {
        let mut est = LoadEstimator::new();
        assert_eq!(est.load_on(CellId::origin(), 0), 0.0);
        let c1 = cluster(1, 10, 50.0, 90.0);
        let c2 = cluster(2, 5, 20.0, 30.0);
        let d1 = c1.demand_on(CellId::origin(), 0);
        let d2 = c2.demand_on(CellId::origin(), 0);
        est.register(c1);
        est.register(c2);
        assert_eq!(est.active_clusters(), 2);
        assert!((est.load_on(CellId::origin(), 0) - (d1 + d2)).abs() < 1e-9);
        est.remove(1);
        assert!((est.load_on(CellId::origin(), 0) - d2).abs() < 1e-9);
        est.remove(2);
        assert_eq!(est.active_clusters(), 0);
        assert_eq!(est.load_on(CellId::origin(), 0), 0.0);
    }

    #[test]
    fn removing_unknown_id_is_a_noop() {
        let mut est = LoadEstimator::new();
        est.register(cluster(1, 10, 50.0, 90.0));
        est.remove(999);
        assert_eq!(est.active_clusters(), 1);
    }

    #[test]
    fn double_register_replaces() {
        let mut est = LoadEstimator::new();
        est.register(cluster(1, 10, 50.0, 90.0));
        let first = est.load_on(CellId::origin(), 0);
        est.register(cluster(1, 10, 50.0, 90.0));
        assert_eq!(est.active_clusters(), 1);
        assert!((est.load_on(CellId::origin(), 0) - first).abs() < 1e-9);
        assert!(est.contains(1));
    }

    #[test]
    fn fits_within_budget_boundary() {
        let mut est = LoadEstimator::new();
        // Fill with three 10-BU slow users (nearly all mass stays at home).
        for id in 0..3 {
            est.register(cluster(id, 10, 0.0, 90.0));
        }
        let candidate = cluster(99, 10, 0.0, 90.0);
        // Peak projected load is just under 30; a 10-BU candidate fits a
        // 40-BU budget but not a 32-BU one.
        assert!(est.fits_within(&candidate, 40.0));
        assert!(!est.fits_within(&candidate, 32.0));
    }

    #[test]
    fn peak_load_is_max_over_slots() {
        let mut est = LoadEstimator::new();
        est.register(cluster(1, 10, 0.0, 90.0));
        let peak = est.peak_load(CellId::origin());
        assert!(peak > 0.0);
        assert!(peak <= 10.0 + 1e-9);
        assert_eq!(est.peak_load(CellId::new(5, 5)), 0.0);
    }
}
