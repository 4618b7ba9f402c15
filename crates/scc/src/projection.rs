//! Probabilistic demand projection.
//!
//! For one mobile, [`project_demand`] computes the probability that the
//! mobile is active *and located in each cell of its shadow cluster* during
//! each future time slot.  The model follows the structure of Levine et
//! al.: the probability of still being active decays with the assumed call
//! holding time, the probability of having left the home cell grows with
//! speed, and the probability mass that leaves the home cell is distributed
//! over the neighbouring cells according to how well their direction agrees
//! with the mobile's heading.

use crate::config::SccConfig;
use cellsim::geometry::{angle_difference, CellGrid, CellId};
use serde::{Deserialize, Serialize};

/// The projected probability of one mobile being in one cell during one
/// time slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellProbability {
    /// The cell the probability refers to.
    pub cell: CellId,
    /// Slot index (0 = the slot starting now).
    pub slot: usize,
    /// Probability of the mobile being active in `cell` during `slot`.
    pub probability: f64,
}

/// The heading-independent geometry of projections from one home cell:
/// its bordering neighbours in the grid, each with its bearing from the
/// home cell and whether it lies inside the shadow cluster.
///
/// It depends only on the configuration, the grid and the home cell, so a
/// controller builds it once per home cell and reuses it for every
/// projection from that cell ([`project_from`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HomeGeometry {
    home: CellId,
    /// `(neighbour, bearing from the home centre in degrees, in cluster)`,
    /// in [`CellGrid::bordering_neighbors`] order.
    neighbors: Vec<(CellId, f64, bool)>,
}

impl HomeGeometry {
    /// The geometry of projections from `home` on `grid`.
    #[must_use]
    pub(crate) fn new(config: &SccConfig, grid: &CellGrid, home: CellId) -> Self {
        let home_center = grid.center_of(&home);
        let neighbors = grid
            .bordering_neighbors(&home)
            .into_iter()
            .map(|n| {
                let bearing = home_center.bearing_to(&grid.center_of(&n));
                // Membership of `grid.cluster(&home, cluster_radius)`.
                let in_cluster = n.distance(&home) <= config.cluster_radius;
                (n, bearing, in_cluster)
            })
            .collect();
        Self { home, neighbors }
    }

    /// The home cell.
    #[must_use]
    pub(crate) fn home(&self) -> CellId {
        self.home
    }
}

/// Project one mobile's activity probabilities over its shadow cluster.
///
/// * `home` — the mobile's current cell.
/// * `speed_kmh` / `heading_angle_deg` — the mobile's speed and the angle
///   between its heading and the direction *toward the home base station*
///   (the same convention as FLC1's `An` input: 0° = heading at the BS,
///   ±180° = heading straight away from it).
/// * `grid` — the cell layout that bounds the cluster.
///
/// The returned probabilities satisfy: for every slot, the sum over cells
/// is at most 1 (it is below 1 once call-completion probability mass has
/// been removed).
#[must_use]
pub fn project_demand(
    config: &SccConfig,
    grid: &CellGrid,
    home: CellId,
    speed_kmh: f64,
    heading_angle_deg: f64,
) -> Vec<CellProbability> {
    let geometry = HomeGeometry::new(config, grid, home);
    project_from(config, &geometry, speed_kmh, heading_angle_deg)
}

/// [`project_demand`] from a precomputed [`HomeGeometry`].
#[must_use]
pub(crate) fn project_from(
    config: &SccConfig,
    geometry: &HomeGeometry,
    speed_kmh: f64,
    heading_angle_deg: f64,
) -> Vec<CellProbability> {
    let slots = config.slots.max(1);
    let mut out = Vec::with_capacity(slots * 7);
    let home = geometry.home;
    let neighbors = &geometry.neighbors;

    // Probability that the call is still active after t seconds, assuming
    // exponentially distributed holding times.
    let survival = |t: f64| {
        if config.assumed_mean_holding_s <= 0.0 {
            0.0
        } else {
            (-t / config.assumed_mean_holding_s).exp()
        }
    };
    // Expected time to cross a cell at this speed; the probability of
    // having left the home cell by time t follows an exponential ramp in
    // t / crossing_time.
    let speed_mps = (speed_kmh.max(0.0)) / 3.6;
    let crossing_time = if speed_mps <= 1e-9 {
        f64::INFINITY
    } else {
        config.cell_radius_m.max(1.0) / speed_mps
    };

    // Direction weights for the bordering neighbours: neighbours aligned
    // with the mobile's absolute heading get most of the leaving mass.
    // The mobile's absolute heading relative to the grid is reconstructed
    // from the angle-to-station convention by treating the direction
    // "toward the home BS" as the reference axis; a mobile heading straight
    // at its own BS (angle 0) is not about to leave, so the *leaving*
    // probability is additionally scaled by how much the heading points
    // away from the BS.
    let away_factor = (heading_angle_deg.abs() / 180.0).clamp(0.0, 1.0);
    // At most six bordering neighbours, so the weights live on the stack.
    let mut weights = [0.0f64; 6];
    for (w, &(_, bearing, _)) in weights.iter_mut().zip(neighbors) {
        // Neighbours whose direction differs least from the mobile's
        // outward heading receive the largest weight.  The outward
        // heading is the BS-relative angle mapped onto the grid with
        // the BS direction as 180° (i.e. heading away = 0° difference
        // from the outward radial).
        let outward = 180.0 - heading_angle_deg.abs();
        let diff = angle_difference(bearing, outward).abs();
        *w = (1.0 - diff / 180.0).max(0.05);
    }
    let neighbor_weights = &weights[..neighbors.len()];
    let weight_sum: f64 = neighbor_weights.iter().sum();

    for slot in 0..slots {
        let t_mid = (slot as f64 + 0.5) * config.slot_duration_s;
        let p_active = survival(t_mid);
        let p_left_home = if crossing_time.is_infinite() {
            0.0
        } else {
            (1.0 - (-t_mid / crossing_time).exp()) * away_factor
        };
        let p_home = p_active * (1.0 - p_left_home);
        out.push(CellProbability {
            cell: home,
            slot,
            probability: p_home,
        });
        if neighbors.is_empty() || weight_sum <= 0.0 {
            continue;
        }
        let p_out = p_active * p_left_home;
        for (&(n, _, in_cluster), w) in neighbors.iter().zip(neighbor_weights) {
            let p = p_out * w / weight_sum;
            if p > 1e-9 && in_cluster {
                out.push(CellProbability {
                    cell: n,
                    slot,
                    probability: p,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> CellGrid {
        CellGrid::new(2, 1000.0)
    }

    #[test]
    fn probabilities_are_valid_and_sum_to_at_most_one_per_slot() {
        let cfg = SccConfig::paper_default();
        let g = grid();
        let proj = project_demand(&cfg, &g, CellId::origin(), 60.0, 120.0);
        for slot in 0..cfg.slots {
            let sum: f64 = proj
                .iter()
                .filter(|p| p.slot == slot)
                .map(|p| p.probability)
                .sum();
            assert!(sum <= 1.0 + 1e-9, "slot {slot} sums to {sum}");
            assert!(sum >= 0.0);
        }
        for p in &proj {
            assert!(p.probability >= 0.0 && p.probability <= 1.0);
        }
    }

    #[test]
    fn home_probability_decays_over_slots() {
        let cfg = SccConfig::paper_default();
        let g = grid();
        let proj = project_demand(&cfg, &g, CellId::origin(), 60.0, 150.0);
        let home: Vec<f64> = (0..cfg.slots)
            .map(|s| {
                proj.iter()
                    .find(|p| p.slot == s && p.cell == CellId::origin())
                    .map(|p| p.probability)
                    .unwrap_or(0.0)
            })
            .collect();
        for w in home.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-12,
                "home probability should not grow: {home:?}"
            );
        }
        assert!(home[0] > 0.5);
    }

    #[test]
    fn stationary_user_never_projects_into_neighbors() {
        let cfg = SccConfig::paper_default();
        let g = grid();
        let proj = project_demand(&cfg, &g, CellId::origin(), 0.0, 150.0);
        assert!(proj.iter().all(|p| p.cell == CellId::origin()));
    }

    #[test]
    fn user_heading_toward_bs_stays_in_home_cell() {
        let cfg = SccConfig::paper_default();
        let g = grid();
        // angle 0 = straight at the BS -> away_factor 0 -> no leaving mass.
        let proj = project_demand(&cfg, &g, CellId::origin(), 120.0, 0.0);
        assert!(proj.iter().all(|p| p.cell == CellId::origin()));
    }

    #[test]
    fn fast_user_heading_away_projects_more_into_neighbors_than_slow() {
        let cfg = SccConfig::paper_default();
        let g = grid();
        let neighbor_mass = |speed: f64| -> f64 {
            project_demand(&cfg, &g, CellId::origin(), speed, 180.0)
                .iter()
                .filter(|p| p.cell != CellId::origin())
                .map(|p| p.probability)
                .sum()
        };
        assert!(neighbor_mass(120.0) > neighbor_mass(10.0));
    }

    #[test]
    fn single_cell_grid_keeps_all_mass_at_home() {
        let cfg = SccConfig::paper_default();
        let g = CellGrid::single_cell(1000.0);
        let proj = project_demand(&cfg, &g, CellId::origin(), 120.0, 180.0);
        assert!(!proj.is_empty());
        assert!(proj.iter().all(|p| p.cell == CellId::origin()));
    }

    #[test]
    fn zero_holding_time_means_no_projection_mass() {
        let mut cfg = SccConfig::paper_default();
        cfg.assumed_mean_holding_s = 0.0;
        let proj = project_demand(&cfg, &grid(), CellId::origin(), 50.0, 90.0);
        assert!(proj.iter().all(|p| p.probability == 0.0));
    }

    #[test]
    fn projection_covers_every_requested_slot() {
        let cfg = SccConfig::paper_default().with_slots(4);
        let proj = project_demand(&cfg, &grid(), CellId::origin(), 30.0, 45.0);
        for s in 0..4 {
            assert!(proj.iter().any(|p| p.slot == s));
        }
    }
}
