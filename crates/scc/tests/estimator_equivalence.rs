//! The dense, hash-free `LoadEstimator` and the memoising `SccAdmission`
//! against the implementations they replaced, kept here as references: a
//! `HashMap` estimator that re-scans the whole map on every removal, and a
//! controller that projects every shadow cluster from scratch.  Random
//! sequences of registrations, removals and re-registrations — with home
//! cells inside and outside the controller's virtual grid — must give the
//! same loads, peaks and admission tests bit for bit.

use cellsim::geometry::{angle_difference, CellGrid, CellId};
use cellsim::sim::{AdmissionController, AdmissionDecision, AdmissionRequest};
use cellsim::station::BaseStation;
use cellsim::traffic::ServiceClass;
use proptest::prelude::*;
use scc::{CellProbability, LoadEstimator, SccAdmission, SccConfig, ShadowCluster};
use std::collections::HashMap;

/// The previous `LoadEstimator`, verbatim in behaviour.
#[derive(Debug, Default)]
struct HashMapEstimator {
    load: HashMap<(CellId, usize), f64>,
    clusters: HashMap<u64, ShadowCluster>,
}

impl HashMapEstimator {
    fn load_on(&self, cell: CellId, slot: usize) -> f64 {
        self.load.get(&(cell, slot)).copied().unwrap_or(0.0)
    }

    fn register(&mut self, cluster: ShadowCluster) {
        if self.clusters.contains_key(&cluster.connection_id) {
            self.remove(cluster.connection_id);
        }
        for p in &cluster.probabilities {
            *self.load.entry((p.cell, p.slot)).or_insert(0.0) +=
                p.probability * f64::from(cluster.bandwidth);
        }
        self.clusters.insert(cluster.connection_id, cluster);
    }

    fn remove(&mut self, connection_id: u64) {
        let Some(cluster) = self.clusters.remove(&connection_id) else {
            return;
        };
        for p in &cluster.probabilities {
            if let Some(v) = self.load.get_mut(&(p.cell, p.slot)) {
                *v -= p.probability * f64::from(cluster.bandwidth);
                if *v < 1e-9 {
                    *v = 0.0;
                }
            }
        }
        self.load.retain(|_, v| *v > 0.0);
    }

    fn fits_within(&self, candidate: &ShadowCluster, budget: f64) -> bool {
        candidate.probabilities.iter().all(|p| {
            self.load_on(p.cell, p.slot) + p.probability * f64::from(candidate.bandwidth)
                <= budget + 1e-9
        })
    }

    fn peak_load(&self, cell: CellId) -> f64 {
        self.load
            .iter()
            .filter(|((c, _), _)| *c == cell)
            .map(|(_, v)| *v)
            .fold(0.0, f64::max)
    }
}

/// Every key a test can touch: a square of cells well beyond the radius-2
/// virtual grid, and more slots than any cluster projects.
fn probe_keys() -> impl Iterator<Item = (CellId, usize)> {
    (-6..=6).flat_map(|q| (-6..=6).flat_map(move |r| (0..10).map(move |s| (CellId::new(q, r), s))))
}

fn assert_same_loads(dense: &LoadEstimator, reference: &HashMapEstimator, context: &str) {
    assert_eq!(
        dense.active_clusters(),
        reference.clusters.len(),
        "{context}"
    );
    for (cell, slot) in probe_keys() {
        assert_eq!(
            dense.load_on(cell, slot).to_bits(),
            reference.load_on(cell, slot).to_bits(),
            "load on {cell} slot {slot}, {context}"
        );
        if slot == 0 {
            assert_eq!(
                dense.peak_load(cell).to_bits(),
                reference.peak_load(cell).to_bits(),
                "peak load on {cell}, {context}"
            );
        }
    }
}

/// One step of a random estimator workload.
#[derive(Debug, Clone)]
enum Op {
    /// Register (or re-register) connection `id` homed at `(q, r)`.
    Register {
        id: u64,
        q: i32,
        r: i32,
        bandwidth: u32,
        speed: f64,
        angle: f64,
        slots: usize,
    },
    /// Remove connection `id` (possibly unknown).
    Remove { id: u64 },
}

fn op() -> impl Strategy<Value = Op> {
    let register = (
        (0u64..24, -4i32..=4, -4i32..=4),
        prop_oneof![Just(1u32), Just(5u32), Just(10u32)],
        0.0f64..130.0,
        -200.0f64..200.0,
        prop_oneof![3 => Just(6usize), 1 => Just(9usize)],
    )
        .prop_map(
            |((id, q, r), bandwidth, speed, angle, slots)| Op::Register {
                id,
                q,
                r,
                bandwidth,
                speed,
                angle,
                slots,
            },
        );
    prop_oneof![
        3 => register,
        2 => (0u64..24).prop_map(|id| Op::Remove { id }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dense_estimator_matches_the_hashmap_estimator(ops in prop::collection::vec(op(), 1..80)) {
        let config = SccConfig::paper_default();
        let grid = CellGrid::new(config.cluster_radius, config.cell_radius_m);
        // The controller's table, and one without a table (all fallback).
        let mut dense = LoadEstimator::with_extent(grid.radius_cells(), config.slots);
        let mut sparse = LoadEstimator::new();
        let mut reference = HashMapEstimator::default();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Register { id, q, r, bandwidth, speed, angle, slots } => {
                    let cfg = config.clone().with_slots(slots);
                    let cluster =
                        ShadowCluster::build(&cfg, &grid, id, CellId::new(q, r), bandwidth, speed, angle);
                    // Admission tests against the current state first.
                    for budget in [5.0, 20.0, 28.0, 40.0] {
                        let expected = reference.fits_within(&cluster, budget);
                        prop_assert_eq!(dense.fits_within(&cluster, budget), expected);
                        prop_assert_eq!(sparse.fits_within(&cluster, budget), expected);
                    }
                    dense.register(cluster.clone());
                    sparse.register(cluster.clone());
                    reference.register(cluster);
                }
                Op::Remove { id } => {
                    dense.remove(id);
                    sparse.remove(id);
                    reference.remove(id);
                }
            }
            let context = format!("after step {step} ({op:?})");
            assert_same_loads(&dense, &reference, &context);
            assert_same_loads(&sparse, &reference, &context);
        }
    }
}

/// The previous projection, which rebuilt the cluster footprint and the
/// neighbour bearings on every call.
fn projected_from_scratch(
    config: &SccConfig,
    grid: &CellGrid,
    request: &AdmissionRequest,
) -> ShadowCluster {
    let home = request.cell;
    let slots = config.slots.max(1);
    let mut out = Vec::with_capacity(slots * 7);
    let cluster = grid.cluster(&home, config.cluster_radius);
    let neighbors = grid.bordering_neighbors(&home);
    let survival = |t: f64| {
        if config.assumed_mean_holding_s <= 0.0 {
            0.0
        } else {
            (-t / config.assumed_mean_holding_s).exp()
        }
    };
    let speed_mps = (request.speed_kmh.max(0.0)) / 3.6;
    let crossing_time = if speed_mps <= 1e-9 {
        f64::INFINITY
    } else {
        config.cell_radius_m.max(1.0) / speed_mps
    };
    let heading = request.angle_deg;
    let away_factor = (heading.abs() / 180.0).clamp(0.0, 1.0);
    let neighbor_weights: Vec<f64> = neighbors
        .iter()
        .map(|n| {
            let bearing = grid.center_of(&home).bearing_to(&grid.center_of(n));
            let outward = 180.0 - heading.abs();
            let diff = angle_difference(bearing, outward).abs();
            (1.0 - diff / 180.0).max(0.05)
        })
        .collect();
    let weight_sum: f64 = neighbor_weights.iter().sum();
    for slot in 0..slots {
        let t_mid = (slot as f64 + 0.5) * config.slot_duration_s;
        let p_active = survival(t_mid);
        let p_left_home = if crossing_time.is_infinite() {
            0.0
        } else {
            (1.0 - (-t_mid / crossing_time).exp()) * away_factor
        };
        out.push(CellProbability {
            cell: home,
            slot,
            probability: p_active * (1.0 - p_left_home),
        });
        if neighbors.is_empty() || weight_sum <= 0.0 {
            continue;
        }
        let p_out = p_active * p_left_home;
        for (n, w) in neighbors.iter().zip(&neighbor_weights) {
            let p = p_out * w / weight_sum;
            if p > 1e-9 && cluster.contains(n) {
                out.push(CellProbability {
                    cell: *n,
                    slot,
                    probability: p,
                });
            }
        }
    }
    ShadowCluster {
        connection_id: request.id,
        home,
        bandwidth: request.bandwidth,
        probabilities: out,
    }
}

/// The previous controller: the same admission rule, projecting every
/// cluster from scratch into a [`HashMapEstimator`].
struct ReferenceScc {
    config: SccConfig,
    grid: CellGrid,
    estimator: HashMapEstimator,
}

impl ReferenceScc {
    fn new(config: SccConfig) -> Self {
        let grid = CellGrid::new(config.cluster_radius.max(1), config.cell_radius_m);
        Self {
            config,
            grid,
            estimator: HashMapEstimator::default(),
        }
    }

    fn cluster(&self, request: &AdmissionRequest) -> ShadowCluster {
        projected_from_scratch(&self.config, &self.grid, request)
    }

    fn decide(&self, request: &AdmissionRequest, station: &BaseStation) -> AdmissionDecision {
        let tentative = self.cluster(request);
        let capacity = f64::from(station.capacity().max(self.config.cell_capacity));
        let budget = if request.is_handoff {
            capacity
        } else {
            capacity * (1.0 - self.config.new_call_reservation)
        };
        let physical_after = f64::from(station.occupied() + request.bandwidth);
        let fits_projection = self.estimator.fits_within(&tentative, budget);
        let fits_physical = physical_after <= budget.max(f64::from(request.bandwidth));
        let margin = budget - physical_after.max(self.estimator.load_on(request.cell, 0));
        if fits_projection && fits_physical {
            AdmissionDecision::accept(margin)
        } else {
            AdmissionDecision::reject(margin.min(-0.0))
        }
    }
}

fn request(
    id: u64,
    q: i32,
    r: i32,
    class: ServiceClass,
    speed: f64,
    angle: f64,
    handoff: bool,
) -> AdmissionRequest {
    AdmissionRequest {
        id,
        cell: CellId::new(q, r),
        time: 0.0,
        class,
        bandwidth: class.paper_bandwidth(),
        holding_time: 180.0,
        speed_kmh: speed,
        angle_deg: angle,
        distance_m: None,
        is_handoff: handoff,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memoising_controller_decides_like_the_reference(
        steps in prop::collection::vec(
            (
                (0u8..10, -4i32..=4, -4i32..=4),
                prop_oneof![Just(ServiceClass::Text), Just(ServiceClass::Voice), Just(ServiceClass::Video)],
                0.0f64..130.0,
                -180.0f64..180.0,
                any::<bool>(),
            ),
            1..120,
        ),
    ) {
        let config = SccConfig::paper_default();
        let mut scc = SccAdmission::new(config.clone());
        let mut reference = ReferenceScc::new(config);
        let mut station = BaseStation::paper_default();
        let mut live: Vec<u64> = Vec::new();
        let mut next_id = 0u64;
        for ((kind, q, r), class, speed, angle, handoff) in steps {
            next_id += 1;
            let req = request(next_id, q, r, class, speed, angle, handoff);
            match kind {
                // Release the oldest live call.
                0 | 1 if !live.is_empty() => {
                    let id = live.remove(0);
                    station.release(id).unwrap();
                    scc.on_released(id, &station);
                    reference.estimator.remove(id);
                }
                // Admit without a preceding decide: the cache must miss.
                2 if station.can_fit(req.bandwidth) => {
                    station.admit(req.id, req.class, req.bandwidth, 0.0, 600.0, false).unwrap();
                    scc.on_admitted(&req, &station);
                    reference.estimator.register(reference.cluster(&req));
                    live.push(req.id);
                }
                // Decide one request, then admit a different one.
                3 => {
                    let decided = request(req.id + 1_000_000, q, r, class, speed, angle, handoff);
                    prop_assert_eq!(scc.decide(&decided, &station), reference.decide(&decided, &station));
                    if station.can_fit(req.bandwidth) {
                        station.admit(req.id, req.class, req.bandwidth, 0.0, 600.0, false).unwrap();
                        scc.on_admitted(&req, &station);
                        reference.estimator.register(reference.cluster(&req));
                        live.push(req.id);
                    }
                }
                // The simulator's offer path: decide, then admit if accepted.
                _ => {
                    let decision = scc.decide(&req, &station);
                    prop_assert_eq!(decision, reference.decide(&req, &station));
                    if decision.accept && station.can_fit(req.bandwidth) {
                        station.admit(req.id, req.class, req.bandwidth, 0.0, 600.0, false).unwrap();
                        scc.on_admitted(&req, &station);
                        reference.estimator.register(reference.cluster(&req));
                        live.push(req.id);
                    }
                }
            }
            assert_same_loads(scc.estimator(), &reference.estimator, "controller");
        }
    }
}

#[test]
fn admission_without_a_matching_decide_registers_a_fresh_projection() {
    let config = SccConfig::paper_default();
    let grid = CellGrid::new(config.cluster_radius, config.cell_radius_m);
    let station = BaseStation::paper_default();
    let fresh = |req: &AdmissionRequest| projected_from_scratch(&config, &grid, req);
    let decided = request(1, 0, 0, ServiceClass::Video, 90.0, 170.0, false);
    // Each admitted request differs from the decided one in one field the
    // cache key checks; home (3, 0) also lies outside the virtual grid.
    let admitted = [
        request(2, 0, 0, ServiceClass::Video, 90.0, 170.0, false),
        request(1, 1, 0, ServiceClass::Video, 90.0, 170.0, false),
        request(1, 3, 0, ServiceClass::Video, 90.0, 170.0, false),
        request(1, 0, 0, ServiceClass::Voice, 90.0, 170.0, false),
        request(1, 0, 0, ServiceClass::Video, 90.000_000_000_1, 170.0, false),
        request(1, 0, 0, ServiceClass::Video, 90.0, 100.0, false),
    ];
    for req in admitted {
        let mut scc = SccAdmission::new(config.clone());
        let _ = scc.decide(&decided, &station);
        scc.on_admitted(&req, &station);
        let mut reference = HashMapEstimator::default();
        reference.register(fresh(&req));
        assert_same_loads(scc.estimator(), &reference, &format!("{req:?}"));
    }
    // And the matching decide is reused: same loads as a fresh projection.
    let mut scc = SccAdmission::new(config.clone());
    let _ = scc.decide(&decided, &station);
    scc.on_admitted(&decided, &station);
    let mut reference = HashMapEstimator::default();
    reference.register(fresh(&decided));
    assert_same_loads(scc.estimator(), &reference, "matching decide");
}
