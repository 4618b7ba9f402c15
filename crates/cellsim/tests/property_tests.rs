//! Property-based tests for the cellular simulator substrate.

use cellsim::geometry::{normalize_angle, CellGrid, CellId, Point};
use cellsim::mobility::UserState;
use cellsim::sim::{AlwaysAccept, CapacityThreshold, SimConfig, Simulator};
use cellsim::station::BaseStation;
use cellsim::traffic::{
    DurationPolicy, GroupConfig, MmppConfig, ServiceClass, TraceConfig, TraceEntry, TrafficConfig,
    TrafficGenerator, TrafficModel,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn normalize_angle_is_idempotent_and_in_range(deg in -100_000.0f64..100_000.0) {
        let n = normalize_angle(deg);
        prop_assert!(n > -180.0 - 1e-9 && n <= 180.0 + 1e-9);
        prop_assert!((normalize_angle(n) - n).abs() < 1e-9);
    }

    #[test]
    fn hex_distance_is_a_metric(
        q1 in -8i32..8, r1 in -8i32..8,
        q2 in -8i32..8, r2 in -8i32..8,
        q3 in -8i32..8, r3 in -8i32..8,
    ) {
        let a = CellId::new(q1, r1);
        let b = CellId::new(q2, r2);
        let c = CellId::new(q3, r3);
        // identity, symmetry, triangle inequality
        prop_assert_eq!(a.distance(&a), 0);
        prop_assert_eq!(a.distance(&b), b.distance(&a));
        prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c));
        if a != b {
            prop_assert!(a.distance(&b) > 0);
        }
    }

    #[test]
    fn cell_at_inverts_center_of(radius in 0u32..4, idx in 0usize..37) {
        let grid = CellGrid::new(radius, 400.0);
        let cells = grid.cells();
        let cell = cells[idx % cells.len()];
        prop_assert_eq!(grid.cell_at(&grid.center_of(&cell)), cell);
    }

    #[test]
    fn angle_to_station_is_antisymmetric_under_heading_flip(
        x in -500.0f64..500.0, y in -500.0f64..500.0, heading in -180.0f64..180.0,
    ) {
        // Skip the degenerate "standing on the station" case.
        prop_assume!(x.abs() > 1.0 || y.abs() > 1.0);
        let station = Point::new(0.0, 0.0);
        let u1 = UserState::new(Point::new(x, y), 50.0, heading);
        let u2 = UserState::new(Point::new(x, y), 50.0, heading + 180.0);
        let a1 = u1.angle_to_station(&station).abs();
        let a2 = u2.angle_to_station(&station).abs();
        // Opposite headings give supplementary |angles|.
        prop_assert!((a1 + a2 - 180.0).abs() < 1e-6, "a1={a1} a2={a2}");
    }

    #[test]
    fn advance_moves_proportionally_to_speed(speed in 1.0f64..120.0, dt in 0.1f64..100.0) {
        let u = UserState::new(Point::new(0.0, 0.0), speed, 37.0);
        let moved = u.advanced(dt);
        let dist = moved.position.distance(&u.position);
        prop_assert!((dist - speed / 3.6 * dt).abs() < 1e-6);
    }

    #[test]
    fn station_occupancy_never_exceeds_capacity(
        capacity in 1u32..200,
        requests in proptest::collection::vec((0u64..10_000, 0usize..3, 1u32..15), 1..100),
    ) {
        let mut station = BaseStation::new(CellId::origin(), Point::default(), capacity);
        for (id, class_idx, bw) in requests {
            let class = ServiceClass::ALL[class_idx];
            let _ = station.admit(id, class, bw, 0.0, 100.0, false);
            prop_assert!(station.occupied() <= station.capacity());
            prop_assert_eq!(station.occupied(), station.rtc() + station.nrtc());
        }
    }

    #[test]
    fn station_counters_balance_after_any_admit_release_sequence(
        capacity in 1u32..100,
        ops in proptest::collection::vec((0u64..40, 0usize..3, 1u32..12, 0usize..4), 1..120),
    ) {
        // Drive a station through an arbitrary interleaving of admissions
        // and the three release paths; after every single operation the
        // RTC + NRTC split must equal the bandwidth of the live
        // connections, equal the occupied counter, and fit the capacity.
        let mut station = BaseStation::new(CellId::origin(), Point::default(), capacity);
        let mut clock = 0.0;
        let mut expired = Vec::new();
        for (id, class_idx, bw, op) in ops {
            clock += 1.0;
            match op {
                0 => {
                    let class = ServiceClass::ALL[class_idx];
                    let _ = station.admit(id, class, bw, clock, 5.0 + bw as f64, false);
                }
                1 => {
                    let _ = station.release(id);
                }
                2 => {
                    let _ = station.drop_connection(id);
                }
                _ => station.release_expired_into(clock, &mut expired),
            }
            let live_bandwidth: u32 = station.connections().map(|c| c.bandwidth).sum();
            prop_assert_eq!(station.rtc() + station.nrtc(), live_bandwidth);
            prop_assert_eq!(station.occupied(), live_bandwidth);
            prop_assert!(station.occupied() <= station.capacity());
        }
    }

    #[test]
    fn station_release_restores_all_bandwidth(
        ids in proptest::collection::hash_set(0u64..1000, 1..30),
    ) {
        let mut station = BaseStation::new(CellId::origin(), Point::default(), 10_000);
        let ids: Vec<u64> = ids.into_iter().collect();
        for &id in &ids {
            station.admit(id, ServiceClass::Voice, 5, 0.0, 10.0, false).unwrap();
        }
        for &id in &ids {
            station.release(id).unwrap();
        }
        prop_assert_eq!(station.occupied(), 0);
        prop_assert_eq!(station.rtc(), 0);
        prop_assert_eq!(station.nrtc(), 0);
        prop_assert_eq!(station.total_released(), ids.len() as u64);
    }

    #[test]
    fn traffic_generator_respects_configured_ranges(
        seed in 0u64..1000,
        lo in 0.0f64..60.0,
        hi_extra in 0.0f64..60.0,
    ) {
        let hi = lo + hi_extra;
        let cfg = TrafficConfig {
            min_speed_kmh: lo,
            max_speed_kmh: hi,
            ..TrafficConfig::paper_default()
        };
        let mut gen = TrafficGenerator::new(cfg, seed);
        for r in gen.generate_batch(200) {
            prop_assert!(r.speed_kmh >= lo - 1e-9 && r.speed_kmh <= hi + 1e-9);
            prop_assert!(r.angle_deg >= -180.0 && r.angle_deg <= 180.0);
            prop_assert!(r.bandwidth == 1 || r.bandwidth == 5 || r.bandwidth == 10);
        }
    }

    #[test]
    fn acceptance_never_exceeds_offered(n in 0usize..150, seed in 0u64..100) {
        let mut sim = Simulator::new(SimConfig::paper_default().with_seed(seed));
        let mut controller = AlwaysAccept;
        let report = sim.run_batch(&mut controller, n);
        prop_assert_eq!(report.offered, n as u64);
        prop_assert!(report.accepted <= report.offered);
        prop_assert!(report.acceptance_percentage >= 0.0 && report.acceptance_percentage <= 100.0);
        let station = sim.station(&CellId::origin()).unwrap();
        prop_assert!(station.occupied() <= station.capacity());
    }

    #[test]
    fn stricter_threshold_never_accepts_more(n in 10usize..120, seed in 0u64..50) {
        let run = |threshold: f64| {
            let mut sim = Simulator::new(SimConfig::paper_default().with_seed(seed));
            let mut c = CapacityThreshold::new(threshold, 1.0);
            sim.run_batch(&mut c, n).accepted
        };
        let strict = run(0.4);
        let loose = run(0.9);
        prop_assert!(strict <= loose, "strict {strict} > loose {loose}");
    }

    #[test]
    fn identical_seeds_identical_reports(n in 1usize..100, seed in 0u64..200) {
        let run = || {
            let mut sim = Simulator::new(SimConfig::paper_default().with_seed(seed));
            let mut controller = AlwaysAccept;
            let r = sim.run_batch(&mut controller, n);
            (r.accepted, r.metrics.bandwidth_admitted())
        };
        prop_assert_eq!(run(), run());
    }

    /// Every bursty model is a pure function of its seed: two generators
    /// built from the same `(model, seed)` pair must emit bit-identical
    /// request streams (arrival-time bits, class, holding-time bits).
    #[test]
    fn bursty_models_are_bit_identical_for_identical_seeds(
        seed in 0u64..500,
        model_idx in 0usize..3,
        n in 1usize..200,
    ) {
        let model = match model_idx {
            0 => TrafficModel::Mmpp(MmppConfig::flash_crowd()),
            1 => TrafficModel::Trace(
                TraceConfig::new(vec![
                    TraceEntry { inter_arrival_s: 0.5, duration_s: 60.0, class: ServiceClass::Voice },
                    TraceEntry { inter_arrival_s: 4.0, duration_s: 10.0, class: ServiceClass::Text },
                ])
                .with_duration(DurationPolicy::Randomized),
            ),
            _ => TrafficModel::Groups(GroupConfig::new(2, 9)),
        };
        let stream = |m: &TrafficModel| -> Vec<(u64, ServiceClass, u64)> {
            let mut generator =
                TrafficGenerator::with_model(TrafficConfig::paper_default(), m, seed);
            (0..n)
                .map(|_| {
                    let call = generator.next_request();
                    (call.arrival_time.to_bits(), call.class, call.holding_time.to_bits())
                })
                .collect()
        };
        prop_assert_eq!(stream(&model), stream(&model));
    }

    /// MMPP arrival times are non-decreasing and finite for any positive
    /// state parameters — the state-cycling clock can never run backwards
    /// or produce NaN, whatever the sojourn/rate mix.
    #[test]
    fn mmpp_clock_is_monotone_for_any_positive_parameters(
        seed in 0u64..200,
        quiet_mult in 0.01f64..1.0,
        burst_mult in 1.0f64..20.0,
        sojourn in 1.0f64..500.0,
        n in 1usize..150,
    ) {
        let model = TrafficModel::Mmpp(
            MmppConfig::new().state(quiet_mult, sojourn).state(burst_mult, sojourn),
        );
        let mut generator =
            TrafficGenerator::with_model(TrafficConfig::paper_default(), &model, seed);
        let mut last = 0.0f64;
        for _ in 0..n {
            let t = generator.next_request().arrival_time;
            prop_assert!(t.is_finite() && t >= last, "clock went from {last} to {t}");
            last = t;
        }
    }
}
