//! Deterministic scheduled cell faults: outages, recoveries and partial
//! capacity degradation.
//!
//! A [`FaultPlan`] is a list of timed [`FaultEvent`]s attached to a
//! [`crate::SimConfig`] (and, one level up, a sweep `ScenarioSpec`).
//! Faults are *data*, not randomness: the plan is part of the config, so
//! a faulted run is exactly as reproducible as a healthy one — no RNG
//! stream is consumed when a fault fires.
//!
//! # Determinism contract
//!
//! Both engines fold the plan into their event loops as a **fourth
//! merge stream** alongside the arrival stream, the computed mobility
//! ticks and the run-time event heap. At equal
//! timestamps the tie order is `fault < arrival < tick < heap`, and in
//! the sharded engine a fault's [`MergeKey`] carries
//! [`RANK_FAULT`] so faults interleave with
//! cross-shard admits/releases/handoffs in the same total
//! `(time, connection_id, rank)` order at any sharding. Faulted runs
//! are therefore byte-identical across shard and thread counts (see
//! `tests/golden_sharded.rs` and `tests/fault_determinism.rs`).
//!
//! # Semantics
//!
//! * [`FaultKind::Outage`] — capacity drops to 0 and every active
//!   connection in the cell is force-dropped (counted in
//!   [`crate::Metrics::dropped_by_outage`] as well as the per-class
//!   `dropped` counter). Controllers observe the zero capacity on every
//!   subsequent decision, so new calls and inbound handoffs are refused
//!   by the capacity check before the controller even runs.
//! * [`FaultKind::Degrade`] — capacity shrinks to a fraction of
//!   nominal. Existing connections are *not* dropped, even if the cell
//!   is now over capacity; the station simply refuses new admissions
//!   until enough calls complete ([`crate::BaseStation::available`]
//!   saturates at zero).
//! * [`FaultKind::Recovery`] / [`FaultKind::Restore`] — capacity
//!   returns to nominal. `Recovery` pairs with `Outage`, `Restore` with
//!   `Degrade`; the engines treat them identically, the two names exist
//!   so plans read naturally.

use serde::{Deserialize, Serialize};

use crate::shard::{MergeKey, RANK_FAULT};
use crate::{Bandwidth, SimTime};

/// What happens to a cell when a [`FaultEvent`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The cell goes dark: capacity drops to 0 and all active
    /// connections are force-dropped.
    Outage,
    /// The cell returns to nominal capacity after an [`Outage`].
    ///
    /// [`Outage`]: FaultKind::Outage
    Recovery,
    /// The cell keeps running at a fraction of nominal capacity.
    /// Existing connections survive; new admissions see the shrunken
    /// capacity.
    Degrade {
        /// Remaining capacity as a fraction of nominal, in `[0, 1]`.
        capacity_fraction: f64,
    },
    /// The cell returns to nominal capacity after a [`Degrade`].
    ///
    /// [`Degrade`]: FaultKind::Degrade
    Restore,
}

impl FaultKind {
    /// The cell capacity after this fault fires, given the nominal
    /// (configured) capacity.
    #[must_use]
    pub fn capacity(&self, nominal: Bandwidth) -> Bandwidth {
        match self {
            FaultKind::Outage => 0,
            FaultKind::Recovery | FaultKind::Restore => nominal,
            FaultKind::Degrade { capacity_fraction } => {
                (f64::from(nominal) * capacity_fraction).round() as Bandwidth
            }
        }
    }

    /// Whether this fault force-drops the cell's active connections.
    #[must_use]
    pub fn drops_connections(&self) -> bool {
        matches!(self, FaultKind::Outage)
    }
}

/// One scheduled fault: at `time`, `cell` transitions per `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Simulation time at which the fault fires (seconds).
    pub time: SimTime,
    /// Target cell, as a dense cell index into the grid. Events naming
    /// cells outside the grid are ignored at run time (so one plan can
    /// be reused across grid sizes).
    pub cell: u32,
    /// The transition applied to the cell.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// The merge key under which this fault is ordered against
    /// arrivals, releases, admits and handoffs in the sharded engine's
    /// total `(time, connection_id, rank)` order.
    ///
    /// Faults carry no connection, so the key borrows a synthetic
    /// connection id in a reserved range (`1 << 63 | cell`) that no
    /// real call ever occupies; distinct cells faulted at the same
    /// instant therefore still have a deterministic relative order.
    #[must_use]
    pub fn merge_key(&self) -> MergeKey {
        MergeKey::new(self.time, (1 << 63) | u64::from(self.cell), RANK_FAULT)
    }
}

/// A schedule of cell faults, applied deterministically by both engines.
///
/// The default plan is empty, and an empty plan is byte-identical to
/// the pre-fault engines — every pre-existing golden snapshot is
/// unchanged. Events may be listed in any order; the engines process a
/// time-sorted copy (ties broken by cell index, then declaration
/// order — see [`FaultPlan::sorted_events`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled fault events.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults; the engines skip the fault stream
    /// entirely).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan schedules no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Add one event (builder style).
    #[must_use]
    pub fn with_event(mut self, time: SimTime, cell: u32, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { time, cell, kind });
        self
    }

    /// Add a full outage of `cell` over `[start, start + duration)`.
    #[must_use]
    pub fn with_outage(self, cell: u32, start: SimTime, duration: SimTime) -> Self {
        self.with_event(start, cell, FaultKind::Outage).with_event(
            start + duration,
            cell,
            FaultKind::Recovery,
        )
    }

    /// Add a capacity degradation of `cell` to `capacity_fraction` of
    /// nominal over `[start, start + duration)`.
    #[must_use]
    pub fn with_degrade(
        self,
        cell: u32,
        start: SimTime,
        duration: SimTime,
        capacity_fraction: f64,
    ) -> Self {
        self.with_event(start, cell, FaultKind::Degrade { capacity_fraction })
            .with_event(start + duration, cell, FaultKind::Restore)
    }

    /// Add a rolling wave of outages: cells `first..first + count` go
    /// dark one after another, each for `duration`, staggered by
    /// `stagger` seconds.
    #[must_use]
    pub fn with_outage_wave(
        mut self,
        first: u32,
        count: u32,
        start: SimTime,
        duration: SimTime,
        stagger: SimTime,
    ) -> Self {
        for i in 0..count {
            self = self.with_outage(first + i, start + f64::from(i) * stagger, duration);
        }
        self
    }

    /// The plan's events sorted by `(time, cell)`, ties broken by
    /// declaration order (the sort is stable). This is the order both
    /// engines consume.
    #[must_use]
    pub fn sorted_events(&self) -> Vec<FaultEvent> {
        let mut events = self.events.clone();
        events.sort_by(|a, b| a.time.total_cmp(&b.time).then_with(|| a.cell.cmp(&b.cell)));
        events
    }

    /// Validate the plan: every event time must be finite and
    /// non-negative, and every `Degrade` fraction must lie in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid event.
    pub fn validate(&self) -> Result<(), String> {
        for (i, event) in self.events.iter().enumerate() {
            if !event.time.is_finite() || event.time < 0.0 {
                return Err(format!(
                    "fault event {i}: time {} must be finite and >= 0",
                    event.time
                ));
            }
            if let FaultKind::Degrade { capacity_fraction } = event.kind {
                if !capacity_fraction.is_finite() || !(0.0..=1.0).contains(&capacity_fraction) {
                    return Err(format!(
                        "fault event {i}: capacity_fraction {capacity_fraction} must be in [0, 1]"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{RANK_ADMIT, RANK_HANDOFF, RANK_RELEASE};

    #[test]
    fn capacity_transitions() {
        assert_eq!(FaultKind::Outage.capacity(40), 0);
        assert_eq!(FaultKind::Recovery.capacity(40), 40);
        assert_eq!(FaultKind::Restore.capacity(40), 40);
        assert_eq!(
            FaultKind::Degrade {
                capacity_fraction: 0.5
            }
            .capacity(40),
            20
        );
        assert_eq!(
            FaultKind::Degrade {
                capacity_fraction: 0.26
            }
            .capacity(10),
            3
        );
        assert!(FaultKind::Outage.drops_connections());
        assert!(!FaultKind::Restore.drops_connections());
    }

    #[test]
    fn builders_produce_paired_events() {
        let plan = FaultPlan::new()
            .with_outage(3, 100.0, 50.0)
            .with_degrade(5, 10.0, 20.0, 0.25);
        assert_eq!(plan.events.len(), 4);
        let sorted = plan.sorted_events();
        assert_eq!(sorted[0].time, 10.0);
        assert_eq!(sorted[0].cell, 5);
        assert_eq!(sorted[1].time, 30.0);
        assert_eq!(sorted[1].kind, FaultKind::Restore);
        assert_eq!(sorted[2].kind, FaultKind::Outage);
        assert_eq!(sorted[3].kind, FaultKind::Recovery);
    }

    #[test]
    fn outage_wave_staggers_cells() {
        let plan = FaultPlan::new().with_outage_wave(2, 3, 100.0, 40.0, 25.0);
        assert_eq!(plan.events.len(), 6);
        let sorted = plan.sorted_events();
        assert_eq!((sorted[0].time, sorted[0].cell), (100.0, 2));
        assert_eq!((sorted[1].time, sorted[1].cell), (125.0, 3));
        assert_eq!((sorted[2].time, sorted[2].cell), (140.0, 2));
        assert_eq!(sorted[2].kind, FaultKind::Recovery);
        assert_eq!((sorted[5].time, sorted[5].cell), (190.0, 4));
    }

    #[test]
    fn validation_rejects_bad_plans() {
        assert!(FaultPlan::new().validate().is_ok());
        let nan = FaultPlan::new().with_event(f64::NAN, 0, FaultKind::Outage);
        assert!(nan.validate().is_err());
        let negative = FaultPlan::new().with_event(-1.0, 0, FaultKind::Outage);
        assert!(negative.validate().is_err());
        let over = FaultPlan::new().with_event(
            1.0,
            0,
            FaultKind::Degrade {
                capacity_fraction: 1.5,
            },
        );
        assert!(over.validate().is_err());
    }

    #[test]
    fn merge_key_orders_faults_after_same_time_merge_tasks() {
        // Faults rank after every real-connection key at the same time
        // via the synthetic high-bit connection id; the rank field
        // orders faults against merge tasks for that same id.
        let fault = FaultEvent {
            time: 100.0,
            cell: 7,
            kind: FaultKind::Outage,
        };
        let key = fault.merge_key();
        assert_eq!(key.time, 100.0);
        assert_eq!(key.connection_id, (1 << 63) | 7);
        assert_eq!(key.rank, RANK_FAULT);
        const _: () = assert!(
            RANK_RELEASE < RANK_ADMIT && RANK_ADMIT < RANK_HANDOFF && RANK_HANDOFF < RANK_FAULT
        );
        // Earlier time always wins, whatever the id.
        let earlier = MergeKey::new(99.0, u64::MAX, RANK_HANDOFF);
        assert!(earlier < key);
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::new()
            .with_outage(3, 100.0, 50.0)
            .with_degrade(5, 10.0, 20.0, 0.25);
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(plan, back);
    }

    #[test]
    fn default_plan_is_empty_and_omittable() {
        assert!(FaultPlan::default().is_empty());
        // `#[serde(default)]` containers must rebuild from an absent key.
        let empty: FaultPlan =
            serde_json::from_str("{\"events\": []}").expect("explicit empty plan parses");
        assert_eq!(empty, FaultPlan::default());
    }
}
