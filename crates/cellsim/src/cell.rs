//! The cell core: every per-cell transition of the admission model,
//! written once, in two layers.
//!
//! * **Station level** — [`offer`] (capacity screen, one `decide`, then
//!   admit), [`release`] and [`release_expired`], which the `admitd`
//!   server calls, plus `apply_fault` (capacity faults and outage
//!   force-drops), act on one [`BaseStation`] and the
//!   [`AdmissionController`] serving it, and count nothing.
//! * **Engine level** — `Cells` owns a contiguous run of stations with
//!   the users, [`Metrics`] and telemetry they share, and adds the
//!   counting, the spawn kinematics of new calls and the geometry of
//!   their next handoff.  [`crate::sim::Simulator`] and every shard of
//!   [`crate::shard::ShardedSimulator`] call it; a transition that
//!   admits a call hands its follow-up events to a `schedule` closure, so
//!   the engine decides where they go.
//!
//! A tracked call (one with a user, on a multi-cell grid) is found without
//! a search: its user's slab entry is tagged with the call's position in
//! its station, the station records the user's slot as the call's owner,
//! and the departure and handoff events carry the slot.  A removal that
//! moves another call into the hole reports that call's owner, whose tag
//! `Cells` then rewrites.  Untracked calls (the single cell, the batch
//! workload) are found by id.
//!
//! The functions on the per-event path are `#[inline(always)]`: left to
//! the inliner they stay out of line in the engines' event loops, and an
//! event on the paper's single cell then costs about 20 % more (measured
//! on a 2-vCPU host).

use crate::event::EventKind;
use crate::fault::{FaultEvent, FaultKind};
use crate::geometry::{CellGrid, CellIdx};
use crate::metrics::Metrics;
use crate::mobility::{spawn_uniform, UserState};
use crate::rng::SimRng;
use crate::sim::{AdmissionController, AdmissionDecision, AdmissionRequest, SimConfig};
use crate::slab::{Slab, SlotId};
use crate::station::{ActiveConnection, BaseStation};
use crate::telem;
use crate::traffic::{CallRequest, ServiceClass};
use crate::{Bandwidth, SimTime};
use std::ops::Range;
use telemetry::Recorder;

/// Offer `request` to `station`: a request that does not fit is rejected
/// with score `-1` without consulting the controller; otherwise the
/// controller decides once, and an accepted call is admitted and reported
/// via [`AdmissionController::on_admitted`].  The decision's `accept`
/// says whether the call was admitted.
///
/// # Panics
///
/// If `station` already carries `request.id`; callers that can see
/// duplicate ids screen them first.
#[inline(always)]
pub fn offer<C: AdmissionController + ?Sized>(
    station: &mut BaseStation,
    controller: &mut C,
    request: &AdmissionRequest,
) -> AdmissionDecision {
    offer_for(station, controller, request, None).0
}

/// [`offer`], admitting an accepted call by id ([`BaseStation::admit`])
/// without an `owner`, and by position ([`BaseStation::admit_owned`]) for
/// one; the decision, and the call's position if it was admitted.
#[inline(always)]
fn offer_for<C: AdmissionController + ?Sized>(
    station: &mut BaseStation,
    controller: &mut C,
    request: &AdmissionRequest,
    owner: Option<u32>,
) -> (AdmissionDecision, Option<u32>) {
    if !station.can_fit(request.bandwidth) {
        return (AdmissionDecision::reject(-1.0), None);
    }
    let decision = controller.decide(request, station);
    if !decision.accept {
        return (decision, None);
    }
    let (id, class, bandwidth) = (request.id, request.class, request.bandwidth);
    let (time, holding, handoff) = (request.time, request.holding_time, request.is_handoff);
    let admitted = match owner {
        None => station
            .admit(id, class, bandwidth, time, holding, handoff)
            .map(|()| station.active_connections() as u32 - 1),
        Some(owner) => station.admit_owned(owner, id, class, bandwidth, time, holding, handoff),
    };
    let position = admitted.expect("admission checked via can_fit");
    controller.on_admitted(request, station);
    (decision, Some(position))
}

/// Complete connection `connection_id` at `station`, telling the
/// controller; `None` if the station does not carry it.
#[inline(always)]
pub fn release<C: AdmissionController + ?Sized>(
    station: &mut BaseStation,
    controller: &mut C,
    connection_id: u64,
) -> Option<ActiveConnection> {
    let connection = station.release(connection_id).ok()?;
    controller.on_released(connection_id, station);
    Some(connection)
}

/// Complete every connection of `station` that ended by `now` into
/// `expired` (cleared first), telling the controller about each.
pub fn release_expired<C: AdmissionController + ?Sized>(
    station: &mut BaseStation,
    controller: &mut C,
    now: SimTime,
    expired: &mut Vec<ActiveConnection>,
) {
    station.release_expired_into(now, expired);
    for connection in expired.iter() {
        controller.on_released(connection.id, station);
    }
}

/// Set `station`'s capacity for a fault of `kind` relative to `nominal`;
/// an outage also force-drops every connection into `dropped` (cleared
/// first), telling the controller about each.
pub(crate) fn apply_fault<C: AdmissionController + ?Sized>(
    station: &mut BaseStation,
    controller: &mut C,
    kind: FaultKind,
    nominal: Bandwidth,
    dropped: &mut Vec<ActiveConnection>,
) {
    station.set_capacity(kind.capacity(nominal));
    dropped.clear();
    if kind.drops_connections() {
        station.drop_all_into(dropped);
        for connection in dropped.iter() {
            controller.on_released(connection.id, station);
        }
    }
}

/// A connection moved out of its cell at `time`, to be offered to `to`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Handoff {
    pub(crate) time: SimTime,
    pub(crate) connection_id: u64,
    pub(crate) to: CellIdx,
    pub(crate) class: ServiceClass,
    pub(crate) bandwidth: Bandwidth,
    pub(crate) ends_at: SimTime,
    pub(crate) user: UserState,
}

/// A contiguous run of cells (the whole grid for the sequential engine,
/// one shard's range for the sharded one) with the state their
/// transitions update.
pub(crate) struct Cells<R: Recorder> {
    /// Global index of `stations[0]`.
    start: u32,
    pub(crate) stations: Vec<BaseStation>,
    /// Kinematics of admitted users; single-cell grids track none.
    pub(crate) users: Slab<UserState>,
    pub(crate) metrics: Metrics,
    pub(crate) recorder: R,
    /// The run's base stream (the seed's `0xD15C` child); every stream of
    /// the run, each call's spawn kinematics included, derives from it.
    pub(crate) rng: SimRng,
    /// Capacity that faults scale and restore.
    nominal_capacity: Bandwidth,
    /// Reused buffer for expired and outage-dropped connections.
    scratch: Vec<ActiveConnection>,
}

impl<R: Recorder> Cells<R> {
    /// Stations for the global cells `range` of `grid`, armed for a run
    /// of `config`.
    pub(crate) fn new(grid: &CellGrid, range: Range<u32>, config: &SimConfig) -> Self {
        let mut cells = Self {
            start: 0,
            stations: Vec::new(),
            users: Slab::new(),
            metrics: Metrics::new(),
            recorder: R::for_schema(&telem::SCHEMA),
            // Armed by `reset` below.
            rng: SimRng::new(0),
            nominal_capacity: config.station_capacity,
            scratch: Vec::new(),
        };
        cells.cover(grid, range);
        cells.reset(config);
        cells
    }

    /// Replace the stations with ones for the global cells `range` of
    /// `grid` (capacity is set by the next [`Cells::reset`]).
    pub(crate) fn cover(&mut self, grid: &CellGrid, range: Range<u32>) {
        self.start = range.start;
        self.stations.clear();
        self.stations.extend(range.map(|i| {
            let cell = grid.cell_id(CellIdx(i));
            BaseStation::new(cell, grid.center_of(&cell), self.nominal_capacity)
        }));
    }

    /// Re-arm for a new run of `config`, keeping every buffer.  The
    /// recorder is kept too: telemetry accumulates across runs.
    pub(crate) fn reset(&mut self, config: &SimConfig) {
        for station in &mut self.stations {
            station.reset_for_run(config.station_capacity);
        }
        self.users.clear();
        self.metrics.reset();
        self.rng = SimRng::new(config.seed).derive(0xD15C);
        self.nominal_capacity = config.station_capacity;
    }

    /// Position of global cell `cell` in `stations`.
    pub(crate) fn local(&self, cell: CellIdx) -> usize {
        (cell.0 - self.start) as usize
    }

    /// [`offer`] with its counting, by position for an `owner` (see
    /// [`BaseStation::admit_owned`]); the call's position if it was
    /// admitted.
    #[inline(always)]
    pub(crate) fn offer<C: AdmissionController + ?Sized>(
        &mut self,
        controller: &mut C,
        cell: CellIdx,
        request: &AdmissionRequest,
        owner: Option<u32>,
    ) -> Option<u32> {
        self.metrics
            .record_offered(request.class, request.is_handoff);
        let local = self.local(cell);
        let (_, position) = offer_for(&mut self.stations[local], controller, request, owner);
        let accepted = position.is_some();
        if accepted {
            self.metrics
                .record_accepted(request.class, request.bandwidth, request.is_handoff);
        } else {
            self.metrics
                .record_blocked(request.class, request.is_handoff);
        }
        if R::ENABLED {
            self.recorder.add(
                telem::admission_counter(request.class, accepted, request.is_handoff),
                1,
            );
        }
        position
    }

    /// [`release_expired`] at `cell`, counting the calls as completed.
    /// Only the batch workload expires calls, and it tracks none, so no
    /// tag can go stale here.
    pub(crate) fn expire<C: AdmissionController + ?Sized>(
        &mut self,
        controller: &mut C,
        cell: CellIdx,
        now: SimTime,
    ) {
        debug_assert!(self.users.is_empty(), "expiry would move tracked calls");
        let local = self.local(cell);
        release_expired(
            &mut self.stations[local],
            controller,
            now,
            &mut self.scratch,
        );
        for connection in &self.scratch {
            self.metrics.record_completed(connection.class);
        }
    }

    /// A departure of the call `connection_id` at `cell`, counted as
    /// completed.  A tracked call is released at the position its user's
    /// slot is tagged with, and the slot is freed even if the call is gone
    /// (an outage dropped it).  A handoff re-issues the slot, so the
    /// departure left behind in the old cell carries a stale handle that
    /// misses and does nothing.  An untracked call is released by id.
    #[inline(always)]
    pub(crate) fn depart<C: AdmissionController + ?Sized>(
        &mut self,
        controller: &mut C,
        cell: CellIdx,
        connection_id: u64,
        user: Option<SlotId>,
    ) {
        let local = self.local(cell);
        let connection = match user {
            None => {
                debug_assert!(
                    self.users.is_empty(),
                    "a release by id would move tracked calls"
                );
                release(&mut self.stations[local], controller, connection_id)
            }
            Some(slot) => {
                let Some(position) = self.users.tag(slot) else {
                    return;
                };
                self.users.remove(slot);
                self.remove_at(controller, local, position, connection_id, false)
            }
        };
        if let Some(connection) = connection {
            self.metrics.record_completed(connection.class);
        }
    }

    /// Complete (`transfer: false`) or hand off (`transfer: true`) the
    /// call at `position` of station `local` if it is `connection_id`,
    /// telling the controller, and re-tag the user of the call the removal
    /// moved.  `None` if the call is no longer there (an outage dropped
    /// it).
    #[inline(always)]
    fn remove_at<C: AdmissionController + ?Sized>(
        &mut self,
        controller: &mut C,
        local: usize,
        position: u32,
        connection_id: u64,
        transfer: bool,
    ) -> Option<ActiveConnection> {
        let station = &mut self.stations[local];
        let removed = if transfer {
            station.transfer_out_at(position, connection_id)
        } else {
            station.release_at(position, connection_id)
        };
        let (connection, moved) = removed.ok()?;
        controller.on_released(connection_id, station);
        if let Some(owner) = moved {
            self.users.set_tag(owner as usize, position);
        }
        Some(connection)
    }

    /// [`apply_fault`] at the fault's cell, counting each force-dropped
    /// call as dropped, and as dropped by an outage.
    pub(crate) fn fault<C: AdmissionController + ?Sized>(
        &mut self,
        controller: &mut C,
        fault: &FaultEvent,
    ) {
        let local = self.local(CellIdx(fault.cell));
        apply_fault(
            &mut self.stations[local],
            controller,
            fault.kind,
            self.nominal_capacity,
            &mut self.scratch,
        );
        for connection in &self.scratch {
            self.metrics.record_dropped(connection.class);
            self.metrics.record_dropped_by_outage();
            if R::ENABLED {
                self.recorder.add(telem::counter::OUTAGE_DROPPED, 1);
            }
        }
    }

    /// A new call arrives in `cell` at `now`: spawn its user and offer
    /// it; on admission track the user and pass the follow-up events to
    /// `schedule` (see [`Cells::admitted`]).
    #[inline(always)]
    pub(crate) fn arrive<C: AdmissionController + ?Sized>(
        &mut self,
        controller: &mut C,
        grid: &CellGrid,
        cell: CellIdx,
        call: &CallRequest,
        now: SimTime,
        schedule: impl FnMut(SimTime, EventKind),
    ) {
        let (user, distance) = spawn(grid, &self.rng, cell, call);
        let request = AdmissionRequest::from_call(call, grid.cell_id(cell)).with_distance(distance);
        let owner = user.map(|_| self.users.vacant_index());
        if let Some(position) = self.offer(controller, cell, &request, owner) {
            let departure_at = now + call.holding_time;
            self.admitted(
                grid,
                cell,
                position,
                call.id,
                user,
                now,
                departure_at,
                schedule,
            );
        }
    }

    /// The source side of a handoff at `now`: transfer the call out of
    /// `from`, at the position its user's slot is tagged with, and take
    /// the user out of the slab.  `None`, with the user left for the
    /// departure to free, if the call is no longer at `from`.
    #[inline(always)]
    pub(crate) fn hand_out<C: AdmissionController + ?Sized>(
        &mut self,
        controller: &mut C,
        from: CellIdx,
        to: CellIdx,
        connection_id: u64,
        slot: SlotId,
        now: SimTime,
    ) -> Option<Handoff> {
        let local = self.local(from);
        let position = self.users.tag(slot)?;
        let connection = self.remove_at(controller, local, position, connection_id, true)?;
        let user = self.users.remove(slot)?;
        Some(Handoff {
            time: now,
            connection_id,
            to,
            class: connection.class,
            bandwidth: connection.bandwidth,
            ends_at: connection.ends_at,
            user,
        })
    }

    /// The target side of a handoff: offer the call to its new cell for
    /// the rest of its holding time.  On admission the user gets a fresh
    /// slot and the follow-up events go to `schedule`; otherwise the
    /// on-going call is dropped, the QoS violation the paper's
    /// controllers avoid.
    #[inline(always)]
    pub(crate) fn hand_in<C: AdmissionController + ?Sized>(
        &mut self,
        controller: &mut C,
        grid: &CellGrid,
        handoff: &Handoff,
        schedule: impl FnMut(SimTime, EventKind),
    ) {
        let Handoff {
            time,
            connection_id,
            to,
            class,
            bandwidth,
            ends_at,
            user,
        } = *handoff;
        let cell = grid.cell_id(to);
        let center = grid.center_of(&cell);
        let request = AdmissionRequest {
            id: connection_id,
            cell,
            time,
            class,
            bandwidth,
            holding_time: (ends_at - time).max(0.0),
            speed_kmh: user.speed_kmh,
            angle_deg: user.angle_to_station(&center),
            distance_m: Some(user.distance_to(&center)),
            is_handoff: true,
        };
        let owner = self.users.vacant_index();
        if let Some(position) = self.offer(controller, to, &request, Some(owner)) {
            self.admitted(
                grid,
                to,
                position,
                connection_id,
                Some(user),
                time,
                ends_at,
                schedule,
            );
        } else {
            self.metrics.record_dropped(class);
        }
    }

    /// Track the user (if any) of a call admitted to `cell` at `now` at
    /// `position`, and pass its follow-up events to `schedule`, in order:
    /// the departure, then the handoff if the user exits the cell first.
    /// The engine's `schedule` decides where they go.  A tracked call was
    /// admitted for the slot the user now takes.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn admitted(
        &mut self,
        grid: &CellGrid,
        cell: CellIdx,
        position: u32,
        connection_id: u64,
        user: Option<UserState>,
        now: SimTime,
        departure_at: SimTime,
        mut schedule: impl FnMut(SimTime, EventKind),
    ) {
        let slot = user.map(|user| self.users.insert_tagged(user, position));
        if R::ENABLED {
            self.recorder
                .high_water(telem::gauge::SLAB_USERS, self.users.len() as u64);
        }
        let departure = EventKind::Departure {
            cell,
            connection_id,
            user: slot,
        };
        schedule(departure_at, departure);
        let (Some(slot), Some(user)) = (slot, user) else {
            return;
        };
        if let Some((at, to)) = next_handoff(grid, cell, &user, now, departure_at) {
            let handoff = EventKind::Handoff {
                from: cell,
                to,
                connection_id,
                user: slot,
            };
            schedule(at, handoff);
        }
    }
}

/// A new call's user in `cell`, from the call's own stream of the run's
/// base `rng` (so it does not depend on event order), and its distance to
/// the base station.  On multi-cell grids the user's heading is turned so
/// its angle to the station is the call's sampled angle; a single cell
/// predicts no handoffs and tracks no user.
#[inline(always)]
fn spawn(
    grid: &CellGrid,
    rng: &SimRng,
    cell: CellIdx,
    call: &CallRequest,
) -> (Option<UserState>, f64) {
    let center = grid.center_of(&grid.cell_id(cell));
    let mut rng = rng.derive(call.id ^ 0xA11C);
    if grid.len() == 1 {
        // Only the distance is needed: the exact prefix of
        // `spawn_uniform`'s draws and float expressions (radius, then
        // angle; the degenerate speed range draws nothing).
        let r = grid.cell_radius_m().max(0.0) * rng.uniform(0.0, 1.0).sqrt();
        let theta = rng.uniform(-std::f64::consts::PI, std::f64::consts::PI);
        let position = center.translated(r * theta.cos(), r * theta.sin());
        return (None, position.distance(&center));
    }
    let speed = (call.speed_kmh, call.speed_kmh);
    let position = spawn_uniform(&center, grid.cell_radius_m(), speed, &mut rng).position;
    let heading = position.bearing_to(&center) + call.angle_deg;
    let user = UserState::new(position, call.speed_kmh, heading);
    (Some(user), user.distance_to(&center))
}

/// When and into which cell a user in `cell` at `now` hands off, if it
/// leaves the cell before `departure_at` and a grid cell lies ahead.
#[inline(always)]
fn next_handoff(
    grid: &CellGrid,
    cell: CellIdx,
    user: &UserState,
    now: SimTime,
    departure_at: SimTime,
) -> Option<(SimTime, CellIdx)> {
    let center = grid.center_of(&grid.cell_id(cell));
    let exit_in = user.time_to_exit(&center, grid.cell_radius_m())?;
    let at = now + exit_in;
    if at >= departure_at {
        return None;
    }
    let to = grid.next_cell_from(cell, user.heading_deg)?;
    Some((at, to))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::sim::Simulator;
    use crate::traffic::ServiceClass;
    use telemetry::NoopRecorder;

    /// A controller hook that fired, with its connection id.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Hook {
        Decide(u64),
        Admitted(u64),
        Released(u64),
    }

    /// Records every hook in order; accepts unless `reject` is set.
    #[derive(Default)]
    struct Recording {
        hooks: Vec<Hook>,
        reject: bool,
    }

    impl AdmissionController for Recording {
        fn name(&self) -> &'static str {
            "recording"
        }
        fn decide(&mut self, r: &AdmissionRequest, _s: &BaseStation) -> AdmissionDecision {
            self.hooks.push(Hook::Decide(r.id));
            AdmissionDecision {
                accept: !self.reject,
                score: 0.5,
            }
        }
        fn on_admitted(&mut self, r: &AdmissionRequest, _s: &BaseStation) {
            self.hooks.push(Hook::Admitted(r.id));
        }
        fn on_released(&mut self, id: u64, _s: &BaseStation) {
            self.hooks.push(Hook::Released(id));
        }
    }

    /// The `Metrics` counters a transition can move: offered, accepted,
    /// blocked, completed, dropped, dropped by an outage, and handoffs
    /// offered, accepted and failed.
    fn counters(cells: &Cells<NoopRecorder>) -> [u64; 9] {
        let m = &cells.metrics;
        let (offered, accepted, failed) = m.handoffs();
        [
            m.offered(),
            m.accepted(),
            m.blocked(),
            m.completed(),
            m.dropped(),
            m.dropped_by_outage(),
            offered,
            accepted,
            failed,
        ]
    }

    /// Seven 10-BU cells of 300 m.
    fn world() -> (CellGrid, Cells<NoopRecorder>) {
        let config = SimConfig::paper_default()
            .with_grid_radius(1)
            .with_cell_radius(300.0)
            .with_capacity(10);
        let grid = CellGrid::new(1, 300.0);
        let cells = Cells::new(&grid, 0..grid.len() as u32, &config);
        (grid, cells)
    }

    /// A 5-BU voice call made at t = 0 that lasts 60 s.
    fn call(id: u64) -> AdmissionRequest {
        AdmissionRequest {
            id,
            cell: crate::CellId::origin(),
            time: 0.0,
            class: ServiceClass::Voice,
            bandwidth: 5,
            holding_time: 60.0,
            speed_kmh: 50.0,
            angle_deg: 0.0,
            distance_m: None,
            is_handoff: false,
        }
    }

    /// Admit `call(id)` to cell 0 with a tracked user; the user's slot.
    fn admit_moving(cells: &mut Cells<NoopRecorder>, c: &mut Recording, id: u64) -> SlotId {
        let owner = cells.users.vacant_index();
        let position = cells.offer(c, CellIdx(0), &call(id), Some(owner));
        let user = UserState::new(Point::new(0.0, 0.0), 50.0, 0.0);
        let slot = cells.users.insert_tagged(user, position.expect("admitted"));
        assert_eq!(slot.index(), owner as usize);
        slot
    }

    /// Every owned call's owner is a live user slot tagged with the
    /// call's position.
    fn assert_tags_in_step(cells: &Cells<NoopRecorder>) {
        for station in &cells.stations {
            for (position, &owner) in station.owners().iter().enumerate() {
                if owner != crate::station::NO_OWNER {
                    let (slot, _) = cells
                        .users
                        .iter()
                        .find(|(slot, _)| slot.index() == owner as usize)
                        .expect("an owner is a live slot");
                    assert_eq!(cells.users.tag(slot), Some(position as u32));
                }
            }
        }
    }

    /// Hand the call `id` with user `slot` from `from` to `to` at `now`;
    /// its new slot and the departure `hand_in` scheduled.
    fn hand_over(
        cells: &mut Cells<NoopRecorder>,
        grid: &CellGrid,
        c: &mut Recording,
        (id, slot): (u64, SlotId),
        (from, to): (u32, u32),
        now: SimTime,
    ) -> SlotId {
        let handoff = cells.hand_out(c, CellIdx(from), CellIdx(to), id, slot, now);
        let handoff = handoff.expect("the call is at the source");
        let mut departure = None;
        cells.hand_in(c, grid, &handoff, |_, kind| {
            if let EventKind::Departure { user, .. } = kind {
                departure = user;
            }
        });
        assert_tags_in_step(cells);
        departure.expect("accepted, so a departure was scheduled")
    }

    #[test]
    fn a_request_that_does_not_fit_is_rejected_without_decide() {
        let (_, mut cells) = world();
        let mut c = Recording::default();
        let request = AdmissionRequest {
            bandwidth: 11,
            ..call(1)
        };
        assert!(cells.offer(&mut c, CellIdx(0), &request, None).is_none());
        assert_eq!(c.hooks, []);
        assert_eq!(counters(&cells), [1, 0, 1, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn a_reject_decides_once_and_admits_nothing() {
        let (_, mut cells) = world();
        let mut c = Recording {
            reject: true,
            ..Recording::default()
        };
        assert!(cells.offer(&mut c, CellIdx(0), &call(1), None).is_none());
        assert_eq!(c.hooks, [Hook::Decide(1)]);
        assert_eq!(cells.stations[0].occupied(), 0);
        assert_eq!(counters(&cells), [1, 0, 1, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn an_accept_admits_and_fires_on_admitted_once() {
        let (_, mut cells) = world();
        let mut c = Recording::default();
        assert_eq!(cells.offer(&mut c, CellIdx(0), &call(1), None), Some(0));
        assert_eq!(c.hooks, [Hook::Decide(1), Hook::Admitted(1)]);
        assert_eq!(cells.stations[0].occupied(), 5);
        assert_eq!(counters(&cells), [1, 1, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn an_expiry_releases_the_call_as_completed() {
        let (_, mut cells) = world();
        let mut c = Recording::default();
        cells.offer(&mut c, CellIdx(0), &call(1), None);
        cells.expire(&mut c, CellIdx(0), 59.0);
        assert_eq!(c.hooks.len(), 2, "nothing expires before the call ends");
        cells.expire(&mut c, CellIdx(0), 60.0);
        assert_eq!(c.hooks[2..], [Hook::Released(1)]);
        assert_eq!(cells.stations[0].occupied(), 0);
        assert_eq!(counters(&cells), [1, 1, 0, 1, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn an_outage_drops_every_call_and_their_departures_free_the_slots() {
        let (_, mut cells) = world();
        let mut c = Recording::default();
        let slots = [1, 2].map(|id| admit_moving(&mut cells, &mut c, id));
        let mut fault = FaultEvent {
            time: 10.0,
            cell: 0,
            kind: FaultKind::Outage,
        };
        cells.fault(&mut c, &fault);
        assert_eq!(c.hooks[4..], [Hook::Released(1), Hook::Released(2)]);
        assert_eq!(cells.stations[0].capacity(), 0);
        assert_eq!(counters(&cells), [2, 2, 0, 0, 2, 2, 0, 0, 0]);
        // The dropped calls' departures release nothing but still give
        // their users' slots back.
        for (id, slot) in [1, 2].into_iter().zip(slots) {
            cells.depart(&mut c, CellIdx(0), id, Some(slot));
        }
        assert!(cells.users.is_empty());
        // Recovery restores the capacity and touches no call.
        fault.kind = FaultKind::Recovery;
        cells.fault(&mut c, &fault);
        assert_eq!(cells.stations[0].capacity(), 10);
        assert_eq!(c.hooks.len(), 6);
        assert_eq!(counters(&cells), [2, 2, 0, 0, 2, 2, 0, 0, 0]);
    }

    #[test]
    fn a_handoff_accepted_at_the_target_reissues_the_user_slot() {
        let (grid, mut cells) = world();
        let mut c = Recording::default();
        let slot = admit_moving(&mut cells, &mut c, 1);
        let handoff = cells.hand_out(&mut c, CellIdx(0), CellIdx(1), 1, slot, 2.0);
        let handoff = handoff.expect("the call is at cell 0");
        assert_eq!(c.hooks[2..], [Hook::Released(1)]);
        assert!(cells.users.is_empty());
        let mut scheduled = Vec::new();
        cells.hand_in(&mut c, &grid, &handoff, |at, kind| {
            scheduled.push((at, kind))
        });
        assert_eq!(c.hooks[3..], [Hook::Decide(1), Hook::Admitted(1)]);
        assert_eq!(cells.stations[1].occupied(), 5);
        assert_eq!(counters(&cells), [2, 2, 0, 0, 0, 0, 1, 1, 0]);
        let Some(&(60.0, EventKind::Departure { cell, user, .. })) = scheduled.first() else {
            panic!("expected the departure at the call's end first, got {scheduled:?}");
        };
        assert_eq!(cell, CellIdx(1));
        let new_slot = user.expect("moving users are tracked");
        assert_ne!(new_slot, slot);
        // The departure left queued at the source cell carries the old
        // handle: it misses both the call and the re-issued slot.
        cells.depart(&mut c, CellIdx(0), 1, Some(slot));
        assert_eq!((c.hooks.len(), cells.users.len()), (5, 1));
        cells.depart(&mut c, CellIdx(1), 1, Some(new_slot));
        assert_eq!(c.hooks[5..], [Hook::Released(1)]);
        assert!(cells.users.is_empty());
        assert_eq!(counters(&cells), [2, 2, 0, 1, 0, 0, 1, 1, 0]);
    }

    #[test]
    fn a_stale_departure_leaves_the_call_now_at_its_old_position_alone() {
        let (_, mut cells) = world();
        let mut c = Recording::default();
        let old = admit_moving(&mut cells, &mut c, 1);
        let fault = |kind| FaultEvent {
            time: 10.0,
            cell: 0,
            kind,
        };
        cells.fault(&mut c, &fault(FaultKind::Outage));
        cells.fault(&mut c, &fault(FaultKind::Recovery));
        // A new call takes position 0, where the dropped call was.
        let new = admit_moving(&mut cells, &mut c, 2);
        assert_eq!(cells.users.tag(old), cells.users.tag(new));
        let hooks = c.hooks.len();
        // The dropped call's handoff and departure both miss the new call.
        assert!(cells
            .hand_out(&mut c, CellIdx(0), CellIdx(1), 1, old, 20.0)
            .is_none());
        cells.depart(&mut c, CellIdx(0), 1, Some(old));
        assert_eq!(c.hooks.len(), hooks, "no hook fired");
        assert_eq!(
            cells.stations[0]
                .connections()
                .map(|c| c.id)
                .collect::<Vec<_>>(),
            [2]
        );
        assert_eq!(
            cells.users.len(),
            1,
            "only the dropped call's slot was freed"
        );
        assert_tags_in_step(&cells);
        cells.depart(&mut c, CellIdx(0), 2, Some(new));
        assert_eq!(c.hooks[hooks..], [Hook::Released(2)]);
        assert!(cells.users.is_empty());
        assert_eq!(counters(&cells), [2, 2, 0, 1, 1, 1, 0, 0, 0]);
    }

    #[test]
    fn a_handed_back_call_completes_exactly_once() {
        // The call leaves cell 0 and comes back, so two departures of it
        // are queued at cell 0 for its end: the one left behind, with a
        // stale slot, and the fresh one.  Either order completes it once.
        for stale_first in [true, false] {
            let (grid, mut cells) = world();
            let mut c = Recording::default();
            // A bystander behind the call, so its hand-out moves another.
            let s1 = admit_moving(&mut cells, &mut c, 1);
            let bystander = admit_moving(&mut cells, &mut c, 10);
            let s2 = hand_over(&mut cells, &grid, &mut c, (1, s1), (0, 1), 2.0);
            let s3 = hand_over(&mut cells, &grid, &mut c, (1, s2), (1, 0), 4.0);
            let released =
                |c: &Recording| c.hooks.iter().filter(|&&h| h == Hook::Released(1)).count();
            assert_eq!(released(&c), 2, "one release per hand-out");
            let departures = [(0, s1), (1, s2), (0, s3)];
            let order: Vec<_> = if stale_first {
                departures.to_vec()
            } else {
                departures.iter().rev().copied().collect()
            };
            for (cell, slot) in order {
                cells.depart(&mut c, CellIdx(cell), 1, Some(slot));
                assert_tags_in_step(&cells);
            }
            assert_eq!(released(&c), 3, "completed once");
            assert_eq!(counters(&cells)[3], 1);
            cells.depart(&mut c, CellIdx(0), 10, Some(bystander));
            assert!(cells.users.is_empty());
            assert!(cells.stations.iter().all(|s| s.active_connections() == 0));
            assert_eq!(counters(&cells), [4, 4, 0, 2, 0, 0, 2, 2, 0]);
        }
    }

    #[test]
    fn a_handoff_rejected_at_the_target_drops_the_call() {
        let (grid, mut cells) = world();
        let mut c = Recording::default();
        let slot = admit_moving(&mut cells, &mut c, 1);
        let handoff = cells.hand_out(&mut c, CellIdx(0), CellIdx(1), 1, slot, 2.0);
        c.reject = true;
        let handoff = handoff.expect("the call is at cell 0");
        cells.hand_in(&mut c, &grid, &handoff, |_, kind| {
            panic!("a dropped call schedules nothing, got {kind:?}")
        });
        assert_eq!(
            c.hooks,
            [
                Hook::Decide(1),
                Hook::Admitted(1),
                Hook::Released(1),
                Hook::Decide(1)
            ]
        );
        assert!(cells.users.is_empty());
        assert_eq!(cells.stations[1].occupied(), 0);
        assert_eq!(counters(&cells), [2, 1, 1, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn controller_hooks_are_invoked() {
        let mut cfg = SimConfig::paper_default().with_seed(6);
        cfg.traffic.mean_interarrival_s = 20.0;
        cfg.traffic.mean_holding_s = 30.0;
        let mut sim = Simulator::new(cfg);
        let mut controller = Recording::default();
        let report = sim.run_poisson(&mut controller, 100);
        let count = |f: fn(&Hook) -> bool| controller.hooks.iter().filter(|h| f(h)).count();
        assert_eq!(
            count(|h| matches!(h, Hook::Admitted(_))) as u64,
            report.accepted
        );
        assert!(count(|h| matches!(h, Hook::Released(_))) > 0);
    }
}
