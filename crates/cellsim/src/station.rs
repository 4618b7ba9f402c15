//! Base stations: capacity bookkeeping and the RTC / NRTC counters.
//!
//! A [`BaseStation`] owns a fixed capacity in bandwidth units (the paper
//! uses 40 BU) and tracks every admitted connection.  It maintains the two
//! occupancy counters FACS-P needs for its priority handling:
//!
//! * **RTC** (Real-Time Counter) — bandwidth currently held by real-time
//!   connections (voice, video);
//! * **NRTC** (Non-Real-Time Counter) — bandwidth currently held by
//!   non-real-time connections (text).
//!
//! The station itself never refuses an admission on policy grounds; that is
//! the controller's job.  It only enforces the physical capacity limit.
//!
//! Active connections live in a dense `Vec` rather than a `HashMap`:
//! iteration order is deterministic by construction, and steady-state
//! admit/release cycles reuse the vector's capacity instead of allocating.
//! A connection is found in one of two ways.
//!
//! * **By position.**  The simulation engines know where each call sits:
//!   [`BaseStation::admit_owned`] returns the position and records an
//!   *owner* word for the call (the engines use the slot of the call's
//!   user), and [`BaseStation::release_at`] /
//!   [`BaseStation::transfer_out_at`] remove the call at a position after
//!   checking its id there.  A removal `swap_remove`s, so it reports the
//!   owner of the call it moved into the hole, and the caller updates its
//!   record of that call's position.  No search, no hash.
//! * **By id.**  Callers that hold nothing but an id — `admitd`'s frames,
//!   and the single-cell engine's untracked departures — use
//!   [`BaseStation::admit`], [`BaseStation::release`] and friends.  At or
//!   below [`INDEX_LINEAR_SCAN_MAX`] BU (≈ 40 connections on the paper's
//!   cell) these scan the vector, which beats hashing.  Above it, the
//!   first id-addressed *mutation* builds an id → position hash index from
//!   the vector, and every later mutation keeps it in step; reads by id
//!   ([`BaseStation::connection`]) use it once built and scan before.  A
//!   station addressed only by position therefore never builds it.  The
//!   index never affects observable behaviour — iteration still walks the
//!   vector — and it is rebuilt the same way after deserialisation,
//!   [`BaseStation::reset_for_run`], or a capacity change to or below the
//!   threshold.
//!
//! Owners are bookkeeping for position-tracking callers: they are not
//! serialised, and a station whose calls were all admitted by id keeps
//! none.
//!
//! The index hashes ids with the SplitMix64 finalizer ([`mix64`]) rather
//! than `std`'s SipHash: the finalizer is a handful of multiplies.  It
//! still avalanches, which matters because `admitd` clients choose their
//! own connection ids — ids spaced by a power of two must not share
//! buckets — and each station mixes a random key into every id, so a
//! client cannot compute ids that collide either.  Nothing reads the map's
//! iteration order, so the key never shows in any output.

use crate::geometry::{CellId, Point};
use crate::rng::mix64;
use crate::traffic::ServiceClass;
use crate::{Bandwidth, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};

/// Largest capacity (BU) for which lookup by id stays a plain linear
/// scan.  The paper's 40-BU cell sits far below this; metro cells
/// (≈ 2000 BU, several hundred concurrent connections) sit far above, and
/// build the hash index on their first id-addressed mutation.
pub const INDEX_LINEAR_SCAN_MAX: Bandwidth = 128;

/// The owner of a connection admitted by id ([`BaseStation::admit`]), or
/// admitted by [`BaseStation::admit_owned`] for nobody.
pub const NO_OWNER: u32 = u32::MAX;

/// Hasher of the station index: each `u64` written (the id) is xored into
/// the state, which starts at the station's key, and mixed with [`mix64`].
#[derive(Debug, Clone, Copy)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    /// Only `u64` ids are hashed; other input is mixed in byte by byte.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, id: u64) {
        self.0 = mix64(self.0 ^ id);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`IdHasher`]s that all start from one random key.
#[derive(Debug, Clone, Copy)]
struct IdHashBuilder {
    key: u64,
}

impl Default for IdHashBuilder {
    /// A fresh key from `std`'s per-process random hash keys.
    fn default() -> Self {
        Self {
            key: RandomState::new().hash_one(0u64),
        }
    }
}

impl BuildHasher for IdHashBuilder {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher(self.key)
    }
}

/// Connection id → position in the dense vector.
type IdIndex = HashMap<u64, u32, IdHashBuilder>;

/// Errors returned by base-station bookkeeping operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StationError {
    /// Admission would exceed the physical capacity.
    InsufficientCapacity {
        /// Bandwidth requested (BU).
        requested: Bandwidth,
        /// Bandwidth still free (BU).
        available: Bandwidth,
    },
    /// The connection id is already active on this station.
    DuplicateConnection {
        /// The offending connection id.
        id: u64,
    },
    /// The connection id is not active on this station.
    UnknownConnection {
        /// The offending connection id.
        id: u64,
    },
}

impl fmt::Display for StationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StationError::InsufficientCapacity {
                requested,
                available,
            } => write!(
                f,
                "insufficient capacity: requested {requested} BU, only {available} BU free"
            ),
            StationError::DuplicateConnection { id } => {
                write!(f, "connection {id} is already active")
            }
            StationError::UnknownConnection { id } => {
                write!(f, "connection {id} is not active on this station")
            }
        }
    }
}

impl std::error::Error for StationError {}

/// An admitted, on-going connection as tracked by a base station.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActiveConnection {
    /// Connection id (same id space as [`crate::traffic::CallRequest::id`]).
    pub id: u64,
    /// Service class.
    pub class: ServiceClass,
    /// Reserved bandwidth (BU).
    pub bandwidth: Bandwidth,
    /// Admission time (seconds).
    pub admitted_at: SimTime,
    /// Scheduled completion time (seconds).
    pub ends_at: SimTime,
    /// `true` if the connection arrived as a handoff from another cell.
    pub was_handoff: bool,
}

/// A base station with a fixed capacity in bandwidth units.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaseStation {
    cell: CellId,
    position: Point,
    capacity: Bandwidth,
    connections: Vec<ActiveConnection>,
    /// The owner of each connection, in step with `connections`, or empty
    /// while every owner is [`NO_OWNER`].  Bookkeeping for callers that
    /// track positions: skipped on the wire and excluded from equality.
    #[serde(skip)]
    owners: Vec<u32>,
    rtc: Bandwidth,
    nrtc: Bandwidth,
    total_admitted: u64,
    total_released: u64,
    total_dropped: u64,
    /// id → position in `connections`, in step with it while `indexed`.
    /// Pure acceleration state: skipped on the wire, excluded from
    /// equality.
    #[serde(skip)]
    index: IdIndex,
    /// `true` once an id-addressed mutation built `index` (only above
    /// [`INDEX_LINEAR_SCAN_MAX`] BU).
    #[serde(skip)]
    indexed: bool,
}

impl PartialEq for BaseStation {
    fn eq(&self, other: &Self) -> bool {
        // The hash index and the owners are bookkeeping; two stations are
        // equal iff their observable state matches (a freshly deserialised station
        // compares equal to the live one it was serialised from).
        self.cell == other.cell
            && self.position == other.position
            && self.capacity == other.capacity
            && self.connections == other.connections
            && self.rtc == other.rtc
            && self.nrtc == other.nrtc
            && self.total_admitted == other.total_admitted
            && self.total_released == other.total_released
            && self.total_dropped == other.total_dropped
    }
}

impl BaseStation {
    /// A station for `cell` located at `position` with `capacity` BU.
    #[must_use]
    pub fn new(cell: CellId, position: Point, capacity: Bandwidth) -> Self {
        Self {
            cell,
            position,
            capacity,
            connections: Vec::new(),
            owners: Vec::new(),
            rtc: 0,
            nrtc: 0,
            total_admitted: 0,
            total_released: 0,
            total_dropped: 0,
            index: IdIndex::default(),
            indexed: false,
        }
    }

    /// Reset the station for a fresh run with the given capacity: every
    /// connection is dropped on the floor (no counters recorded) and all
    /// cumulative totals are zeroed, while the connection storage keeps its
    /// capacity — so a simulator reused across sweep cells pays no
    /// per-cell allocation here.
    pub fn reset_for_run(&mut self, capacity: Bandwidth) {
        self.capacity = capacity;
        self.connections.clear();
        self.owners.clear();
        self.rtc = 0;
        self.nrtc = 0;
        self.total_admitted = 0;
        self.total_released = 0;
        self.total_dropped = 0;
        self.index.clear();
        self.indexed = false;
    }

    /// The paper's single 40-BU base station at the origin.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(CellId::origin(), Point::new(0.0, 0.0), 40)
    }

    /// Change the station's capacity in place (a fault transition:
    /// outage, degradation or recovery).  Active connections are kept
    /// even if the new capacity leaves the station over-occupied —
    /// [`BaseStation::available`] saturates at zero, so the station
    /// simply refuses new admissions until enough calls complete.  Use
    /// [`BaseStation::drop_all_into`] for transitions that evict.
    pub fn set_capacity(&mut self, capacity: Bandwidth) {
        self.capacity = capacity;
        if !self.uses_index() {
            // At or below the threshold lookups scan; a later rise
            // rebuilds the index on the next id-addressed mutation.
            self.index.clear();
            self.indexed = false;
        }
    }

    /// Force-drop every active connection into `out` (cleared first), in
    /// the dense vector order — deterministic given the station's
    /// operation history.  Each drop is counted in
    /// [`BaseStation::total_dropped`] and all occupancy counters return
    /// to zero.  This is the outage path: the calls did not complete and
    /// did not hand off, they were cut.
    pub fn drop_all_into(&mut self, out: &mut Vec<ActiveConnection>) {
        out.clear();
        self.total_dropped += self.connections.len() as u64;
        out.append(&mut self.connections);
        self.owners.clear();
        self.rtc = 0;
        self.nrtc = 0;
        self.index.clear();
    }

    /// The cell this station serves.
    #[must_use]
    pub fn cell(&self) -> CellId {
        self.cell
    }

    /// The station's position.
    #[must_use]
    pub fn position(&self) -> Point {
        self.position
    }

    /// Total capacity (BU).
    #[must_use]
    pub fn capacity(&self) -> Bandwidth {
        self.capacity
    }

    /// Bandwidth currently in use (BU).
    #[must_use]
    pub fn occupied(&self) -> Bandwidth {
        self.rtc + self.nrtc
    }

    /// Bandwidth still free (BU).
    #[must_use]
    pub fn available(&self) -> Bandwidth {
        self.capacity.saturating_sub(self.occupied())
    }

    /// Occupancy as a fraction of capacity in `[0, 1]`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            return 1.0;
        }
        f64::from(self.occupied()) / f64::from(self.capacity)
    }

    /// The Counter state `Cs` input of FLC2: the occupied bandwidth in BU.
    #[must_use]
    pub fn counter_state(&self) -> Bandwidth {
        self.occupied()
    }

    /// Real-Time Counter: bandwidth held by on-going real-time connections.
    #[must_use]
    pub fn rtc(&self) -> Bandwidth {
        self.rtc
    }

    /// Non-Real-Time Counter: bandwidth held by on-going non-real-time
    /// connections.
    #[must_use]
    pub fn nrtc(&self) -> Bandwidth {
        self.nrtc
    }

    /// Number of currently active connections.
    #[must_use]
    pub fn active_connections(&self) -> usize {
        self.connections.len()
    }

    /// Iterator over the active connections (deterministic dense order:
    /// admission order, modulo swap-removal on release).
    pub fn connections(&self) -> impl Iterator<Item = &ActiveConnection> {
        self.connections.iter()
    }

    /// Look up an active connection.
    #[must_use]
    pub fn connection(&self, id: u64) -> Option<&ActiveConnection> {
        self.position_of(id).map(|pos| &self.connections[pos])
    }

    /// `true` when id-addressed access to this station builds the
    /// id → position hash index.
    fn uses_index(&self) -> bool {
        self.capacity > INDEX_LINEAR_SCAN_MAX
    }

    /// Before an id-addressed mutation: build the hash index if this
    /// station keeps one and has not built it yet.
    fn index_for_id_access(&mut self) {
        if self.indexed || !self.uses_index() {
            return;
        }
        self.index.clear();
        self.index.reserve(self.connections.len());
        for (pos, conn) in self.connections.iter().enumerate() {
            self.index.insert(conn.id, pos as u32);
        }
        self.indexed = true;
    }

    fn position_of(&self, id: u64) -> Option<usize> {
        if self.indexed {
            return self.index.get(&id).map(|&pos| pos as usize);
        }
        self.connections.iter().position(|c| c.id == id)
    }

    /// `swap_remove` the connection at `pos`, keeping the owners, the
    /// index and the counters in step; the connection, and the owner of
    /// the connection moved into `pos` ([`NO_OWNER`] if none moved).  Every
    /// removal goes through here.
    fn swap_take(&mut self, pos: usize) -> (ActiveConnection, u32) {
        let conn = self.connections.swap_remove(pos);
        let moved = if self.owners.is_empty() {
            NO_OWNER
        } else {
            self.owners.swap_remove(pos);
            self.owners.get(pos).copied().unwrap_or(NO_OWNER)
        };
        if self.indexed {
            self.index.remove(&conn.id);
            if let Some(moved) = self.connections.get(pos) {
                self.index.insert(moved.id, pos as u32);
            }
        }
        self.subtract(&conn);
        (conn, moved)
    }

    /// `true` if a request for `bandwidth` BU physically fits right now.
    #[must_use]
    pub fn can_fit(&self, bandwidth: Bandwidth) -> bool {
        bandwidth <= self.available()
    }

    /// Cumulative number of admitted connections.
    #[must_use]
    pub fn total_admitted(&self) -> u64 {
        self.total_admitted
    }

    /// Cumulative number of normally completed (released) connections.
    #[must_use]
    pub fn total_released(&self) -> u64 {
        self.total_released
    }

    /// Cumulative number of dropped connections.
    #[must_use]
    pub fn total_dropped(&self) -> u64 {
        self.total_dropped
    }

    /// Admit a connection, reserving its bandwidth.  Id-addressed: it
    /// refuses an id already active here.
    pub fn admit(
        &mut self,
        id: u64,
        class: ServiceClass,
        bandwidth: Bandwidth,
        now: SimTime,
        holding_time: SimTime,
        was_handoff: bool,
    ) -> Result<(), StationError> {
        self.index_for_id_access();
        if self.position_of(id).is_some() {
            return Err(StationError::DuplicateConnection { id });
        }
        self.admit_owned(
            NO_OWNER,
            id,
            class,
            bandwidth,
            now,
            holding_time,
            was_handoff,
        )
        .map(drop)
    }

    /// Admit a connection for `owner`, reserving its bandwidth; its
    /// position, until a removal reports that it moved.  Position-addressed:
    /// the caller vouches that `id` is not active here (the engines' call
    /// ids are unique), so nothing is searched and no index is built.
    #[allow(clippy::too_many_arguments)]
    pub fn admit_owned(
        &mut self,
        owner: u32,
        id: u64,
        class: ServiceClass,
        bandwidth: Bandwidth,
        now: SimTime,
        holding_time: SimTime,
        was_handoff: bool,
    ) -> Result<u32, StationError> {
        debug_assert!(
            !self.indexed || !self.index.contains_key(&id),
            "connection {id} is already active"
        );
        if !self.can_fit(bandwidth) {
            return Err(StationError::InsufficientCapacity {
                requested: bandwidth,
                available: self.available(),
            });
        }
        let position =
            u32::try_from(self.connections.len()).expect("station exceeds u32::MAX calls");
        if class.is_real_time() {
            self.rtc += bandwidth;
        } else {
            self.nrtc += bandwidth;
        }
        if self.indexed {
            self.index.insert(id, position);
        }
        // Owners stay empty until the first owned call, which pads them
        // for the calls admitted before it.
        if owner != NO_OWNER || !self.owners.is_empty() {
            self.owners.resize(self.connections.len(), NO_OWNER);
            self.owners.push(owner);
        }
        self.connections.push(ActiveConnection {
            id,
            class,
            bandwidth,
            admitted_at: now,
            ends_at: now + holding_time.max(0.0),
            was_handoff,
        });
        self.total_admitted += 1;
        Ok(position)
    }

    /// Remove connection `id` (id-addressed).  The owner it moves is not
    /// reported: callers that track positions remove by position.
    fn take(&mut self, id: u64) -> Result<ActiveConnection, StationError> {
        self.index_for_id_access();
        let pos = self
            .position_of(id)
            .ok_or(StationError::UnknownConnection { id })?;
        Ok(self.swap_take(pos).0)
    }

    /// Remove the connection at `position` if it is `id`; otherwise
    /// change nothing.  Returns it and the owner of the connection moved
    /// into `position`, if any.
    fn take_at(
        &mut self,
        position: u32,
        id: u64,
    ) -> Result<(ActiveConnection, Option<u32>), StationError> {
        let pos = position as usize;
        if self.connections.get(pos).is_none_or(|c| c.id != id) {
            return Err(StationError::UnknownConnection { id });
        }
        let (conn, moved) = self.swap_take(pos);
        Ok((conn, (moved != NO_OWNER).then_some(moved)))
    }

    /// Release a connection that completed normally, freeing its bandwidth.
    pub fn release(&mut self, id: u64) -> Result<ActiveConnection, StationError> {
        let conn = self.take(id)?;
        self.total_released += 1;
        Ok(conn)
    }

    /// [`BaseStation::release`] by position: release the connection at
    /// `position` if it is `id`, returning it and the owner of the
    /// connection now at `position` (the one the removal moved there), if
    /// any.  A stale position or a wrong id is
    /// [`StationError::UnknownConnection`] and changes nothing.
    pub fn release_at(
        &mut self,
        position: u32,
        id: u64,
    ) -> Result<(ActiveConnection, Option<u32>), StationError> {
        let taken = self.take_at(position, id)?;
        self.total_released += 1;
        Ok(taken)
    }

    /// Remove a connection because it was dropped (e.g. failed handoff) —
    /// tracked separately from normal completion because call dropping is
    /// the QoS violation the paper's controllers try to avoid.
    pub fn drop_connection(&mut self, id: u64) -> Result<ActiveConnection, StationError> {
        let conn = self.take(id)?;
        self.total_dropped += 1;
        Ok(conn)
    }

    /// Remove a connection that is handing off to another cell (neither a
    /// completion nor a drop from this station's point of view).
    pub fn transfer_out(&mut self, id: u64) -> Result<ActiveConnection, StationError> {
        self.take(id)
    }

    /// [`BaseStation::transfer_out`] by position, reporting the moved
    /// owner as [`BaseStation::release_at`] does.
    pub fn transfer_out_at(
        &mut self,
        position: u32,
        id: u64,
    ) -> Result<(ActiveConnection, Option<u32>), StationError> {
        self.take_at(position, id)
    }

    /// Release every connection whose `ends_at` is at or before `now` into
    /// `out` (cleared first), sorted by completion time.  Allocation-free
    /// once `out` has warmed up to the working-set size.  Like a removal by
    /// id, it does not report the owners it moves.
    pub fn release_expired_into(&mut self, now: SimTime, out: &mut Vec<ActiveConnection>) {
        out.clear();
        let mut i = 0;
        while i < self.connections.len() {
            if self.connections[i].ends_at <= now {
                let (conn, _) = self.swap_take(i);
                self.total_released += 1;
                out.push(conn);
            } else {
                i += 1;
            }
        }
        out.sort_unstable_by(|a, b| a.ends_at.total_cmp(&b.ends_at));
    }

    /// Release every connection whose `ends_at` is at or before `now`;
    /// returns them sorted by completion time.  The simulator's hot loop
    /// uses [`BaseStation::release_expired_into`] with a reused scratch
    /// buffer instead.
    pub fn release_expired(&mut self, now: SimTime) -> Vec<ActiveConnection> {
        let mut out = Vec::new();
        self.release_expired_into(now, &mut out);
        out
    }

    /// Whether an id-addressed mutation built the hash index.
    #[cfg(test)]
    pub(crate) fn id_index_built(&self) -> bool {
        self.indexed
    }

    /// The owners, in step with the connections (empty while all are
    /// [`NO_OWNER`]).
    #[cfg(test)]
    pub(crate) fn owners(&self) -> &[u32] {
        &self.owners
    }

    fn subtract(&mut self, conn: &ActiveConnection) {
        if conn.class.is_real_time() {
            self.rtc = self.rtc.saturating_sub(conn.bandwidth);
        } else {
            self.nrtc = self.nrtc.saturating_sub(conn.bandwidth);
        }
    }
}

impl Default for BaseStation {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn station() -> BaseStation {
        BaseStation::paper_default()
    }

    #[test]
    fn paper_default_station() {
        let s = station();
        assert_eq!(s.capacity(), 40);
        assert_eq!(s.occupied(), 0);
        assert_eq!(s.available(), 40);
        assert_eq!(s.cell(), CellId::origin());
        assert_eq!(s.utilization(), 0.0);
        assert_eq!(s.counter_state(), 0);
    }

    #[test]
    fn admit_reserves_bandwidth_and_updates_counters() {
        let mut s = station();
        s.admit(1, ServiceClass::Video, 10, 0.0, 100.0, false)
            .unwrap();
        s.admit(2, ServiceClass::Text, 1, 0.0, 100.0, false)
            .unwrap();
        s.admit(3, ServiceClass::Voice, 5, 0.0, 100.0, false)
            .unwrap();
        assert_eq!(s.occupied(), 16);
        assert_eq!(s.rtc(), 15);
        assert_eq!(s.nrtc(), 1);
        assert_eq!(s.available(), 24);
        assert_eq!(s.active_connections(), 3);
        assert_eq!(s.total_admitted(), 3);
        assert!((s.utilization() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn admit_rejects_over_capacity() {
        let mut s = BaseStation::new(CellId::origin(), Point::default(), 12);
        s.admit(1, ServiceClass::Video, 10, 0.0, 100.0, false)
            .unwrap();
        let err = s
            .admit(2, ServiceClass::Voice, 5, 0.0, 100.0, false)
            .unwrap_err();
        assert_eq!(
            err,
            StationError::InsufficientCapacity {
                requested: 5,
                available: 2
            }
        );
        // A text call still fits.
        s.admit(3, ServiceClass::Text, 1, 0.0, 100.0, false)
            .unwrap();
        assert_eq!(s.available(), 1);
    }

    #[test]
    fn admit_rejects_duplicate_ids() {
        let mut s = station();
        s.admit(7, ServiceClass::Text, 1, 0.0, 10.0, false).unwrap();
        assert_eq!(
            s.admit(7, ServiceClass::Text, 1, 0.0, 10.0, false)
                .unwrap_err(),
            StationError::DuplicateConnection { id: 7 }
        );
    }

    #[test]
    fn release_frees_bandwidth() {
        let mut s = station();
        s.admit(1, ServiceClass::Voice, 5, 0.0, 60.0, false)
            .unwrap();
        let conn = s.release(1).unwrap();
        assert_eq!(conn.bandwidth, 5);
        assert_eq!(s.occupied(), 0);
        assert_eq!(s.total_released(), 1);
        assert_eq!(
            s.release(1).unwrap_err(),
            StationError::UnknownConnection { id: 1 }
        );
    }

    #[test]
    fn drop_and_transfer_are_tracked_separately() {
        let mut s = station();
        s.admit(1, ServiceClass::Video, 10, 0.0, 60.0, false)
            .unwrap();
        s.admit(2, ServiceClass::Video, 10, 0.0, 60.0, true)
            .unwrap();
        s.drop_connection(1).unwrap();
        s.transfer_out(2).unwrap();
        assert_eq!(s.total_dropped(), 1);
        assert_eq!(s.total_released(), 0);
        assert_eq!(s.occupied(), 0);
        assert!(s.drop_connection(99).is_err());
        assert!(s.transfer_out(99).is_err());
    }

    #[test]
    fn release_expired_only_removes_finished_calls() {
        let mut s = station();
        s.admit(1, ServiceClass::Text, 1, 0.0, 10.0, false).unwrap();
        s.admit(2, ServiceClass::Text, 1, 0.0, 50.0, false).unwrap();
        s.admit(3, ServiceClass::Voice, 5, 0.0, 20.0, false)
            .unwrap();
        let done = s.release_expired(25.0);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].id, 1);
        assert_eq!(done[1].id, 3);
        assert_eq!(s.active_connections(), 1);
        assert_eq!(s.occupied(), 1);
    }

    #[test]
    fn connection_lookup_and_metadata() {
        let mut s = station();
        s.admit(5, ServiceClass::Video, 10, 12.0, 30.0, true)
            .unwrap();
        let c = s.connection(5).unwrap();
        assert_eq!(c.admitted_at, 12.0);
        assert_eq!(c.ends_at, 42.0);
        assert!(c.was_handoff);
        assert!(s.connection(6).is_none());
        assert_eq!(s.connections().count(), 1);
    }

    #[test]
    fn zero_capacity_station_is_always_full() {
        let s = BaseStation::new(CellId::origin(), Point::default(), 0);
        assert_eq!(s.utilization(), 1.0);
        assert!(!s.can_fit(1));
        assert!(s.can_fit(0));
    }

    #[test]
    fn negative_holding_time_is_clamped() {
        let mut s = station();
        s.admit(1, ServiceClass::Text, 1, 10.0, -5.0, false)
            .unwrap();
        assert_eq!(s.connection(1).unwrap().ends_at, 10.0);
    }

    #[test]
    fn reset_for_run_clears_state_and_keeps_storage() {
        let mut s = station();
        s.admit(1, ServiceClass::Video, 10, 0.0, 60.0, false)
            .unwrap();
        s.admit(2, ServiceClass::Text, 1, 0.0, 60.0, false).unwrap();
        s.release(2).unwrap();
        let cap = s.connections.capacity();
        s.reset_for_run(25);
        assert_eq!(s.capacity(), 25);
        assert_eq!(s.occupied(), 0);
        assert_eq!(s.rtc(), 0);
        assert_eq!(s.nrtc(), 0);
        assert_eq!(s.active_connections(), 0);
        assert_eq!(s.total_admitted(), 0);
        assert_eq!(s.total_released(), 0);
        assert_eq!(s.total_dropped(), 0);
        assert_eq!(s.connections.capacity(), cap, "storage is kept for reuse");
        // The station is immediately usable again.
        s.admit(9, ServiceClass::Voice, 5, 1.0, 10.0, true).unwrap();
        assert_eq!(s.occupied(), 5);
    }

    #[test]
    fn release_expired_into_reuses_the_scratch_buffer() {
        let mut s = station();
        for i in 0..6 {
            s.admit(i, ServiceClass::Text, 1, 0.0, 5.0 + i as f64, false)
                .unwrap();
        }
        let mut scratch = Vec::new();
        s.release_expired_into(8.0, &mut scratch);
        assert_eq!(scratch.len(), 4);
        assert!(scratch.windows(2).all(|w| w[0].ends_at <= w[1].ends_at));
        let cap = scratch.capacity();
        // A later, smaller expiry batch reuses the same storage.
        s.release_expired_into(100.0, &mut scratch);
        assert_eq!(scratch.len(), 2);
        assert_eq!(scratch.capacity(), cap);
    }

    /// A SplitMix64 stream for the randomised station tests.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(crate::rng::SPLITMIX64_GAMMA);
            mix64(self.0)
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }
    }

    /// The station's dense-vector semantics replayed on a plain `Vec`:
    /// push on admit, `swap_remove` on every removal.  Lookups on it are
    /// the linear scan the index must agree with.
    #[derive(Default)]
    struct Model {
        connections: Vec<ActiveConnection>,
    }

    impl Model {
        fn find(&self, id: u64) -> Option<&ActiveConnection> {
            self.connections.iter().find(|c| c.id == id)
        }

        fn take(&mut self, id: u64) -> Result<ActiveConnection, StationError> {
            let pos = self
                .connections
                .iter()
                .position(|c| c.id == id)
                .ok_or(StationError::UnknownConnection { id })?;
            Ok(self.connections.swap_remove(pos))
        }

        fn occupied(&self) -> Bandwidth {
            self.connections.iter().map(|c| c.bandwidth).sum()
        }
    }

    /// A 2000-BU metro station (above the index threshold) driven by
    /// random `admit` / `release` / `transfer_out` / `drop_all_into` /
    /// `release_expired_into` sequences and serde round trips, with ids
    /// that are sequential, spaced 2^20 apart, spaced 2^32 apart, and
    /// random.  Every result, every lookup and the dense order must agree
    /// with a linear scan of the [`Model`].
    #[test]
    fn indexed_station_matches_linear_semantics() {
        /// A family's name and its `n`-th id, given a random word.
        type IdFamily = (&'static str, fn(u64, u64) -> u64);
        let families: [IdFamily; 4] = [
            ("sequential", |n, _| 1_000 + n),
            ("spaced 2^20", |n, _| n << 20),
            ("spaced 2^32", |n, _| n << 32),
            // 63 random bits: the offline `serde_json` stand-in in
            // `vendor/` keeps integers as `i64`.
            ("random", |_, r| r >> 1),
        ];
        for (family, (name, id_of)) in families.into_iter().enumerate() {
            let mut rng = Stream(family as u64);
            let mut station = BaseStation::new(CellId::origin(), Point::default(), 2000);
            assert!(station.uses_index());
            let mut model = Model::default();
            let mut admitted = 0u64;
            let mut out = Vec::new();
            for step in 0..12_000u32 {
                let now = f64::from(step);
                // An id that was admitted at some point (live or gone), or
                // one of the family's ids that has not been used yet.
                let probe = |rng: &mut Stream, model: &Model, admitted: u64| {
                    if !model.connections.is_empty() && rng.below(4) != 0 {
                        model.connections[rng.below(model.connections.len())].id
                    } else {
                        id_of(admitted + rng.below(8) as u64, rng.next())
                    }
                };
                match rng.below(1_000) {
                    0..=549 => {
                        let id = id_of(admitted, rng.next());
                        admitted += 1;
                        let class = [ServiceClass::Text, ServiceClass::Voice, ServiceClass::Video]
                            [rng.below(3)];
                        let bw = class.paper_bandwidth();
                        let holding = rng.below(400) as f64;
                        let expected = if model.find(id).is_some() {
                            Err(StationError::DuplicateConnection { id })
                        } else if model.occupied() + bw > 2000 {
                            Err(StationError::InsufficientCapacity {
                                requested: bw,
                                available: 2000 - model.occupied(),
                            })
                        } else {
                            model.connections.push(ActiveConnection {
                                id,
                                class,
                                bandwidth: bw,
                                admitted_at: now,
                                ends_at: now + holding,
                                was_handoff: false,
                            });
                            Ok(())
                        };
                        let got = station.admit(id, class, bw, now, holding, false);
                        assert_eq!(got, expected, "{name}: admit {id} at step {step}");
                    }
                    550..=799 => {
                        let id = probe(&mut rng, &model, admitted);
                        assert_eq!(station.release(id), model.take(id), "{name}: release {id}");
                    }
                    800..=989 => {
                        let id = probe(&mut rng, &model, admitted);
                        let got = station.transfer_out(id);
                        assert_eq!(got, model.take(id), "{name}: transfer_out {id}");
                    }
                    990..=994 => {
                        station.release_expired_into(now, &mut out);
                        let mut expected = Vec::new();
                        let mut i = 0;
                        while i < model.connections.len() {
                            if model.connections[i].ends_at <= now {
                                expected.push(model.connections.swap_remove(i));
                            } else {
                                i += 1;
                            }
                        }
                        expected.sort_unstable_by(|a, b| a.ends_at.total_cmp(&b.ends_at));
                        assert_eq!(out, expected, "{name}: release_expired_into at {now}");
                    }
                    995..=997 => {
                        let json = serde_json::to_string(&station).unwrap();
                        let restored: BaseStation = serde_json::from_str(&json).unwrap();
                        assert_eq!(restored, station, "{name}: serde round trip");
                        assert!(restored.connections.is_empty() || restored.index.is_empty());
                        station = restored;
                    }
                    _ => {
                        if rng.below(4) == 0 {
                            station.drop_all_into(&mut out);
                            assert_eq!(out, model.connections, "{name}: drop_all_into");
                            model.connections.clear();
                        }
                    }
                }
                assert_eq!(station.active_connections(), model.connections.len());
                assert_eq!(station.occupied(), model.occupied(), "{name}: occupancy");
                for _ in 0..4 {
                    let id = probe(&mut rng, &model, admitted);
                    assert_eq!(
                        station.connection(id),
                        model.find(id),
                        "{name}: lookup {id}"
                    );
                }
                if step % 1_000 == 999 {
                    assert!(station.connections().eq(model.connections.iter()));
                    for conn in &model.connections {
                        assert_eq!(station.connection(conn.id), Some(conn), "{name}");
                    }
                }
            }
            assert!(admitted > 6_000, "{name}: only {admitted} admits");
        }
    }

    /// The index hash must avalanche: ids spaced by a power of two land in
    /// as many distinct buckets as random ids would, whatever the key.  (A
    /// bare multiply leaves the low bits of `n << k` zero, so those ids
    /// would share one bucket.)
    #[test]
    fn index_hash_spreads_power_of_two_spaced_ids() {
        for builder in [IdHashBuilder { key: 0 }, IdHashBuilder::default()] {
            for shift in [0u32, 1, 8, 20, 32, 40, 52] {
                let mut buckets = std::collections::HashSet::new();
                for n in 0..4_096u64 {
                    buckets.insert(builder.hash_one(n << shift) & 4_095);
                }
                // Throwing 4096 balls into 4096 bins fills about 63 % of them.
                assert!(
                    buckets.len() > 2_400,
                    "ids spaced 2^{shift} fill only {} of 4096 buckets ({builder:?})",
                    buckets.len()
                );
            }
        }
        assert_ne!(
            IdHashBuilder::default().key,
            IdHashBuilder::default().key,
            "every station draws its own key"
        );
    }

    #[test]
    fn index_self_heals_after_deserialisation() {
        let mut s = BaseStation::new(CellId::origin(), Point::default(), 10_000);
        for id in 0..50u64 {
            s.admit(id, ServiceClass::Voice, 5, 0.0, 100.0, false)
                .unwrap();
        }
        let json = serde_json::to_string(&s).unwrap();
        let mut restored: BaseStation = serde_json::from_str(&json).unwrap();
        // `#[serde(skip)]` leaves the index empty; equality ignores it and
        // reads fall back to the linear scan until a mutation rebuilds it.
        assert_eq!(restored, s);
        assert!(restored.index.is_empty());
        assert!(restored.connection(49).is_some());
        restored.release(25).unwrap();
        assert_eq!(restored.index.len(), restored.connections.len());
        s.release(25).unwrap();
        assert_eq!(restored, s);
    }

    #[test]
    fn removal_by_position_checks_the_id_and_reports_the_moved_owner() {
        let mut s = BaseStation::new(CellId::origin(), Point::default(), 2000);
        for (owner, id) in [(10, 100), (11, 101), (12, 102)] {
            let position = s.admit_owned(owner, id, ServiceClass::Voice, 5, 0.0, 60.0, false);
            assert_eq!(position, Ok(owner - 10));
        }
        let before = s.clone();
        // A stale position, a wrong id or a position past the end changes
        // nothing.
        for (position, id) in [(0, 101), (1, 100), (3, 100), (u32::MAX, 102), (2, 7)] {
            let refused = Err(StationError::UnknownConnection { id });
            assert_eq!(s.release_at(position, id), refused);
            assert_eq!(s.transfer_out_at(position, id), refused);
            assert_eq!(s, before);
            assert_eq!(s.owners(), before.owners());
        }
        // Releasing the first call moves the last, owner 12, into its place.
        let (conn, moved) = s.release_at(0, 100).unwrap();
        assert_eq!((conn.id, moved), (100, Some(12)));
        assert_eq!(
            s.connections().map(|c| c.id).collect::<Vec<_>>(),
            [102, 101]
        );
        assert_eq!(s.owners(), [12, 11]);
        assert_eq!((s.total_released(), s.occupied()), (1, 10));
        // Removing the last call moves nothing; a transfer is no release.
        let (conn, moved) = s.transfer_out_at(1, 101).unwrap();
        assert_eq!((conn.id, moved), (101, None));
        assert_eq!((s.total_released(), s.occupied()), (1, 5));
        assert!(!s.id_index_built(), "nothing was addressed by id");
        // A call admitted by id has no owner to report.
        s.admit(200, ServiceClass::Text, 1, 0.0, 60.0, false)
            .unwrap();
        assert!(
            s.id_index_built(),
            "the first id-addressed mutation builds it"
        );
        assert_eq!(s.owners(), [12, NO_OWNER]);
        let (_, moved) = s.release_at(0, 102).unwrap();
        assert_eq!(moved, None);
        assert_eq!(
            s.connection(200).map(|c| c.id),
            Some(200),
            "index kept in step"
        );
        assert_eq!(s.release(200).map(|c| c.id), Ok(200));
        assert_eq!(s.active_connections(), 0);
    }

    /// A 2000-BU station driven by random position- and id-addressed
    /// admissions and removals.  The caller's record of each owned call's
    /// position, kept up to date from the moved owners that removals
    /// report, must always point at that call; a station addressed only by
    /// position must never build the id index.
    #[test]
    fn reported_moves_keep_every_owner_position_current() {
        for by_id in [false, true] {
            let mut rng = Stream(u64::from(by_id) + 40);
            let mut s = BaseStation::new(CellId::origin(), Point::default(), 2000);
            // owner → (id, position), as a caller of `admit_owned` keeps it.
            let mut tracked: HashMap<u32, (u64, u32)> = HashMap::new();
            let mut untracked: Vec<u64> = Vec::new();
            let mut next_id = 0u64;
            for step in 0..20_000u32 {
                let live: Vec<u32> = tracked.keys().copied().collect();
                match rng.below(100) {
                    0..=54 => {
                        let id = next_id;
                        next_id += 1;
                        if by_id && rng.below(8) == 0 {
                            if s.admit(id, ServiceClass::Text, 1, 0.0, 1e9, false).is_ok() {
                                untracked.push(id);
                            }
                        } else {
                            let owner = step;
                            if let Ok(pos) =
                                s.admit_owned(owner, id, ServiceClass::Voice, 5, 0.0, 1e9, false)
                            {
                                tracked.insert(owner, (id, pos));
                            }
                        }
                    }
                    55..=89 if !live.is_empty() => {
                        let owner = live[rng.below(live.len())];
                        let (id, pos) = tracked.remove(&owner).unwrap();
                        let removed = if rng.below(2) == 0 {
                            s.release_at(pos, id)
                        } else {
                            s.transfer_out_at(pos, id)
                        };
                        let (conn, moved) = removed.expect("the record is current");
                        assert_eq!(conn.id, id);
                        if let Some(moved) = moved {
                            tracked.get_mut(&moved).expect("a live owner moved").1 = pos;
                        }
                        // The same position and id now miss.
                        assert!(s.release_at(pos, id).is_err());
                    }
                    90..=99 if !untracked.is_empty() => {
                        let id = untracked.swap_remove(rng.below(untracked.len()));
                        s.release(id).unwrap();
                        // A removal by id reports no move: re-read every
                        // position, as the engines never need to.
                        for (id, pos) in tracked.values_mut() {
                            *pos = s.connections().position(|c| c.id == *id).unwrap() as u32;
                        }
                    }
                    _ => {}
                }
                assert_eq!(s.active_connections(), tracked.len() + untracked.len());
                for (&owner, &(id, pos)) in &tracked {
                    assert_eq!(s.connections[pos as usize].id, id, "step {step}");
                    assert_eq!(s.owners()[pos as usize], owner, "step {step}");
                }
                if s.id_index_built() {
                    for (pos, conn) in s.connections().enumerate() {
                        assert_eq!(s.index.get(&conn.id), Some(&(pos as u32)));
                    }
                }
            }
            assert!(tracked.len() > 100, "the station must hold many calls");
            assert_eq!(s.id_index_built(), by_id);
        }
    }

    #[test]
    fn owners_are_bookkeeping_off_the_wire() {
        let mut s = BaseStation::new(CellId::origin(), Point::default(), 2000);
        s.admit_owned(4, 1, ServiceClass::Voice, 5, 0.0, 60.0, false)
            .unwrap();
        s.admit_owned(5, 2, ServiceClass::Voice, 5, 0.0, 60.0, false)
            .unwrap();
        let json = serde_json::to_string(&s).unwrap();
        assert!(!json.contains("owners"));
        let mut restored: BaseStation = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, s);
        assert!(restored.owners().is_empty());
        // Restored calls have no owner; new ones do.
        assert_eq!(
            restored.admit_owned(6, 3, ServiceClass::Voice, 5, 0.0, 60.0, false),
            Ok(2)
        );
        assert_eq!(restored.owners(), [NO_OWNER, NO_OWNER, 6]);
        assert_eq!(
            restored.release_at(0, 1).map(|(_, moved)| moved),
            Ok(Some(6))
        );
    }

    #[test]
    fn small_stations_never_build_an_index() {
        let mut s = station();
        assert!(!s.uses_index());
        for id in 0..8u64 {
            s.admit(id, ServiceClass::Text, 1, 0.0, 100.0, false)
                .unwrap();
        }
        s.release(3).unwrap();
        assert!(s.index.is_empty());
    }

    #[test]
    fn reset_crossing_the_index_threshold_stays_consistent() {
        let mut s = BaseStation::new(CellId::origin(), Point::default(), 10_000);
        s.admit(1, ServiceClass::Video, 10, 0.0, 100.0, false)
            .unwrap();
        assert!(!s.index.is_empty());
        s.reset_for_run(40);
        assert!(s.index.is_empty());
        s.admit(2, ServiceClass::Text, 1, 0.0, 100.0, false)
            .unwrap();
        assert!(s.index.is_empty(), "below threshold: stays scan-only");
        s.reset_for_run(100_000);
        s.admit(3, ServiceClass::Text, 1, 0.0, 100.0, false)
            .unwrap();
        assert_eq!(s.index.len(), 1, "above threshold: index resumes");
    }

    #[test]
    fn set_capacity_keeps_connections_and_saturates_availability() {
        let mut s = station();
        s.admit(1, ServiceClass::Video, 10, 0.0, 60.0, false)
            .unwrap();
        s.admit(2, ServiceClass::Voice, 5, 0.0, 60.0, false)
            .unwrap();
        s.set_capacity(8);
        assert_eq!(s.capacity(), 8);
        assert_eq!(s.occupied(), 15, "existing calls survive a degrade");
        assert_eq!(s.available(), 0, "over-occupied saturates, never wraps");
        assert!(!s.can_fit(1));
        assert_eq!(s.utilization(), 15.0 / 8.0);
        s.release(1).unwrap();
        s.release(2).unwrap();
        s.set_capacity(40);
        assert!(s.can_fit(40));
    }

    #[test]
    fn drop_all_into_cuts_every_call_and_counts_drops() {
        let mut s = station();
        s.admit(1, ServiceClass::Video, 10, 0.0, 60.0, false)
            .unwrap();
        s.admit(2, ServiceClass::Text, 1, 0.0, 60.0, false).unwrap();
        s.admit(3, ServiceClass::Voice, 5, 0.0, 60.0, true).unwrap();
        let mut out = Vec::new();
        s.drop_all_into(&mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out.iter().map(|c| c.id).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(s.active_connections(), 0);
        assert_eq!(s.occupied(), 0);
        assert_eq!(s.rtc(), 0);
        assert_eq!(s.nrtc(), 0);
        assert_eq!(s.total_dropped(), 3);
        assert_eq!(
            s.release(1).unwrap_err(),
            StationError::UnknownConnection { id: 1 },
            "stale departures become clean no-ops"
        );
        // The station admits again normally after a recovery.
        s.admit(4, ServiceClass::Text, 1, 1.0, 10.0, false).unwrap();
        assert_eq!(s.occupied(), 1);
    }

    #[test]
    fn set_capacity_across_the_index_threshold_self_heals() {
        let mut s = BaseStation::new(CellId::origin(), Point::default(), 10_000);
        for id in 0..20u64 {
            s.admit(id, ServiceClass::Voice, 5, 0.0, 100.0, false)
                .unwrap();
        }
        assert_eq!(s.index.len(), 20);
        s.set_capacity(0);
        assert!(s.index.is_empty(), "below threshold: index cleared");
        assert!(s.connection(7).is_some(), "scan path still works");
        s.set_capacity(10_000);
        // Index rebuilds lazily on the next mutation.
        s.release(7).unwrap();
        assert_eq!(s.index.len(), s.connections.len());
    }

    #[test]
    fn error_display() {
        let e = StationError::InsufficientCapacity {
            requested: 10,
            available: 3,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("3"));
    }
}
