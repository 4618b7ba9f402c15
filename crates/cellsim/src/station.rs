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
//! Active connections live in a dense `Vec` rather than a `HashMap`: a
//! station carries at most `capacity / min_request` connections (≈ 40 for
//! the paper's cell), so a linear scan over one cache line beats hashing,
//! iteration order is deterministic by construction, and steady-state
//! admit/release cycles reuse the vector's capacity instead of allocating.
//! Metro-scale stations (capacity beyond [`INDEX_LINEAR_SCAN_MAX`] BU) can
//! hold hundreds of concurrent connections, where the linear scan turns
//! O(n) per lookup; those stations additionally keep a lazily maintained
//! id → position hash index beside the dense vector.  The index never
//! affects observable behaviour — iteration still walks the vector — and
//! it self-heals (rebuilds from the vector) whenever it is out of sync,
//! e.g. right after deserialisation.
//!
//! The index hashes ids with the SplitMix64 finalizer ([`mix64`]) rather
//! than `std`'s SipHash: a metro run looks an id up on every arrival,
//! departure and barrier-merge step, and the finalizer is a handful of
//! multiplies.  It still avalanches, which matters because `admitd`
//! clients choose their own connection ids — ids spaced by a power of two
//! must not share buckets — and each station mixes a random key into
//! every id, so a client cannot compute ids that collide either.  Nothing
//! reads the map's iteration order, so the key never shows in any output.

use crate::geometry::{CellId, Point};
use crate::rng::mix64;
use crate::traffic::ServiceClass;
use crate::{Bandwidth, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};

/// Largest capacity (BU) for which connection lookup stays a plain linear
/// scan.  The paper's 40-BU cell sits far below this; metro cells
/// (≈ 2000 BU, several hundred concurrent connections) sit far above, and
/// get the hash index.
pub const INDEX_LINEAR_SCAN_MAX: Bandwidth = 128;

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
    rtc: Bandwidth,
    nrtc: Bandwidth,
    total_admitted: u64,
    total_released: u64,
    total_dropped: u64,
    /// id → position in `connections`, kept only for high-capacity
    /// stations.  Pure acceleration state: skipped on the wire, excluded
    /// from equality, rebuilt on demand when `index.len()` disagrees with
    /// `connections.len()`.
    #[serde(skip)]
    index: IdIndex,
}

impl PartialEq for BaseStation {
    fn eq(&self, other: &Self) -> bool {
        // The hash index is derived state; two stations are equal iff
        // their observable state matches (a freshly deserialised station
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
            rtc: 0,
            nrtc: 0,
            total_admitted: 0,
            total_released: 0,
            total_dropped: 0,
            index: IdIndex::default(),
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
        self.rtc = 0;
        self.nrtc = 0;
        self.total_admitted = 0;
        self.total_released = 0;
        self.total_dropped = 0;
        self.index.clear();
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
            // Dropping below the index threshold invalidates the index
            // wholesale; clearing it now keeps the synced-length
            // invariant simple for the scan path.
            self.index.clear();
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

    /// `true` when this station maintains the id → position hash index.
    fn uses_index(&self) -> bool {
        self.capacity > INDEX_LINEAR_SCAN_MAX
    }

    /// `true` when the hash index is present and in sync with the dense
    /// vector.  Every index-maintaining mutation preserves
    /// `index.len() == connections.len()`, so a length mismatch is the
    /// one-and-only signal of a stale index (deserialisation, or a
    /// capacity change that newly crossed the threshold).
    fn index_is_synced(&self) -> bool {
        self.index.len() == self.connections.len()
    }

    /// Repair the hash index before an index-maintaining mutation.
    fn sync_index(&mut self) {
        if !self.uses_index() {
            if !self.index.is_empty() {
                self.index.clear();
            }
            return;
        }
        if self.index_is_synced() {
            return;
        }
        self.index.clear();
        self.index.reserve(self.connections.len());
        for (pos, conn) in self.connections.iter().enumerate() {
            self.index.insert(conn.id, pos as u32);
        }
    }

    fn position_of(&self, id: u64) -> Option<usize> {
        if self.uses_index() && self.index_is_synced() {
            return self.index.get(&id).map(|&pos| pos as usize);
        }
        self.connections.iter().position(|c| c.id == id)
    }

    /// Bookkeeping shared by every `swap_remove` on `connections`: drop
    /// `id` from the index and re-point the entry of whichever connection
    /// was swapped into `pos` (if any).
    fn index_remove(&mut self, id: u64, pos: usize) {
        if !self.uses_index() {
            return;
        }
        self.index.remove(&id);
        if let Some(moved) = self.connections.get(pos) {
            self.index.insert(moved.id, pos as u32);
        }
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

    /// Admit a connection, reserving its bandwidth.
    pub fn admit(
        &mut self,
        id: u64,
        class: ServiceClass,
        bandwidth: Bandwidth,
        now: SimTime,
        holding_time: SimTime,
        was_handoff: bool,
    ) -> Result<(), StationError> {
        self.sync_index();
        if self.position_of(id).is_some() {
            return Err(StationError::DuplicateConnection { id });
        }
        if !self.can_fit(bandwidth) {
            return Err(StationError::InsufficientCapacity {
                requested: bandwidth,
                available: self.available(),
            });
        }
        if class.is_real_time() {
            self.rtc += bandwidth;
        } else {
            self.nrtc += bandwidth;
        }
        if self.uses_index() {
            self.index.insert(id, self.connections.len() as u32);
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
        Ok(())
    }

    fn take(&mut self, id: u64) -> Result<ActiveConnection, StationError> {
        self.sync_index();
        let pos = self
            .position_of(id)
            .ok_or(StationError::UnknownConnection { id })?;
        let conn = self.connections.swap_remove(pos);
        self.index_remove(id, pos);
        self.subtract(&conn);
        Ok(conn)
    }

    /// Release a connection that completed normally, freeing its bandwidth.
    pub fn release(&mut self, id: u64) -> Result<ActiveConnection, StationError> {
        let conn = self.take(id)?;
        self.total_released += 1;
        Ok(conn)
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

    /// Release every connection whose `ends_at` is at or before `now` into
    /// `out` (cleared first), sorted by completion time.  Allocation-free
    /// once `out` has warmed up to the working-set size.
    pub fn release_expired_into(&mut self, now: SimTime, out: &mut Vec<ActiveConnection>) {
        self.sync_index();
        out.clear();
        let mut i = 0;
        while i < self.connections.len() {
            if self.connections[i].ends_at <= now {
                let conn = self.connections.swap_remove(i);
                self.index_remove(conn.id, i);
                self.subtract(&conn);
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
