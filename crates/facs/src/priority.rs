//! Priority handling for on-going connections — the "-P" in FACS-P.
//!
//! The paper extends the earlier FACS system by making the admission
//! decision respect the priority of connections that are *already being
//! served*.  The structure (Fig. 4) adds a Differentiated-service
//! classifier (`Ds`) and two occupancy counters — the Real-Time Counter
//! (`RTC`) and the Non-Real-Time Counter (`NRTC`) — whose state feeds the
//! Counter-state (`Cs`) input of FLC2.
//!
//! The paper does not spell the mechanism out numerically; the reproduction
//! implements it as follows (see `DESIGN.md` §4–5):
//!
//! * every admitted connection is classified real-time (voice, video) or
//!   non-real-time (text) and counted in RTC / NRTC — this bookkeeping
//!   lives in [`cellsim::BaseStation`];
//! * for a **new** call request the counter state presented to FLC2 is
//!   *inflated* by a protection weight applied to the on-going traffic
//!   (`Cs' = occupied + α·RTC + β·NRTC`, clamped to the capacity), so the
//!   fuzzy system sees the cell as "fuller" than it physically is and
//!   starts refusing new calls earlier, keeping headroom for the QoS of the
//!   connections already in progress;
//! * for a **handoff** of an on-going connection the counter state is
//!   *discounted* (`Cs' = occupied · (1 − δ)`), giving on-going connections
//!   priority access to the remaining capacity.

use cellsim::station::BaseStation;
use cellsim::traffic::ServiceClass;
use serde::{Deserialize, Serialize};

/// The Differentiated-service classification of a connection (the `Ds`
/// element of Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DifferentiatedService {
    /// Real-time traffic (voice, video) — counted in the RTC.
    RealTime,
    /// Non-real-time traffic (text) — counted in the NRTC.
    NonRealTime,
}

impl DifferentiatedService {
    /// Classify a service class.
    #[must_use]
    pub fn classify(class: ServiceClass) -> Self {
        if class.is_real_time() {
            Self::RealTime
        } else {
            Self::NonRealTime
        }
    }

    /// `true` for the real-time class.
    #[must_use]
    pub fn is_real_time(&self) -> bool {
        matches!(self, Self::RealTime)
    }
}

/// Priority of a *requesting* connection.
///
/// The paper lists this as future work ("in the future, we would like to
/// consider also the priority of requesting connections"); the reproduction
/// provides it as an optional extension: high-priority requests see a
/// discounted counter state, low-priority requests an inflated one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RequestPriority {
    /// Background / best-effort request.
    Low,
    /// Ordinary request (the paper's behaviour).
    #[default]
    Normal,
    /// Emergency or premium request.
    High,
}

impl RequestPriority {
    /// The multiplicative factor applied to the effective counter state for
    /// this priority (>1 penalises, <1 favours).
    #[must_use]
    pub fn counter_state_factor(&self) -> f64 {
        match self {
            RequestPriority::Low => 1.25,
            RequestPriority::Normal => 1.0,
            RequestPriority::High => 0.75,
        }
    }
}

/// The tunable parameters of the on-going-connection priority mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PriorityPolicy {
    /// Protection weight α applied to the RTC when a *new* call asks for
    /// admission: each BU held by an on-going real-time connection counts
    /// as `1 + α` BU of perceived load.
    pub rt_protection_weight: f64,
    /// Protection weight β applied to the NRTC for new calls.
    pub nrt_protection_weight: f64,
    /// Discount δ applied to the counter state seen by handoffs of
    /// on-going connections (0 = no priority, 1 = handoffs always see an
    /// empty cell).
    pub handoff_discount: f64,
}

impl PriorityPolicy {
    /// The calibration used for the paper-reproduction experiments:
    /// α = 0.3, β = 0.1, δ = 0.6.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            rt_protection_weight: 0.3,
            nrt_protection_weight: 0.1,
            handoff_discount: 0.6,
        }
    }

    /// A policy that disables priority handling entirely (new calls and
    /// handoffs both see the physical occupancy) — this reduces FACS-P to
    /// the plain FLC1/FLC2 cascade (the priority ablation).
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            rt_protection_weight: 0.0,
            nrt_protection_weight: 0.0,
            handoff_discount: 0.0,
        }
    }

    /// Clamp all parameters into their sensible ranges (weights ≥ 0,
    /// discount in `[0, 1]`).
    #[must_use]
    pub fn sanitized(mut self) -> Self {
        self.rt_protection_weight = self.rt_protection_weight.max(0.0);
        self.nrt_protection_weight = self.nrt_protection_weight.max(0.0);
        self.handoff_discount = self.handoff_discount.clamp(0.0, 1.0);
        self
    }

    /// The counter state (in BU) FLC2 should be shown for a request at
    /// `station`, given whether the request is a handoff of an on-going
    /// connection.
    #[must_use]
    pub fn effective_counter_state(&self, station: &BaseStation, is_handoff: bool) -> f64 {
        let occupied = f64::from(station.occupied());
        let capacity = f64::from(station.capacity());
        if is_handoff {
            (occupied * (1.0 - self.handoff_discount.clamp(0.0, 1.0))).max(0.0)
        } else {
            let inflated = occupied
                + self.rt_protection_weight.max(0.0) * f64::from(station.rtc())
                + self.nrt_protection_weight.max(0.0) * f64::from(station.nrtc());
            inflated.min(capacity)
        }
    }

    /// Effective counter state additionally adjusted for the priority of
    /// the requesting connection (the future-work extension).
    #[must_use]
    pub fn effective_counter_state_with_request_priority(
        &self,
        station: &BaseStation,
        is_handoff: bool,
        priority: RequestPriority,
    ) -> f64 {
        let base = self.effective_counter_state(station, is_handoff);
        (base * priority.counter_state_factor()).min(f64::from(station.capacity()))
    }
}

impl Default for PriorityPolicy {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim::geometry::{CellId, Point};

    fn loaded_station() -> BaseStation {
        let mut s = BaseStation::new(CellId::origin(), Point::default(), 40);
        // 10 BU video (RT), 5 BU voice (RT), 3 BU text (NRT) => occupied 18.
        s.admit(1, ServiceClass::Video, 10, 0.0, 100.0, false)
            .unwrap();
        s.admit(2, ServiceClass::Voice, 5, 0.0, 100.0, false)
            .unwrap();
        s.admit(3, ServiceClass::Text, 1, 0.0, 100.0, false)
            .unwrap();
        s.admit(4, ServiceClass::Text, 1, 0.0, 100.0, false)
            .unwrap();
        s.admit(5, ServiceClass::Text, 1, 0.0, 100.0, false)
            .unwrap();
        s
    }

    #[test]
    fn differentiated_service_classification() {
        assert_eq!(
            DifferentiatedService::classify(ServiceClass::Voice),
            DifferentiatedService::RealTime
        );
        assert_eq!(
            DifferentiatedService::classify(ServiceClass::Video),
            DifferentiatedService::RealTime
        );
        assert_eq!(
            DifferentiatedService::classify(ServiceClass::Text),
            DifferentiatedService::NonRealTime
        );
        assert!(DifferentiatedService::RealTime.is_real_time());
        assert!(!DifferentiatedService::NonRealTime.is_real_time());
    }

    #[test]
    fn new_calls_see_inflated_counter_state() {
        let station = loaded_station();
        assert_eq!(station.occupied(), 18);
        assert_eq!(station.rtc(), 15);
        assert_eq!(station.nrtc(), 3);
        let policy = PriorityPolicy::paper_default();
        let cs = policy.effective_counter_state(&station, false);
        // 18 + 0.3*15 + 0.1*3 = 22.8
        assert!((cs - 22.8).abs() < 1e-9, "got {cs}");
        assert!(cs > f64::from(station.occupied()));
    }

    #[test]
    fn handoffs_see_discounted_counter_state() {
        let station = loaded_station();
        let policy = PriorityPolicy::paper_default();
        let cs = policy.effective_counter_state(&station, true);
        // 18 * (1 - 0.6) = 7.2
        assert!((cs - 7.2).abs() < 1e-9, "got {cs}");
        assert!(cs < f64::from(station.occupied()));
    }

    #[test]
    fn inflation_is_capped_at_capacity() {
        let mut station = BaseStation::new(CellId::origin(), Point::default(), 40);
        for id in 0..3 {
            station
                .admit(id, ServiceClass::Video, 10, 0.0, 100.0, false)
                .unwrap();
        }
        station
            .admit(3, ServiceClass::Voice, 5, 0.0, 100.0, false)
            .unwrap();
        // occupied 35, rtc 35: inflated would be 35 + 0.3*35 = 45.5 > 40.
        let policy = PriorityPolicy::paper_default();
        let cs = policy.effective_counter_state(&station, false);
        assert_eq!(cs, 40.0);
    }

    #[test]
    fn disabled_policy_shows_physical_occupancy() {
        let station = loaded_station();
        let policy = PriorityPolicy::disabled();
        assert_eq!(policy.effective_counter_state(&station, false), 18.0);
        assert_eq!(policy.effective_counter_state(&station, true), 18.0);
    }

    #[test]
    fn sanitize_clamps_bad_parameters() {
        let p = PriorityPolicy {
            rt_protection_weight: -1.0,
            nrt_protection_weight: -0.5,
            handoff_discount: 3.0,
        }
        .sanitized();
        assert_eq!(p.rt_protection_weight, 0.0);
        assert_eq!(p.nrt_protection_weight, 0.0);
        assert_eq!(p.handoff_discount, 1.0);
    }

    #[test]
    fn request_priority_orders_effective_counter_state() {
        let station = loaded_station();
        let policy = PriorityPolicy::paper_default();
        let low = policy.effective_counter_state_with_request_priority(
            &station,
            false,
            RequestPriority::Low,
        );
        let normal = policy.effective_counter_state_with_request_priority(
            &station,
            false,
            RequestPriority::Normal,
        );
        let high = policy.effective_counter_state_with_request_priority(
            &station,
            false,
            RequestPriority::High,
        );
        assert!(high < normal && normal < low);
        assert!(low <= f64::from(station.capacity()));
        assert_eq!(RequestPriority::default(), RequestPriority::Normal);
    }

    #[test]
    fn empty_station_counter_state_is_zero_for_everyone() {
        let station = BaseStation::paper_default();
        let policy = PriorityPolicy::paper_default();
        assert_eq!(policy.effective_counter_state(&station, false), 0.0);
        assert_eq!(policy.effective_counter_state(&station, true), 0.0);
    }
}
