//! User kinematics.
//!
//! FLC1's inputs are the user's *speed* and the *angle* between the user's
//! heading and the direction toward the serving base station: a user heading
//! straight at the base station has angle 0°, one heading directly away has
//! ±180° (the paper's `B1`/`B2` terms).  [`UserState`] carries the kinematic
//! state and computes that angle.  A user keeps the speed and heading it
//! was spawned with ([`spawn_uniform`]) for the whole call: FLC1 reads them
//! once per admission request, and the engines schedule the next handoff
//! from them by straight-line motion ([`UserState::time_to_exit`]).

use crate::geometry::{normalize_angle, Point};
use crate::rng::SimRng;
use crate::SimTime;
use serde::{Deserialize, Serialize};

/// Kinematic state of one mobile user.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UserState {
    /// Position in metres.
    pub position: Point,
    /// Speed in km/h (non-negative).
    pub speed_kmh: f64,
    /// Heading in degrees, counter-clockwise from the +x axis, in
    /// `(-180, 180]`.
    pub heading_deg: f64,
}

impl UserState {
    /// Create a state, normalising the heading and clamping the speed to be
    /// non-negative.
    #[must_use]
    pub fn new(position: Point, speed_kmh: f64, heading_deg: f64) -> Self {
        Self {
            position,
            speed_kmh: speed_kmh.max(0.0),
            heading_deg: normalize_angle(heading_deg),
        }
    }

    /// Speed in metres per second.
    #[must_use]
    pub fn speed_mps(&self) -> f64 {
        self.speed_kmh / 3.6
    }

    /// The angle (degrees, in `(-180, 180]`) between the user's heading and
    /// the direction from the user toward `station`.
    ///
    /// 0° means the user is moving straight toward the station; ±180° means
    /// it is moving directly away.  This is the `An` input of FLC1.
    #[must_use]
    pub fn angle_to_station(&self, station: &Point) -> f64 {
        if self.position.distance(station) < 1e-9 {
            // Standing on top of the base station: any heading is "toward".
            return 0.0;
        }
        let bearing = self.position.bearing_to(station);
        normalize_angle(self.heading_deg - bearing)
    }

    /// Straight-line distance to the station in metres.
    #[must_use]
    pub fn distance_to(&self, station: &Point) -> f64 {
        self.position.distance(station)
    }

    /// Advance the position by `dt` seconds of straight-line motion.
    #[must_use]
    pub fn advanced(&self, dt: SimTime) -> Self {
        let d = self.speed_mps() * dt.max(0.0);
        let rad = self.heading_deg.to_radians();
        Self {
            position: self.position.translated(d * rad.cos(), d * rad.sin()),
            ..*self
        }
    }

    /// Time (seconds) until the user leaves a circle of radius `radius_m`
    /// centred at `center`, assuming straight-line motion; `None` if the
    /// user never leaves (speed 0) or is already outside.
    #[must_use]
    pub fn time_to_exit(&self, center: &Point, radius_m: f64) -> Option<SimTime> {
        let v = self.speed_mps();
        let dx = self.position.x - center.x;
        let dy = self.position.y - center.y;
        let r2 = radius_m * radius_m;
        if dx * dx + dy * dy > r2 {
            return None;
        }
        if v <= 0.0 {
            return None;
        }
        let rad = self.heading_deg.to_radians();
        let (vx, vy) = (v * rad.cos(), v * rad.sin());
        // Solve |p + v t - c|^2 = r^2 for the positive root.
        let a = vx * vx + vy * vy;
        let b = 2.0 * (dx * vx + dy * vy);
        let c = dx * dx + dy * dy - r2;
        let disc = b * b - 4.0 * a * c;
        if disc < 0.0 {
            return None;
        }
        let t = (-b + disc.sqrt()) / (2.0 * a);
        if t.is_finite() && t >= 0.0 {
            Some(t)
        } else {
            None
        }
    }
}

impl Default for UserState {
    fn default() -> Self {
        Self::new(Point::default(), 0.0, 0.0)
    }
}

/// Spawn a user uniformly inside a disc of radius `radius_m` around
/// `center`, with speed and heading drawn uniformly from the given ranges.
pub fn spawn_uniform(
    center: &Point,
    radius_m: f64,
    speed_range_kmh: (f64, f64),
    rng: &mut SimRng,
) -> UserState {
    // Uniform over the disc area: radius ~ sqrt(U).
    let r = radius_m.max(0.0) * rng.uniform(0.0, 1.0).sqrt();
    let theta = rng.uniform(-std::f64::consts::PI, std::f64::consts::PI);
    let pos = center.translated(r * theta.cos(), r * theta.sin());
    let speed = rng.uniform(speed_range_kmh.0, speed_range_kmh.1);
    let heading = rng.uniform(-180.0, 180.0);
    UserState::new(pos, speed, heading)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_normalises_inputs() {
        let s = UserState::new(Point::new(0.0, 0.0), -5.0, 540.0);
        assert_eq!(s.speed_kmh, 0.0);
        assert_eq!(s.heading_deg, 180.0);
    }

    #[test]
    fn speed_conversion() {
        let s = UserState::new(Point::default(), 36.0, 0.0);
        assert!((s.speed_mps() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn angle_to_station_zero_when_heading_at_it() {
        // Station to the east, user heading east -> angle 0.
        let user = UserState::new(Point::new(0.0, 0.0), 50.0, 0.0);
        let station = Point::new(1000.0, 0.0);
        assert!((user.angle_to_station(&station)).abs() < 1e-9);
    }

    #[test]
    fn angle_to_station_180_when_heading_away() {
        let user = UserState::new(Point::new(0.0, 0.0), 50.0, 180.0);
        let station = Point::new(1000.0, 0.0);
        assert!((user.angle_to_station(&station).abs() - 180.0).abs() < 1e-9);
    }

    #[test]
    fn angle_to_station_signed_left_right() {
        let station = Point::new(1000.0, 0.0);
        // Heading 45° left of the station direction.
        let left = UserState::new(Point::new(0.0, 0.0), 50.0, 45.0);
        assert!((left.angle_to_station(&station) - 45.0).abs() < 1e-9);
        let right = UserState::new(Point::new(0.0, 0.0), 50.0, -45.0);
        assert!((right.angle_to_station(&station) + 45.0).abs() < 1e-9);
    }

    #[test]
    fn angle_on_top_of_station_is_zero() {
        let user = UserState::new(Point::new(5.0, 5.0), 50.0, 123.0);
        assert_eq!(user.angle_to_station(&Point::new(5.0, 5.0)), 0.0);
    }

    #[test]
    fn advanced_moves_along_heading() {
        let s = UserState::new(Point::new(0.0, 0.0), 36.0, 90.0); // 10 m/s north
        let s2 = s.advanced(10.0);
        assert!((s2.position.x - 0.0).abs() < 1e-9);
        assert!((s2.position.y - 100.0).abs() < 1e-9);
        // negative dt is treated as zero
        let s3 = s.advanced(-5.0);
        assert_eq!(s3.position, s.position);
    }

    #[test]
    fn time_to_exit_straight_line() {
        // 10 m/s heading east from the centre of a 1000 m cell: exit in 100 s.
        let s = UserState::new(Point::new(0.0, 0.0), 36.0, 0.0);
        let t = s.time_to_exit(&Point::new(0.0, 0.0), 1000.0).unwrap();
        assert!((t - 100.0).abs() < 1e-6);
        // Stationary user never exits.
        let still = UserState::new(Point::new(0.0, 0.0), 0.0, 0.0);
        assert!(still.time_to_exit(&Point::new(0.0, 0.0), 1000.0).is_none());
        // Already outside.
        let outside = UserState::new(Point::new(5000.0, 0.0), 36.0, 0.0);
        assert!(outside
            .time_to_exit(&Point::new(0.0, 0.0), 1000.0)
            .is_none());
    }

    #[test]
    fn time_to_exit_off_center_start() {
        // Start 500 m east of centre heading east at 10 m/s in a 1000 m cell:
        // 500 m to the boundary -> 50 s.
        let s = UserState::new(Point::new(500.0, 0.0), 36.0, 0.0);
        let t = s.time_to_exit(&Point::new(0.0, 0.0), 1000.0).unwrap();
        assert!((t - 50.0).abs() < 1e-6);
    }

    #[test]
    fn spawn_uniform_is_inside_disc() {
        let mut rng = SimRng::new(4);
        let center = Point::new(100.0, -50.0);
        for _ in 0..500 {
            let u = spawn_uniform(&center, 800.0, (0.0, 120.0), &mut rng);
            assert!(u.position.distance(&center) <= 800.0 + 1e-9);
            assert!(u.speed_kmh >= 0.0 && u.speed_kmh <= 120.0);
            assert!(u.heading_deg > -180.0 - 1e-9 && u.heading_deg <= 180.0 + 1e-9);
        }
    }
}
