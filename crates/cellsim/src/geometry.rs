//! Hexagonal cell geometry.
//!
//! Cellular coverage is modelled as the classical hexagonal tessellation:
//! every [`CellId`] is an axial coordinate `(q, r)` on a hex lattice, the
//! base station sits at the cell centre and the cell radius (centre to
//! corner) is configurable.  The Shadow Cluster baseline needs neighbour
//! rings ("bordering" and "non-bordering" neighbours in the paper's
//! terminology), which are provided by [`CellGrid::ring`] and
//! [`CellGrid::cluster`].
//!
//! Each grid also keeps a neighbour table: for every cell, the dense
//! indices of its in-grid neighbours and the bearings to their centres,
//! computed once on first use, so choosing a handoff target
//! ([`CellGrid::next_cell_from`]) costs no trigonometry and no search.

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A point in the 2-D plane, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// X coordinate in metres.
    pub x: f64,
    /// Y coordinate in metres.
    pub y: f64,
}

impl Point {
    /// Construct a point.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another point.
    #[must_use]
    pub fn distance(&self, other: &Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Angle (degrees, in `(-180, 180]`) of the vector from `self` to
    /// `other`, measured counter-clockwise from the positive x axis.
    #[must_use]
    pub fn bearing_to(&self, other: &Point) -> f64 {
        let dy = other.y - self.y;
        let dx = other.x - self.x;
        dy.atan2(dx).to_degrees()
    }

    /// Translate by `(dx, dy)`.
    #[must_use]
    pub fn translated(&self, dx: f64, dy: f64) -> Self {
        Self::new(self.x + dx, self.y + dy)
    }
}

/// Dense index of a cell within a [`CellGrid`]: its position in the
/// grid's sorted [`CellGrid::cells`] order.
///
/// The simulator stores per-cell state (base stations) in flat `Vec`s
/// indexed by `CellIdx`, so the hot paths never hash a [`CellId`]; the
/// `CellId ↔ CellIdx` mapping is fixed at grid construction
/// ([`CellGrid::index_of`]) and iteration in index order is deterministic
/// by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellIdx(pub u32);

impl CellIdx {
    /// The index as a `usize`, for direct slice indexing.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CellIdx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell#{}", self.0)
    }
}

/// Axial coordinates of a hexagonal cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellId {
    /// Axial q coordinate (column).
    pub q: i32,
    /// Axial r coordinate (row).
    pub r: i32,
}

impl CellId {
    /// The cell at axial coordinates `(q, r)`.
    #[must_use]
    pub const fn new(q: i32, r: i32) -> Self {
        Self { q, r }
    }

    /// The origin cell `(0, 0)`.
    #[must_use]
    pub const fn origin() -> Self {
        Self { q: 0, r: 0 }
    }

    /// The six axial direction offsets, counter-clockwise starting east.
    pub const DIRECTIONS: [(i32, i32); 6] = [(1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)];

    /// The six direct neighbours of this cell.
    #[must_use]
    pub fn neighbors(&self) -> [CellId; 6] {
        let mut out = [*self; 6];
        for (i, (dq, dr)) in Self::DIRECTIONS.iter().enumerate() {
            out[i] = CellId::new(self.q + dq, self.r + dr);
        }
        out
    }

    /// Hex (lattice) distance to another cell.
    #[must_use]
    pub fn distance(&self, other: &CellId) -> u32 {
        let dq = (self.q - other.q).abs();
        let dr = (self.r - other.r).abs();
        let ds = (self.q + self.r - other.q - other.r).abs();
        ((dq + dr + ds) / 2) as u32
    }

    /// `true` if `other` shares an edge with this cell.
    #[must_use]
    pub fn is_adjacent(&self, other: &CellId) -> bool {
        self.distance(other) == 1
    }
}

impl std::fmt::Display for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell({}, {})", self.q, self.r)
    }
}

/// A cell's in-grid neighbours, in [`CellId::DIRECTIONS`] order: their
/// dense indices and the bearings from the cell's centre to theirs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Neighbours {
    len: usize,
    cells: [u32; 6],
    bearings: [f64; 6],
}

impl Neighbours {
    /// The neighbour whose bearing is closest to `heading_deg`; the first
    /// in direction order on a tie.
    #[inline]
    fn pick(&self, heading_deg: f64) -> Option<CellIdx> {
        let mut best: Option<(f64, u32)> = None;
        for (&cell, &bearing) in self.cells.iter().zip(&self.bearings).take(self.len) {
            let diff = angle_difference(heading_deg, bearing).abs();
            match best {
                Some((d, _)) if d <= diff => {}
                _ => best = Some((diff, cell)),
            }
        }
        best.map(|(_, cell)| CellIdx(cell))
    }
}

/// A finite hexagonal cell layout centred on [`CellId::origin`].
///
/// The grid is a "hexagon of hexagons": all cells within `radius_cells` hex
/// steps of the origin.  `radius_cells = 0` is the single-cell layout used
/// by the paper's experiments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellGrid {
    radius_cells: u32,
    cell_radius_m: f64,
    cells: Vec<CellId>,
    /// Every cell's [`Neighbours`], in dense order, built on first use.
    /// Derived state: serde skips it and equality ignores it.
    #[serde(skip)]
    neighbours: OnceLock<Vec<Neighbours>>,
}

impl PartialEq for CellGrid {
    fn eq(&self, other: &Self) -> bool {
        // The neighbour table is a function of the rest.
        self.radius_cells == other.radius_cells
            && self.cell_radius_m == other.cell_radius_m
            && self.cells == other.cells
    }
}

impl CellGrid {
    /// Build a grid of all cells within `radius_cells` hops of the origin,
    /// each with a centre-to-corner radius of `cell_radius_m` metres.
    #[must_use]
    pub fn new(radius_cells: u32, cell_radius_m: f64) -> Self {
        let cell_radius_m = Self::effective_radius(cell_radius_m);
        let r = radius_cells as i32;
        let mut cells = Vec::new();
        for q in -r..=r {
            let r_lo = (-r).max(-q - r);
            let r_hi = r.min(-q + r);
            for rr in r_lo..=r_hi {
                cells.push(CellId::new(q, rr));
            }
        }
        cells.sort();
        Self {
            radius_cells,
            cell_radius_m,
            cells,
            neighbours: OnceLock::new(),
        }
    }

    /// The neighbour table, built on first use: grids that never pick a
    /// handoff target (a Shadow Cluster controller builds one per cell)
    /// never pay its trigonometry.
    fn neighbour_table(&self) -> &[Neighbours] {
        self.neighbours
            .get_or_init(|| self.cells.iter().map(|c| self.neighbours_of(c)).collect())
    }

    /// The in-grid neighbours of `cell` (which need not be in the grid).
    fn neighbours_of(&self, cell: &CellId) -> Neighbours {
        let center = self.center_of(cell);
        let mut row = Neighbours {
            len: 0,
            cells: [0; 6],
            bearings: [0.0; 6],
        };
        for n in cell.neighbors() {
            let Some(idx) = self.index_of(&n) else {
                continue;
            };
            row.cells[row.len] = idx.0;
            row.bearings[row.len] = center.bearing_to(&self.center_of(&n));
            row.len += 1;
        }
        row
    }

    /// The single-cell layout used by the paper's evaluation.
    #[must_use]
    pub fn single_cell(cell_radius_m: f64) -> Self {
        Self::new(0, cell_radius_m)
    }

    /// The cell radius [`CellGrid::new`] actually uses for a requested
    /// radius: non-positive (or NaN) requests fall back to 500 m.  Exposed
    /// so callers that compare a configuration against an existing grid
    /// (e.g. `Simulator::reset`) apply the identical clamp.
    #[must_use]
    pub fn effective_radius(cell_radius_m: f64) -> f64 {
        if cell_radius_m > 0.0 {
            cell_radius_m
        } else {
            500.0
        }
    }

    /// All cells of the grid, sorted.
    #[must_use]
    pub fn cells(&self) -> &[CellId] {
        &self.cells
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if the grid has no cells (never happens via the constructor).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Cell radius (centre to corner) in metres.
    #[must_use]
    pub fn cell_radius_m(&self) -> f64 {
        self.cell_radius_m
    }

    /// Grid radius in cells.
    #[must_use]
    pub fn radius_cells(&self) -> u32 {
        self.radius_cells
    }

    /// `true` if `cell` belongs to the grid.
    #[must_use]
    pub fn contains(&self, cell: &CellId) -> bool {
        cell.distance(&CellId::origin()) <= self.radius_cells
    }

    /// The dense index of `cell` in [`CellGrid::cells`] order, or `None`
    /// when the cell is outside the grid.  `cells()` is sorted, so this is
    /// a binary search — no hashing, no allocation.
    #[must_use]
    pub fn index_of(&self, cell: &CellId) -> Option<CellIdx> {
        self.cells
            .binary_search(cell)
            .ok()
            .map(|i| CellIdx(i as u32))
    }

    /// The cell at dense index `idx`.
    ///
    /// # Panics
    /// Panics when `idx` is out of range for this grid.
    #[must_use]
    pub fn cell_id(&self, idx: CellIdx) -> CellId {
        self.cells[idx.index()]
    }

    /// Cartesian position of a cell's centre (pointy-top hex layout).
    #[must_use]
    pub fn center_of(&self, cell: &CellId) -> Point {
        let size = self.cell_radius_m;
        let x = size * 3f64.sqrt() * (cell.q as f64 + cell.r as f64 / 2.0);
        let y = size * 1.5 * cell.r as f64;
        Point::new(x, y)
    }

    /// The cell whose centre is nearest to a Cartesian position (restricted
    /// to cells of the grid).
    #[must_use]
    pub fn cell_at(&self, p: &Point) -> CellId {
        let mut best = CellId::origin();
        let mut best_d = f64::INFINITY;
        for c in &self.cells {
            let d = self.center_of(c).distance(p);
            if d < best_d {
                best_d = d;
                best = *c;
            }
        }
        best
    }

    /// All grid cells exactly `distance` hops from `center`.
    #[must_use]
    pub fn ring(&self, center: &CellId, distance: u32) -> Vec<CellId> {
        self.cells
            .iter()
            .copied()
            .filter(|c| c.distance(center) == distance)
            .collect()
    }

    /// All grid cells within `distance` hops of `center` (inclusive), i.e. a
    /// shadow-cluster footprint.  The centre cell itself is included.
    #[must_use]
    pub fn cluster(&self, center: &CellId, distance: u32) -> Vec<CellId> {
        self.cells
            .iter()
            .copied()
            .filter(|c| c.distance(center) <= distance)
            .collect()
    }

    /// The bordering neighbours of `center` that exist in the grid
    /// (the paper's "bordering neighbor" cells), in
    /// [`CellId::DIRECTIONS`] order.
    #[must_use]
    pub fn bordering_neighbors(&self, center: &CellId) -> Vec<CellId> {
        center
            .neighbors()
            .into_iter()
            .filter(|c| self.index_of(c).is_some())
            .collect()
    }

    /// The neighbour cell a user moving from `from_cell` with heading
    /// `heading_deg` (counter-clockwise from +x) is most likely to enter
    /// next: the in-grid neighbour whose centre's bearing is closest to the
    /// heading, or `None` if `from_cell` has no neighbour in the grid.
    #[must_use]
    pub fn next_cell_along(&self, from_cell: &CellId, heading_deg: f64) -> Option<CellId> {
        let next = match self.index_of(from_cell) {
            Some(idx) => self.next_cell_from(idx, heading_deg),
            None => self.neighbours_of(from_cell).pick(heading_deg),
        };
        next.map(|idx| self.cell_id(idx))
    }

    /// [`CellGrid::next_cell_along`] for the grid cell at dense index
    /// `from`, read from the neighbour table.
    ///
    /// # Panics
    /// Panics when `from` is out of range for this grid.
    #[must_use]
    #[inline]
    pub fn next_cell_from(&self, from: CellIdx, heading_deg: f64) -> Option<CellIdx> {
        self.neighbour_table()[from.index()].pick(heading_deg)
    }
}

impl Default for CellGrid {
    fn default() -> Self {
        Self::single_cell(500.0)
    }
}

/// Signed smallest difference `a - b` between two angles in degrees,
/// normalised into `(-180, 180]`.
#[must_use]
pub fn angle_difference(a: f64, b: f64) -> f64 {
    normalize_angle(a - b)
}

/// Normalise an angle in degrees into `(-180, 180]`.
#[must_use]
pub fn normalize_angle(mut deg: f64) -> f64 {
    if !deg.is_finite() {
        return 0.0;
    }
    // `deg % 360.0` is `deg` itself below one turn; skip the libm call.
    if deg.abs() >= 360.0 {
        deg %= 360.0;
    }
    if deg > 180.0 {
        deg -= 360.0;
    } else if deg <= -180.0 {
        deg += 360.0;
    }
    deg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance_and_bearing() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        let east = Point::new(10.0, 0.0);
        let north = Point::new(0.0, 10.0);
        assert!((a.bearing_to(&east) - 0.0).abs() < 1e-12);
        assert!((a.bearing_to(&north) - 90.0).abs() < 1e-12);
        let c = a.translated(1.0, -2.0);
        assert_eq!(c, Point::new(1.0, -2.0));
    }

    #[test]
    fn cellid_neighbors_are_adjacent() {
        let c = CellId::new(2, -1);
        for n in c.neighbors() {
            assert_eq!(c.distance(&n), 1);
            assert!(c.is_adjacent(&n));
        }
        assert!(!c.is_adjacent(&c));
    }

    #[test]
    fn hex_distance_examples() {
        let o = CellId::origin();
        assert_eq!(o.distance(&o), 0);
        assert_eq!(o.distance(&CellId::new(3, 0)), 3);
        assert_eq!(o.distance(&CellId::new(2, -1)), 2);
        assert_eq!(o.distance(&CellId::new(-2, 2)), 2);
        // symmetry
        let a = CellId::new(1, -3);
        let b = CellId::new(-2, 2);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn grid_sizes_follow_centered_hexagonal_numbers() {
        // 1, 7, 19, 37 cells for radius 0..3
        assert_eq!(CellGrid::new(0, 500.0).len(), 1);
        assert_eq!(CellGrid::new(1, 500.0).len(), 7);
        assert_eq!(CellGrid::new(2, 500.0).len(), 19);
        assert_eq!(CellGrid::new(3, 500.0).len(), 37);
    }

    #[test]
    fn single_cell_grid_contains_only_origin() {
        let g = CellGrid::single_cell(500.0);
        assert_eq!(g.cells(), &[CellId::origin()]);
        assert!(g.contains(&CellId::origin()));
        assert!(!g.contains(&CellId::new(1, 0)));
        assert!(!g.is_empty());
    }

    #[test]
    fn centers_are_separated_by_sqrt3_radius() {
        let g = CellGrid::new(1, 500.0);
        let o = g.center_of(&CellId::origin());
        for n in CellId::origin().neighbors() {
            let d = o.distance(&g.center_of(&n));
            assert!((d - 500.0 * 3f64.sqrt()).abs() < 1e-6, "{d}");
        }
    }

    #[test]
    fn cell_at_returns_nearest_center() {
        let g = CellGrid::new(2, 500.0);
        for c in g.cells() {
            let center = g.center_of(c);
            assert_eq!(g.cell_at(&center), *c);
            // a point slightly off-centre still maps to the same cell
            let off = center.translated(50.0, -30.0);
            assert_eq!(g.cell_at(&off), *c);
        }
    }

    #[test]
    fn rings_and_clusters() {
        let g = CellGrid::new(2, 500.0);
        assert_eq!(g.ring(&CellId::origin(), 0), vec![CellId::origin()]);
        assert_eq!(g.ring(&CellId::origin(), 1).len(), 6);
        assert_eq!(g.ring(&CellId::origin(), 2).len(), 12);
        assert_eq!(g.cluster(&CellId::origin(), 1).len(), 7);
        assert_eq!(g.cluster(&CellId::origin(), 2).len(), 19);
        // cluster around an edge cell is clipped by the grid boundary
        let edge = CellId::new(2, 0);
        assert!(g.cluster(&edge, 1).len() < 7);
    }

    #[test]
    fn bordering_neighbors_clipped_at_edge() {
        let g = CellGrid::new(1, 500.0);
        assert_eq!(g.bordering_neighbors(&CellId::origin()).len(), 6);
        let edge = CellId::new(1, 0);
        let n = g.bordering_neighbors(&edge);
        assert!(n.len() < 6);
        assert!(n.contains(&CellId::origin()));
    }

    #[test]
    fn bordering_neighbors_keep_their_order_on_edges_and_metro_grids() {
        // The membership test the grid used to run: a set of every cell.
        fn reference(g: &CellGrid, center: &CellId) -> Vec<CellId> {
            let exist: std::collections::HashSet<CellId> = g.cells().iter().copied().collect();
            center
                .neighbors()
                .into_iter()
                .filter(|c| exist.contains(c))
                .collect()
        }
        // The paper-sized grids, and the 2107-cell metro grid.
        for radius in [0, 1, 2, 26] {
            let g = CellGrid::new(radius, 500.0);
            // Every grid cell, plus cells one and two hops beyond the edge.
            let beyond = (radius + 2) as i32;
            for q in -beyond..=beyond {
                for r in -beyond..=beyond {
                    let center = CellId::new(q, r);
                    assert_eq!(
                        g.bordering_neighbors(&center),
                        reference(&g, &center),
                        "radius {radius}, centre {center}"
                    );
                }
            }
        }
        assert_eq!(CellGrid::new(26, 500.0).len(), 2107);
        // An edge cell of the metro grid keeps the DIRECTIONS order.
        let metro = CellGrid::new(26, 500.0);
        assert_eq!(
            metro.bordering_neighbors(&CellId::new(26, 0)),
            vec![CellId::new(26, -1), CellId::new(25, 0), CellId::new(25, 1)]
        );
    }

    #[test]
    fn next_cell_along_heading() {
        let g = CellGrid::new(1, 500.0);
        // Heading due east from the origin should enter cell (1, 0).
        let next = g.next_cell_along(&CellId::origin(), 0.0).unwrap();
        assert_eq!(next, CellId::new(1, 0));
        // Heading due west should enter (-1, 0).
        let next = g.next_cell_along(&CellId::origin(), 180.0).unwrap();
        assert_eq!(next, CellId::new(-1, 0));
        // From an eastern edge cell heading east there is no grid cell.
        assert!(
            g.next_cell_along(&CellId::new(1, 0), 0.0).is_none()
                || g.next_cell_along(&CellId::new(1, 0), 0.0).is_some()
        );
        // Single-cell grid has no neighbours at all.
        let single = CellGrid::single_cell(500.0);
        assert!(single.next_cell_along(&CellId::origin(), 0.0).is_none());
    }

    /// The bearing loop `next_cell_along` ran before the neighbour table.
    fn next_cell_by_bearing_loop(g: &CellGrid, from: &CellId, heading_deg: f64) -> Option<CellId> {
        let from_center = g.center_of(from);
        let mut best: Option<(f64, CellId)> = None;
        for n in from.neighbors() {
            if !g.contains(&n) {
                continue;
            }
            let bearing = from_center.bearing_to(&g.center_of(&n));
            let diff = angle_difference(heading_deg, bearing).abs();
            match best {
                Some((d, _)) if d <= diff => {}
                _ => best = Some((diff, n)),
            }
        }
        best.map(|(_, c)| c)
    }

    #[test]
    fn neighbour_table_picks_what_the_bearing_loop_picked() {
        let g = CellGrid::new(26, 500.0);
        assert_eq!(g.len(), 2107);
        let mut headings = Vec::new();
        for (i, cell) in g.cells().iter().enumerate() {
            let center = g.center_of(cell);
            // Every 0.5°, and each neighbour's exact bearing and the floats
            // one ulp either side of it (where ties flip).
            headings.clear();
            headings.extend((0..=720).map(|k| -180.0 + 0.5 * f64::from(k)));
            for n in cell.neighbors().iter().filter(|n| g.contains(n)) {
                let b = center.bearing_to(&g.center_of(n));
                let (below, above) = if b == 0.0 {
                    (-f64::from_bits(1), f64::from_bits(1))
                } else {
                    (
                        f64::from_bits(b.to_bits() - 1),
                        f64::from_bits(b.to_bits() + 1),
                    )
                };
                headings.extend([below, b, above]);
            }
            for &h in &headings {
                let want = next_cell_by_bearing_loop(&g, cell, h);
                let got = g
                    .next_cell_from(CellIdx(i as u32), h)
                    .map(|idx| g.cell_id(idx));
                assert_eq!(got, want, "from {cell} at heading {h:?}");
                assert_eq!(
                    g.next_cell_along(cell, h),
                    want,
                    "from {cell} at heading {h:?}"
                );
            }
        }
        // Cells outside the grid still pick among their in-grid neighbours.
        for (cell, h) in [(CellId::new(27, 0), 180.0), (CellId::new(40, 0), 0.0)] {
            assert_eq!(
                g.next_cell_along(&cell, h),
                next_cell_by_bearing_loop(&g, &cell, h)
            );
        }
    }

    #[test]
    fn the_neighbour_table_is_built_on_first_use_and_stays_off_the_wire() {
        let g = CellGrid::new(3, 250.0);
        let json = serde_json::to_string(&g).unwrap();
        assert!(
            !json.contains("neighbours"),
            "derived state stays off the wire"
        );
        let back: CellGrid = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
        assert!(back.neighbours.get().is_none());
        assert!(
            CellGrid::new(3, 250.0).neighbours.get().is_none(),
            "built on first use"
        );
        for i in 0..g.len() as u32 {
            for h in [-179.5, -90.0, 0.0, 33.0, 180.0] {
                assert_eq!(
                    back.next_cell_from(CellIdx(i), h),
                    g.next_cell_from(CellIdx(i), h)
                );
            }
        }
        assert_eq!(back.neighbours.get(), g.neighbours.get());
    }

    #[test]
    fn normalisation_below_one_turn_is_exact() {
        // What `deg %= 360.0` returned for every input, as the fast path
        // must.
        let fmod = |mut deg: f64| {
            deg %= 360.0;
            if deg > 180.0 {
                deg -= 360.0;
            } else if deg <= -180.0 {
                deg += 360.0;
            }
            deg
        };
        let mut x = 1u64;
        for k in 0..100_000 {
            x = crate::rng::mix64(x);
            let deg = match k % 4 {
                0 => (x >> 11) as f64 / (1u64 << 53) as f64 * 1440.0 - 720.0,
                1 => f64::from_bits(360f64.to_bits() - (x % 4)),
                2 => -f64::from_bits(360f64.to_bits() - (x % 4)),
                _ => (x % 2001) as f64 * 0.5 - 500.0,
            };
            assert_eq!(
                normalize_angle(deg).to_bits(),
                fmod(deg).to_bits(),
                "{deg:?}"
            );
        }
        for deg in [
            0.0, -0.0, 180.0, -180.0, 360.0, -360.0, 540.0, 1e300, -1e-300,
        ] {
            assert_eq!(
                normalize_angle(deg).to_bits(),
                fmod(deg).to_bits(),
                "{deg:?}"
            );
        }
    }

    #[test]
    fn angle_normalisation() {
        assert_eq!(normalize_angle(0.0), 0.0);
        assert_eq!(normalize_angle(190.0), -170.0);
        assert_eq!(normalize_angle(-190.0), 170.0);
        assert_eq!(normalize_angle(360.0), 0.0);
        assert_eq!(normalize_angle(540.0), 180.0);
        assert_eq!(normalize_angle(f64::NAN), 0.0);
        assert!((angle_difference(170.0, -170.0) - (-20.0)).abs() < 1e-12);
        assert!((angle_difference(-170.0, 170.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn dense_indices_round_trip_and_follow_sorted_order() {
        let g = CellGrid::new(2, 500.0);
        for (i, c) in g.cells().iter().enumerate() {
            let idx = g.index_of(c).unwrap();
            assert_eq!(idx, CellIdx(i as u32));
            assert_eq!(idx.index(), i);
            assert_eq!(g.cell_id(idx), *c);
        }
        // Outside cells have no index.
        assert!(g.index_of(&CellId::new(3, 0)).is_none());
        assert_eq!(CellIdx(4).to_string(), "cell#4");
    }

    #[test]
    fn default_grid_is_single_cell() {
        assert_eq!(CellGrid::default().len(), 1);
    }

    #[test]
    fn zero_cell_radius_falls_back_to_default() {
        let g = CellGrid::new(1, 0.0);
        assert!(g.cell_radius_m() > 0.0);
    }
}
