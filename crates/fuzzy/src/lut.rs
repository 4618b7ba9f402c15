//! LUT-backed policies: pre-tabulated 2-input controllers.
//!
//! A compiled FLC is already allocation-free, but it still walks its rule
//! base and aggregates sampled sets on every call.  When a controller has
//! exactly two crisp inputs, the entire input→output surface can be
//! quantised once into a [`Lut2d`]; the execute path then degenerates to a
//! bilinear interpolation over four table cells — a handful of multiplies,
//! independent of rule count and resolution.
//!
//! Tabulation evaluates the generating function a *line* at a time: one
//! call `f(x, ys, out)` writes `f(x, ys[k])` into `out[k]` for a whole
//! column of points that share their `x`.  A compiled engine serves a
//! line with [`CompiledEngine::infer_line`], which fuzzifies the fixed
//! input once and skips aggregation and defuzzification wherever a point
//! fires the same term heights as the one before it; the work is ordered
//! into long columns for that reason.
//!
//! [`Lut2d::tabulate_refined`] (from a compiled engine) and
//! [`Lut2d::tabulate_fn_refined`] (from a line function) build a uniform
//! base grid plus dense *local patches* in exactly the cells whose probed
//! error exceeds a target.  Mamdani decision surfaces are smooth almost
//! everywhere but carry narrow kink bands (where the set of firing rules
//! changes); a uniform grid must pay the kink density everywhere, while
//! the two-level table pays it only along the bands — orders of magnitude
//! less memory and tabulation work for the same error bound.  A target no
//! cell exceeds leaves the base grid unpatched.
//!
//! Tabulation *measures* its own accuracy: the generating function is
//! re-evaluated on a 3x3 probe lattice inside every base cell and at every
//! patch sub-cell midpoint, and the largest deviation is kept as
//! [`Lut2d::max_error`].  Callers pick grid density / error target
//! against that number instead of guessing.
//!
//! # Quick example
//!
//! ```
//! use fuzzy::prelude::*;
//!
//! let x = LinguisticVariable::builder("x", 0.0, 1.0)
//!     .triangle("lo", 0.0, 0.0, 1.0)
//!     .triangle("hi", 0.0, 1.0, 1.0)
//!     .build()
//!     .unwrap();
//! let y = LinguisticVariable::builder("y", 0.0, 1.0)
//!     .triangle("lo", 0.0, 0.0, 1.0)
//!     .triangle("hi", 0.0, 1.0, 1.0)
//!     .build()
//!     .unwrap();
//! let out = LinguisticVariable::builder("out", 0.0, 1.0)
//!     .triangle("no", 0.0, 0.0, 1.0)
//!     .triangle("yes", 0.0, 1.0, 1.0)
//!     .build()
//!     .unwrap();
//! let mut engine = MamdaniEngine::builder()
//!     .input(x)
//!     .input(y)
//!     .output(out)
//!     .build()
//!     .unwrap();
//! // Yes when both inputs are high, no otherwise.
//! for (x, y, out) in [
//!     ("hi", "hi", "yes"),
//!     ("hi", "lo", "no"),
//!     ("lo", "hi", "no"),
//!     ("lo", "lo", "no"),
//! ] {
//!     engine.add_rule(Rule::row(&[("x", x), ("y", y)], "out", out)).unwrap();
//! }
//!
//! let compiled = engine.compile().unwrap();
//! let lut = Lut2d::tabulate_refined(&compiled, (33, 33), 1e-3, 65).unwrap();
//! let exact = compiled.infer(&[0.8, 0.7])[0];
//! assert!((lut.lookup(0.8, 0.7) - exact).abs() <= lut.max_error() + 1e-12);
//! ```

use crate::compile::{CompiledEngine, Scratch, VarId};
use crate::error::{FuzzyError, Result};

/// One block of [`Lut2d::sample_blocks`]: `(cell, (nx, ny), samples)`.
type SampleBlock<'a> = (Option<(usize, usize)>, (usize, usize), &'a [f64]);

/// Sentinel in the patch index: "this cell has no refinement patch".
const NO_PATCH: u32 = u32::MAX;

/// A dense local refinement of one base cell: an `nx × ny` uniform
/// sub-grid spanning the cell (corners included).  The two axes are sized
/// independently — a kink band running along one axis needs density only
/// across it.
#[derive(Debug, Clone, PartialEq)]
struct Patch {
    /// Nodes along x (`>= 2`).
    nx: u32,
    /// Nodes along y (`>= 2`).
    ny: u32,
    /// Row-major `nx * ny` samples, `values[sx * ny + sy]`.
    values: Vec<f64>,
}

/// A quantised 2-input policy surface with bilinear interpolation.
///
/// Built with [`Lut2d::tabulate_refined`] (from a 2-input, 1-output
/// [`CompiledEngine`]) or [`Lut2d::tabulate_fn_refined`] (from any line
/// function `f(x, ys, out)` that writes `f(x, ys[k])` into `out[k]`, e.g. a
/// wider controller with some inputs pinned); both add local patches until
/// a target error is met.
#[derive(Debug, Clone, PartialEq)]
pub struct Lut2d {
    x_min: f64,
    x_max: f64,
    y_min: f64,
    y_max: f64,
    nx: usize,
    ny: usize,
    /// Row-major `nx * ny` base samples: `values[ix * ny + iy]`.
    values: Vec<f64>,
    /// `(nx-1) * (ny-1)` patch slots.
    patch_index: Vec<u32>,
    patches: Vec<Patch>,
    max_error: f64,
}

impl Lut2d {
    /// Tabulate a compiled engine on a uniform base grid, then refine every
    /// cell whose probed error exceeds `target_error` with a dense local
    /// patch (up to `max_patch_nodes` nodes per side).
    pub fn tabulate_refined(
        engine: &CompiledEngine,
        base: (usize, usize),
        target_error: f64,
        max_patch_nodes: usize,
    ) -> Result<Self> {
        let ((x_min, x_max), (y_min, y_max)) = engine_bounds(engine)?;
        let mut scratch = engine.scratch();
        Self::tabulate_fn_refined(
            x_min,
            x_max,
            y_min,
            y_max,
            base,
            target_error,
            max_patch_nodes,
            engine_line(engine, &mut scratch),
        )
    }

    /// Tabulate an arbitrary 2-input function on a uniform base grid and
    /// refine until every probed midpoint error is at or below
    /// `target_error` (or the per-cell patch density cap
    /// `max_patch_nodes` is reached).
    ///
    /// Patch sizes are chosen from the measured cell error (kink-band
    /// error shrinks linearly with sample spacing) and verified at every
    /// sub-cell midpoint, doubling until the target or the cap is met, so
    /// [`Lut2d::max_error`] reflects the final refined table.
    ///
    /// `f(x, ys, out)` writes `f(x, ys[k])` into `out[k]`.  The work runs
    /// in columns: the base grid, then every cell's 3x3 probes, then each
    /// refined cell's patch samples and their verification.
    #[allow(clippy::too_many_arguments)]
    pub fn tabulate_fn_refined(
        x_min: f64,
        x_max: f64,
        y_min: f64,
        y_max: f64,
        (nx, ny): (usize, usize),
        target_error: f64,
        max_patch_nodes: usize,
        mut f: impl FnMut(f64, &[f64], &mut [f64]),
    ) -> Result<Self> {
        if !(target_error.is_finite() && target_error > 0.0) {
            return Err(FuzzyError::InvalidLut {
                reason: format!("target error must be positive, got {target_error}"),
            });
        }
        if !(x_min.is_finite() && x_max.is_finite() && y_min.is_finite() && y_max.is_finite())
            || x_min >= x_max
            || y_min >= y_max
        {
            return Err(FuzzyError::InvalidLut {
                reason: format!(
                    "bounds must be finite, non-degenerate intervals, got \
                     [{x_min}, {x_max}] x [{y_min}, {y_max}]"
                ),
            });
        }
        if nx < 2 || ny < 2 {
            return Err(FuzzyError::InvalidLut {
                reason: format!("grid must be at least 2 x 2, got {nx} x {ny}"),
            });
        }
        let max_patch_nodes = max_patch_nodes.clamp(3, 1025);
        let ys: Vec<f64> = (0..ny)
            .map(|j| y_min + (y_max - y_min) * (j as f64) / ((ny - 1) as f64))
            .collect();
        let mut values = vec![0.0; nx * ny];
        for (i, column) in values.chunks_exact_mut(ny).enumerate() {
            let x = x_min + (x_max - x_min) * (i as f64) / ((nx - 1) as f64);
            f(x, &ys, column);
        }
        let mut lut = Self {
            x_min,
            x_max,
            y_min,
            y_max,
            nx,
            ny,
            values,
            patch_index: vec![NO_PATCH; (nx - 1) * (ny - 1)],
            patches: Vec::new(),
            max_error: 0.0,
        };
        let cell_errors = lut.probe_cells(&mut f);
        let mut line = LineBuffers::default();

        let mut max_error = 0.0f64;
        for i in 0..nx - 1 {
            for j in 0..ny - 1 {
                let cell_error = cell_errors[lut.patch_slot(i, j)];
                if cell_error <= target_error {
                    max_error = max_error.max(cell_error);
                    continue;
                }
                // Size each patch axis independently from the pure-axis
                // errors measured on the cell's edge midlines (kink-band
                // error decays first-order with sample spacing), verify at
                // sub-midpoints, escalate to the cap if the estimate fell
                // short.
                let (ex, ey) = lut.probe_cell_axes(i, j, &mut f);
                let mut sub_x =
                    patch_nodes_for(ex.max(cell_error * 0.25) / target_error).min(max_patch_nodes);
                let mut sub_y =
                    patch_nodes_for(ey.max(cell_error * 0.25) / target_error).min(max_patch_nodes);
                let patch_error = loop {
                    let patch = lut.sample_patch(i, j, sub_x, sub_y, &mut line, &mut f);
                    let err = lut.verify_patch(i, j, &patch, &mut line, &mut f);
                    let keep = err <= target_error
                        || (sub_x >= max_patch_nodes && sub_y >= max_patch_nodes);
                    if keep {
                        let slot = lut.patch_slot(i, j);
                        lut.patch_index[slot] = lut.patches.len() as u32;
                        lut.patches.push(patch);
                        break err;
                    }
                    sub_x = ((sub_x - 1) * 2 + 1).min(max_patch_nodes);
                    sub_y = ((sub_y - 1) * 2 + 1).min(max_patch_nodes);
                };
                max_error = max_error.max(patch_error);
            }
        }
        lut.max_error = max_error;
        Ok(lut)
    }

    /// Bilinear interpolation of the tabulated surface at `(x, y)`;
    /// coordinates are clamped into the tabulated rectangle.
    #[must_use]
    pub fn lookup(&self, x: f64, y: f64) -> f64 {
        self.lookup_at(self.x_pos(x), self.y_pos(y))
    }

    /// [`Lut2d::lookup`] at the base-cell positions of `x` and `y`.
    fn lookup_at(&self, (ix, fx): (usize, f64), (iy, fy): (usize, f64)) -> f64 {
        let pidx = self.patch_index[self.patch_slot(ix, iy)];
        if pidx != NO_PATCH {
            return self.patches[pidx as usize].lookup(fx, fy);
        }
        bilinear(&self.values, self.ny, (ix, fx), (iy, fy))
    }

    /// The base cell along x holding `x`, and `x`'s fraction across it.
    fn x_pos(&self, x: f64) -> (usize, f64) {
        node_pos(grid_pos(x, self.x_min, self.x_max, self.nx), self.nx)
    }

    /// The base cell along y holding `y`, and `y`'s fraction across it.
    fn y_pos(&self, y: f64) -> (usize, f64) {
        node_pos(grid_pos(y, self.y_min, self.y_max, self.ny), self.ny)
    }

    /// The largest interpolation error measured during tabulation: over
    /// each unpatched base cell's 3x3 probe lattice and each patch's
    /// sub-cell midpoints.
    #[must_use]
    pub fn max_error(&self) -> f64 {
        self.max_error
    }

    /// The base grid dimensions `(nx, ny)`.
    #[must_use]
    pub fn resolution(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Number of refined cells (0 when no base cell exceeded the target).
    #[must_use]
    pub fn patch_count(&self) -> usize {
        self.patches.len()
    }

    /// The tabulated rectangle `((x_min, x_max), (y_min, y_max))`.
    #[must_use]
    pub fn bounds(&self) -> ((f64, f64), (f64, f64)) {
        ((self.x_min, self.x_max), (self.y_min, self.y_max))
    }

    /// Memory held by the table's samples (base grid + patches), in bytes.
    #[must_use]
    pub fn sample_bytes(&self) -> usize {
        let patch_values: usize = self.patches.iter().map(|p| p.values.len()).sum();
        (self.values.len() + patch_values) * std::mem::size_of::<f64>()
            + self.patch_index.len() * std::mem::size_of::<u32>()
    }

    /// Every stored sample block, to pin a tabulation bit for bit: the
    /// base grid first, then each patch in base-cell order.  A block is
    /// `(cell, (nx, ny), samples)`: `cell` is the patch's base cell
    /// (`None` for the base grid) and `samples` are row-major,
    /// `samples[ix * ny + iy]`.
    pub fn sample_blocks(&self) -> impl Iterator<Item = SampleBlock<'_>> {
        let base = (None, (self.nx, self.ny), self.values.as_slice());
        let patches = self
            .patch_index
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p != NO_PATCH)
            .map(move |(slot, &p)| {
                let patch = &self.patches[p as usize];
                (
                    Some((slot / (self.ny - 1), slot % (self.ny - 1))),
                    (patch.nx as usize, patch.ny as usize),
                    patch.values.as_slice(),
                )
            });
        std::iter::once(base).chain(patches)
    }

    fn patch_slot(&self, ix: usize, iy: usize) -> usize {
        ix * (self.ny - 1) + iy
    }

    /// Worst interpolation error of every base cell over a 3x3 interior
    /// probe lattice, indexed by patch slot.
    ///
    /// A 3x3 lattice, not just the midpoint: the kink bands of Mamdani
    /// surfaces are narrow, and a kink skirting a cell corner leaves the
    /// midpoint nearly exact while the off-centre error is an order of
    /// magnitude larger.  The probes sit strictly inside their cell, so
    /// they read its base samples only and can all run before any patch
    /// exists: one line per lattice column, three probes per cell up it.
    /// Every line shares its `y` coordinates, so their cell positions are
    /// computed once.
    fn probe_cells(&self, f: &mut impl FnMut(f64, &[f64], &mut [f64])) -> Vec<f64> {
        const LATTICE: [f64; 3] = [0.25, 0.5, 0.75];
        let cells_y = self.ny - 1;
        let ys: Vec<f64> = (0..cells_y)
            .flat_map(|j| {
                let (_, y0, _, wy) = self.cell_rect(0, j);
                LATTICE.map(|pv| y0 + wy * pv)
            })
            .collect();
        let y_pos: Vec<(usize, f64)> = ys.iter().map(|&y| self.y_pos(y)).collect();
        let mut exact = vec![0.0; ys.len()];
        let mut errors = vec![0.0f64; (self.nx - 1) * cells_y];
        for i in 0..self.nx - 1 {
            let (x0, _, wx, _) = self.cell_rect(i, 0);
            for pu in LATTICE {
                let x = x0 + wx * pu;
                f(x, &ys, &mut exact);
                let x_pos = self.x_pos(x);
                let cells = errors[i * cells_y..(i + 1) * cells_y].iter_mut();
                let probes = y_pos.chunks_exact(3).zip(exact.chunks_exact(3));
                for (worst, (y_pos, exact)) in cells.zip(probes) {
                    for (&y_pos, &e) in y_pos.iter().zip(exact) {
                        *worst = worst.max((self.lookup_at(x_pos, y_pos) - e).abs());
                    }
                }
            }
        }
        errors
    }

    /// Pure-axis interpolation errors of base cell `(ix, iy)`: probing the
    /// midpoints of the cell's four edges isolates the error of each axis
    /// (an edge lies on a node line of the other axis, so interpolation
    /// there is 1-D).  Edge probes may read a neighbour's patch, so they
    /// run in cell order with the patches of the earlier cells in place.
    fn probe_cell_axes(
        &self,
        ix: usize,
        iy: usize,
        f: &mut impl FnMut(f64, &[f64], &mut [f64]),
    ) -> (f64, f64) {
        let (x0, y0, wx, wy) = self.cell_rect(ix, iy);
        let [bottom, top] = self.line_errors(x0 + 0.5 * wx, [y0, y0 + wy], f);
        let [left] = self.line_errors(x0, [y0 + 0.5 * wy], f);
        let [right] = self.line_errors(x0 + wx, [y0 + 0.5 * wy], f);
        (bottom.max(top), left.max(right))
    }

    /// Interpolation error at each point `(x, ys[k])`.
    fn line_errors<const N: usize>(
        &self,
        x: f64,
        ys: [f64; N],
        f: &mut impl FnMut(f64, &[f64], &mut [f64]),
    ) -> [f64; N] {
        let mut exact = [0.0; N];
        f(x, &ys, &mut exact);
        std::array::from_fn(|k| (self.lookup(x, ys[k]) - exact[k]).abs())
    }

    /// Sample an `nx × ny` patch over base cell `(ix, iy)`, a column at a
    /// time.
    fn sample_patch(
        &self,
        ix: usize,
        iy: usize,
        nx: usize,
        ny: usize,
        line: &mut LineBuffers,
        f: &mut impl FnMut(f64, &[f64], &mut [f64]),
    ) -> Patch {
        let (x0, y0, wx, wy) = self.cell_rect(ix, iy);
        line.ys.clear();
        line.ys
            .extend((0..ny).map(|sy| y0 + wy * (sy as f64) / ((ny - 1) as f64)));
        let mut values = vec![0.0; nx * ny];
        for (sx, column) in values.chunks_exact_mut(ny).enumerate() {
            let x = x0 + wx * (sx as f64) / ((nx - 1) as f64);
            f(x, &line.ys, column);
        }
        Patch {
            nx: nx as u32,
            ny: ny as u32,
            values,
        }
    }

    /// Worst interpolation error of `patch` at its sub-cell midpoints, a
    /// column of sub-cells at a time.
    fn verify_patch(
        &self,
        ix: usize,
        iy: usize,
        patch: &Patch,
        line: &mut LineBuffers,
        f: &mut impl FnMut(f64, &[f64], &mut [f64]),
    ) -> f64 {
        let (x0, y0, wx, wy) = self.cell_rect(ix, iy);
        let (nx, ny) = (patch.nx as usize, patch.ny as usize);
        let LineBuffers {
            ys,
            positions,
            values,
        } = line;
        ys.clear();
        positions.clear();
        for sy in 0..ny - 1 {
            let v = (sy as f64 + 0.5) / ((ny - 1) as f64);
            ys.push(y0 + wy * v);
            positions.push(node_pos(v * ((ny - 1) as f64), ny));
        }
        values.clear();
        values.resize(ny - 1, 0.0);
        let mut worst = 0.0f64;
        for sx in 0..nx - 1 {
            let u = (sx as f64 + 0.5) / ((nx - 1) as f64);
            f(x0 + wx * u, ys, values);
            let u_pos = node_pos(u * ((nx - 1) as f64), nx);
            for (&v_pos, &e) in positions.iter().zip(values.iter()) {
                worst = worst.max((patch.lookup_at(u_pos, v_pos) - e).abs());
            }
        }
        worst
    }

    /// `(x0, y0, width, height)` of base cell `(ix, iy)`.
    fn cell_rect(&self, ix: usize, iy: usize) -> (f64, f64, f64, f64) {
        let wx = (self.x_max - self.x_min) / ((self.nx - 1) as f64);
        let wy = (self.y_max - self.y_min) / ((self.ny - 1) as f64);
        (
            self.x_min + wx * ix as f64,
            self.y_min + wy * iy as f64,
            wx,
            wy,
        )
    }
}

/// Buffers reused by every patch line of a refined tabulation: a line's
/// `y` coordinates, their positions in the patch, and the function's
/// values.
#[derive(Default)]
struct LineBuffers {
    ys: Vec<f64>,
    positions: Vec<(usize, f64)>,
    values: Vec<f64>,
}

impl Patch {
    /// Bilinear lookup at fractional cell coordinates `(u, v) ∈ [0, 1]²`.
    fn lookup(&self, u: f64, v: f64) -> f64 {
        let (nx, ny) = (self.nx as usize, self.ny as usize);
        self.lookup_at(
            node_pos(u * ((nx - 1) as f64), nx),
            node_pos(v * ((ny - 1) as f64), ny),
        )
    }

    /// [`Patch::lookup`] at the sub-cell positions of `u` and `v`.
    fn lookup_at(&self, x: (usize, f64), y: (usize, f64)) -> f64 {
        bilinear(&self.values, self.ny as usize, x, y)
    }
}

/// Bilinear interpolation inside cell `(ix, iy)` of the row-major grid
/// `values` (`ny` nodes per row), at fractions `fx`, `fy` across it.
fn bilinear(values: &[f64], ny: usize, (ix, fx): (usize, f64), (iy, fy): (usize, f64)) -> f64 {
    let v00 = values[ix * ny + iy];
    let v01 = values[ix * ny + iy + 1];
    let v10 = values[(ix + 1) * ny + iy];
    let v11 = values[(ix + 1) * ny + iy + 1];
    let v0 = v00 + (v01 - v00) * fy;
    let v1 = v10 + (v11 - v10) * fy;
    v0 + (v1 - v0) * fx
}

/// The cell holding fractional grid coordinate `t` on an `n`-node axis
/// (the last cell for `t = n - 1`), and `t`'s fraction across it.
fn node_pos(t: f64, n: usize) -> (usize, f64) {
    let i = (t.floor() as usize).min(n - 2);
    (i, t - i as f64)
}

/// The line function of a 2-input, 1-output `engine`: `x` is input 0 and
/// `ys` run along input 1.
fn engine_line<'a>(
    engine: &'a CompiledEngine,
    scratch: &'a mut Scratch,
) -> impl FnMut(f64, &[f64], &mut [f64]) + 'a {
    move |x, ys, out| engine.infer_line(&[x, 0.0], VarId::from_index(1), ys, out, scratch)
}

fn engine_bounds(engine: &CompiledEngine) -> Result<((f64, f64), (f64, f64))> {
    if engine.input_count() != 2 || engine.output_count() != 1 {
        return Err(FuzzyError::InvalidLut {
            reason: format!(
                "Lut2d needs a 2-input, 1-output engine, got {} inputs and {} outputs",
                engine.input_count(),
                engine.output_count()
            ),
        });
    }
    Ok((
        engine.input_bounds(VarId::from_index(0)),
        engine.input_bounds(VarId::from_index(1)),
    ))
}

/// Patch nodes per side for an observed-to-target error ratio, assuming
/// first-order (kink-band) error decay: the next power of two above twice
/// the ratio, plus one node, floored at 5.  The factor of two buys slack
/// so the verify step rarely has to escalate (an escalation throws away a
/// fully sampled patch).
fn patch_nodes_for(ratio: f64) -> usize {
    let subdivisions = (2.0 * ratio.max(1.0)).ceil() as usize;
    (subdivisions.next_power_of_two().max(4)) + 1
}

/// Fractional grid coordinate of `v` in `[min, max]` quantised to `n`
/// points, clamped to the grid.
fn grid_pos(v: f64, min: f64, max: f64, n: usize) -> f64 {
    let v = if v.is_nan() { min } else { v.clamp(min, max) };
    (v - min) / (max - min) * ((n - 1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variable::LinguisticVariable;
    use crate::{MamdaniEngine, Rule};

    /// The line function of a plain point function.
    fn pointwise(g: impl Fn(f64, f64) -> f64) -> impl Fn(f64, &[f64], &mut [f64]) {
        move |x, ys, out| {
            for (o, &y) in out.iter_mut().zip(ys) {
                *o = g(x, y);
            }
        }
    }

    fn two_input_engine() -> CompiledEngine {
        let x = LinguisticVariable::builder("x", 0.0, 10.0)
            .triangle("lo", 0.0, 0.0, 10.0)
            .triangle("hi", 0.0, 10.0, 10.0)
            .build()
            .unwrap();
        let y = LinguisticVariable::builder("y", -5.0, 5.0)
            .triangle("neg", -5.0, -5.0, 5.0)
            .triangle("pos", -5.0, 5.0, 5.0)
            .build()
            .unwrap();
        let out = LinguisticVariable::builder("out", 0.0, 1.0)
            .triangle("no", 0.0, 0.0, 1.0)
            .triangle("yes", 0.0, 1.0, 1.0)
            .build()
            .unwrap();
        let mut e = MamdaniEngine::builder()
            .input(x)
            .input(y)
            .output(out)
            .build()
            .unwrap();
        for (x, y, out) in [
            ("hi", "pos", "yes"),
            ("hi", "neg", "no"),
            ("lo", "pos", "no"),
            ("lo", "neg", "no"),
        ] {
            e.add_rule(Rule::row(&[("x", x), ("y", y)], "out", out))
                .unwrap();
        }
        e.compile().unwrap()
    }

    /// An `n × n` table without patches: the refined entry point with a
    /// target no cell exceeds.
    fn unpatched(engine: &CompiledEngine, n: usize) -> Lut2d {
        Lut2d::tabulate_refined(engine, (n, n), f64::MAX, 3).unwrap()
    }

    #[test]
    fn tabulate_rejects_wrong_shapes() {
        // 3-input engine.
        let var = |name: &str| {
            LinguisticVariable::builder(name, 0.0, 1.0)
                .triangle("t", 0.0, 0.5, 1.0)
                .build()
                .unwrap()
        };
        let mut e = MamdaniEngine::builder()
            .input(var("a"))
            .input(var("b"))
            .input(var("c"))
            .output(var("o"))
            .build()
            .unwrap();
        e.add_rule(Rule::row(&[("a", "t"), ("b", "t"), ("c", "t")], "o", "t"))
            .unwrap();
        assert!(matches!(
            Lut2d::tabulate_refined(&e.compile().unwrap(), (16, 16), 1e-3, 65),
            Err(FuzzyError::InvalidLut { .. })
        ));
    }

    #[test]
    fn tabulate_fn_rejects_degenerate_grids() {
        let f = pointwise(|x, y| x + y);
        let table = |x_min, x_max, grid| {
            Lut2d::tabulate_fn_refined(x_min, x_max, 0.0, 1.0, grid, f64::MAX, 3, &f)
        };
        assert!(table(0.0, 1.0, (1, 8)).is_err());
        assert!(table(0.0, 1.0, (8, 1)).is_err());
        assert!(table(1.0, 1.0, (8, 8)).is_err());
        assert!(table(f64::NAN, 1.0, (8, 8)).is_err());
        assert!(Lut2d::tabulate_fn_refined(0.0, 1.0, 0.0, 1.0, (8, 8), 0.0, 65, &f).is_err());
        assert!(Lut2d::tabulate_fn_refined(0.0, 1.0, 0.0, 1.0, (8, 8), f64::NAN, 65, &f).is_err());
    }

    #[test]
    fn bilinear_is_exact_for_bilinear_functions() {
        // f(x, y) = 2x + 3y + xy is reproduced exactly by bilinear
        // interpolation, so the measured error is (numerically) zero.
        let f = pointwise(|x, y| 2.0 * x + 3.0 * y + x * y);
        let lut = Lut2d::tabulate_fn_refined(0.0, 4.0, -1.0, 1.0, (9, 9), 1e-9, 65, f).unwrap();
        assert_eq!(lut.patch_count(), 0);
        assert!(lut.max_error() < 1e-12, "error {}", lut.max_error());
        for (x, y) in [(0.0, -1.0), (1.3, 0.2), (4.0, 1.0), (2.71, -0.9)] {
            let exact = 2.0 * x + 3.0 * y + x * y;
            assert!((lut.lookup(x, y) - exact).abs() < 1e-12);
        }
    }

    #[test]
    fn lookup_matches_samples_at_grid_points() {
        let compiled = two_input_engine();
        let lut = unpatched(&compiled, 33);
        let mut scratch = compiled.scratch();
        for i in 0..33 {
            for j in 0..33 {
                let x = 10.0 * (i as f64) / 32.0;
                let y = -5.0 + 10.0 * (j as f64) / 32.0;
                let exact = compiled.infer_into(&[x, y], &mut scratch)[0];
                let got = lut.lookup(x, y);
                assert!(
                    (got - exact).abs() < 1e-12,
                    "grid point ({x}, {y}): {got} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn error_shrinks_with_resolution() {
        let compiled = two_input_engine();
        let coarse = unpatched(&compiled, 9);
        let fine = unpatched(&compiled, 129);
        assert!(fine.max_error() < coarse.max_error());
        assert!(fine.max_error() < 1e-2);
    }

    #[test]
    fn refined_tabulation_meets_the_target() {
        let compiled = two_input_engine();
        let target = 5.0e-4;
        let lut = Lut2d::tabulate_refined(&compiled, (33, 33), target, 129).unwrap();
        assert!(
            lut.max_error() <= target,
            "refined error {} missed target {target}",
            lut.max_error()
        );
        assert!(lut.patch_count() > 0, "this surface has kinks to refine");
        // Honest bound: a dense off-grid lattice stays within the measured
        // error (plus float slack).
        let mut scratch = compiled.scratch();
        let mut worst = 0.0f64;
        for a in 0..=173 {
            let x = 10.0 * f64::from(a) / 173.0;
            for b in 0..=179 {
                let y = -5.0 + 10.0 * f64::from(b) / 179.0;
                let exact = compiled.infer_into(&[x, y], &mut scratch)[0];
                worst = worst.max((lut.lookup(x, y) - exact).abs());
            }
        }
        assert!(
            worst <= 2.0 * lut.max_error() + 1e-9,
            "lattice error {worst} far exceeds measured {}",
            lut.max_error()
        );
    }

    #[test]
    fn refined_beats_uniform_at_equal_memory() {
        let compiled = two_input_engine();
        let refined = Lut2d::tabulate_refined(&compiled, (33, 33), 5.0e-4, 129).unwrap();
        // A uniform grid spending at least as much memory...
        let n = ((refined.sample_bytes() / 8) as f64).sqrt().ceil() as usize;
        let uniform = unpatched(&compiled, n);
        assert!(
            refined.max_error() < uniform.max_error(),
            "refined {} vs uniform {} ({}x{} = {} bytes vs {} bytes)",
            refined.max_error(),
            uniform.max_error(),
            n,
            n,
            uniform.sample_bytes(),
            refined.sample_bytes()
        );
    }

    #[test]
    fn lookup_clamps_out_of_range_queries() {
        let compiled = two_input_engine();
        let lut = unpatched(&compiled, 17);
        assert_eq!(lut.lookup(-100.0, 0.0), lut.lookup(0.0, 0.0));
        assert_eq!(lut.lookup(100.0, 100.0), lut.lookup(10.0, 5.0));
        assert_eq!(lut.lookup(f64::NAN, 0.0), lut.lookup(0.0, 0.0));
    }

    #[test]
    fn metadata_accessors() {
        let f = pointwise(|x, y| x * y);
        let lut = Lut2d::tabulate_fn_refined(0.0, 1.0, 0.0, 2.0, (5, 9), f64::MAX, 3, f).unwrap();
        assert_eq!(lut.resolution(), (5, 9));
        assert_eq!(lut.patch_count(), 0);
        assert_eq!(lut.bounds(), ((0.0, 1.0), (0.0, 2.0)));
        // Base samples, then one `u32` patch slot per base cell.
        assert_eq!(lut.sample_bytes(), 5 * 9 * 8 + 4 * 8 * 4);
    }

    #[test]
    fn patch_sizing_heuristic() {
        assert_eq!(patch_nodes_for(0.5), 5);
        assert_eq!(patch_nodes_for(3.0), 9);
        assert_eq!(patch_nodes_for(5.0), 17);
        assert_eq!(patch_nodes_for(20.0), 65);
    }
}
