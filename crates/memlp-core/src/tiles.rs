//! Occupancy-indexed analog operands for the block-structured hardware
//! context.
//!
//! [`HwContext`](crate::HwContext) realizes each solver block as one
//! logical array region, but physically a block larger than a single
//! crossbar is a *grid* of `ANALOG_TILE_SIDE`-square tiles coordinated
//! over the NoC — the same geometry [`memlp_noc::TiledCrossbar`] models
//! at device level. A [`TiledMatrix`] carries a realized block together
//! with the [`TileOccupancy`] of its **planned** coefficients, so the
//! MVM scheduling and the cost model can skip tiles that were never
//! fabricated (DESIGN.md §18).
//!
//! Bitwise contract: with elision on, only live tiles are visited, in
//! the same fixed row-major order the full sweep uses; an elided tile's
//! contribution is an exact `±0.0` that IEEE addition cannot observe
//! (the accumulators never hold `-0.0`), so fault-free products are
//! bitwise identical with elision on or off, and independent of thread
//! count (the sweeps are serial per output line).

use memlp_crossbar::TileOccupancy;
use memlp_linalg::{ops, Matrix};

/// Tile side the analog operand planes are partitioned at — the §3.4
/// sub-array granularity the NoC schedules, finer than the single-array
/// manufacturing limit so occupancy can resolve block structure inside
/// one array's worth of operand.
pub const ANALOG_TILE_SIDE: usize = 128;

/// A realized operand block plus the occupancy index of its planned
/// coefficients.
///
/// The occupancy is always built from *planned* (target) values, never
/// from the realized (analog) read-back: letting variation- or
/// fault-skewed values decide which tiles exist would make hardware
/// noise load-bearing (the taint::analog-exact regime memlp-lint
/// enforces). With faults configured the realized block can hold
/// nonzero values inside planned-dead tiles only when elision is *off*
/// (the hardware exists and can be stuck-on); with elision on those
/// tiles have no hardware, which is why the bitwise on/off guarantee is
/// scoped to fault-free domains.
#[derive(Debug, Clone)]
pub struct TiledMatrix {
    realized: Matrix,
    occ: TileOccupancy,
    elide: bool,
}

impl TiledMatrix {
    /// Wraps a realized block with the occupancy of its planned values.
    /// `elide` gates live-tile scheduling (off = full-grid sweep).
    pub fn from_parts(realized: Matrix, occ: TileOccupancy, elide: bool) -> Self {
        debug_assert_eq!((realized.rows(), realized.cols()), occ.shape());
        TiledMatrix {
            realized,
            occ,
            elide,
        }
    }

    /// Builds the occupancy from `planned` and wraps `realized`.
    pub fn new(planned: &Matrix, realized: Matrix, tile_side: usize, elide: bool) -> Self {
        TiledMatrix::from_parts(
            realized,
            TileOccupancy::from_matrix(planned, tile_side),
            elide,
        )
    }

    /// The occupancy index.
    pub fn occupancy(&self) -> &TileOccupancy {
        &self.occ
    }

    /// The realized block.
    pub fn realized(&self) -> &Matrix {
        &self.realized
    }

    /// Rows of the operand.
    pub fn rows(&self) -> usize {
        self.realized.rows()
    }

    /// Columns of the operand.
    pub fn cols(&self) -> usize {
        self.realized.cols()
    }

    /// Tiles an MVM drives: live only under elision, the full grid
    /// otherwise.
    pub fn scheduled_tiles(&self) -> usize {
        if self.elide {
            self.occ.live_tiles()
        } else {
            self.occ.grid_tiles()
        }
    }

    /// Cells with physical hardware behind them — the settle-energy
    /// population. Live-tile cells under elision, every cell otherwise.
    pub fn active_cells(&self) -> usize {
        if self.elide {
            self.occ.live_cells() as usize
        } else {
            self.rows() * self.cols()
        }
    }

    /// `A·x` over the scheduled tiles; see [`TiledMatrix::matvec_into`].
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows()];
        self.matvec_into(x, &mut y);
        y
    }

    /// `A·x` into `out`, visiting tiles in row-major `(bi, bj)` order and
    /// skipping elided ones. A single-tile live operand takes the dense
    /// kernel path in both modes; an operand with no live tile drives
    /// nothing and yields exact zeros in both modes.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols(), "tiled matvec: input length");
        assert_eq!(out.len(), self.rows(), "tiled matvec: output length");
        out.fill(0.0);
        if self.occ.live_tiles() == 0 {
            return;
        }
        if self.occ.grid_tiles() == 1 {
            out.copy_from_slice(&self.realized.matvec(x));
            return;
        }
        let ts = self.occ.tile_side();
        for bi in 0..self.occ.row_blocks() {
            for bj in 0..self.occ.col_blocks() {
                if self.elide && !self.occ.is_live(bi, bj) {
                    continue;
                }
                let (nr, nc) = self.occ.tile_dims(bi, bj);
                let (r0, c0) = (bi * ts, bj * ts);
                let xs = &x[c0..c0 + nc];
                for i in 0..nr {
                    let row = &self.realized.row(r0 + i)[c0..c0 + nc];
                    out[r0 + i] += ops::dot(row, xs);
                }
            }
        }
    }

    /// `Aᵀ·y` over the scheduled tiles; see
    /// [`TiledMatrix::matvec_transposed_into`].
    pub fn matvec_transposed(&self, y: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.cols()];
        self.matvec_transposed_into(y, &mut x);
        x
    }

    /// `Aᵀ·y` into `out` — the word-line-driven direction: the same
    /// physical tiles, the same row-major schedule, each live tile's
    /// bit-line read-back accumulated into its column segment.
    pub fn matvec_transposed_into(&self, y: &[f64], out: &mut [f64]) {
        assert_eq!(y.len(), self.rows(), "tiled matvec_transposed: input");
        assert_eq!(out.len(), self.cols(), "tiled matvec_transposed: output");
        out.fill(0.0);
        if self.occ.live_tiles() == 0 {
            return;
        }
        if self.occ.grid_tiles() == 1 {
            out.copy_from_slice(&self.realized.matvec_transposed(y));
            return;
        }
        let ts = self.occ.tile_side();
        for bi in 0..self.occ.row_blocks() {
            for bj in 0..self.occ.col_blocks() {
                if self.elide && !self.occ.is_live(bi, bj) {
                    continue;
                }
                let (nr, nc) = self.occ.tile_dims(bi, bj);
                let (r0, c0) = (bi * ts, bj * ts);
                for i in 0..nr {
                    let yi = y[r0 + i];
                    if yi == 0.0 {
                        continue;
                    }
                    let row = &self.realized.row(r0 + i)[c0..c0 + nc];
                    for (o, &a) in out[c0..c0 + nc].iter_mut().zip(row) {
                        *o += a * yi;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 300×300 at tile 128 → 3×3 grid; live blocks on the diagonal plus
    /// (0, 2), everything else exactly zero.
    fn block_sparse(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            let (bi, bj) = (i / ANALOG_TILE_SIDE, j / ANALOG_TILE_SIDE);
            if bi == bj || (bi == 0 && bj == 2) {
                0.25 + ((i * 31 + j * 17) % 97) as f64 * 0.01
            } else {
                0.0
            }
        })
    }

    fn probe(n: usize) -> Vec<f64> {
        (0..n).map(|k| ((k % 13) as f64 - 6.0) * 0.35).collect()
    }

    #[test]
    fn elided_products_are_bitwise_identical_to_full_sweep() {
        let a = block_sparse(300, 300);
        let on = TiledMatrix::new(&a, a.clone(), ANALOG_TILE_SIDE, true);
        let off = TiledMatrix::new(&a, a.clone(), ANALOG_TILE_SIDE, false);
        assert_eq!(on.scheduled_tiles(), 4);
        assert_eq!(off.scheduled_tiles(), 9);
        assert!(on.active_cells() < off.active_cells());
        let x = probe(300);
        let ax_on = on.matvec(&x);
        let ax_off = off.matvec(&x);
        assert_eq!(ax_on, ax_off, "forward MVM must not see elision");
        let aty_on = on.matvec_transposed(&x);
        let aty_off = off.matvec_transposed(&x);
        assert_eq!(aty_on, aty_off, "transposed MVM must not see elision");
    }

    #[test]
    fn products_match_dense_reference_numerically() {
        let a = block_sparse(300, 260);
        let t = TiledMatrix::new(&a, a.clone(), ANALOG_TILE_SIDE, true);
        let x = probe(260);
        let want = a.matvec(&x);
        let got = t.matvec(&x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-9 * (1.0 + w.abs()), "{g} vs {w}");
        }
        let y = probe(300);
        let want_t = a.matvec_transposed(&y);
        let got_t = t.matvec_transposed(&y);
        for (g, w) in got_t.iter().zip(&want_t) {
            assert!((g - w).abs() <= 1e-9 * (1.0 + w.abs()), "{g} vs {w}");
        }
    }

    #[test]
    fn single_tile_operands_use_the_dense_path() {
        let a = Matrix::from_fn(40, 60, |i, j| ((i + 2 * j) % 7) as f64 * 0.2);
        let t = TiledMatrix::new(&a, a.clone(), ANALOG_TILE_SIDE, true);
        assert_eq!(t.occupancy().grid_tiles(), 1);
        let x = probe(60);
        assert_eq!(t.matvec(&x), a.matvec(&x));
        let y = probe(40);
        assert_eq!(t.matvec_transposed(&y), a.matvec_transposed(&y));
    }

    #[test]
    fn all_dead_operand_yields_exact_zeros_in_both_modes() {
        let z = Matrix::zeros(200, 200);
        for elide in [true, false] {
            let t = TiledMatrix::new(&z, z.clone(), ANALOG_TILE_SIDE, elide);
            let x: Vec<f64> = (0..200).map(|k| -1.0 - k as f64).collect();
            let y = t.matvec(&x);
            assert!(y.iter().all(|v| v.to_bits() == 0), "exact +0.0 outputs");
        }
    }

    #[test]
    fn occupancy_reflects_planned_not_realized() {
        // The realized block differs from the plan (variation), but the
        // occupancy must come from the planned coefficients.
        let planned = block_sparse(300, 300);
        let realized = planned.map(|v| v * 1.07);
        let t = TiledMatrix::new(&planned, realized, ANALOG_TILE_SIDE, true);
        assert_eq!(t.occupancy().live_tiles(), 4);
        assert_eq!(t.occupancy().grid_tiles(), 9);
    }
}
