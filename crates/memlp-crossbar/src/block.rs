//! Block realization: the one routine that turns a programmed target into
//! the values an array region stores (DESIGN.md §4). The standalone
//! [`Crossbar`](crate::Crossbar) is one [`ArrayBlock`], the NoC-tiled array
//! one block written as tiles, and the solvers' hardware context keeps one
//! block per region it addresses. A write resolves each target to a
//! `write_bits` code ([`WriteQuantizer`]); applies the block's persistent
//! [`FaultPlan`] (stuck-on realizes the write's full scale, stuck-off and
//! dead lines zero, and neither draws a deviate); draws one Eqn 18 deviate
//! per pulsed healthy cell and stores `decode(code) · (1 + var·rd)`,
//! saturated at zero only; skips the pulse of a code the delta cache
//! already holds (the verify deviate is drawn either way, so delta
//! programming never changes realized bits); and charges the ledger.
//!
//! The write shapes differ only in which cells are pulsed and charged: a
//! **line** ([`ArrayBlock::write_line`], a diagonal) every cell, stuck ones
//! included; a flat **block** ([`ArrayBlock::write_block`]) non-zero codes
//! only — erased cells already sit at `g_off` (§3.5); a **tiled** block
//! ([`ArrayBlock::write_tiled`]) charges every healthy cell of each
//! fabricated tile but pulses non-zero codes only, and under
//! `config.tile_elision` fabricates no tile whose planned block is zero.

use memlp_linalg::{ops, Matrix};
use rand::rngs::StdRng;

use crate::config::CrossbarConfig;
use crate::cost::{CostLedger, Phase};
use crate::fault::{FaultKind, FaultPlan};
use crate::mapping::LineRemap;
use crate::occupancy::TileOccupancy;
use crate::quantize::WriteQuantizer;
use memlp_device::VariationModel;

/// What a block write draws on outside the block: the configuration, the
/// variation stream every Eqn 18 deviate is drawn from, the ledger and the
/// phase the writes are charged in.
#[derive(Debug)]
pub struct Writer<'a> {
    pub config: &'a CrossbarConfig,
    pub rng: &'a mut StdRng,
    pub ledger: &'a mut CostLedger,
    pub phase: Phase,
}

/// Which cells a write pulses and charges (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sweep {
    Line,
    Block,
    Tiles,
}

/// One physical array region: its hard defects, its spare-line decoder
/// table, its detection latch and the conductance codes it last stored.
///
/// Hard defects belong to the silicon, so the plan persists across writes
/// and variation redraws; only the recovery rungs
/// ([`ArrayBlock::repair_weak`], [`ArrayBlock::remap_dead_lines`]) change
/// it. The code cache is only as trustworthy as the physical state it
/// snapshots: a variation redraw, a repair, a remap or a drift refresh
/// must [`invalidate`](ArrayBlock::invalidate) it (DESIGN.md §12).
#[derive(Debug, Clone)]
pub struct ArrayBlock {
    plan: FaultPlan,
    remap: LineRemap,
    reported: bool,
    /// Shape `(rows, cols)` of the last write.
    shape: (usize, usize),
    /// Codes of the last write, row-major over `shape`.
    codes: Vec<u64>,
    /// `codes` hold what the cells store (delta programming on and no
    /// invalidation since).
    cached: bool,
}

/// Per-write constants and tallies of one sweep.
struct Pass<'a> {
    plan: &'a FaultPlan,
    clean: bool,
    cols: usize,
    /// The block's code cache (delta programming on), refreshed in place.
    codes: Option<&'a mut [u64]>,
    /// `codes` held the previous write's codes of this shape.
    cached: bool,
    wq: WriteQuantizer,
    variation: VariationModel,
    rng: &'a mut StdRng,
    sweep: Sweep,
    a_max: f64,
    written: u64,
    skipped: u64,
}

impl Pass<'_> {
    /// Realizes the row-major cells `start..start + target.len()` into
    /// `out`, on the fault-free instantiation of [`Pass::span`] when the
    /// block holds no defect.
    fn run(&mut self, start: usize, target: &[f64], out: &mut [f64]) {
        if self.clean {
            self.span::<true>(start, target, out);
        } else {
            self.span::<false>(start, target, out);
        }
    }

    /// The one cell sweep: realizes a run of contiguous row-major cells.
    /// The variation stream, the tallies and the sweep flags live in locals
    /// for the run, so the stores into `out` and the code cache cannot
    /// alias them and the stream's state stays in registers; the stream is
    /// written back once at the end. `CLEAN` (a fault-free plan) drops the
    /// defect lookup from the loop.
    fn span<const CLEAN: bool>(&mut self, start: usize, target: &[f64], out: &mut [f64]) {
        debug_assert_eq!(target.len(), out.len());
        let (wq, variation, a_max) = (self.wq, self.variation, self.a_max);
        let (line, tiles) = (self.sweep == Sweep::Line, self.sweep == Sweep::Tiles);
        let cached = self.cached;
        let mut rng = self.rng.clone();
        let (mut written, mut skipped) = (0u64, 0u64);
        let mut codes = self
            .codes
            .as_deref_mut()
            .map(|c| &mut c[start..start + target.len()]);
        for (k, (o, &t)) in out.iter_mut().zip(target).enumerate() {
            let code = wq.code(t);
            let hit = match codes.as_deref_mut() {
                Some(c) => {
                    let hit = cached && c[k] == code;
                    c[k] = code;
                    hit
                }
                None => false,
            };
            let fault = if CLEAN {
                FaultKind::Healthy
            } else {
                let idx = start + k;
                self.plan.fault_at(idx / self.cols, idx % self.cols)
            };
            let healthy = fault == FaultKind::Healthy;
            // A healthy cell pulses unless it holds an erased code off a
            // line; a tile charges its healthy zeros too; a stuck cell is
            // charged on a line only and draws no deviate.
            let pulse = healthy && (line || code != 0);
            let charged = if healthy { pulse || tiles } else { line };
            *o = if pulse {
                (wq.decode(code) * variation.draw_factor(&mut rng)).max(0.0)
            } else if fault == FaultKind::StuckOn {
                a_max
            } else {
                0.0
            };
            // A stuck cell's pulse is always charged: verify never sees its
            // code held.
            let skip = charged && hit && healthy;
            skipped += u64::from(skip);
            written += u64::from(charged && !skip);
        }
        *self.rng = rng;
        self.written += written;
        self.skipped += skipped;
    }
}

impl ArrayBlock {
    /// A never-written block with the given defects and `spare_lines`
    /// spare lines per side.
    pub fn new(plan: FaultPlan, spare_lines: usize) -> Self {
        ArrayBlock {
            plan,
            remap: LineRemap::new(spare_lines, spare_lines),
            reported: false,
            shape: (0, 0),
            codes: Vec::new(),
            cached: false,
        }
    }

    /// The block's current defects.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Writes a line of private cells (a diagonal): every cell is pulsed
    /// and charged, stuck cells included; negative targets saturate at
    /// zero. Returns the realized values.
    ///
    /// memlp-lint: analog_source
    pub fn write_line(&mut self, target: &[f64], w: &mut Writer<'_>) -> Vec<f64> {
        let mut out = vec![0.0; target.len()];
        self.realize(target, (target.len(), 1), Sweep::Line, None, &mut out, w);
        out
    }

    /// Writes a flat non-negative block: only non-zero codes are pulsed and
    /// charged. Returns the realized block.
    ///
    /// memlp-lint: analog_source
    pub fn write_block(&mut self, target: &Matrix, w: &mut Writer<'_>) -> Matrix {
        let shape = (target.rows(), target.cols());
        let mut out = Matrix::zeros(shape.0, shape.1);
        let (t, o) = (target.as_slice(), out.as_mut_slice());
        self.realize(t, shape, Sweep::Block, None, o, w);
        out
    }

    /// Writes a non-negative block fabricated as `tile_side`-square tiles.
    /// The [`TileOccupancy`] comes from the planned target, never from a
    /// read-back. With `config.tile_elision`, tiles whose planned block is
    /// all zero have no hardware: no pulses, no defects, no cache, exact
    /// zeros, noted on the ledger as elided. Every healthy cell of a
    /// fabricated tile costs one write (or one delta skip); only non-zero
    /// codes pulse, so fault-free realized bits do not depend on elision.
    ///
    /// memlp-lint: analog_source
    pub fn write_tiled(
        &mut self,
        target: &Matrix,
        tile_side: usize,
        w: &mut Writer<'_>,
    ) -> TiledMatrix {
        let occ = TileOccupancy::from_matrix(target, tile_side);
        let elide = w.config.tile_elision;
        if elide {
            w.ledger
                .note_elided_tiles(occ.dead_tiles() as u64, occ.dead_cells());
        }
        let shape = (target.rows(), target.cols());
        let mut realized = Matrix::zeros(shape.0, shape.1);
        let (t, o) = (target.as_slice(), realized.as_mut_slice());
        self.realize(t, shape, Sweep::Tiles, Some((&occ, elide)), o, w);
        TiledMatrix {
            realized,
            occ,
            elide,
        }
    }

    /// Rewrites individual cells `(row, col, value)` inside the last
    /// written target, each pulsed and charged as a line cell; stuck-on
    /// cells realize `a_max`. Returns the realized values in order.
    ///
    /// memlp-lint: analog_source
    pub fn write_cells(
        &mut self,
        cells: &[(usize, usize, f64)],
        a_max: f64,
        w: &mut Writer<'_>,
    ) -> Vec<f64> {
        let cols = self.shape.1;
        let mut pass = self.pass(Sweep::Line, a_max, w);
        let mut out = vec![0.0; cells.len()];
        for (o, &(i, j, v)) in out.iter_mut().zip(cells) {
            pass.run(i * cols + j, &[v], std::slice::from_mut(o));
        }
        let (written, skipped) = (pass.written, pass.skipped);
        charge(w, written, skipped);
        out
    }

    /// The detection latch of write–verify: the block's plan on the first
    /// call after it holds defects, `None` on every later call and for a
    /// clean block. Verify sees every defect the plan holds: a dead line
    /// fails verify on every cell.
    pub fn first_detection(&mut self) -> Option<&FaultPlan> {
        if self.reported || self.plan.is_clean() {
            return None;
        }
        self.reported = true;
        Some(&self.plan)
    }

    /// Recovery: re-programs every weak stuck cell with an extended pulse
    /// budget; returns how many were repaired. Invalidates the code cache
    /// when any was.
    pub fn repair_weak(&mut self) -> usize {
        let repaired = self.plan.repair_weak();
        if repaired > 0 {
            self.invalidate();
        }
        repaired
    }

    /// Recovery: relocates dead lines onto the block's spare lines. Returns
    /// `(rows_remapped, cols_remapped, unmapped)`; invalidates the code
    /// cache when any line moved, since the spares were never programmed.
    pub fn remap_dead_lines(&mut self) -> (usize, usize, usize) {
        let (mut rows, mut cols, mut unmapped) = (0, 0, 0);
        for r in self.plan.dead_rows().to_vec() {
            if self.remap.remap_row(r) {
                self.plan.revive_row(r);
                rows += 1;
            } else {
                unmapped += 1;
            }
        }
        for c in self.plan.dead_cols().to_vec() {
            if self.remap.remap_col(c) {
                self.plan.revive_col(c);
                cols += 1;
            } else {
                unmapped += 1;
            }
        }
        if rows + cols > 0 {
            self.invalidate();
        }
        (rows, cols, unmapped)
    }

    /// Drops the code cache: the next write re-programs every cell.
    pub fn invalidate(&mut self) {
        self.cached = false;
    }

    fn pass<'a>(&'a mut self, sweep: Sweep, a_max: f64, w: &'a mut Writer<'_>) -> Pass<'a> {
        let delta = w.config.delta_writes;
        let sized = self.codes.len() == self.shape.0 * self.shape.1;
        Pass {
            clean: self.plan.is_clean(),
            plan: &self.plan,
            cols: self.shape.1,
            codes: (delta && sized).then_some(&mut self.codes[..]),
            cached: delta && self.cached,
            wq: WriteQuantizer::new(w.config.write_bits),
            variation: w.config.variation,
            rng: &mut *w.rng,
            sweep,
            a_max,
            written: 0,
            skipped: 0,
        }
    }

    /// The one write routine: realizes the row-major `target` of `shape`
    /// into `out`, visiting cells row-major and skipping elided tiles.
    fn realize(
        &mut self,
        target: &[f64],
        (rows, cols): (usize, usize),
        sweep: Sweep,
        tiles: Option<(&TileOccupancy, bool)>,
        out: &mut [f64],
        w: &mut Writer<'_>,
    ) {
        debug_assert!(rows <= self.plan.rows() && cols <= self.plan.cols());
        // The full scale only ever reaches a stuck-on cell.
        let a_max = if self.plan.is_clean() {
            0.0
        } else {
            target.iter().fold(0.0f64, |m, v| m.max(v.abs()))
        };
        let delta = w.config.delta_writes;
        if self.shape != (rows, cols) || !self.cached {
            self.shape = (rows, cols);
            self.cached = false;
            if delta {
                self.codes.clear();
                self.codes.resize(rows * cols, 0);
            }
        }
        let mut pass = self.pass(sweep, a_max, w);
        match tiles {
            Some((occ, true)) => {
                let ts = occ.tile_side();
                for i in 0..rows {
                    for (bj, j0) in (0..cols).step_by(ts).enumerate() {
                        let span = i * cols + j0..i * cols + (j0 + ts).min(cols);
                        if occ.is_live(i / ts, bj) {
                            pass.run(span.start, &target[span.clone()], &mut out[span]);
                        } else if let Some(codes) = pass.codes.as_deref_mut() {
                            // No hardware: an exact zero, no code to remember.
                            codes[span].fill(0);
                        }
                    }
                }
            }
            _ => pass.run(0, target, out),
        }
        let (written, skipped) = (pass.written, pass.skipped);
        charge(w, written, skipped);
        self.cached = delta;
    }
}

/// Charges `written` pulses in the writer's phase and notes `skipped`.
fn charge(w: &mut Writer<'_>, written: u64, skipped: u64) {
    let config = w.config;
    w.ledger.charge_writes(
        &config.cost,
        w.phase,
        written,
        config.variation.max_fraction,
    );
    w.ledger.note_skipped_writes(skipped);
}

/// A realized operand block plus the occupancy index of its planned
/// coefficients — what [`ArrayBlock::write_tiled`] returns.
///
/// The occupancy is always built from *planned* (target) values, never
/// from the realized (analog) read-back: letting variation- or
/// fault-skewed values decide which tiles exist would make hardware noise
/// load-bearing (the taint::analog-exact regime memlp-lint enforces).
/// With faults configured the realized block can hold nonzero values
/// inside planned-dead tiles only when elision is *off* (the hardware
/// exists and can be stuck-on); with elision on those tiles have no
/// hardware, which is why the bitwise on/off guarantee is scoped to
/// fault-free blocks.
///
/// Bitwise contract of the products: with elision on, only live tiles are
/// visited, in the same fixed row-major order the full sweep uses; an
/// elided tile's contribution is an exact `±0.0` that IEEE addition cannot
/// observe (the accumulators never hold `-0.0`), so fault-free products
/// are bitwise identical with elision on or off, and independent of thread
/// count (the sweeps are serial per output line).
#[derive(Debug, Clone)]
pub struct TiledMatrix {
    realized: Matrix,
    occ: TileOccupancy,
    elide: bool,
}

impl TiledMatrix {
    /// Wraps `realized` with the occupancy of `planned` at `tile_side`;
    /// `elide` gates live-tile scheduling (off = full-grid sweep).
    pub fn new(planned: &Matrix, realized: Matrix, tile_side: usize, elide: bool) -> Self {
        let occ = TileOccupancy::from_matrix(planned, tile_side);
        TiledMatrix {
            realized,
            occ,
            elide,
        }
    }

    /// The occupancy index.
    pub fn occupancy(&self) -> &TileOccupancy {
        &self.occ
    }

    /// The realized block.
    pub fn realized(&self) -> &Matrix {
        &self.realized
    }

    /// The realized block, without its occupancy.
    pub fn into_realized(self) -> Matrix {
        self.realized
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

    /// The tiles an MVM drives, in fixed row-major `(bi, bj)` order.
    fn scheduled(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let cb = self.occ.col_blocks();
        (0..self.occ.grid_tiles())
            .map(move |k| (k / cb, k % cb))
            .filter(move |&(bi, bj)| !self.elide || self.occ.is_live(bi, bj))
    }

    /// Cells with physical hardware behind them — the settle-energy
    /// population. Live-tile cells under elision, every cell otherwise.
    pub fn active_cells(&self) -> usize {
        if self.elide {
            self.occ.live_cells() as usize
        } else {
            self.realized.rows() * self.realized.cols()
        }
    }

    /// `A·x` over the scheduled tiles; see [`TiledMatrix::matvec_into`].
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.realized.rows()];
        self.matvec_into(x, &mut y);
        y
    }

    /// `A·x` into `out`, visiting the scheduled tiles. A single-tile live
    /// operand takes the dense kernel path in both modes; an operand with
    /// no live tile drives nothing and yields exact zeros in both modes.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.realized.cols(), "tiled matvec: input length");
        assert_eq!(
            out.len(),
            self.realized.rows(),
            "tiled matvec: output length"
        );
        out.fill(0.0);
        if self.occ.live_tiles() == 0 {
            return;
        }
        if self.occ.grid_tiles() == 1 {
            out.copy_from_slice(&self.realized.matvec(x));
            return;
        }
        for (bi, bj) in self.scheduled() {
            let (r0, c0, nr, nc) = self.tile_span(bi, bj);
            let xs = &x[c0..c0 + nc];
            for i in 0..nr {
                out[r0 + i] += ops::dot(&self.realized.row(r0 + i)[c0..c0 + nc], xs);
            }
        }
    }

    /// `Aᵀ·y` over the scheduled tiles; see
    /// [`TiledMatrix::matvec_transposed_into`].
    pub fn matvec_transposed(&self, y: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.realized.cols()];
        self.matvec_transposed_into(y, &mut x);
        x
    }

    /// `Aᵀ·y` into `out` — the word-line-driven direction: the same
    /// physical tiles, the same row-major schedule, each live tile's
    /// bit-line read-back accumulated into its column segment.
    pub fn matvec_transposed_into(&self, y: &[f64], out: &mut [f64]) {
        assert_eq!(
            y.len(),
            self.realized.rows(),
            "tiled matvec_transposed: input"
        );
        assert_eq!(
            out.len(),
            self.realized.cols(),
            "tiled matvec_transposed: output"
        );
        out.fill(0.0);
        if self.occ.live_tiles() == 0 {
            return;
        }
        if self.occ.grid_tiles() == 1 {
            out.copy_from_slice(&self.realized.matvec_transposed(y));
            return;
        }
        for (bi, bj) in self.scheduled() {
            let (r0, c0, nr, nc) = self.tile_span(bi, bj);
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

    /// Row offset, column offset, rows and columns of tile `(bi, bj)`.
    fn tile_span(&self, bi: usize, bj: usize) -> (usize, usize, usize, usize) {
        let ts = self.occ.tile_side();
        let (nr, nc) = self.occ.tile_dims(bi, bj);
        (bi * ts, bj * ts, nr, nc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultModel;
    use rand::{Rng, SeedableRng};
    use std::ops::Range;

    const TILE: usize = 128;

    /// The per-cell body [`Pass::span`] replaced, kept as its reference:
    /// realizes row-major cell `idx` programmed to `t`.
    fn reference_cell(p: &mut Pass<'_>, idx: usize, t: f64) -> f64 {
        let code = p.wq.code(t);
        let hit = match p.codes.as_deref_mut() {
            Some(codes) => {
                let hit = p.cached && codes[idx] == code;
                codes[idx] = code;
                hit
            }
            None => false,
        };
        let fault = if p.clean {
            FaultKind::Healthy
        } else {
            p.plan.fault_at(idx / p.cols, idx % p.cols)
        };
        let line = p.sweep == Sweep::Line;
        let (value, charged) = match fault {
            FaultKind::StuckOn => (p.a_max, line),
            FaultKind::StuckOff => (0.0, line),
            FaultKind::Healthy if code == 0 && !line => (0.0, p.sweep == Sweep::Tiles),
            FaultKind::Healthy => {
                let factor = p.variation.draw_factor(p.rng);
                ((p.wq.decode(code) * factor).max(0.0), true)
            }
        };
        let skip = charged && hit && fault == FaultKind::Healthy;
        p.skipped += u64::from(skip);
        p.written += u64::from(charged && !skip);
        value
    }

    /// How a test sweep visits the cells of its target.
    enum Visit<'a> {
        /// The per-cell reference, in this cell order.
        Reference(&'a [usize]),
        /// [`Pass::run`] over these runs of contiguous cells.
        Runs(&'a [Range<usize>]),
    }

    /// What one sweep leaves behind: realized bits, codes, tallies and the
    /// variation stream.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        out: Vec<u64>,
        codes: Option<Vec<u64>>,
        tallies: (u64, u64),
        rng: StdRng,
    }

    /// Sweeps `target` (row-major, `cols` wide) over `plan`, starting from
    /// the cached codes `prev` when given.
    fn sweep_outcome(
        plan: &FaultPlan,
        sweep: Sweep,
        (target, cols): (&[f64], usize),
        (prev, cached): (Option<&[u64]>, bool),
        visit: Visit<'_>,
    ) -> Outcome {
        let mut codes = prev.map(<[u64]>::to_vec);
        let mut rng = StdRng::seed_from_u64(17);
        let mut out = vec![0.0; target.len()];
        let mut pass = Pass {
            plan,
            clean: plan.is_clean(),
            cols,
            codes: codes.as_deref_mut(),
            cached,
            wq: WriteQuantizer::new(12),
            variation: VariationModel::uniform_pct(10.0),
            rng: &mut rng,
            sweep,
            a_max: 2.5,
            written: 0,
            skipped: 0,
        };
        match visit {
            Visit::Reference(order) => {
                for &idx in order {
                    out[idx] = reference_cell(&mut pass, idx, target[idx]);
                }
            }
            Visit::Runs(runs) => {
                for r in runs {
                    pass.run(r.start, &target[r.clone()], &mut out[r.clone()]);
                }
            }
        }
        let tallies = (pass.written, pass.skipped);
        Outcome {
            out: out.iter().map(|v| v.to_bits()).collect(),
            codes,
            tallies,
            rng,
        }
    }

    #[test]
    fn span_matches_the_per_cell_reference() {
        let (rows, cols) = (23, 17);
        let cells = rows * cols;
        let mut g = StdRng::seed_from_u64(5);
        // Mixed signs and exact zeros, like a sign-split block; a second
        // target that changes about a third of the cells, for cache hits
        // and misses both.
        let draw = |g: &mut StdRng| match g.random_range(0u32..4) {
            0 => 0.0,
            1 => -g.random_range(0.1..2.0),
            _ => g.random_range(0.1..2.0),
        };
        let first: Vec<f64> = (0..cells).map(|_| draw(&mut g)).collect();
        let second: Vec<f64> = (first.iter())
            .map(|&v| {
                if g.random_range(0u32..3) == 0 {
                    draw(&mut g)
                } else {
                    v
                }
            })
            .collect();
        let wq = WriteQuantizer::new(12);
        let prev: Vec<u64> = first.iter().map(|&v| wq.code(v)).collect();
        let faulty = FaultModel::new(0.04, 0.04)
            .and_then(|m| m.with_dead_lines(0.1, 0.1))
            .expect("valid fault model");
        let plans = [
            FaultPlan::clean(rows, cols),
            FaultPlan::draw(&faulty, rows, cols, 3),
        ];
        assert!(!plans[1].is_clean() && !plans[1].dead_rows().is_empty());
        let row_major: Vec<usize> = (0..cells).collect();
        // One run, and runs that break mid-row.
        let all = 0..cells;
        let whole = std::slice::from_ref(&all);
        let ragged: Vec<_> = (0..cells)
            .step_by(11)
            .map(|s| s..(s + 11).min(cells))
            .collect();
        // `ArrayBlock::write_cells`: one-cell runs in a scattered order
        // (37 is prime to 23·17, so this visits every cell once).
        let scattered: Vec<usize> = (0..cells).map(|k| k * 37 % cells).collect();
        let singles: Vec<_> = scattered.iter().map(|&i| i..i + 1).collect();
        let caches = [
            (None, false),
            (Some(&prev[..]), false),
            (Some(&prev[..]), true),
        ];
        for plan in &plans {
            for sweep in [Sweep::Line, Sweep::Block, Sweep::Tiles] {
                for cache in caches {
                    for target in [&first, &second] {
                        let run = |visit| sweep_outcome(plan, sweep, (target, cols), cache, visit);
                        let want = run(Visit::Reference(&row_major));
                        let what = format!("{sweep:?}, clean {}, cache {cache:?}", plan.is_clean());
                        assert_eq!(run(Visit::Runs(whole)), want, "{what}");
                        assert_eq!(run(Visit::Runs(&ragged)), want, "{what}, ragged runs");
                        let want = run(Visit::Reference(&scattered));
                        assert_eq!(run(Visit::Runs(&singles)), want, "{what}, one-cell runs");
                        assert!(want.tallies.0 + want.tallies.1 > 0);
                    }
                }
                // An unchanged cached rewrite skips pulses on both paths.
                let run = |visit| sweep_outcome(plan, sweep, (&first, cols), caches[2], visit);
                assert!(run(Visit::Runs(whole)).tallies.1 > 0);
            }
        }
    }

    /// 300×`cols` at tile 128 → 3-row grid; live blocks on the diagonal
    /// plus (0, 2), everything else exactly zero.
    fn block_sparse(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            let (bi, bj) = (i / TILE, j / TILE);
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
        let on = TiledMatrix::new(&a, a.clone(), TILE, true);
        let off = TiledMatrix::new(&a, a.clone(), TILE, false);
        assert_eq!((on.scheduled_tiles(), off.scheduled_tiles()), (4, 9));
        assert!(on.active_cells() < off.active_cells());
        let x = probe(300);
        assert_eq!(
            on.matvec(&x),
            off.matvec(&x),
            "forward MVM must not see elision"
        );
        assert_eq!(on.matvec_transposed(&x), off.matvec_transposed(&x));
    }

    #[test]
    fn products_match_dense_reference_numerically() {
        let a = block_sparse(300, 260);
        let t = TiledMatrix::new(&a, a.clone(), TILE, true);
        let close = |got: Vec<f64>, want: Vec<f64>| {
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-9 * (1.0 + w.abs()), "{g} vs {w}");
            }
        };
        close(t.matvec(&probe(260)), a.matvec(&probe(260)));
        close(
            t.matvec_transposed(&probe(300)),
            a.matvec_transposed(&probe(300)),
        );
    }

    #[test]
    fn single_tile_operands_use_the_dense_path() {
        let a = Matrix::from_fn(40, 60, |i, j| ((i + 2 * j) % 7) as f64 * 0.2);
        let t = TiledMatrix::new(&a, a.clone(), TILE, true);
        assert_eq!(t.occupancy().grid_tiles(), 1);
        assert_eq!(t.matvec(&probe(60)), a.matvec(&probe(60)));
        assert_eq!(
            t.matvec_transposed(&probe(40)),
            a.matvec_transposed(&probe(40))
        );
    }

    #[test]
    fn all_dead_operand_yields_exact_zeros_in_both_modes() {
        let z = Matrix::zeros(200, 200);
        for elide in [true, false] {
            let t = TiledMatrix::new(&z, z.clone(), TILE, elide);
            let x: Vec<f64> = (0..200).map(|k| -1.0 - k as f64).collect();
            assert!(t.matvec(&x).iter().all(|v| v.to_bits() == 0), "exact +0.0");
        }
    }

    #[test]
    fn occupancy_reflects_planned_not_realized() {
        // The realized block differs from the plan (variation), but the
        // occupancy must come from the planned coefficients.
        let planned = block_sparse(300, 300);
        let t = TiledMatrix::new(&planned, planned.map(|v| v * 1.07), TILE, true);
        assert_eq!(t.occupancy().live_tiles(), 4);
        assert_eq!(t.occupancy().grid_tiles(), 9);
    }
}
