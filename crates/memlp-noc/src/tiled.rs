use memlp_crossbar::{CostLedger, Crossbar, CrossbarConfig, CrossbarError, TileOccupancy};
use memlp_linalg::parallel::{self, Threads};
use memlp_linalg::{LuFactors, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::NocConfig;

/// A matrix partitioned across a grid of crossbar tiles, coordinated by an
/// analog NoC.
///
/// Programming splits the matrix into `tile_side × tile_side` blocks, one
/// per physical crossbar. With `config.tile_elision` on (the default),
/// blocks that are entirely zero are **elided**: no tile is fabricated, no
/// pulses are spent, and the NoC never schedules the position — the
/// [`TileOccupancy`] index records which grid positions carry hardware.
/// Operations:
///
/// * **MVM** — each live tile multiplies its block by its input segment;
///   row partial sums flow through the NoC (analog buffers) to
///   accumulating arbiters. One NoC transfer per live tile is charged, and
///   buffer noise is added per nonzero partial sum (a zero-signal partial
///   induces no offset, so elided positions and zero-input live tiles are
///   indistinguishable to the noise stream — elision stays bitwise exact).
/// * **Solve** — bit-line drive voltages are distributed to the tiles and
///   the composite resistive network settles jointly; the settled state is
///   the solution of the *assembled* realized system (live tile
///   realizations stitched together, elided blocks exactly zero), read
///   back through the NoC with buffer noise.
///
/// All per-tile ledgers plus NoC transfer costs merge into one
/// [`CostLedger`]; elided positions appear in its `tiles_elided` /
/// `elided_writes` counters and nowhere else.
#[derive(Debug, Clone)]
pub struct TiledCrossbar {
    tiles: Vec<Vec<Option<Crossbar>>>, // [row_block][col_block], None = elided
    occupancy: TileOccupancy,
    rows: usize,
    cols: usize,
    tile_side: usize,
    noc: NocConfig,
    noise_rng: StdRng,
    noc_ledger: CostLedger,
}

impl TiledCrossbar {
    /// Partitions `matrix` into tiles of side `tile_side` and programs each
    /// live tile (setup phase), skipping all-zero blocks when
    /// `config.tile_elision` is set. Tile `(i, j)` receives a distinct RNG
    /// seed so variation draws are independent across tiles — and
    /// independent of which *other* tiles exist, so elision never shifts a
    /// live tile's stream.
    ///
    /// # Errors
    ///
    /// * [`CrossbarError::ShapeMismatch`] if `tile_side` is zero,
    /// * any programming error from the underlying tiles (negative
    ///   coefficients, size violations).
    pub fn program(
        matrix: &Matrix,
        tile_side: usize,
        config: CrossbarConfig,
        noc: NocConfig,
    ) -> Result<Self, CrossbarError> {
        if tile_side == 0 {
            return Err(CrossbarError::ShapeMismatch {
                expected: "tile side ≥ 1".into(),
                found: "0".into(),
            });
        }
        let row_blocks = matrix.rows().div_ceil(tile_side);
        let col_blocks = matrix.cols().div_ceil(tile_side);
        // One shared full-scale value so every tile maps coefficients onto
        // the same conductance scale (required for analog accumulation).
        let a_max = matrix.max_abs().max(f64::MIN_POSITIVE);
        // Occupancy is decided by the *planned* coefficients — never by
        // realized read-backs — so hardware noise can't gate scheduling.
        let mut occupancy = TileOccupancy::from_matrix(matrix, tile_side);
        let elide = config.tile_elision;
        let mut noc_ledger = CostLedger::new();

        let mut tiles = Vec::with_capacity(row_blocks);
        for bi in 0..row_blocks {
            let mut row = Vec::with_capacity(col_blocks);
            for bj in 0..col_blocks {
                let r0 = bi * tile_side;
                let c0 = bj * tile_side;
                let nr = tile_side.min(matrix.rows() - r0);
                let nc = tile_side.min(matrix.cols() - c0);
                if elide && !occupancy.is_live(bi, bj) {
                    // No hardware: no fabrication, no fault plan, no pulses.
                    noc_ledger.note_elided_tiles(1, (nr * nc) as u64);
                    row.push(None);
                    continue;
                }
                let block = matrix.block(r0, c0, nr, nc);
                let tile_cfg =
                    config.with_seed(config.seed ^ ((bi as u64) << 32) ^ (bj as u64) ^ 0x7173);
                let mut xb = Crossbar::new(tile_side, tile_cfg)?;
                xb.program_with_scale(&block, a_max)?;
                row.push(Some(xb));
            }
            tiles.push(row);
        }
        if !elide {
            // Every position carries hardware; the index reflects that.
            for bi in 0..row_blocks {
                for bj in 0..col_blocks {
                    occupancy.mark_live(bi, bj);
                }
            }
        }
        Ok(TiledCrossbar {
            tiles,
            occupancy,
            rows: matrix.rows(),
            cols: matrix.cols(),
            tile_side,
            noise_rng: StdRng::seed_from_u64(noc.seed),
            noc,
            noc_ledger,
        })
    }

    /// Number of physical (fabricated) tiles. With elision off this equals
    /// [`TiledCrossbar::grid_tile_count`].
    pub fn tile_count(&self) -> usize {
        self.tiles
            .iter()
            .flat_map(|r| r.iter())
            .filter(|t| t.is_some())
            .count()
    }

    /// Total grid positions (`row_blocks × col_blocks`) — the fabric
    /// geometry hop distances are computed over, live or not.
    pub fn grid_tile_count(&self) -> usize {
        self.occupancy.grid_tiles()
    }

    /// The tile occupancy index: which grid positions carry hardware.
    pub fn occupancy(&self) -> &TileOccupancy {
        &self.occupancy
    }

    /// Logical matrix dimensions `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The assembled **realized** logical matrix: every live tile's
    /// realized block (post write-quantization, variation, and stuck
    /// faults) stitched back together at its `(row, col)` offset; elided
    /// positions contribute exact zeros. This is the exact matrix the
    /// analog fabric multiplies by — digital reference computations (solve
    /// cores, property tests) compare against it.
    ///
    /// # Errors
    ///
    /// [`CrossbarError::NotProgrammed`] if any live tile lost its state.
    pub fn assembled_realized(&self) -> Result<Matrix, CrossbarError> {
        let mut assembled = Matrix::zeros(self.rows, self.cols);
        for (bi, tile_row) in self.tiles.iter().enumerate() {
            for (bj, tile) in tile_row.iter().enumerate() {
                if let Some(tile) = tile {
                    let block = tile.realized()?;
                    assembled.set_block(bi * self.tile_side, bj * self.tile_side, block);
                }
            }
        }
        Ok(assembled)
    }

    /// Merged cost ledger: every live tile plus the NoC fabric (which
    /// carries the elision counters).
    pub fn ledger(&self) -> CostLedger {
        let mut total = self.noc_ledger;
        for row in &self.tiles {
            for t in row.iter().flatten() {
                total.merge(t.ledger());
            }
        }
        total
    }

    /// Analog tiled MVM `y = A·x`, scheduling live tiles only.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::ShapeMismatch`] if `x.len()` differs from
    /// the logical column count, or any tile-level error.
    pub fn mvm(&mut self, x: &[f64]) -> Result<Vec<f64>, CrossbarError> {
        if x.len() != self.cols {
            return Err(CrossbarError::ShapeMismatch {
                expected: format!("input of length {}", self.cols),
                found: format!("length {}", x.len()),
            });
        }
        let grid = self.occupancy.grid_tiles();
        let live_cells = self.occupancy.live_cells();
        let mut y = vec![0.0; self.rows];
        let tile_side = self.tile_side;
        let cols = self.cols;
        let col_blocks = self.occupancy.col_blocks();

        // Phase 1: every live tile computes its partial product
        // concurrently. Each tile owns a private RNG stream (seeded per
        // (bi, bj) at programming time), so its variation/noise draws are
        // independent of worker scheduling — and of which other tiles
        // exist — and the partials are bit-for-bit reproducible at any
        // thread count, elided or not.
        let threads = Threads::resolve().for_flops(2 * live_cells as usize);
        let mut refs: Vec<(usize, &mut Crossbar)> = self
            .tiles
            .iter_mut()
            .flat_map(|r| r.iter_mut())
            .enumerate()
            .filter_map(|(idx, slot)| slot.as_mut().map(|t| (idx, t)))
            .collect();
        let partials = parallel::par_map_mut(threads, &mut refs, |_, (idx, tile)| {
            let c0 = (*idx % col_blocks) * tile_side;
            let seg = &x[c0..(c0 + tile_side).min(cols)];
            tile.mvm(seg)
        });
        let idxs: Vec<usize> = refs.iter().map(|(idx, _)| *idx).collect();

        // Phase 2: partial sums ride the NoC to the accumulating arbiters
        // in fixed (bi, bj) order over the live set — the shared
        // buffer-noise RNG and the fabric ledger see exactly the serial
        // event sequence. Elided positions contribute exact zeros and no
        // events; a zero-signal partial draws no offset noise, so the
        // noise stream is identical whether an all-zero block is elided or
        // physically driven.
        let noisy_fabric = self.noc.buffer_noise > 0.0 && grid > 1;
        for (idx, partial) in idxs.into_iter().zip(partials) {
            let partial = partial?;
            let r0 = (idx / col_blocks) * tile_side;
            // Each line picks up bounded buffer offset noise.
            let scale = partial.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if noisy_fabric && scale > 0.0 {
                for (k, p) in partial.iter().enumerate() {
                    let noise =
                        self.noise_rng.random_range(-1.0..=1.0) * self.noc.buffer_noise * scale;
                    y[r0 + k] += p + noise;
                }
            } else {
                for (k, p) in partial.iter().enumerate() {
                    y[r0 + k] += p;
                }
            }
            let (t, e) = self.noc.transfer_cost(grid, partial.len());
            self.noc_ledger.charge_noc_transfer(t, e, 1);
        }
        Ok(y)
    }

    /// Analog tiled transposed MVM `x = Aᵀ·y`: every live tile drives its
    /// **word lines** with its row segment of `y` and senses the bit
    /// lines ([`Crossbar::mvm_transposed`]), so the transpose costs no
    /// second array program — tile `(bi, bj)` contributes `Aᵢⱼᵀ·y_bi`
    /// into the output segment at its *column* offset, and the partials
    /// ride the same NoC fan-in as the forward product. The tile-transpose
    /// reduction iterates live tiles only.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::ShapeMismatch`] if `y.len()` differs from
    /// the logical row count, or any tile-level error.
    pub fn mvm_transposed(&mut self, y: &[f64]) -> Result<Vec<f64>, CrossbarError> {
        if y.len() != self.rows {
            return Err(CrossbarError::ShapeMismatch {
                expected: format!("input of length {}", self.rows),
                found: format!("length {}", y.len()),
            });
        }
        let grid = self.occupancy.grid_tiles();
        let live_cells = self.occupancy.live_cells();
        let mut x = vec![0.0; self.cols];
        let tile_side = self.tile_side;
        let rows = self.rows;
        let col_blocks = self.occupancy.col_blocks();

        // Phase 1: concurrent per-tile transposed partials over the live
        // set (private RNG stream per tile, as in `mvm`).
        let threads = Threads::resolve().for_flops(2 * live_cells as usize);
        let mut refs: Vec<(usize, &mut Crossbar)> = self
            .tiles
            .iter_mut()
            .flat_map(|r| r.iter_mut())
            .enumerate()
            .filter_map(|(idx, slot)| slot.as_mut().map(|t| (idx, t)))
            .collect();
        let partials = parallel::par_map_mut(threads, &mut refs, |_, (idx, tile)| {
            let r0 = (*idx / col_blocks) * tile_side;
            let seg = &y[r0..(r0 + tile_side).min(rows)];
            tile.mvm_transposed(seg)
        });
        let idxs: Vec<usize> = refs.iter().map(|(idx, _)| *idx).collect();

        // Phase 2: fixed-order NoC accumulation at the live tiles' *column*
        // offsets; noise and ledger events replay serially, zero-signal
        // partials drawing no offset (see `mvm`).
        let noisy_fabric = self.noc.buffer_noise > 0.0 && grid > 1;
        for (idx, partial) in idxs.into_iter().zip(partials) {
            let partial = partial?;
            let c0 = (idx % col_blocks) * tile_side;
            let scale = partial.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if noisy_fabric && scale > 0.0 {
                for (k, p) in partial.iter().enumerate() {
                    let noise =
                        self.noise_rng.random_range(-1.0..=1.0) * self.noc.buffer_noise * scale;
                    x[c0 + k] += p + noise;
                }
            } else {
                for (k, p) in partial.iter().enumerate() {
                    x[c0 + k] += p;
                }
            }
            let (t, e) = self.noc.transfer_cost(grid, partial.len());
            self.noc_ledger.charge_noc_transfer(t, e, 1);
        }
        Ok(x)
    }

    /// Analog tiled solve `A·x = b` for a square logical matrix: the live
    /// tiles settle jointly as one composite resistive network, equivalent
    /// to solving the assembled realized system (elided blocks exactly
    /// zero); the word-line read-back passes through the NoC buffers.
    ///
    /// # Errors
    ///
    /// * [`CrossbarError::ShapeMismatch`] for non-square matrices or a
    ///   wrong-length `b`,
    /// * [`CrossbarError::Linalg`] if the assembled realized system is
    ///   singular,
    /// * [`CrossbarError::NotProgrammed`] if any live tile lost its state.
    pub fn solve(&mut self, b: &[f64]) -> Result<Vec<f64>, CrossbarError> {
        if self.rows != self.cols {
            return Err(CrossbarError::ShapeMismatch {
                expected: "square logical matrix".into(),
                found: format!("{}x{}", self.rows, self.cols),
            });
        }
        if b.len() != self.rows {
            return Err(CrossbarError::ShapeMismatch {
                expected: format!("rhs of length {}", self.rows),
                found: format!("length {}", b.len()),
            });
        }
        // Assemble the realized system the composite network embodies
        // (cheap block copies; the LU below runs on the threaded kernels).
        let assembled = self.assembled_realized()?;
        let mut x = LuFactors::factor(assembled)?.solve(b)?;
        // Read-back through NoC buffers: bounded offset per line. The
        // fabric geometry (grid), not the population, decides whether the
        // read-back crosses buffers.
        let grid = self.occupancy.grid_tiles();
        let live = self.tile_count();
        if self.noc.buffer_noise > 0.0 && grid > 1 {
            let scale = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for v in &mut x {
                *v += self.noise_rng.random_range(-1.0..=1.0) * self.noc.buffer_noise * scale;
            }
        }
        // Charge: one settle on every live tile (they participate jointly)
        // plus the read-back transfers — an elided position has no array to
        // settle and nothing to transfer.
        let (t, e) = self.noc.transfer_cost(grid, self.rows);
        self.noc_ledger
            .charge_noc_transfer(t * live as f64, e * live as f64, live as u64);
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big_matrix(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            let base = 0.2 + ((i * 31 + j * 17) % 13) as f64 * 0.05;
            if i == j {
                base + 5.0
            } else {
                base
            }
        })
    }

    /// 12×12 at tile side 4: a 3×3 grid where only the diagonal blocks and
    /// the (0, 2) block are nonzero — 4 live, 5 elided.
    fn block_sparse_matrix() -> Matrix {
        Matrix::from_fn(12, 12, |i, j| {
            let (bi, bj) = (i / 4, j / 4);
            if bi == bj || (bi == 0 && bj == 2) {
                0.3 + ((i * 7 + j * 5) % 9) as f64 * 0.1 + if i == j { 4.0 } else { 0.0 }
            } else {
                0.0
            }
        })
    }

    #[test]
    fn tile_grid_covers_matrix() {
        let a = big_matrix(10);
        let t = TiledCrossbar::program(&a, 4, CrossbarConfig::ideal(), NocConfig::hierarchical())
            .unwrap();
        assert_eq!(t.tile_count(), 9); // ceil(10/4)² = 3²
        assert_eq!(t.grid_tile_count(), 9);
        assert_eq!(t.shape(), (10, 10));
    }

    #[test]
    fn zero_tiles_are_elided() {
        let a = block_sparse_matrix();
        let t = TiledCrossbar::program(&a, 4, CrossbarConfig::ideal(), NocConfig::hierarchical())
            .unwrap();
        assert_eq!(t.grid_tile_count(), 9);
        assert_eq!(t.tile_count(), 4, "only live blocks fabricated");
        assert_eq!(t.occupancy().live_tiles(), 4);
        let counts = t.ledger().counts();
        assert_eq!(counts.tiles_elided, 5);
        assert_eq!(counts.elided_writes, 5 * 16);
        assert_eq!(counts.setup_writes, 4 * 16, "live tiles pay full pulses");
    }

    #[test]
    fn elision_off_fabricates_the_full_grid() {
        let a = block_sparse_matrix();
        let cfg = CrossbarConfig::ideal().with_tile_elision(false);
        let t = TiledCrossbar::program(&a, 4, cfg, NocConfig::hierarchical()).unwrap();
        assert_eq!(t.tile_count(), 9);
        assert_eq!(t.occupancy().live_tiles(), 9);
        let counts = t.ledger().counts();
        assert_eq!(counts.tiles_elided, 0);
        assert_eq!(counts.setup_writes, 9 * 16);
    }

    #[test]
    fn elided_mvm_is_bitwise_identical_to_dense() {
        let a = block_sparse_matrix();
        let noc = NocConfig::hierarchical().with_buffer_noise(0.01);
        let cfg = CrossbarConfig::paper_default().with_variation(5.0);
        let mut on = TiledCrossbar::program(&a, 4, cfg, noc).unwrap();
        let mut off = TiledCrossbar::program(&a, 4, cfg.with_tile_elision(false), noc).unwrap();
        let x: Vec<f64> = (0..12).map(|i| (i as f64 * 0.37).sin()).collect();
        let y_on = on.mvm(&x).unwrap();
        let y_off = off.mvm(&x).unwrap();
        assert_eq!(y_on, y_off, "elision must not change the MVM bits");
        let xt_on = on.mvm_transposed(&x).unwrap();
        let xt_off = off.mvm_transposed(&x).unwrap();
        assert_eq!(xt_on, xt_off);
        // But the fabric traffic differs: live tiles only.
        assert!(
            on.ledger().counts().noc_transfers < off.ledger().counts().noc_transfers,
            "elision must cut NoC transfers"
        );
    }

    #[test]
    fn elided_solve_matches_dense_solve() {
        let a = block_sparse_matrix();
        let noc = NocConfig::hierarchical().with_buffer_noise(0.0);
        let b = vec![1.0; 12];
        let mut on = TiledCrossbar::program(&a, 4, CrossbarConfig::ideal(), noc).unwrap();
        let mut off =
            TiledCrossbar::program(&a, 4, CrossbarConfig::ideal().with_tile_elision(false), noc)
                .unwrap();
        let x_on = on.solve(&b).unwrap();
        let x_off = off.solve(&b).unwrap();
        assert_eq!(x_on, x_off, "assembled system is identical");
    }

    #[test]
    fn tiled_mvm_matches_monolithic_when_ideal() {
        let a = big_matrix(12);
        let cfg = CrossbarConfig::ideal();
        let noc = NocConfig::hierarchical().with_buffer_noise(0.0);
        let mut t = TiledCrossbar::program(&a, 5, cfg, noc).unwrap();
        let x: Vec<f64> = (0..12).map(|i| (i as f64 * 0.7).sin()).collect();
        let y = t.mvm(&x).unwrap();
        let exact = a.matvec(&x);
        for (got, want) in y.iter().zip(&exact) {
            assert!(
                (got - want).abs() < 2e-3 * want.abs().max(1.0),
                "{got} vs {want}"
            );
        }
    }

    #[test]
    fn tiled_transposed_mvm_matches_monolithic_when_ideal() {
        // Rectangular so the row/column tile offsets genuinely swap.
        let a = Matrix::from_fn(12, 9, |i, j| 0.2 + ((i * 29 + j * 13) % 11) as f64 * 0.07);
        let cfg = CrossbarConfig::ideal();
        let noc = NocConfig::hierarchical().with_buffer_noise(0.0);
        let mut t = TiledCrossbar::program(&a, 5, cfg, noc).unwrap();
        let y: Vec<f64> = (0..12).map(|i| (i as f64 * 0.9).cos()).collect();
        let x = t.mvm_transposed(&y).unwrap();
        assert_eq!(x.len(), 9);
        let exact = a.matvec_transposed(&y);
        for (got, want) in x.iter().zip(&exact) {
            assert!(
                (got - want).abs() < 2e-3 * want.abs().max(1.0),
                "{got} vs {want}"
            );
        }
        // Wrong input length (columns instead of rows) is rejected.
        assert!(t.mvm_transposed(&[1.0; 9]).is_err());
        // The transposed fan-in pays the same NoC traffic as the forward
        // product: one transfer per tile.
        assert_eq!(t.ledger().counts().noc_transfers, 6); // 3×2 tiles
    }

    #[test]
    fn tiled_solve_matches_exact_when_ideal() {
        let a = big_matrix(9);
        let noc = NocConfig::hierarchical().with_buffer_noise(0.0);
        let mut t = TiledCrossbar::program(&a, 4, CrossbarConfig::ideal(), noc).unwrap();
        let b = vec![1.0; 9];
        let x = t.solve(&b).unwrap();
        let back = a.matvec(&x);
        for (got, want) in back.iter().zip(&b) {
            assert!((got - want).abs() < 5e-2, "{got} vs {want}");
        }
    }

    #[test]
    fn buffer_noise_perturbs_but_is_bounded() {
        let a = big_matrix(8);
        let noc = NocConfig::hierarchical().with_buffer_noise(0.01);
        let mut t = TiledCrossbar::program(&a, 4, CrossbarConfig::ideal(), noc).unwrap();
        let x = vec![1.0; 8];
        let y = t.mvm(&x).unwrap();
        let exact = a.matvec(&x);
        let mut any_diff = false;
        for (got, want) in y.iter().zip(&exact) {
            let rel = (got - want).abs() / want.abs().max(1.0);
            assert!(rel < 0.1, "noise too large: {rel}");
            if rel > 1e-6 {
                any_diff = true;
            }
        }
        assert!(any_diff, "1% buffer noise should be visible");
    }

    #[test]
    fn noc_transfers_are_charged() {
        let a = big_matrix(8);
        let mut t =
            TiledCrossbar::program(&a, 4, CrossbarConfig::ideal(), NocConfig::mesh()).unwrap();
        t.mvm(&[1.0; 8]).unwrap();
        let ledger = t.ledger();
        assert_eq!(ledger.counts().noc_transfers, 4); // 2×2 tiles
        assert!(
            ledger.counts().setup_writes > 0,
            "tile programming recorded"
        );
    }

    #[test]
    fn mesh_spends_more_noc_time_than_tree_at_scale() {
        let a = big_matrix(32);
        let run = |noc: NocConfig| {
            let mut t = TiledCrossbar::program(&a, 4, CrossbarConfig::ideal(), noc).unwrap();
            t.mvm(&vec![1.0; 32]).unwrap();
            t.ledger().run_time_s()
        };
        let tree = run(NocConfig::hierarchical().with_buffer_noise(0.0));
        let mesh = run(NocConfig::mesh().with_buffer_noise(0.0));
        assert!(mesh > tree, "mesh {mesh} vs tree {tree}");
    }

    #[test]
    fn rejects_zero_tile_side() {
        let a = big_matrix(4);
        assert!(matches!(
            TiledCrossbar::program(&a, 0, CrossbarConfig::ideal(), NocConfig::default()),
            Err(CrossbarError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn rejects_bad_input_lengths() {
        let a = big_matrix(6);
        let mut t =
            TiledCrossbar::program(&a, 3, CrossbarConfig::ideal(), NocConfig::default()).unwrap();
        assert!(t.mvm(&[1.0; 5]).is_err());
        assert!(t.solve(&[1.0; 5]).is_err());
    }

    #[test]
    fn rectangular_solve_rejected() {
        let a = Matrix::from_fn(4, 6, |i, j| 1.0 + (i + j) as f64 * 0.1);
        let mut t =
            TiledCrossbar::program(&a, 3, CrossbarConfig::ideal(), NocConfig::default()).unwrap();
        assert!(t.solve(&[1.0; 4]).is_err());
        assert_eq!(t.mvm(&[1.0; 6]).unwrap().len(), 4);
    }

    #[test]
    fn variation_affects_tiles_independently() {
        let a = big_matrix(8);
        let cfg = CrossbarConfig::paper_default().with_variation(10.0);
        let mut t = TiledCrossbar::program(&a, 4, cfg, NocConfig::default()).unwrap();
        let y = t.mvm(&[1.0; 8]).unwrap();
        let exact = a.matvec(&[1.0; 8]);
        // Perturbed but sane.
        for (got, want) in y.iter().zip(&exact) {
            assert!((got - want).abs() / want.abs().max(1.0) < 0.2);
        }
    }
}
