use memlp_crossbar::mapping::ConductanceMap;
use memlp_crossbar::{
    ArrayBlock, CostLedger, CrossbarConfig, CrossbarError, FaultPlan, Fidelity, Phase, Quantizer,
    TileOccupancy, Writer,
};
use memlp_linalg::parallel::{self, Threads};
use memlp_linalg::{LuFactors, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::NocConfig;

/// Salt separating the fault-plan seed stream from the variation stream.
const FAULT_PLAN_SALT: u64 = 0x0FA0_17ED_7113_A001;

/// Salt for the transient-upset stream.
const TRANSIENT_SALT: u64 = 0x0FA0_17ED_7113_A002;

/// One fabricated tile: its realized block and settle conductance.
#[derive(Debug, Clone)]
struct Tile {
    realized: Matrix,
    g: f64,
}

/// A matrix partitioned across a grid of crossbar tiles, coordinated by an
/// analog NoC.
///
/// Programming is one [`ArrayBlock::write_tiled`] of the whole matrix at
/// `tile_side` — the routine a solver's tiled block write uses — so each
/// physical crossbar holds one block. With `config.tile_elision` on (the
/// default), an all-zero block is **elided**: no tile is fabricated, no
/// pulse is spent, and the NoC never schedules the position (the
/// [`TileOccupancy`] index records which positions carry hardware). Every
/// live tile has its own converters. Operations:
///
/// * **MVM** — each live tile multiplies its block by its DAC-quantized
///   input segment and ADC-quantizes its partial; partials flow through
///   the NoC's analog buffers to accumulating arbiters. One analog op and
///   one NoC transfer per live tile are charged, and buffer noise is added
///   per nonzero partial (a zero-signal partial draws none, so elision
///   stays bitwise exact).
/// * **Solve** — the live tiles settle jointly on DAC-quantized drive
///   voltages as the *assembled* realized system (elided blocks exactly
///   zero); the ADC-quantized read-back crosses the NoC buffers. One
///   analog solve and one read-back transfer per live tile are charged.
///
/// Tiles are functional-fidelity arrays: a configuration at
/// [`Fidelity::Circuit`] is refused rather than silently downgraded.
#[derive(Debug, Clone)]
pub struct TiledCrossbar {
    config: CrossbarConfig,
    /// Grid positions row-major; `None` where elided.
    tiles: Vec<Option<Tile>>,
    /// Which grid positions carry hardware (every one with elision off).
    occupancy: TileOccupancy,
    noc: NocConfig,
    adc: Quantizer,
    dac: Quantizer,
    transient_rng: StdRng,
    noise_rng: StdRng,
    ledger: CostLedger,
}

impl TiledCrossbar {
    /// Partitions `matrix` into tiles of side `tile_side` and programs each
    /// live tile (setup phase), skipping all-zero blocks when
    /// `config.tile_elision` is set. Variation is drawn from one stream in
    /// row-major cell order over live tiles, and every tile maps onto the
    /// shared full-scale conductance range analog accumulation needs.
    ///
    /// # Errors
    ///
    /// * [`CrossbarError::ShapeMismatch`] if `tile_side` is zero,
    /// * [`CrossbarError::SizeExceeded`] if `tile_side` exceeds
    ///   `config.max_size`,
    /// * [`CrossbarError::NegativeCoefficient`] for a negative coefficient,
    /// * [`CrossbarError::Unsupported`] at circuit fidelity.
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
        config.check_side(tile_side)?;
        if config.fidelity == Fidelity::Circuit {
            return Err(CrossbarError::Unsupported {
                reason: "tiled arrays model functional fidelity only; the Eqn 5 \
                         circuit read-out runs on a single Crossbar"
                    .into(),
            });
        }
        CrossbarError::check_nonnegative(matrix)?;
        let (rows, cols) = (matrix.rows(), matrix.cols());
        let plan = FaultPlan::draw(&config.faults, rows, cols, config.seed ^ FAULT_PLAN_SALT);
        let mut ledger = CostLedger::new();
        let mut writer = Writer {
            config: &config,
            rng: &mut StdRng::seed_from_u64(config.seed),
            ledger: &mut ledger,
            phase: Phase::Setup,
        };
        let realized = ArrayBlock::new(plan, config.spare_lines)
            .write_tiled(matrix, tile_side, &mut writer)
            .into_realized();
        // Live positions follow the planned coefficients, never the
        // realized read-back; with elision off every position is hardware.
        let mut occupancy = TileOccupancy::from_matrix(matrix, tile_side);
        if !config.tile_elision {
            for bi in 0..occupancy.row_blocks() {
                for bj in 0..occupancy.col_blocks() {
                    occupancy.mark_live(bi, bj);
                }
            }
        }
        // One shared full-scale value so every tile maps coefficients onto
        // the same conductance scale (required for analog accumulation).
        let map = ConductanceMap::new(matrix.max_abs().max(f64::MIN_POSITIVE), &config.device);
        let tiles = (0..occupancy.grid_tiles())
            .map(|k| {
                let (r0, c0, nr, nc) = span(&occupancy, k);
                let live = occupancy.is_live(r0 / tile_side, c0 / tile_side);
                live.then(|| {
                    let realized = realized.block(r0, c0, nr, nc);
                    let g = map.total_conductance(nr * nc, realized.as_slice().iter().sum());
                    Tile { realized, g }
                })
            })
            .collect();
        Ok(TiledCrossbar {
            tiles,
            occupancy,
            adc: Quantizer::new(config.adc_bits),
            dac: Quantizer::new(config.dac_bits),
            transient_rng: StdRng::seed_from_u64(config.seed ^ TRANSIENT_SALT),
            noise_rng: StdRng::seed_from_u64(noc.seed),
            noc,
            ledger,
            config,
        })
    }

    /// Number of physical (fabricated) tiles. With elision off this equals
    /// [`TiledCrossbar::grid_tile_count`].
    pub fn tile_count(&self) -> usize {
        self.occupancy.live_tiles()
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
        self.occupancy.shape()
    }

    /// The assembled **realized** logical matrix: every live tile's
    /// realized block (post write-quantization, variation, and stuck
    /// faults) stitched back together at its `(row, col)` offset; elided
    /// positions contribute exact zeros. This is the exact matrix the
    /// analog fabric multiplies by — digital reference computations (solve
    /// cores, property tests) compare against it.
    pub fn assembled_realized(&self) -> Matrix {
        let (rows, cols) = self.shape();
        let mut assembled = Matrix::zeros(rows, cols);
        for (k, tile) in self.live() {
            let (r0, c0, _, _) = span(&self.occupancy, k);
            assembled.set_block(r0, c0, &tile.realized);
        }
        assembled
    }

    /// The cost ledger: tile programming, analog ops and NoC transfers,
    /// with elided positions in its `tiles_elided` / `elided_writes`
    /// counters and nowhere else.
    pub fn ledger(&self) -> CostLedger {
        self.ledger
    }

    /// Analog tiled MVM `y = A·x`, scheduling live tiles only.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::ShapeMismatch`] if `x.len()` differs from
    /// the logical column count.
    ///
    /// memlp-lint: analog_source
    pub fn mvm(&mut self, x: &[f64]) -> Result<Vec<f64>, CrossbarError> {
        check_len("input", x.len(), self.shape().1)?;
        Ok(self.drive(x, false))
    }

    /// Analog tiled transposed MVM `x = Aᵀ·y`: every live tile drives its
    /// **word lines** with its row segment of `y` and senses the bit lines,
    /// so the transpose costs no second array program — tile `(bi, bj)`
    /// contributes `Aᵢⱼᵀ·y_bi` into the output segment at its *column*
    /// offset, and the partials ride the same NoC fan-in as the forward
    /// product.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::ShapeMismatch`] if `y.len()` differs from
    /// the logical row count.
    ///
    /// memlp-lint: analog_source
    pub fn mvm_transposed(&mut self, y: &[f64]) -> Result<Vec<f64>, CrossbarError> {
        check_len("input", y.len(), self.shape().0)?;
        Ok(self.drive(y, true))
    }

    /// Analog tiled solve `A·x = b` for a square logical matrix: the live
    /// tiles settle jointly as one composite resistive network, equivalent
    /// to solving the assembled realized system (elided blocks exactly
    /// zero) on DAC-quantized drive voltages; the ADC-quantized word-line
    /// read-back passes through the NoC buffers.
    ///
    /// # Errors
    ///
    /// * [`CrossbarError::ShapeMismatch`] for non-square matrices or a
    ///   wrong-length `b`,
    /// * [`CrossbarError::Linalg`] if the assembled realized system is
    ///   singular.
    ///
    /// memlp-lint: analog_source
    pub fn solve(&mut self, b: &[f64]) -> Result<Vec<f64>, CrossbarError> {
        let (rows, cols) = self.shape();
        if rows != cols {
            return Err(CrossbarError::ShapeMismatch {
                expected: "square logical matrix".into(),
                found: format!("{rows}x{cols}"),
            });
        }
        check_len("rhs", b.len(), rows)?;
        let bq = self.dac.quantize_vec(b);
        let mut x = LuFactors::factor(self.assembled_realized())?.solve(&bq)?;
        self.adc.quantize_in_place(&mut x);
        self.config
            .faults
            .upset_read(&mut x, &mut self.transient_rng);
        let g = self.live().map(|(_, t)| t.g).sum();
        let n = rows as u64;
        self.ledger
            .charge_analog_op(&self.config.cost, true, n, n, g, self.config.device.v_read);
        // Read-back through NoC buffers: bounded offset per line. The
        // fabric geometry (grid), not the population, decides whether the
        // read-back crosses buffers.
        let grid = self.occupancy.grid_tiles();
        if self.noc.buffer_noise > 0.0 && grid > 1 {
            let scale = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for v in &mut x {
                *v += self.noise_rng.random_range(-1.0..=1.0) * self.noc.buffer_noise * scale;
            }
        }
        // Every live tile ships its read-back; an elided position has no
        // array to settle and nothing to transfer.
        let live = self.tile_count();
        let (t, e) = self.noc.transfer_cost(grid, rows);
        self.ledger
            .charge_noc_transfer(t * live as f64, e * live as f64, live as u64);
        Ok(x)
    }

    /// Live tiles with their grid index, row-major.
    fn live(&self) -> impl Iterator<Item = (usize, &Tile)> {
        let tiles = self.tiles.iter().enumerate();
        tiles.filter_map(|(k, t)| t.as_ref().map(|t| (k, t)))
    }

    /// One tiled MVM (`Aᵀ·input` when `transposed`). Phase 1: every live
    /// tile converts its segment of `input` (DAC), multiplies and converts
    /// its partial (ADC), concurrently; the converters draw nothing at
    /// random, so the partials are bit-for-bit reproducible at any thread
    /// count. Phase 2, in fixed row-major order over the live set: each
    /// partial takes its transient upsets, is charged as one analog op of
    /// its tile, picks up bounded buffer offset noise on its way through
    /// the NoC (a zero-signal partial draws none) and accumulates at its
    /// row offset (column offset when `transposed`).
    fn drive(&mut self, input: &[f64], transposed: bool) -> Vec<f64> {
        let live: Vec<(usize, &Tile)> = self.live().collect();
        let threads = Threads::resolve().for_flops(2 * self.occupancy.live_cells() as usize);
        let (dac, adc) = (self.dac, self.adc);
        let partials = parallel::run_indexed(threads, live.len(), |n| {
            let (k, tile) = live[n];
            let (r0, c0, nr, nc) = span(&self.occupancy, k);
            let (inputs, mut partial) = if transposed {
                let yq = dac.quantize_vec(&input[r0..r0 + nr]);
                (nr, tile.realized.matvec_transposed(&yq))
            } else {
                let xq = dac.quantize_vec(&input[c0..c0 + nc]);
                (nc, tile.realized.matvec(&xq))
            };
            adc.quantize_in_place(&mut partial);
            (k, inputs, tile.g, partial)
        });
        let grid = self.occupancy.grid_tiles();
        let noisy_fabric = self.noc.buffer_noise > 0.0 && grid > 1;
        let (rows, cols) = self.occupancy.shape();
        let mut out = vec![0.0; if transposed { cols } else { rows }];
        for (idx, inputs, g, mut partial) in partials {
            self.config
                .faults
                .upset_read(&mut partial, &mut self.transient_rng);
            let (inputs, outputs) = (inputs as u64, partial.len() as u64);
            let (cost, v_read) = (&self.config.cost, self.config.device.v_read);
            self.ledger
                .charge_analog_op(cost, false, inputs, outputs, g, v_read);
            let (r0, c0, _, _) = span(&self.occupancy, idx);
            let at = if transposed { c0 } else { r0 };
            let scale = partial.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (o, p) in out[at..].iter_mut().zip(&partial) {
                if noisy_fabric && scale > 0.0 {
                    let noise =
                        self.noise_rng.random_range(-1.0..=1.0) * self.noc.buffer_noise * scale;
                    *o += p + noise;
                } else {
                    *o += p;
                }
            }
            let (t, e) = self.noc.transfer_cost(grid, partial.len());
            self.ledger.charge_noc_transfer(t, e, 1);
        }
        out
    }
}

/// Row offset, column offset, rows and columns of grid position `k`.
fn span(occ: &TileOccupancy, k: usize) -> (usize, usize, usize, usize) {
    let (bi, bj) = (k / occ.col_blocks(), k % occ.col_blocks());
    let (nr, nc) = occ.tile_dims(bi, bj);
    (bi * occ.tile_side(), bj * occ.tile_side(), nr, nc)
}

/// Refuses an operand of the wrong length.
fn check_len(what: &str, got: usize, want: usize) -> Result<(), CrossbarError> {
    if got != want {
        return Err(CrossbarError::ShapeMismatch {
            expected: format!("{what} of length {want}"),
            found: format!("length {got}"),
        });
    }
    Ok(())
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
