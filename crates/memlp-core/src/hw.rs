//! Hardware context for the structured (block-wise) crossbar simulation.
//!
//! The Newton systems the solvers build are huge but extremely structured —
//! a handful of dense blocks (`A′`, `A″`, transposes) plus diagonals. The
//! context realizes each block as its own array region through the one
//! block routine ([`memlp_crossbar::ArrayBlock`]) that the standalone
//! [`memlp_crossbar::Crossbar`] and the NoC-tiled array also program
//! through, so per-write physics (write quantization, variation redrawn
//! per write — Eqn 18 —, fault plans, delta codes, tile elision) lives in
//! one place. This context keeps what is shared across blocks: the block
//! keys, the variation and transient-upset streams, the converters, the
//! recovery rungs and the NoC charging. See DESIGN.md §4.
//!
//! # Blocks, keys and faults
//!
//! Each write targets a **block key** — a stable identifier the solver
//! assigns to one physical array region (the `A′` block, the `Z` diagonal,
//! …). Hard defects are a property of the *physical region*, so the context
//! draws one [`FaultPlan`] per key from a dedicated seed stream and keeps
//! it in the key's [`ArrayBlock`]: a stuck cell stays stuck across the
//! per-iteration diagonal rewrites *and* across §4.3 re-solve attempts
//! ([`HwContext::begin_attempt`] redraws variation, never defects). The
//! first faulty write of a key queues a [`RecoveryEvent::FaultsDetected`],
//! read from the key's [`FaultPlan`], for the solver to drain; the recovery
//! rungs ([`HwContext::reprogram_faulty`], [`HwContext::remap_dead_lines`])
//! mutate the plans so the *next* attempt's writes realize repaired
//! hardware.

use std::collections::BTreeMap;
use std::ops::Range;

use memlp_crossbar::mapping::ConductanceMap;
use memlp_crossbar::{
    ArrayBlock, CostLedger, CrossbarConfig, FaultPlan, Phase, Quantizer, TiledMatrix, Writer,
};
use memlp_linalg::Matrix;
use memlp_noc::NocConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::recovery::RecoveryEvent;

/// Salt separating per-block fault-plan seeds from the variation stream.
const FAULT_STREAM_SALT: u64 = 0x0FA0_17ED_B10C_0000;

/// Salt for the transient-upset stream.
const TRANSIENT_SALT: u64 = 0x0FA0_17ED_F11B_0000;

/// Tile side the analog operand planes are partitioned at — the §3.4
/// sub-array granularity the NoC schedules, finer than the single-array
/// manufacturing limit so occupancy can resolve block structure inside
/// one array's worth of operand.
pub const ANALOG_TILE_SIDE: usize = 128;

/// Per-solve hardware state: RNG streams, converters, per-block array
/// state and the cost ledger.
#[derive(Debug, Clone)]
pub struct HwContext {
    config: CrossbarConfig,
    noc: NocConfig,
    rng: StdRng,
    transient_rng: StdRng,
    /// Persistent per-block state (defects, spares, detection latch, delta
    /// codes), keyed by the solver's block ids. A `BTreeMap` keeps
    /// iteration deterministic for the recovery sweeps.
    blocks: BTreeMap<u32, ArrayBlock>,
    /// Detection events not yet drained by the solver.
    pending_events: Vec<RecoveryEvent>,
    ledger: CostLedger,
    adc: Quantizer,
    dac: Quantizer,
}

impl HwContext {
    /// Creates a context from a crossbar configuration, with the default
    /// hierarchical NoC coordinating tiles whenever a system exceeds the
    /// configured maximum array size (§3.4).
    pub fn new(config: CrossbarConfig) -> Self {
        HwContext {
            adc: Quantizer::new(config.adc_bits),
            dac: Quantizer::new(config.dac_bits),
            rng: StdRng::seed_from_u64(config.seed),
            transient_rng: StdRng::seed_from_u64(config.seed ^ TRANSIENT_SALT),
            blocks: BTreeMap::new(),
            pending_events: Vec::new(),
            ledger: CostLedger::new(),
            noc: NocConfig::hierarchical(),
            config,
        }
    }

    /// Number of crossbar tiles a `dim × dim` system occupies given the
    /// configured maximum array side.
    pub fn tiles_for(&self, dim: usize) -> usize {
        let per_side = dim.div_ceil(self.config.max_size.max(1));
        per_side * per_side
    }

    /// The configuration in force.
    pub fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// The accumulated cost ledger.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Records one core-matrix rebuild the solver avoided by reusing its
    /// assembled workspace (digital bookkeeping; free on hardware).
    pub fn note_rebuild_avoided(&mut self) {
        self.ledger.note_rebuild_avoided();
    }

    /// Records one digital core factorization (flop count and factor fill)
    /// — bookkeeping for the dense-vs-sparse Newton path comparison.
    pub fn note_factorization(&mut self, flops: u64, nnz: u64) {
        self.ledger.note_factorization(flops, nnz);
    }

    /// Re-seeds the variation RNG — the §4.3 re-solve ("double checking")
    /// scheme: re-writing the array redraws every variation deviate. Hard
    /// defects ([`FaultPlan`]s) are untouched; they belong to the silicon,
    /// not the write history.
    pub fn reseed(&mut self, salt: u64) {
        self.rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(salt));
        // The whole point of the redraw is fresh deviates on every cell;
        // the code caches would defeat it by skipping unchanged codes.
        self.invalidate_codes();
    }

    /// Drops every delta-programming code cache: the next write of each
    /// block re-programs all cells. Called automatically on variation
    /// redraws, repairs and remaps; callers performing their own wholesale
    /// rewrites (e.g. a drift refresh, where the *stored charge* decayed
    /// even though the target codes did not change) must call this first or
    /// the refresh would be skipped as a no-op.
    pub fn invalidate_codes(&mut self) {
        self.blocks.values_mut().for_each(ArrayBlock::invalidate);
    }

    /// Starts a new solve attempt: redraws variation (as [`reseed`]) and
    /// restarts the transient-upset stream for the attempt, while keeping
    /// fault plans, repairs, remaps and the accumulated ledger.
    ///
    /// [`reseed`]: HwContext::reseed
    pub fn begin_attempt(&mut self, salt: u64) {
        self.reseed(salt);
        self.transient_rng =
            StdRng::seed_from_u64(self.config.seed.wrapping_add(salt) ^ TRANSIENT_SALT);
    }

    /// Starts a new solve on **warm** hardware: restarts only the
    /// transient-upset stream (so request `salt` is reproducible on its
    /// own), while keeping the variation state, the delta-programming code
    /// caches, fault plans, repairs, remaps and the accumulated ledger.
    ///
    /// This is the serving-pool counterpart of
    /// [`HwContext::begin_attempt`]: the physical array still holds the
    /// conductances of the previous solve of the same problem family, so a
    /// repeat request's writes hit the code caches and are skipped as
    /// delta no-ops instead of being re-pulsed. A variation redraw is
    /// exactly what warm reuse must *not* do — that is the cold path.
    pub fn begin_reuse(&mut self, salt: u64) {
        self.transient_rng = StdRng::seed_from_u64(
            self.config
                .seed
                .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ TRANSIENT_SALT,
        );
    }

    /// Writes a non-negative block matrix under block key `key` as one
    /// flat region ([`ArrayBlock::write_block`]: only non-zero codes are
    /// pulsed and charged); returns the realized block.
    ///
    /// memlp-lint: analog_source
    pub fn write_matrix(&mut self, key: u32, target: &Matrix, phase: Phase) -> Matrix {
        let shape = (target.rows(), target.cols());
        self.write(key, shape, phase, |b, w| b.write_block(target, w))
    }

    /// Writes a non-negative block matrix under block key `key` as a grid
    /// of `tile_side`-square tiles ([`ArrayBlock::write_tiled`]); returns
    /// the realized block with its occupancy.
    ///
    /// memlp-lint: analog_source
    pub fn write_matrix_tiled(
        &mut self,
        key: u32,
        target: &Matrix,
        tile_side: usize,
        phase: Phase,
    ) -> TiledMatrix {
        let shape = (target.rows(), target.cols());
        self.write(key, shape, phase, |b, w| {
            b.write_tiled(target, tile_side, w)
        })
    }

    /// Writes a diagonal (or other line of private cells) under block key
    /// `key` ([`ArrayBlock::write_line`]: the paper's 2.7·N per-iteration
    /// updates); returns the realized values. The key's [`FaultPlan`] is a
    /// `len × 1` region (a private line per cell).
    ///
    /// memlp-lint: analog_source
    pub fn write_diag(&mut self, key: u32, target: &[f64], phase: Phase) -> Vec<f64> {
        self.write(key, (target.len(), 1), phase, |b, w| {
            b.write_line(target, w)
        })
    }

    /// Runs one write of block `key` at `shape`, drawing the block's fault
    /// plan on its first write, then queues its first detection.
    fn write<T>(
        &mut self,
        key: u32,
        (rows, cols): (usize, usize),
        phase: Phase,
        write: impl FnOnce(&mut ArrayBlock, &mut Writer<'_>) -> T,
    ) -> T {
        // The plan seed mixes the configuration seed with the key only —
        // never the attempt salt — so defects are a stable property of the
        // physical block across re-solve attempts.
        let seed = self.config.seed
            ^ FAULT_STREAM_SALT
            ^ (u64::from(key) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let (faults, spares) = (self.config.faults, self.config.spare_lines);
        let block = self
            .blocks
            .entry(key)
            .or_insert_with(|| ArrayBlock::new(FaultPlan::draw(&faults, rows, cols, seed), spares));
        // A long-lived (pooled) context may reprogram a block key at a new
        // shape when a different problem lands on the same array. That is
        // a re-allocation of silicon, not a rewrite: the old plan, its
        // repairs, its reported-once latch and its codes all describe cells
        // that no longer exist, so the block is drawn afresh (the shape is
        // mixed into the seed to keep distinct allocations independent).
        if (block.plan().rows(), block.plan().cols()) != (rows, cols) {
            let reseed = seed ^ (rows as u64).rotate_left(32) ^ cols as u64;
            *block = ArrayBlock::new(FaultPlan::draw(&faults, rows, cols, reseed), spares);
        }
        let realized = write(
            block,
            &mut Writer {
                config: &self.config,
                rng: &mut self.rng,
                ledger: &mut self.ledger,
                phase,
            },
        );
        if let Some(plan) = block.first_detection() {
            self.pending_events.push(RecoveryEvent::FaultsDetected {
                block: key,
                stuck_cells: plan.stuck_cells(),
                weak_cells: plan.weak_cells(),
                dead_rows: plan.dead_rows().len(),
                dead_cols: plan.dead_cols().len(),
            });
        }
        realized
    }

    /// DAC-quantizes a voltage vector driven into the array.
    pub fn dac(&mut self, v: &[f64]) -> Vec<f64> {
        self.dac.quantize_vec(v)
    }

    /// DAC-quantizes a vector segment by segment (`lens` are the segment
    /// lengths). Each block of the Newton vectors is driven by its own DAC
    /// bank with an independent programmable reference, so a small-scale
    /// block (e.g. a nearly-converged residual) is not crushed by the
    /// dynamic range of its large-scale neighbours.
    pub fn dac_blocks(&mut self, v: &[f64], lens: &[usize]) -> Vec<f64> {
        let mut out = vec![0.0; v.len()];
        for bank in banks(lens, v.len()) {
            self.dac.quantize_into(&v[bank.clone()], &mut out[bank]);
        }
        out
    }

    /// ADC counterpart of [`HwContext::dac_blocks`]. Transient read upsets
    /// (when configured) strike each segment independently — each block has
    /// its own converter bank.
    ///
    /// memlp-lint: analog_source
    pub fn adc_blocks(&mut self, v: &[f64], lens: &[usize]) -> Vec<f64> {
        let mut out = vec![0.0; v.len()];
        for bank in banks(lens, v.len()) {
            let seg = &mut out[bank.clone()];
            self.adc.quantize_into(&v[bank], seg);
            self.config.faults.upset_read(seg, &mut self.transient_rng);
        }
        out
    }

    /// ADC-quantizes a voltage vector read from the array, applying any
    /// configured transient read upsets.
    ///
    /// memlp-lint: analog_source
    pub fn adc(&mut self, v: &[f64]) -> Vec<f64> {
        self.adc_clipped(v, f64::INFINITY)
    }

    /// ADC-quantizes with an auto-ranged reference **capped** at
    /// `max_scale`: the converter ranges on the signal as usual (keeping
    /// fine resolution for small read-outs) but the programmable reference
    /// tops out, so over-range components saturate instead of stretching
    /// the quantization grid. Algorithm 2 relies on this to bound the
    /// weakly determined step components its `RU`/`RL` fill produces
    /// without losing late-iteration resolution.
    ///
    /// memlp-lint: analog_source
    pub fn adc_clipped(&mut self, v: &[f64], max_scale: f64) -> Vec<f64> {
        let mut out = vec![0.0; v.len()];
        self.adc.quantize_capped_into(v, max_scale, &mut out);
        self.config
            .faults
            .upset_read(&mut out, &mut self.transient_rng);
        out
    }

    /// Charges one analog operation over an array of `dim` lines whose
    /// `cells` cells settle (their conductance sets the settle energy).
    /// When the system spans more than one physical tile (its side exceeds
    /// `max_size`), per-tile NoC transfers through the configured fabric
    /// are charged on top (§3.4): every tile ships its line segment to the
    /// accumulating arbiters.
    pub fn charge_analog(&mut self, is_solve: bool, inputs: usize, outputs: usize, cells: usize) {
        let dim = inputs.max(outputs);
        let tiles = self.tiles_for(dim);
        let traffic = (tiles, tiles, dim.div_ceil(tiles.max(1)));
        self.charge_op(is_solve, inputs, outputs, cells, traffic);
    }

    /// Occupancy-aware variant of [`HwContext::charge_analog`] for an op
    /// over the tiled `planes` (plus `extra_cells` of diagonal cells): only
    /// the tiles the planes schedule settle and ship their
    /// [`ANALOG_TILE_SIDE`] line segments through the fabric, while hop
    /// distances (and the decision that a fabric exists at all) follow the
    /// full grid geometry — a dead tile frees bandwidth, it does not
    /// shrink the die.
    pub fn charge_analog_tiled(
        &mut self,
        is_solve: bool,
        inputs: usize,
        outputs: usize,
        extra_cells: usize,
        planes: &[&TiledMatrix],
    ) {
        let cells = extra_cells + planes.iter().map(|t| t.active_cells()).sum::<usize>();
        let live = planes.iter().map(|t| t.scheduled_tiles()).sum();
        let grid = planes.iter().map(|t| t.occupancy().grid_tiles()).sum();
        self.charge_op(
            is_solve,
            inputs,
            outputs,
            cells,
            (live, grid, ANALOG_TILE_SIDE),
        );
    }

    /// Charges converters plus the settle of `cells` cells — each at `g_off`
    /// leakage plus one unit of mapped conductance shared across the op —
    /// and, on a multi-tile grid, one NoC transfer per live tile:
    /// `traffic` is `(live tiles, grid tiles, lines per tile)`.
    fn charge_op(
        &mut self,
        is_solve: bool,
        inputs: usize,
        outputs: usize,
        cells: usize,
        (live, grid, lines_per_tile): (usize, usize, usize),
    ) {
        let g = ConductanceMap::new(1.0, &self.config.device).total_conductance(cells, 1.0);
        self.ledger.charge_analog_op(
            &self.config.cost,
            is_solve,
            inputs as u64,
            outputs as u64,
            g,
            self.config.device.v_read,
        );
        if grid > 1 && live > 0 {
            let lines = lines_per_tile.min(inputs.max(outputs)).max(1);
            let (t, e) = self.noc.transfer_cost(grid, lines);
            self.ledger
                .charge_noc_transfer(t * live as f64, e * live as f64, live as u64);
        }
    }

    // ----- fault state and recovery ----------------------------------------

    /// Drains the queued detection events (in block-key order of first
    /// detection) for the solver's recovery report.
    pub fn take_recovery_events(&mut self) -> Vec<RecoveryEvent> {
        std::mem::take(&mut self.pending_events)
    }

    /// `true` if any written block carries hard defects right now.
    pub fn saw_faults(&self) -> bool {
        self.blocks.values().any(|b| !b.plan().is_clean())
    }

    /// Weak (repairable) stuck cells across all written blocks.
    pub fn weak_faults(&self) -> usize {
        self.blocks.values().map(|b| b.plan().weak_cells()).sum()
    }

    /// `true` if any written block has a dead line left.
    pub fn has_dead_lines(&self) -> bool {
        self.blocks
            .values()
            .any(|b| !b.plan().dead_rows().is_empty() || !b.plan().dead_cols().is_empty())
    }

    /// Recovery rung 1: re-programs every weak stuck cell with an extended
    /// pulse budget. Returns `(repaired, remaining_hard)`. The next write
    /// of each repaired block realizes the repaired cells afresh; the pass
    /// itself charges run-phase writes for the extra pulse trains.
    pub fn reprogram_faulty(&mut self) -> (usize, usize) {
        let mut repaired = 0;
        let mut remaining = 0;
        for b in self.blocks.values_mut() {
            repaired += b.repair_weak();
            remaining += b.plan().stuck_cells();
        }
        if repaired > 0 {
            // The extended-budget pulse trains are an order of magnitude
            // longer than a nominal write; charge them as 10 run writes per
            // repaired cell.
            self.ledger.charge_writes(
                &self.config.cost,
                Phase::Run,
                10 * repaired as u64,
                self.config.variation.max_fraction,
            );
        }
        (repaired, remaining)
    }

    /// Recovery rung 2: relocates logical lines off dead physical lines
    /// onto each block's spare lines (`config.spare_lines` per side per
    /// block). Returns `(rows_remapped, cols_remapped, unmapped)`. The
    /// next write of each block realizes the relocated lines.
    pub fn remap_dead_lines(&mut self) -> (usize, usize, usize) {
        let mut done = (0, 0, 0);
        for b in self.blocks.values_mut() {
            let (rows, cols, unmapped) = b.remap_dead_lines();
            done = (done.0 + rows, done.1 + cols, done.2 + unmapped);
        }
        done
    }
}

/// The index ranges of consecutive converter banks of lengths `lens`,
/// which together cover a vector of length `len`.
fn banks(lens: &[usize], len: usize) -> impl Iterator<Item = Range<usize>> + '_ {
    debug_assert_eq!(lens.iter().sum::<usize>(), len);
    lens.iter().scan(0, |at, &n| {
        let bank = *at..*at + n;
        *at += n;
        Some(bank)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use memlp_crossbar::FaultModel;

    fn ctx(var_pct: f64) -> HwContext {
        HwContext::new(
            CrossbarConfig::paper_default()
                .with_variation(var_pct)
                .with_seed(7),
        )
    }

    fn faulty_ctx(faults: FaultModel, seed: u64) -> HwContext {
        HwContext::new(
            CrossbarConfig::paper_default()
                .with_faults(faults)
                .with_seed(seed),
        )
    }

    #[test]
    fn write_matrix_preserves_zeros_and_counts_nonzeros() {
        let mut c = ctx(20.0);
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]).unwrap();
        let r = c.write_matrix(0, &m, Phase::Setup);
        assert_eq!(r[(0, 1)], 0.0);
        assert_eq!(r[(1, 0)], 0.0);
        assert!(r[(0, 0)] > 0.0);
        assert_eq!(c.ledger().counts().setup_writes, 2);
    }

    #[test]
    fn write_matrix_respects_variation_band() {
        let mut c = ctx(10.0);
        let m = Matrix::from_fn(8, 8, |i, j| 1.0 + (i * 8 + j) as f64 * 0.1);
        let r = c.write_matrix(0, &m, Phase::Setup);
        // Variation plus 12-bit write-code rounding (2^-12 relative).
        let band = 0.10 + (1.0 + 0.10) / 4096.0;
        for i in 0..8 {
            for j in 0..8 {
                let t = m[(i, j)];
                assert!((r[(i, j)] - t).abs() <= band * t + 1e-12);
            }
        }
    }

    #[test]
    fn write_diag_charges_run_phase() {
        let mut c = ctx(0.0);
        let r = c.write_diag(0, &[1.0, 2.0, 3.0], Phase::Run);
        assert_eq!(r, vec![1.0, 2.0, 3.0]);
        assert_eq!(c.ledger().counts().update_writes, 3);
    }

    #[test]
    fn write_diag_clamps_negative_targets() {
        // The §3.4 constant-θ solver can momentarily produce negative state
        // values; the crossbar saturates them at zero rather than erroring.
        let mut c = ctx(0.0);
        let r = c.write_diag(0, &[-0.5, 1.0], Phase::Run);
        assert_eq!(r[0], 0.0);
    }

    #[test]
    fn converters_quantize() {
        let mut c = ctx(0.0);
        let v = vec![1.0, 0.333333333, -0.2];
        let q = c.dac(&v);
        assert_eq!(q[0], 1.0);
        assert!((q[1] - v[1]).abs() <= 0.5 / 127.0 + 1e-12);
        let q2 = c.adc(&q);
        assert_eq!(q2, q, "ADC of a DAC grid point is idempotent at equal bits");
    }

    #[test]
    fn reseed_changes_draws() {
        let m = Matrix::from_rows(&[&[1.0; 8]]).unwrap();
        let mut c1 = ctx(20.0);
        let r1 = c1.write_matrix(0, &m, Phase::Setup);
        let mut c2 = ctx(20.0);
        c2.reseed(1);
        let r2 = c2.write_matrix(0, &m, Phase::Setup);
        assert_ne!(r1, r2);
    }

    #[test]
    fn analog_charges_accumulate() {
        let mut c = ctx(0.0);
        c.charge_analog(true, 16, 16, 256);
        assert_eq!(c.ledger().counts().solve_ops, 1);
        assert!(c.ledger().run_time_s() > 0.0);
    }

    #[test]
    fn tiles_follow_max_size() {
        let c = ctx(0.0);
        let max = c.config().max_size;
        assert_eq!(c.tiles_for(max), 1);
        assert_eq!(c.tiles_for(max + 1), 4);
        assert_eq!(c.tiles_for(3 * max), 9);
    }

    #[test]
    fn oversized_systems_charge_noc_transfers() {
        let mut c = ctx(0.0);
        let max = c.config().max_size;
        c.charge_analog(false, max, max, max * max);
        assert_eq!(
            c.ledger().counts().noc_transfers,
            0,
            "single tile needs no NoC"
        );
        c.charge_analog(false, 2 * max, 2 * max, 4 * max * max);
        assert_eq!(c.ledger().counts().noc_transfers, 4, "2×2 tile grid");
    }

    #[test]
    fn fault_plans_persist_across_attempts() {
        let faults = FaultModel::symmetric(0.05).unwrap();
        let mut c = faulty_ctx(faults, 3);
        let m = Matrix::from_fn(16, 16, |_, _| 1.0);
        let r1 = c.write_matrix(0, &m, Phase::Setup);
        assert!(c.saw_faults(), "5% over 256 cells must draw faults");
        c.begin_attempt(1);
        let r2 = c.write_matrix(0, &m, Phase::Setup);
        // Stuck cells realize identical values in both attempts.
        for i in 0..16 {
            for j in 0..16 {
                if r1[(i, j)] == 0.0 {
                    assert_eq!(r2[(i, j)], 0.0, "stuck-off cell moved at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn detection_reports_each_faulty_block_once() {
        let faults = FaultModel::symmetric(0.05).unwrap();
        let mut c = faulty_ctx(faults, 3);
        let m = Matrix::from_fn(16, 16, |_, _| 1.0);
        c.write_matrix(0, &m, Phase::Setup);
        c.write_matrix(0, &m, Phase::Run);
        c.write_diag(1, &[1.0; 64], Phase::Setup);
        let events = c.take_recovery_events();
        let detections = events
            .iter()
            .filter(|e| matches!(e, RecoveryEvent::FaultsDetected { .. }))
            .count();
        assert!(detections >= 1);
        assert!(detections <= 2, "at most one detection per block");
        assert!(c.take_recovery_events().is_empty(), "drained");
    }

    #[test]
    fn reprogram_clears_weak_cells_only() {
        let faults = FaultModel::symmetric(0.05)
            .unwrap()
            .with_weak_fraction(1.0)
            .unwrap();
        let mut c = faulty_ctx(faults, 5);
        let m = Matrix::from_fn(16, 16, |_, _| 1.0);
        let before = c.write_matrix(0, &m, Phase::Setup);
        assert!(before.as_slice().contains(&0.0));
        let (repaired, remaining) = c.reprogram_faulty();
        assert!(repaired > 0);
        assert_eq!(remaining, 0, "all faults weak");
        let after = c.write_matrix(0, &m, Phase::Run);
        assert!(
            after.as_slice().iter().all(|&v| v > 0.0),
            "repaired block writes cleanly"
        );
    }

    #[test]
    fn remap_revives_dead_lines_within_spare_budget() {
        let faults = FaultModel::none().with_dead_lines(0.15, 0.0).unwrap();
        let mut c = faulty_ctx(faults, 11);
        let m = Matrix::from_fn(16, 16, |_, _| 1.0);
        let before = c.write_matrix(0, &m, Phase::Setup);
        let dead_before: Vec<usize> = (0..16)
            .filter(|&i| (0..16).all(|j| before[(i, j)] == 0.0))
            .collect();
        assert!(!dead_before.is_empty(), "seed must draw a dead row");
        assert!(c.has_dead_lines());
        let (rows, _cols, _unmapped) = c.remap_dead_lines();
        assert!(rows > 0);
        let after = c.write_matrix(0, &m, Phase::Run);
        let dead_after = (0..16)
            .filter(|&i| (0..16).all(|j| after[(i, j)] == 0.0))
            .count();
        assert!(dead_after < dead_before.len(), "remap revived lines");
    }

    #[test]
    fn transient_upsets_strike_reads_at_the_configured_rate() {
        let faults = FaultModel::none().with_transients(0.2).unwrap();
        let mut c = faulty_ctx(faults, 13);
        let clean = vec![1.0; 64];
        let mut hit = 0;
        for _ in 0..50 {
            let out = c.adc(&clean);
            hit += out.iter().filter(|&&v| v != 1.0).count();
        }
        let rate = hit as f64 / (50.0 * 64.0);
        assert!((rate - 0.2).abs() < 0.05, "upset rate {rate}");
    }

    #[test]
    fn delta_skips_unchanged_codes() {
        let mut c = ctx(0.0);
        let m = Matrix::from_fn(8, 8, |i, j| 0.5 + (i * 8 + j) as f64 * 0.1);
        let first = c.write_matrix(0, &m, Phase::Setup);
        assert_eq!(c.ledger().counts().setup_writes, 64);
        let second = c.write_matrix(0, &m, Phase::Run);
        assert_eq!(
            c.ledger().counts().update_writes,
            0,
            "identical block re-program must be all skips"
        );
        assert_eq!(c.ledger().counts().skipped_writes, 64);
        assert_eq!(first.as_slice(), second.as_slice());
        // One changed cell writes exactly one cell.
        let mut m2 = m.clone();
        m2[(3, 3)] *= 2.0;
        c.write_matrix(0, &m2, Phase::Run);
        assert_eq!(c.ledger().counts().update_writes, 1);
    }

    #[test]
    fn delta_diag_skips_sub_lsb_changes() {
        let mut c = ctx(0.0);
        let base = vec![1.0, 2.0, 3.0, 4.0];
        c.write_diag(0, &base, Phase::Run);
        // Perturb every entry by far less than one write-code step.
        let nudged: Vec<f64> = base.iter().map(|v| v * (1.0 + 1e-6)).collect();
        let r = c.write_diag(0, &nudged, Phase::Run);
        assert_eq!(
            c.ledger().counts().update_writes,
            4,
            "second pass all skipped"
        );
        assert_eq!(c.ledger().counts().skipped_writes, 4);
        // Skipped cells resolve to the same realized value the original
        // write produced (the sub-LSB nudge rounds to the same code).
        for (got, want) in r.iter().zip(&base) {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn delta_off_matches_delta_on_bitwise_when_fault_free() {
        let m = Matrix::from_fn(12, 12, |i, j| {
            0.1 + ((i * 12 + j) as f64 * 0.731).sin().abs()
        });
        let diag: Vec<f64> = (0..12).map(|i| 0.2 + i as f64 * 0.31).collect();
        let run = |delta: bool| {
            let mut c = HwContext::new(
                CrossbarConfig::paper_default()
                    .with_seed(7)
                    .with_delta_writes(delta),
            );
            let a = c.write_matrix(0, &m, Phase::Setup);
            let b = c.write_matrix(0, &m, Phase::Run);
            let d1 = c.write_diag(1, &diag, Phase::Run);
            let d2 = c.write_diag(1, &diag, Phase::Run);
            (a, b, d1, d2)
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.0.as_slice(), off.0.as_slice());
        assert_eq!(on.1.as_slice(), off.1.as_slice());
        assert_eq!(on.2, off.2);
        assert_eq!(on.3, off.3);
    }

    #[test]
    fn reseed_invalidates_code_cache() {
        let mut c = ctx(0.0);
        let m = Matrix::from_fn(4, 4, |_, _| 1.0);
        c.write_matrix(0, &m, Phase::Setup);
        c.begin_attempt(1);
        c.write_matrix(0, &m, Phase::Setup);
        assert_eq!(
            c.ledger().counts().setup_writes,
            32,
            "redraw must re-program every cell"
        );
        c.write_matrix(0, &m, Phase::Run);
        assert_eq!(
            c.ledger().counts().update_writes,
            0,
            "cache rebuilt after redraw"
        );
        c.invalidate_codes();
        c.write_matrix(0, &m, Phase::Run);
        assert_eq!(c.ledger().counts().update_writes, 16, "manual invalidation");
    }

    #[test]
    fn begin_reuse_keeps_code_cache_and_fault_state() {
        let faults = FaultModel::symmetric(0.05).unwrap();
        let mut c = faulty_ctx(faults, 3);
        let m = Matrix::from_fn(16, 16, |_, _| 1.0);
        let first = c.write_matrix(0, &m, Phase::Setup);
        assert!(c.saw_faults());
        // Same-context repeat: every healthy cell is a delta skip.
        c.write_matrix(0, &m, Phase::Run);
        let per_repeat = c.ledger().counts().skipped_writes;
        assert!(per_repeat > 0);
        assert_eq!(c.ledger().counts().update_writes, 0);
        // Warm reuse keeps the code cache: the next repeat skips the same
        // cell set, and the fault plan still pins the same dead cells.
        c.begin_reuse(1);
        let r = c.write_matrix(0, &m, Phase::Run);
        assert_eq!(c.ledger().counts().skipped_writes, 2 * per_repeat);
        assert_eq!(c.ledger().counts().update_writes, 0);
        assert!(c.saw_faults(), "fault plans survive reuse");
        for i in 0..16 {
            for j in 0..16 {
                if first[(i, j)] == 0.0 {
                    assert_eq!(r[(i, j)], 0.0, "stuck-off cell moved at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn repair_and_remap_invalidate_code_cache() {
        let faults = FaultModel::symmetric(0.05)
            .unwrap()
            .with_weak_fraction(1.0)
            .unwrap();
        let mut c = faulty_ctx(faults, 5);
        let m = Matrix::from_fn(16, 16, |_, _| 1.0);
        c.write_matrix(0, &m, Phase::Setup);
        let (repaired, _) = c.reprogram_faulty();
        assert!(repaired > 0);
        c.write_matrix(0, &m, Phase::Run);
        // 10 extended-budget pulses per repaired cell, then a full
        // re-program of all 256 now-healthy cells (cache invalidated).
        assert_eq!(
            c.ledger().counts().update_writes as usize,
            10 * repaired + 256,
            "post-repair write re-programs everything incl. repaired cells"
        );
        assert_eq!(c.ledger().counts().skipped_writes, 0);
    }

    #[test]
    fn crossbar_and_context_realize_the_same_bits() {
        // Both entry points program through the one block routine: the
        // same fault-free configuration realizes the same bits (planned
        // zeros draw no deviate) and charges the same setup writes.
        let side = 24;
        let m = Matrix::from_fn(side, side, |i, j| {
            if (i + 2 * j) % 5 == 0 {
                0.0
            } else {
                0.1 + ((i * 7 + j * 3) % 17) as f64 * 0.05
            }
        });
        let cfg = CrossbarConfig::paper_default()
            .with_variation(10.0)
            .with_seed(5);
        let mut xb = memlp_crossbar::Crossbar::new(side, cfg).unwrap();
        xb.program(&m).unwrap();
        let mut c = HwContext::new(cfg);
        let t = c.write_matrix_tiled(0, &m, side, Phase::Setup);
        let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(xb.realized().unwrap().as_slice()),
            bits(t.realized().as_slice())
        );
        assert_eq!(
            xb.ledger().counts().setup_writes,
            c.ledger().counts().setup_writes
        );
    }

    #[test]
    fn tiled_write_elides_planned_zero_tiles() {
        // 256×256 block-diagonal at tile 128: two live tiles, two dead.
        let m = Matrix::from_fn(256, 256, |i, j| {
            if (i < 128) == (j < 128) {
                1.0 + (i + j) as f64 * 1e-3
            } else {
                0.0
            }
        });
        let mut c = ctx(0.0);
        let t = c.write_matrix_tiled(0, &m, 128, Phase::Setup);
        assert_eq!(t.occupancy().live_tiles(), 2);
        assert_eq!(t.occupancy().grid_tiles(), 4);
        let counts = c.ledger().counts();
        assert_eq!(counts.tiles_elided, 2);
        assert_eq!(counts.elided_writes, 2 * 128 * 128);
        assert_eq!(counts.setup_writes, 2 * 128 * 128);
    }

    #[test]
    fn tiled_write_matches_flat_write_bitwise_when_fault_free() {
        let m = Matrix::from_fn(256, 200, |i, j| {
            if (i < 128) == (j < 128) {
                0.2 + ((i * 7 + j * 3) % 53) as f64 * 0.01
            } else {
                0.0
            }
        });
        let mut flat = ctx(10.0);
        let r_flat = flat.write_matrix(0, &m, Phase::Setup);
        let mut tiled = ctx(10.0);
        let r_tiled = tiled.write_matrix_tiled(0, &m, 128, Phase::Setup);
        let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(r_flat.as_slice()),
            bits(r_tiled.realized().as_slice()),
            "fault-free elision must not change realized state"
        );
        // Same pulses charged: planned-zero cells never cost a write.
        assert_eq!(
            flat.ledger().counts().setup_writes,
            tiled.ledger().counts().setup_writes
        );
    }

    #[test]
    fn elision_keeps_faults_out_of_dead_tiles() {
        let m = Matrix::from_fn(
            256,
            256,
            |i, j| {
                if (i < 128) == (j < 128) {
                    1.0
                } else {
                    0.0
                }
            },
        );
        let faults = FaultModel::symmetric(0.05).unwrap();
        let mut c = faulty_ctx(faults, 3);
        let t = c.write_matrix_tiled(0, &m, 128, Phase::Setup);
        assert!(c.saw_faults(), "5% over 64Ki cells must draw faults");
        let r = t.realized();
        for i in 0..256 {
            for j in 0..256 {
                if (i < 128) != (j < 128) {
                    assert_eq!(
                        r[(i, j)],
                        0.0,
                        "elided tile has no hardware to be stuck at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn charge_analog_tiled_scales_transfers_with_live_tiles() {
        // 512×512 at tile 128: a 4×4 grid with 8 live tiles (the top half).
        let planned = Matrix::from_fn(512, 512, |i, _| if i < 256 { 1.0 } else { 0.0 });
        let plane = |elide| TiledMatrix::new(&planned, planned.clone(), ANALOG_TILE_SIDE, elide);
        let mut c = ctx(0.0);
        c.charge_analog_tiled(false, 512, 512, 0, &[&plane(true)]);
        assert_eq!(c.ledger().counts().noc_transfers, 8, "live tiles ship");
        assert_eq!(c.ledger().counts().mvm_ops, 1);
        c.charge_analog_tiled(false, 512, 512, 0, &[&plane(false)]);
        assert_eq!(c.ledger().counts().noc_transfers, 8 + 16, "full grid ships");
        // Single-tile grids and fully dead operands need no fabric.
        for planned in [Matrix::from_fn(64, 64, |_, _| 1.0), Matrix::zeros(512, 512)] {
            let mut c = ctx(0.0);
            let plane = TiledMatrix::new(&planned, planned.clone(), ANALOG_TILE_SIDE, true);
            c.charge_analog_tiled(false, planned.rows(), planned.cols(), 0, &[&plane]);
            assert_eq!(c.ledger().counts().noc_transfers, 0);
        }
    }

    #[test]
    fn no_fault_config_has_no_block_state() {
        let mut c = ctx(10.0);
        let m = Matrix::from_fn(8, 8, |_, _| 1.0);
        c.write_matrix(0, &m, Phase::Setup);
        c.write_diag(1, &[1.0; 8], Phase::Run);
        assert!(!c.saw_faults());
        assert!(!c.has_dead_lines());
        assert_eq!(c.weak_faults(), 0);
        assert!(c.take_recovery_events().is_empty());
        assert_eq!(c.reprogram_faulty(), (0, 0));
        assert_eq!(c.remap_dead_lines(), (0, 0, 0));
    }
}
