//! Hardware context for the structured (block-wise) crossbar simulation.
//!
//! The Newton systems the solvers build are huge but extremely structured —
//! a handful of dense blocks (`A′`, `A″`, transposes) plus diagonals. The
//! monolithic [`memlp_crossbar::Crossbar`] would materialize the full
//! `≈4(n+m)` square array; this context instead realizes each block
//! individually with exactly the same per-write physics (variation redrawn
//! per write, Eqn 18) and the same ledger charging, which is both faithful
//! and fast enough for the m = 1024 sweeps. See DESIGN.md §4.
//!
//! # Blocks, keys and faults
//!
//! Each write targets a **block key** — a stable identifier the solver
//! assigns to one physical array region (the `A′` block, the `Z` diagonal,
//! …). Hard defects are a property of the *physical region*, so the context
//! draws one [`FaultPlan`] per key from a dedicated seed stream and applies
//! it to every write of that key: a stuck cell stays stuck across the
//! per-iteration diagonal rewrites *and* across §4.3 re-solve attempts
//! ([`HwContext::begin_attempt`] redraws variation, never defects). The
//! first faulty write of a key queues a [`RecoveryEvent::FaultsDetected`],
//! read from the key's [`FaultPlan`], for the solver to drain; the recovery
//! rungs ([`HwContext::reprogram_faulty`], [`HwContext::remap_dead_lines`])
//! mutate the plans so the *next* attempt's writes realize repaired
//! hardware.

use std::collections::BTreeMap;

use memlp_crossbar::{
    CostLedger, CrossbarConfig, FaultKind, FaultPlan, LineRemap, Phase, Quantizer, TileOccupancy,
    WriteQuantizer,
};
use memlp_linalg::Matrix;
use memlp_noc::NocConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::recovery::RecoveryEvent;
use crate::tiles::TiledMatrix;

/// Salt separating per-block fault-plan seeds from the variation stream.
const FAULT_STREAM_SALT: u64 = 0x0FA0_17ED_B10C_0000;

/// Salt for the transient-upset stream.
const TRANSIENT_SALT: u64 = 0x0FA0_17ED_F11B_0000;

/// Per-block persistent hardware state: the defect plan, the spare-line
/// decoder table, and whether detection has been reported yet.
#[derive(Debug, Clone)]
struct BlockFaults {
    plan: FaultPlan,
    remap: LineRemap,
    reported: bool,
}

/// Delta-programming state for one block: the conductance codes most
/// recently programmed. A later write of the same block skips every
/// healthy cell whose code is unchanged (the cell already holds that code —
/// re-verifying it needs no pulse). Skipped cells still resolve to the
/// value the write-verify pass observes — the verify deviate is drawn
/// whether or not a pulse fires — so realized state is bitwise identical
/// with delta programming on or off; only the pulse accounting changes.
///
/// The cache is only trustworthy while the physical state it snapshots is:
/// a variation redraw ([`HwContext::reseed`] / [`HwContext::begin_attempt`]),
/// a weak-cell repair, a spare-line remap, or a drift refresh all
/// invalidate it (DESIGN.md §12).
#[derive(Debug, Clone)]
struct BlockCodes {
    rows: usize,
    cols: usize,
    codes: Vec<u64>,
}

/// NoC scheduling geometry for one occupancy-aware analog op: how many
/// tiles actually fired, how many the die provisions (hop distances come
/// from the full grid), and the line-segment length each live tile ships.
#[derive(Debug, Clone, Copy)]
pub struct TileTraffic {
    /// Tiles that hold at least one planned non-zero and were scheduled.
    pub live_tiles: usize,
    /// Tiles the full grid provisions, live or not.
    pub grid_tiles: usize,
    /// Line segments each live tile ships through the fabric.
    pub lines_per_tile: usize,
}

/// Per-solve hardware state: RNG, converters, per-block fault plans and the
/// cost ledger.
#[derive(Debug, Clone)]
pub struct HwContext {
    config: CrossbarConfig,
    noc: NocConfig,
    rng: StdRng,
    transient_rng: StdRng,
    /// Persistent per-block defect state, keyed by the solver's block ids.
    /// A `BTreeMap` keeps iteration deterministic for the recovery sweeps.
    blocks: BTreeMap<u32, BlockFaults>,
    /// Per-block conductance-code caches for delta programming.
    codes: BTreeMap<u32, BlockCodes>,
    /// Write-precision quantizer (`config.write_bits` significant bits).
    wq: WriteQuantizer,
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
        HwContext::with_noc(config, NocConfig::hierarchical())
    }

    /// Creates a context with an explicit NoC fabric.
    pub fn with_noc(config: CrossbarConfig, noc: NocConfig) -> Self {
        HwContext {
            adc: Quantizer::new(config.adc_bits),
            dac: Quantizer::new(config.dac_bits),
            rng: StdRng::seed_from_u64(config.seed),
            transient_rng: StdRng::seed_from_u64(config.seed ^ TRANSIENT_SALT),
            blocks: BTreeMap::new(),
            codes: BTreeMap::new(),
            wq: WriteQuantizer::new(config.write_bits),
            pending_events: Vec::new(),
            ledger: CostLedger::new(),
            noc,
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
        self.codes.clear();
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

    /// Writes a non-negative block matrix under block key `key`; returns
    /// the realized block. Targets are resolved to `config.write_bits`-bit
    /// conductance codes; one write is charged per **non-zero** healthy
    /// code (erased cells already sit at `g_off`; zero coefficients need no
    /// pulse), and with `config.delta_writes` a cell whose code is
    /// unchanged since the block's last program is *skipped* — no pulse is
    /// charged, and the cell resolves to the value the write-verify pass
    /// observes (identical to what a fresh write would have produced, so
    /// delta programming never changes results). The block's persistent
    /// [`FaultPlan`] pins stuck-on cells to the block's full-scale value
    /// and stuck-off cells / dead lines to zero, regardless of the
    /// programmed target; faulty cells consume no variation draw (the pulse
    /// never moves the device). Healthy cells draw one verify-loop deviate
    /// per write *or skip*, so the variation stream — and therefore every
    /// realized value of cells that are written — is identical whether
    /// delta programming is on or off.
    ///
    /// memlp-lint: analog_source
    pub fn write_matrix(&mut self, key: u32, target: &Matrix, phase: Phase) -> Matrix {
        self.write_matrix_masked(key, target, phase, None)
    }

    /// [`HwContext::write_matrix`] over a tiled block region: the target's
    /// [`TileOccupancy`] is scanned first (from *planned* coefficients,
    /// never analog read-backs), and with `config.tile_elision` set the
    /// all-zero tiles are never fabricated — no write pulses, no fault
    /// pins, no delta-cache entries for their cells — and the elision is
    /// noted on the ledger. Fault-free realizations are bitwise identical
    /// with elision on or off (a planned-zero healthy cell realizes an
    /// exact zero and draws no variation either way); with faults
    /// configured, elision additionally keeps stuck-on defects out of
    /// planned-dead tiles, because there is no hardware there to be stuck.
    ///
    /// Cost accounting differs from the flat path: programming a *tile* is
    /// a full write-verify sweep over the tile's cell grid — the same
    /// per-cell semantics the device layer charges (`Crossbar::program`
    /// sweeps `side × side`; the NoC fabric charges every cell of every
    /// fabricated tile) — so every healthy cell of a fabricated tile costs
    /// one write (or one delta skip), planned zeros included. Only the
    /// pulse of a *non-zero* code moves the device, so zero-code cells
    /// still draw no variation deviate: the accounting change is invisible
    /// to realized conductances.
    ///
    /// memlp-lint: analog_source
    pub fn write_matrix_tiled(
        &mut self,
        key: u32,
        target: &Matrix,
        tile_side: usize,
        phase: Phase,
    ) -> TiledMatrix {
        let occ = TileOccupancy::from_matrix(target, tile_side);
        let elide = self.config.tile_elision;
        if elide {
            self.ledger
                .note_elided_tiles(occ.dead_tiles() as u64, occ.dead_cells());
        }
        let realized = self.write_matrix_masked(key, target, phase, Some((&occ, elide)));
        TiledMatrix::from_parts(realized, occ, elide)
    }

    /// Shared write path. `tiled`, when present, carries the occupancy
    /// index plus the elision flag: with elision on, dead-tile cells have
    /// no hardware — they skip fault application entirely and realize
    /// exact zeros (their planned values are zero by construction of the
    /// occupancy index). Tiled writes charge one write (or delta skip) per
    /// fabricated healthy cell — the device layer's per-cell sweep — while
    /// the flat path charges non-zero codes only (§3.5: erased cells need
    /// no pulse).
    fn write_matrix_masked(
        &mut self,
        key: u32,
        target: &Matrix,
        phase: Phase,
        tiled: Option<(&TileOccupancy, bool)>,
    ) -> Matrix {
        let plan = self.plan_for(key, target.rows(), target.cols());
        let a_max = target.max_abs();
        let cache = self
            .delta_cache(key)
            .filter(|c| c.rows == target.rows() && c.cols == target.cols());
        let mut written = 0u64;
        let mut skipped = 0u64;
        let mut codes = vec![0u64; target.rows() * target.cols()];
        let mut realized = Matrix::zeros(target.rows(), target.cols());
        let ts = tiled.map_or(1, |(o, _)| o.tile_side());
        // A fault-free block (every config without `faults`) skips the
        // per-cell defect lookup: three binary searches a cell.
        let clean = plan.is_clean();
        for i in 0..target.rows() {
            for j in 0..target.cols() {
                if let Some((occ, true)) = tiled {
                    if !occ.is_live(i / ts, j / ts) {
                        continue; // elided tile: no hardware, exact zero
                    }
                }
                let idx = i * target.cols() + j;
                let code = self.wq.code(target[(i, j)]);
                codes[idx] = code;
                let fault = if clean {
                    FaultKind::Healthy
                } else {
                    plan.fault_at(i, j)
                };
                realized[(i, j)] = match fault {
                    FaultKind::StuckOn => a_max,
                    FaultKind::StuckOff => 0.0,
                    FaultKind::Healthy => {
                        if code == 0 {
                            // The tile sweep visits (and verifies) every
                            // fabricated cell; only a non-zero pulse moves
                            // the device, so no variation deviate here.
                            if tiled.is_some() {
                                match cache.as_ref() {
                                    Some(c) if c.codes[idx] == code => skipped += 1,
                                    _ => written += 1,
                                }
                            }
                            0.0
                        } else {
                            let factor = self.config.variation.draw_factor(&mut self.rng);
                            match cache.as_ref() {
                                Some(c) if c.codes[idx] == code => skipped += 1,
                                _ => written += 1,
                            }
                            (self.wq.decode(code) * factor).max(0.0)
                        }
                    }
                };
            }
        }
        self.ledger.charge_writes(
            &self.config.cost,
            phase,
            written,
            self.config.variation.max_fraction,
        );
        self.ledger.note_skipped_writes(skipped);
        self.store_codes(key, target.rows(), target.cols(), codes);
        self.report_faults(key);
        realized
    }

    /// Writes a non-negative diagonal (or other dense vector of cells)
    /// under block key `key`; returns realized values. Charges one write
    /// per entry — diagonals are rewritten wholesale each iteration (the
    /// paper's 2.7·N updates) — *except* entries skipped by delta
    /// programming (unchanged `config.write_bits`-bit code since the
    /// block's last write). The block's [`FaultPlan`] is a `len × 1` region
    /// (a private line per cell, so no shared-bit-line faults).
    ///
    /// memlp-lint: analog_source
    pub fn write_diag(&mut self, key: u32, target: &[f64], phase: Phase) -> Vec<f64> {
        let plan = self.plan_for(key, target.len(), 1);
        let a_max = target.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let cache = self
            .delta_cache(key)
            .filter(|c| c.rows == target.len() && c.cols == 1);
        let mut skipped = 0u64;
        let mut codes = vec![0u64; target.len()];
        let mut realized = Vec::with_capacity(target.len());
        let clean = plan.is_clean();
        for (i, &v) in target.iter().enumerate() {
            let code = self.wq.code(v.max(0.0));
            codes[i] = code;
            let fault = if clean {
                FaultKind::Healthy
            } else {
                plan.fault_at(i, 0)
            };
            realized.push(match fault {
                FaultKind::StuckOn => a_max,
                FaultKind::StuckOff => 0.0,
                FaultKind::Healthy => {
                    let factor = self.config.variation.draw_factor(&mut self.rng);
                    if matches!(cache.as_ref(), Some(c) if c.codes[i] == code) {
                        skipped += 1;
                    }
                    (self.wq.decode(code) * factor).max(0.0)
                }
            });
        }
        self.ledger.charge_writes(
            &self.config.cost,
            phase,
            target.len() as u64 - skipped,
            self.config.variation.max_fraction,
        );
        self.ledger.note_skipped_writes(skipped);
        self.store_codes(key, target.len(), 1, codes);
        self.report_faults(key);
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
        debug_assert_eq!(lens.iter().sum::<usize>(), v.len());
        let mut out = Vec::with_capacity(v.len());
        let mut at = 0;
        for &len in lens {
            out.extend(self.dac.quantize_vec(&v[at..at + len]));
            at += len;
        }
        out
    }

    /// ADC counterpart of [`HwContext::dac_blocks`]. Transient read upsets
    /// (when configured) strike each segment independently — each block has
    /// its own converter bank.
    ///
    /// memlp-lint: analog_source
    pub fn adc_blocks(&mut self, v: &[f64], lens: &[usize]) -> Vec<f64> {
        debug_assert_eq!(lens.iter().sum::<usize>(), v.len());
        let mut out = Vec::with_capacity(v.len());
        let mut at = 0;
        for &len in lens {
            let mut seg = self.adc.quantize_vec(&v[at..at + len]);
            self.config
                .faults
                .upset_read(&mut seg, &mut self.transient_rng);
            out.extend(seg);
            at += len;
        }
        out
    }

    /// ADC-quantizes a voltage vector read from the array, applying any
    /// configured transient read upsets.
    ///
    /// memlp-lint: analog_source
    pub fn adc(&mut self, v: &[f64]) -> Vec<f64> {
        let mut out = self.adc.quantize_vec(v);
        self.config
            .faults
            .upset_read(&mut out, &mut self.transient_rng);
        out
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
        let auto = v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let fs = auto.min(max_scale);
        let mut out: Vec<f64> = v
            .iter()
            .map(|&x| self.adc.quantize_against(x, fs))
            .collect();
        self.config
            .faults
            .upset_read(&mut out, &mut self.transient_rng);
        out
    }

    /// Charges one analog operation over an array of `dim` lines.
    /// `g_estimate` is the total active conductance for settle energy.
    /// When the system spans more than one physical tile (its side exceeds
    /// `max_size`), per-tile NoC transfers through the configured fabric
    /// are charged on top (§3.4): every tile ships its line segment to the
    /// accumulating arbiters.
    pub fn charge_analog(
        &mut self,
        is_solve: bool,
        inputs: usize,
        outputs: usize,
        g_estimate: f64,
    ) {
        self.ledger.charge_analog_op(
            &self.config.cost,
            is_solve,
            inputs as u64,
            outputs as u64,
            g_estimate,
            self.config.device.v_read,
        );
        let dim = inputs.max(outputs);
        let tiles = self.tiles_for(dim);
        if tiles > 1 {
            let lines = dim.div_ceil(tiles);
            let (t, e) = self.noc.transfer_cost(tiles, lines);
            self.ledger
                .charge_noc_transfer(t * tiles as f64, e * tiles as f64, tiles as u64);
        }
    }

    /// Occupancy-aware variant of [`HwContext::charge_analog`] for
    /// operands carried as a [`TiledMatrix`]: only the `live_tiles` that
    /// were actually scheduled ship their `lines_per_tile` line segments
    /// through the fabric, while hop distances (and the decision that a
    /// fabric exists at all) follow the full `grid_tiles` geometry — a
    /// dead tile frees bandwidth, it does not shrink the die.
    pub fn charge_analog_tiled(
        &mut self,
        is_solve: bool,
        inputs: usize,
        outputs: usize,
        g_estimate: f64,
        traffic: TileTraffic,
    ) {
        self.ledger.charge_analog_op(
            &self.config.cost,
            is_solve,
            inputs as u64,
            outputs as u64,
            g_estimate,
            self.config.device.v_read,
        );
        if traffic.grid_tiles > 1 && traffic.live_tiles > 0 {
            let lines = traffic.lines_per_tile.min(inputs.max(outputs)).max(1);
            let (t, e) = self.noc.transfer_cost(traffic.grid_tiles, lines);
            self.ledger.charge_noc_transfer(
                t * traffic.live_tiles as f64,
                e * traffic.live_tiles as f64,
                traffic.live_tiles as u64,
            );
        }
    }

    /// Rough total-conductance estimate for a block set: `g_off` leakage on
    /// every cell plus mapped conductance proportional to the stored sum.
    pub fn conductance_estimate(&self, cells: usize, value_sum: f64, a_max: f64) -> f64 {
        let d = &self.config.device;
        let slope = (d.g_on() - d.g_off()) / a_max.max(f64::MIN_POSITIVE);
        d.g_off() * cells as f64 + slope * value_sum
    }

    // ----- fault state and recovery ----------------------------------------

    /// Drains the queued detection events (in block-key order of first
    /// detection) for the solver's recovery report.
    pub fn take_recovery_events(&mut self) -> Vec<RecoveryEvent> {
        std::mem::take(&mut self.pending_events)
    }

    /// `true` if any written block carries hard defects right now.
    pub fn saw_faults(&self) -> bool {
        self.blocks.values().any(|b| !b.plan.is_clean())
    }

    /// Weak (repairable) stuck cells across all written blocks.
    pub fn weak_faults(&self) -> usize {
        self.blocks.values().map(|b| b.plan.weak_cells()).sum()
    }

    /// `true` if any written block has a dead line left.
    pub fn has_dead_lines(&self) -> bool {
        self.blocks
            .values()
            .any(|b| !b.plan.dead_rows().is_empty() || !b.plan.dead_cols().is_empty())
    }

    /// Recovery rung 1: re-programs every weak stuck cell with an extended
    /// pulse budget. Returns `(repaired, remaining_hard)`. The next write
    /// of each block realizes the repaired cells; the pass itself charges
    /// run-phase writes for the extra pulse trains.
    pub fn reprogram_faulty(&mut self) -> (usize, usize) {
        let mut repaired = 0;
        let mut remaining = 0;
        for b in self.blocks.values_mut() {
            repaired += b.plan.repair_weak();
            remaining += b.plan.stuck_cells();
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
            // Repaired cells hold whatever the repair pulses left; the next
            // write of each block must realize them fresh.
            self.invalidate_codes();
        }
        (repaired, remaining)
    }

    /// Recovery rung 2: relocates logical lines off dead physical lines
    /// onto each block's spare lines (`config.spare_lines` per side per
    /// block). Returns `(rows_remapped, cols_remapped, unmapped)`. The
    /// next write of each block realizes the relocated lines.
    pub fn remap_dead_lines(&mut self) -> (usize, usize, usize) {
        let mut rows_done = 0;
        let mut cols_done = 0;
        let mut unmapped = 0;
        for b in self.blocks.values_mut() {
            for r in b.plan.dead_rows().to_vec() {
                if b.remap.remap_row(r) {
                    b.plan.revive_row(r);
                    rows_done += 1;
                } else {
                    unmapped += 1;
                }
            }
            for c in b.plan.dead_cols().to_vec() {
                if b.remap.remap_col(c) {
                    b.plan.revive_col(c);
                    cols_done += 1;
                } else {
                    unmapped += 1;
                }
            }
        }
        if rows_done + cols_done > 0 {
            // Relocated lines land on spare cells that were never
            // programmed; their logical positions must be written fresh.
            self.invalidate_codes();
        }
        (rows_done, cols_done, unmapped)
    }

    // ----- internals -------------------------------------------------------

    /// Takes (and thereby consumes) the delta cache for `key`, or `None`
    /// when delta programming is off. The caller re-inserts the refreshed
    /// cache via [`HwContext::store_codes`].
    fn delta_cache(&mut self, key: u32) -> Option<BlockCodes> {
        if self.config.delta_writes {
            self.codes.remove(&key)
        } else {
            None
        }
    }

    /// Snapshots the codes just written for block `key` (no-op when delta
    /// programming is off).
    fn store_codes(&mut self, key: u32, rows: usize, cols: usize, codes: Vec<u64>) {
        if !self.config.delta_writes {
            return;
        }
        self.codes.insert(key, BlockCodes { rows, cols, codes });
    }

    /// Returns (drawing if necessary) the fault plan for block `key`. The
    /// plan seed mixes the configuration seed with the key only — never the
    /// attempt salt — so defects are a stable property of the physical
    /// block across re-solve attempts.
    fn plan_for(&mut self, key: u32, rows: usize, cols: usize) -> FaultPlan {
        if self.config.faults.is_none() {
            return FaultPlan::clean(rows, cols);
        }
        let faults = self.config.faults;
        let seed = self.config.seed
            ^ FAULT_STREAM_SALT
            ^ (u64::from(key) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let spares = self.config.spare_lines;
        let entry = self.blocks.entry(key).or_insert_with(|| BlockFaults {
            plan: FaultPlan::draw(&faults, rows, cols, seed),
            remap: LineRemap::new(spares, spares),
            reported: false,
        });
        // A long-lived (pooled) context may reprogram a block key at a new
        // shape when a different problem lands on the same array. That is
        // a re-allocation of silicon, not a rewrite: the old plan, its
        // repairs, and its reported-once latch all describe cells that no
        // longer exist, so the block's defect state is drawn afresh (the
        // shape is mixed into the seed to keep distinct allocations
        // independent).
        if entry.plan.rows() != rows || entry.plan.cols() != cols {
            let reseed = seed ^ (rows as u64).rotate_left(32) ^ cols as u64;
            *entry = BlockFaults {
                plan: FaultPlan::draw(&faults, rows, cols, reseed),
                remap: LineRemap::new(spares, spares),
                reported: false,
            };
        }
        entry.plan.clone()
    }

    /// Write–verify: on the first write of a defective block, queue a
    /// detection event read from the block's [`FaultPlan`]. The model's
    /// verify sees every defect the plan holds: a dead line fails verify
    /// on every cell, and the weak/hard split is the controller's
    /// extended-verify classification.
    fn report_faults(&mut self, key: u32) {
        let Some(b) = self.blocks.get_mut(&key) else {
            return;
        };
        if b.reported || b.plan.is_clean() {
            return;
        }
        b.reported = true;
        self.pending_events.push(RecoveryEvent::FaultsDetected {
            block: key,
            stuck_cells: b.plan.stuck_cells(),
            weak_cells: b.plan.weak_cells(),
            dead_rows: b.plan.dead_rows().len(),
            dead_cols: b.plan.dead_cols().len(),
        });
    }
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
        c.charge_analog(true, 16, 16, 1e-3);
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
        c.charge_analog(false, max, max, 1e-3);
        assert_eq!(
            c.ledger().counts().noc_transfers,
            0,
            "single tile needs no NoC"
        );
        c.charge_analog(false, 2 * max, 2 * max, 1e-3);
        assert_eq!(c.ledger().counts().noc_transfers, 4, "2×2 tile grid");
    }

    #[test]
    fn conductance_estimate_scales_with_content() {
        let c = ctx(0.0);
        let lo = c.conductance_estimate(100, 10.0, 10.0);
        let hi = c.conductance_estimate(100, 90.0, 10.0);
        assert!(hi > lo);
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
        let traffic = |live_tiles, grid_tiles| TileTraffic {
            live_tiles,
            grid_tiles,
            lines_per_tile: 128,
        };
        let mut c = ctx(0.0);
        c.charge_analog_tiled(false, 512, 512, 1e-3, traffic(8, 16));
        assert_eq!(c.ledger().counts().noc_transfers, 8, "live tiles ship");
        assert_eq!(c.ledger().counts().mvm_ops, 1);
        // Single-tile grids and fully dead operands need no fabric.
        let mut c1 = ctx(0.0);
        c1.charge_analog_tiled(false, 64, 64, 1e-3, traffic(1, 1));
        assert_eq!(c1.ledger().counts().noc_transfers, 0);
        let mut c0 = ctx(0.0);
        c0.charge_analog_tiled(false, 512, 512, 1e-3, traffic(0, 16));
        assert_eq!(c0.ledger().counts().noc_transfers, 0);
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
