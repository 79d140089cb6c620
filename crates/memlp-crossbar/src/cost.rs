use std::fmt;
use std::ops::{Add, AddAssign};

use memlp_device::CostParams;

/// Which accounting bucket an operation belongs to.
///
/// The paper's latency/energy results cover the *iterative* phase only; the
/// O(N²) initial programming is acknowledged separately (§3.5: "the
/// initialization time complexity is O(N²)"). The ledger keeps both so the
/// benches can report them side by side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase {
    /// One-time programming of the static blocks before iteration starts.
    Setup,
    /// Per-iteration work: coefficient updates, analog ops, conversions.
    #[default]
    Run,
}

/// Raw operation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// Coefficients programmed during setup.
    pub setup_writes: u64,
    /// Coefficients re-programmed during the run phase (the paper's 2.7·N
    /// per-iteration updates land here).
    pub update_writes: u64,
    /// Write pulses *skipped* by delta programming: the target's conductance
    /// code matched the cell's current code, so no pulse (and no time or
    /// energy) was spent. `update_writes + skipped_writes` equals what a
    /// full-reprogram run would have charged.
    pub skipped_writes: u64,
    /// Matrix (re)assemblies the solver avoided by reusing a cached
    /// workspace: per-iteration Newton solves that updated diagonal blocks
    /// in place instead of rebuilding the core matrix from its blocks.
    pub rebuilds_avoided: u64,
    /// Digital core factorizations performed by the controller (dense LU or
    /// sparse LU with symbolic reuse).
    pub factorizations: u64,
    /// Floating-point operations those factorizations spent — the digital
    /// per-iteration cost the sparse Newton path attacks. Dense LU charges
    /// its `2/3·N³` estimate; the sparse LU reports exact counts.
    pub factor_flops: u64,
    /// Stored factor entries (`|L|+|U|`) across all factorizations — the
    /// fill the orderings committed to.
    pub factor_nnz: u64,
    /// Analog matrix–vector multiplications.
    pub mvm_ops: u64,
    /// Analog linear-system solves.
    pub solve_ops: u64,
    /// ADC samples taken.
    pub adc_samples: u64,
    /// DAC samples produced.
    pub dac_samples: u64,
    /// NoC transfers (filled in by the `memlp-noc` crate).
    pub noc_transfers: u64,
    /// Tiles never fabricated because their planned block was entirely
    /// zero (DESIGN.md §18). No hardware exists for them: no fault plan,
    /// no spares, no programming pulses, no fabric traffic.
    pub tiles_elided: u64,
    /// Write pulses those elided tiles would have cost — the full-grid
    /// fabrication total is `setup_writes + elided_writes` (plus the
    /// delta-skip ledger on the run side).
    pub elided_writes: u64,
}

impl Add for OpCounts {
    type Output = OpCounts;

    fn add(self, o: OpCounts) -> OpCounts {
        OpCounts {
            setup_writes: self.setup_writes + o.setup_writes,
            update_writes: self.update_writes + o.update_writes,
            skipped_writes: self.skipped_writes + o.skipped_writes,
            rebuilds_avoided: self.rebuilds_avoided + o.rebuilds_avoided,
            factorizations: self.factorizations + o.factorizations,
            factor_flops: self.factor_flops + o.factor_flops,
            factor_nnz: self.factor_nnz + o.factor_nnz,
            mvm_ops: self.mvm_ops + o.mvm_ops,
            solve_ops: self.solve_ops + o.solve_ops,
            adc_samples: self.adc_samples + o.adc_samples,
            dac_samples: self.dac_samples + o.dac_samples,
            noc_transfers: self.noc_transfers + o.noc_transfers,
            tiles_elided: self.tiles_elided + o.tiles_elided,
            elided_writes: self.elided_writes + o.elided_writes,
        }
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, o: OpCounts) {
        *self = *self + o;
    }
}

/// Latency and energy ledger for simulated hardware.
///
/// Every crossbar/NoC operation charges time and energy here using the
/// [`CostParams`] constants. Times accumulate as if operations were
/// sequential (the solver's control flow is sequential per iteration);
/// energy includes a static-power term proportional to elapsed time, added
/// on read-out by [`CostLedger::energy_j`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostLedger {
    setup_time_s: f64,
    run_time_s: f64,
    dynamic_energy_j: f64,
    counts: OpCounts,
}

impl CostLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// Charges programming of `n` coefficients at variation level
    /// `var_fraction` in the given phase.
    pub fn charge_writes(&mut self, cost: &CostParams, phase: Phase, n: u64, var_fraction: f64) {
        let t = cost.write_time(var_fraction) * n as f64;
        let e = cost.write_energy(var_fraction) * n as f64;
        match phase {
            Phase::Setup => {
                self.setup_time_s += t;
                self.counts.setup_writes += n;
            }
            Phase::Run => {
                self.run_time_s += t;
                self.counts.update_writes += n;
            }
        }
        self.dynamic_energy_j += e;
    }

    /// Charges one analog operation (MVM or solve) with `inputs` DAC samples
    /// and `outputs` ADC samples. `array_conductance_s` is the total
    /// conductance of the active array, used for the settle-phase dynamic
    /// energy (`P ≈ V_read² · G_total`).
    pub fn charge_analog_op(
        &mut self,
        cost: &CostParams,
        is_solve: bool,
        inputs: u64,
        outputs: u64,
        array_conductance_s: f64,
        v_read: f64,
    ) {
        // Converters on all lines run in parallel: one conversion time each
        // way, not one per sample. Solves settle through feedback, charged
        // at twice the open-loop settle time.
        let settle = if is_solve {
            2.0 * cost.settle_time_s
        } else {
            cost.settle_time_s
        };
        self.run_time_s += cost.dac_time_s + settle + cost.adc_time_s;
        self.dynamic_energy_j += inputs as f64 * cost.dac_energy_j
            + outputs as f64 * cost.adc_energy_j
            + v_read * v_read * array_conductance_s * settle;
        self.counts.dac_samples += inputs;
        self.counts.adc_samples += outputs;
        if is_solve {
            self.counts.solve_ops += 1;
        } else {
            self.counts.mvm_ops += 1;
        }
    }

    /// Records `n` write pulses skipped by delta programming. Skipped
    /// pulses cost no time and no energy; the counter exists so the write
    /// sparsity is auditable (`update_writes + skipped_writes` is the
    /// full-reprogram total).
    pub fn note_skipped_writes(&mut self, n: u64) {
        self.counts.skipped_writes += n;
    }

    /// Records one matrix rebuild avoided by workspace reuse (a digital
    /// controller optimization — no hardware time or energy involved).
    pub fn note_rebuild_avoided(&mut self) {
        self.counts.rebuilds_avoided += 1;
    }

    /// Records `tiles` elided (never-fabricated) all-zero tiles covering
    /// `cells` coefficients. Hardware that was never built costs no time
    /// and no energy; the counters exist so the block-sparsity win is
    /// auditable next to the delta-write ledger.
    pub fn note_elided_tiles(&mut self, tiles: u64, cells: u64) {
        self.counts.tiles_elided += tiles;
        self.counts.elided_writes += cells;
    }

    /// Records one digital core factorization: its floating-point operation
    /// count and the factor fill (`|L|+|U|` entries). Digital bookkeeping —
    /// no analog time or energy — but the counters are what the sparse-path
    /// benches compare (flops per iteration, dense vs sparse).
    pub fn note_factorization(&mut self, flops: u64, nnz: u64) {
        self.counts.factorizations += 1;
        self.counts.factor_flops += flops;
        self.counts.factor_nnz += nnz;
    }

    /// Charges a NoC hop/transfer (used by `memlp-noc`).
    pub fn charge_noc_transfer(&mut self, time_s: f64, energy_j: f64, transfers: u64) {
        self.run_time_s += time_s;
        self.dynamic_energy_j += energy_j;
        self.counts.noc_transfers += transfers;
    }

    /// Run-phase latency, s (what the paper's Fig 6 reports).
    pub fn run_time_s(&self) -> f64 {
        self.run_time_s
    }

    /// Setup-phase latency, s (initial O(N²) programming).
    pub fn setup_time_s(&self) -> f64 {
        self.setup_time_s
    }

    /// Total energy, J: dynamic energy plus static peripheral power over the
    /// run-phase duration (what the paper's Fig 7 reports).
    pub fn energy_j(&self, cost: &CostParams) -> f64 {
        self.dynamic_energy_j + cost.static_power_w * self.run_time_s
    }

    /// Dynamic (activity-proportional) energy only, J.
    pub fn dynamic_energy_j(&self) -> f64 {
        self.dynamic_energy_j
    }

    /// Operation counters.
    pub fn counts(&self) -> OpCounts {
        self.counts
    }

    /// Merges another ledger into this one (tile ledgers → NoC total).
    pub fn merge(&mut self, other: &CostLedger) {
        self.setup_time_s += other.setup_time_s;
        self.run_time_s += other.run_time_s;
        self.dynamic_energy_j += other.dynamic_energy_j;
        self.counts += other.counts;
    }

    /// Resets the ledger to empty.
    pub fn reset(&mut self) {
        *self = CostLedger::default();
    }
}

impl fmt::Display for CostLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.counts;
        write!(
            f,
            "setup {:.3} ms | run {:.3} ms | dynamic {:.3} mJ | writes {}+{} (skipped {}) | reuse {} | factor {}x/{}f/{}nz | mvm {} | solve {} | adc {} | dac {} | noc {} | elided {}t/{}w",
            self.setup_time_s * 1e3,
            self.run_time_s * 1e3,
            self.dynamic_energy_j * 1e3,
            c.setup_writes,
            c.update_writes,
            c.skipped_writes,
            c.rebuilds_avoided,
            c.factorizations,
            c.factor_flops,
            c.factor_nnz,
            c.mvm_ops,
            c.solve_ops,
            c.adc_samples,
            c.dac_samples,
            c.noc_transfers,
            c.tiles_elided,
            c.elided_writes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_split_by_phase() {
        let cost = CostParams::default();
        let mut l = CostLedger::new();
        l.charge_writes(&cost, Phase::Setup, 100, 0.0);
        l.charge_writes(&cost, Phase::Run, 10, 0.0);
        assert_eq!(l.counts().setup_writes, 100);
        assert_eq!(l.counts().update_writes, 10);
        assert!(l.setup_time_s() > l.run_time_s());
    }

    #[test]
    fn variation_makes_writes_slower() {
        let cost = CostParams::default();
        let mut a = CostLedger::new();
        let mut b = CostLedger::new();
        a.charge_writes(&cost, Phase::Run, 100, 0.0);
        b.charge_writes(&cost, Phase::Run, 100, 0.20);
        assert!(b.run_time_s() > a.run_time_s());
    }

    #[test]
    fn analog_op_counts_and_time() {
        let cost = CostParams::default();
        let mut l = CostLedger::new();
        l.charge_analog_op(&cost, false, 64, 64, 1e-3, 0.3);
        l.charge_analog_op(&cost, true, 64, 64, 1e-3, 0.3);
        let c = l.counts();
        assert_eq!(c.mvm_ops, 1);
        assert_eq!(c.solve_ops, 1);
        assert_eq!(c.adc_samples, 128);
        assert_eq!(c.dac_samples, 128);
        assert!(l.run_time_s() > 0.0);
    }

    #[test]
    fn solve_settles_longer_than_mvm() {
        let cost = CostParams::default();
        let mut mvm = CostLedger::new();
        let mut solve = CostLedger::new();
        mvm.charge_analog_op(&cost, false, 1, 1, 0.0, 0.3);
        solve.charge_analog_op(&cost, true, 1, 1, 0.0, 0.3);
        assert!(solve.run_time_s() > mvm.run_time_s());
    }

    #[test]
    fn energy_includes_static_power() {
        let cost = CostParams::default();
        let mut l = CostLedger::new();
        l.charge_writes(&cost, Phase::Run, 1000, 0.0);
        let e = l.energy_j(&cost);
        assert!(e > l.dynamic_energy_j());
        let expect_static = cost.static_power_w * l.run_time_s();
        assert!((e - l.dynamic_energy_j() - expect_static).abs() < 1e-15);
    }

    #[test]
    fn merge_accumulates() {
        let cost = CostParams::default();
        let mut a = CostLedger::new();
        a.charge_writes(&cost, Phase::Run, 5, 0.0);
        a.note_skipped_writes(2);
        let mut b = CostLedger::new();
        b.charge_writes(&cost, Phase::Run, 7, 0.0);
        b.note_skipped_writes(4);
        b.charge_noc_transfer(1e-6, 1e-9, 3);
        a.merge(&b);
        assert_eq!(a.counts().update_writes, 12);
        assert_eq!(a.counts().skipped_writes, 6);
        assert_eq!(a.counts().noc_transfers, 3);
    }

    #[test]
    fn factorizations_cost_nothing_but_accumulate() {
        let mut l = CostLedger::new();
        l.note_factorization(1000, 64);
        l.note_factorization(500, 64);
        let c = l.counts();
        assert_eq!(c.factorizations, 2);
        assert_eq!(c.factor_flops, 1500);
        assert_eq!(c.factor_nnz, 128);
        assert_eq!(l.run_time_s(), 0.0);
        assert_eq!(l.dynamic_energy_j(), 0.0);
        let mut other = CostLedger::new();
        other.note_factorization(1, 1);
        l.merge(&other);
        assert_eq!(l.counts().factorizations, 3);
    }

    #[test]
    fn elided_tiles_cost_nothing_but_accumulate() {
        let mut l = CostLedger::new();
        l.note_elided_tiles(3, 3 * 16384);
        assert_eq!(l.counts().tiles_elided, 3);
        assert_eq!(l.counts().elided_writes, 3 * 16384);
        assert_eq!(l.run_time_s(), 0.0);
        assert_eq!(l.setup_time_s(), 0.0);
        assert_eq!(l.dynamic_energy_j(), 0.0);
        let mut other = CostLedger::new();
        other.note_elided_tiles(1, 9);
        l.merge(&other);
        assert_eq!(l.counts().tiles_elided, 4);
        assert_eq!(l.counts().elided_writes, 3 * 16384 + 9);
    }

    #[test]
    fn skipped_writes_cost_nothing() {
        let mut l = CostLedger::new();
        l.note_skipped_writes(1000);
        assert_eq!(l.counts().skipped_writes, 1000);
        assert_eq!(l.run_time_s(), 0.0);
        assert_eq!(l.dynamic_energy_j(), 0.0);
    }

    #[test]
    fn reset_clears_everything() {
        let cost = CostParams::default();
        let mut l = CostLedger::new();
        l.charge_writes(&cost, Phase::Setup, 5, 0.0);
        l.reset();
        assert_eq!(l, CostLedger::default());
    }

    #[test]
    fn display_is_nonempty() {
        let l = CostLedger::new();
        assert!(!l.to_string().is_empty());
    }
}
