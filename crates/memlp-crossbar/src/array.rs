use memlp_linalg::{ops, LuFactors, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::block::{ArrayBlock, Writer};
use crate::config::{CrossbarConfig, Fidelity, ReadoutMode};
use crate::cost::{CostLedger, Phase};
use crate::error::CrossbarError;
use crate::fault::FaultPlan;
use crate::mapping::ConductanceMap;
use crate::quantize::Quantizer;

/// Salt separating the fault-plan seed stream from the variation stream:
/// hard defects are a property of the physical array, drawn once, and must
/// not move when variation is redrawn.
const FAULT_PLAN_SALT: u64 = 0x0FA0_17ED_5EED_A001;

/// Salt for the transient-upset stream (independent of variation so a
/// fault-free configuration replays bit-identical variation draws).
const TRANSIENT_SALT: u64 = 0x0FA0_17ED_5EED_A002;

/// The three analog operations an array performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Mvm,
    MvmTransposed,
    Solve,
}

/// A simulated memristor crossbar array: one [`ArrayBlock`].
///
/// The array is created with a physical side length; a (non-negative)
/// logical matrix of any shape that fits can then be programmed into it,
/// as one tile of that side. Programming goes through the same block
/// routine as the solvers' hardware context, so the same configuration
/// realizes the same bits. Analog operations run against the **realized**
/// matrix — what the cells actually store after write quantization,
/// per-write process variation (Eqn 18) and faults — with DAC-quantized
/// inputs and ADC-quantized outputs. At [`Fidelity::Circuit`] the realized
/// values are mapped to conductances and read out through the Eqn 5
/// divider. Every operation charges the [`CostLedger`].
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Crossbar {
    config: CrossbarConfig,
    side: usize,
    /// Defects, spare lines and delta codes of the physical array, drawn
    /// once at creation and persistent across re-programming.
    block: ArrayBlock,
    /// Realized logical matrix.
    realized: Option<Matrix>,
    /// Realized conductance matrix (only materialized at circuit fidelity).
    gmat: Option<Matrix>,
    map: Option<ConductanceMap>,
    adc: Quantizer,
    dac: Quantizer,
    /// The variation stream every write draws from.
    rng: StdRng,
    /// Independent stream for transient ADC upsets.
    transient_rng: StdRng,
    ledger: CostLedger,
    /// Cached total conductance, S (settle-energy estimate).
    g_total: f64,
}

impl Crossbar {
    /// Creates an unprogrammed array of side `side`.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::SizeExceeded`] if `side` exceeds
    /// `config.max_size`.
    pub fn new(side: usize, config: CrossbarConfig) -> Result<Self, CrossbarError> {
        config.check_side(side)?;
        let plan = FaultPlan::draw(&config.faults, side, side, config.seed ^ FAULT_PLAN_SALT);
        Ok(Crossbar {
            side,
            adc: Quantizer::new(config.adc_bits),
            dac: Quantizer::new(config.dac_bits),
            rng: StdRng::seed_from_u64(config.seed),
            transient_rng: StdRng::seed_from_u64(config.seed ^ TRANSIENT_SALT),
            block: ArrayBlock::new(plan, config.spare_lines),
            ledger: CostLedger::new(),
            realized: None,
            gmat: None,
            map: None,
            g_total: 0.0,
            config,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// The cost ledger accumulated so far.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Programs a non-negative logical matrix into the array (setup phase)
    /// as one tile of the array's side ([`ArrayBlock::write_tiled`]): every
    /// healthy cell costs one write or one delta skip, and an all-zero
    /// matrix is elided under `config.tile_elision`. The matrix's own
    /// largest entry is the full-scale value.
    ///
    /// # Errors
    ///
    /// * [`CrossbarError::SizeExceeded`] if the matrix does not fit,
    /// * [`CrossbarError::NegativeCoefficient`] if any entry is negative.
    pub fn program(&mut self, matrix: &Matrix) -> Result<(), CrossbarError> {
        let need = matrix.rows().max(matrix.cols());
        if need > self.side {
            return Err(CrossbarError::SizeExceeded {
                requested: need,
                capacity: self.side,
            });
        }
        CrossbarError::check_nonnegative(matrix)?;
        let mut writer = Writer {
            config: &self.config,
            rng: &mut self.rng,
            ledger: &mut self.ledger,
            phase: Phase::Setup,
        };
        let realized = self
            .block
            .write_tiled(matrix, self.side, &mut writer)
            .into_realized();
        let map = ConductanceMap::new(matrix.max_abs().max(f64::MIN_POSITIVE), &self.config.device);
        self.realized = Some(realized);
        self.map = Some(map);
        self.refresh_conductance(&map);
        Ok(())
    }

    /// Rewrites individual cells during the run phase (the paper's O(N)
    /// per-iteration coefficient updates) through
    /// [`ArrayBlock::write_cells`]: each cell is pulsed and redraws its
    /// process variation, unless delta programming finds its code
    /// unchanged.
    ///
    /// # Errors
    ///
    /// * [`CrossbarError::NotProgrammed`] if no matrix is programmed,
    /// * [`CrossbarError::ShapeMismatch`] if an index is out of range,
    /// * [`CrossbarError::NegativeCoefficient`] for negative values.
    pub fn update_cells(&mut self, updates: &[(usize, usize, f64)]) -> Result<(), CrossbarError> {
        let map = self.map.ok_or(CrossbarError::NotProgrammed)?;
        let realized = self.realized.as_mut().ok_or(CrossbarError::NotProgrammed)?;
        // Validate everything before mutating.
        for &(i, j, v) in updates {
            if i >= realized.rows() || j >= realized.cols() {
                return Err(CrossbarError::ShapeMismatch {
                    expected: format!("indices within {}x{}", realized.rows(), realized.cols()),
                    found: format!("({i}, {j})"),
                });
            }
            if v < 0.0 {
                return Err(CrossbarError::NegativeCoefficient {
                    row: i,
                    col: j,
                    value: v,
                });
            }
        }
        let mut writer = Writer {
            config: &self.config,
            rng: &mut self.rng,
            ledger: &mut self.ledger,
            phase: Phase::Run,
        };
        let values = self.block.write_cells(updates, map.a_max(), &mut writer);
        for (k, &(i, j, _)) in updates.iter().enumerate() {
            realized[(i, j)] = values[k];
        }
        self.refresh_conductance(&map);
        Ok(())
    }

    /// The realized logical matrix (what the analog array actually
    /// represents after variation/faults; functional-fidelity semantics).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::NotProgrammed`] before the first program.
    pub fn realized(&self) -> Result<&Matrix, CrossbarError> {
        self.realized.as_ref().ok_or(CrossbarError::NotProgrammed)
    }

    /// Analog matrix–vector multiply `y = A·x` against the realized matrix.
    ///
    /// # Errors
    ///
    /// * [`CrossbarError::NotProgrammed`] before programming,
    /// * [`CrossbarError::ShapeMismatch`] if `x` has the wrong length.
    ///
    /// memlp-lint: analog_source
    pub fn mvm(&mut self, x: &[f64]) -> Result<Vec<f64>, CrossbarError> {
        self.operate(Op::Mvm, x)
    }

    /// Analog transposed matrix–vector multiply `x = Aᵀ·y`: the same
    /// physical array driven from the opposite side (voltages on the word
    /// lines, currents sensed on the bit lines), so `Aᵀ` needs **no
    /// second array program**. This is what lets a first-order solver
    /// alternate `A` and `Aᵀ` products against one programmed crossbar.
    ///
    /// # Errors
    ///
    /// * [`CrossbarError::NotProgrammed`] before programming,
    /// * [`CrossbarError::ShapeMismatch`] if `y` has the wrong length.
    ///
    /// memlp-lint: analog_source
    pub fn mvm_transposed(&mut self, y: &[f64]) -> Result<Vec<f64>, CrossbarError> {
        self.operate(Op::MvmTransposed, y)
    }

    /// Analog linear-system solve `A·x = b` (the crossbar's signature O(1)
    /// operation, §2.3): voltages proportional to `b` are applied at the
    /// bit-line sense resistors and the settled word-line voltages are the
    /// solution.
    ///
    /// # Errors
    ///
    /// * [`CrossbarError::NotProgrammed`] before programming,
    /// * [`CrossbarError::ShapeMismatch`] for non-square arrays or a wrong
    ///   `b` length,
    /// * [`CrossbarError::Linalg`] if the realized matrix is singular (the
    ///   §4.3 variation-induced failure mode).
    ///
    /// memlp-lint: analog_source
    pub fn solve(&mut self, b: &[f64]) -> Result<Vec<f64>, CrossbarError> {
        self.operate(Op::Solve, b)
    }

    // ----- internals -------------------------------------------------------

    /// One analog operation: DAC-quantized drive, the operation against the
    /// realized array (through the Eqn 5 read-out at circuit fidelity),
    /// ADC-quantized read-back with transient upsets, one ledger charge.
    fn operate(&mut self, op: Op, input: &[f64]) -> Result<Vec<f64>, CrossbarError> {
        let realized = self.realized.as_ref().ok_or(CrossbarError::NotProgrammed)?;
        let (rows, cols) = (realized.rows(), realized.cols());
        if op == Op::Solve && rows != cols {
            return Err(CrossbarError::ShapeMismatch {
                expected: "square programmed matrix".into(),
                found: format!("{rows}x{cols}"),
            });
        }
        let want = if op == Op::Mvm { cols } else { rows };
        if input.len() != want {
            let what = if op == Op::Solve { "rhs" } else { "input" };
            return Err(CrossbarError::ShapeMismatch {
                expected: format!("{what} of length {want}"),
                found: format!("length {}", input.len()),
            });
        }
        let q = self.dac.quantize_vec(input);
        let mut out = match (&self.gmat, op) {
            (Some(gm), _) => self.circuit(op, gm, &q)?,
            (None, Op::Mvm) => realized.matvec(&q),
            (None, Op::MvmTransposed) => realized.matvec_transposed(&q),
            (None, Op::Solve) => LuFactors::factor(realized.clone())?.solve(&q)?,
        };
        self.adc.quantize_in_place(&mut out);
        self.config
            .faults
            .upset_read(&mut out, &mut self.transient_rng);
        self.ledger.charge_analog_op(
            &self.config.cost,
            op == Op::Solve,
            q.len() as u64,
            out.len() as u64,
            self.g_total,
            self.config.device.v_read,
        );
        Ok(out)
    }

    /// Recomputes the conductance state from the realized matrix: the
    /// conductance matrix at circuit fidelity (logical zeros leak `g_off`,
    /// values past full scale saturate at `g_on`), and the total
    /// conductance for the settle-energy estimate.
    fn refresh_conductance(&mut self, map: &ConductanceMap) {
        let Some(realized) = self.realized.as_ref() else {
            return;
        };
        self.gmat = (self.config.fidelity == Fidelity::Circuit)
            .then(|| realized.map(|v| map.to_conductance(v)));
        self.g_total = match &self.gmat {
            Some(gm) => gm.as_slice().iter().sum(),
            None => map.total_conductance(
                realized.rows() * realized.cols(),
                realized.as_slice().iter().sum(),
            ),
        };
    }

    /// Circuit fidelity on the conductance matrix `gm`. A solve settles
    /// `G·x_v = g_s·b` and rescales the word-line voltages; an MVM passes
    /// each sensed line's current through the Eqn 5 divider (row sums for
    /// `A·x`, column sums for `Aᵀ·y`) and reads it out calibrated or raw.
    fn circuit(&self, op: Op, gm: &Matrix, q: &[f64]) -> Result<Vec<f64>, CrossbarError> {
        let map = self.map.ok_or(CrossbarError::NotProgrammed)?;
        let gs = self.config.sense_conductance;
        if op == Op::Solve {
            let rhs: Vec<f64> = q.iter().map(|v| v * gs).collect();
            let xv = LuFactors::factor(gm.clone())?.solve(&rhs)?;
            // G ≈ slope·A (plus the uncorrected g_off parasitic), so the
            // word-line voltages satisfy x_v ≈ (g_s/slope)·A⁻¹·b.
            return Ok(xv.iter().map(|v| v * map.slope() / gs).collect());
        }
        // (current, line conductance sum) per sensed line.
        let lines: Vec<(f64, f64)> = if op == Op::Mvm {
            (0..gm.rows())
                .map(|r| (ops::dot(gm.row(r), q), gm.row(r).iter().sum()))
                .collect()
        } else {
            (0..gm.cols())
                .map(|c| {
                    (0..gm.rows()).fold((0.0, 0.0), |(current, sum), r| {
                        (current + gm[(r, c)] * q[r], sum + gm[(r, c)])
                    })
                })
                .collect()
        };
        let sum_in: f64 = q.iter().sum();
        let read = |(current, line_sum): (f64, f64)| {
            let vo = current / (gs + line_sum);
            match self.config.readout {
                // The controller knows the programmed line sums and the
                // g_off common mode; divide/subtract them digitally.
                ReadoutMode::Calibrated => {
                    (vo * (gs + line_sum) - map.g_off() * sum_in) / map.slope()
                }
                ReadoutMode::RawDivider => vo * gs / map.slope(),
            }
        };
        Ok(lines.into_iter().map(read).collect())
    }
}
