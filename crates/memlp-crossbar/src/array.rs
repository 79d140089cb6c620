use memlp_linalg::{LuFactors, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{CrossbarConfig, Fidelity, ReadoutMode};
use crate::cost::{CostLedger, Phase};
use crate::error::CrossbarError;
use crate::fault::{FaultKind, FaultPlan};
use crate::mapping::ConductanceMap;
use crate::quantize::{Quantizer, WriteQuantizer};

/// Salt separating the fault-plan seed stream from the variation stream:
/// hard defects are a property of the physical array, drawn once, and must
/// not move when variation is redrawn.
const FAULT_PLAN_SALT: u64 = 0x0FA0_17ED_5EED_A001;

/// Salt for the transient-upset stream (independent of variation so a
/// fault-free configuration replays bit-identical variation draws).
const TRANSIENT_SALT: u64 = 0x0FA0_17ED_5EED_A002;

/// A simulated memristor crossbar array.
///
/// The array is created with a physical side length; a (non-negative)
/// logical matrix of any shape that fits can then be programmed into it.
/// Analog operations run against the **realized** matrix — what the cells
/// actually store after conductance mapping, per-write process variation
/// (Eqn 18) and faults — with DAC-quantized inputs and ADC-quantized
/// outputs. Every operation charges the [`CostLedger`].
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Crossbar {
    config: CrossbarConfig,
    side: usize,
    /// Logical target most recently programmed.
    target: Option<Matrix>,
    /// Realized logical matrix (functional fidelity semantics). At circuit
    /// fidelity this holds the *pre-parasitic* realized values; parasitics
    /// are added from `gmat` during operations.
    realized: Option<Matrix>,
    /// Realized conductance matrix (only materialized at circuit fidelity).
    gmat: Option<Matrix>,
    map: Option<ConductanceMap>,
    adc: Quantizer,
    dac: Quantizer,
    /// Write-precision quantizer (`config.write_bits` significant bits).
    wq: WriteQuantizer,
    rng: StdRng,
    /// Independent stream for transient ADC upsets.
    transient_rng: StdRng,
    /// Hard defects of this physical array (stuck cells, dead lines),
    /// drawn once at creation and persistent across re-programming.
    plan: FaultPlan,
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
        if side > config.max_size {
            return Err(CrossbarError::SizeExceeded {
                requested: side,
                capacity: config.max_size,
            });
        }
        Ok(Crossbar {
            side,
            adc: Quantizer::new(config.adc_bits),
            dac: Quantizer::new(config.dac_bits),
            wq: WriteQuantizer::new(config.write_bits),
            rng: StdRng::seed_from_u64(config.seed),
            transient_rng: StdRng::seed_from_u64(config.seed ^ TRANSIENT_SALT),
            plan: FaultPlan::draw(&config.faults, side, side, config.seed ^ FAULT_PLAN_SALT),
            ledger: CostLedger::new(),
            target: None,
            realized: None,
            gmat: None,
            map: None,
            g_total: 0.0,
            config,
        })
    }

    /// Physical side length.
    pub fn side(&self) -> usize {
        self.side
    }

    /// The active configuration.
    pub fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// The cost ledger accumulated so far.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Programs a non-negative logical matrix into the array (setup phase),
    /// using the matrix's own largest entry as the full-scale value.
    ///
    /// # Errors
    ///
    /// * [`CrossbarError::SizeExceeded`] if the matrix does not fit,
    /// * [`CrossbarError::NegativeCoefficient`] if any entry is negative.
    pub fn program(&mut self, matrix: &Matrix) -> Result<(), CrossbarError> {
        let a_max = matrix.max_abs().max(f64::MIN_POSITIVE);
        self.program_with_scale(matrix, a_max)
    }

    /// Programs with an explicit full-scale value `a_max`, leaving headroom
    /// for later in-place updates that may exceed the initial maximum.
    ///
    /// # Errors
    ///
    /// Same as [`Crossbar::program`]; values above `a_max` saturate rather
    /// than erroring (that is what the hardware would store).
    pub fn program_with_scale(&mut self, matrix: &Matrix, a_max: f64) -> Result<(), CrossbarError> {
        self.check_fits(matrix.rows(), matrix.cols())?;
        self.check_nonnegative(matrix)?;
        let map = ConductanceMap::new(a_max, &self.config.device);

        let mut realized = Matrix::zeros(matrix.rows(), matrix.cols());
        let mut gmat = if self.config.fidelity == Fidelity::Circuit {
            Some(Matrix::zeros(matrix.rows(), matrix.cols()))
        } else {
            None
        };
        for i in 0..matrix.rows() {
            for j in 0..matrix.cols() {
                let (logical, g) = self.write_cell(&map, i, j, matrix[(i, j)]);
                realized[(i, j)] = logical;
                if let Some(gm) = gmat.as_mut() {
                    gm[(i, j)] = g;
                }
            }
        }
        self.ledger.charge_writes(
            &self.config.cost,
            Phase::Setup,
            (matrix.rows() * matrix.cols()) as u64,
            self.config.variation.max_fraction,
        );
        self.g_total = match &gmat {
            Some(gm) => gm.as_slice().iter().sum(),
            None => {
                map.g_off() * (matrix.rows() * matrix.cols()) as f64
                    + map.slope() * realized.as_slice().iter().sum::<f64>()
            }
        };
        self.target = Some(matrix.clone());
        self.realized = Some(realized);
        self.gmat = gmat;
        self.map = Some(map);
        Ok(())
    }

    /// Rewrites individual cells during the run phase (the paper's O(N)
    /// per-iteration coefficient updates). Each write redraws its process
    /// variation.
    ///
    /// # Errors
    ///
    /// * [`CrossbarError::NotProgrammed`] if no matrix is programmed,
    /// * [`CrossbarError::ShapeMismatch`] if an index is out of range,
    /// * [`CrossbarError::NegativeCoefficient`] for negative values.
    pub fn update_cells(&mut self, updates: &[(usize, usize, f64)]) -> Result<(), CrossbarError> {
        let map = self.map.ok_or(CrossbarError::NotProgrammed)?;
        // Validate everything before mutating.
        {
            let target = self.target.as_ref().ok_or(CrossbarError::NotProgrammed)?;
            for &(i, j, v) in updates {
                if i >= target.rows() || j >= target.cols() {
                    return Err(CrossbarError::ShapeMismatch {
                        expected: format!("indices within {}x{}", target.rows(), target.cols()),
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
        }
        for &(i, j, v) in updates {
            let (logical, g) = self.write_cell(&map, i, j, v);
            if let Some(t) = self.target.as_mut() {
                t[(i, j)] = v;
            }
            if let Some(r) = self.realized.as_mut() {
                r[(i, j)] = logical;
            }
            if let Some(gm) = self.gmat.as_mut() {
                gm[(i, j)] = g;
            }
        }
        // Refresh the cached conductance total (cheap relative to a solve).
        self.refresh_g_total(&map)?;
        self.ledger.charge_writes(
            &self.config.cost,
            Phase::Run,
            updates.len() as u64,
            self.config.variation.max_fraction,
        );
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
        let realized = self.realized.as_ref().ok_or(CrossbarError::NotProgrammed)?;
        if x.len() != realized.cols() {
            return Err(CrossbarError::ShapeMismatch {
                expected: format!("input of length {}", realized.cols()),
                found: format!("length {}", x.len()),
            });
        }
        let xq = self.dac.quantize_vec(x);
        let mut y = match self.config.fidelity {
            Fidelity::Functional => realized.matvec(&xq),
            Fidelity::Circuit => self.circuit_mvm(&xq)?,
        };
        self.adc.quantize_in_place(&mut y);
        self.config
            .faults
            .upset_read(&mut y, &mut self.transient_rng);
        self.ledger.charge_analog_op(
            &self.config.cost,
            false,
            xq.len() as u64,
            y.len() as u64,
            self.g_total,
            self.config.device.v_read,
        );
        Ok(y)
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
        let realized = self.realized.as_ref().ok_or(CrossbarError::NotProgrammed)?;
        if y.len() != realized.rows() {
            return Err(CrossbarError::ShapeMismatch {
                expected: format!("input of length {}", realized.rows()),
                found: format!("length {}", y.len()),
            });
        }
        let yq = self.dac.quantize_vec(y);
        let mut x = match self.config.fidelity {
            Fidelity::Functional => realized.matvec_transposed(&yq),
            Fidelity::Circuit => self.circuit_mvm_transposed(&yq)?,
        };
        self.adc.quantize_in_place(&mut x);
        self.config
            .faults
            .upset_read(&mut x, &mut self.transient_rng);
        self.ledger.charge_analog_op(
            &self.config.cost,
            false,
            yq.len() as u64,
            x.len() as u64,
            self.g_total,
            self.config.device.v_read,
        );
        Ok(x)
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
        let realized = self.realized.as_ref().ok_or(CrossbarError::NotProgrammed)?;
        if !realized.is_square() {
            return Err(CrossbarError::ShapeMismatch {
                expected: "square programmed matrix".into(),
                found: format!("{}x{}", realized.rows(), realized.cols()),
            });
        }
        if b.len() != realized.rows() {
            return Err(CrossbarError::ShapeMismatch {
                expected: format!("rhs of length {}", realized.rows()),
                found: format!("length {}", b.len()),
            });
        }
        let bq = self.dac.quantize_vec(b);
        let mut x = match self.config.fidelity {
            Fidelity::Functional => LuFactors::factor(realized.clone())?.solve(&bq)?,
            Fidelity::Circuit => self.circuit_solve(&bq)?,
        };
        self.adc.quantize_in_place(&mut x);
        self.config
            .faults
            .upset_read(&mut x, &mut self.transient_rng);
        let n = bq.len() as u64;
        self.ledger.charge_analog_op(
            &self.config.cost,
            true,
            n,
            n,
            self.g_total,
            self.config.device.v_read,
        );
        Ok(x)
    }

    // ----- internals -------------------------------------------------------

    /// Writes one cell: returns (realized logical value, realized conductance).
    /// Consults the array's persistent [`FaultPlan`] — a stuck cell or dead
    /// line realizes its stuck value no matter what is programmed, and
    /// consumes no variation draw (the pulse never changes the device).
    fn write_cell(
        &mut self,
        map: &ConductanceMap,
        row: usize,
        col: usize,
        value: f64,
    ) -> (f64, f64) {
        match self.plan.fault_at(row, col) {
            FaultKind::StuckOn => return (map.a_max(), self.config.device.g_on()),
            FaultKind::StuckOff => return (0.0, self.config.device.g_off()),
            FaultKind::Healthy => {}
        }
        // The program-and-verify loop resolves the target to
        // `config.write_bits` significant bits — the code the delta path
        // compares against — before the stored value picks up Eqn 18
        // variation.
        let value = self.wq.quantize(value);
        match self.config.fidelity {
            Fidelity::Functional => {
                // Paper-faithful Eqn 18: perturb the logical value, then
                // clamp to the representable range.
                let v = self
                    .config
                    .variation
                    .perturb(value, &mut self.rng)
                    .clamp(0.0, map.a_max());
                (v, map.to_conductance(v))
            }
            Fidelity::Circuit => {
                // Physical: the conductance (including its g_off floor) is
                // what varies from write to write.
                let g = (self
                    .config
                    .variation
                    .perturb(map.to_conductance(value), &mut self.rng))
                .clamp(0.25 * map.g_off(), self.config.device.g_on() * 1.25);
                (map.to_logical(g), g)
            }
        }
    }

    /// Recomputes the cached total conductance from the current cell state.
    fn refresh_g_total(&mut self, map: &ConductanceMap) -> Result<(), CrossbarError> {
        self.g_total = match (&self.gmat, &self.realized) {
            (Some(gm), _) => gm.as_slice().iter().sum(),
            (None, Some(r)) => {
                map.g_off() * (r.rows() * r.cols()) as f64
                    + map.slope() * r.as_slice().iter().sum::<f64>()
            }
            // `map` only exists after program(), so `realized` exists; this
            // arm is unreachable in practice.
            (None, None) => return Err(CrossbarError::NotProgrammed),
        };
        Ok(())
    }

    /// Circuit-fidelity MVM: Eqn 5 divider plus calibrated or raw read-out.
    fn circuit_mvm(&self, xq: &[f64]) -> Result<Vec<f64>, CrossbarError> {
        let gm = self.gmat.as_ref().ok_or(CrossbarError::NotProgrammed)?;
        let map = self.map.ok_or(CrossbarError::NotProgrammed)?;
        let gs = self.config.sense_conductance;
        let sum_x: f64 = xq.iter().sum();
        let mut y = Vec::with_capacity(gm.rows());
        for r in 0..gm.rows() {
            let row = gm.row(r);
            let current: f64 = memlp_linalg::ops::dot(row, xq);
            let row_sum: f64 = row.iter().sum();
            let vo = current / (gs + row_sum);
            let val = match self.config.readout {
                ReadoutMode::Calibrated => {
                    // The controller knows the programmed row sums and the
                    // g_off common mode; divide/subtract them digitally.
                    (vo * (gs + row_sum) - map.g_off() * sum_x) / map.slope()
                }
                ReadoutMode::RawDivider => vo * gs / map.slope(),
            };
            y.push(val);
        }
        Ok(y)
    }

    /// Circuit-fidelity transposed MVM: the Eqn 5 divider mirrored onto
    /// the bit lines (column conductance sums replace row sums).
    fn circuit_mvm_transposed(&self, yq: &[f64]) -> Result<Vec<f64>, CrossbarError> {
        let gm = self.gmat.as_ref().ok_or(CrossbarError::NotProgrammed)?;
        let map = self.map.ok_or(CrossbarError::NotProgrammed)?;
        let gs = self.config.sense_conductance;
        let sum_y: f64 = yq.iter().sum();
        let mut x = Vec::with_capacity(gm.cols());
        for c in 0..gm.cols() {
            let mut current = 0.0f64;
            let mut col_sum = 0.0f64;
            for r in 0..gm.rows() {
                let g = gm[(r, c)];
                current += g * yq[r];
                col_sum += g;
            }
            let vo = current / (gs + col_sum);
            let val = match self.config.readout {
                ReadoutMode::Calibrated => {
                    (vo * (gs + col_sum) - map.g_off() * sum_y) / map.slope()
                }
                ReadoutMode::RawDivider => vo * gs / map.slope(),
            };
            x.push(val);
        }
        Ok(x)
    }

    /// Circuit-fidelity solve: `G·x_v = g_s·b`, read word lines, rescale.
    fn circuit_solve(&self, bq: &[f64]) -> Result<Vec<f64>, CrossbarError> {
        let gm = self.gmat.as_ref().ok_or(CrossbarError::NotProgrammed)?;
        let map = self.map.ok_or(CrossbarError::NotProgrammed)?;
        let gs = self.config.sense_conductance;
        let rhs: Vec<f64> = bq.iter().map(|v| v * gs).collect();
        let xv = LuFactors::factor(gm.clone())?.solve(&rhs)?;
        // G ≈ slope·A (plus the uncorrected g_off parasitic), so the
        // word-line voltages satisfy x_v ≈ (g_s/slope)·A⁻¹·b.
        Ok(xv.iter().map(|v| v * map.slope() / gs).collect())
    }

    fn check_fits(&self, rows: usize, cols: usize) -> Result<(), CrossbarError> {
        let need = rows.max(cols);
        if need > self.side {
            return Err(CrossbarError::SizeExceeded {
                requested: need,
                capacity: self.side,
            });
        }
        Ok(())
    }

    fn check_nonnegative(&self, m: &Matrix) -> Result<(), CrossbarError> {
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                let v = m[(i, j)];
                if !(v.is_finite() && v >= 0.0) {
                    return Err(CrossbarError::NegativeCoefficient {
                        row: i,
                        col: j,
                        value: v,
                    });
                }
            }
        }
        Ok(())
    }
}
