use memlp_device::{CostParams, DeviceParams, DriftModel, VariationModel};

use crate::fault::FaultModel;

/// Simulation fidelity for analog operations (see DESIGN.md §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// Paper-faithful functional model: per-write multiplicative variation
    /// on logical coefficients (Eqn 18), quantized I/O; zero coefficients
    /// stay exactly zero. Fast enough for the full m = 1024 sweeps.
    #[default]
    Functional,
    /// Circuit-level model: variation applied in the conductance domain,
    /// zero coefficients leak through the finite off-conductance `g_off`,
    /// and MVM outputs pass through the Eqn 5 resistive divider. Costs a
    /// dense solve over the whole array; intended for small/medium N.
    Circuit,
}

/// How MVM outputs are converted back to logical values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadoutMode {
    /// Digitally divide out the known column-sum factors `d_j` (the
    /// controller programmed the array, so it knows them) and subtract the
    /// `g_off` common-mode term. Default.
    #[default]
    Calibrated,
    /// The fast approximation of Hu et al. \[8\] quoted by the paper:
    /// `b = g_s·VO`, i.e. treat the divider denominator as `g_s`. Accurate
    /// only when `g_s` dominates the column conductance sums.
    RawDivider,
}

/// Full configuration of a simulated crossbar array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarConfig {
    /// Maximum physical array side (manufacturing limit, §3.4). Programming
    /// a larger matrix is an error; the NoC crate tiles around this.
    pub max_size: usize,
    /// Device parameters (resistance range, thresholds, pulse widths).
    pub device: DeviceParams,
    /// Per-write process variation (§4.1).
    pub variation: VariationModel,
    /// Hard-fault and transient-fault injection (stuck cells, dead lines,
    /// ADC read upsets — beyond-paper robustness model).
    pub faults: FaultModel,
    /// Spare physical rows/columns fabricated per array, available for
    /// remapping logical lines off dead physical lines. Redundant lines are
    /// standard practice in memory arrays; 2 per side is conservative.
    pub spare_lines: usize,
    /// Conductance drift / retention loss (beyond-paper physical effect;
    /// perfect retention by default, matching the paper's assumption).
    pub drift: DriftModel,
    /// Simulation fidelity. The circuit read-out exists only on the
    /// standalone [`Crossbar`](crate::Crossbar); the tiled array and every
    /// crossbar solver's `preflight` refuse [`CrossbarConfig::circuit`].
    pub fidelity: Fidelity,
    /// ADC resolution in bits for analog outputs (paper: 8).
    pub adc_bits: u32,
    /// DAC resolution in bits for analog inputs (paper: 8).
    pub dac_bits: u32,
    /// Write precision in significant bits: the program-and-verify loop
    /// resolves each stored value to this many significant bits, and the
    /// delta-programming code map compares conductance codes at the same
    /// resolution; see [`WriteQuantizer`](crate::WriteQuantizer). The
    /// paper's 8-bit figure covers the voltage I/O converters; closed-loop
    /// conductance tuning resolves finer, and the default (12 bits,
    /// ≈0.02% relative) keeps the fragile constant-θ split iteration of
    /// Algorithm 2 out of the quantization noise.
    pub write_bits: u32,
    /// Delta programming: skip write pulses for cells whose conductance
    /// code is unchanged since the last program of the same block. Fault
    /// repairs, spare-line remaps and variation redraws invalidate the code
    /// cache (DESIGN.md §12). Fault-free solves are bitwise identical with
    /// this on or off; only the write counts differ.
    pub delta_writes: bool,
    /// Zero-tile elision: skip fabricating and programming tiles whose
    /// planned block is entirely zero, and schedule only live tiles on the
    /// NoC (DESIGN.md §18). An elided tile has no hardware — no fault
    /// plan, no spares, no delta cache — and its MVM contribution is an
    /// exact zero. Fault-free results are bitwise identical with this on
    /// or off; only writes, energy and fabric traffic differ.
    pub tile_elision: bool,
    /// MVM read-out calibration mode at circuit fidelity.
    pub readout: ReadoutMode,
    /// Sense conductance `g_s` at each bit line, S (Eqn 5), at circuit
    /// fidelity.
    pub sense_conductance: f64,
    /// Timing/energy constants for the cost ledger.
    pub cost: CostParams,
    /// Seed for the array's private RNG (variation and fault draws);
    /// deterministic runs make experiments reproducible.
    pub seed: u64,
}

impl CrossbarConfig {
    /// Paper-default configuration: functional fidelity, 8-bit I/O,
    /// calibrated read-out, no variation (add one with [`with_variation`]).
    ///
    /// [`with_variation`]: CrossbarConfig::with_variation
    pub fn paper_default() -> Self {
        CrossbarConfig {
            // Manufacturing-realistic single-array limit (§3.4); larger
            // systems are tiled across the analog NoC.
            max_size: 512,
            device: DeviceParams::default(),
            variation: VariationModel::none(),
            faults: FaultModel::none(),
            spare_lines: 2,
            drift: DriftModel::none(),
            fidelity: Fidelity::Functional,
            adc_bits: 8,
            dac_bits: 8,
            write_bits: 12,
            delta_writes: true,
            tile_elision: true,
            readout: ReadoutMode::Calibrated,
            sense_conductance: 10.0 * DeviceParams::default().g_on(),
            cost: CostParams::default(),
            seed: 0xC0FFEE,
        }
    }

    /// An idealized array: no variation, no faults, 16-bit converters and
    /// exact (full-mantissa) writes. Useful for functional testing where
    /// hardware noise is unwanted.
    pub fn ideal() -> Self {
        CrossbarConfig {
            adc_bits: 16,
            dac_bits: 16,
            write_bits: crate::WriteQuantizer::EXACT_BITS,
            ..CrossbarConfig::paper_default()
        }
    }

    /// Returns a copy with uniform process variation of `pct` percent.
    pub fn with_variation(self, pct: f64) -> Self {
        CrossbarConfig {
            variation: VariationModel::uniform_pct(pct),
            ..self
        }
    }

    /// Returns a copy with the given RNG seed.
    pub fn with_seed(self, seed: u64) -> Self {
        CrossbarConfig { seed, ..self }
    }

    /// Returns a copy with the given (already-validated) fault model.
    pub fn with_faults(self, faults: FaultModel) -> Self {
        CrossbarConfig { faults, ..self }
    }

    /// Returns a copy with the given number of spare lines per array side.
    pub fn with_spare_lines(self, spare_lines: usize) -> Self {
        CrossbarConfig {
            spare_lines,
            ..self
        }
    }

    /// Returns a copy with the given write precision in significant bits
    /// (1..=53; 53 = exact writes).
    pub fn with_write_bits(self, write_bits: u32) -> Self {
        CrossbarConfig { write_bits, ..self }
    }

    /// Returns a copy with delta programming switched on or off.
    pub fn with_delta_writes(self, delta_writes: bool) -> Self {
        CrossbarConfig {
            delta_writes,
            ..self
        }
    }

    /// Returns a copy with zero-tile elision switched on or off.
    pub fn with_tile_elision(self, tile_elision: bool) -> Self {
        CrossbarConfig {
            tile_elision,
            ..self
        }
    }

    /// Refuses an array side beyond the manufacturing limit `max_size`
    /// with [`CrossbarError::SizeExceeded`](crate::CrossbarError).
    ///
    /// # Errors
    ///
    /// When `side > max_size`.
    pub fn check_side(&self, side: usize) -> Result<(), crate::CrossbarError> {
        if side > self.max_size {
            return Err(crate::CrossbarError::SizeExceeded {
                requested: side,
                capacity: self.max_size,
            });
        }
        Ok(())
    }

    /// Returns a copy at circuit fidelity.
    pub fn circuit(self) -> Self {
        CrossbarConfig {
            fidelity: Fidelity::Circuit,
            ..self
        }
    }
}

impl Default for CrossbarConfig {
    fn default() -> Self {
        CrossbarConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_8_bit_functional() {
        let c = CrossbarConfig::paper_default();
        assert_eq!(c.adc_bits, 8);
        assert_eq!(c.dac_bits, 8);
        assert_eq!(c.write_bits, 12);
        assert!(c.delta_writes, "write sparsity is the default");
        assert!(c.tile_elision, "tile sparsity is the default");
        assert_eq!(c.fidelity, Fidelity::Functional);
        assert!(c.variation.is_none());
    }

    #[test]
    fn builders_compose() {
        let faults = FaultModel::symmetric(0.01).expect("valid rate");
        let c = CrossbarConfig::paper_default()
            .with_variation(10.0)
            .with_seed(42)
            .with_faults(faults)
            .with_spare_lines(4)
            .with_write_bits(10)
            .with_delta_writes(false)
            .with_tile_elision(false)
            .circuit();
        assert_eq!(c.variation.max_fraction, 0.10);
        assert_eq!(c.seed, 42);
        assert_eq!(c.faults, faults);
        assert_eq!(c.spare_lines, 4);
        assert_eq!(c.write_bits, 10);
        assert!(!c.delta_writes);
        assert!(!c.tile_elision);
        assert_eq!(c.fidelity, Fidelity::Circuit);
    }

    #[test]
    fn ideal_has_high_precision() {
        let c = CrossbarConfig::ideal();
        assert_eq!(c.adc_bits, 16);
        assert_eq!(c.write_bits, crate::WriteQuantizer::EXACT_BITS);
        assert!(c.variation.is_none());
    }

    #[test]
    fn sense_conductance_dominates_device() {
        let c = CrossbarConfig::paper_default();
        assert!(c.sense_conductance > c.device.g_on());
    }
}
