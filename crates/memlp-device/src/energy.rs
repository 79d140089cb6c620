/// Timing and energy constants used to estimate hardware cost.
///
/// The paper's latency/energy results (§4.4) are *estimates* assembled from
/// (i) simulated iteration counts and (ii) per-iteration hardware activity
/// (2.7·m coefficient updates, one analog solve, one analog MVM, plus
/// conversions), costed with device-level constants from its reference
/// \[23\]. This struct holds those constants with the calibration documented
/// field by field; the benchmark harness reports both the constants and the
/// resulting estimates so the derivation is reproducible.
///
/// All times are seconds, energies joules, powers watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Width of one programming pulse (write path), s.
    pub pulse_width_s: f64,
    /// Time for one verify read between pulses, s.
    pub verify_read_s: f64,
    /// Average pulse+verify cycles to program one coefficient on ideal
    /// hardware, a constant charged per write whatever its code step. The
    /// crossbar writes at `CrossbarConfig::write_bits` (12 by default);
    /// `PulseProgrammer` fails to converge on most moves at that precision
    /// on the default device, so this figure is not derived from it.
    pub base_write_cycles: f64,
    /// Extra write–verify cycles per percentage point of process variation
    /// (variation makes each landed value noisier, so the verify loop
    /// re-pulses more often).
    pub verify_cycles_per_var_pct: f64,
    /// Energy of one write cycle including driver/decoder overhead, J.
    pub write_cycle_energy_j: f64,
    /// Analog settle time for one crossbar operation (MVM or solve), s.
    pub settle_time_s: f64,
    /// Per-sample A/D conversion time, s.
    pub adc_time_s: f64,
    /// Per-sample A/D conversion energy, J.
    pub adc_energy_j: f64,
    /// Per-sample D/A conversion time, s.
    pub dac_time_s: f64,
    /// Per-sample D/A conversion energy, J.
    pub dac_energy_j: f64,
    /// Static power of CMOS peripherals (controllers, sense amps, summing
    /// amplifiers), W; charged for the full solve duration.
    pub static_power_w: f64,
    /// Active power assumed for the CPU baseline, W. 35 W reproduces the
    /// paper's implied figure (218.1 J / 6.23 s for `linprog` at m = 1024).
    pub cpu_power_w: f64,
}

impl CostParams {
    /// Average write–verify cycles per coefficient at a given variation
    /// level (`var_fraction` = 0.10 for 10%).
    pub fn write_cycles(&self, var_fraction: f64) -> f64 {
        self.base_write_cycles + self.verify_cycles_per_var_pct * (var_fraction * 100.0)
    }

    /// Time to program one coefficient, s.
    pub fn write_time(&self, var_fraction: f64) -> f64 {
        self.write_cycles(var_fraction) * (self.pulse_width_s + self.verify_read_s)
    }

    /// Energy to program one coefficient, J.
    pub fn write_energy(&self, var_fraction: f64) -> f64 {
        self.write_cycles(var_fraction) * self.write_cycle_energy_j
    }

    /// CPU-baseline energy for a measured wall-clock time, J.
    pub fn cpu_energy(&self, wall_seconds: f64) -> f64 {
        self.cpu_power_w * wall_seconds
    }
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            // 50 ns pulses and verify reads; ~10 cycles reach 8-bit
            // precision on ideal devices, so one coefficient costs ~1 µs —
            // with the paper's 2.7·m updates per iteration this reproduces
            // the ~78 ms no-variation estimate at m = 1024 for the
            // simulated iteration counts.
            pulse_width_s: 50e-9,
            verify_read_s: 50e-9,
            base_write_cycles: 10.0,
            // +0.5 cycles per % variation: at 20% this doubles programming
            // effort, matching the paper's latency growth with variation on
            // top of its iteration-count growth.
            verify_cycles_per_var_pct: 0.5,
            // Write path (driver + decoder + device), per cycle.
            write_cycle_energy_j: 120e-9,
            settle_time_s: 100e-9,
            adc_time_s: 10e-9,
            adc_energy_j: 5e-12,
            dac_time_s: 5e-9,
            dac_energy_j: 2e-12,
            // CMOS controller + sense/summing amplifiers.
            static_power_w: 10.0,
            cpu_power_w: 35.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_cycles_grow_with_variation() {
        let c = CostParams::default();
        assert!(c.write_cycles(0.20) > c.write_cycles(0.05));
        assert_eq!(c.write_cycles(0.0), c.base_write_cycles);
    }

    #[test]
    fn write_time_is_cycles_times_cycle_time() {
        let c = CostParams::default();
        let t = c.write_time(0.0);
        assert!((t - 10.0 * 100e-9).abs() < 1e-15);
    }

    #[test]
    fn default_write_time_near_one_microsecond() {
        let c = CostParams::default();
        let t = c.write_time(0.0);
        assert!(t > 0.5e-6 && t < 2e-6, "write time {t} s should be ≈1 µs");
    }

    #[test]
    fn cpu_energy_reproduces_paper_headline() {
        // 6.23 s at 35 W ⇒ 218.05 J ≈ the paper's 218.1 J.
        let c = CostParams::default();
        let e = c.cpu_energy(6.23);
        assert!((e - 218.1).abs() < 0.5, "cpu energy {e}");
    }

    #[test]
    fn write_energy_positive_and_monotone() {
        let c = CostParams::default();
        assert!(c.write_energy(0.0) > 0.0);
        assert!(c.write_energy(0.2) > c.write_energy(0.1));
    }
}
