//! Logical-value ↔ conductance mapping.
//!
//! Following Hu et al. \[8\] (the mapping the paper adopts in §2.3), a
//! non-negative logical coefficient `a ∈ [0, a_max]` is stored as the
//! conductance
//!
//! ```text
//! g(a) = g_off + (a / a_max) · (g_on − g_off)
//! ```
//!
//! so the largest coefficient maps to the most conductive state and zero
//! maps to the off state. The map is affine, which is why a zero logical
//! coefficient still leaks `g_off` of conductance in circuit-fidelity
//! simulations — the `g_off` common-mode term that calibrated read-out
//! subtracts digitally.

use memlp_device::DeviceParams;

/// An affine logical↔conductance map for a fixed scale `a_max`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConductanceMap {
    a_max: f64,
    g_on: f64,
    g_off: f64,
}

impl ConductanceMap {
    /// Creates the map for coefficients in `[0, a_max]` on the given device.
    ///
    /// # Panics
    ///
    /// Panics if `a_max` is not strictly positive and finite.
    pub fn new(a_max: f64, device: &DeviceParams) -> Self {
        assert!(
            a_max.is_finite() && a_max > 0.0,
            "a_max must be positive and finite, got {a_max}"
        );
        ConductanceMap {
            a_max,
            g_on: device.g_on(),
            g_off: device.g_off(),
        }
    }

    /// The full-scale logical value.
    pub fn a_max(&self) -> f64 {
        self.a_max
    }

    /// Conductance per unit logical value.
    pub fn slope(&self) -> f64 {
        (self.g_on - self.g_off) / self.a_max
    }

    /// The off conductance (logical zero).
    pub fn g_off(&self) -> f64 {
        self.g_off
    }

    /// Maps a logical value to a conductance, clamping to the physical
    /// range (values above `a_max` saturate — the §2.3 constraint that the
    /// crossbar stores only what its dynamic range allows).
    pub fn to_conductance(&self, a: f64) -> f64 {
        let a = a.clamp(0.0, self.a_max);
        self.g_off + a * self.slope()
    }

    /// Total conductance of `cells` cells storing `value_sum` of logical
    /// value: `g_off` leakage on every cell plus the mapped conductance.
    /// The settle-energy estimate every analog op is charged with.
    pub fn total_conductance(&self, cells: usize, value_sum: f64) -> f64 {
        self.g_off * cells as f64 + self.slope() * value_sum
    }
}

/// Spare-line remapping table for one physical array.
///
/// Crossbar arrays are fabricated with a few redundant word/bit lines; when
/// post-programming verify finds a dead line, the controller reroutes the
/// logical line onto a spare by reprogramming the spare with the logical
/// line's coefficients and updating the row/column decoder. This type
/// models the decoder table: which logical lines have been relocated and
/// how many spares remain.
///
/// Remapping is a pure *permutation of physical lines* — the logical matrix
/// the array realizes is unchanged, every relocated coefficient is the same
/// non-negative value it was, and zero entries stay zero. The Eqn 13–14
/// sign-split block structure (`A⁺`/`A⁻` occupying fixed non-negative
/// blocks of the augmented array) is therefore preserved by construction:
/// the blocks are defined over *logical* coordinates, which a decoder-level
/// remap never touches.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LineRemap {
    spare_rows: usize,
    spare_cols: usize,
    /// Logical rows relocated onto spares, in remap order.
    rows: Vec<usize>,
    /// Logical columns relocated onto spares, in remap order.
    cols: Vec<usize>,
}

impl LineRemap {
    /// A remap table with the given spare budget per side.
    pub fn new(spare_rows: usize, spare_cols: usize) -> Self {
        LineRemap {
            spare_rows,
            spare_cols,
            rows: Vec::new(),
            cols: Vec::new(),
        }
    }

    /// Relocates logical row `row` onto the next spare word line. Returns
    /// `false` (and changes nothing) when the spare budget is exhausted or
    /// the row is already remapped.
    pub fn remap_row(&mut self, row: usize) -> bool {
        if self.rows.len() >= self.spare_rows || self.rows.contains(&row) {
            return false;
        }
        self.rows.push(row);
        true
    }

    /// Relocates logical column `col` onto the next spare bit line. Returns
    /// `false` when out of spares or already remapped.
    pub fn remap_col(&mut self, col: usize) -> bool {
        if self.cols.len() >= self.spare_cols || self.cols.contains(&col) {
            return false;
        }
        self.cols.push(col);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> ConductanceMap {
        ConductanceMap::new(10.0, &DeviceParams::default())
    }

    #[test]
    fn endpoints_map_to_rails() {
        let m = map();
        let d = DeviceParams::default();
        assert!((m.to_conductance(0.0) - d.g_off()).abs() < 1e-15);
        assert!((m.to_conductance(10.0) - d.g_on()).abs() < 1e-15);
    }

    #[test]
    fn total_conductance_scales_with_content() {
        let m = map();
        let lo = m.total_conductance(100, 10.0);
        let hi = m.total_conductance(100, 90.0);
        assert!(hi > lo);
        assert_eq!(m.total_conductance(100, 0.0), 100.0 * m.g_off());
    }

    #[test]
    fn saturates_out_of_range() {
        let m = map();
        assert_eq!(m.to_conductance(20.0), m.to_conductance(10.0));
        assert_eq!(m.to_conductance(-5.0), m.to_conductance(0.0));
    }

    #[test]
    fn map_is_monotone() {
        let m = map();
        let mut prev = m.to_conductance(0.0);
        for k in 1..=100 {
            let g = m.to_conductance(k as f64 * 0.1);
            assert!(g >= prev);
            prev = g;
        }
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_zero_amax() {
        ConductanceMap::new(0.0, &DeviceParams::default());
    }

    #[test]
    fn remap_respects_spare_budget() {
        let mut r = LineRemap::new(2, 1);
        assert!(r.remap_row(5));
        assert!(!r.remap_row(5), "double-remapping the same row");
        assert!(r.remap_row(9));
        assert!(!r.remap_row(11), "spare rows exhausted");
        assert!(r.remap_col(0));
        assert!(!r.remap_col(3), "spare cols exhausted");
        assert!(!LineRemap::new(0, 0).remap_row(0), "no spares, no remap");
    }
}
