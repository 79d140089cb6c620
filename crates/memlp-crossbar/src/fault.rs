//! Hard-defect and transient-fault injection for crossbar arrays.
//!
//! The paper models only per-write process variation (Eqn 18) plus the
//! §4.3 double-checking re-solve. Real crossbars also suffer *hard*
//! defects — cells stuck at an extreme conductance, whole word/bit lines
//! dead after fabrication — and *transient* read upsets in the ADC path.
//! This module provides:
//!
//! * [`FaultModel`] — validated fault **rates** (construction rejects
//!   impossible configurations such as `stuck_on + stuck_off > 1`),
//! * [`FaultPlan`] — a concrete, seed-deterministic **realization** of a
//!   model over one physical array: which cells are stuck, which lines are
//!   dead, which stuck cells are merely *weak* (repairable by an extended
//!   programming-pulse budget),
//! * transient read upsets ([`FaultModel::upset_read`]), applied at the
//!   ADC stage of every analog read-out.
//!
//! The plan — not the model — is what programming/read paths consult, so
//! defects persist across re-programming attempts (a stuck cell stays
//! stuck when the §4.3 scheme redraws variation) while repairs
//! ([`FaultPlan::repair_weak`], [`FaultPlan::revive_row`]) are equally
//! persistent. Everything is driven by seeded [`StdRng`] streams: same
//! seed, same defects, at any thread count.
//!
//! [`StdRng`]: rand::rngs::StdRng

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Validated fault rates for a crossbar array.
///
/// All constructors besides [`FaultModel::none`] validate their inputs and
/// return an error for rates outside `[0, 1]`, non-finite rates, or
/// `stuck_on + stuck_off > 1` (which would silently misclassify draws).
/// Fields are private so an invalid model is unrepresentable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Probability a cell is stuck at `g_on` (shorted ON).
    stuck_on_rate: f64,
    /// Probability a cell is stuck at `g_off` (stuck OFF).
    stuck_off_rate: f64,
    /// Probability a word line (array row) is entirely dead (reads zero).
    dead_row_rate: f64,
    /// Probability a bit line (array column) is entirely dead.
    dead_col_rate: f64,
    /// Probability a single ADC read-out component suffers a transient
    /// full-scale upset.
    transient_flip_rate: f64,
    /// Fraction of stuck cells that are *weak* — recoverable by re-running
    /// programming with an extended pulse budget — rather than hard defects.
    weak_fraction: f64,
}

/// Outcome of a fault draw for one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Cell programs normally.
    Healthy,
    /// Cell reads as `g_on` regardless of programming.
    StuckOn,
    /// Cell reads as `g_off` regardless of programming.
    StuckOff,
}

/// The error produced when fault rates fail validation; converted into
/// [`crate::CrossbarError::InvalidFaultModel`] at the crate boundary.
pub type FaultModelError = crate::error::CrossbarError;

fn check_rate(name: &str, rate: f64) -> Result<(), FaultModelError> {
    if !(rate.is_finite() && (0.0..=1.0).contains(&rate)) {
        return Err(FaultModelError::InvalidFaultModel {
            reason: format!("{name} must be a probability in [0, 1], got {rate}"),
        });
    }
    Ok(())
}

impl FaultModel {
    /// No faults (and the default weak fraction, which is irrelevant at
    /// zero fault rates).
    pub fn none() -> Self {
        FaultModel::default()
    }

    /// Stuck-at model with explicit per-kind rates.
    ///
    /// # Errors
    ///
    /// [`crate::CrossbarError::InvalidFaultModel`] if either rate is outside
    /// `[0, 1]` or the rates sum past 1 (the draw would misclassify).
    pub fn new(stuck_on_rate: f64, stuck_off_rate: f64) -> Result<Self, FaultModelError> {
        FaultModel::default().with_stuck_rates(stuck_on_rate, stuck_off_rate)
    }

    /// Symmetric stuck-at model: each kind occurs with `rate` probability.
    ///
    /// # Errors
    ///
    /// Same as [`FaultModel::new`] (`rate > 0.5` makes the kinds sum past 1).
    pub fn symmetric(rate: f64) -> Result<Self, FaultModelError> {
        FaultModel::new(rate, rate)
    }

    /// Returns a copy with the given stuck-cell rates.
    ///
    /// # Errors
    ///
    /// [`crate::CrossbarError::InvalidFaultModel`] on invalid rates or a
    /// rate sum above 1.
    pub fn with_stuck_rates(
        mut self,
        stuck_on_rate: f64,
        stuck_off_rate: f64,
    ) -> Result<Self, FaultModelError> {
        check_rate("stuck_on_rate", stuck_on_rate)?;
        check_rate("stuck_off_rate", stuck_off_rate)?;
        if stuck_on_rate + stuck_off_rate > 1.0 {
            return Err(FaultModelError::InvalidFaultModel {
                reason: format!(
                    "stuck_on_rate + stuck_off_rate = {} exceeds 1; a cell cannot \
                     be stuck both ways",
                    stuck_on_rate + stuck_off_rate
                ),
            });
        }
        self.stuck_on_rate = stuck_on_rate;
        self.stuck_off_rate = stuck_off_rate;
        Ok(self)
    }

    /// Returns a copy with dead-line (whole row/column) rates.
    ///
    /// # Errors
    ///
    /// [`crate::CrossbarError::InvalidFaultModel`] on rates outside `[0, 1]`.
    pub fn with_dead_lines(
        mut self,
        dead_row_rate: f64,
        dead_col_rate: f64,
    ) -> Result<Self, FaultModelError> {
        check_rate("dead_row_rate", dead_row_rate)?;
        check_rate("dead_col_rate", dead_col_rate)?;
        self.dead_row_rate = dead_row_rate;
        self.dead_col_rate = dead_col_rate;
        Ok(self)
    }

    /// Returns a copy with the transient ADC-upset rate.
    ///
    /// # Errors
    ///
    /// [`crate::CrossbarError::InvalidFaultModel`] on a rate outside `[0, 1]`.
    pub fn with_transients(mut self, rate: f64) -> Result<Self, FaultModelError> {
        check_rate("transient_flip_rate", rate)?;
        self.transient_flip_rate = rate;
        Ok(self)
    }

    /// Returns a copy with the weak (repairable) fraction of stuck cells.
    ///
    /// # Errors
    ///
    /// [`crate::CrossbarError::InvalidFaultModel`] on a fraction outside
    /// `[0, 1]`.
    pub fn with_weak_fraction(mut self, fraction: f64) -> Result<Self, FaultModelError> {
        check_rate("weak_fraction", fraction)?;
        self.weak_fraction = fraction;
        Ok(self)
    }

    /// Probability a cell is stuck at `g_on`.
    pub fn stuck_on_rate(&self) -> f64 {
        self.stuck_on_rate
    }

    /// Probability a cell is stuck at `g_off`.
    pub fn stuck_off_rate(&self) -> f64 {
        self.stuck_off_rate
    }

    /// Probability a word line (row) is dead.
    pub fn dead_row_rate(&self) -> f64 {
        self.dead_row_rate
    }

    /// Probability a bit line (column) is dead.
    pub fn dead_col_rate(&self) -> f64 {
        self.dead_col_rate
    }

    /// Probability of a transient full-scale upset per ADC read-out
    /// component.
    pub fn transient_flip_rate(&self) -> f64 {
        self.transient_flip_rate
    }

    /// Fraction of stuck cells that are weak (repairable).
    pub fn weak_fraction(&self) -> f64 {
        self.weak_fraction
    }

    /// Returns `true` if this model never injects hard faults (dead lines
    /// or stuck cells); transient upsets are not counted.
    pub fn is_none(&self) -> bool {
        self.stuck_on_rate == 0.0
            && self.stuck_off_rate == 0.0
            && self.dead_row_rate == 0.0
            && self.dead_col_rate == 0.0
    }

    /// Draws the stuck-fault state of one cell. Construction guarantees the
    /// rates sum to at most 1, so the draw cannot misclassify.
    pub fn draw(&self, rng: &mut impl Rng) -> FaultKind {
        if self.stuck_on_rate == 0.0 && self.stuck_off_rate == 0.0 {
            return FaultKind::Healthy;
        }
        let u: f64 = rng.random_range(0.0..1.0);
        if u < self.stuck_on_rate {
            FaultKind::StuckOn
        } else if u < self.stuck_on_rate + self.stuck_off_rate {
            FaultKind::StuckOff
        } else {
            FaultKind::Healthy
        }
    }

    /// Applies transient read upsets to an ADC read-out in place: each
    /// component flips (loses its full-scale MSB) with probability
    /// [`FaultModel::transient_flip_rate`]. Returns the number of upsets.
    ///
    /// Consumes **no** RNG draws when the rate is zero, so fault-free
    /// configurations replay bit-identical streams.
    pub fn upset_read(&self, v: &mut [f64], rng: &mut impl Rng) -> usize {
        if self.transient_flip_rate == 0.0 {
            return 0;
        }
        let fs = v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        if fs == 0.0 {
            return 0;
        }
        let mut upsets = 0;
        for x in v.iter_mut() {
            let u: f64 = rng.random_range(0.0..1.0);
            if u < self.transient_flip_rate {
                // An MSB upset: the component loses (or gains) a full-scale
                // half-range, the worst single-bit error an ADC word suffers.
                *x -= 0.5 * fs * x.signum();
                upsets += 1;
            }
        }
        upsets
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel {
            stuck_on_rate: 0.0,
            stuck_off_rate: 0.0,
            dead_row_rate: 0.0,
            dead_col_rate: 0.0,
            transient_flip_rate: 0.0,
            // Half of stuck cells default to weak: fabrication surveys
            // attribute a large share of stuck-at behaviour to insufficient
            // forming, which extended pulse budgets recover.
            weak_fraction: 0.5,
        }
    }
}

/// One stuck cell in a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellFault {
    /// Array row of the faulty cell.
    pub row: usize,
    /// Array column of the faulty cell.
    pub col: usize,
    /// Stuck polarity ([`FaultKind::Healthy`] never appears in a plan).
    pub kind: FaultKind,
    /// Weak faults are repairable by re-programming with an extended pulse
    /// budget; hard faults are permanent.
    pub weak: bool,
}

/// A deterministic realization of a [`FaultModel`] over one physical array:
/// the concrete set of stuck cells and dead lines that array carries.
///
/// Plans are drawn once per physical array from a dedicated seed stream
/// (never from the variation RNG), so the *same* defects persist when the
/// §4.3 double-checking scheme re-programs the array with fresh variation —
/// exactly how hardware behaves. All internal collections are sorted
/// vectors: iteration order is deterministic by construction (no unordered
/// maps), which the replay test suite relies on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    rows: usize,
    cols: usize,
    /// Stuck cells in row-major order (binary-searchable).
    cells: Vec<CellFault>,
    /// Dead rows, ascending.
    dead_rows: Vec<usize>,
    /// Dead columns, ascending.
    dead_cols: Vec<usize>,
}

impl FaultPlan {
    /// A defect-free plan for a `rows × cols` array.
    pub fn clean(rows: usize, cols: usize) -> Self {
        FaultPlan {
            rows,
            cols,
            ..FaultPlan::default()
        }
    }

    /// Draws the plan for a `rows × cols` array from `seed`. Dead lines are
    /// drawn first (rows, then columns), then per-cell stuck faults in
    /// row-major order; stuck cells additionally draw their weak flag.
    /// Deterministic in `(model, rows, cols, seed)`.
    pub fn draw(model: &FaultModel, rows: usize, cols: usize, seed: u64) -> Self {
        if model.is_none() {
            return FaultPlan::clean(rows, cols);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dead_rows = Vec::new();
        if model.dead_row_rate() > 0.0 {
            for i in 0..rows {
                let u: f64 = rng.random_range(0.0..1.0);
                if u < model.dead_row_rate() {
                    dead_rows.push(i);
                }
            }
        }
        let mut dead_cols = Vec::new();
        // A 1-wide region is a diagonal laid along the array, not a shared
        // bit line: column faults do not apply there.
        if model.dead_col_rate() > 0.0 && cols > 1 {
            for j in 0..cols {
                let u: f64 = rng.random_range(0.0..1.0);
                if u < model.dead_col_rate() {
                    dead_cols.push(j);
                }
            }
        }
        let mut cells = Vec::new();
        if model.stuck_on_rate() > 0.0 || model.stuck_off_rate() > 0.0 {
            for row in 0..rows {
                for col in 0..cols {
                    let kind = model.draw(&mut rng);
                    if kind != FaultKind::Healthy {
                        let u: f64 = rng.random_range(0.0..1.0);
                        cells.push(CellFault {
                            row,
                            col,
                            kind,
                            weak: u < model.weak_fraction(),
                        });
                    }
                }
            }
        }
        FaultPlan {
            rows,
            cols,
            cells,
            dead_rows,
            dead_cols,
        }
    }

    /// Array rows this plan covers.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array columns this plan covers.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The effective fault at `(row, col)`: a dead line reads as stuck-off,
    /// otherwise the cell's own stuck state (if any).
    pub fn fault_at(&self, row: usize, col: usize) -> FaultKind {
        if self.dead_rows.binary_search(&row).is_ok() || self.dead_cols.binary_search(&col).is_ok()
        {
            return FaultKind::StuckOff;
        }
        match self
            .cells
            .binary_search_by_key(&(row, col), |c| (c.row, c.col))
        {
            Ok(idx) => self.cells[idx].kind,
            Err(_) => FaultKind::Healthy,
        }
    }

    /// `true` if the plan carries no defects at all.
    pub fn is_clean(&self) -> bool {
        self.cells.is_empty() && self.dead_rows.is_empty() && self.dead_cols.is_empty()
    }

    /// Stuck cells (dead lines not included).
    pub fn stuck_cells(&self) -> usize {
        self.cells.len()
    }

    /// Stuck cells flagged weak (repairable).
    pub fn weak_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.weak).count()
    }

    /// The stuck-cell list, row-major.
    pub fn cells(&self) -> &[CellFault] {
        &self.cells
    }

    /// Dead rows, ascending.
    pub fn dead_rows(&self) -> &[usize] {
        &self.dead_rows
    }

    /// Dead columns, ascending.
    pub fn dead_cols(&self) -> &[usize] {
        &self.dead_cols
    }

    /// Repairs every weak stuck cell (the extended-pulse-budget re-program)
    /// and returns how many were repaired. Hard cells remain stuck.
    pub fn repair_weak(&mut self) -> usize {
        let before = self.cells.len();
        self.cells.retain(|c| !c.weak);
        before - self.cells.len()
    }

    /// Revives a dead row (its logical line was remapped onto a healthy
    /// spare). Stuck cells recorded on that physical row no longer apply —
    /// the logical line now lives elsewhere. Returns `false` if the row was
    /// not dead.
    pub fn revive_row(&mut self, row: usize) -> bool {
        match self.dead_rows.binary_search(&row) {
            Ok(idx) => {
                self.dead_rows.remove(idx);
                self.cells.retain(|c| c.row != row);
                true
            }
            Err(_) => false,
        }
    }

    /// Revives a dead column (remapped onto a spare bit line). Returns
    /// `false` if the column was not dead.
    pub fn revive_col(&mut self, col: usize) -> bool {
        match self.dead_cols.binary_search(&col) {
            Ok(idx) => {
                self.dead_cols.remove(idx);
                self.cells.retain(|c| c.col != col);
                true
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CrossbarError;

    #[test]
    fn none_is_always_healthy() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = FaultModel::none();
        for _ in 0..1000 {
            assert_eq!(f.draw(&mut rng), FaultKind::Healthy);
        }
        assert!(f.is_none());
    }

    #[test]
    fn rates_are_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        let f = FaultModel::new(0.1, 0.2).unwrap();
        let n = 100_000;
        let mut on = 0;
        let mut off = 0;
        for _ in 0..n {
            match f.draw(&mut rng) {
                FaultKind::StuckOn => on += 1,
                FaultKind::StuckOff => off += 1,
                FaultKind::Healthy => {}
            }
        }
        let on_rate = on as f64 / n as f64;
        let off_rate = off as f64 / n as f64;
        assert!((on_rate - 0.1).abs() < 0.01, "stuck-on rate {on_rate}");
        assert!((off_rate - 0.2).abs() < 0.01, "stuck-off rate {off_rate}");
    }

    #[test]
    fn symmetric_constructor() {
        let f = FaultModel::symmetric(0.05).unwrap();
        assert_eq!(f.stuck_on_rate(), 0.05);
        assert_eq!(f.stuck_off_rate(), 0.05);
        assert!(!f.is_none());
    }

    #[test]
    fn rejects_rates_summing_past_one() {
        // The satellite bug: 0.7 + 0.6 > 1 used to silently bias the draw
        // toward stuck-on; now it is a construction error.
        let err = FaultModel::new(0.7, 0.6).unwrap_err();
        assert!(matches!(err, CrossbarError::InvalidFaultModel { .. }));
        assert!(err.to_string().contains("exceeds 1"));
        assert!(FaultModel::symmetric(0.6).is_err());
        assert!(FaultModel::symmetric(0.5).is_ok());
    }

    #[test]
    fn rejects_out_of_range_and_non_finite_rates() {
        assert!(FaultModel::new(-0.1, 0.0).is_err());
        assert!(FaultModel::new(0.0, 1.5).is_err());
        assert!(FaultModel::new(f64::NAN, 0.0).is_err());
        assert!(FaultModel::none().with_dead_lines(-1.0, 0.0).is_err());
        assert!(FaultModel::none().with_transients(2.0).is_err());
        assert!(FaultModel::none()
            .with_weak_fraction(f64::INFINITY)
            .is_err());
    }

    #[test]
    fn plan_is_deterministic_in_seed() {
        let f = FaultModel::symmetric(0.05)
            .unwrap()
            .with_dead_lines(0.1, 0.1)
            .unwrap();
        let p1 = FaultPlan::draw(&f, 20, 20, 77);
        let p2 = FaultPlan::draw(&f, 20, 20, 77);
        assert_eq!(p1, p2);
        let p3 = FaultPlan::draw(&f, 20, 20, 78);
        assert_ne!(p1, p3, "different seeds should draw different plans");
    }

    #[test]
    fn plan_honors_dead_lines_and_cells() {
        let f = FaultModel::symmetric(0.08)
            .unwrap()
            .with_dead_lines(0.2, 0.2)
            .unwrap();
        let p = FaultPlan::draw(&f, 30, 30, 5);
        assert!(!p.is_clean());
        for &r in p.dead_rows() {
            for j in 0..30 {
                assert_eq!(p.fault_at(r, j), FaultKind::StuckOff);
            }
        }
        for c in p.cells() {
            if p.dead_rows().binary_search(&c.row).is_err()
                && p.dead_cols().binary_search(&c.col).is_err()
            {
                assert_eq!(p.fault_at(c.row, c.col), c.kind);
            }
        }
    }

    #[test]
    fn vector_regions_draw_no_dead_columns() {
        let f = FaultModel::none().with_dead_lines(0.0, 1.0).unwrap();
        let p = FaultPlan::draw(&f, 64, 1, 3);
        assert!(p.dead_cols().is_empty(), "1-wide region has no bit lines");
    }

    #[test]
    fn repair_weak_clears_only_weak_cells() {
        let f = FaultModel::symmetric(0.1)
            .unwrap()
            .with_weak_fraction(0.5)
            .unwrap();
        let mut p = FaultPlan::draw(&f, 40, 40, 9);
        let weak = p.weak_cells();
        let hard = p.stuck_cells() - weak;
        assert!(weak > 0 && hard > 0, "seed should draw both kinds");
        assert_eq!(p.repair_weak(), weak);
        assert_eq!(p.stuck_cells(), hard);
        assert_eq!(p.weak_cells(), 0);
        assert_eq!(p.repair_weak(), 0, "idempotent");
    }

    #[test]
    fn revive_lines() {
        let f = FaultModel::none().with_dead_lines(0.3, 0.3).unwrap();
        let mut p = FaultPlan::draw(&f, 20, 20, 11);
        let Some(&r) = p.dead_rows().first() else {
            panic!("seed should draw a dead row");
        };
        assert!(p.revive_row(r));
        assert!(!p.revive_row(r), "already revived");
        let Some(healthy_col) = (0..20).find(|j| p.dead_cols().binary_search(j).is_err()) else {
            panic!("every column dead at rate 0.3 is implausible");
        };
        assert_ne!(p.fault_at(r, healthy_col), FaultKind::StuckOff);
        let Some(&c) = p.dead_cols().first() else {
            panic!("seed should draw a dead col");
        };
        assert!(p.revive_col(c));
        assert!(p.dead_cols().binary_search(&c).is_err());
    }

    #[test]
    fn upset_read_flips_at_the_configured_rate() {
        let f = FaultModel::none().with_transients(0.25).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let mut total = 0usize;
        let n = 40_000;
        for _ in 0..(n / 8) {
            let mut v = vec![1.0; 8];
            total += f.upset_read(&mut v, &mut rng);
        }
        let rate = total as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "upset rate {rate}");
    }

    #[test]
    fn zero_transient_rate_consumes_no_rng() {
        let f = FaultModel::none();
        let mut r1 = StdRng::seed_from_u64(21);
        let mut r2 = StdRng::seed_from_u64(21);
        let mut v = vec![1.0, -2.0, 3.0];
        assert_eq!(f.upset_read(&mut v, &mut r1), 0);
        assert_eq!(v, vec![1.0, -2.0, 3.0]);
        let a: f64 = r1.random_range(0.0..1.0);
        let b: f64 = r2.random_range(0.0..1.0);
        assert_eq!(a.to_bits(), b.to_bits(), "stream must be untouched");
    }
}
