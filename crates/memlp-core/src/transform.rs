//! Negative-coefficient elimination (paper §3.2, Eqns 13–14).
//!
//! Memristances are non-negative, so a matrix with negative entries cannot
//! be written onto a crossbar directly. The paper's transform introduces,
//! for each *column* `j` of `A` containing at least one negative entry, a
//! compensation variable `x_c = −x_j`; the negative entries of column `j`
//! move (as absolute values) into a new column multiplying `x_c`, and a
//! consistency row `x_j + x_c = 0` keeps the system square (Eqn 13).
//!
//! [`SignSplit`] captures the decomposition `A = A′ − A″·S` where `A′ ⪰ 0`
//! holds the non-negative part, `A″ ⪰ 0` holds the absolute values of the
//! negative entries (one column per compensated source column), and `S` is
//! the 0/1 selector picking the compensated columns.

use memlp_linalg::Matrix;

/// The §3.2 sign decomposition of a matrix.
///
/// For any `x`: `A·x = pos·x − neg·x[comp_cols]` (see [`SignSplit::split`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SignSplit {
    /// `A′`: the matrix with negative entries replaced by zero (m×n, ⪰ 0).
    pub pos: Matrix,
    /// `A″`: absolute values of the negative entries, one column per entry
    /// of `comp_cols` (m×k, ⪰ 0). Empty (m×0 ≡ 0 columns) when `A ⪰ 0`.
    pub neg: Matrix,
    /// Source column of each compensation column: `comp_cols[r] = j` means
    /// compensation variable `r` equals `−x_j`.
    pub comp_cols: Vec<usize>,
}

impl SignSplit {
    /// Splits `a` into its crossbar-mappable parts. Two row-major passes
    /// with selects rather than sign branches: the first fills `A′` and
    /// flags the columns holding a negative entry, the second gathers each
    /// row's negative entries of the flagged columns into `A″`.
    pub fn split(a: &Matrix) -> SignSplit {
        let (m, n) = (a.rows(), a.cols());
        let mut pos = Matrix::zeros(m, n);
        let mut negative = vec![false; n];
        for i in 0..m {
            let row = pos.row_mut(i).iter_mut().zip(&mut negative);
            for ((p, flag), &v) in row.zip(a.row(i)) {
                *p = if v >= 0.0 { v } else { 0.0 };
                *flag |= v < 0.0;
            }
        }
        let comp_cols: Vec<usize> = (0..n).filter(|&j| negative[j]).collect();
        let mut neg = Matrix::zeros(m, comp_cols.len());
        for i in 0..m {
            let src = a.row(i);
            for (o, &j) in neg.row_mut(i).iter_mut().zip(&comp_cols) {
                let v = src[j];
                *o = if v < 0.0 { -v } else { 0.0 };
            }
        }
        SignSplit {
            pos,
            neg,
            comp_cols,
        }
    }

    /// Folds the Δp elimination of the augmented system into `eff`, a
    /// realized `A′`: for every compensation `r` whose realized `ip[r]` is
    /// non-zero, each row `i` of column `comp_cols[r]` loses
    /// `neg[(i, r)] · (sel[r] / ip[r])`, where `neg` is the realized `A″`
    /// and `sel`, `ip` the realized selector and identity lines. One
    /// subtraction an entry (the compensated columns are distinct), walked
    /// row-major.
    pub fn fold_compensations(&self, eff: &mut Matrix, neg: &Matrix, sel: &[f64], ip: &[f64]) {
        let terms: Vec<(usize, usize, f64)> = self
            .comp_cols
            .iter()
            .enumerate()
            .filter(|&(r, _)| ip[r] != 0.0)
            .map(|(r, &j)| (r, j, sel[r] / ip[r]))
            .collect();
        for i in 0..eff.rows() {
            let (src, row) = (neg.row(i), eff.row_mut(i));
            for &(r, j, f) in &terms {
                row[j] -= src[r] * f;
            }
        }
    }

    /// Number of compensation variables `k` this split introduces.
    pub fn num_compensations(&self) -> usize {
        self.comp_cols.len()
    }

    /// Reconstructs the original matrix (`A = A′ − A″·S`); used by tests
    /// and the digital-side feasibility checks.
    pub fn reconstruct(&self) -> Matrix {
        let mut a = self.pos.clone();
        for (r, &j) in self.comp_cols.iter().enumerate() {
            for i in 0..a.rows() {
                a[(i, j)] -= self.neg[(i, r)];
            }
        }
        a
    }

    /// Applies the original operator: `A·x` computed from the split parts —
    /// the identity the augmented crossbar system relies on
    /// (`A′·x + A″·p = A·x` with `p = −x[comp_cols]`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.pos.cols()`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = self.pos.matvec(x);
        if !self.comp_cols.is_empty() {
            let p: Vec<f64> = self.comp_cols.iter().map(|&j| -x[j]).collect();
            let yn = self.neg.matvec(&p);
            for (yi, ni) in y.iter_mut().zip(&yn) {
                *yi += ni;
            }
        }
        y
    }

    /// The compensation values `p = −x[comp_cols]` for a given `x`.
    pub fn compensation_values(&self, x: &[f64]) -> Vec<f64> {
        self.comp_cols.iter().map(|&j| -x[j]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed() -> Matrix {
        Matrix::from_rows(&[&[1.0, -2.0, 0.0], &[-0.5, 3.0, 1.0], &[2.0, 0.0, -4.0]]).unwrap()
    }

    #[test]
    fn split_parts_are_nonnegative() {
        let s = SignSplit::split(&mixed());
        assert!(s.pos.is_nonnegative());
        assert!(s.neg.is_nonnegative());
    }

    #[test]
    fn comp_cols_are_the_columns_with_negatives() {
        let s = SignSplit::split(&mixed());
        assert_eq!(s.comp_cols, vec![0, 1, 2]);
        let nonneg = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 3.0]]).unwrap();
        assert_eq!(SignSplit::split(&nonneg).num_compensations(), 0);
    }

    #[test]
    fn reconstruct_roundtrips() {
        let a = mixed();
        assert_eq!(SignSplit::split(&a).reconstruct(), a);
    }

    #[test]
    fn apply_matches_direct_matvec() {
        let a = mixed();
        let s = SignSplit::split(&a);
        let x = [1.0, -2.0, 0.5];
        let direct = a.matvec(&x);
        let split = s.apply(&x);
        for (d, sp) in direct.iter().zip(&split) {
            assert!((d - sp).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_on_nonnegative_matrix_is_plain_matvec() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 3.0]]).unwrap();
        let s = SignSplit::split(&a);
        assert_eq!(s.num_compensations(), 0);
        assert_eq!(s.apply(&[1.0, 1.0]), a.matvec(&[1.0, 1.0]));
    }

    #[test]
    fn compensation_values_negate_selected() {
        let s = SignSplit::split(&mixed());
        let p = s.compensation_values(&[1.0, 2.0, 3.0]);
        assert_eq!(p, vec![-1.0, -2.0, -3.0]);
    }

    #[test]
    fn single_negative_entry_single_compensation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, -0.25]]).unwrap();
        let s = SignSplit::split(&a);
        assert_eq!(s.comp_cols, vec![1]);
        assert_eq!(s.neg[(1, 0)], 0.25);
        assert_eq!(s.neg[(0, 0)], 0.0);
        assert_eq!(s.pos[(1, 1)], 0.0);
    }

    #[test]
    fn eqn13_identity_holds_columnwise() {
        // The augmented system identity: A′x + A″p = Ax with p = −x_sel.
        let a = mixed();
        let s = SignSplit::split(&a);
        let x = [0.3, 0.7, -1.1];
        let p = s.compensation_values(&x);
        let mut lhs = s.pos.matvec(&x);
        let contrib = s.neg.matvec(&p);
        for (l, c) in lhs.iter_mut().zip(&contrib) {
            *l += c;
        }
        let rhs = a.matvec(&x);
        for (l, r) in lhs.iter().zip(&rhs) {
            assert!((l - r).abs() < 1e-12);
        }
    }
}
