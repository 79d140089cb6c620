use memlp_linalg::{ops, Matrix, SparseMatrix};

use crate::error::LpError;

/// A linear program in the paper's canonical form (§3.1):
/// `maximize cᵀx` subject to `A·x ⪯ b`, `x ⪰ 0`.
///
/// Invariants enforced at construction: `A` is `m×n`, `b` has length `m`,
/// `c` has length `n`, and every coefficient is finite.
///
/// The constraint matrix is carried in **both** representations from
/// construction onward: the dense [`Matrix`] (the crossbar-programming and
/// dense-oracle view) and a CSR [`SparseMatrix`] (the structure-exploiting
/// digital view). The two always describe the same matrix; sparse Newton
/// paths pick by [`density`](Self::density) without any per-solve
/// conversion cost.
#[derive(Debug, Clone, PartialEq)]
pub struct LpProblem {
    a: Matrix,
    sparse_a: SparseMatrix,
    b: Vec<f64>,
    c: Vec<f64>,
}

impl LpProblem {
    /// Builds a canonical-form problem from a dense constraint matrix (the
    /// CSR companion is extracted once here).
    ///
    /// # Errors
    ///
    /// * [`LpError::ShapeMismatch`] if `b`/`c` lengths disagree with `A`,
    /// * [`LpError::NonFinite`] if any coefficient is NaN/∞.
    pub fn new(a: Matrix, b: Vec<f64>, c: Vec<f64>) -> Result<Self, LpError> {
        if !a.as_slice().iter().all(|v| v.is_finite()) {
            return Err(LpError::NonFinite {
                location: "A".into(),
            });
        }
        let sparse_a = SparseMatrix::from_dense(&a);
        Self::from_parts(a, sparse_a, b, c)
    }

    /// Builds a canonical-form problem CSR-first: domain generators and
    /// equilibration hand over the sparse matrix they assembled and the
    /// dense companion is materialized once here.
    ///
    /// # Errors
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn from_sparse(sparse_a: SparseMatrix, b: Vec<f64>, c: Vec<f64>) -> Result<Self, LpError> {
        if !sparse_a.values().iter().all(|v| v.is_finite()) {
            return Err(LpError::NonFinite {
                location: "A".into(),
            });
        }
        let a = sparse_a.to_dense();
        Self::from_parts(a, sparse_a, b, c)
    }

    fn from_parts(
        a: Matrix,
        sparse_a: SparseMatrix,
        b: Vec<f64>,
        c: Vec<f64>,
    ) -> Result<Self, LpError> {
        if b.len() != a.rows() {
            return Err(LpError::ShapeMismatch {
                expected: format!("b of length {}", a.rows()),
                found: format!("length {}", b.len()),
            });
        }
        if c.len() != a.cols() {
            return Err(LpError::ShapeMismatch {
                expected: format!("c of length {}", a.cols()),
                found: format!("length {}", c.len()),
            });
        }
        if let Some(i) = b.iter().position(|v| !v.is_finite()) {
            return Err(LpError::NonFinite {
                location: format!("b[{i}]"),
            });
        }
        if let Some(i) = c.iter().position(|v| !v.is_finite()) {
            return Err(LpError::NonFinite {
                location: format!("c[{i}]"),
            });
        }
        Ok(LpProblem { a, sparse_a, b, c })
    }

    /// Constraint matrix `A` (m×n), dense view.
    pub fn a(&self) -> &Matrix {
        &self.a
    }

    /// Constraint matrix `A` (m×n), CSR view — same matrix as
    /// [`a`](Self::a), kept in sync from construction.
    pub fn sparse_a(&self) -> &SparseMatrix {
        &self.sparse_a
    }

    /// Fill ratio of `A` (stored non-zeros over `m·n`) — the quantity
    /// `memlp_solvers::pdip::sparse_newton` thresholds to pick the sparse
    /// or the dense Newton factorization.
    pub fn density(&self) -> f64 {
        self.sparse_a.density()
    }

    /// Right-hand side `b` (length m).
    pub fn b(&self) -> &[f64] {
        &self.b
    }

    /// Objective coefficients `c` (length n).
    pub fn c(&self) -> &[f64] {
        &self.c
    }

    /// Number of constraints `m`.
    pub fn num_constraints(&self) -> usize {
        self.a.rows()
    }

    /// Number of variables `n`.
    pub fn num_vars(&self) -> usize {
        self.a.cols()
    }

    /// Objective value `cᵀx`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_vars()`.
    pub fn objective(&self, x: &[f64]) -> f64 {
        ops::dot(&self.c, x)
    }

    /// Checks primal feasibility of `x` within tolerance `tol` (relative to
    /// the magnitude of each bound): `A·x ⪯ b + tol` and `x ⪰ −tol`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_vars()`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.iter().any(|&v| v < -tol) {
            return false;
        }
        let ax = self.a.matvec(x);
        ax.iter()
            .zip(&self.b)
            .all(|(l, r)| *l <= r + tol * r.abs().max(1.0))
    }

    /// The paper's §3.2 relaxed constraint check `A·x ⪯ α·b` used for
    /// feasibility detection under process variation (`α` slightly above 1).
    ///
    /// Bounds are relaxed *outward*: each bound moves away from the feasible
    /// region by `(α−1)·|b_i|`, so the check is monotone in `α` regardless
    /// of the sign of `b_i`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_vars()`.
    pub fn satisfies_relaxed(&self, x: &[f64], alpha: f64) -> bool {
        let slack = alpha - 1.0;
        if x.iter().any(|&v| v < -slack) {
            return false;
        }
        let ax = self.a.matvec(x);
        ax.iter()
            .zip(&self.b)
            .all(|(l, r)| *l <= r + slack * r.abs().max(1.0))
    }

    /// The §3.2 relaxed check with a **problem-scale** slack: every row may
    /// be violated by at most `(α−1)·max(‖b‖∞, 1)`. This is the reading
    /// appropriate for analog hardware, whose error floor is set by the
    /// global signal range rather than by each row's own bound — a row with
    /// a tiny `b_i` cannot be checked tighter than the converters resolve.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_vars()`.
    pub fn satisfies_relaxed_scaled(&self, x: &[f64], alpha: f64) -> bool {
        let slack = (alpha - 1.0) * ops::inf_norm(&self.b).max(1.0);
        if x.iter().any(|&v| v < -slack) {
            return false;
        }
        let ax = self.a.matvec(x);
        ax.iter().zip(&self.b).all(|(l, r)| *l <= r + slack)
    }

    /// The symmetric dual, itself in canonical max form:
    /// the dual of `max cᵀx, Ax ⪯ b, x ⪰ 0` is `min bᵀy, Aᵀy ⪰ c, y ⪰ 0`,
    /// which canonicalizes to `max (−b)ᵀy, (−Aᵀ)y ⪯ −c, y ⪰ 0`.
    pub fn dual(&self) -> LpProblem {
        let at = self.a.transpose().map(|v| -v);
        let mut sat = self.sparse_a.transpose();
        for v in sat.values_mut() {
            *v = -*v;
        }
        let neg_c: Vec<f64> = self.c.iter().map(|v| -v).collect();
        let neg_b: Vec<f64> = self.b.iter().map(|v| -v).collect();
        LpProblem {
            a: at,
            sparse_a: sat,
            b: neg_c,
            c: neg_b,
        }
    }

    /// Largest absolute coefficient across `A`, `b`, `c` — the dynamic range
    /// the crossbar must represent.
    pub fn max_abs_coefficient(&self) -> f64 {
        self.a
            .max_abs()
            .max(ops::inf_norm(&self.b))
            .max(ops::inf_norm(&self.c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LpProblem {
        LpProblem::new(
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 1.0]]).unwrap(),
            vec![4.0, 6.0],
            vec![1.0, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let lp = sample();
        assert_eq!(lp.num_constraints(), 2);
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.b(), &[4.0, 6.0]);
        assert_eq!(lp.c(), &[1.0, 1.0]);
    }

    #[test]
    fn rejects_shape_mismatch() {
        let a = Matrix::identity(2);
        assert!(matches!(
            LpProblem::new(a.clone(), vec![1.0], vec![1.0, 1.0]),
            Err(LpError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            LpProblem::new(a, vec![1.0, 1.0], vec![1.0]),
            Err(LpError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn rejects_non_finite() {
        let a = Matrix::identity(2);
        assert!(matches!(
            LpProblem::new(a.clone(), vec![1.0, f64::NAN], vec![1.0, 1.0]),
            Err(LpError::NonFinite { .. })
        ));
        assert!(matches!(
            LpProblem::new(a, vec![1.0, 1.0], vec![f64::INFINITY, 1.0]),
            Err(LpError::NonFinite { .. })
        ));
    }

    #[test]
    fn feasibility_check() {
        let lp = sample();
        assert!(lp.is_feasible(&[0.0, 0.0], 1e-12));
        assert!(lp.is_feasible(&[1.0, 1.0], 1e-12));
        assert!(!lp.is_feasible(&[10.0, 0.0], 1e-12)); // 3·10 > 6
        assert!(!lp.is_feasible(&[-1.0, 0.0], 1e-12)); // x ≥ 0 violated
    }

    #[test]
    fn relaxed_check_is_looser() {
        let lp = sample();
        // x with Ax slightly above b: feasible only under relaxation.
        let x = [2.02 / 3.0, 0.0]; // 3x0 = 2.02·… → a1·x = 6.06 > 6
        let x = [x[0] * 3.0, x[1]]; // a1·x = 6.06
        assert!(!lp.is_feasible(&x, 1e-12));
        assert!(lp.satisfies_relaxed(&x, 1.05));
        assert!(!lp.satisfies_relaxed(&x, 1.0001));
    }

    #[test]
    fn relaxed_check_with_negative_bounds_relaxes_outward() {
        // Constraint −x ≤ −1 (i.e. x ≥ 1) with x slightly below 1.
        let lp = LpProblem::new(
            Matrix::from_rows(&[&[-1.0]]).unwrap(),
            vec![-1.0],
            vec![1.0],
        )
        .unwrap();
        assert!(!lp.is_feasible(&[0.98], 1e-12));
        assert!(lp.satisfies_relaxed(&[0.98], 1.05));
    }

    #[test]
    fn objective_value() {
        let lp = sample();
        assert_eq!(lp.objective(&[1.0, 2.0]), 3.0);
    }

    #[test]
    fn dual_shapes_swap() {
        let lp = sample();
        let d = lp.dual();
        assert_eq!(d.num_constraints(), lp.num_vars());
        assert_eq!(d.num_vars(), lp.num_constraints());
    }

    #[test]
    fn dual_of_dual_is_primal() {
        let lp = sample();
        let dd = lp.dual().dual();
        assert_eq!(dd, lp);
    }

    #[test]
    fn weak_duality_on_sample() {
        // Any primal-feasible x and dual-feasible y satisfy cᵀx ≤ bᵀy.
        let lp = sample();
        let x = [1.0, 1.0];
        assert!(lp.is_feasible(&x, 1e-12));
        // Dual: min 4y0 + 6y1 s.t. y0+3y1 ≥ 1, 2y0+y1 ≥ 1, y ≥ 0.
        let y = [0.4, 0.2];
        assert!(y[0] + 3.0 * y[1] >= 1.0 - 1e-12);
        assert!(2.0 * y[0] + y[1] >= 1.0 - 1e-12);
        let primal = lp.objective(&x);
        let dual_obj = 4.0 * y[0] + 6.0 * y[1];
        assert!(
            primal <= dual_obj + 1e-12,
            "weak duality violated: {primal} > {dual_obj}"
        );
    }

    #[test]
    fn max_abs_coefficient() {
        let lp = sample();
        assert_eq!(lp.max_abs_coefficient(), 6.0);
    }

    #[test]
    fn sparse_view_tracks_dense() {
        let lp = sample();
        assert_eq!(lp.sparse_a().to_dense(), *lp.a());
        assert_eq!(lp.density(), 1.0);
    }

    #[test]
    fn from_sparse_round_trips() {
        use memlp_linalg::SparseMatrix;
        let sa = SparseMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (1, 2, -2.0)]).unwrap();
        let lp = LpProblem::from_sparse(sa.clone(), vec![1.0, 1.0], vec![1.0, 0.0, 0.0]).unwrap();
        assert_eq!(lp.sparse_a(), &sa);
        assert_eq!(lp.a()[(1, 2)], -2.0);
        assert!((lp.density() - 2.0 / 6.0).abs() < 1e-12);
        // Shape and finiteness validation still applies on the sparse path.
        assert!(LpProblem::from_sparse(sa.clone(), vec![1.0], vec![0.0; 3]).is_err());
        let bad = SparseMatrix::from_triplets(1, 1, &[(0, 0, f64::NAN)]).unwrap();
        assert!(LpProblem::from_sparse(bad, vec![1.0], vec![1.0]).is_err());
    }

    #[test]
    fn dual_keeps_sparse_in_sync() {
        let lp = sample();
        let d = lp.dual();
        assert_eq!(d.sparse_a().to_dense(), *d.a());
    }
}
