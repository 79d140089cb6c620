use memlp_linalg::parallel::WriteOnce;
use memlp_linalg::{ops, Matrix, SparseMatrix};

use crate::error::LpError;

/// A linear program in the paper's canonical form (§3.1):
/// `maximize cᵀx` subject to `A·x ⪯ b`, `x ⪰ 0`.
///
/// Invariants enforced at construction: `A` is `m×n`, `b` has length `m`,
/// `c` has length `n`, and every coefficient is finite.
///
/// The constraint matrix is stored once, in CSR form
/// ([`sparse_a`](Self::sparse_a)): the structure-exploiting digital view
/// that the sparse Newton paths, PDHG and the `.lp` codec read. The dense
/// [`Matrix`] ([`a`](Self::a)) — the crossbar-programming and
/// dense-oracle view — is derived from it on the first call, or kept from
/// construction when the caller hands one to [`new`](Self::new). A sparse
/// path therefore never pays the `O(m·n)` dense fill, and the two views
/// always describe the same matrix.
#[derive(Debug, Clone)]
pub struct LpProblem {
    sparse_a: SparseMatrix,
    dense_a: WriteOnce<Matrix>,
    b: Vec<f64>,
    c: Vec<f64>,
}

/// Problems are equal when their CSR matrices, `b` and `c` are; whether
/// the dense view has been built does not matter.
impl PartialEq for LpProblem {
    fn eq(&self, other: &Self) -> bool {
        self.sparse_a == other.sparse_a && self.b == other.b && self.c == other.c
    }
}

impl LpProblem {
    /// Builds a canonical-form problem from a dense constraint matrix. The
    /// CSR matrix is extracted here and `a` is kept as the dense view.
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
        Self::from_parts(sparse_a, WriteOnce::filled(a), b, c)
    }

    /// Builds a canonical-form problem CSR-first: the parser, domain
    /// generators and equilibration hand over the sparse matrix they
    /// assembled, and the dense view stays unbuilt until [`a`](Self::a) is
    /// called.
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
        Self::from_parts(sparse_a, WriteOnce::new(), b, c)
    }

    fn from_parts(
        sparse_a: SparseMatrix,
        dense_a: WriteOnce<Matrix>,
        b: Vec<f64>,
        c: Vec<f64>,
    ) -> Result<Self, LpError> {
        if b.len() != sparse_a.rows() {
            return Err(LpError::ShapeMismatch {
                expected: format!("b of length {}", sparse_a.rows()),
                found: format!("length {}", b.len()),
            });
        }
        if c.len() != sparse_a.cols() {
            return Err(LpError::ShapeMismatch {
                expected: format!("c of length {}", sparse_a.cols()),
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
        Ok(LpProblem {
            sparse_a,
            dense_a,
            b,
            c,
        })
    }

    /// Constraint matrix `A` (m×n), dense view. Built from the CSR matrix
    /// on the first call (an `O(m·n)` fill) unless the problem was
    /// constructed from a dense matrix; later calls return the same view.
    pub fn a(&self) -> &Matrix {
        self.dense_a.get_or_init(|| self.sparse_a.to_dense())
    }

    /// Constraint matrix `A` (m×n), CSR view — the stored matrix, the same
    /// one [`a`](Self::a) shows densely.
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
        self.sparse_a.rows()
    }

    /// Number of variables `n`.
    pub fn num_vars(&self) -> usize {
        self.sparse_a.cols()
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
        let ax = self.a().matvec(x);
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
        let ax = self.a().matvec(x);
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
        let ax = self.a().matvec(x);
        ax.iter().zip(&self.b).all(|(l, r)| *l <= r + slack)
    }

    /// The symmetric dual, itself in canonical max form:
    /// the dual of `max cᵀx, Ax ⪯ b, x ⪰ 0` is `min bᵀy, Aᵀy ⪰ c, y ⪰ 0`,
    /// which canonicalizes to `max (−b)ᵀy, (−Aᵀ)y ⪯ −c, y ⪰ 0`.
    pub fn dual(&self) -> LpProblem {
        let mut sat = self.sparse_a.transpose();
        for v in sat.values_mut() {
            *v = -*v;
        }
        let neg_c: Vec<f64> = self.c.iter().map(|v| -v).collect();
        let neg_b: Vec<f64> = self.b.iter().map(|v| -v).collect();
        LpProblem {
            sparse_a: sat,
            dense_a: WriteOnce::new(),
            b: neg_c,
            c: neg_b,
        }
    }

    /// Largest absolute coefficient across `A`, `b`, `c` — the dynamic range
    /// the crossbar must represent.
    pub fn max_abs_coefficient(&self) -> f64 {
        self.sparse_a
            .values()
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
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

    /// The dense view once built, bit for bit against the CSR matrix.
    fn assert_view_matches_csr(lp: &LpProblem) {
        let view: Vec<u64> = lp.a().as_slice().iter().map(|v| v.to_bits()).collect();
        let dense = lp.sparse_a().to_dense();
        let csr: Vec<u64> = dense.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(view, csr);
        assert!(lp.dense_a.get().is_some());
    }

    #[test]
    fn csr_first_constructors_leave_the_dense_view_unbuilt() {
        let parsed =
            crate::format::parse("max: 3x - y;\nc0: x + 2y - x <= 4;\nc1: y >= -1;").unwrap();
        let sparse = LpProblem::from_sparse(
            SparseMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (1, 2, -2.0)]).unwrap(),
            vec![1.0, 1.0],
            vec![1.0, 0.0, 0.0],
        )
        .unwrap();
        let dual = sample().dual();
        let (scaled, _) = crate::equilibrate(&sample()).unwrap();
        for lp in [&parsed, &sparse, &dual, &scaled] {
            // Shape, density, coefficient range, equality, cloning and the
            // text writer all read the CSR matrix.
            let _ = (lp.num_vars(), lp.num_constraints(), lp.density());
            let _ = lp.max_abs_coefficient();
            let _ = crate::format::write(lp);
            assert!(lp == &lp.clone());
            assert!(lp.dense_a.get().is_none());
            assert_view_matches_csr(lp);
        }
        // A clone taken after the fill carries the view along.
        assert!(parsed.clone().dense_a.get().is_some());
    }

    #[test]
    fn dense_constructor_keeps_the_callers_matrix_as_the_view() {
        let lp = sample();
        assert!(lp.dense_a.get().is_some());
        assert_view_matches_csr(&lp);
    }
}
