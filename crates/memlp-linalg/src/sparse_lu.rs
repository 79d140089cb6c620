//! Fill-reducing sparse LU with symbolic-analysis reuse.
//!
//! This is the digital workhorse behind the paper's O(N) per-iteration
//! claim: between PDIP iterations only the diagonal `X/Z`-blocks of the
//! Newton system change, so the *pattern* of the Schur-reduced core is
//! fixed for the whole solve. [`SparseLu::analyze`] pays the symbolic cost
//! (fill-reducing ordering + fill pattern) exactly once;
//! [`SparseLu::refactor`] then recomputes the numbers in O(fill) per
//! iteration, and [`SparseLu::solve`] runs the permuted triangular solves.
//!
//! The factorization is **static-pivot** (no numerical pivoting): the row
//! order chosen by the symbolic phase is the pivot order. That is the
//! standard interior-point trade — the target system, Algorithm 1's
//! realized Newton core `[[diag(d2), Ay], [Ax, −diag(d1)]]` (unsymmetric
//! under device variation), has non-zero diagonals of fixed sign pattern,
//! for which a no-pivot LU on a symmetrized fill pattern is well defined.
//! The symmetric normal-equations KKT takes the cheaper LDLᵀ instead
//! ([`SymmetricKkt`](crate::SymmetricKkt)). Numerical breakdown
//! (tiny/non-finite pivot) is reported as [`LinalgError::Singular`] so
//! callers can fall back to the dense partial-pivot path, and
//! [`SparseLu::refine`] polishes solutions against the exact matrix to
//! recover digits the static pivoting left behind.
//!
//! Ordering and fill pattern come from the symbolic analysis shared with
//! the LDLᵀ factorization (`crate::symbolic`), run on the symmetrized
//! pattern `A + Aᵀ`: greedy minimum degree, then one elimination-tree
//! pass. Row `j` of `U` has the pattern of column `j` of `L`.

use crate::error::{dim_mismatch, LinalgError};
use crate::sparse::SparseMatrix;
use crate::symbolic::{self, symmetrized_pattern, transpose_pattern, Symbolic};

/// Pivots whose magnitude falls at (or below) this floor abort the numeric
/// factorization: the static pivot order has broken down and the caller
/// should fall back to dense partial pivoting. The floor sits just above
/// the subnormal range — legitimate interior-point pivots spanning many
/// orders of magnitude still pass, while exact zeros, cancellation down to
/// noise, and NaN (which fails the `>` comparison) do not.
pub(crate) const PIVOT_FLOOR: f64 = 1e-292;

/// Sparse LU factors `P·A·Pᵀ = L·U` with a fill-reducing symmetric
/// permutation `P`, reusable symbolic analysis, and per-refactor flop
/// accounting.
///
/// `L` is unit lower triangular (unit diagonal implicit), `U` upper
/// triangular with its diagonal stored separately. Both factors share the
/// symmetrized fill pattern, so the symbolic phase runs once per pattern
/// and every subsequent [`refactor`](Self::refactor) is pure numerics.
///
/// # Example
///
/// ```
/// use memlp_linalg::{SparseLu, SparseMatrix};
///
/// let a = SparseMatrix::from_triplets(
///     3,
///     3,
///     &[(0, 0, 4.0), (0, 2, 1.0), (1, 1, 3.0), (2, 0, 1.0), (2, 2, 2.0)],
/// )
/// .unwrap();
/// let mut lu = SparseLu::factor(&a).unwrap();
/// let x = lu.solve(&[6.0, 3.0, 5.0]).unwrap();
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// assert!((x[2] - 2.0).abs() < 1e-12);
///
/// // Same pattern, new numbers: symbolic analysis is reused.
/// let mut vals = a.clone();
/// vals.values_mut()[0] = 8.0;
/// lu.refactor(&vals).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// `perm[new] = old`: pivot order chosen by the symbolic phase.
    pub(crate) perm: Vec<usize>,
    /// `iperm[old] = new`.
    iperm: Vec<usize>,
    /// Strictly-lower pattern of the permuted factors, CSR by row,
    /// ascending columns.
    l_ptr: Vec<usize>,
    l_idx: Vec<usize>,
    /// Strictly-upper pattern, CSR by row, ascending columns.
    u_ptr: Vec<usize>,
    u_idx: Vec<usize>,
    l_val: Vec<f64>,
    u_val: Vec<f64>,
    /// Diagonal of `U` (the pivots).
    diag: Vec<f64>,
    /// Scatter workspace (dense accumulator + per-row epoch marks).
    work: Vec<f64>,
    mark: Vec<usize>,
    flops: u64,
}

impl SparseLu {
    /// Runs the symbolic phase only: fill-reducing ordering plus fill
    /// pattern of the factors. Numeric values are zeroed; call
    /// [`refactor`](Self::refactor) to populate them.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `a` is not square.
    pub fn analyze(a: &SparseMatrix) -> Result<SparseLu, LinalgError> {
        if a.rows() != a.cols() {
            return Err(dim_mismatch(
                "square matrix",
                format!("{}x{}", a.rows(), a.cols()),
            ));
        }
        let n = a.rows();
        let (sym_ptr, sym_idx) = symmetrized_pattern(a);
        let Symbolic {
            perm,
            iperm,
            col_ptr: u_ptr,
            col_idx: u_idx,
            ..
        } = symbolic::analyze(&sym_ptr, &sym_idx, |p| p);
        let (l_ptr, l_idx, _) = transpose_pattern(n, &u_ptr, &u_idx);

        Ok(SparseLu {
            n,
            perm,
            iperm,
            l_val: vec![0.0; l_idx.len()],
            u_val: vec![0.0; u_idx.len()],
            l_ptr,
            l_idx,
            u_ptr,
            u_idx,
            diag: vec![0.0; n],
            work: vec![0.0; n],
            mark: vec![usize::MAX; n],
            flops: 0,
        })
    }

    /// Symbolic analysis plus a first numeric factorization.
    ///
    /// # Errors
    ///
    /// As [`analyze`](Self::analyze) and [`refactor`](Self::refactor).
    pub fn factor(a: &SparseMatrix) -> Result<SparseLu, LinalgError> {
        let mut lu = SparseLu::analyze(a)?;
        lu.refactor(a)?;
        Ok(lu)
    }

    /// Recomputes the numeric factors for a matrix whose pattern is covered
    /// by the analyzed pattern — the per-iteration fast path. Row-wise
    /// up-looking elimination over the precomputed fill pattern; cost is
    /// O(Σ |U row| per L entry), counted into [`flops`](Self::flops).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `a` has a different
    /// shape or a stored entry outside the analyzed pattern, and
    /// [`LinalgError::Singular`] (reported in *original* indices) when a
    /// pivot is non-finite or indistinguishable from zero — the caller's
    /// cue to fall back to dense partial pivoting.
    pub fn refactor(&mut self, a: &SparseMatrix) -> Result<(), LinalgError> {
        if a.rows() != self.n || a.cols() != self.n {
            return Err(dim_mismatch(
                format!("{0}x{0} matrix", self.n),
                format!("{}x{}", a.rows(), a.cols()),
            ));
        }
        let mut flops = 0u64;
        for k in 0..self.n {
            // Mark + zero this row's pattern in the dense accumulator.
            for &j in &self.l_idx[self.l_ptr[k]..self.l_ptr[k + 1]] {
                self.work[j] = 0.0;
                self.mark[j] = k;
            }
            self.work[k] = 0.0;
            self.mark[k] = k;
            for &c in &self.u_idx[self.u_ptr[k]..self.u_ptr[k + 1]] {
                self.work[c] = 0.0;
                self.mark[c] = k;
            }
            // Scatter row perm[k] of the input into permuted coordinates.
            let oi = self.perm[k];
            let (row_ptr, col_idx, values) = (a.row_ptr(), a.col_idx(), a.values());
            for p in row_ptr[oi]..row_ptr[oi + 1] {
                let c = self.iperm[col_idx[p]];
                if self.mark[c] != k {
                    return Err(dim_mismatch(
                        "matrix matching the analyzed sparsity pattern",
                        format!("entry ({}, {}) outside the pattern", oi, col_idx[p]),
                    ));
                }
                self.work[c] += values[p];
            }
            // Eliminate: for each lower entry (ascending), divide by the
            // pivot and subtract that multiple of U's row j.
            for s in self.l_ptr[k]..self.l_ptr[k + 1] {
                let j = self.l_idx[s];
                let lkj = self.work[j] / self.diag[j];
                self.l_val[s] = lkj;
                let span = self.u_ptr[j]..self.u_ptr[j + 1];
                flops += 1 + 2 * span.len() as u64;
                for p in span {
                    self.work[self.u_idx[p]] -= lkj * self.u_val[p];
                }
            }
            let piv = self.work[k];
            // Deliberately `!(.. > ..)` rather than `<=`: a NaN pivot must
            // also take the singular path instead of poisoning the factor.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(piv.abs() > PIVOT_FLOOR) {
                return Err(LinalgError::Singular {
                    column: self.perm[k],
                });
            }
            self.diag[k] = piv;
            for p in self.u_ptr[k]..self.u_ptr[k + 1] {
                self.u_val[p] = self.work[self.u_idx[p]];
            }
        }
        self.flops = flops;
        Ok(())
    }

    /// Solves `A·x = b` with the current factors (permute, forward, back,
    /// unpermute).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on length mismatch.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.n {
            return Err(dim_mismatch(
                format!("vector of length {}", self.n),
                format!("length {}", b.len()),
            ));
        }
        let mut y = vec![0.0; self.n];
        for k in 0..self.n {
            let mut s = b[self.perm[k]];
            for p in self.l_ptr[k]..self.l_ptr[k + 1] {
                s -= self.l_val[p] * y[self.l_idx[p]];
            }
            y[k] = s;
        }
        for k in (0..self.n).rev() {
            let mut s = y[k];
            for p in self.u_ptr[k]..self.u_ptr[k + 1] {
                s -= self.u_val[p] * y[self.u_idx[p]];
            }
            y[k] = s / self.diag[k];
        }
        let mut x = vec![0.0; self.n];
        for k in 0..self.n {
            x[self.perm[k]] = y[k];
        }
        Ok(x)
    }

    /// Solves `A·x = b` and polishes with up to `rounds` rounds of
    /// iterative refinement against the exact matrix `a`: each round
    /// solves `A·δ = b − A·x` with these factors and sets `x ← x + δ`,
    /// keeping only strict residual improvements.
    ///
    /// # Errors
    ///
    /// As [`solve`](Self::solve), plus a shape check on `a`.
    pub fn refine(
        &self,
        a: &SparseMatrix,
        b: &[f64],
        rounds: usize,
    ) -> Result<Vec<f64>, LinalgError> {
        if a.rows() != self.n || a.cols() != self.n {
            return Err(dim_mismatch(
                format!("{0}x{0} matrix", self.n),
                format!("{}x{}", a.rows(), a.cols()),
            ));
        }
        let mut x = self.solve(b)?;
        // The accepted iterate's residual doubles as the next round's
        // right-hand side: one product with `a` per round.
        let (mut r, mut residual) = residual_of(a, &x, b);
        for _ in 0..rounds {
            if residual == 0.0 {
                break;
            }
            let delta = self.solve(&r)?;
            let candidate: Vec<f64> = x.iter().zip(&delta).map(|(xi, di)| xi + di).collect();
            let (cand_r, cand_residual) = residual_of(a, &candidate, b);
            if !cand_residual.is_finite() || cand_residual >= residual {
                break;
            }
            x = candidate;
            r = cand_r;
            residual = cand_residual;
        }
        Ok(x)
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Floating-point operations spent by the most recent
    /// [`refactor`](Self::refactor).
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Stored entries across both factors, diagonal included — the `|L|+|U|`
    /// fill the symbolic phase committed to.
    pub fn factor_nnz(&self) -> usize {
        self.l_idx.len() + self.u_idx.len() + self.n
    }
}

/// `b − a·x` and its ∞-norm.
fn residual_of(a: &SparseMatrix, x: &[f64], b: &[f64]) -> (Vec<f64>, f64) {
    let ax = a.matvec(x);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
    let norm = r.iter().map(|ri| ri.abs()).fold(0.0, f64::max);
    (r, norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::LuFactors;
    use crate::symbolic::tests::{arrow, quasidefinite_kkt};

    #[test]
    fn factors_and_solves_small_system() {
        let a = SparseMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 4.0),
                (0, 2, 1.0),
                (1, 1, 3.0),
                (2, 0, 1.0),
                (2, 2, 2.0),
            ],
        )
        .unwrap();
        let lu = SparseLu::factor(&a).unwrap();
        let xtrue = vec![1.0, -2.0, 3.0];
        let b = a.matvec(&xtrue);
        let x = lu.solve(&b).unwrap();
        for (got, want) in x.iter().zip(&xtrue) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn agrees_with_dense_lu_on_quasidefinite_kkt() {
        for seed in 1..5 {
            let a = quasidefinite_kkt(9, 14, seed);
            let dense = a.to_dense();
            let lu = SparseLu::factor(&a).unwrap();
            let xtrue: Vec<f64> = (0..a.rows()).map(|i| (i as f64) * 0.3 - 2.0).collect();
            let b = a.matvec(&xtrue);
            let x = lu.refine(&a, &b, 2).unwrap();
            let xd = LuFactors::factor(dense).unwrap().solve(&b).unwrap();
            for ((s, d), t) in x.iter().zip(&xd).zip(&xtrue) {
                assert!((s - t).abs() < 1e-9, "seed {seed}: {s} vs true {t}");
                assert!((s - d).abs() < 1e-8, "seed {seed}: {s} vs dense {d}");
            }
        }
    }

    #[test]
    fn refine_matches_recomputing_loop_bitwise() {
        // Reference: the same loop, recomputing `b − a·x` at the top of
        // every round.
        fn recomputing(lu: &SparseLu, a: &SparseMatrix, b: &[f64], rounds: usize) -> Vec<f64> {
            let residual_inf = |x: &[f64]| {
                let ax = a.matvec(x);
                b.iter()
                    .zip(&ax)
                    .map(|(bi, ai)| (bi - ai).abs())
                    .fold(0.0, f64::max)
            };
            let mut x = lu.solve(b).unwrap();
            let mut residual = residual_inf(&x);
            for _ in 0..rounds {
                if residual == 0.0 {
                    break;
                }
                let ax = a.matvec(&x);
                let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
                let delta = lu.solve(&r).unwrap();
                let candidate: Vec<f64> = x.iter().zip(&delta).map(|(xi, di)| xi + di).collect();
                let cand_residual = residual_inf(&candidate);
                if !cand_residual.is_finite() || cand_residual >= residual {
                    break;
                }
                x = candidate;
                residual = cand_residual;
            }
            x
        }

        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        for seed in 1..5 {
            let a = quasidefinite_kkt(9, 14, seed);
            // Factors of a perturbed matrix make every round do real work.
            let mut perturbed = a.clone();
            for v in perturbed.values_mut() {
                *v *= 1.0 + 1e-4;
            }
            let b: Vec<f64> = (0..a.rows()).map(|i| (i as f64).sin() + 0.5).collect();
            for lu in [
                SparseLu::factor(&a).unwrap(),
                SparseLu::factor(&perturbed).unwrap(),
            ] {
                for rounds in 0..4 {
                    assert_eq!(
                        bits(&lu.refine(&a, &b, rounds).unwrap()),
                        bits(&recomputing(&lu, &a, &b, rounds)),
                        "seed {seed}, {rounds} rounds"
                    );
                }
            }
        }
    }

    #[test]
    fn refactor_reuses_symbolic_analysis() {
        let a = quasidefinite_kkt(6, 10, 7);
        let mut lu = SparseLu::factor(&a).unwrap();
        let first_nnz = lu.factor_nnz();
        let first_flops = lu.flops();
        assert!(first_flops > 0);

        // Same pattern, scaled values (the PDIP diagonal-update scenario).
        let mut b = a.clone();
        for v in b.values_mut() {
            *v *= 1.75;
        }
        lu.refactor(&b).unwrap();
        assert_eq!(lu.factor_nnz(), first_nnz);
        assert_eq!(lu.flops(), first_flops);
        let xtrue: Vec<f64> = (0..a.rows()).map(|i| 1.0 + i as f64).collect();
        let rhs = b.matvec(&xtrue);
        let x = lu.refine(&b, &rhs, 2).unwrap();
        for (got, want) in x.iter().zip(&xtrue) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn refactor_rejects_pattern_escapes() {
        let a = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap();
        let mut lu = SparseLu::factor(&a).unwrap();
        let widened =
            SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 1, 1.0)]).unwrap();
        assert!(lu.refactor(&widened).is_err());
        let wrong_shape = SparseMatrix::from_triplets(3, 3, &[(0, 0, 1.0)]).unwrap();
        assert!(lu.refactor(&wrong_shape).is_err());
    }

    #[test]
    fn reports_singular_in_original_indices() {
        let a =
            SparseMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]).unwrap();
        // Rows 1 and 2 have no usable static pivot (zero diagonal that no
        // fill repairs on this pattern).
        match SparseLu::factor(&a) {
            Err(LinalgError::Singular { column }) => assert!(column < 3),
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn ordering_limits_fill_on_arrow_matrix() {
        // Arrow pointing the wrong way: natural order fills completely,
        // min-degree keeps the factors linear in n.
        let n = 40;
        let a = arrow(n);
        let lu = SparseLu::factor(&a).unwrap();
        assert!(
            lu.factor_nnz() <= 5 * n,
            "fill {} should stay O(n)",
            lu.factor_nnz()
        );
        let xtrue: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let x = lu.solve(&a.matvec(&xtrue)).unwrap();
        for (got, want) in x.iter().zip(&xtrue) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_rectangular_and_bad_rhs() {
        let rect = SparseMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]).unwrap();
        assert!(SparseLu::analyze(&rect).is_err());
        let a = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap();
        let lu = SparseLu::factor(&a).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
        assert!(lu.refine(&rect, &[1.0, 1.0], 1).is_err());
    }
}
