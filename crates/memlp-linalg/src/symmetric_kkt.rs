//! The symmetric quasi-definite KKT matrix of the normal-equations PDIP.
//!
//! Between interior-point iterations only the diagonal blocks of the
//! Newton system move (§3.2, §3.5 of the paper). [`SymmetricKkt`] keeps
//! `A`'s CSR and nothing else of the matrix: the lower triangle of
//! `[[diag(p), Aᵀ], [A, −diag(q)]]` is `A` plus the two diagonals, so the
//! sparse LDLᵀ reads `A`'s values in place and the refinement residual is
//! two CSR products. The symbolic analysis (the same minimum-degree order
//! [`crate::SparseLu`] computes on this pattern) runs once per solve.

use crate::error::{dim_mismatch, LinalgError};
use crate::ops;
use crate::sparse::SparseMatrix;
use crate::sparse_ldl::SparseLdl;
use crate::symbolic::transpose_pattern;

/// Most refinement rounds one [`SymmetricKkt::solve`] runs.
const MAX_ROUNDS: usize = 2;

/// The shift of [`SymmetricKkt::refactor_shifted`], relative to `‖K‖∞`.
const SHIFT: f64 = 1e-12;

/// Refinement stops once `‖r‖∞ ≤ BACKWARD_ERROR_ULPS·ε·(‖K‖∞‖x‖∞ + ‖b‖∞)`:
/// the computed `x` then solves a system within a few roundings of `K`,
/// and another round cannot be told from noise.
const BACKWARD_ERROR_ULPS: f64 = 4.0;

/// `K = [[diag(p), Aᵀ], [A, −diag(q)]]` for a fixed `m×n` matrix `A`,
/// with its LDLᵀ factors and refinement workspaces.
///
/// [`refactor`](Self::refactor) takes new diagonals and factors;
/// [`solve`](Self::solve) solves and refines against `K` until the
/// normwise backward error reaches `4ε` or two rounds have run, keeping
/// only rounds that strictly shrink the residual. When `K` has lost
/// definiteness, [`refactor_shifted`](Self::refactor_shifted) factors a
/// nearby quasi-definite matrix instead, and refinement still runs
/// against `K`.
///
/// # Example
///
/// ```
/// use memlp_linalg::{SparseMatrix, SymmetricKkt};
///
/// # fn main() -> Result<(), memlp_linalg::LinalgError> {
/// let a = SparseMatrix::from_triplets(1, 2, &[(0, 0, 1.0), (0, 1, 2.0)])?;
/// let mut kkt = SymmetricKkt::new(&a);
/// kkt.refactor(&[1.0, 1.0], &[1.0])?;
/// // [[1, 0, 1], [0, 1, 2], [1, 2, −1]]·x = [2, 3, 2] at x = [1, 1, 1].
/// let x = kkt.solve(&[2.0, 3.0, 2.0])?;
/// assert!(x.iter().all(|v| (v - 1.0).abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricKkt {
    a: SparseMatrix,
    /// `Σ_i |A[i][j]|` per column and `Σ_j |A[i][j]|` per row: the
    /// off-diagonal part of `K`'s row sums.
    col_abs: Vec<f64>,
    row_abs: Vec<f64>,
    /// `[p; −q]`, the diagonal of `K` as last written.
    diag: Vec<f64>,
    /// `‖K‖∞` of the current diagonal.
    k_norm: f64,
    ldl: SparseLdl,
    /// Refinement workspaces: residual, candidate residual, candidate.
    r: Vec<f64>,
    r_cand: Vec<f64>,
    cand: Vec<f64>,
    rounds: usize,
}

impl SymmetricKkt {
    /// Runs the symbolic analysis on the pattern of `a` (`m×n`); the
    /// diagonals are set by [`refactor`](Self::refactor).
    pub fn new(a: &SparseMatrix) -> SymmetricKkt {
        let (m, n) = (a.rows(), a.cols());
        let (a_ptr, a_idx) = (a.row_ptr(), a.col_idx());
        let (t_ptr, t_idx, t_slot) = transpose_pattern(n, a_ptr, a_idx);
        // Off-diagonal pattern of K: row j < n is Aᵀ's row j shifted right
        // by n, row n + i is A's row i. Both are sorted, as the ordering
        // needs, and each entry's value is A's at `src`.
        let mut ptr = Vec::with_capacity(n + m + 1);
        let mut idx = Vec::with_capacity(2 * a_idx.len());
        let mut src = Vec::with_capacity(2 * a_idx.len());
        ptr.push(0);
        for j in 0..n {
            idx.extend(t_idx[t_ptr[j]..t_ptr[j + 1]].iter().map(|&i| n + i));
            src.extend_from_slice(&t_slot[t_ptr[j]..t_ptr[j + 1]]);
            ptr.push(idx.len());
        }
        for i in 0..m {
            idx.extend_from_slice(&a_idx[a_ptr[i]..a_ptr[i + 1]]);
            src.extend(a_ptr[i]..a_ptr[i + 1]);
            ptr.push(idx.len());
        }
        let mut col_abs = vec![0.0; n];
        let mut row_abs = vec![0.0; m];
        for (i, j, v) in a.iter() {
            col_abs[j] += v.abs();
            row_abs[i] += v.abs();
        }
        let dim = n + m;
        SymmetricKkt {
            a: a.clone(),
            col_abs,
            row_abs,
            diag: vec![0.0; dim],
            k_norm: 0.0,
            ldl: SparseLdl::analyze(&ptr, &idx, &src),
            r: vec![0.0; dim],
            r_cand: vec![0.0; dim],
            cand: vec![0.0; dim],
            rounds: 0,
        }
    }

    /// Sets `diag(p)` and `−diag(q)` and refactors on the cached symbolic
    /// analysis.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `p` or `q` has the
    /// wrong length, and [`LinalgError::Singular`] (in KKT indices) when a
    /// pivot is zero or non-finite — e.g. a zero `p_j` on an empty column
    /// of `A`, or cancellation that exact arithmetic would not show.
    pub fn refactor(&mut self, p: &[f64], q: &[f64]) -> Result<(), LinalgError> {
        let (m, n) = (self.a.rows(), self.a.cols());
        if p.len() != n || q.len() != m {
            return Err(dim_mismatch(
                format!("diagonals of lengths {n} and {m}"),
                format!("lengths {} and {}", p.len(), q.len()),
            ));
        }
        let (top, bottom) = self.diag.split_at_mut(n);
        let mut k_norm = 0.0f64;
        for ((d, &v), s) in top.iter_mut().zip(p).zip(&self.col_abs) {
            *d = v;
            k_norm = k_norm.max(v.abs() + s);
        }
        for ((d, &v), s) in bottom.iter_mut().zip(q).zip(&self.row_abs) {
            *d = -v;
            k_norm = k_norm.max(v.abs() + s);
        }
        self.k_norm = k_norm;
        self.ldl.refactor(self.a.values(), &self.diag)
    }

    /// Refactors `K` with its diagonal shifted to `[p + δ; −(q + δ)]`,
    /// `δ = 1e-12·‖K‖∞`, for the diagonals of the latest
    /// [`refactor`](Self::refactor). The shift restores the quasi-definite
    /// sign pattern that cancellation or a vanishing `p_j` or `q_i` broke
    /// (a row and its negation with `q = 0` make `K` singular).
    /// [`solve`](Self::solve) keeps refining against the unshifted `K`,
    /// which corrects the shift where `K` itself is nonsingular.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Singular`] (in KKT indices) when a pivot of the
    /// shifted matrix is still zero or non-finite.
    pub fn refactor_shifted(&mut self) -> Result<(), LinalgError> {
        let delta = SHIFT * self.k_norm;
        let n = self.a.cols();
        // `cand` is free between solves; it carries the shifted diagonal.
        for (k, (s, &d)) in self.cand.iter_mut().zip(&self.diag).enumerate() {
            *s = if k < n { d + delta } else { d - delta };
        }
        self.ldl.refactor(self.a.values(), &self.cand)
    }

    /// Solves `K·x = rhs` with the current factors and refines: a round
    /// runs while the residual is above the backward-error level, at most
    /// twice, and is kept only if it strictly shrinks `‖rhs − K·x‖∞`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `rhs` does not have
    /// length `n + m`.
    pub fn solve(&mut self, rhs: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = vec![0.0; self.diag.len()];
        self.solve_into(rhs, &mut x)?;
        Ok(x)
    }

    /// [`solve`](Self::solve) into the caller's `x`, allocating nothing.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `rhs` or `x` does not
    /// have length `n + m`.
    pub fn solve_into(&mut self, rhs: &[f64], x: &mut [f64]) -> Result<(), LinalgError> {
        let dim = self.diag.len();
        if rhs.len() != dim || x.len() != dim {
            return Err(dim_mismatch(
                format!("vectors of length {dim}"),
                format!("lengths {} and {}", rhs.len(), x.len()),
            ));
        }
        self.ldl.solve_into(rhs, x);
        let b_norm = ops::inf_norm(rhs);
        let mut residual = kkt_residual(&self.a, &self.diag, rhs, x, &mut self.r);
        self.rounds = 0;
        while self.rounds < MAX_ROUNDS
            && residual
                > BACKWARD_ERROR_ULPS * f64::EPSILON * (self.k_norm * ops::inf_norm(x) + b_norm)
        {
            self.ldl.solve_into(&self.r, &mut self.cand);
            for (c, xi) in self.cand.iter_mut().zip(x.iter()) {
                *c += xi;
            }
            let cand_residual =
                kkt_residual(&self.a, &self.diag, rhs, &self.cand, &mut self.r_cand);
            if !cand_residual.is_finite() || cand_residual >= residual {
                break;
            }
            x.copy_from_slice(&self.cand);
            std::mem::swap(&mut self.r, &mut self.r_cand);
            residual = cand_residual;
            self.rounds += 1;
        }
        Ok(())
    }

    /// Refinement rounds the last [`solve`](Self::solve) kept.
    pub fn refinement_rounds(&self) -> usize {
        self.rounds
    }

    /// Dimension `n + m`.
    pub fn dim(&self) -> usize {
        self.diag.len()
    }

    /// Floating-point operations of one [`refactor`](Self::refactor).
    pub fn flops(&self) -> u64 {
        self.ldl.flops()
    }

    /// Stored factor entries: `|L|` plus the diagonal `D`.
    pub fn factor_nnz(&self) -> usize {
        self.ldl.factor_nnz()
    }
}

/// `r = rhs − K·x` for the KKT with diagonal `diag` and off-diagonal
/// blocks `A`, `Aᵀ`, and `‖r‖∞`: `K·x = [p∘x₁ + Aᵀx₂; A·x₁ − q∘x₂]` from
/// `A`'s CSR.
fn kkt_residual(a: &SparseMatrix, diag: &[f64], rhs: &[f64], x: &[f64], r: &mut [f64]) -> f64 {
    let (x1, x2) = x.split_at(a.cols());
    let (r1, r2) = r.split_at_mut(a.cols());
    a.matvec_transposed_into(x2, r1);
    a.matvec_into(x1, r2);
    for (((ri, &bi), &xi), &di) in r.iter_mut().zip(rhs).zip(x).zip(diag) {
        *ri = bi - (di * xi + *ri);
    }
    ops::inf_norm(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::tests::quasidefinite_kkt;

    /// `A` and the diagonals `p`, `q` of a random quasi-definite KKT.
    fn blocks(m: usize, n: usize, seed: u64) -> (SparseMatrix, Vec<f64>, Vec<f64>) {
        let k = quasidefinite_kkt(m, n, seed);
        let mut trips = Vec::new();
        let (mut p, mut q) = (vec![0.0; n], vec![0.0; m]);
        for (i, j, v) in k.iter() {
            match (i < n, j < n) {
                (true, true) => p[i] = v,
                (false, false) => q[i - n] = -v,
                (false, true) => trips.push((i - n, j, v)),
                (true, false) => {}
            }
        }
        (SparseMatrix::from_triplets(m, n, &trips).unwrap(), p, q)
    }

    /// The stop rule replayed by a loop that recomputes `b − K·x` at the
    /// top of every round: stop at the bound or after two kept rounds,
    /// keep a round only if it strictly shrinks the residual.
    fn replayed(kkt: &mut SymmetricKkt, b: &[f64]) -> (Vec<f64>, usize) {
        let dim = kkt.dim();
        let mut x = vec![0.0; dim];
        kkt.ldl.solve_into(b, &mut x);
        let (mut r, mut rounds) = (vec![0.0; dim], 0);
        loop {
            let residual = kkt_residual(&kkt.a, &kkt.diag, b, &x, &mut r);
            let bound = 4.0 * f64::EPSILON * (kkt.k_norm * ops::inf_norm(&x) + ops::inf_norm(b));
            if rounds == 2 || residual <= bound {
                break;
            }
            let mut delta = vec![0.0; dim];
            kkt.ldl.solve_into(&r, &mut delta);
            let candidate: Vec<f64> = x.iter().zip(&delta).map(|(a, d)| a + d).collect();
            let cand_residual = kkt_residual(&kkt.a, &kkt.diag, b, &candidate, &mut r);
            if !(cand_residual.is_finite() && cand_residual < residual) {
                break;
            }
            x = candidate;
            rounds += 1;
        }
        (x, rounds)
    }

    #[test]
    fn solve_follows_the_stop_rule_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        let mut seen = [false; MAX_ROUNDS + 1];
        for seed in 1..8 {
            let (a, p, q) = blocks(9, 14, seed);
            let b: Vec<f64> = (0..a.rows() + a.cols())
                .map(|i| (i as f64).sin() + 0.5)
                .collect();
            // Residuals against a perturbed diagonal make the rounds do
            // real work; the larger the perturbation, the more they run,
            // until at 3.0 a round makes the residual worse.
            for eps in [0.0, 1e-12, 1e-9, 1e-3, 3.0] {
                let mut kkt = SymmetricKkt::new(&a);
                kkt.refactor(&p, &q).unwrap();
                for d in &mut kkt.diag {
                    *d *= 1.0 + eps;
                }
                let got = kkt.solve(&b).unwrap();
                let rounds = kkt.refinement_rounds();
                let mut into = vec![f64::NAN; kkt.dim()];
                kkt.solve_into(&b, &mut into).unwrap();
                assert_eq!(
                    bits(&into),
                    bits(&got),
                    "seed {seed}, eps {eps}: solve_into"
                );
                assert_eq!(kkt.refinement_rounds(), rounds, "seed {seed}, eps {eps}");
                let (want, want_rounds) = replayed(&mut kkt, &b);
                assert_eq!(bits(&got), bits(&want), "seed {seed}, eps {eps}");
                assert_eq!(rounds, want_rounds, "seed {seed}, eps {eps}");
                seen[rounds] = true;
            }
        }
        assert_eq!(seen, [true; MAX_ROUNDS + 1], "rounds 0, 1 and 2 all ran");
    }

    #[test]
    fn shifted_refactor_solves_a_row_and_its_negation() {
        // A = [a; −a] with q = 0: the lower block is singular and so is K,
        // whose null space is (0, 1, 1). A consistent right-hand side still
        // has solutions; the shifted factors must reach one by refining
        // against the unshifted K.
        let a = SparseMatrix::from_triplets(
            2,
            3,
            &[
                (0, 0, 1.0),
                (0, 1, 2.0),
                (0, 2, 0.5),
                (1, 0, -1.0),
                (1, 1, -2.0),
                (1, 2, -0.5),
            ],
        )
        .unwrap();
        let (p, q) = ([1.0, 3.0, 0.25], [0.0, 0.0]);
        let mut kkt = SymmetricKkt::new(&a);
        assert!(matches!(
            kkt.refactor(&p, &q),
            Err(LinalgError::Singular { .. })
        ));
        kkt.refactor_shifted().unwrap();
        // K by rows, dense, to check the answer without the refinement's
        // own residual.
        let k = [
            [1.0, 0.0, 0.0, 1.0, -1.0],
            [0.0, 3.0, 0.0, 2.0, -2.0],
            [0.0, 0.0, 0.25, 0.5, -0.5],
            [1.0, 2.0, 0.5, 0.0, 0.0],
            [-1.0, -2.0, -0.5, 0.0, 0.0],
        ];
        let want = [0.5, -1.0, 2.0, 3.0, 1.5];
        let b: Vec<f64> = k
            .iter()
            .map(|row| row.iter().zip(&want).map(|(k, x)| k * x).sum())
            .collect();
        let x = kkt.solve(&b).unwrap();
        let residual = k
            .iter()
            .zip(&b)
            .map(|(row, bi)| (bi - row.iter().zip(&x).map(|(k, x)| k * x).sum::<f64>()).abs())
            .fold(0.0, f64::max);
        let bound = BACKWARD_ERROR_ULPS
            * f64::EPSILON
            * (kkt.k_norm * ops::inf_norm(&x) + ops::inf_norm(&b));
        assert!(
            residual <= bound || kkt.refinement_rounds() == MAX_ROUNDS,
            "residual {residual:e} over {bound:e} after {} rounds",
            kkt.refinement_rounds()
        );
        // The shift alone leaves a residual of δ·‖x‖∞ ≈ 1e-11; refining
        // against K takes it well below.
        assert!(residual < 1e-14, "residual {residual:e}");
        // x solves K·x = b up to the null space: its x block is unique.
        for (got, want) in x[..3].iter().zip(&want) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn solve_into_checks_both_lengths() {
        let (a, p, q) = blocks(3, 4, 1);
        let mut kkt = SymmetricKkt::new(&a);
        kkt.refactor(&p, &q).unwrap();
        let b = vec![1.0; kkt.dim()];
        assert!(kkt.solve_into(&b, &mut vec![0.0; kkt.dim() - 1]).is_err());
        assert!(kkt.solve_into(&b[1..], &mut vec![0.0; kkt.dim()]).is_err());
    }

    #[test]
    fn same_fill_as_the_lu_on_the_assembled_matrix() {
        use crate::{BlockKkt, SparseLu};
        for seed in 1..6 {
            let (a, p, q) = blocks(7 + seed as usize, 11, seed);
            let mut kkt = SymmetricKkt::new(&a);
            kkt.refactor(&p, &q).unwrap();
            let mut block = BlockKkt::new(&a.transpose(), &a).unwrap();
            block.refactor(&p, &q).unwrap();
            let lu = SparseLu::factor(block.matrix()).unwrap();
            assert_eq!(kkt.ldl.perm, lu.perm, "seed {seed}: one ordering");
            assert_eq!(2 * kkt.factor_nnz() - kkt.dim(), lu.factor_nnz());
            assert!(kkt.flops() < lu.flops(), "seed {seed}");
        }
    }
}
