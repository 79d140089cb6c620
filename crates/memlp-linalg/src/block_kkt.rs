//! The fixed-pattern KKT matrix of Algorithm 1's sparse Newton core.
//!
//! Between interior-point iterations only the diagonal blocks of the
//! Newton system move (§3.2, §3.5 of the paper): the off-diagonal blocks
//! and the pattern are fixed for the whole solve. [`BlockKkt`] assembles
//! that pattern once, remembers where each diagonal value lives, and runs
//! the [`SparseLu`] symbolic analysis once; every iteration then writes
//! `n + m` diagonal values and refactors numerically. Its blocks are the
//! crossbar's *realized* `Ay` and `Ax`, which device variation makes
//! unequal, so the matrix is not symmetric and takes the static-pivot LU;
//! the symmetric normal-equations KKT has its own LDLᵀ
//! ([`crate::SymmetricKkt`]).

use crate::error::{dim_mismatch, LinalgError};
use crate::sparse::SparseMatrix;
use crate::sparse_lu::SparseLu;

/// The KKT matrix `[[diag(p), B], [C, −diag(q)]]` with `B` of shape `n×m`
/// and `C` of shape `m×n`, its diagonal value slots and the reusable
/// symbolic factorization.
///
/// Rows are written in order straight into CSR: row `j < n` is the
/// diagonal followed by `B`'s row `j` shifted right by `n`, and row
/// `n + i` is `C`'s row `i` followed by the diagonal. With canonical
/// blocks (ascending columns, no duplicates, no stored zeros — every
/// [`SparseMatrix`] constructor yields these) the result equals what
/// [`SparseMatrix::from_triplets`] builds from the same entries, with no
/// sort.
///
/// # Example
///
/// ```
/// use memlp_linalg::{BlockKkt, SparseMatrix};
///
/// # fn main() -> Result<(), memlp_linalg::LinalgError> {
/// let a = SparseMatrix::from_triplets(1, 2, &[(0, 0, 1.0), (0, 1, 2.0)])?;
/// let mut kkt = BlockKkt::new(&a.transpose(), &a)?;
/// kkt.refactor(&[1.0, 1.0], &[1.0])?;
/// // [[1, 0, 1], [0, 1, 2], [1, 2, −1]]·x = [2, 3, 2] at x = [1, 1, 1].
/// let x = kkt.solve(&[2.0, 3.0, 2.0], 2)?;
/// assert!(x.iter().all(|v| (v - 1.0).abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BlockKkt {
    n: usize,
    k: SparseMatrix,
    /// CSR value slot of diagonal entry `r`, for `r` in `0..n+m`.
    diag_slots: Vec<usize>,
    lu: SparseLu,
}

impl BlockKkt {
    /// Assembles the pattern with `1.0` and `−1.0` as diagonal
    /// placeholders and runs the symbolic analysis.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] unless `C` has the
    /// transposed shape of `B`.
    pub fn new(b: &SparseMatrix, c: &SparseMatrix) -> Result<BlockKkt, LinalgError> {
        let (n, m) = (b.rows(), b.cols());
        if c.rows() != m || c.cols() != n {
            return Err(dim_mismatch(
                format!("{m}x{n} lower block"),
                format!("{}x{}", c.rows(), c.cols()),
            ));
        }
        let dim = n + m;
        let nnz = dim + b.nnz() + c.nnz();
        let mut row_ptr = Vec::with_capacity(dim + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        let mut diag_slots = Vec::with_capacity(dim);
        row_ptr.push(0);
        for j in 0..n {
            diag_slots.push(col_idx.len());
            col_idx.push(j);
            values.push(1.0);
            let span = b.row_ptr()[j]..b.row_ptr()[j + 1];
            col_idx.extend(b.col_idx()[span.clone()].iter().map(|&i| n + i));
            values.extend_from_slice(&b.values()[span]);
            row_ptr.push(col_idx.len());
        }
        for i in 0..m {
            let span = c.row_ptr()[i]..c.row_ptr()[i + 1];
            col_idx.extend_from_slice(&c.col_idx()[span.clone()]);
            values.extend_from_slice(&c.values()[span]);
            diag_slots.push(col_idx.len());
            col_idx.push(n + i);
            values.push(-1.0);
            row_ptr.push(col_idx.len());
        }
        let k = SparseMatrix::from_csr(dim, dim, row_ptr, col_idx, values);
        let lu = SparseLu::analyze(&k)?;
        Ok(BlockKkt {
            n,
            k,
            diag_slots,
            lu,
        })
    }

    /// Writes `diag(p)` and `−diag(q)` into their slots and refactors on
    /// the cached symbolic analysis.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `p` or `q` has the
    /// wrong length, and [`LinalgError::Singular`] when the static pivot
    /// order breaks down (see [`SparseLu::refactor`]).
    pub fn refactor(&mut self, p: &[f64], q: &[f64]) -> Result<(), LinalgError> {
        let m = self.diag_slots.len() - self.n;
        if p.len() != self.n || q.len() != m {
            return Err(dim_mismatch(
                format!("diagonals of lengths {} and {m}", self.n),
                format!("lengths {} and {}", p.len(), q.len()),
            ));
        }
        let (p_slots, q_slots) = self.diag_slots.split_at(self.n);
        let vals = self.k.values_mut();
        for (&slot, &v) in p_slots.iter().zip(p) {
            vals[slot] = v;
        }
        for (&slot, &v) in q_slots.iter().zip(q) {
            vals[slot] = -v;
        }
        self.lu.refactor(&self.k)
    }

    /// Solves with the current factors, then runs up to `rounds` rounds of
    /// iterative refinement against the assembled matrix
    /// ([`SparseLu::refine`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `rhs` does not have
    /// length `n + m`.
    pub fn solve(&self, rhs: &[f64], rounds: usize) -> Result<Vec<f64>, LinalgError> {
        self.lu.refine(&self.k, rhs, rounds)
    }

    /// Multiplies every stored value by `f`: uniform drift of the
    /// off-diagonal blocks. The diagonal is rewritten by the next
    /// [`refactor`](Self::refactor), so scaling it too is harmless.
    pub fn scale(&mut self, f: f64) {
        for v in self.k.values_mut() {
            *v *= f;
        }
    }

    /// The assembled matrix, diagonal as last written.
    pub fn matrix(&self) -> &SparseMatrix {
        &self.k
    }

    /// Floating-point operations of the most recent refactor.
    pub fn flops(&self) -> u64 {
        self.lu.flops()
    }

    /// Stored factor entries, diagonal included.
    pub fn factor_nnz(&self) -> usize {
        self.lu.factor_nnz()
    }
}
