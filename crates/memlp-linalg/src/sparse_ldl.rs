//! Up-looking sparse LDLᵀ with the symbolic work done once.
//!
//! A symmetric quasi-definite matrix `[[P, Aᵀ], [A, −Q]]` (`P`, `Q`
//! positive diagonal) has an LDLᵀ factorization under *every* symmetric
//! permutation (Vanderbei 1995), so the fill-reducing order of
//! [`crate::symbolic`] is used as it is, with no pivoting. Only `L`
//! (strictly lower, unit diagonal implicit) and `D` are stored: half the
//! entries and fewer flops than the static-pivot LU on the same pattern.
//!
//! [`SparseLdl::analyze`] takes from [`symbolic::analyze`] everything
//! the numeric phase needs:
//! - the input's strictly-lower entries per permuted row, each with its
//!   position in the caller's value array;
//! - `L` by column (rows ascending), the storage the values live in;
//! - `L` by row in the topological order a tree-walking LDLᵀ reaches it
//!   (each input entry's path up the elimination tree), each entry with
//!   its slot in the column storage.
//!
//! [`SparseLdl::refactor`] then walks no tree, marks nothing and checks no
//! pattern. Row `k` scatters its input entries into a dense accumulator
//! and, for each entry `i` of its `L` row in order, reads the finished
//! `y[i]`, updates the rows below `i` that column `i` holds so far (the
//! column's slots before row `k`'s), and writes `L[k][i] = y[i]/D[i]`.
//! The forward solve runs over rows through the slot map; the back solve
//! runs over columns.

use crate::error::LinalgError;
use crate::sparse_lu::PIVOT_FLOOR;
use crate::symbolic::{self, Symbolic};

/// LDLᵀ factors `P·K·Pᵀ = L·D·Lᵀ` of a symmetric matrix whose pattern is
/// fixed at [`analyze`](Self::analyze).
#[derive(Debug, Clone)]
pub(crate) struct SparseLdl {
    /// `perm[new] = old`.
    pub(crate) perm: Vec<usize>,
    /// Strictly-lower input entries of permuted row `k`: permuted column
    /// and position in the value array [`refactor`](Self::refactor) reads.
    in_ptr: Vec<usize>,
    in_col: Vec<usize>,
    in_src: Vec<usize>,
    /// `L` by column, rows ascending; `l_val` follows this layout.
    col_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    /// `L` by row in elimination-tree order, with each entry's slot in
    /// `l_val`.
    row_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    row_slot: Vec<usize>,
    l_val: Vec<f64>,
    d: Vec<f64>,
    /// Dense accumulator of the numeric phase and permuted vector of the
    /// solves; all zero between calls. Row `k`'s scatter and updates touch
    /// only its own `L` pattern (column `i`'s rows above `k` are tree
    /// ancestors of `i` on the path to `k`), and each entry is reset as it
    /// is read, so no call has to clear it.
    work: Vec<f64>,
    flops: u64,
}

impl SparseLdl {
    /// Symbolic analysis of the symmetric off-diagonal pattern `ptr`/`idx`
    /// (CSR, sorted duplicate-free rows, no diagonal). `src[p]` is where
    /// entry `p`'s value sits in the array later passed to
    /// [`refactor`](Self::refactor).
    pub(crate) fn analyze(ptr: &[usize], idx: &[usize], src: &[usize]) -> SparseLdl {
        let Symbolic {
            perm,
            col_ptr,
            col_idx,
            in_ptr,
            in_col,
            in_src,
            row_ptr,
            row_idx,
            row_slot,
            ..
        } = symbolic::analyze(ptr, idx, |p| src[p]);
        let n = perm.len();
        // Entry (k, i) updates the column-`i` entries above row `k`
        // (2 flops each), then forms L[k][i] and updates D[k] (3 flops).
        let flops = row_idx
            .iter()
            .zip(&row_slot)
            .map(|(&i, &slot)| 3 + 2 * (slot - col_ptr[i]) as u64)
            .sum();
        SparseLdl {
            perm,
            in_ptr,
            in_col,
            in_src,
            l_val: vec![0.0; col_idx.len()],
            col_ptr,
            col_idx,
            row_ptr,
            row_idx,
            row_slot,
            d: vec![0.0; n],
            work: vec![0.0; n],
            flops,
        }
    }

    /// Numeric factorization of the matrix with off-diagonal values
    /// `values` (indexed by the analysis' `src`) and diagonal `diag`
    /// (original order).
    ///
    /// # Errors
    ///
    /// [`LinalgError::Singular`] (in original indices) when a pivot is
    /// non-finite or indistinguishable from zero.
    pub(crate) fn refactor(&mut self, values: &[f64], diag: &[f64]) -> Result<(), LinalgError> {
        let y = &mut self.work;
        let l_val = &mut self.l_val;
        for (k, &old) in self.perm.iter().enumerate() {
            let input = self.in_ptr[k]..self.in_ptr[k + 1];
            for (&c, &src) in self.in_col[input.clone()].iter().zip(&self.in_src[input]) {
                y[c] = values[src];
            }
            let mut dk = diag[old];
            let row = self.row_ptr[k]..self.row_ptr[k + 1];
            for (&i, &slot) in self.row_idx[row.clone()].iter().zip(&self.row_slot[row]) {
                let yi = std::mem::take(&mut y[i]);
                let above = self.col_ptr[i]..slot;
                for (&r, &l) in self.col_idx[above.clone()].iter().zip(&l_val[above]) {
                    y[r] -= l * yi;
                }
                let lki = yi / self.d[i];
                dk -= lki * yi;
                l_val[slot] = lki;
            }
            // `!(.. > ..)` so that a NaN pivot takes the singular path too.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(dk.abs() > PIVOT_FLOOR) {
                return Err(LinalgError::Singular { column: old });
            }
            self.d[k] = dk;
        }
        Ok(())
    }

    /// Solves `K·x = b` with the current factors: permute, forward over the
    /// rows of `L`, scale by `D⁻¹`, back over the columns, unpermute.
    /// `b` and `x` have the analyzed dimension.
    pub(crate) fn solve_into(&mut self, b: &[f64], x: &mut [f64]) {
        let z = &mut self.work;
        for (zk, &old) in z.iter_mut().zip(&self.perm) {
            *zk = b[old];
        }
        for k in 0..z.len() {
            let row = self.row_ptr[k]..self.row_ptr[k + 1];
            let mut s = z[k];
            for (&i, &slot) in self.row_idx[row.clone()].iter().zip(&self.row_slot[row]) {
                s -= self.l_val[slot] * z[i];
            }
            z[k] = s;
        }
        for (zk, dk) in z.iter_mut().zip(&self.d) {
            *zk /= dk;
        }
        for i in (0..z.len()).rev() {
            let col = self.col_ptr[i]..self.col_ptr[i + 1];
            let mut s = z[i];
            for (&r, &l) in self.col_idx[col.clone()].iter().zip(&self.l_val[col]) {
                s -= l * z[r];
            }
            z[i] = s;
        }
        for (zk, &old) in z.iter_mut().zip(&self.perm) {
            x[old] = *zk;
            *zk = 0.0;
        }
    }

    /// Floating-point operations of one [`refactor`](Self::refactor); the
    /// count follows from the pattern alone.
    pub(crate) fn flops(&self) -> u64 {
        self.flops
    }

    /// Stored factor entries: `|L|` plus the diagonal `D`.
    pub(crate) fn factor_nnz(&self) -> usize {
        self.col_idx.len() + self.d.len()
    }
}
