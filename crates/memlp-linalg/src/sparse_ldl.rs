//! Up-looking sparse LDLᵀ with the symbolic work done once.
//!
//! A symmetric quasi-definite matrix `[[P, Aᵀ], [A, −Q]]` (`P`, `Q`
//! positive diagonal) has an LDLᵀ factorization under *every* symmetric
//! permutation (Vanderbei 1995), so the fill-reducing order of
//! [`crate::symbolic`] is used as it is, with no pivoting. Only `L`
//! (strictly lower, unit diagonal implicit) and `D` are stored: half the
//! entries and fewer flops than the static-pivot LU on the same pattern.
//!
//! [`SparseLdl::analyze`] records everything the numeric phase needs:
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
        let n = ptr.len() - 1;
        let Symbolic {
            perm,
            iperm,
            col_ptr,
            col_idx,
        } = symbolic::analyze(ptr, idx);
        let mut in_ptr = Vec::with_capacity(n + 1);
        in_ptr.push(0);
        let mut in_col = Vec::with_capacity(idx.len() / 2);
        let mut in_src = Vec::with_capacity(idx.len() / 2);
        for (k, &old) in perm.iter().enumerate() {
            for p in ptr[old]..ptr[old + 1] {
                let c = iperm[idx[p]];
                if c < k {
                    in_col.push(c);
                    in_src.push(src[p]);
                }
            }
            in_ptr.push(in_col.len());
        }
        // Rows of L in the order the elimination-tree walk reaches them:
        // for each input entry of row k in turn, the path from it up the
        // tree to the first node already reached, and each new path goes
        // in front of the earlier ones. The tree parent of `j` is the
        // first row of column `j`; rows enter a column in increasing `k`,
        // so row k's slot in column i is the column's next free one.
        const NONE: usize = usize::MAX;
        let parent = |j: usize| {
            if col_ptr[j] < col_ptr[j + 1] {
                col_idx[col_ptr[j]]
            } else {
                NONE
            }
        };
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        let mut row_idx = Vec::with_capacity(col_idx.len());
        let mut row_slot = Vec::with_capacity(col_idx.len());
        let mut next = col_ptr[..n].to_vec();
        let mut flag = vec![NONE; n];
        let mut stack = vec![0usize; n];
        let mut path = Vec::new();
        for k in 0..n {
            flag[k] = k;
            let mut top = n;
            for &c in &in_col[in_ptr[k]..in_ptr[k + 1]] {
                path.clear();
                let mut i = c;
                while flag[i] != k {
                    path.push(i);
                    flag[i] = k;
                    i = parent(i);
                }
                stack[top - path.len()..top].copy_from_slice(&path);
                top -= path.len();
            }
            for &i in &stack[top..] {
                row_idx.push(i);
                row_slot.push(next[i]);
                next[i] += 1;
            }
            row_ptr.push(row_idx.len());
        }
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
        for (k, &old) in self.perm.iter().enumerate() {
            for t in self.in_ptr[k]..self.in_ptr[k + 1] {
                y[self.in_col[t]] = values[self.in_src[t]];
            }
            let mut dk = diag[old];
            for t in self.row_ptr[k]..self.row_ptr[k + 1] {
                let i = self.row_idx[t];
                let slot = self.row_slot[t];
                let yi = y[i];
                y[i] = 0.0;
                for p in self.col_ptr[i]..slot {
                    y[self.col_idx[p]] -= self.l_val[p] * yi;
                }
                let lki = yi / self.d[i];
                dk -= lki * yi;
                self.l_val[slot] = lki;
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
            let mut s = z[k];
            for t in self.row_ptr[k]..self.row_ptr[k + 1] {
                s -= self.l_val[self.row_slot[t]] * z[self.row_idx[t]];
            }
            z[k] = s;
        }
        for (zk, dk) in z.iter_mut().zip(&self.d) {
            *zk /= dk;
        }
        for i in (0..z.len()).rev() {
            let mut s = z[i];
            for p in self.col_ptr[i]..self.col_ptr[i + 1] {
                s -= self.l_val[p] * z[self.col_idx[p]];
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
