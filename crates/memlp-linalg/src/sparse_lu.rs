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
//! standard interior-point trade — both target systems (the Schur-reduced
//! crossbar core and the quasidefinite KKT form of the normal equations)
//! have non-zero diagonals of fixed sign pattern, for which a no-pivot LU
//! on a symmetrized fill pattern is well defined. Numerical breakdown
//! (tiny/non-finite pivot) is reported as [`LinalgError::Singular`] so
//! callers can fall back to the dense partial-pivot path, and
//! [`SparseLu::refine`] polishes solutions against the exact matrix to
//! recover digits the static pivoting left behind.
//!
//! Ordering is greedy minimum degree on the symmetrized pattern with a
//! dense-tail cutoff: once every remaining node is adjacent to (nearly)
//! every other, further bookkeeping cannot reduce fill and the tail is
//! emitted in index order. It runs on flat data. The symmetrized pattern
//! is built once as CSR; a node's adjacency list is its CSR row until the
//! list first changes, then a sorted `Vec` of its own. The next pivot
//! comes off a binary min-heap of `(degree, node)` with lazy deletion.
//! Eliminating a node updates the lists of its `d` live neighbours: each
//! gets the clique's missing members by binary-search insertion (clique
//! short against the list; the eliminated node stays as a dead entry
//! until half the list is dead) or by one sorted merge, and each
//! neighbour whose degree changed costs one `O(log n)` heap push. That is
//! the exact greedy rule, lowest degree first and ties to the lowest
//! index, so the permutation is the one the first, `BTreeSet`-based
//! version computed (the test module keeps that version as its oracle);
//! only the per-entry tree nodes and rebalancing are gone. The fill
//! pattern itself comes from the classic one-pass elimination-tree
//! symbolic analysis (column counts + column lists) over the permuted
//! strictly-lower pattern, which is counted into CSR from the same
//! symmetrized pattern with its rows already sorted, so that part is
//! O(|L|), not O(n²).

use crate::error::{dim_mismatch, LinalgError};
use crate::sparse::SparseMatrix;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Pivots whose magnitude falls at (or below) this floor abort the numeric
/// factorization: the static pivot order has broken down and the caller
/// should fall back to dense partial pivoting. The floor sits just above
/// the subnormal range — legitimate interior-point pivots spanning many
/// orders of magnitude still pass, while exact zeros, cancellation down to
/// noise, and NaN (which fails the `>` comparison) do not.
const PIVOT_FLOOR: f64 = 1e-292;

/// Remaining-node count at or below which the ordering stops optimizing
/// and emits the rest of the nodes in index order.
const TINY_TAIL: usize = 8;

/// A clique shorter than `1/SHORT_CLIQUE` of a neighbour's adjacency list
/// is inserted into it by binary search; a longer one is merged.
const SHORT_CLIQUE: usize = 4;

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
    perm: Vec<usize>,
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
        let perm = min_degree_order(&sym_ptr, &sym_idx);
        let mut iperm = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            iperm[old] = new;
        }

        let (lower_ptr, lower_idx) = permuted_lower_pattern(&sym_ptr, &sym_idx, &perm, &iperm);

        // One-pass elimination-tree symbolic analysis: column counts, then
        // column lists. Column `j` of the Cholesky-shaped factor is exactly
        // row `j` of `U` (strictly-upper part), by pattern symmetry.
        const NONE: usize = usize::MAX;
        let mut parent = vec![NONE; n];
        let mut flag = vec![NONE; n];
        let mut col_count = vec![0usize; n];
        for k in 0..n {
            flag[k] = k;
            for &j0 in &lower_idx[lower_ptr[k]..lower_ptr[k + 1]] {
                let mut j = j0;
                while flag[j] != k {
                    col_count[j] += 1;
                    flag[j] = k;
                    if parent[j] == NONE {
                        parent[j] = k;
                    }
                    j = parent[j];
                }
            }
        }
        let mut u_ptr = vec![0usize; n + 1];
        for j in 0..n {
            u_ptr[j + 1] = u_ptr[j] + col_count[j];
        }
        let fill = u_ptr[n];
        let mut u_idx = vec![0usize; fill];
        let mut next = u_ptr.clone();
        let mut flag = vec![NONE; n];
        for p in parent.iter_mut() {
            *p = NONE;
        }
        for k in 0..n {
            flag[k] = k;
            for &j0 in &lower_idx[lower_ptr[k]..lower_ptr[k + 1]] {
                let mut j = j0;
                while flag[j] != k {
                    u_idx[next[j]] = k;
                    next[j] += 1;
                    flag[j] = k;
                    if parent[j] == NONE {
                        parent[j] = k;
                    }
                    j = parent[j];
                }
            }
        }
        // Column lists were appended in increasing `k`, so `u_idx` is
        // already sorted per row. The lower pattern is the transpose.
        let (l_ptr, l_idx) = transpose_pattern(n, &u_ptr, &u_idx);

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
            mark: vec![NONE; n],
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
    /// iterative refinement against the exact matrix `a` (the static-pivot
    /// analogue of [`LuFactors::refine`](crate::LuFactors::refine) — only
    /// strict residual improvements are kept).
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

/// Greedy minimum-degree ordering of the symmetric pattern `ptr`/`idx`
/// (CSR, sorted rows, no diagonal), with deterministic tie-breaking
/// (lowest node index) and a dense-tail cutoff.
///
/// The next pivot comes off a min-heap of `(degree, node)` entries with
/// lazy deletion: an entry is pushed whenever a node's degree changes and
/// skipped when popped if its node is gone or its degree is stale, so the
/// first live entry is the lowest `(degree, node)` pair. Eliminating `v`
/// joins its live neighbours into a clique. A neighbour whose list is long
/// against the clique gets the missing members by binary-search insertion
/// and keeps `v` as a dead entry (counted, and dropped by one compaction
/// once dead entries are more than half its list); any other neighbour's
/// list is rebuilt by one sorted merge that drops its dead entries.
fn min_degree_order(ptr: &[usize], idx: &[usize]) -> Vec<usize> {
    let n = ptr.len() - 1;
    let mut adj = Adjacency {
        ptr,
        idx,
        own: vec![None; n],
    };
    // `dead[u]`: entries of `u`'s list that name eliminated nodes.
    let mut dead = vec![0usize; n];
    let mut eliminated = vec![false; n];
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|v| Reverse((adj.list(v).len(), v))).collect();
    let mut order = Vec::with_capacity(n);
    let mut clique: Vec<usize> = Vec::new();
    let mut merged: Vec<usize> = Vec::new();
    while let Some(Reverse((deg, v))) = heap.pop() {
        if eliminated[v] || deg != adj.list(v).len() - dead[v] {
            continue;
        }
        let remaining = n - order.len();
        if remaining <= TINY_TAIL || deg + 1 >= remaining {
            // Every remaining node is (nearly) adjacent to every other:
            // no ordering can reduce fill, emit the tail deterministically.
            order.extend((0..n).filter(|&u| !eliminated[u]));
            break;
        }
        eliminated[v] = true;
        order.push(v);
        clique.clear();
        clique.extend(adj.list(v).iter().copied().filter(|&u| !eliminated[u]));
        adj.own[v] = None;
        for &u in &clique {
            let len = adj.list(u).len();
            let before = len - dead[u];
            if clique.len() * SHORT_CLIQUE < len {
                let list = adj.list_mut(u);
                dead[u] += 1;
                for &w in &clique {
                    if w != u {
                        if let Err(pos) = list.binary_search(&w) {
                            list.insert(pos, w);
                        }
                    }
                }
                if 2 * dead[u] > list.len() {
                    list.retain(|&w| !eliminated[w]);
                    dead[u] = 0;
                }
            } else {
                merged.clear();
                merge_union(adj.list(u), |w| !eliminated[w], &clique, u, &mut merged);
                merged = adj.own[u]
                    .replace(std::mem::take(&mut merged))
                    .unwrap_or_default();
                dead[u] = 0;
            }
            let after = adj.list(u).len() - dead[u];
            if after != before {
                heap.push(Reverse((after, u)));
            }
        }
    }
    order
}

/// The ordering's sorted adjacency lists: each node's row of the input
/// pattern until its list first changes, then a `Vec` of its own (most
/// nodes are eliminated before that happens, so they never allocate).
struct Adjacency<'a> {
    ptr: &'a [usize],
    idx: &'a [usize],
    own: Vec<Option<Vec<usize>>>,
}

impl Adjacency<'_> {
    fn list(&self, u: usize) -> &[usize] {
        match &self.own[u] {
            Some(list) => list,
            None => &self.idx[self.ptr[u]..self.ptr[u + 1]],
        }
    }

    fn list_mut(&mut self, u: usize) -> &mut Vec<usize> {
        let (ptr, idx) = (self.ptr, self.idx);
        self.own[u].get_or_insert_with(|| idx[ptr[u]..ptr[u + 1]].to_vec())
    }
}

/// Off-diagonal pattern of `a + aᵀ` (square `a`), CSR with ascending,
/// duplicate-free rows: row `i` of `a` merged with row `i` of `aᵀ`.
fn symmetrized_pattern(a: &SparseMatrix) -> (Vec<usize>, Vec<usize>) {
    let n = a.rows();
    let (a_ptr, a_idx) = (a.row_ptr(), a.col_idx());
    let (t_ptr, t_idx) = transpose_pattern(n, a_ptr, a_idx);
    let mut ptr = Vec::with_capacity(n + 1);
    ptr.push(0);
    let mut idx = Vec::with_capacity(2 * a_idx.len());
    for i in 0..n {
        let row = &a_idx[a_ptr[i]..a_ptr[i + 1]];
        let col = &t_idx[t_ptr[i]..t_ptr[i + 1]];
        merge_union(row, |j| j != i, col, i, &mut idx);
        ptr.push(idx.len());
    }
    (ptr, idx)
}

/// Appends to `out` the sorted union of the entries of `a` that `keep`
/// admits and the entries of `b` other than `skip`; both are ascending and
/// duplicate-free.
fn merge_union(
    a: &[usize],
    keep: impl Fn(usize) -> bool,
    b: &[usize],
    skip: usize,
    out: &mut Vec<usize>,
) {
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x < y {
            if keep(x) {
                out.push(x);
            }
            i += 1;
        } else {
            if y != skip && (x > y || keep(x)) {
                out.push(y);
            }
            i += usize::from(x == y);
            j += 1;
        }
    }
    out.extend(a[i..].iter().copied().filter(|&x| keep(x)));
    out.extend(b[j..].iter().copied().filter(|&y| y != skip));
}

/// Strictly-lower pattern of `P·S·Pᵀ` for the symmetric pattern `S`
/// (`ptr`/`idx`) and `perm[new] = old`, `iperm[old] = new`: CSR by row.
/// Columns are visited in ascending new index and appended to the rows
/// below them, so every row comes out sorted without a sort.
fn permuted_lower_pattern(
    ptr: &[usize],
    idx: &[usize],
    perm: &[usize],
    iperm: &[usize],
) -> (Vec<usize>, Vec<usize>) {
    let n = perm.len();
    let mut l_ptr = vec![0usize; n + 1];
    for (c, &old) in perm.iter().enumerate() {
        for &nb in &idx[ptr[old]..ptr[old + 1]] {
            if iperm[nb] > c {
                l_ptr[iperm[nb] + 1] += 1;
            }
        }
    }
    for r in 0..n {
        l_ptr[r + 1] += l_ptr[r];
    }
    let mut next = l_ptr.clone();
    let mut l_idx = vec![0usize; l_ptr[n]];
    for (c, &old) in perm.iter().enumerate() {
        for &nb in &idx[ptr[old]..ptr[old + 1]] {
            let r = iperm[nb];
            if r > c {
                l_idx[next[r]] = c;
                next[r] += 1;
            }
        }
    }
    (l_ptr, l_idx)
}

/// Counting-sort transpose of a CSR index pattern (no values).
fn transpose_pattern(n: usize, ptr: &[usize], idx: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut t_ptr = vec![0usize; n + 1];
    for &j in idx {
        t_ptr[j + 1] += 1;
    }
    for j in 0..n {
        t_ptr[j + 1] += t_ptr[j];
    }
    let mut next = t_ptr.clone();
    let mut t_idx = vec![0usize; idx.len()];
    for i in 0..n {
        for &j in &idx[ptr[i]..ptr[i + 1]] {
            t_idx[next[j]] = i;
            next[j] += 1;
        }
    }
    (t_ptr, t_idx)
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

    fn quasidefinite_kkt(m: usize, n: usize, seed: u64) -> SparseMatrix {
        // [[D, Aᵀ], [A, −E]] with random sparse A — the shape both sparse
        // Newton paths feed this factorization.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut trips = Vec::new();
        for j in 0..n {
            trips.push((j, j, 0.5 + next()));
        }
        for i in 0..m {
            trips.push((n + i, n + i, -(0.5 + next())));
        }
        for i in 0..m {
            for j in 0..n {
                if next() < 0.3 {
                    let v = next() * 2.0 - 1.0;
                    trips.push((n + i, j, v));
                    trips.push((j, n + i, v));
                }
            }
        }
        SparseMatrix::from_triplets(n + m, n + m, &trips).unwrap()
    }

    /// The ordering as first written, over `BTreeSet` adjacency and degree
    /// buckets: the oracle the flat [`min_degree_order`] must match.
    fn reference_min_degree_order(a: &SparseMatrix) -> Vec<usize> {
        use std::collections::BTreeSet;
        let n = a.rows();
        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for (i, j, _) in a.iter() {
            if i != j {
                adj[i].insert(j);
                adj[j].insert(i);
            }
        }
        let mut buckets: BTreeSet<(usize, usize)> = (0..n).map(|v| (adj[v].len(), v)).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(&(deg, v)) = buckets.iter().next() {
            let remaining = n - order.len();
            if remaining <= TINY_TAIL || deg + 1 >= remaining {
                let mut rest: Vec<usize> = buckets.iter().map(|&(_, node)| node).collect();
                rest.sort_unstable();
                order.extend(rest);
                break;
            }
            buckets.remove(&(deg, v));
            order.push(v);
            let neigh: Vec<usize> = adj[v].iter().copied().collect();
            for &u in &neigh {
                buckets.remove(&(adj[u].len(), u));
                adj[u].remove(&v);
            }
            adj[v].clear();
            for (ai, &u) in neigh.iter().enumerate() {
                for &w in &neigh[ai + 1..] {
                    adj[u].insert(w);
                    adj[w].insert(u);
                }
            }
            for &u in &neigh {
                buckets.insert((adj[u].len(), u));
            }
        }
        order
    }

    /// A random square pattern, not symmetric: each off-diagonal entry is
    /// kept with probability `density`, and rows/columns `0..hubs` with
    /// probability one half (long adjacency lists against short cliques).
    fn random_pattern(n: usize, density: f64, hubs: usize, seed: u64) -> SparseMatrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut trips = Vec::new();
        for i in 0..n {
            if next() < 0.5 {
                trips.push((i, i, 1.0));
            }
            for j in 0..n {
                let p = if i < hubs || j < hubs { 0.5 } else { density };
                if i != j && next() < p {
                    trips.push((i, j, 1.0));
                }
            }
        }
        SparseMatrix::from_triplets(n, n, &trips).unwrap()
    }

    /// Dense first row and column over a diagonal: the wrong-way arrow.
    fn arrow(n: usize) -> SparseMatrix {
        let mut trips = vec![(0usize, 0usize, (n + 1) as f64)];
        for i in 1..n {
            trips.push((i, i, 2.0));
            trips.push((0, i, 1.0));
            trips.push((i, 0, 1.0));
        }
        SparseMatrix::from_triplets(n, n, &trips).unwrap()
    }

    fn assert_matches_reference(a: &SparseMatrix, what: &str) {
        let (ptr, idx) = symmetrized_pattern(a);
        let got = min_degree_order(&ptr, &idx);
        assert_eq!(got, reference_min_degree_order(a), "{what}");
        let mut seen = got.clone();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..a.rows()).collect::<Vec<_>>(),
            "{what}: a permutation"
        );
    }

    #[test]
    fn ordering_matches_the_btreeset_reference() {
        for seed in 1..=20 {
            let a = quasidefinite_kkt(8 + seed as usize, 12 + 2 * seed as usize, seed);
            assert_matches_reference(&a, &format!("quasidefinite_kkt seed {seed}"));
        }
        for seed in 1..=40 {
            let n = 10 + (seed as usize * 7) % 90;
            let density = [0.01, 0.03, 0.08, 0.2][seed as usize % 4];
            let hubs = seed as usize % 3;
            let a = random_pattern(n, density, hubs, seed);
            assert_matches_reference(&a, &format!("random n {n} density {density} seed {seed}"));
        }
        for n in [2, 9, 40, 300] {
            assert_matches_reference(&arrow(n), &format!("arrow n {n}"));
        }
        for n in 0..=TINY_TAIL {
            for seed in 0..4 {
                let a = random_pattern(n, 0.3, 0, seed);
                assert_matches_reference(&a, &format!("tiny n {n} seed {seed}"));
            }
        }
    }

    #[test]
    fn ordering_cuts_to_the_dense_tail_mid_way() {
        // A 12-node clique on the even nodes 0..22 plus 18 leaves hung on
        // it. The leaves go first; then 12 > TINY_TAIL nodes remain, each
        // adjacent to all the others, and the cutoff emits them in index
        // order.
        let core: Vec<usize> = (0..12).map(|k| 2 * k).collect();
        let mut trips = Vec::new();
        for &u in &core {
            for &w in &core {
                if u != w {
                    trips.push((u, w, 1.0));
                }
            }
        }
        let leaves: Vec<usize> = (0..12).map(|k| 2 * k + 1).chain(24..30).collect();
        for (k, &leaf) in leaves.iter().enumerate() {
            trips.push((leaf, core[k % core.len()], 1.0));
        }
        let a = SparseMatrix::from_triplets(30, 30, &trips).unwrap();
        assert_matches_reference(&a, "dense tail");
        let (ptr, idx) = symmetrized_pattern(&a);
        let order = min_degree_order(&ptr, &idx);
        assert_eq!(order[leaves.len()..], core[..]);
    }

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
