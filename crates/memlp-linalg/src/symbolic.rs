//! Symbolic analysis shared by the sparse factorizations: fill-reducing
//! ordering and the fill pattern of the factor.
//!
//! [`SparseLu`](crate::SparseLu) (any square matrix, on its symmetrized
//! pattern) and the LDLᵀ behind [`SymmetricKkt`](crate::SymmetricKkt)
//! (a symmetric pattern as it stands) both run [`analyze`]: the same
//! ordering and the same elimination-tree pass, so on the same pattern
//! they commit to the same strictly-lower fill.
//!
//! Ordering is greedy minimum degree on the symmetric pattern with a
//! dense-tail cutoff: once every remaining node is adjacent to (nearly)
//! every other, further bookkeeping cannot reduce fill and the tail is
//! emitted in index order. It runs on flat data. The pattern is CSR; a
//! node's adjacency list is its CSR row until the list first changes,
//! then a sorted `Vec` of its own. The next pivot comes off a binary
//! min-heap of `(degree, node)` with lazy deletion. Eliminating a node
//! updates the lists of its `d` live neighbours: each gets the clique's
//! missing members by binary-search insertion (clique short against the
//! list; the eliminated node stays as a dead entry until half the list is
//! dead) or by one sorted merge, and each neighbour whose degree changed
//! costs one `O(log n)` heap push. That is the exact greedy rule, lowest
//! degree first and ties to the lowest index, so the permutation is the
//! one the first, `BTreeSet`-based version computed (the test module
//! keeps that version as its oracle); only the per-entry tree nodes and
//! rebalancing are gone. The fill pattern itself comes from the classic
//! one-pass elimination-tree symbolic analysis (column counts + column
//! lists) over the permuted strictly-lower pattern, which is counted into
//! CSR from the symmetric pattern with its rows already sorted, so that
//! part is O(|L|), not O(n²).

use crate::sparse::SparseMatrix;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Remaining-node count at or below which the ordering stops optimizing
/// and emits the rest of the nodes in index order.
const TINY_TAIL: usize = 8;

/// A clique shorter than `1/SHORT_CLIQUE` of a neighbour's adjacency list
/// is inserted into it by binary search; a longer one is merged.
const SHORT_CLIQUE: usize = 4;

/// The symbolic factorization of a symmetric pattern.
pub(crate) struct Symbolic {
    /// `perm[new] = old`: the pivot order.
    pub(crate) perm: Vec<usize>,
    /// `iperm[old] = new`.
    pub(crate) iperm: Vec<usize>,
    /// Strictly-lower factor pattern in permuted indices, CSR by column:
    /// column `j` lists the rows `k > j` with `L[k][j] ≠ 0`, ascending.
    pub(crate) col_ptr: Vec<usize>,
    pub(crate) col_idx: Vec<usize>,
}

/// Minimum-degree order and factor pattern of the symmetric off-diagonal
/// pattern `ptr`/`idx` (CSR, sorted duplicate-free rows, no diagonal).
pub(crate) fn analyze(ptr: &[usize], idx: &[usize]) -> Symbolic {
    let n = ptr.len() - 1;
    let perm = min_degree_order(ptr, idx);
    let mut iperm = vec![0usize; n];
    for (new, &old) in perm.iter().enumerate() {
        iperm[old] = new;
    }
    let (lower_ptr, lower_idx) = permuted_lower_pattern(ptr, idx, &perm, &iperm);

    // One-pass elimination-tree symbolic analysis: column counts, then
    // column lists. Row `k` of the factor is the set of tree nodes
    // reached walking up from each entry of row `k` of the input.
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
    let mut col_ptr = vec![0usize; n + 1];
    for j in 0..n {
        col_ptr[j + 1] = col_ptr[j] + col_count[j];
    }
    let mut col_idx = vec![0usize; col_ptr[n]];
    let mut next = col_ptr.clone();
    let mut flag = vec![NONE; n];
    for p in parent.iter_mut() {
        *p = NONE;
    }
    for k in 0..n {
        flag[k] = k;
        for &j0 in &lower_idx[lower_ptr[k]..lower_ptr[k + 1]] {
            let mut j = j0;
            while flag[j] != k {
                col_idx[next[j]] = k;
                next[j] += 1;
                flag[j] = k;
                if parent[j] == NONE {
                    parent[j] = k;
                }
                j = parent[j];
            }
        }
    }
    // Column lists were appended in increasing `k`, so they are sorted.
    Symbolic {
        perm,
        iperm,
        col_ptr,
        col_idx,
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
pub(crate) fn symmetrized_pattern(a: &SparseMatrix) -> (Vec<usize>, Vec<usize>) {
    let n = a.rows();
    let (a_ptr, a_idx) = (a.row_ptr(), a.col_idx());
    let (t_ptr, t_idx, _) = transpose_pattern(n, a_ptr, a_idx);
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

/// Counting-sort transpose of the CSR index pattern `ptr`/`idx` with
/// `cols` columns: `(t_ptr, t_idx, t_slot)`, where `t_slot` gives each
/// transposed entry's position in `idx`. Rows of the transpose come out
/// ascending.
pub(crate) fn transpose_pattern(
    cols: usize,
    ptr: &[usize],
    idx: &[usize],
) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let mut t_ptr = vec![0usize; cols + 1];
    for &j in idx {
        t_ptr[j + 1] += 1;
    }
    for j in 0..cols {
        t_ptr[j + 1] += t_ptr[j];
    }
    let mut next = t_ptr.clone();
    let mut t_idx = vec![0usize; idx.len()];
    let mut t_slot = vec![0usize; idx.len()];
    for i in 0..ptr.len() - 1 {
        for (&j, p) in idx[ptr[i]..ptr[i + 1]].iter().zip(ptr[i]..) {
            t_idx[next[j]] = i;
            t_slot[next[j]] = p;
            next[j] += 1;
        }
    }
    (t_ptr, t_idx, t_slot)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `[[D, Aᵀ], [A, −E]]` with random sparse `A`: the quasi-definite
    /// shape the sparse Newton paths factor.
    pub(crate) fn quasidefinite_kkt(m: usize, n: usize, seed: u64) -> SparseMatrix {
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
    pub(crate) fn arrow(n: usize) -> SparseMatrix {
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
}
