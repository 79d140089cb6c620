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
//! then a sorted `Vec` of its own. The next pivot comes off a min-queue
//! of `(degree, node)` keys, each packed into one `u64`, with lazy
//! deletion: the initial keys sorted once, and a binary heap for the keys
//! pushed later. Eliminating a node updates the lists of its `d` live
//! neighbours: each gets the clique's missing members by binary-search
//! insertion (clique short against the list; the eliminated node stays as
//! a dead entry until half the list is dead) or by one sorted merge, and
//! each neighbour whose degree changed costs one `O(log n)` heap push.
//! That is the exact greedy rule, lowest degree first and ties to the
//! lowest index, so the permutation is the one the first,
//! `BTreeSet`-based version computed (the test module keeps that version
//! as its oracle); only the per-entry tree nodes and rebalancing are
//! gone. The fill pattern itself comes from one pass
//! that lists the permuted strictly-lower input entries row by row and
//! one elimination-tree walk over them, which yields the factor's rows in
//! the order an up-looking LDLᵀ consumes them, the column counts and,
//! dealt out by row, the sorted column lists: O(|L|), not O(n²).

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
    /// Strictly-lower input entries of permuted row `k`, in the order the
    /// input row lists them: permuted column and `src` of the entry's
    /// position in `idx`.
    pub(crate) in_ptr: Vec<usize>,
    pub(crate) in_col: Vec<usize>,
    pub(crate) in_src: Vec<usize>,
    /// The factor pattern by row, in the order the elimination-tree walk
    /// reaches it (see [`analyze`]), with each entry's slot in the column
    /// storage `col_idx`.
    pub(crate) row_ptr: Vec<usize>,
    pub(crate) row_idx: Vec<usize>,
    pub(crate) row_slot: Vec<usize>,
}

/// Minimum-degree order and factor pattern of the symmetric off-diagonal
/// pattern `ptr`/`idx` (CSR, sorted duplicate-free rows, no diagonal);
/// `src(p)` is recorded for each strictly-lower input entry at position
/// `p` of `idx`.
///
/// After the ordering, one pass over the pattern lists each permuted
/// row's strictly-lower input entries, and one elimination-tree walk
/// yields the factor's rows: for each input entry of row `k` in turn, the
/// path from it up the tree to the first node already reached, each new
/// path going in front of the earlier ones. The tree parent of `j` is the
/// first row that reaches it. Rows are walked in increasing `k`, so
/// dealing each row's entries out to their columns fills every column
/// list in ascending order, and row `k`'s slot in column `i` is the
/// column's next free one.
pub(crate) fn analyze(ptr: &[usize], idx: &[usize], src: impl Fn(usize) -> usize) -> Symbolic {
    let n = ptr.len() - 1;
    let perm = min_degree_order(ptr, idx);
    let mut iperm = vec![0usize; n];
    for (new, &old) in perm.iter().enumerate() {
        iperm[old] = new;
    }
    let mut in_ptr = Vec::with_capacity(n + 1);
    in_ptr.push(0);
    let mut in_col = Vec::with_capacity(idx.len() / 2);
    let mut in_src = Vec::with_capacity(idx.len() / 2);
    for (k, &old) in perm.iter().enumerate() {
        for p in ptr[old]..ptr[old + 1] {
            let c = iperm[idx[p]];
            if c < k {
                in_col.push(c);
                in_src.push(src(p));
            }
        }
        in_ptr.push(in_col.len());
    }

    const NONE: usize = usize::MAX;
    let mut parent = vec![NONE; n];
    let mut flag = vec![NONE; n];
    let mut col_ptr = vec![0usize; n + 1];
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    let mut row_idx = Vec::with_capacity(in_col.len());
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
                if parent[i] == NONE {
                    parent[i] = k;
                }
                i = parent[i];
            }
            stack[top - path.len()..top].copy_from_slice(&path);
            top -= path.len();
        }
        for &i in &stack[top..] {
            col_ptr[i + 1] += 1;
        }
        row_idx.extend_from_slice(&stack[top..]);
        row_ptr.push(row_idx.len());
    }
    for j in 0..n {
        col_ptr[j + 1] += col_ptr[j];
    }
    let mut next = col_ptr[..n].to_vec();
    let mut col_idx = vec![0usize; row_idx.len()];
    let mut row_slot = vec![0usize; row_idx.len()];
    for k in 0..n {
        for t in row_ptr[k]..row_ptr[k + 1] {
            let i = row_idx[t];
            col_idx[next[i]] = k;
            row_slot[t] = next[i];
            next[i] += 1;
        }
    }
    Symbolic {
        perm,
        iperm,
        col_ptr,
        col_idx,
        in_ptr,
        in_col,
        in_src,
        row_ptr,
        row_idx,
        row_slot,
    }
}

/// Greedy minimum-degree ordering of the symmetric pattern `ptr`/`idx`
/// (CSR, sorted rows, no diagonal), with deterministic tie-breaking
/// (lowest node index) and a dense-tail cutoff.
///
/// The next pivot comes off a min-queue of `(degree, node)` entries with
/// lazy deletion: an entry is pushed whenever a node's degree changes and
/// skipped when popped if its node is gone or its degree is stale, so the
/// first live entry is the lowest `(degree, node)` pair. Each entry is
/// packed into one `u64` ([`key`]); the queue is [`Queue`]. Eliminating `v`
/// joins its live neighbours into a clique. A neighbour whose list is long
/// against the clique gets the missing members by binary-search insertion
/// and keeps `v` as a dead entry (counted, and dropped by one compaction
/// once dead entries are more than half its list); any other neighbour's
/// list is rebuilt by one sorted merge that drops its dead entries.
fn min_degree_order(ptr: &[usize], idx: &[usize]) -> Vec<usize> {
    let n = ptr.len() - 1;
    // Keys pack node and degree into 32 bits each ([`key`]). A pattern
    // with 2³² nodes would need 32 GiB for `ptr` alone.
    debug_assert!(u32::try_from(n).is_ok(), "node indices fit in 32 bits");
    let mut adj = Adjacency {
        ptr,
        idx,
        own: vec![None; n],
    };
    // `dead[u]`: entries of `u`'s list that name eliminated nodes.
    let mut dead = vec![0usize; n];
    let mut eliminated = vec![false; n];
    let mut queue = Queue::new((0..n).map(|v| key(adj.list(v).len(), v)).collect());
    let mut order = Vec::with_capacity(n);
    let mut clique: Vec<usize> = Vec::new();
    let mut merged: Vec<usize> = Vec::new();
    while let Some(packed) = queue.pop() {
        let (deg, v) = (
            (packed >> 32) as usize,
            (packed & u64::from(u32::MAX)) as usize,
        );
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
                queue.push(key(after, u));
            }
        }
    }
    order
}

/// The queue key of `node` at `degree`: `degree << 32 | node`, so keys
/// compare as `(degree, node)` pairs do. Both are below the node count,
/// which is below `2³²`.
fn key(degree: usize, node: usize) -> u64 {
    (degree as u64) << 32 | node as u64
}

/// The ordering's min-queue of keys: the `n` initial keys sorted once and
/// taken front to back, and a binary heap of the keys pushed since. The
/// smaller front comes off first, so keys leave in the order one heap of
/// all of them would give; most nodes leave at their initial degree, at
/// the cost of a cursor step rather than a heap pop.
struct Queue {
    initial: Vec<u64>,
    next: usize,
    pushed: BinaryHeap<Reverse<u64>>,
}

impl Queue {
    fn new(mut initial: Vec<u64>) -> Self {
        initial.sort_unstable();
        Queue {
            initial,
            next: 0,
            pushed: BinaryHeap::new(),
        }
    }

    fn push(&mut self, key: u64) {
        self.pushed.push(Reverse(key));
    }

    fn pop(&mut self) -> Option<u64> {
        match (self.initial.get(self.next), self.pushed.peek()) {
            (Some(&first), Some(&Reverse(top))) if top < first => {
                self.pushed.pop();
                Some(top)
            }
            (Some(&first), _) => {
                self.next += 1;
                Some(first)
            }
            (None, _) => self.pushed.pop().map(|Reverse(top)| top),
        }
    }
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

    /// The factor pattern as first computed: the permuted strictly-lower
    /// pattern counted into sorted CSR, one elimination-tree walk for the
    /// column counts and a second for the column lists; then, as the LDLᵀ
    /// analysis did, the input entries per row with their `src` and a third
    /// walk for the rows in tree order, slotted into the columns.
    #[allow(clippy::type_complexity)]
    fn three_walks(
        ptr: &[usize],
        idx: &[usize],
        src: impl Fn(usize) -> usize,
        perm: &[usize],
    ) -> [Vec<usize>; 8] {
        const NONE: usize = usize::MAX;
        let n = perm.len();
        let mut iperm = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            iperm[old] = new;
        }
        let mut lower_ptr = vec![0usize; n + 1];
        for (c, &old) in perm.iter().enumerate() {
            for &nb in &idx[ptr[old]..ptr[old + 1]] {
                if iperm[nb] > c {
                    lower_ptr[iperm[nb] + 1] += 1;
                }
            }
        }
        for r in 0..n {
            lower_ptr[r + 1] += lower_ptr[r];
        }
        let mut next = lower_ptr.clone();
        let mut lower_idx = vec![0usize; lower_ptr[n]];
        for (c, &old) in perm.iter().enumerate() {
            for &nb in &idx[ptr[old]..ptr[old + 1]] {
                let r = iperm[nb];
                if r > c {
                    lower_idx[next[r]] = c;
                    next[r] += 1;
                }
            }
        }
        let walk = |mut visit: Box<dyn FnMut(usize, usize) + '_>| {
            let mut parent = vec![NONE; n];
            let mut flag = vec![NONE; n];
            for k in 0..n {
                flag[k] = k;
                for &j0 in &lower_idx[lower_ptr[k]..lower_ptr[k + 1]] {
                    let mut j = j0;
                    while flag[j] != k {
                        visit(j, k);
                        flag[j] = k;
                        if parent[j] == NONE {
                            parent[j] = k;
                        }
                        j = parent[j];
                    }
                }
            }
        };
        let mut col_ptr = vec![0usize; n + 1];
        walk(Box::new(|j, _| col_ptr[j + 1] += 1));
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut col_idx = vec![0usize; col_ptr[n]];
        let mut fill = col_ptr.clone();
        walk(Box::new(|j, k| {
            col_idx[fill[j]] = k;
            fill[j] += 1;
        }));
        let (mut in_ptr, mut in_col, mut in_src) = (vec![0], Vec::new(), Vec::new());
        for (k, &old) in perm.iter().enumerate() {
            for p in ptr[old]..ptr[old + 1] {
                if iperm[idx[p]] < k {
                    in_col.push(iperm[idx[p]]);
                    in_src.push(src(p));
                }
            }
            in_ptr.push(in_col.len());
        }
        let parent = |j: usize| {
            if col_ptr[j] < col_ptr[j + 1] {
                col_idx[col_ptr[j]]
            } else {
                NONE
            }
        };
        let (mut row_ptr, mut row_idx, mut row_slot) = (vec![0], Vec::new(), Vec::new());
        let mut next = col_ptr[..n].to_vec();
        let mut flag = vec![NONE; n];
        let mut stack = vec![0usize; n];
        for k in 0..n {
            flag[k] = k;
            let mut top = n;
            for &c in &in_col[in_ptr[k]..in_ptr[k + 1]] {
                let mut path = Vec::new();
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
        [
            col_ptr, col_idx, in_ptr, in_col, in_src, row_ptr, row_idx, row_slot,
        ]
    }

    #[test]
    fn one_walk_matches_the_three_walks() {
        let mut patterns: Vec<(String, SparseMatrix)> = (1..=12)
            .map(|seed| {
                let a = quasidefinite_kkt(6 + seed as usize, 9 + 2 * seed as usize, seed);
                (format!("quasidefinite_kkt seed {seed}"), a)
            })
            .collect();
        patterns.extend([2, 9, 40, 300].map(|n| (format!("arrow n {n}"), arrow(n))));
        for (what, a) in patterns {
            let (ptr, idx) = symmetrized_pattern(&a);
            let src = |p: usize| 3 * p + 1;
            let got = analyze(&ptr, &idx, src);
            assert_eq!(got.perm, min_degree_order(&ptr, &idx), "{what}");
            let mut iperm = vec![0usize; got.perm.len()];
            for (new, &old) in got.perm.iter().enumerate() {
                iperm[old] = new;
            }
            assert_eq!(got.iperm, iperm, "{what}");
            let want = three_walks(&ptr, &idx, src, &got.perm);
            let got = [
                got.col_ptr,
                got.col_idx,
                got.in_ptr,
                got.in_col,
                got.in_src,
                got.row_ptr,
                got.row_idx,
                got.row_slot,
            ];
            assert_eq!(got, want, "{what}");
        }
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
