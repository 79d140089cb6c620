//! Warm hardware-context pool.
//!
//! Each worker owns one pool: a map from problem family to a live
//! [`HwContext`] plus the previous solution's `(x, y)` iterate. Repeat
//! jobs from one family re-enter their array via
//! [`HwContext::begin_reuse`], so the delta-write code cache skips
//! unchanged cells and PDIP warm-starts from the last optimum — the two
//! effects behind the serve path's warm-vs-cold latency gap.
//!
//! The warm iterate is gated on a constraint-matrix fingerprint: a family
//! tag that suddenly carries a different `A` still reuses the array (delta
//! programming reconciles cell by cell) but drops the stale iterate, which
//! would otherwise start the solve from another problem's optimum.

use std::collections::BTreeMap;

use memlp_core::{HwContext, ANALOG_TILE_SIDE};
use memlp_crossbar::{CrossbarConfig, TileOccupancy};
use memlp_lp::LpProblem;

/// FNV-1a over a byte stream — the fingerprint used to gate warm starts.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprints a problem's tile-occupancy *shape* at the analog tile
/// granularity — the [`FamilyKey::occupancy`] component. Built from the
/// planned coefficients only, never from analog read-backs.
pub fn occupancy_fingerprint(lp: &LpProblem) -> u64 {
    TileOccupancy::from_matrix(lp.a(), ANALOG_TILE_SIDE).fingerprint()
}

/// Fingerprints a problem's constraint matrix (dims + coefficient bits).
pub fn problem_fingerprint(lp: &LpProblem) -> u64 {
    let mut h = fnv1a(&(lp.num_constraints() as u64).to_le_bytes());
    h ^= fnv1a(&(lp.num_vars() as u64).to_le_bytes()).rotate_left(17);
    for &v in lp.a().as_slice() {
        h ^= fnv1a(&v.to_bits().to_le_bytes());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Pool key: the client-supplied family tag plus the problem shape and
/// its tile-occupancy fingerprint. Two shapes under one tag get separate
/// arrays — a crossbar programmed for `m×n` cannot serve `m'×n'` — and
/// so do two *occupancy* shapes: an array fabricated with elided tiles
/// (DESIGN.md §18) has no hardware where another problem's coefficients
/// would need it, so block-sparsity layouts cannot share a warm slot.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FamilyKey {
    /// Client-supplied family tag.
    pub tag: String,
    /// Constraint count `m`.
    pub rows: usize,
    /// Variable count `n`.
    pub cols: usize,
    /// [`TileOccupancy::fingerprint`] of the planned constraint matrix at
    /// the analog tile granularity.
    ///
    /// [`TileOccupancy::fingerprint`]: memlp_crossbar::TileOccupancy::fingerprint
    pub occupancy: u64,
}

/// One warm slot: a live array plus the state a repeat solve reuses.
pub struct PoolEntry {
    /// The simulated array, kept powered between requests (variation
    /// draw, delta-write code caches, and fault state all persist).
    pub hw: HwContext,
    /// `(x, y)` of the last optimal solve, used to warm-start the next.
    pub warm: Option<(Vec<f64>, Vec<f64>)>,
    /// Fingerprint of the constraint matrix `warm` was computed for.
    pub fingerprint: u64,
    /// Solves dispatched onto this entry (also the reuse salt).
    pub solves: u64,
}

/// Per-worker pool of warm contexts, LRU-bounded by entry count.
pub struct ContextPool {
    config: CrossbarConfig,
    entries: BTreeMap<FamilyKey, PoolEntry>,
    capacity: usize,
    /// Monotonic tick for LRU accounting.
    clock: u64,
    last_used: BTreeMap<FamilyKey, u64>,
}

impl ContextPool {
    /// An empty pool building contexts from `config`, holding at most
    /// `capacity` warm entries (min 1).
    pub fn new(config: CrossbarConfig, capacity: usize) -> Self {
        ContextPool {
            config,
            entries: BTreeMap::new(),
            capacity: capacity.max(1),
            clock: 0,
            last_used: BTreeMap::new(),
        }
    }

    /// Warm entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entry is warm.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fetches (or creates) the entry for `key`, dropping a stale warm
    /// iterate when `fingerprint` disagrees with the one on record. At
    /// capacity, the least-recently-used other entry is evicted.
    pub fn entry(&mut self, key: &FamilyKey, fingerprint: u64) -> &mut PoolEntry {
        self.clock += 1;
        if !self.entries.contains_key(key) && self.entries.len() >= self.capacity {
            if let Some(victim) = self
                .last_used
                .iter()
                .filter(|(k, _)| self.entries.contains_key(*k))
                .min_by_key(|(_, &t)| t)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
                self.last_used.remove(&victim);
            }
        }
        self.last_used.insert(key.clone(), self.clock);
        let config = self.config;
        let entry = self
            .entries
            .entry(key.clone())
            .or_insert_with(|| PoolEntry {
                hw: HwContext::new(config),
                warm: None,
                fingerprint,
                solves: 0,
            });
        if entry.fingerprint != fingerprint {
            entry.warm = None;
            entry.fingerprint = fingerprint;
        }
        entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memlp_lp::generator::RandomLp;

    fn key(tag: &str) -> FamilyKey {
        FamilyKey {
            tag: tag.into(),
            rows: 12,
            cols: 4,
            occupancy: 0,
        }
    }

    #[test]
    fn fingerprint_mismatch_drops_warm_iterate() {
        let mut pool = ContextPool::new(CrossbarConfig::paper_default(), 4);
        let lp_a = RandomLp::paper(12, 3).feasible();
        let lp_b = RandomLp::paper(12, 4).feasible();
        let fp_a = problem_fingerprint(&lp_a);
        let fp_b = problem_fingerprint(&lp_b);
        assert_ne!(fp_a, fp_b, "distinct problems must fingerprint apart");

        let e = pool.entry(&key("k"), fp_a);
        e.warm = Some((vec![1.0; 4], vec![1.0; 12]));
        assert!(pool.entry(&key("k"), fp_a).warm.is_some());
        assert!(pool.entry(&key("k"), fp_b).warm.is_none());
    }

    #[test]
    fn occupancy_shapes_get_separate_warm_slots() {
        // Same tag and dims, different block-sparsity layout: the arrays
        // cannot be shared (elided tiles have no hardware), so the keys
        // must map to distinct pool entries.
        let mut pool = ContextPool::new(CrossbarConfig::paper_default(), 4);
        let lp = RandomLp::paper(12, 3).feasible();
        let dense = occupancy_fingerprint(&lp);
        let mut k_dense = key("k");
        k_dense.occupancy = dense;
        let mut k_sparse = key("k");
        k_sparse.occupancy = dense ^ 0xABCD; // a different layout
        pool.entry(&k_dense, 1).solves = 5;
        assert_eq!(pool.entry(&k_sparse, 1).solves, 0, "fresh slot expected");
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn lru_eviction_keeps_recently_used_entries() {
        let mut pool = ContextPool::new(CrossbarConfig::paper_default(), 2);
        pool.entry(&key("a"), 1);
        pool.entry(&key("b"), 2);
        pool.entry(&key("a"), 1); // refresh a
        pool.entry(&key("c"), 3); // evicts b
        assert_eq!(pool.len(), 2);
        pool.entry(&key("a"), 1);
        assert_eq!(pool.entries.get(&key("a")).unwrap().fingerprint, 1);
        assert!(!pool.entries.contains_key(&key("b")));
    }
}
