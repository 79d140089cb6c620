//! Scoped-thread parallel execution for the dense kernels.
//!
//! This is the workspace's single threading layer: the LU trailing update,
//! matrix–vector products, tiled-crossbar fan-out, batched solves, and the
//! bench harness all schedule work through here. It is built on
//! `std::thread::scope` only — no external dependencies — so offline builds
//! keep working.
//!
//! # Thread-count resolution
//!
//! [`Threads::resolve`] picks the worker count from, in priority order:
//!
//! 1. a thread-local override installed by [`with_threads`] (used by tests
//!    and the CLI's `--jobs` flag),
//! 2. the `MEMLP_THREADS` environment variable (parsed once per process),
//! 3. [`std::thread::available_parallelism`].
//!
//! # Determinism
//!
//! Every helper here partitions work into *fixed* index ranges that do not
//! depend on the worker count or scheduling order, and each unit writes only
//! its own disjoint output. A kernel that performs the same per-element
//! arithmetic in the same order inside each unit therefore produces
//! bit-for-bit identical results at every thread count — the property the
//! `threaded_*` property tests assert.

use std::cell::Cell;
// memlp-lint: allow(concurrency::primitive, reason = "this module IS the pool: the one place atomics are allowed")
use std::sync::atomic::{AtomicUsize, Ordering};
// memlp-lint: allow(concurrency::primitive, reason = "OnceLock caches the MEMLP_THREADS parse; pool internals")
use std::sync::OnceLock;

/// Minimum flops a worker thread should amortize; below
/// `work / MIN_FLOPS_PER_THREAD` threads, spawn overhead dominates.
///
/// Re-measured against the register-tiled microkernels (`kernels`
/// module): a scoped-spawn round trip costs ~15–25 µs, and the tiled
/// kernels retire ~6–9 Gflop/s per core (vs ~3.5–4 for the scalar loops
/// they replaced), so the break-even work per extra worker roughly
/// doubled — `rate × overhead ≈ 7e9 × 18e-6 ≈ 1.3e5` flops. The kernel
/// microbench records the measured rates behind this number in
/// `BENCH_kernels.json` (`threading_cutoff` cell).
pub const MIN_FLOPS_PER_THREAD: usize = 128 * 1024;

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

fn env_threads() -> Option<usize> {
    // memlp-lint: allow(concurrency::primitive, reason = "env-var parse cache; pool internals")
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("MEMLP_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
    })
}

/// The resolved worker-thread budget for parallel kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threads {
    cap: usize,
}

impl Threads {
    /// Resolves the budget: `with_threads` override → `MEMLP_THREADS` →
    /// available parallelism (never zero).
    ///
    /// The `available_parallelism` syscall is cached per process: it costs
    /// ~10 µs per call on Linux (cgroup probing), which dominated the tiny
    /// per-iteration kernels when every one re-resolved the budget.
    pub fn resolve() -> Threads {
        // memlp-lint: allow(concurrency::primitive, reason = "available_parallelism cache; pool internals")
        static AVAILABLE: OnceLock<usize> = OnceLock::new();
        let cap = OVERRIDE
            .with(Cell::get)
            .or_else(env_threads)
            .unwrap_or_else(|| {
                *AVAILABLE.get_or_init(|| {
                    std::thread::available_parallelism()
                        .map(|p| p.get())
                        .unwrap_or(1)
                })
            });
        Threads { cap: cap.max(1) }
    }

    /// A fixed budget, ignoring the environment.
    pub fn exact(n: usize) -> Threads {
        Threads { cap: n.max(1) }
    }

    /// The raw budget.
    pub fn get(self) -> usize {
        self.cap
    }

    /// Workers to actually use for a kernel costing `flops` total: enough
    /// that each amortizes [`MIN_FLOPS_PER_THREAD`], and never more than the
    /// budget. Returns 1 (the serial path) for small kernels.
    pub fn for_flops(self, flops: usize) -> usize {
        if self.cap <= 1 {
            return 1;
        }
        self.cap.min(flops / MIN_FLOPS_PER_THREAD).max(1)
    }
}

/// Runs `f` with the calling thread's budget forced to `threads`
/// (overriding `MEMLP_THREADS`), restoring the previous override after.
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let prev = OVERRIDE.with(|c| c.replace(Some(threads.max(1))));
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Runs `f(0..count)` across up to `threads` workers (work-stealing, so
/// uneven items balance) and returns the results in index order. Panics in
/// `f` propagate.
pub fn run_indexed<T: Send>(threads: usize, count: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let t = threads.min(count).max(1);
    if t <= 1 {
        return (0..count).map(f).collect();
    }
    // memlp-lint: allow(concurrency::primitive, reason = "work-stealing counter; results are reordered by index so scheduling never affects output")
    let next = AtomicUsize::new(0);
    let f = &f;
    let next = &next;
    // memlp-lint: allow(concurrency::primitive, reason = "the pool's own scoped spawn point")
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..t)
            .map(|_| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    // Each index was claimed by exactly one worker, so the flattened list
    // is a permutation of 0..count: sorting restores input order without
    // needing an Option per slot.
    let mut flat: Vec<(usize, T)> = per_worker.into_iter().flatten().collect();
    flat.sort_unstable_by_key(|&(i, _)| i);
    flat.into_iter().map(|(_, v)| v).collect()
}

/// Maps `f` over `items` in place across up to `threads` workers (static
/// contiguous bands) and returns the results in item order. Each item is
/// visited exactly once with exclusive access, so the partition never
/// affects results.
pub fn par_map_mut<T: Send, R: Send>(
    threads: usize,
    items: &mut [T],
    f: impl Fn(usize, &mut T) -> R + Sync,
) -> Vec<R> {
    let len = items.len();
    let t = threads.min(len).max(1);
    if t <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, it)| f(i, it))
            .collect();
    }
    let f = &f;
    // memlp-lint: allow(concurrency::primitive, reason = "the pool's own scoped spawn point")
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(t);
        let mut rest = items;
        let mut start = 0;
        for w in 0..t {
            let count = len / t + usize::from(w < len % t);
            let (band, tail) = rest.split_at_mut(count);
            rest = tail;
            let base = start;
            start += count;
            handles.push(scope.spawn(move || {
                band.iter_mut()
                    .enumerate()
                    .map(|(i, it)| f(base + i, it))
                    .collect::<Vec<R>>()
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Splits `data` into equal `chunk_len`-element chunks (e.g. matrix rows)
/// and calls `f(chunk_index, chunk)` for each, distributing contiguous
/// chunk ranges across up to `threads` workers. The partition is a pure
/// function of the lengths, so results are bit-for-bit independent of the
/// worker count.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `chunk_len`.
pub fn par_chunks<T: Send>(
    threads: usize,
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(
        chunk_len > 0 && data.len().is_multiple_of(chunk_len),
        "data must split into whole chunks"
    );
    let n_chunks = data.len() / chunk_len;
    let t = threads.min(n_chunks).max(1);
    if t <= 1 {
        for (i, c) in data.chunks_mut(chunk_len).enumerate() {
            f(i, c);
        }
        return;
    }
    let f = &f;
    // memlp-lint: allow(concurrency::primitive, reason = "the pool's own scoped spawn point")
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut first_chunk = 0;
        for w in 0..t {
            let count = n_chunks / t + usize::from(w < n_chunks % t);
            let (band, tail) = rest.split_at_mut(count * chunk_len);
            rest = tail;
            let base = first_chunk;
            first_chunk += count;
            scope.spawn(move || {
                for (i, c) in band.chunks_mut(chunk_len).enumerate() {
                    f(base + i, c);
                }
            });
        }
    });
}

/// Splits `data` into equal `chunk_len`-element chunks (e.g. matrix rows)
/// and distributes contiguous **bands of whole chunks** across up to
/// `threads` workers, calling `f(first_chunk_index, band)` once per band.
/// Unlike [`par_chunks`] the callback sees a worker's whole contiguous
/// range, so multi-row register tiles (`kernels` module) can span chunks
/// inside a band. The band boundaries are a pure function of the lengths;
/// kernels whose per-element arithmetic order is partition-independent
/// (every kernel in this workspace) stay bit-for-bit reproducible at any
/// worker count.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `chunk_len`.
pub fn par_chunk_bands<T: Send>(
    threads: usize,
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(
        chunk_len > 0 && data.len().is_multiple_of(chunk_len),
        "data must split into whole chunks"
    );
    let n_chunks = data.len() / chunk_len;
    let t = threads.min(n_chunks).max(1);
    if t <= 1 {
        if n_chunks > 0 {
            f(0, data);
        }
        return;
    }
    let f = &f;
    // memlp-lint: allow(concurrency::primitive, reason = "the pool's own scoped spawn point")
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut first_chunk = 0;
        for w in 0..t {
            let count = n_chunks / t + usize::from(w < n_chunks % t);
            let (band, tail) = rest.split_at_mut(count * chunk_len);
            rest = tail;
            let base = first_chunk;
            first_chunk += count;
            scope.spawn(move || f(base, band));
        }
    });
}

/// Splits `data` into at most `threads` contiguous bands of near-equal
/// length and calls `f(start_offset, band)` on each concurrently. Like
/// [`par_chunks`], the band boundaries depend only on the lengths, so a
/// kernel that is serial within each band stays bit-for-bit reproducible.
pub fn par_bands<T: Send>(threads: usize, data: &mut [T], f: impl Fn(usize, &mut [T]) + Sync) {
    let len = data.len();
    let t = threads.min(len).max(1);
    if t <= 1 {
        f(0, data);
        return;
    }
    let f = &f;
    // memlp-lint: allow(concurrency::primitive, reason = "the pool's own scoped spawn point")
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut offset = 0;
        for w in 0..t {
            let count = len / t + usize::from(w < len % t);
            let (band, tail) = rest.split_at_mut(count);
            rest = tail;
            let start = offset;
            offset += count;
            scope.spawn(move || f(start, band));
        }
    });
}

/// A value filled at most once, on first use, and then shared read-only —
/// the workspace's one lazily built cache that may be read from several
/// threads (`memlp_lp::LpProblem` keeps its dense view of `A` in one).
///
/// Only one initializer ever runs; racing readers wait for it and all see
/// the same value. An initializer that computes a deterministic function
/// of its inputs therefore gives the same bits whichever thread fills the
/// slot, so results stay thread-invariant. A clone copies the value if the
/// slot is already filled and is empty otherwise.
#[derive(Debug, Clone)]
pub struct WriteOnce<T>(
    // memlp-lint: allow(concurrency::primitive, reason = "write-once shared cache: one initializer runs and every reader sees its value, so fill order cannot change results")
    OnceLock<T>,
);

impl<T> WriteOnce<T> {
    /// An empty slot.
    pub fn new() -> Self {
        WriteOnce(Default::default())
    }

    /// A slot filled with `value` from the start.
    pub fn filled(value: T) -> Self {
        WriteOnce(value.into())
    }

    /// The value, if the slot has been filled.
    pub fn get(&self) -> Option<&T> {
        self.0.get()
    }

    /// The value, running `init` first if the slot is still empty.
    pub fn get_or_init(&self, init: impl FnOnce() -> T) -> &T {
        self.0.get_or_init(init)
    }
}

impl<T> Default for WriteOnce<T> {
    fn default() -> Self {
        WriteOnce::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_once_fills_once_and_clones_its_state() {
        let slot = WriteOnce::new();
        assert_eq!(slot.get(), None);
        let empty_clone = slot.clone();
        assert_eq!(*slot.get_or_init(|| 7), 7);
        assert_eq!(*slot.get_or_init(|| 9), 7);
        assert_eq!(empty_clone.get(), None);
        assert_eq!(slot.clone().get(), Some(&7));
        assert_eq!(WriteOnce::filled(3).get(), Some(&3));
    }

    #[test]
    fn write_once_readers_agree_under_a_race() {
        // Each worker offers its own index; whichever fills the slot, every
        // reader sees that one value.
        let slot = WriteOnce::new();
        let seen = run_indexed(4, 16, |i| *slot.get_or_init(|| i));
        assert!(seen.iter().all(|&v| v == seen[0]));
    }

    #[test]
    fn resolve_is_at_least_one() {
        assert!(Threads::resolve().get() >= 1);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = with_threads(3, || {
            let inner = with_threads(7, || Threads::resolve().get());
            assert_eq!(inner, 7);
            Threads::resolve().get()
        });
        assert_eq!(outer, 3);
    }

    #[test]
    fn for_flops_scales_with_work() {
        let t = Threads::exact(8);
        assert_eq!(t.for_flops(10), 1);
        assert_eq!(t.for_flops(MIN_FLOPS_PER_THREAD * 3), 3);
        assert_eq!(t.for_flops(MIN_FLOPS_PER_THREAD * 100), 8);
        assert_eq!(Threads::exact(1).for_flops(usize::MAX), 1);
    }

    #[test]
    fn run_indexed_preserves_order() {
        for threads in [1, 2, 8] {
            let out = run_indexed(threads, 33, |i| i * i);
            assert_eq!(out, (0..33).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_indexed_handles_empty_and_single() {
        assert!(run_indexed(4, 0, |i| i).is_empty());
        assert_eq!(run_indexed(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn run_indexed_propagates_panics() {
        run_indexed(2, 8, |i| {
            if i == 5 {
                panic!("worker boom");
            }
            i
        });
    }

    #[test]
    fn par_map_mut_orders_results_and_mutates() {
        for threads in [1, 2, 4, 16] {
            let mut items: Vec<usize> = (0..13).collect();
            let out = par_map_mut(threads, &mut items, |i, v| {
                *v += 100;
                i * 2
            });
            assert_eq!(out, (0..13).map(|i| i * 2).collect::<Vec<_>>());
            assert_eq!(items, (100..113).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_chunks_visits_every_chunk_once() {
        for threads in [1, 2, 3, 8] {
            let mut data = vec![0usize; 7 * 4];
            par_chunks(threads, &mut data, 4, |i, chunk| {
                for v in chunk.iter_mut() {
                    *v += i + 1;
                }
            });
            for (i, chunk) in data.chunks(4).enumerate() {
                assert!(chunk.iter().all(|&v| v == i + 1));
            }
        }
    }

    #[test]
    fn par_chunk_bands_covers_whole_chunks() {
        for threads in [1, 2, 3, 8] {
            let mut data = vec![0usize; 7 * 4];
            par_chunk_bands(threads, &mut data, 4, |first, band| {
                assert!(band.len().is_multiple_of(4));
                for (i, chunk) in band.chunks_mut(4).enumerate() {
                    for v in chunk.iter_mut() {
                        *v = first + i + 1;
                    }
                }
            });
            for (i, chunk) in data.chunks(4).enumerate() {
                assert!(chunk.iter().all(|&v| v == i + 1), "chunk {i}");
            }
        }
    }

    #[test]
    fn par_bands_covers_all_offsets() {
        for threads in [1, 2, 5, 16] {
            let mut data = vec![0usize; 23];
            par_bands(threads, &mut data, |start, band| {
                for (i, v) in band.iter_mut().enumerate() {
                    *v = start + i;
                }
            });
            assert_eq!(data, (0..23).collect::<Vec<_>>());
        }
    }
}
