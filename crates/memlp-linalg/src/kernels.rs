//! Register-tiled, autovectorizer-friendly microkernels for the dense hot
//! paths (and the blocked CSR SpMV). There is one tile shape — [`MR`]-row
//! matvec tiles and [`MR`] × [`NR`] update tiles, whose 2- and 1-wide,
//! 2- and 1-row edge tiles cover the rest of the update's output — and
//! plain loops below [`TILE_CUTOFF_FLOPS`]; the `Matrix` and LU entry
//! points pick between the two from the operation's flop count alone.
//!
//! # Why tiles help on this workload
//!
//! The workspace forbids `unsafe`, so there are no intrinsics here: every
//! kernel is plain indexed Rust shaped so LLVM's autovectorizer emits SIMD.
//! The scalar kernels (one output element at a time, a single 4-lane
//! accumulator tree) already vectorize, but they are latency-bound: one
//! f64 add chain per lane leaves most of the FP pipes idle. A register
//! tile computes [`MR`] output rows (matvec) or an `MR × NR` output block
//! (matmul / LU trailing update) per pass, which
//!
//! 1. multiplies the number of independent accumulation chains (`MR × 4`
//!    lanes for matvec) so FP latency is hidden, and
//! 2. shares each loaded `x`/`B`-row chunk across all `MR` rows, cutting
//!    memory traffic per flop.
//!
//! # Determinism: tiled ≡ plain, at every thread count
//!
//! Every kernel obeys one discipline, inherited from [`crate::ops::dot`]:
//!
//! * **Reductions** (matvec, scaled-Gram rows, SpMV rows) use exactly four
//!   accumulator lanes — lane `l` sums the elements at indices
//!   `≡ l (mod 4)` in order — combined as `(s0 + s1) + (s2 + s3)`, with a
//!   sequential tail. The lane assignment is a pure function of the
//!   problem shape, never of the tiling or the thread count.
//! * **Updates** (matmul, LU trailing update) accumulate each output
//!   element sequentially over the inner `k` index, seeded from the
//!   element's current value. Tiling groups *outputs* into register
//!   blocks; it never reorders the per-element sum.
//!
//! Because per-element arithmetic order is fixed, the tiled kernels and
//! the plain loops below the flop cutoff are **bit-for-bit identical**,
//! and tiling composes freely with the fixed band partitions of
//! [`crate::parallel`]. The `kernel_properties` and `threaded` test
//! suites pin both properties.
//!
//! # Packing
//!
//! Kernels that cannot read their operands contiguously (the scaled-Gram
//! row scaling, the LU trailing update's strided `L21` panel) first pack
//! them into a reusable thread-local scratch buffer via
//! [`with_pack_buffer`] — the same buffer-recycling approach as the
//! solver-side scratch workspaces. [`gemm_acc`] packs its `B` panels into
//! a second thread-local buffer of its own, so a caller that holds the
//! first (the LU's negated `L21`) nests without allocating, and
//! steady-state iterations do not allocate.

use std::cell::Cell;

/// Accumulator lanes per reduction — the fixed fan-out of the workspace's
/// summation tree (see [`crate::ops::dot`]). Never varies with the tiling.
pub const LANES: usize = 4;

/// Output rows per register tile, for both matvec and the update kernel.
/// Chosen on the kernel microbench as the best all-round height (see
/// DESIGN.md §14).
pub const MR: usize = 4;

/// Output columns per [`gemm_acc`] main register tile. With `MR` = 4
/// this is 16 accumulators — what the baseline x86-64 target's sixteen
/// 2-lane vector registers hold beside a `B` row and the broadcast `A`
/// values; a 4×8 tile spills (see DESIGN.md §14).
pub const NR: usize = 4;

/// Flop count below which the tiled paths stand down and the plain
/// scalar loops run instead (dispatch and remainder handling cost more
/// than they save on tiny operands). Both paths are bitwise-identical, so
/// the cutoff only moves time.
pub const TILE_CUTOFF_FLOPS: usize = 2048;

/// Scratch budget for [`gemm_acc`]'s packed `B` column blocks. Sized to
/// the L2 a single worker can call its own on the machines this workspace
/// targets: big enough that the LU trailing update's whole `U₁₂`
/// (`panel width × remaining columns`, a few hundred KB up to the
/// [`DENSE`-guarded](crate) core sizes) packs in one block — the i-sweep
/// then streams `C` exactly once — while a worst-case square matmul
/// degrades to a few blocks instead of an unbounded allocation.
pub const PACK_BUDGET_BYTES: usize = 4 * 1024 * 1024;

thread_local! {
    /// Reusable packing scratch; taken/restored so nested users degrade to
    /// a fresh allocation instead of aliasing.
    static PACK: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
    /// [`gemm_acc`]'s packed `B` panels, kept apart from [`PACK`] so a
    /// caller holding that buffer (the LU's negated `L₂₁`) does not make
    /// every trailing update allocate.
    static PANELS: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// Hands `f` a zeroed scratch slice of length `len` drawn from a reusable
/// thread-local buffer. The buffer is *taken* for the duration of `f`, so
/// a nested call simply allocates fresh instead of aliasing; worker
/// threads of the parallel pool each carry their own buffer.
pub fn with_pack_buffer<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    PACK.with(|cell| {
        let mut buf = cell.take();
        buf.clear();
        buf.resize(len, 0.0);
        let out = f(&mut buf);
        cell.set(buf);
        out
    })
}

/// Hands `f` the first `len` elements of [`PANELS`], grown as needed but
/// not zeroed: [`gemm_acc`] writes every element it later reads.
fn with_panel_buffer<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    PANELS.with(|cell| {
        let mut buf = cell.take();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        let out = f(&mut buf[..len]);
        cell.set(buf);
        out
    })
}

// --- dense matvec -------------------------------------------------------

/// `y[r] = A[r, :] · x` for `y.len()` consecutive rows of a row-major
/// band `a` (row stride = `cols`), register-tiled [`MR`] rows at a time
/// when `tiled`, else one [`crate::ops::dot`] per row. Every row is an
/// independent 4-lane dot, so the result is bitwise independent of
/// `tiled`.
pub fn matvec_rows(tiled: bool, a: &[f64], cols: usize, x: &[f64], y: &mut [f64]) {
    let rows = y.len();
    debug_assert!(a.len() >= rows * cols);
    debug_assert_eq!(x.len(), cols);
    let mut i = 0;
    if tiled {
        while i + MR <= rows {
            matvec_tile(&a[i * cols..], cols, x, &mut y[i..i + MR]);
            i += MR;
        }
    }
    while i < rows {
        y[i] = crate::ops::dot(&a[i * cols..(i + 1) * cols], x);
        i += 1;
    }
}

/// One `MR`-row register tile: `MR × LANES` accumulators, one shared `x`
/// chunk per step. Per row this is exactly the [`crate::ops::dot`] lane
/// tree, so remainder rows handled by `dot` agree bitwise.
#[inline]
fn matvec_tile(a: &[f64], cols: usize, x: &[f64], y: &mut [f64]) {
    let chunks = cols / LANES;
    let mut acc = [[0.0f64; LANES]; MR];
    for c in 0..chunks {
        let b = c * LANES;
        let xc = &x[b..b + LANES];
        for r in 0..MR {
            let ac = &a[r * cols + b..r * cols + b + LANES];
            for l in 0..LANES {
                acc[r][l] += ac[l] * xc[l];
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        let mut s = (acc_r[0] + acc_r[1]) + (acc_r[2] + acc_r[3]);
        for j in LANES * chunks..cols {
            s += a[r * cols + j] * x[j];
        }
        y[r] = s;
    }
}

// --- matmul / trailing-update accumulation ------------------------------

/// `C[r, j] += Σ_k A[r, k] · B[k, j]` over `rows × n` outputs, with row
/// strides `ldc`/`lda`/`ldb` (`B` is read at column offset 0), in
/// register tiles when `tiled`, else by the plain i-k-j loop. Each output
/// element is seeded from its current value and accumulated
/// **sequentially over `k`**, so the result is bitwise independent of
/// `tiled`. The LU trailing update reuses this with a pre-negated packed
/// `A` (IEEE negation is exact, so `C += (−L)·U` is bitwise `C −= L·U`).
///
/// The tiled path packs `B` into `k`-row column panels, as many at a time
/// as fit [`PACK_BUDGET_BYTES`] of scratch, then sweeps the row tiles over
/// each packed column block. Tiles cover the whole output: [`MR`] × [`NR`]
/// main tiles, then 2- and 1-wide edge panels for the last `n mod NR`
/// columns and 2- and 1-row edge tiles for the last `rows mod MR` rows,
/// so no output element falls back to a scalar loop.
/// The pack fixes the `B` walk — an unpacked tile reads `B` at stride
/// `ldb` per `k` step, a fresh cache line (and, past ~4 KB rows, a fresh
/// page) every step, where packed panels stream linearly and are reused
/// by every row tile. The i-outer sweep inside a block keeps `C`'s access
/// prefetch-friendly: each tile's output rows are revisited across
/// consecutive panels rather than the whole `C` being re-strided per
/// panel (the large-`C` trailing update is latency-bound exactly there).
/// For the LU trailing shape (`k` = panel width, `B` a few hundred KB)
/// one block covers all of `B`. Packing is a pure copy, so it cannot
/// change the bits; tiles own disjoint outputs, so the block, panel and
/// tile order cannot either.
#[allow(clippy::too_many_arguments)]
pub fn gemm_acc(
    tiled: bool,
    c: &mut [f64],
    ldc: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    rows: usize,
    n: usize,
    k: usize,
) {
    debug_assert!(rows == 0 || c.len() >= (rows - 1) * ldc + n);
    debug_assert!(rows == 0 || a.len() >= (rows - 1) * lda + k);
    debug_assert!(k == 0 || b.len() >= (k - 1) * ldb + n);
    if !tiled {
        gemm_plain(c, ldc, a, lda, b, ldb, rows, n, k);
        return;
    }
    if rows == 0 || n == 0 || k == 0 {
        return;
    }
    // Whole NR-panels per column block, at least one even when a single
    // panel overruns the budget (`k` very large); the last block is
    // ragged and ends in the edge panels.
    let panels = (PACK_BUDGET_BYTES / 8 / (k * NR)).max(1);
    let jc = (panels * NR).min(n);
    with_panel_buffer(k * jc, |bp| {
        let mut jb = 0;
        while jb < n {
            let jw = jc.min(n - jb);
            // The panel of width `w` at block column `j` occupies
            // `bp[j·k..(j + w)·k]`, row stride `w`.
            let mut j = 0;
            while j < jw {
                let w = tile_step(jw - j, NR);
                let dst = &mut bp[j * k..(j + w) * k];
                for (kk, row) in dst.chunks_exact_mut(w).enumerate() {
                    let src = kk * ldb + jb + j;
                    row.copy_from_slice(&b[src..src + w]);
                }
                j += w;
            }
            let block = &bp[..k * jw];
            let mut i0 = 0;
            while i0 < rows {
                let r = tile_step(rows - i0, MR);
                let (ct, at) = (&mut c[i0 * ldc + jb..], &a[i0 * lda..]);
                match r {
                    MR => sweep::<MR>(ct, ldc, at, lda, block, k),
                    2 => sweep::<2>(ct, ldc, at, lda, block, k),
                    _ => sweep::<1>(ct, ldc, at, lda, block, k),
                }
                i0 += r;
            }
            jb += jw;
        }
    });
}

/// Size of the next tile along one dimension when `left` rows or columns
/// remain: a `full` main tile while one fits, then a 2- and a 1-edge.
#[inline]
fn tile_step(left: usize, full: usize) -> usize {
    match left {
        l if l >= full => full,
        l if l >= 2 => 2,
        _ => 1,
    }
}

/// Runs one band of `R` rows across a packed column block `bp` (laid out
/// by [`gemm_acc`], `k` rows per panel).
#[inline]
fn sweep<const R: usize>(c: &mut [f64], ldc: usize, a: &[f64], lda: usize, bp: &[f64], k: usize) {
    let jw = bp.len() / k;
    let mut j = 0;
    while j < jw {
        let w = tile_step(jw - j, NR);
        let (ct, panel) = (&mut c[j..], &bp[j * k..(j + w) * k]);
        match w {
            NR => gemm_tile::<R, NR>(ct, ldc, a, lda, panel),
            2 => gemm_tile::<R, 2>(ct, ldc, a, lda, panel),
            _ => gemm_tile::<R, 1>(ct, ldc, a, lda, panel),
        }
        j += w;
    }
}

/// Plain i-k-j accumulation over a `rows × n` output; [`gemm_acc`]'s
/// untiled path.
#[allow(clippy::too_many_arguments)]
fn gemm_plain(
    c: &mut [f64],
    ldc: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    rows: usize,
    n: usize,
    k: usize,
) {
    if n == 0 {
        return;
    }
    for i in 0..rows {
        let crow = &mut c[i * ldc..i * ldc + n];
        let arow = &a[i * lda..i * lda + k];
        for (kk, &aik) in arow.iter().enumerate() {
            let brow = &b[kk * ldb..kk * ldb + n];
            for (cij, &bkj) in crow.iter_mut().zip(brow) {
                *cij += aik * bkj;
            }
        }
    }
}

/// One `R × W` register tile of [`gemm_acc`]: `c` and `a` are pre-offset
/// to the tile's top-left corner (row strides `ldc`/`lda` still apply),
/// `bp` a packed `k × W` panel whose rows are shared across the `R` rows,
/// `k` strictly sequential.
#[inline]
fn gemm_tile<const R: usize, const W: usize>(
    c: &mut [f64],
    ldc: usize,
    a: &[f64],
    lda: usize,
    bp: &[f64],
) {
    let (panel, _) = bp.as_chunks::<W>();
    let k = panel.len();
    let mut acc = [[0.0f64; W]; R];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        acc_r.copy_from_slice(&c[r * ldc..r * ldc + W]);
    }
    let arows: [&[f64]; R] = std::array::from_fn(|r| &a[r * lda..r * lda + k]);
    for (kk, bc) in panel.iter().enumerate() {
        for (acc_r, ar) in acc.iter_mut().zip(&arows) {
            let ark = ar[kk];
            for (x, &bl) in acc_r.iter_mut().zip(bc) {
                *x += ark * bl;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        c[r * ldc..r * ldc + W].copy_from_slice(acc_r);
    }
}

// --- blocked CSR SpMV ---------------------------------------------------

/// One CSR row's dot product, blocked over the nonzero span: the same
/// fixed 4-lane tree as [`crate::ops::dot`], with gathered `x` loads.
/// Four independent chains hide the gather + FP-add latency that made the
/// single-accumulator loop serial. CSR rows have one kernel, so there is
/// no tiled/plain choice to make.
#[inline]
pub fn spmv_row(values: &[f64], col_idx: &[usize], x: &[f64]) -> f64 {
    debug_assert_eq!(values.len(), col_idx.len());
    let nnz = values.len();
    let chunks = nnz / LANES;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for cnk in 0..chunks {
        let p = cnk * LANES;
        s0 += values[p] * x[col_idx[p]];
        s1 += values[p + 1] * x[col_idx[p + 1]];
        s2 += values[p + 2] * x[col_idx[p + 2]];
        s3 += values[p + 3] * x[col_idx[p + 3]];
    }
    let mut s = (s0 + s1) + (s2 + s3);
    for p in LANES * chunks..nnz {
        s += values[p] * x[col_idx[p]];
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn seq(n: usize, scale: f64, shift: f64) -> Vec<f64> {
        (0..n).map(|i| (i as f64).mul_add(scale, shift)).collect()
    }

    #[test]
    fn pack_buffer_is_zeroed_and_reused() {
        with_pack_buffer(4, |b| b.fill(7.0));
        with_pack_buffer(8, |b| assert!(b.iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn matvec_rows_tiled_matches_dot() {
        let (rows, cols) = (13, 19); // crosses the MR and LANES boundaries
        let a = seq(rows * cols, 0.37, -3.0);
        let x = seq(cols, -0.11, 1.0);
        let mut reference = vec![0.0; rows];
        matvec_rows(false, &a, cols, &x, &mut reference);
        for i in 0..rows {
            assert_eq!(
                reference[i],
                crate::ops::dot(&a[i * cols..(i + 1) * cols], &x)
            );
        }
        let mut y = vec![0.0; rows];
        matvec_rows(true, &a, cols, &x, &mut y);
        assert_eq!(bits(&y), bits(&reference));
    }

    #[test]
    fn gemm_acc_tiled_matches_plain() {
        let (rows, n, k) = (11, 14, 9); // not multiples of MR or NR
        let a = seq(rows * k, 0.21, -1.0);
        let b = seq(k * n, -0.13, 0.5);
        let seed = seq(rows * n, 0.05, 0.2);
        let mut reference = seed.clone();
        gemm_acc(false, &mut reference, n, &a, k, &b, n, rows, n, k);
        let mut c = seed.clone();
        gemm_acc(true, &mut c, n, &a, k, &b, n, rows, n, k);
        assert_eq!(bits(&c), bits(&reference));
    }

    #[test]
    fn gemm_acc_respects_row_strides() {
        // Embed a 3x2 update inside wider C/A buffers (ldc/lda > n/k).
        let (rows, n, k, ldc, lda) = (3, 2, 4, 5, 7);
        let a = seq(rows * lda, 0.3, -0.7);
        let b = seq(k * n, 0.9, 0.1);
        let mut c = seq(rows * ldc, 0.0, 1.0);
        let untouched = c.clone();
        gemm_acc(true, &mut c, ldc, &a, lda, &b, n, rows, n, k);
        for i in 0..rows {
            for j in 0..n {
                let mut want = 1.0;
                for kk in 0..k {
                    want += a[i * lda + kk] * b[kk * n + j];
                }
                assert_eq!(c[i * ldc + j], want);
            }
            // Slack columns beyond n are untouched.
            for j in n..ldc {
                assert_eq!(c[i * ldc + j], untouched[i * ldc + j]);
            }
        }
    }

    #[test]
    fn spmv_row_matches_lane_tree() {
        let values = seq(11, 0.7, -2.0);
        let col_idx: Vec<usize> = (0..11).map(|p| (p * 3) % 17).collect();
        let x = seq(17, -0.2, 3.0);
        let gathered: Vec<f64> = col_idx.iter().map(|&j| x[j]).collect();
        assert_eq!(
            spmv_row(&values, &col_idx, &x).to_bits(),
            crate::ops::dot(&values, &gathered).to_bits()
        );
    }
}
