//! Bitwise equivalence of the register-tiled microkernels against the
//! plain reference loops (DESIGN.md §14).
//!
//! The kernels module promises that tiling is a *scheduling* choice, not a
//! numerics choice: every reduction uses the same fixed 4-lane tree as
//! `ops::dot` whether rows run in `MR`-tall tiles or one at a time, and
//! every update kernel accumulates k-sequentially into the current `C`
//! value exactly like the plain i-k-j loop. These tests pin that promise
//! bit-for-bit at two levels:
//!
//! * the kernels themselves, `tiled = true` against `tiled = false`, on
//!   random shapes 1..=26 — every remainder class of `MR` = `NR` = 4, so
//!   every 2- and 1-wide edge panel and 2- and 1-row edge tile, including
//!   shapes with no whole main tile at all — on the LU trailing-update
//!   form (negated packed `A`, `C` wider than the update), on Algorithm
//!   1's k × 3k × k Schur shapes around the paper's k = 42, and on a `B`
//!   that spans several packed column blocks with a ragged last one;
//! * the `Matrix` and `LuFactors` entry points on shapes above
//!   `TILE_CUTOFF_FLOPS`, so the tiled path production takes is compared
//!   against reference loops written out here.

use memlp_linalg::kernels::{self, TILE_CUTOFF_FLOPS};
use memlp_linalg::{ops, LuFactors, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.random_range(-1.0..1.0))
}

fn dominant_matrix(n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(n, n, |i, j| {
        let v: f64 = rng.random_range(-1.0..1.0);
        if i == j {
            v + n as f64
        } else {
            v
        }
    })
}

fn random_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random_range(-1.0..1.0)).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `gemm_acc(true, …)` against `gemm_acc(false, …)` on one shape.
fn assert_gemm_tiled_matches_plain(rows: usize, n: usize, k: usize, seed: u64) {
    let a = random_vec(rows * k, seed);
    let b = random_vec(k * n, seed ^ 0x9e77);
    let c = random_vec(rows * n, seed ^ 0xc0de);
    let update = |tiled: bool| {
        let mut out = c.clone();
        kernels::gemm_acc(tiled, &mut out, n, &a, k, &b, n, rows, n, k);
        out
    };
    assert_eq!(bits(&update(true)), bits(&update(false)), "{rows}x{k}x{n}");
}

// --- Kernel level: tiled against plain on every remainder class.

proptest! {
    #[test]
    fn matvec_rows_tiled_matches_plain(
        (rows, cols, seed) in (1usize..=26, 1usize..=26, 0u64..1000),
    ) {
        let a = random_vec(rows * cols, seed);
        let x = random_vec(cols, seed ^ 0x711e);
        let mut plain = vec![0.0; rows];
        let mut tiled = vec![0.0; rows];
        kernels::matvec_rows(false, &a, cols, &x, &mut plain);
        kernels::matvec_rows(true, &a, cols, &x, &mut tiled);
        prop_assert_eq!(bits(&tiled), bits(&plain));
    }

    #[test]
    fn gemm_acc_tiled_matches_plain(
        (rows, n, k, seed) in (1usize..=26, 1usize..=26, 1usize..=26, 0u64..1000),
    ) {
        assert_gemm_tiled_matches_plain(rows, n, k, seed);
    }

    /// The LU trailing update's call: `A` is the negated packed `L₂₁`
    /// panel and `C` the trailing columns of rows `ldc > n` wide, entered
    /// at a column offset. Columns left of the update stay untouched.
    #[test]
    fn gemm_acc_trailing_update_form_matches_plain(
        (rows, n, k, extra, seed) in
            (1usize..=26, 1usize..=26, 1usize..=26, 1usize..=9, 0u64..1000),
    ) {
        let ldc = n + extra;
        let neg_l: Vec<f64> = random_vec(rows * k, seed).iter().map(|v| -v).collect();
        let u = random_vec(k * n, seed ^ 0x1a57);
        let c = random_vec(rows * ldc, seed ^ 0xc0de);
        let update = |tiled: bool| {
            let mut out = c.clone();
            kernels::gemm_acc(tiled, &mut out[extra..], ldc, &neg_l, k, &u, n, rows, n, k);
            out
        };
        let tiled = update(true);
        prop_assert_eq!(bits(&tiled), bits(&update(false)));
        for i in 0..rows {
            let left = i * ldc..i * ldc + extra;
            prop_assert_eq!(bits(&tiled[left.clone()]), bits(&c[left]));
        }
    }
}

/// Shapes the random sweep above cannot reach:
///
/// * Algorithm 1's Schur product `S = L·(R/e)`, k × 3k × k at the paper's
///   m = 128 (k = m/3 = 42), with every remainder class of the tile
///   around it;
/// * a `k` deep enough that the pack budget holds two `NR`-wide panels,
///   so `B` packs in blocks of `2·NR` columns and the last of three
///   blocks is ragged: its 2- and 1-wide edge panels sit in a block after
///   the first.
#[test]
fn gemm_acc_fixed_shapes_match_plain() {
    for k in [41, 42, 43] {
        assert_gemm_tiled_matches_plain(k, k, 3 * k, k as u64);
    }
    let deep = kernels::PACK_BUDGET_BYTES / 8 / (2 * kernels::NR);
    assert_gemm_tiled_matches_plain(kernels::MR + 3, 4 * kernels::NR + 3, deep, 48);
}

// --- Entry level: shapes above the cutoff against inline reference loops.

#[test]
fn matvec_matches_dot_per_row() {
    let (rows, cols) = (257, 131);
    assert!(2 * rows * cols >= TILE_CUTOFF_FLOPS);
    let a = random_matrix(rows, cols, 40);
    let x = random_vec(cols, 41);
    let reference: Vec<f64> = (0..rows).map(|i| ops::dot(a.row(i), &x)).collect();
    assert_eq!(bits(&a.matvec(&x)), bits(&reference));
}

#[test]
fn matmul_matches_ikj_accumulation() {
    let (m, k, n) = (67, 45, 53);
    assert!(2 * m * k * n >= TILE_CUTOFF_FLOPS);
    let a = random_matrix(m, k, 42);
    let b = random_matrix(k, n, 43);
    let mut reference = vec![0.0; m * n];
    for i in 0..m {
        for kk in 0..k {
            let aik = a[(i, kk)];
            for j in 0..n {
                reference[i * n + j] += aik * b[(kk, j)];
            }
        }
    }
    assert_eq!(bits(a.matmul(&b).unwrap().as_slice()), bits(&reference));
}

#[test]
fn scaled_gram_matches_dot_of_scaled_rows() {
    let (m, n) = (66, 47);
    assert!(m * m * n >= TILE_CUTOFF_FLOPS);
    let a = random_matrix(m, n, 46);
    let d: Vec<f64> = random_vec(n, 47).iter().map(|v| v.abs() + 0.1).collect();
    let mut reference = vec![0.0; m * m];
    for i in 0..m {
        let scaled: Vec<f64> = a.row(i).iter().zip(&d).map(|(v, di)| v * di).collect();
        for k in i..m {
            let v = ops::dot(a.row(k), &scaled);
            reference[i * m + k] = v;
            reference[k * m + i] = v;
        }
    }
    assert_eq!(bits(a.scaled_gram(&d).as_slice()), bits(&reference));
}

/// n = 129 crosses the LU panel width, so the tiled trailing update runs
/// on a multi-panel factorization with ragged remainders. The reference is
/// unblocked right-looking elimination, which applies the same updates to
/// every element in the same order as the blocked factorization.
#[test]
fn lu_matches_unblocked_elimination() {
    let n = 129;
    let a = dominant_matrix(n, 44);
    let b = random_vec(n, 45);
    let mut lu = a.clone();
    let mut x = b.clone();
    for j in 0..n {
        let mut p = j;
        for i in j + 1..n {
            if lu[(i, j)].abs() > lu[(p, j)].abs() {
                p = i;
            }
        }
        lu.swap_rows(p, j);
        x.swap(p, j);
        let inv_pivot = 1.0 / lu[(j, j)];
        for i in j + 1..n {
            let lij = lu[(i, j)] * inv_pivot;
            lu[(i, j)] = lij;
            for c in j + 1..n {
                let u = lu[(j, c)];
                lu[(i, c)] -= lij * u;
            }
        }
    }
    for i in 1..n {
        x[i] -= ops::dot(&lu.row(i)[..i], &x[..i]);
    }
    for i in (0..n).rev() {
        let s = ops::dot(&lu.row(i)[i + 1..], &x[i + 1..]);
        x[i] = (x[i] - s) / lu[(i, i)];
    }
    let got = LuFactors::factor(a).unwrap().solve(&b).unwrap();
    assert_eq!(bits(&got), bits(&x));
}
