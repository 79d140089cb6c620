//! Cross-thread-count determinism for the parallel dense kernels.
//!
//! Every kernel in this crate partitions its work into fixed index ranges
//! that depend only on the problem shape, with the per-element arithmetic
//! order unchanged inside each range — so results must be **bit-for-bit**
//! identical at every worker count. These tests pin that contract at
//! thread budgets {1, 2, 8}: small shapes via property tests (plumbing and
//! partition edge cases), and fixed large shapes that actually clear the
//! `MIN_FLOPS_PER_THREAD` cutoff and fan out.
//!
//! These tests run under the `memlp-lint` regime like all other code:
//! the `concurrency::primitive` rule scans test files too, so any
//! threading primitive used here (rather than going through
//! `parallel::with_threads`) would be a deny finding. The pool's own
//! internals carry the workspace's only reasoned allows.

use memlp_linalg::parallel::with_threads;
use memlp_linalg::{LuFactors, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: [usize; 3] = [1, 2, 8];

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.random_range(-1.0..1.0))
}

/// Diagonally dominant square matrix (LU never hits a zero pivot).
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

/// Runs `f` under each thread budget and asserts all outputs are
/// bit-identical to the single-thread result.
fn assert_bitwise_invariant(label: &str, f: impl Fn() -> Vec<f64>) {
    let reference = with_threads(1, &f);
    for t in THREADS {
        let got = with_threads(t, &f);
        assert_eq!(
            bits(&got),
            bits(&reference),
            "{label}: thread count {t} changed the result"
        );
    }
}

// --- Large shapes: genuinely above the flop cutoff, so the multi-worker
// --- paths execute (matvec at 512² fans out to 8 workers; the LU trailing
// --- update crosses the cutoff from the first panel at n = 256).

#[test]
fn matvec_large_is_bitwise_thread_invariant() {
    let a = random_matrix(512, 512, 1);
    let x = random_vec(512, 2);
    assert_bitwise_invariant("matvec 512x512", || a.matvec(&x));
}

#[test]
fn matvec_transposed_large_is_bitwise_thread_invariant() {
    let a = random_matrix(384, 640, 3);
    let x = random_vec(384, 4);
    assert_bitwise_invariant("matvec_transposed 384x640", || a.matvec_transposed(&x));
}

#[test]
fn matmul_large_is_bitwise_thread_invariant() {
    let a = random_matrix(160, 192, 5);
    let b = random_matrix(192, 128, 6);
    assert_bitwise_invariant("matmul 160x192·192x128", || {
        a.matmul(&b).unwrap().as_slice().to_vec()
    });
}

#[test]
fn scaled_gram_large_is_bitwise_thread_invariant() {
    let a = random_matrix(160, 120, 7);
    let d: Vec<f64> = random_vec(120, 8).iter().map(|v| v.abs() + 0.1).collect();
    assert_bitwise_invariant("scaled_gram 160x120", || {
        a.scaled_gram(&d).as_slice().to_vec()
    });
}

#[test]
fn lu_factor_and_solve_large_are_bitwise_thread_invariant() {
    let a = dominant_matrix(256, 9);
    let b = random_vec(256, 10);
    assert_bitwise_invariant("lu solve n=256", || {
        LuFactors::factor(a.clone()).unwrap().solve(&b).unwrap()
    });
}

// --- Ragged shapes above the tile cutoff: no dimension is a multiple of
// --- the register tile, so every band ends in remainder rows/columns and
// --- the edge tiles run alongside the main tiles at every thread count. Threading partitions rows into bands; tiling partitions each
// --- band's rows into MR-tall register tiles — neither changes the
// --- per-element reduction tree, so every thread budget lands on the same
// --- bits.

#[test]
fn matvec_ragged_is_bitwise_thread_invariant() {
    let a = random_matrix(509, 387, 20);
    let x = random_vec(387, 21);
    assert_bitwise_invariant("matvec 509x387", || a.matvec(&x));
}

#[test]
fn matmul_ragged_is_bitwise_thread_invariant() {
    let a = random_matrix(157, 93, 22);
    let b = random_matrix(93, 101, 23);
    assert_bitwise_invariant("matmul 157x93·93x101", || {
        a.matmul(&b).unwrap().as_slice().to_vec()
    });
    // Algorithm 1's Schur product at the paper's m = 128: k = m/3 = 42
    // leaves 2 edge columns and, per band, edge rows.
    let left = random_matrix(42, 128, 28);
    let scaled = random_matrix(128, 42, 29);
    assert_bitwise_invariant("matmul 42x128·128x42", || {
        left.matmul(&scaled).unwrap().as_slice().to_vec()
    });
}

#[test]
fn scaled_gram_ragged_is_bitwise_thread_invariant() {
    let a = random_matrix(131, 87, 24);
    let d: Vec<f64> = random_vec(87, 25).iter().map(|v| v.abs() + 0.1).collect();
    assert_bitwise_invariant("scaled_gram 131x87", || {
        a.scaled_gram(&d).as_slice().to_vec()
    });
}

#[test]
fn lu_solve_ragged_is_bitwise_thread_invariant() {
    let a = dominant_matrix(193, 26);
    let b = random_vec(193, 27);
    assert_bitwise_invariant("lu solve n=193", || {
        LuFactors::factor(a.clone()).unwrap().solve(&b).unwrap()
    });
}

// --- Small random shapes: the serial fallback plus every partition edge
// --- case (t > len, len % t ≠ 0, empty bands).

proptest! {
    #[test]
    fn matvec_any_shape_is_bitwise_thread_invariant(
        (rows, cols, seed) in (1usize..24, 1usize..24, 0u64..1000),
    ) {
        let a = random_matrix(rows, cols, seed);
        let x = random_vec(cols, seed ^ 0x5eed);
        let reference = with_threads(1, || a.matvec(&x));
        for t in THREADS {
            let got = with_threads(t, || a.matvec(&x));
            prop_assert_eq!(bits(&got), bits(&reference));
        }
    }

    #[test]
    fn matvec_transposed_any_shape_is_bitwise_thread_invariant(
        (rows, cols, seed) in (1usize..24, 1usize..24, 0u64..1000),
    ) {
        let a = random_matrix(rows, cols, seed);
        let x = random_vec(rows, seed ^ 0xdead);
        let reference = with_threads(1, || a.matvec_transposed(&x));
        for t in THREADS {
            let got = with_threads(t, || a.matvec_transposed(&x));
            prop_assert_eq!(bits(&got), bits(&reference));
        }
    }

    #[test]
    fn lu_solve_any_size_is_bitwise_thread_invariant(
        (n, seed) in (1usize..20, 0u64..1000),
    ) {
        let a = dominant_matrix(n, seed);
        let b = random_vec(n, seed ^ 0xb175);
        let reference = with_threads(1, || LuFactors::factor(a.clone()).unwrap().solve(&b).unwrap());
        for t in THREADS {
            let got = with_threads(t, || LuFactors::factor(a.clone()).unwrap().solve(&b).unwrap());
            prop_assert_eq!(bits(&got), bits(&reference));
        }
    }
}
