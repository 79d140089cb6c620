//! Cross-thread-count determinism for the tiled-crossbar NoC fan-out.
//!
//! The per-tile MVMs and their converters run concurrently (phase 1) and
//! draw nothing at random; transient upsets, buffer noise and the ledger
//! see the partial sums in fixed tile order (phase 2). A freshly programmed array
//! must therefore produce **bit-for-bit** identical outputs — and an
//! identical cost ledger — at every worker count.
//!
//! These tests run under the `memlp-lint` regime like all other code:
//! the `concurrency::primitive` rule scans test files too, so any
//! threading primitive used here (rather than going through
//! `parallel::with_threads`) would be a deny finding. The pool's own
//! internals carry the workspace's only reasoned allows.

use memlp_crossbar::CrossbarConfig;
use memlp_linalg::parallel::with_threads;
use memlp_linalg::Matrix;
use memlp_noc::{NocConfig, TiledCrossbar};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: [usize; 3] = [1, 2, 8];

/// Nonnegative, diagonally dominant matrix (crossbar-programmable and
/// well-conditioned for the composite solve).
fn dominant_matrix(n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(n, n, |i, j| {
        let v: f64 = rng.random_range(0.05..1.0);
        if i == j {
            v + 2.0 * n as f64
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

/// A noisy (variation + buffer noise) tiled array over `a`, identically
/// seeded on every call.
fn noisy_tiled(a: &Matrix, tile_side: usize) -> TiledCrossbar {
    let cfg = CrossbarConfig::paper_default()
        .with_variation(10.0)
        .with_seed(99);
    let noc = NocConfig::hierarchical().with_buffer_noise(1e-3);
    TiledCrossbar::program(a, tile_side, cfg, noc).expect("programmable matrix")
}

#[test]
fn tiled_mvm_is_bitwise_thread_invariant() {
    let a = dominant_matrix(30, 1);
    let x = random_vec(30, 2);
    let reference = with_threads(1, || {
        let mut t = noisy_tiled(&a, 8);
        (t.mvm(&x).unwrap(), t.ledger())
    });
    for threads in THREADS {
        let (y, ledger) = with_threads(threads, || {
            let mut t = noisy_tiled(&a, 8);
            (t.mvm(&x).unwrap(), t.ledger())
        });
        assert_eq!(
            bits(&y),
            bits(&reference.0),
            "mvm differs at {threads} threads"
        );
        assert_eq!(ledger, reference.1, "ledger differs at {threads} threads");
    }
}

#[test]
fn tiled_solve_is_bitwise_thread_invariant() {
    let a = dominant_matrix(27, 3);
    let b = random_vec(27, 4);
    let reference = with_threads(1, || noisy_tiled(&a, 7).solve(&b).unwrap());
    for threads in THREADS {
        let x = with_threads(threads, || noisy_tiled(&a, 7).solve(&b).unwrap());
        assert_eq!(
            bits(&x),
            bits(&reference),
            "solve differs at {threads} threads"
        );
    }
}

#[test]
fn repeated_mvms_replay_the_same_noise_stream_at_any_thread_count() {
    // Two MVMs on one array advance the tile and buffer RNG streams; the
    // full event sequence must still be scheduling-independent.
    let a = dominant_matrix(20, 7);
    let x1 = random_vec(20, 8);
    let x2 = random_vec(20, 9);
    let run = || {
        let mut t = noisy_tiled(&a, 6);
        let y1 = t.mvm(&x1).unwrap();
        let y2 = t.mvm(&x2).unwrap();
        (y1, y2)
    };
    let reference = with_threads(1, run);
    for threads in THREADS {
        let (y1, y2) = with_threads(threads, run);
        assert_eq!(
            bits(&y1),
            bits(&reference.0),
            "first mvm differs at {threads} threads"
        );
        assert_eq!(
            bits(&y2),
            bits(&reference.1),
            "second mvm differs at {threads} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tiled_mvm_any_shape_is_bitwise_thread_invariant(
        (n, tile_side, seed) in (4usize..28, 3usize..9, 0u64..500),
    ) {
        let a = dominant_matrix(n, seed);
        let x = random_vec(n, seed ^ 0x0a11);
        let reference = with_threads(1, || noisy_tiled(&a, tile_side).mvm(&x).unwrap());
        for threads in THREADS {
            let y = with_threads(threads, || noisy_tiled(&a, tile_side).mvm(&x).unwrap());
            prop_assert_eq!(bits(&y), bits(&reference));
        }
    }
}
