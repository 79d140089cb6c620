//! Property tests for zero-tile elision on the NoC-tiled crossbar.
//!
//! Two contracts from DESIGN.md §18, checked over *random* block-sparse
//! operands, tile shapes, and worker counts rather than hand-picked
//! fixtures:
//!
//! 1. **Elision is bitwise invisible.** On a fault-free fabric, `mvm` and
//!    `mvm_transposed` with elision on must produce bit-for-bit the same
//!    outputs as with elision off, at every thread count — a dead tile's
//!    contribution is an exact `±0.0`, a planned zero draws no variation
//!    deviate (so live cells keep their draws from the one stream), and
//!    the noise gating replays over the full grid geometry either way.
//! 2. **The occupancy index round-trips.** It is built from the planned
//!    coefficients at `program`.

use memlp_crossbar::CrossbarConfig;
use memlp_linalg::parallel::with_threads;
use memlp_linalg::Matrix;
use memlp_noc::{NocConfig, TiledCrossbar};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: [usize; 3] = [1, 2, 8];

/// Random live-block bitmap: each grid position is live with probability
/// ~0.5, so elided and populated tiles mix freely.
fn live_pattern(row_blocks: usize, col_blocks: usize, seed: u64) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB10C);
    (0..row_blocks * col_blocks)
        .map(|_| rng.random_range(0.0..1.0) < 0.5)
        .collect()
}

/// Nonnegative block-sparse matrix realizing `pattern` at `tile_side`
/// (live blocks dense, dead blocks exactly zero). Edge tiles are clipped
/// by choosing dimensions that are not multiples of the tile side.
fn block_sparse(rows: usize, cols: usize, tile_side: usize, pattern: &[bool], seed: u64) -> Matrix {
    let col_blocks = cols.div_ceil(tile_side);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0EF);
    Matrix::from_fn(rows, cols, |i, j| {
        if pattern[(i / tile_side) * col_blocks + j / tile_side] {
            rng.random_range(0.05..3.0)
        } else {
            0.0
        }
    })
}

fn drive_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD41E);
    (0..n).map(|_| rng.random_range(-1.0..1.0)).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A noisy (variation + buffer noise) array over `a`, identically seeded
/// on every call, with elision forced to `elide`.
fn tiled(a: &Matrix, tile_side: usize, seed: u64, elide: bool) -> TiledCrossbar {
    let cfg = CrossbarConfig::paper_default()
        .with_variation(10.0)
        .with_seed(seed)
        .with_tile_elision(elide);
    let noc = NocConfig::hierarchical().with_buffer_noise(1e-3);
    TiledCrossbar::program(a, tile_side, cfg, noc).expect("programmable matrix")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn elision_is_bitwise_invisible_across_thread_counts(
        seed in 0u64..1_000,
        tile_side in 4usize..12,
        row_blocks in 1usize..4,
        col_blocks in 1usize..4,
        row_clip in 0usize..3,
        col_clip in 0usize..3,
    ) {
        let rows = (row_blocks * tile_side).saturating_sub(row_clip).max(1);
        let cols = (col_blocks * tile_side).saturating_sub(col_clip).max(1);
        let pattern = live_pattern(
            rows.div_ceil(tile_side),
            cols.div_ceil(tile_side),
            seed,
        );
        let a = block_sparse(rows, cols, tile_side, &pattern, seed);
        let x = drive_vector(cols, seed);
        let y = drive_vector(rows, seed.wrapping_add(1));

        let reference = with_threads(1, || {
            let mut t = tiled(&a, tile_side, seed, false);
            (t.mvm(&x).unwrap(), t.mvm_transposed(&y).unwrap())
        });
        for threads in THREADS {
            for elide in [true, false] {
                let (got_ax, got_aty, live, grid) = with_threads(threads, || {
                    let mut t = tiled(&a, tile_side, seed, elide);
                    (
                        t.mvm(&x).unwrap(),
                        t.mvm_transposed(&y).unwrap(),
                        t.tile_count(),
                        t.grid_tile_count(),
                    )
                });
                prop_assert_eq!(
                    bits(&got_ax),
                    bits(&reference.0),
                    "mvm differs (elide={}, {} threads)",
                    elide,
                    threads
                );
                prop_assert_eq!(
                    bits(&got_aty),
                    bits(&reference.1),
                    "mvm_transposed differs (elide={}, {} threads)",
                    elide,
                    threads
                );
                let live_blocks = pattern.iter().filter(|l| **l).count();
                if elide {
                    prop_assert_eq!(live, live_blocks, "elided fabric is live tiles only");
                } else {
                    prop_assert_eq!(live, grid, "elision off fabricates the full grid");
                }
            }
        }
    }

    #[test]
    fn occupancy_round_trips_through_program(
        seed in 0u64..1_000,
        tile_side in 4usize..12,
        row_blocks in 1usize..4,
        col_blocks in 2usize..4,
    ) {
        let rows = row_blocks * tile_side;
        let cols = col_blocks * tile_side;
        let pattern = live_pattern(row_blocks, col_blocks, seed);
        let a = block_sparse(rows, cols, tile_side, &pattern, seed);
        let t = tiled(&a, tile_side, seed, true);

        // Program: the index mirrors the planned pattern exactly.
        for bi in 0..row_blocks {
            for bj in 0..col_blocks {
                prop_assert_eq!(
                    t.occupancy().is_live(bi, bj),
                    pattern[bi * col_blocks + bj],
                    "planned pattern lost at ({}, {})",
                    bi,
                    bj
                );
            }
        }
        prop_assert_eq!(t.tile_count(), pattern.iter().filter(|l| **l).count());
    }
}
