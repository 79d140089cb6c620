//! Property tests for the NoC-tiled transposed MVM — the entry point the
//! analog PDHG backend uses for `Aᵀy` without a second array program.
//!
//! The contract: the tiled analog `Aᵀy` must agree with a **digital CSR
//! transpose-multiply of the assembled realized matrix** to within the
//! converter quantization budget. The realized matrix (post
//! write-quantization, variation, and stuck faults) is the ground truth —
//! the analog array multiplies by what its cells actually store, so
//! variation and an active [`FaultModel`] plan shift *both* sides
//! identically and only the DAC/ADC grids separate them:
//!
//! * each tile's input segment is DAC-quantized against its own full
//!   scale (error ≤ `f_y / 2L_dac` per entry, amplified by the tile's
//!   column absolute sums), and
//! * each tile's partial output is ADC-quantized against its own full
//!   scale (error ≤ `f_p / 2L_adc` per entry, one contribution per row
//!   block).
//!
//! The bound below is assembled per output component from exactly those
//! two terms, so it is tight in the number of row blocks and never hides
//! a realized-value mismatch. A second property pins bitwise thread
//! invariance of the transposed fan-in, mirroring the forward-MVM
//! guarantee in `threaded.rs`.

use memlp_crossbar::{CrossbarConfig, FaultModel, Quantizer};
use memlp_linalg::parallel::with_threads;
use memlp_linalg::{Matrix, SparseMatrix};
use memlp_noc::{NocConfig, TiledCrossbar};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: [usize; 3] = [1, 2, 8];

/// Nonnegative matrix (crossbar-programmable) with a sparsity mix.
fn coeff_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.random_range(0.0..1.0) < 0.3 {
            0.0
        } else {
            rng.random_range(0.05..3.0)
        }
    })
}

fn drive_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random_range(-1.0..1.0)).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Per-component error budget separating the tiled analog `Aᵀy` from the
/// digital transpose-multiply of the realized matrix: one DAC term and
/// one ADC term per row block, assembled from the realized coefficients.
fn quantization_budget(
    realized: &Matrix,
    y: &[f64],
    tile_side: usize,
    cfg: &CrossbarConfig,
) -> Vec<f64> {
    let dac = Quantizer::new(cfg.dac_bits);
    let adc = Quantizer::new(cfg.adc_bits);
    let (rows, cols) = (realized.rows(), realized.cols());
    let row_blocks = rows.div_ceil(tile_side);
    let col_blocks = cols.div_ceil(tile_side);
    let mut budget = vec![1e-12; cols];
    for bi in 0..row_blocks {
        let r0 = bi * tile_side;
        let r1 = (r0 + tile_side).min(rows);
        // DAC full scale of this row block's input segment.
        let f_y = y[r0..r1].iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let dac_step = dac.max_error(f_y);
        for bj in 0..col_blocks {
            let c0 = bj * tile_side;
            let c1 = (c0 + tile_side).min(cols);
            // ADC full scale of this tile's partial output is bounded by
            // the largest column absolute sum times the input full scale.
            let mut partial_fs = 0.0f64;
            for c in c0..c1 {
                let col_abs: f64 = (r0..r1).map(|r| realized[(r, c)].abs()).sum();
                partial_fs = partial_fs.max(col_abs * f_y);
                budget[c] += col_abs * dac_step;
            }
            let adc_step = adc.max_error(partial_fs);
            for b in budget[c0..c1].iter_mut() {
                *b += adc_step;
            }
        }
    }
    budget
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tiled analog `Aᵀy` agrees with the digital CSR transpose-multiply
    /// of the assembled realized matrix within the DAC/ADC budget —
    /// with device variation and an active stuck-cell fault plan.
    #[test]
    fn tiled_transpose_matches_digital_csr_within_adc_bounds(
        (rows, cols, tile_side, seed) in (4usize..20, 4usize..20, 3usize..8, 0u64..500),
        stuck_on in 0.0f64..0.05,
        stuck_off in 0.0f64..0.05,
    ) {
        let a = coeff_matrix(rows, cols, seed);
        let y = drive_vector(rows, seed ^ 0x7a11);
        let cfg = CrossbarConfig::paper_default()
            .with_variation(5.0)
            .with_faults(FaultModel::new(stuck_on, stuck_off).expect("valid rates"))
            .with_seed(seed.wrapping_mul(0x9e37).wrapping_add(7));
        let noc = NocConfig::hierarchical().with_buffer_noise(0.0);
        let mut t = TiledCrossbar::program(&a, tile_side, cfg, noc).expect("programmable");

        let analog = t.mvm_transposed(&y).expect("transposed MVM");
        let realized = t.assembled_realized();
        let digital = SparseMatrix::from_dense(&realized).matvec_transposed(&y);
        let budget = quantization_budget(&realized, &y, tile_side, &cfg);

        for (c, ((got, want), tol)) in analog.iter().zip(&digital).zip(&budget).enumerate() {
            prop_assert!(
                (got - want).abs() <= *tol,
                "component {c}: analog {got} vs digital {want}, budget {tol}"
            );
        }
    }

    /// The transposed fan-in is bitwise identical at every worker count,
    /// like the forward MVM: tiles own positional RNG streams and the
    /// NoC accumulation replays in fixed tile order.
    #[test]
    fn tiled_transpose_is_bitwise_thread_invariant(
        (rows, cols, tile_side, seed) in (4usize..20, 4usize..20, 3usize..8, 0u64..500),
    ) {
        let a = coeff_matrix(rows, cols, seed);
        let y = drive_vector(rows, seed ^ 0x0a11);
        let run = || {
            let cfg = CrossbarConfig::paper_default()
                .with_variation(10.0)
                .with_seed(99);
            let noc = NocConfig::hierarchical().with_buffer_noise(1e-3);
            let mut t = TiledCrossbar::program(&a, tile_side, cfg, noc).expect("programmable");
            t.mvm_transposed(&y).expect("transposed MVM")
        };
        let reference = with_threads(1, run);
        for threads in THREADS {
            let x = with_threads(threads, run);
            prop_assert_eq!(bits(&x), bits(&reference), "differs at {} threads", threads);
        }
    }
}
