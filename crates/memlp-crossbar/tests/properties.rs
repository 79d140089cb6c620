//! Property-based tests for the crossbar simulator.

use memlp_crossbar::{Crossbar, CrossbarConfig, Quantizer};
use memlp_linalg::Matrix;
use proptest::prelude::*;

fn nonneg_matrix(side: usize, seed: u64) -> Matrix {
    Matrix::from_fn(side, side, |i, j| {
        let h = (i as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(j as u64)
            .wrapping_mul(1442695040888963407)
            .wrapping_add(seed);
        0.05 + (h % 1000) as f64 / 1000.0 + if i == j { 2.0 } else { 0.0 }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Quantization never moves a value by more than half a step of its
    /// vector's full-scale range.
    #[test]
    fn quantizer_error_bound(bits in 2u32..16, values in proptest::collection::vec(-1e3f64..1e3, 1..64)) {
        let q = Quantizer::new(bits);
        let full = values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let out = q.quantize_vec(&values);
        for (a, b) in values.iter().zip(&out) {
            prop_assert!((a - b).abs() <= q.max_error(full) + 1e-12);
        }
    }

    /// Quantization is idempotent and order-preserving.
    #[test]
    fn quantizer_idempotent_monotone(bits in 2u32..12, mut values in proptest::collection::vec(-10.0f64..10.0, 2..32)) {
        let q = Quantizer::new(bits);
        let once = q.quantize_vec(&values);
        let twice = q.quantize_vec(&once);
        prop_assert_eq!(&once, &twice);
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let sorted_q = q.quantize_vec(&values);
        for w in sorted_q.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
    }

    /// Realized values stay inside the Eqn-18 variation band (widened by
    /// the 12-bit write-code rounding of `paper_default`), also when the
    /// matrix is smaller than the array.
    #[test]
    fn realized_within_variation_band(side in 2usize..12, spare in 0usize..4, var in 0.0f64..25.0, seed in 0u64..1000) {
        let a = nonneg_matrix(side, seed);
        let cfg = CrossbarConfig::paper_default().with_variation(var).with_seed(seed);
        let mut xb = Crossbar::new(side + spare, cfg).unwrap();
        xb.program(&a).unwrap();
        let r = xb.realized().unwrap();
        let frac = var / 100.0;
        let band = frac + (1.0 + frac) / 4096.0;
        for i in 0..side {
            for j in 0..side {
                let t = a[(i, j)];
                prop_assert!((r[(i, j)] - t).abs() <= band * t + 1e-12,
                    "cell ({}, {}): {} vs {} at {}%", i, j, r[(i, j)], t, var);
            }
        }
    }

    /// Solve then multiply returns the (quantized) right-hand side on
    /// ideal hardware.
    #[test]
    fn solve_mvm_roundtrip_ideal(side in 2usize..10, seed in 0u64..500) {
        let a = nonneg_matrix(side, seed);
        let mut xb = Crossbar::new(side, CrossbarConfig::ideal().with_seed(seed)).unwrap();
        xb.program(&a).unwrap();
        let b: Vec<f64> = (0..side).map(|i| 1.0 + (i % 3) as f64).collect();
        let x = xb.solve(&b).unwrap();
        let back = a.matvec(&x);
        for (g, w) in back.iter().zip(&b) {
            prop_assert!((g - w).abs() < 5e-3 * w.abs().max(1.0), "{} vs {}", g, w);
        }
    }

    /// Programming charges every cell; each updated cell is one pulse or,
    /// when delta programming finds its code unchanged (a repeated
    /// update), one skip — independent of values.
    #[test]
    fn ledger_write_accounting(side in 2usize..10, updates in 0usize..20, seed in 0u64..100) {
        let a = nonneg_matrix(side, seed);
        let mut xb = Crossbar::new(side, CrossbarConfig::paper_default().with_seed(seed)).unwrap();
        xb.program(&a).unwrap();
        let cells: Vec<(usize, usize, f64)> =
            (0..updates).map(|k| (k % side, (k * 7) % side, 0.5)).collect();
        xb.update_cells(&cells).unwrap();
        let c = xb.ledger().counts();
        prop_assert_eq!(c.setup_writes, (side * side) as u64);
        prop_assert_eq!(c.update_writes + c.skipped_writes, updates as u64);
    }
}
