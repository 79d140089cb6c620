//! Property-based tests for the linear algebra substrate.

use memlp_linalg::{ops, solve, LuFactors, Matrix};
use proptest::prelude::*;

/// Strategy: a well-conditioned square matrix (random entries plus a strong
/// diagonal) of side 1..=12 and a matching right-hand side.
fn system_strategy() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    (1usize..=12).prop_flat_map(|n| {
        (
            proptest::collection::vec(-1.0f64..1.0, n * n),
            proptest::collection::vec(-10.0f64..10.0, n),
        )
            .prop_map(move |(entries, b)| {
                let mut a = Matrix::from_vec(n, n, entries).expect("sized buffer");
                for i in 0..n {
                    a[(i, i)] += n as f64 + 2.0;
                }
                (a, b)
            })
    })
}

proptest! {
    #[test]
    fn lu_solve_satisfies_system((a, b) in system_strategy()) {
        let x = solve(&a, &b).expect("well-conditioned");
        let r = ops::sub(&b, &a.matvec(&x));
        prop_assert!(ops::inf_norm(&r) < 1e-8 * ops::inf_norm(&b).max(1.0));
    }

    #[test]
    fn det_of_product_is_product_of_dets((a, _) in system_strategy(), (b0, _) in system_strategy()) {
        // Resize b0 to a's dimension by rebuilding when shapes differ.
        let n = a.rows();
        let b = if b0.rows() == n {
            b0
        } else {
            let mut m = Matrix::identity(n);
            for i in 0..n { m[(i, i)] = 2.0 + i as f64 * 0.1; }
            m
        };
        let da = LuFactors::factor(a.clone()).expect("a").det();
        let db = LuFactors::factor(b.clone()).expect("b").det();
        let dab = LuFactors::factor(a.matmul(&b).expect("product")).expect("ab").det();
        let scale = da.abs().max(db.abs()).max(1.0);
        prop_assert!((dab - da * db).abs() <= 1e-6 * scale * scale.max(db.abs()));
    }

    #[test]
    fn transpose_det_matches((a, _) in system_strategy()) {
        let d = LuFactors::factor(a.clone()).expect("a").det();
        let dt = LuFactors::factor(a.transpose()).expect("at").det();
        prop_assert!((d - dt).abs() <= 1e-8 * d.abs().max(1.0));
    }

    #[test]
    fn matvec_is_linear((a, b) in system_strategy(), alpha in -3.0f64..3.0) {
        let scaled: Vec<f64> = b.iter().map(|v| alpha * v).collect();
        let lhs = a.matvec(&scaled);
        let mut rhs = a.matvec(&b);
        ops::scale(alpha, &mut rhs);
        for (l, r) in lhs.iter().zip(&rhs) {
            prop_assert!((l - r).abs() < 1e-9 * r.abs().max(1.0));
        }
    }

    #[test]
    fn dot_cauchy_schwarz(x in proptest::collection::vec(-100.0f64..100.0, 0..64),
                          y in proptest::collection::vec(-100.0f64..100.0, 0..64)) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let d = ops::dot(x, y).abs();
        let bound = (ops::dot(x, x) * ops::dot(y, y)).sqrt();
        prop_assert!(d <= bound * (1.0 + 1e-9) + 1e-9);
    }

    #[test]
    fn inf_norm_triangle(x in proptest::collection::vec(-100.0f64..100.0, 1..64),
                         y in proptest::collection::vec(-100.0f64..100.0, 1..64)) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let s = ops::add(x, y);
        prop_assert!(ops::inf_norm(&s) <= ops::inf_norm(x) + ops::inf_norm(y) + 1e-12);
    }

    #[test]
    fn block_roundtrip(rows in 1usize..8, cols in 1usize..8, r0 in 0usize..4, c0 in 0usize..4) {
        let big = Matrix::from_fn(rows + r0 + 2, cols + c0 + 2, |i, j| (i * 31 + j) as f64);
        let blk = big.block(r0, c0, rows, cols);
        let mut copy = Matrix::zeros(big.rows(), big.cols());
        copy.set_block(r0, c0, &blk);
        prop_assert_eq!(copy.block(r0, c0, rows, cols), blk);
    }

    #[test]
    fn matmul_associative_small(n in 1usize..6) {
        let a = Matrix::from_fn(n, n, |i, j| ((i + j) % 5) as f64 - 2.0);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 2 + j) % 7) as f64 - 3.0);
        let c = Matrix::from_fn(n, n, |i, j| ((i + 3 * j) % 3) as f64);
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        for i in 0..n {
            for j in 0..n {
                prop_assert!((left[(i, j)] - right[(i, j)]).abs() < 1e-9);
            }
        }
    }
}
