//! Property-based tests for the CSR sparse matrix: construction from
//! triplets (including duplicates and explicit zeros), dense round-trips,
//! agreement of the sparse kernels with their dense counterparts, and the
//! block KKT matrix assembled straight into CSR.

use memlp_linalg::{BlockKkt, LuFactors, Matrix, SparseLu, SparseMatrix};
use proptest::prelude::*;

/// Strategy: arbitrary dimensions (1..=8 × 1..=8) with 0..=24 triplets,
/// duplicates and zero values allowed on purpose.
fn triplet_strategy() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (1usize..=8, 1usize..=8).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            (0..rows, 0..cols, prop_oneof![Just(0.0), -4.0f64..4.0]),
            0..=24,
        )
        .prop_map(move |ts| (rows, cols, ts))
    })
}

/// Strategy: a random dense matrix with many structural zeros.
fn sparse_dense_strategy() -> impl Strategy<Value = Matrix> {
    (1usize..=8, 1usize..=8).prop_flat_map(|(rows, cols)| {
        // Three zero arms to one value arm: ~75% structural zeros.
        proptest::collection::vec(
            prop_oneof![Just(0.0), Just(0.0), Just(0.0), -4.0f64..4.0],
            rows * cols,
        )
        .prop_map(move |entries| Matrix::from_vec(rows, cols, entries).expect("sized buffer"))
    })
}

/// Strategy: a strictly diagonally dominant sparse system (so the
/// static-pivot LU is guaranteed stable) with a right-hand side.
fn dominant_system_strategy() -> impl Strategy<Value = (SparseMatrix, Vec<f64>)> {
    (2usize..=7).prop_flat_map(|n| {
        let off = proptest::collection::vec(
            (0..n, 0..n, prop_oneof![Just(0.0), -2.0f64..2.0]),
            0..=3 * n,
        );
        let rhs = proptest::collection::vec(-3.0f64..3.0, n);
        (off, rhs).prop_map(move |(entries, b)| {
            let mut row_sum = vec![0.0f64; n];
            let mut ts: Vec<(usize, usize, f64)> = Vec::new();
            for (i, j, v) in entries {
                if i != j && v != 0.0 {
                    ts.push((i, j, v));
                    row_sum[i] += v.abs();
                }
            }
            for (i, s) in row_sum.iter().enumerate() {
                ts.push((i, i, s + 1.0));
            }
            let a = SparseMatrix::from_triplets(n, n, &ts).expect("in bounds");
            (a, b)
        })
    })
}

/// Strategy: a sparse `rows × cols` block with few entries, so empty rows
/// and columns are common.
fn block(rows: usize, cols: usize) -> impl Strategy<Value = SparseMatrix> {
    proptest::collection::vec(
        (0..rows, 0..cols, prop_oneof![-2.0f64..-0.1, 0.1f64..2.0]),
        0..=rows + cols,
    )
    .prop_map(move |ts| SparseMatrix::from_triplets(rows, cols, &ts).expect("in bounds"))
}

/// Strategy: KKT blocks `B` (`n×m`), an unrelated `C` (`m×n`), and
/// diagonals `p`, `q` in `[0.5, 2)`.
#[allow(clippy::type_complexity)]
fn kkt_strategy() -> impl Strategy<Value = (SparseMatrix, SparseMatrix, Vec<f64>, Vec<f64>)> {
    (1usize..=6, 1usize..=6).prop_flat_map(|(n, m)| {
        (
            block(n, m),
            block(m, n),
            proptest::collection::vec(0.5f64..2.0, n),
            proptest::collection::vec(0.5f64..2.0, m),
        )
    })
}

/// `[[diag(p), B], [C, −diag(q)]]` through the sorting triplet builder.
fn kkt_from_triplets(b: &SparseMatrix, c: &SparseMatrix, p: &[f64], q: &[f64]) -> SparseMatrix {
    let (n, m) = (b.rows(), b.cols());
    let mut ts: Vec<(usize, usize, f64)> = Vec::new();
    ts.extend(p.iter().enumerate().map(|(j, &v)| (j, j, v)));
    ts.extend(q.iter().enumerate().map(|(i, &v)| (n + i, n + i, -v)));
    ts.extend(b.iter().map(|(j, i, v)| (j, n + i, v)));
    ts.extend(c.iter().map(|(i, j, v)| (n + i, j, v)));
    SparseMatrix::from_triplets(n + m, n + m, &ts).expect("in bounds")
}

/// CSR arrays with the values as bit patterns.
fn csr_bits(a: &SparseMatrix) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
    (
        a.row_ptr().to_vec(),
        a.col_idx().to_vec(),
        a.values().iter().map(|v| v.to_bits()).collect(),
    )
}

fn scaled(a: &SparseMatrix, f: f64) -> SparseMatrix {
    let mut a = a.clone();
    for v in a.values_mut() {
        *v *= f;
    }
    a
}

/// Reference accumulation of triplets into a dense matrix.
fn accumulate(rows: usize, cols: usize, ts: &[(usize, usize, f64)]) -> Matrix {
    let mut d = Matrix::zeros(rows, cols);
    for &(i, j, v) in ts {
        d[(i, j)] += v;
    }
    d
}

proptest! {
    #[test]
    fn triplet_construction_matches_dense_accumulation(
        (rows, cols, ts) in triplet_strategy()
    ) {
        let s = SparseMatrix::from_triplets(rows, cols, &ts).expect("in bounds");
        prop_assert_eq!(s.to_dense(), accumulate(rows, cols, &ts));
        // Duplicates merge and zeros are pruned: never more stored entries
        // than triplets supplied, and never a stored zero.
        prop_assert!(s.nnz() <= ts.len());
        prop_assert!(s.iter().all(|(_, _, v)| v != 0.0));
        prop_assert!((0.0..=1.0).contains(&s.density()));
    }

    #[test]
    fn dense_round_trip_is_identity(d in sparse_dense_strategy()) {
        let s = SparseMatrix::from_dense(&d);
        prop_assert_eq!(s.to_dense(), d.clone());
        prop_assert_eq!(s.nnz(), d.as_slice().iter().filter(|&&v| v != 0.0).count());
    }

    #[test]
    fn matvec_agrees_with_dense(
        (rows, cols, ts) in triplet_strategy(),
        raw in proptest::collection::vec(-3.0f64..3.0, 8)
    ) {
        let s = SparseMatrix::from_triplets(rows, cols, &ts).expect("in bounds");
        let d = s.to_dense();
        let x = &raw[..cols];
        let y = &raw[..rows];
        // The dense kernel may accumulate in a blocked order, so agreement
        // is to rounding, not bitwise.
        for (a, b) in s.matvec(x).iter().zip(d.matvec(x)) {
            prop_assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "{a} vs {b}");
        }
        for (a, b) in s.matvec_transposed(y).iter().zip(d.matvec_transposed(y)) {
            prop_assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn rows_without_entries_produce_zero_outputs(
        cols in 1usize..=6,
        hit_row in 0usize..4,
        v in 0.5f64..4.0
    ) {
        // A single populated row in a 4-row matrix: all other outputs stay 0.
        let s = SparseMatrix::from_triplets(4, cols, &[(hit_row, 0, v)]).expect("in bounds");
        let y = s.matvec(&vec![1.0; cols]);
        for (i, yi) in y.iter().enumerate() {
            if i == hit_row {
                prop_assert_eq!(*yi, v);
            } else {
                prop_assert_eq!(*yi, 0.0);
            }
        }
    }

    #[test]
    fn iter_round_trips_through_triplets((rows, cols, ts) in triplet_strategy()) {
        let s = SparseMatrix::from_triplets(rows, cols, &ts).expect("in bounds");
        let rebuilt: Vec<(usize, usize, f64)> = s.iter().collect();
        let s2 = SparseMatrix::from_triplets(rows, cols, &rebuilt).expect("in bounds");
        prop_assert_eq!(s2, s);
    }

    #[test]
    fn transpose_round_trips_and_matches_dense(
        (rows, cols, ts) in triplet_strategy()
    ) {
        let s = SparseMatrix::from_triplets(rows, cols, &ts).expect("in bounds");
        let t = s.transpose();
        prop_assert_eq!(t.rows(), cols);
        prop_assert_eq!(t.cols(), rows);
        prop_assert_eq!(t.nnz(), s.nnz());
        prop_assert_eq!(t.to_dense(), s.to_dense().transpose());
        prop_assert_eq!(t.transpose(), s);
    }

    #[test]
    fn sparse_matmul_agrees_with_dense(
        (rows, inner, ts_a) in triplet_strategy(),
        ts_b in proptest::collection::vec(
            (0usize..8, 0usize..8, -4.0f64..4.0), 0..=24
        ),
        cols in 1usize..=8
    ) {
        let a = SparseMatrix::from_triplets(rows, inner, &ts_a).expect("in bounds");
        let kept: Vec<_> = ts_b
            .into_iter()
            .filter(|&(i, j, _)| i < inner && j < cols)
            .collect();
        let b = SparseMatrix::from_triplets(inner, cols, &kept).expect("in bounds");
        let want = a.to_dense().matmul(&b.to_dense()).expect("conforming");
        let got = a.matmul_sparse(&b).expect("conforming").to_dense();
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            prop_assert!((g - w).abs() <= 1e-10 * w.abs().max(1.0), "{g} vs {w}");
        }
    }

    #[test]
    fn sparse_lu_solves_match_dense_lu(
        (a, b) in dominant_system_strategy()
    ) {
        let lu = SparseLu::factor(&a).expect("diagonally dominant");
        let x = lu.solve(&b).expect("factored");
        let dense_x = memlp_linalg::LuFactors::factor(a.to_dense())
            .expect("nonsingular")
            .solve(&b)
            .expect("sized rhs");
        for (got, want) in x.iter().zip(&dense_x) {
            prop_assert!((got - want).abs() <= 1e-8 * want.abs().max(1.0), "{got} vs {want}");
        }
        // A purely diagonal draw eliminates nothing, so flops may be zero;
        // any off-diagonal entry forces real elimination work.
        if a.nnz() > a.rows() {
            prop_assert!(lu.flops() > 0);
        }
        prop_assert!(lu.factor_nnz() >= a.rows());
    }

    #[test]
    fn symbolic_reuse_refactors_correctly(
        (a, b) in dominant_system_strategy(),
        scales in proptest::collection::vec(0.5f64..1.5, 64)
    ) {
        // Same pattern, new values: the reused symbolic analysis must keep
        // the factor structure (identical fill) and still solve correctly.
        let mut lu = SparseLu::factor(&a).expect("diagonally dominant");
        let nnz_before = lu.factor_nnz();

        let mut a2 = a.clone();
        for (k, v) in a2.values_mut().iter_mut().enumerate() {
            *v *= scales[k % scales.len()];
        }
        // Restore row dominance so the static pivot order stays valid.
        let n = a2.rows();
        for i in 0..n {
            let off: f64 = a2
                .iter()
                .filter(|&(r, c, _)| r == i && c != i)
                .map(|(_, _, v)| v.abs())
                .sum();
            let lo = a2.row_ptr()[i];
            let slot = lo
                + a2.col_idx()[lo..a2.row_ptr()[i + 1]]
                    .iter()
                    .position(|&c| c == i)
                    .expect("diagonal present");
            a2.values_mut()[slot] = off + 1.0;
        }

        lu.refactor(&a2).expect("same pattern");
        prop_assert_eq!(lu.factor_nnz(), nnz_before, "fill changed under refactor");
        let x = lu.solve(&b).expect("refactored");
        for (got, want) in a2.matvec(&x).iter().zip(&b) {
            prop_assert!((got - want).abs() <= 1e-8 * want.abs().max(1.0), "{got} vs {want}");
        }

        // An entry outside the *analyzed* pattern is either rejected (it
        // escapes the factor's fill) or absorbed losslessly (it lands on a
        // fill position) — never silently mis-factored.
        let mut ts: Vec<_> = a.iter().collect();
        ts.push((0, n - 1, 0.25));
        ts.push((n - 1, 0, 0.25));
        let escape = SparseMatrix::from_triplets(n, n, &ts).expect("in bounds");
        if escape.nnz() > a.nnz() && lu.refactor(&escape).is_ok() {
            let x = lu.solve(&b).expect("refactored");
            for (got, want) in escape.matvec(&x).iter().zip(&b) {
                prop_assert!(
                    (got - want).abs() <= 1e-8 * want.abs().max(1.0),
                    "{got} vs {want}"
                );
            }
        }

        // A different shape is always a hard error.
        let wrong = SparseMatrix::from_triplets(n + 1, n + 1, &[(0, 0, 1.0)]).expect("in bounds");
        prop_assert!(lu.refactor(&wrong).is_err());
    }

    #[test]
    fn block_kkt_assembles_what_triplets_build((b, c, p, q) in kkt_strategy()) {
        let (n, m) = (b.rows(), b.cols());
        let mut kkt = BlockKkt::new(&b, &c).expect("conforming blocks");
        let placeholders = kkt_from_triplets(&b, &c, &vec![1.0; n], &vec![1.0; m]);
        prop_assert_eq!(csr_bits(kkt.matrix()), csr_bits(&placeholders));
        // The diagonal is written before the numeric factorization, which
        // may break down on this unsymmetric draw; the slots are what is
        // checked here.
        let _ = kkt.refactor(&p, &q);
        prop_assert_eq!(csr_bits(kkt.matrix()), csr_bits(&kkt_from_triplets(&b, &c, &p, &q)));
        // Shapes: C must be m×n and the diagonals n and m long.
        prop_assert_eq!(BlockKkt::new(&b, &b).is_err(), n != m);
        prop_assert!(kkt.refactor(&p[..n - 1], &q).is_err());
    }

    #[test]
    fn block_kkt_solves_like_dense_lu(
        (b, _, p, q) in kkt_strategy(),
        raw in proptest::collection::vec(-3.0f64..3.0, 12)
    ) {
        // C = Bᵀ: a symmetric quasi-definite matrix, which the static
        // pivot order factors for any diagonal p, q > 0.
        let mut kkt = BlockKkt::new(&b, &b.transpose()).expect("conforming blocks");
        kkt.refactor(&p, &q).expect("quasi-definite");
        let rhs = &raw[..kkt.matrix().rows()];
        let got = kkt.solve(rhs, 2).expect("sized rhs");
        let want = LuFactors::factor(kkt.matrix().to_dense())
            .expect("nonsingular")
            .solve(rhs)
            .expect("sized rhs");
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{g} vs {w}");
        }
    }

    #[test]
    fn block_kkt_scale_matches_scaled_blocks(
        (b, _, p, q) in kkt_strategy(),
        f in 0.5f64..1.5
    ) {
        let c = b.transpose();
        let mut aged = BlockKkt::new(&b, &c).expect("conforming blocks");
        aged.scale(f);
        aged.refactor(&p, &q).expect("quasi-definite");
        let mut fresh = BlockKkt::new(&scaled(&b, f), &scaled(&c, f)).expect("conforming blocks");
        fresh.refactor(&p, &q).expect("quasi-definite");
        prop_assert_eq!(csr_bits(aged.matrix()), csr_bits(fresh.matrix()));
        let rhs = vec![1.0; p.len() + q.len()];
        let bits = |x: Vec<f64>| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(aged.solve(&rhs, 2).expect("sized rhs")),
            bits(fresh.solve(&rhs, 2).expect("sized rhs"))
        );
        prop_assert_eq!(aged.flops(), fresh.flops());
        prop_assert_eq!(aged.factor_nnz(), fresh.factor_nnz());
    }

    #[test]
    fn out_of_bounds_triplets_are_rejected(
        rows in 1usize..=6,
        cols in 1usize..=6,
        excess in 0usize..3
    ) {
        prop_assert!(SparseMatrix::from_triplets(rows, cols, &[(rows + excess, 0, 1.0)]).is_err());
        prop_assert!(SparseMatrix::from_triplets(rows, cols, &[(0, cols + excess, 1.0)]).is_err());
    }
}
