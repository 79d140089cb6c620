//! Property-based tests for the CSR sparse matrix: construction from
//! triplets (including duplicates and explicit zeros), dense round-trips,
//! agreement of the sparse kernels with their dense counterparts, the
//! block KKT matrix assembled straight into CSR, and the LDLᵀ of the
//! symmetric quasi-definite KKT against dense LU.

use memlp_linalg::{
    BlockKkt, LinalgError, LuFactors, Matrix, SparseLu, SparseMatrix, SymmetricKkt,
};
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

/// Strategy: `A` (`m×n`) built from a sparse base block whose rows are
/// each kept and, at random, followed by their negation (a `≤`/`≥` pair,
/// as routing's conservation rows come), plus diagonals `p`, `q` in
/// `[0.5, 2)`. Empty rows and columns are common.
fn quasidefinite_strategy() -> impl Strategy<Value = (SparseMatrix, Vec<f64>, Vec<f64>)> {
    (1usize..=6, 1usize..=5).prop_flat_map(|(n, m0)| {
        (
            block(m0, n),
            proptest::collection::vec(any::<bool>(), m0),
            proptest::collection::vec(0.5f64..2.0, n),
            proptest::collection::vec(0.5f64..2.0, 2 * m0),
        )
            .prop_map(move |(base, pair, p, q)| {
                let mut ts: Vec<(usize, usize, f64)> = Vec::new();
                let mut rows = 0;
                for (i, &paired) in pair.iter().enumerate() {
                    let row: Vec<(usize, f64)> = base
                        .iter()
                        .filter(|&(r, _, _)| r == i)
                        .map(|(_, j, v)| (j, v))
                        .collect();
                    ts.extend(row.iter().map(|&(j, v)| (rows, j, v)));
                    rows += 1;
                    if paired {
                        ts.extend(row.iter().map(|&(j, v)| (rows, j, -v)));
                        rows += 1;
                    }
                }
                let a = SparseMatrix::from_triplets(rows, n, &ts).expect("in bounds");
                (a, p, q[..rows].to_vec())
            })
    })
}

/// `[[diag(p), Aᵀ], [A, −diag(q)]]` as a dense matrix.
fn dense_kkt(a: &SparseMatrix, p: &[f64], q: &[f64]) -> Matrix {
    let n = a.cols();
    let mut k = Matrix::zeros(n + a.rows(), n + a.rows());
    for (j, &v) in p.iter().enumerate() {
        k[(j, j)] = v;
    }
    for (i, &v) in q.iter().enumerate() {
        k[(n + i, n + i)] = -v;
    }
    for (i, j, v) in a.iter() {
        k[(n + i, j)] = v;
        k[(j, n + i)] = v;
    }
    k
}

/// `‖b − K·x‖∞` and the normwise bound `4ε(‖K‖∞‖x‖∞ + ‖b‖∞)`.
fn backward_error(k: &Matrix, x: &[f64], b: &[f64]) -> (f64, f64) {
    let inf = |v: &[f64]| v.iter().fold(0.0f64, |m, e| m.max(e.abs()));
    let kx = k.matvec(x);
    let r: Vec<f64> = b.iter().zip(&kx).map(|(bi, ki)| bi - ki).collect();
    let k_norm = (0..k.rows())
        .map(|i| (0..k.cols()).map(|j| k[(i, j)].abs()).sum::<f64>())
        .fold(0.0f64, f64::max);
    (inf(&r), 4.0 * f64::EPSILON * (k_norm * inf(x) + inf(b)))
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
    fn symmetric_kkt_solves_like_dense_lu(
        (a, p, q) in quasidefinite_strategy(),
        raw in proptest::collection::vec(-3.0f64..3.0, 16)
    ) {
        let mut kkt = SymmetricKkt::new(&a);
        kkt.refactor(&p, &q).expect("quasi-definite");
        let k = dense_kkt(&a, &p, &q);
        let rhs = &raw[..kkt.dim()];
        let got = kkt.solve(rhs).expect("sized rhs");
        let want = LuFactors::factor(k.clone())
            .expect("nonsingular")
            .solve(rhs)
            .expect("sized rhs");
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{g} vs {w}");
        }
        // The same order and fill as the static-pivot LU on the assembled
        // matrix: |L| + n against |L| + |U| + n with |U| = |L|.
        let lu = SparseLu::factor(&SparseMatrix::from_dense(&k)).expect("quasi-definite");
        prop_assert_eq!(2 * kkt.factor_nnz() - kkt.dim(), lu.factor_nnz());
        prop_assert!(kkt.flops() <= lu.flops() + 2 * kkt.dim() as u64);
    }

    #[test]
    fn symmetric_kkt_refactor_is_repeatable(
        (a, p, q) in quasidefinite_strategy(),
        f in 0.5f64..1.5
    ) {
        let mut kkt = SymmetricKkt::new(&a);
        let rhs: Vec<f64> = (0..a.rows() + a.cols()).map(|i| (i as f64).cos()).collect();
        let bits = |x: Vec<f64>| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        kkt.refactor(&p, &q).expect("quasi-definite");
        let first = bits(kkt.solve(&rhs).expect("sized rhs"));
        let other: Vec<f64> = p.iter().map(|v| v * f).collect();
        kkt.refactor(&other, &q).expect("quasi-definite");
        kkt.solve(&rhs).expect("sized rhs");
        kkt.refactor(&p, &q).expect("quasi-definite");
        prop_assert_eq!(bits(kkt.solve(&rhs).expect("sized rhs")), first);
    }

    #[test]
    fn symmetric_kkt_refinement_stops_at_the_bound_or_two_rounds(
        (a, p, q) in quasidefinite_strategy(),
        spread in proptest::collection::vec(0u32..13, 16),
        raw in proptest::collection::vec(-3.0f64..3.0, 16)
    ) {
        // Interior-point diagonals span many orders of magnitude.
        let scale = |v: &[f64], off: usize| -> Vec<f64> {
            v.iter()
                .zip(&spread[off..])
                .map(|(x, &e)| x * 10f64.powi(e as i32 - 6))
                .collect()
        };
        let (p, q) = (scale(&p, 0), scale(&q, p.len()));
        let mut kkt = SymmetricKkt::new(&a);
        kkt.refactor(&p, &q).expect("quasi-definite");
        let rhs = &raw[..kkt.dim()];
        let x = kkt.solve(rhs).expect("sized rhs");
        let rounds = kkt.refinement_rounds();
        prop_assert!(rounds <= 2, "{rounds} rounds");
        // The test's dense residual sums in another order than the CSR one,
        // so the bound it checks carries a summation allowance.
        let (err, bound) = backward_error(&dense_kkt(&a, &p, &q), &x, rhs);
        let allowance = (kkt.dim() + 1) as f64;
        prop_assert!(
            err <= allowance * bound || rounds == 2,
            "residual {err:e} over {allowance} x bound {bound:e} after {rounds} rounds"
        );
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

#[test]
fn symmetric_kkt_reports_a_zero_pivot_as_singular() {
    // Column 1 of A is empty, so K's node 1 is isolated: a zero p₁ is a
    // zero pivot, reported in KKT indices, and NaN takes the same path.
    let a = SparseMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (1, 0, -1.0), (1, 2, 2.0)])
        .expect("in bounds");
    let mut kkt = SymmetricKkt::new(&a);
    assert!(matches!(
        kkt.refactor(&[1.0, 0.0, 1.0], &[1.0, 1.0]),
        Err(LinalgError::Singular { column: 1 })
    ));
    assert!(matches!(
        kkt.refactor(&[1.0, 1.0, 1.0], &[f64::NAN, 1.0]),
        Err(LinalgError::Singular { .. })
    ));
    // The factors recover on the next good diagonal.
    kkt.refactor(&[1.0, 2.0, 1.0], &[1.0, 1.0])
        .expect("quasi-definite");
    let b = [1.0, 2.0, 3.0, 4.0, 5.0];
    let x = kkt.solve(&b).expect("sized rhs");
    let k = dense_kkt(&a, &[1.0, 2.0, 1.0], &[1.0, 1.0]);
    let (err, bound) = backward_error(&k, &x, &b);
    assert!(err <= 8.0 * bound, "{err:e} vs {bound:e}");
    // Shapes.
    assert!(kkt.refactor(&[1.0, 1.0], &[1.0, 1.0]).is_err());
    assert!(kkt.solve(&b[..4]).is_err());
}
