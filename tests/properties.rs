//! Cross-crate property tests: the crossbar solvers as black boxes.

use memlp::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any §4.2-style feasible instance is solved by Algorithm 1 to within
    /// the paper's accuracy envelope.
    #[test]
    fn alg1_tracks_reference(m in 2usize..14, seed in 0u64..500, var in prop_oneof![Just(0.0), Just(5.0), Just(10.0)]) {
        let m = m * 4; // 8..=52 constraints
        let lp = RandomLp::paper(m, seed).feasible();
        let reference = NormalEqPdip::default().solve(&lp);
        prop_assume!(reference.status.is_optimal());
        let r = CrossbarPdipSolver::new(
            CrossbarConfig::paper_default().with_variation(var).with_seed(seed),
            CrossbarSolverOptions::default(),
        ).solve(&lp);
        // The solver may *decline* a pathological run (its acceptance
        // gates reject inconsistent iterates rather than return them); it
        // must never falsely certify infeasibility, and anything it does
        // accept must be accurate.
        prop_assert!(r.solution.status != LpStatus::Infeasible,
            "false infeasibility at m={} var={}", m, var);
        prop_assume!(r.solution.status.is_optimal());
        let rel = (r.solution.objective - reference.objective).abs() / (1.0 + reference.objective.abs());
        // Accepted runs are bounded by ~2.5× the stall-acceptance floor
        // (`ACCEPT_FLOOR` = 8%); mean errors are far lower (see Fig 5a).
        prop_assert!(rel < 0.20, "error {} at m={} var={}", rel, m, var);
    }

    /// The §3.2 transform preserves the operator for arbitrary matrices.
    #[test]
    fn sign_split_preserves_operator(
        rows in 1usize..8,
        cols in 1usize..8,
        entries in proptest::collection::vec(-5.0f64..5.0, 64),
        xs in proptest::collection::vec(-3.0f64..3.0, 8),
    ) {
        let a = Matrix::from_fn(rows, cols, |i, j| entries[(i * cols + j) % entries.len()]);
        let split = SignSplit::split(&a);
        prop_assert!(split.pos.is_nonnegative());
        prop_assert!(split.neg.is_nonnegative());
        let x = &xs[..cols];
        let direct = a.matvec(x);
        let via_split = split.apply(x);
        for (d, s) in direct.iter().zip(&via_split) {
            prop_assert!((d - s).abs() < 1e-9);
        }
        prop_assert_eq!(split.reconstruct(), a);
    }

    /// Solutions returned as optimal respect the §3.2 relaxed constraints.
    #[test]
    fn optimal_solutions_are_alpha_feasible(m in 3usize..10, seed in 0u64..200) {
        let m = m * 4;
        let lp = RandomLp::paper(m, seed).feasible();
        let r = CrossbarPdipSolver::new(
            CrossbarConfig::paper_default().with_variation(10.0).with_seed(seed),
            CrossbarSolverOptions::default(),
        ).solve(&lp);
        prop_assume!(r.solution.status.is_optimal());
        // The solver's stall acceptance enforces α = 1 + 2·`ACCEPT_FLOOR`
        // (= 1.16 at defaults); assert it with a small observation margin.
        prop_assert!(lp.satisfies_relaxed_scaled(&r.solution.x, 1.20));
    }

    /// Crossbar MVM error is bounded by converter resolution plus variation.
    #[test]
    fn crossbar_mvm_error_bounded(side in 2usize..10, seed in 0u64..100, var in 0.0f64..15.0) {
        let a = Matrix::from_fn(side, side, |i, j| 0.05 + ((i * 13 + j * 7 + seed as usize) % 17) as f64 * 0.1);
        let cfg = CrossbarConfig::paper_default().with_variation(var).with_seed(seed);
        let mut xb = Crossbar::new(side, cfg).unwrap();
        xb.program(&a).unwrap();
        let x = vec![1.0; side];
        let y = xb.mvm(&x).unwrap();
        let exact = a.matvec(&x);
        let scale = exact.iter().fold(0.0f64, |mx, v| mx.max(v.abs()));
        for (got, want) in y.iter().zip(&exact) {
            // Row error bound: variation (relative, averaged over the row
            // it can only help, so take it fully) plus two quantization
            // steps.
            let bound = var / 100.0 * scale + 2.0 * scale / 127.0 + 1e-9;
            prop_assert!((got - want).abs() <= bound, "{} vs {} (bound {})", got, want, bound);
        }
    }
}
