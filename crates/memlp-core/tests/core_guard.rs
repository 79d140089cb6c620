//! The dense-core allocation guard (DESIGN.md §14): Algorithm 1 admits
//! each dense buffer by its own size against `DENSE_CORE_LIMIT_BYTES`. The
//! `min(n,m)` Schur solve needs `8·k·(k+K)` bytes (`k = min(n,m)`,
//! `K = max(n,m)`), far less than the `8·(n+m)²` of its `(n+m)` LU
//! fallback, so a core past the LU limit still solves densely when its
//! Schur solve fits; only the LU fallback refuses, with a structured
//! error instead of attempting the allocation.
//!
//! The dense instance is `m = 8` constraints over `n = 16 400` variables:
//! its core is dim = 16 408 and `8·dim²` ≈ 2.15 GB, just over the 2 GiB
//! limit, while the Schur solve needs about 1 MB. The sparse instance is
//! assignment with k = 128 agents (n = k² = 16 384, m = 2k = 256, an
//! `8·dim²` of ≈ 2.2 GB), the smallest shipped domain past the limit.

use memlp_core::{
    dense_core_bytes, AugmentedSystem, Factorization, HwContext, DENSE_CORE_LIMIT_BYTES,
};
use memlp_crossbar::CrossbarConfig;
use memlp_linalg::Matrix;
use memlp_lp::domains::{assignment_lp, AssignmentProblem};
use memlp_lp::LpProblem;
use memlp_solvers::pdip::{CoreSolveError, PdipState};

/// A fully dense LP with 8 constraints over 16 400 non-negative-coefficient
/// variables (so no compensation variables are programmed).
fn wide_dense_lp() -> LpProblem {
    let (m, n) = (8, 16_400);
    let a = Matrix::from_fn(m, n, |i, j| 1.0 + ((i * 31 + j * 17) % 13) as f64 / 13.0);
    LpProblem::new(a, vec![n as f64; m], vec![1.0; n]).expect("valid LP")
}

fn rhs_for(
    sys: &mut AugmentedSystem,
    lp: &LpProblem,
    state: &PdipState,
    hw: &mut HwContext,
) -> Vec<f64> {
    let mu = state.mu();
    let constant = sys.rhs_constant(lp, mu);
    let s = sys.s_vector(state);
    let ms = sys.mvm(&s, hw);
    sys.assemble_rhs(&constant, &ms)
}

#[test]
fn schur_solve_serves_a_dense_core_past_the_lu_limit() {
    let lp = wide_dense_lp();
    let (n, m) = (lp.num_vars(), lp.num_constraints());
    assert!(dense_core_bytes(n + m) > DENSE_CORE_LIMIT_BYTES);

    let mut hw = HwContext::new(CrossbarConfig::ideal());
    let state = PdipState::new(&lp);
    let mut sys = AugmentedSystem::program(&lp, &state, &mut hw);
    let r = rhs_for(&mut sys, &lp, &state, &mut hw);
    let before = hw.ledger().counts();
    let aug = sys
        .solve(&r, &mut hw)
        .expect("the Schur solve fits under the limit");
    assert_eq!(aug.dirs.dx.len(), n);
    assert_eq!(aug.dirs.dy.len(), m);

    // One factorization holding the Schur solve's entries: S's k² plus
    // the K·k scaled block. The sparse factorization would report its own
    // |L|+|U|+diagonal count instead.
    let after = hw.ledger().counts();
    let (k, big) = (m as u64, n as u64);
    assert_eq!(after.factorizations - before.factorizations, 1);
    assert_eq!(after.factor_nnz - before.factor_nnz, k * k + big * k);
}

#[test]
fn lu_fallback_refuses_past_the_limit() {
    // A zero Z entry makes d2 singular, so Δx cannot be eliminated and the
    // Schur solve hands the iteration to the (n+m) LU, whose buffers would
    // pass the limit.
    let lp = wide_dense_lp();
    let dim = lp.num_vars() + lp.num_constraints();
    let mut hw = HwContext::new(CrossbarConfig::ideal());
    let mut state = PdipState::new(&lp);
    state.z[0] = 0.0;
    let mut sys = AugmentedSystem::program(&lp, &state, &mut hw);
    sys.force_factorization(Factorization::Dense);
    let r = rhs_for(&mut sys, &lp, &state, &mut hw);
    let err = sys
        .solve(&r, &mut hw)
        .expect_err("the LU fallback must refuse the oversized core");
    assert_eq!(
        err,
        CoreSolveError::CoreTooLarge {
            dim,
            bytes: dense_core_bytes(dim),
            limit: DENSE_CORE_LIMIT_BYTES,
        }
    );
}

#[test]
fn oversized_sparse_core_solves_on_the_sparse_factorization() {
    let lp = assignment_lp(&AssignmentProblem::random(128, 7)).expect("valid assignment instance");
    let n = lp.num_vars();
    let m = lp.num_constraints();
    assert!(dense_core_bytes(n + m) > DENSE_CORE_LIMIT_BYTES);

    let mut hw = HwContext::new(CrossbarConfig::ideal());
    let state = PdipState::new(&lp);
    let mut sys = AugmentedSystem::program(&lp, &state, &mut hw);
    let r = rhs_for(&mut sys, &lp, &state, &mut hw);
    let aug = sys
        .solve(&r, &mut hw)
        .expect("the oversized core must solve on the sparse factorization");
    assert_eq!(aug.dirs.dx.len(), n);
    assert_eq!(aug.dirs.dy.len(), m);
}

#[test]
fn too_large_error_names_the_limit_and_the_ways_out() {
    let dim = 16_640;
    let msg = CoreSolveError::CoreTooLarge {
        dim,
        bytes: dense_core_bytes(dim),
        limit: DENSE_CORE_LIMIT_BYTES,
    }
    .to_string();
    assert!(
        msg.contains("dense Newton core")
            && msg.contains(&format!("{DENSE_CORE_LIMIT_BYTES}-byte limit"))
            && msg.contains("Algorithm 1")
            && msg.contains("PDHG")
            && msg.contains("--solver auto")
            && !msg.contains("sparse path"),
        "error must name the failure, the limit and the ways out: {msg}"
    );
}

#[test]
fn singular_error_still_reports_as_singular() {
    // The Result refactor must not re-label the pre-existing singularity
    // path: a zero complementarity diagonal is `Singular`, not
    // `CoreTooLarge`.
    let msg = CoreSolveError::Singular.to_string();
    assert!(msg.contains("singular"), "unexpected message: {msg}");
}
