//! The dense-core allocation guard (DESIGN.md §14): a realized system
//! whose `(n+m)²` dense core exceeds `DENSE_CORE_LIMIT_BYTES` must refuse
//! the dense factorization with a structured error instead of attempting
//! the allocation, while the default (unforced) factorization reroutes the
//! same system to the sparse core and solves it.
//!
//! The instance is the smallest shipped domain past the guard: assignment
//! with k = 128 agents gives n = k² = 16 384, m = 2k = 256, so the core is
//! dim = 16 640 and its dense buffer 8·dim² ≈ 2.2 GB — just over the
//! 2 GiB limit. (The bench-scale wall is assignment@512 at ~35 GB; the
//! guard condition is identical, this one just programs in test time.)

use memlp_core::{AugmentedSystem, Factorization, HwContext, DENSE_CORE_LIMIT_BYTES};
use memlp_crossbar::CrossbarConfig;
use memlp_lp::domains::{assignment_lp, AssignmentProblem};
use memlp_lp::LpProblem;
use memlp_solvers::pdip::{CoreSolveError, PdipOptions, PdipState};

fn oversized_lp() -> LpProblem {
    assignment_lp(&AssignmentProblem::random(128, 7)).expect("valid assignment instance")
}

fn rhs_for(
    sys: &mut AugmentedSystem,
    lp: &LpProblem,
    state: &PdipState,
    hw: &mut HwContext,
) -> Vec<f64> {
    let mu = state.mu(PdipOptions::default().delta);
    let constant = sys.rhs_constant(lp, mu);
    let s = sys.s_vector(state);
    let ms = sys.mvm(&s, hw);
    sys.assemble_rhs(&constant, &ms)
}

#[test]
fn dense_path_refuses_oversized_core_and_auto_reroutes_sparse() {
    let lp = oversized_lp();
    let n = lp.num_vars();
    let m = lp.num_constraints();
    let dim = n + m;
    let bytes = 8 * (dim as u64) * (dim as u64);
    assert!(
        bytes > DENSE_CORE_LIMIT_BYTES,
        "instance must actually exceed the guard ({bytes} <= {DENSE_CORE_LIMIT_BYTES})"
    );

    let mut hw = HwContext::new(CrossbarConfig::ideal());
    let state = PdipState::new(&lp, &PdipOptions::default());
    let mut sys = AugmentedSystem::program(&lp, &state, &mut hw);
    let r = rhs_for(&mut sys, &lp, &state, &mut hw);

    // The input's pick reroutes to the sparse factorization and produces
    // directions of the full augmented dimension.
    let aug = sys
        .solve(&r, &mut hw)
        .expect("the oversized core must solve on the sparse factorization");
    assert_eq!(aug.dirs.dx.len(), n);
    assert_eq!(aug.dirs.dy.len(), m);

    // A forced dense factorization reports the structured refusal — with
    // the exact dimension and byte count, so callers can log actionable
    // sizes.
    sys.force_factorization(Factorization::Dense);
    let err = sys
        .solve(&r, &mut hw)
        .expect_err("dense path must refuse the oversized core");
    assert_eq!(
        err,
        CoreSolveError::CoreTooLarge {
            dim,
            bytes,
            limit: DENSE_CORE_LIMIT_BYTES,
        }
    );
    let msg = err.to_string();
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
