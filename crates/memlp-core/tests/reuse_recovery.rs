//! The recovery ladder across **warm context reuse** — the serving-pool
//! path where one `HwContext` outlives many solves.
//!
//! Contract under test: defects are a property of the silicon, not of a
//! solve. A warm context keeps its fault plans, repairs and line remaps
//! across [`HwContext::begin_reuse`], so (1) a repeat solve on repaired
//! hardware succeeds *without* re-climbing the ladder, (2) a new problem
//! landing on fresh blocks of the same reused array still triggers
//! detection and escalation, and (3) the pool-reset path (a fresh context
//! with a bumped seed, what `memlp-serve` does after confirmed-defective
//! hardware) redraws the fault plans and still detects/escalates rather
//! than inheriting stale state.

use memlp_core::{
    Budget, CrossbarPdipSolver, CrossbarSolver, CrossbarSolverOptions, HwContext, RecoveryPolicy,
};
use memlp_crossbar::{CrossbarConfig, FaultModel};
use memlp_lp::generator::RandomLp;
use memlp_lp::LpStatus;

fn faulty_config(seed: u64) -> CrossbarConfig {
    let faults = FaultModel::new(0.006, 0.004)
        .and_then(|m| m.with_dead_lines(0.03, 0.01))
        .expect("valid fault rates");
    CrossbarConfig::paper_default()
        .with_variation(5.0)
        .with_seed(seed)
        .with_faults(faults)
}

fn solver() -> CrossbarPdipSolver {
    CrossbarPdipSolver::new(
        faulty_config(11),
        CrossbarSolverOptions {
            recovery: RecoveryPolicy::Full,
            ..CrossbarSolverOptions::default()
        },
    )
}

#[test]
fn warm_reuse_keeps_repairs_and_does_not_reescalate() {
    let lp = RandomLp::paper(16, 701).feasible();
    let s = solver();
    let mut hw = HwContext::new(faulty_config(11));

    let first = s.solve_on(&lp, &mut hw, Budget::none(), None, Some(0));
    assert_eq!(first.solution.status, LpStatus::Optimal);
    assert!(
        first.recovery.saw_faults(),
        "fault injection inert — test is vacuous"
    );
    assert!(first.recovery.escalations() >= 1, "ladder never climbed");

    // Repeat solves on the same warm array: the repairs and remaps from
    // the first solve persist, so the ladder has nothing left to do.
    for salt in 1..=2u64 {
        let warm = (first.solution.x.as_slice(), first.solution.y.as_slice());
        let again = s.solve_on(&lp, &mut hw, Budget::none(), Some(warm), Some(salt));
        assert_eq!(again.solution.status, LpStatus::Optimal, "reuse {salt}");
        assert!(
            again.recovery.escalations() <= first.recovery.escalations(),
            "reuse {salt} re-climbed the ladder: {} > {}",
            again.recovery.escalations(),
            first.recovery.escalations()
        );
    }
}

#[test]
fn new_blocks_on_a_reused_context_still_escalate() {
    let small = RandomLp::paper(16, 701).feasible();
    let big = RandomLp::paper(24, 702).feasible();
    let s = solver();
    let mut hw = HwContext::new(faulty_config(11));

    let first = s.solve_on(&small, &mut hw, Budget::none(), None, Some(0));
    assert_eq!(first.solution.status, LpStatus::Optimal);
    assert!(first.recovery.saw_faults());

    // A different problem shape programs different physical blocks: their
    // fault plans are drawn fresh (salted per block key), so detection
    // and recovery must fire again on the *same* context.
    let second = s.solve_on(&big, &mut hw, Budget::none(), None, Some(1));
    assert_eq!(second.solution.status, LpStatus::Optimal);
    assert!(
        second.recovery.saw_faults(),
        "new blocks on a reused array must still be verified for defects"
    );
}

/// The whole reuse sequence is deterministic: replaying it from scratch
/// reproduces every solution and recovery report bitwise.
#[test]
fn reuse_sequence_replays_bitwise() {
    let run = || {
        let lp = RandomLp::paper(16, 701).feasible();
        let s = solver();
        let mut hw = HwContext::new(faulty_config(11));
        let mut out = Vec::new();
        let first = s.solve_on(&lp, &mut hw, Budget::none(), None, Some(0));
        for salt in 1..=2u64 {
            let warm = (first.solution.x.as_slice(), first.solution.y.as_slice());
            let r = s.solve_on(&lp, &mut hw, Budget::none(), Some(warm), Some(salt));
            out.push((
                r.solution.status,
                r.solution.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                r.solution.objective.to_bits(),
                r.recovery.clone(),
                r.ledger,
            ));
        }
        out.push((
            first.solution.status,
            first.solution.x.iter().map(|v| v.to_bits()).collect(),
            first.solution.objective.to_bits(),
            first.recovery,
            first.ledger,
        ));
        out
    };
    assert_eq!(run(), run(), "warm-reuse sequence must replay bitwise");
}

/// The pool-reset path: a replacement context (bumped seed — what the
/// serve worker fabricates after confirmed-defective hardware) redraws
/// its fault plans and still detects and recovers, rather than
/// inheriting the predecessor's repairs or going blind.
#[test]
fn reset_contexts_redraw_plans_and_still_escalate() {
    let lp = RandomLp::paper(16, 701).feasible();
    let s = solver();

    let mut worn = HwContext::new(faulty_config(11));
    let first = s.solve_on(&lp, &mut worn, Budget::none(), None, Some(0));
    assert!(first.recovery.saw_faults());

    // Fresh silicon, new seed: same fault *model*, independent defects.
    let mut replacement = HwContext::new(faulty_config(11).with_seed(0xD15EA5E));
    let redrawn = s.solve_on(&lp, &mut replacement, Budget::none(), None, Some(0));
    assert_eq!(redrawn.solution.status, LpStatus::Optimal);
    assert!(
        redrawn.recovery.saw_faults(),
        "replacement array must be write-verified from scratch"
    );
    // Independent defect draws: the recovery transcripts differ.
    assert_ne!(
        first.recovery, redrawn.recovery,
        "a reset must redraw fault plans, not replay the worn array's"
    );
}
