//! Deterministic replay under faults: a fault-injected solve — including
//! every recovery escalation and the structured [`RecoveryReport`] — must be
//! **bit-for-bit** identical at every worker count. Fault plans come from
//! dedicated salted seed streams, transient upsets from a per-attempt
//! stream, and batch fan-out isolates one deterministic `HwContext` per
//! problem, so `MEMLP_THREADS` (here pinned via `parallel::with_threads`)
//! must never leak into results.

use memlp_core::{
    CrossbarPdipSolver, CrossbarSolution, CrossbarSolver, CrossbarSolverOptions, LargeScaleOptions,
    LargeScaleSolver, RecoveryPolicy,
};
use memlp_crossbar::{CrossbarConfig, FaultModel};
use memlp_linalg::parallel::with_threads;
use memlp_lp::{generator::RandomLp, LpProblem};

const THREADS: [usize; 3] = [1, 2, 8];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Unwraps a per-item batch result; none of these instances trip admission.
fn ok_batch<T, E: std::fmt::Debug>(v: Vec<Result<T, E>>) -> Vec<T> {
    v.into_iter()
        .map(|r| r.expect("batch item admitted"))
        .collect()
}

/// Faults on every axis the plan supports, plus transient read upsets.
fn faulty_config(seed: u64) -> CrossbarConfig {
    let faults = FaultModel::new(0.006, 0.004)
        .and_then(|m| m.with_dead_lines(0.03, 0.01))
        .and_then(|m| m.with_transients(1e-3))
        .expect("valid fault rates");
    CrossbarConfig::paper_default()
        .with_variation(5.0)
        .with_seed(seed)
        .with_faults(faults)
}

fn problems() -> Vec<LpProblem> {
    (0..4u64)
        .map(|s| RandomLp::paper(16, 700 + s).feasible())
        .collect()
}

/// Full structural equality of two solve results, with float payloads
/// compared bitwise.
fn assert_identical(a: &CrossbarSolution, b: &CrossbarSolution, ctx: &str) {
    assert_eq!(a.solution.status, b.solution.status, "{ctx}: status");
    assert_eq!(bits(&a.solution.x), bits(&b.solution.x), "{ctx}: x");
    assert_eq!(bits(&a.solution.y), bits(&b.solution.y), "{ctx}: y");
    assert_eq!(
        a.solution.objective.to_bits(),
        b.solution.objective.to_bits(),
        "{ctx}: objective"
    );
    assert_eq!(a.solution.iterations, b.solution.iterations, "{ctx}: iters");
    assert_eq!(a.retries_used, b.retries_used, "{ctx}: retries");
    assert_eq!(a.ledger, b.ledger, "{ctx}: ledger");
    assert_eq!(a.trace, b.trace, "{ctx}: trace");
    assert_eq!(a.recovery, b.recovery, "{ctx}: recovery report");
}

#[test]
fn alg1_fault_solve_is_bitwise_thread_invariant() {
    let lps = problems();
    let solver = CrossbarPdipSolver::new(
        faulty_config(11),
        CrossbarSolverOptions {
            recovery: RecoveryPolicy::Full,
            ..CrossbarSolverOptions::default()
        },
    );
    let baseline = ok_batch(with_threads(1, || solver.solve_batch(&lps, 1)));
    assert!(
        baseline.iter().any(|r| r.recovery.saw_faults()),
        "fault injection inert — test is vacuous"
    );
    for threads in THREADS {
        let got = ok_batch(with_threads(threads, || solver.solve_batch(&lps, threads)));
        for (i, (a, b)) in baseline.iter().zip(&got).enumerate() {
            assert_identical(a, b, &format!("alg1 lp {i} at {threads} threads"));
        }
    }
}

#[test]
fn alg2_fault_solve_is_bitwise_thread_invariant() {
    let lps = problems();
    let solver = LargeScaleSolver::new(
        faulty_config(13),
        LargeScaleOptions {
            recovery: RecoveryPolicy::Full,
            ..LargeScaleOptions::default()
        },
    );
    let baseline = ok_batch(with_threads(1, || solver.solve_batch(&lps, 1)));
    assert!(
        baseline.iter().any(|r| r.recovery.saw_faults()),
        "fault injection inert — test is vacuous"
    );
    for threads in THREADS {
        let got = ok_batch(with_threads(threads, || solver.solve_batch(&lps, threads)));
        for (i, (a, b)) in baseline.iter().zip(&got).enumerate() {
            assert_identical(a, b, &format!("alg2 lp {i} at {threads} threads"));
        }
    }
}

/// Repeated solves on the same solver instance must also replay exactly —
/// each call builds a fresh deterministic `HwContext`, so no state bleeds
/// between solves.
#[test]
fn repeated_fault_solves_replay_exactly() {
    let lp = RandomLp::paper(16, 701).feasible();
    let solver = CrossbarPdipSolver::new(
        faulty_config(11),
        CrossbarSolverOptions {
            recovery: RecoveryPolicy::Full,
            ..CrossbarSolverOptions::default()
        },
    );
    let a = solver.solve(&lp);
    let b = solver.solve(&lp);
    assert_identical(&a, &b, "repeat solve");
}
