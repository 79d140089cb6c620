//! Delta programming must be a pure cost optimization: on fault-free
//! hardware, a solve with `delta_writes` on returns **bit-for-bit** the
//! same solution, iteration records, and recovery events as a full
//! re-program run, at every worker count. Only the ledger's written/skipped
//! split may differ — and it must differ conservatively: written + skipped
//! under delta equals written under full reprogramming.

use memlp_core::{
    CrossbarPdipSolver, CrossbarSolution, CrossbarSolver, CrossbarSolverOptions, LargeScaleOptions,
    LargeScaleSolver,
};
use memlp_crossbar::CrossbarConfig;
use memlp_linalg::parallel::{with_threads, Threads};
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

fn config(seed: u64, delta: bool) -> CrossbarConfig {
    CrossbarConfig::paper_default()
        .with_variation(5.0)
        .with_seed(seed)
        .with_delta_writes(delta)
}

fn problems() -> Vec<LpProblem> {
    (0..3u64)
        .map(|s| RandomLp::paper(24, 620 + s).feasible())
        .collect()
}

/// Identical observable solve behaviour: solution bits, per-iteration
/// records, and recovery events. The ledger is *excluded* on purpose — the
/// written/skipped split is the one thing delta programming changes.
fn assert_same_behaviour(a: &CrossbarSolution, b: &CrossbarSolution, ctx: &str) {
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
    assert_eq!(a.trace, b.trace, "{ctx}: trace");
    assert_eq!(a.recovery, b.recovery, "{ctx}: recovery events");
}

/// Delta accounting must be lossless: every pulse the delta run skipped is
/// one the full run executed.
fn assert_conserved(delta: &CrossbarSolution, full: &CrossbarSolution, ctx: &str) {
    let d = delta.ledger.counts();
    let f = full.ledger.counts();
    assert_eq!(
        d.setup_writes + d.update_writes + d.skipped_writes,
        f.setup_writes + f.update_writes + f.skipped_writes,
        "{ctx}: write conservation"
    );
    assert_eq!(f.skipped_writes, 0, "{ctx}: full reprogram never skips");
    assert!(
        d.skipped_writes > 0,
        "{ctx}: delta run skipped nothing — test is vacuous"
    );
}

#[test]
fn alg1_delta_matches_full_reprogram_at_all_thread_counts() {
    let lps = problems();
    let opts = CrossbarSolverOptions {
        // A refresh cadence exercises the static-block rewrite path, where
        // delta programming skips the most pulses.
        refresh_every: 5,
        ..CrossbarSolverOptions::default()
    };
    let on = CrossbarPdipSolver::new(config(7, true), opts);
    let off = CrossbarPdipSolver::new(config(7, false), opts);
    let baseline = ok_batch(with_threads(1, || off.solve_batch(&lps, 1)));
    for threads in THREADS {
        let got = ok_batch(with_threads(threads, || on.solve_batch(&lps, threads)));
        for (i, (full, delta)) in baseline.iter().zip(&got).enumerate() {
            let ctx = format!("alg1 lp {i} at {threads} threads");
            assert_same_behaviour(delta, full, &ctx);
            assert_conserved(delta, full, &ctx);
        }
    }
}

#[test]
fn alg2_delta_matches_full_reprogram_at_all_thread_counts() {
    let lps = problems();
    let on = LargeScaleSolver::new(config(9, true), LargeScaleOptions::default());
    let off = LargeScaleSolver::new(config(9, false), LargeScaleOptions::default());
    let baseline = ok_batch(with_threads(1, || off.solve_batch(&lps, 1)));
    for threads in THREADS {
        let got = ok_batch(with_threads(threads, || on.solve_batch(&lps, threads)));
        for (i, (full, delta)) in baseline.iter().zip(&got).enumerate() {
            let ctx = format!("alg2 lp {i} at {threads} threads");
            assert_same_behaviour(delta, full, &ctx);
            assert_conserved(delta, full, &ctx);
        }
    }
}

/// The m = 24 cases above never split a kernel across threads. At the
/// paper's m = 128 the Schur product of Algorithm 1's dense Newton core
/// (2·n²·m flops) crosses the threading cutoff, so this is where thread
/// invariance of the solve is actually exercised.
#[test]
fn alg1_is_bitwise_thread_invariant_past_the_kernel_cutoff() {
    let lp = RandomLp::paper(128, 623).feasible();
    let (n, m) = (lp.num_vars(), lp.num_constraints());
    assert!(
        Threads::exact(2).for_flops(2 * n * n * m) > 1,
        "the Schur product must span more than one thread"
    );
    let cfg = CrossbarConfig::paper_default()
        .with_variation(10.0)
        .with_seed(7);
    let solver = CrossbarPdipSolver::new(cfg, CrossbarSolverOptions::default());
    let baseline = with_threads(1, || solver.solve(&lp));
    assert!(baseline.solution.status.is_optimal());
    for threads in THREADS {
        let got = with_threads(threads, || solver.solve(&lp));
        let ctx = format!("alg1 m=128 at {threads} threads");
        assert_same_behaviour(&got, &baseline, &ctx);
        assert_eq!(
            got.ledger.counts(),
            baseline.ledger.counts(),
            "{ctx}: ledger"
        );
    }
}

/// Algorithm 1 updates its Newton workspace in place instead of
/// rebuilding the core matrix every iteration.
#[test]
fn workspace_reuse_engages() {
    let lp = RandomLp::paper(24, 621).feasible();
    let res = CrossbarPdipSolver::new(config(7, true), CrossbarSolverOptions::default()).solve(&lp);
    assert!(
        res.ledger.counts().rebuilds_avoided > 0,
        "workspace reuse never engaged"
    );
}
