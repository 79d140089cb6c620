#![forbid(unsafe_code)]
//! The paper's contribution: memristor crossbar-based linear program
//! solvers using the primal–dual interior-point method.
//!
//! Cai, Ren, Soundarajan & Wang map PDIP onto memristor crossbars, which
//! multiply and solve in O(1) in the analog domain, reducing per-iteration
//! complexity from the software baselines' O(N³)/O(N²) to the O(N) cost of
//! rewriting the iterate-dependent diagonals (§3.5). This crate implements
//! both of the paper's solvers over the simulated hardware substrate of
//! [`memlp_crossbar`]:
//!
//! * [`CrossbarPdipSolver`] — **Algorithm 1**: the full Newton system of
//!   Eqn 14a (with the §3.2 negative-coefficient elimination producing the
//!   compensation variables `Δu`, `Δv`, `Δp`) is solved on one crossbar
//!   per iteration.
//! * [`LargeScaleSolver`] — **Algorithm 2** (§3.4): the Newton step is
//!   split into a *static* `(n+m+k)` system with small random `RU`/`RL`
//!   fill and a *diagonal* system, shrinking the required crossbar size;
//!   uses a constant step length and a re-solve-on-failure scheme.
//! * [`SignSplit`] — the §3.2 transform itself, reusable for mapping any
//!   mixed-sign operator onto non-negative crossbar hardware.
//!
//! Both solvers return a [`CrossbarSolution`] bundling the LP result with
//! the hardware [`memlp_crossbar::CostLedger`] (latency/energy estimates in
//! the style of the paper's §4.4), a per-iteration trace of
//! [`IterationRecord`]s, and a [`RecoveryReport`] describing any fault
//! detections and the recovery rungs climbed (re-program → remap →
//! variation redraw → digital fallback; see [`RecoveryPolicy`]).
//!
//! These two and the analog PDHG backend ([`CrossbarPdhgSolver`])
//! implement [`CrossbarSolver`], the one surface the CLI and the serve
//! daemon dispatch through (admission check, warm-pool solve, batch).
//!
//! # Example
//!
//! ```
//! use memlp_core::{CrossbarPdipSolver, CrossbarSolverOptions};
//! use memlp_crossbar::CrossbarConfig;
//! use memlp_lp::{generator::RandomLp, LpStatus};
//!
//! // A random feasible LP with m = 16 constraints, 10% process variation.
//! let lp = RandomLp::paper(16, 42).feasible();
//! let solver = CrossbarPdipSolver::new(
//!     CrossbarConfig::paper_default().with_variation(10.0),
//!     CrossbarSolverOptions::default(),
//! );
//! let result = solver.solve(&lp);
//! assert_eq!(result.solution.status, LpStatus::Optimal);
//! println!("estimated hardware run time: {:.3} ms", result.ledger.run_time_s() * 1e3);
//! ```

mod hw;
mod large_scale;
mod newton;
mod pdhg_analog;
mod recovery;
mod solver;
mod trace;
mod transform;

pub use hw::{HwContext, ANALOG_TILE_SIDE};
pub use large_scale::{LargeScaleOptions, LargeScaleSolver};
pub use newton::{
    dense_core_bytes, AugmentedDirections, AugmentedSystem, Factorization, DENSE_CORE_LIMIT_BYTES,
};
pub use pdhg_analog::{CrossbarPdhgOptions, CrossbarPdhgSolver};
pub use recovery::{RecoveryEvent, RecoveryPolicy, RecoveryReport};
pub use solver::{CrossbarPdipSolver, CrossbarSolution, CrossbarSolver, CrossbarSolverOptions};
pub use trace::IterationRecord;
pub use transform::SignSplit;

// Budget machinery, re-exported so callers holding a crossbar solver (the
// CLI, the serve daemon) don't need a direct memlp-solvers dependency for
// cooperative cancellation.
pub use memlp_solvers::budget::{Budget, BudgetCause, Deadline, IterationDeadline};
