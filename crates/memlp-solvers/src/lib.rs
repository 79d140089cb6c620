#![forbid(unsafe_code)]
//! Software LP solver baselines for the `memlp` workspace.
//!
//! The paper's evaluation (§4) compares the memristor crossbar solvers
//! against two software references, both reproduced here, plus an
//! independent correctness oracle:
//!
//! * [`DensePdip`] — the primal–dual interior-point method solving the full
//!   `2(n+m)` Newton system (Eqn 12) by LU factorization each iteration.
//!   This is the paper's "PDIP implemented in Matlab" baseline with
//!   O(N³)-per-iteration complexity (§3.5).
//! * [`NormalEqPdip`] — the same PDIP iteration reduced to `m×m` normal
//!   equations, the standard high-performance formulation; this is the
//!   workspace's stand-in for **Matlab `linprog`** (see DESIGN.md §3 on
//!   substitutions) and the accuracy reference for every relative-error
//!   figure.
//! * [`Simplex`] — a two-phase primal simplex (§2.1's classical
//!   alternative), used as an independent cross-check at small sizes.
//! * [`PdhgSolver`] — a restarted primal–dual hybrid gradient method
//!   (first-order, matrix-free: one MVM with `A` and one with `Aᵀ` per
//!   iteration), the scale regime past the dense Newton-core wall; see
//!   [`pdhg`] for the iteration and the operator abstraction the analog
//!   path plugs into.
//!
//! All solvers consume [`memlp_lp::LpProblem`] (canonical
//! `max cᵀx, Ax ⪯ b, x ⪰ 0`) and produce [`memlp_lp::LpSolution`].
//!
//! # Example
//!
//! ```
//! use memlp_lp::{generator::RandomLp, LpStatus};
//! use memlp_solvers::{LpSolver, NormalEqPdip};
//!
//! let lp = RandomLp::paper(16, 7).feasible();
//! let solution = NormalEqPdip::default().solve(&lp);
//! assert_eq!(solution.status, LpStatus::Optimal);
//! ```

mod pdip_dense;
mod pdip_mehrotra;
mod pdip_normal;
mod simplex;

pub mod budget;
pub mod pdhg;
pub mod pdip;

pub use budget::{Budget, BudgetCause, Deadline, IterationDeadline};
pub use pdhg::{PdhgOptions, PdhgSolver};
pub use pdip::PdipOptions;
pub use pdip_dense::DensePdip;
pub use pdip_mehrotra::MehrotraPdip;
pub use pdip_normal::NormalEqPdip;
pub use simplex::Simplex;

use memlp_lp::{LpProblem, LpSolution};

/// A linear program solver.
///
/// Object-safe so benches can iterate over a heterogeneous baseline set.
/// [`LpSolver::solve_budgeted`] is the one required solve method;
/// [`LpSolver::solve`] is it under [`Budget::none`].
pub trait LpSolver {
    /// Solves the canonical-form problem.
    fn solve(&self, lp: &LpProblem) -> LpSolution {
        self.solve_budgeted(lp, Budget::none()).0
    }

    /// Solves under an iteration [`Budget`], polled once per Newton
    /// iteration. On a budget exit the best-so-far iterate is returned
    /// with `LpStatus::IterationLimit` and the triggering [`BudgetCause`];
    /// with [`Budget::none`] the result is bit-for-bit that of
    /// [`LpSolver::solve`]. Solvers without cooperative checks (e.g.
    /// simplex) ignore the budget.
    fn solve_budgeted(
        &self,
        lp: &LpProblem,
        budget: Budget<'_>,
    ) -> (LpSolution, Option<BudgetCause>);

    /// Short human-readable name for tables and logs.
    fn name(&self) -> &'static str;
}
