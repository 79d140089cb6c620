#![forbid(unsafe_code)]
//! Linear program types and workload generators for the `memlp` workspace.
//!
//! The canonical problem form throughout the workspace is the paper's
//! (§3.1):
//!
//! ```text
//! maximize cᵀx   subject to  A·x ⪯ b,  x ⪰ 0,    A ∈ ℝ^{m×n}
//! ```
//!
//! * [`LpProblem`] — the canonical form, with feasibility checks and the
//!   symmetric dual,
//! * [`LpSolution`] / [`LpStatus`] — the solver-agnostic result types shared
//!   by the software baselines and the crossbar solvers,
//! * [`generator`] — the paper's §4.2 random feasible/infeasible workloads
//!   (m constraints, n = m/3 variables) plus structured infeasible and
//!   unbounded instances,
//! * [`domains`] — the motivating applications from the paper's
//!   introduction ("routing, scheduling, and other optimization problems"):
//!   max-flow routing, multi-period production scheduling, and
//!   transportation problems, all emitted in canonical form,
//! * [`equilibrate`] — row equilibration, which improves the crossbar's
//!   analog dynamic-range utilization.
//!
//! # Example
//!
//! ```
//! use memlp_lp::LpProblem;
//! use memlp_linalg::Matrix;
//!
//! # fn main() -> Result<(), memlp_lp::LpError> {
//! // maximize x0 + x1  s.t.  x0 + 2 x1 ≤ 4,  3 x0 + x1 ≤ 6
//! let lp = LpProblem::new(
//!     Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 1.0]])?,
//!     vec![4.0, 6.0],
//!     vec![1.0, 1.0],
//! )?;
//! assert!(lp.is_feasible(&[1.0, 1.0], 1e-9));
//! assert_eq!(lp.objective(&[1.0, 1.0]), 2.0);
//! # Ok(())
//! # }
//! ```

mod error;
mod problem;
mod scaling;
mod solution;

pub mod domains;
pub mod format;
pub mod generator;

pub use error::LpError;
pub use problem::LpProblem;
pub use scaling::{equilibrate, Equilibration};
pub use solution::{LpSolution, LpStatus};
