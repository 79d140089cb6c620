#![forbid(unsafe_code)]
//! Dense linear algebra substrate for the `memlp` workspace.
//!
//! The memristor-crossbar LP solver simulates analog hardware by solving the
//! *perturbed* linear systems the hardware would physically settle to, so the
//! whole workspace rests on a small, fast, dependency-free dense linear
//! algebra kernel:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with block operations,
//! * [`LuFactors`] — blocked LU decomposition with partial pivoting
//!   (the O(N³) direct method the paper's complexity comparison targets)
//!   and iterative refinement against the unfactored matrix,
//! * [`SparseMatrix`] / [`SparseLu`] — CSR kernels and a fill-reducing
//!   sparse LU with symbolic-analysis reuse, the structure-exploiting
//!   digital path matching the paper's O(N)-per-iteration argument,
//! * [`BlockKkt`] — the fixed-pattern KKT matrix
//!   `[[diag(p), B], [C, −diag(q)]]`, assembled once with its diagonal
//!   slots and symbolic analysis, which Algorithm 1's sparse Newton core
//!   (unsymmetric under device variation) refactors by [`SparseLu`],
//! * [`SymmetricKkt`] — the symmetric quasi-definite KKT
//!   `[[diag(p), Aᵀ], [A, −diag(q)]]` of the normal-equations PDIP, built
//!   from `A` alone and refactored by a sparse LDLᵀ that stores only `L`
//!   and `D`, with refinement that stops at backward-error level,
//! * [`ops`] — vector kernels (dot, axpy, norms) on plain `&[f64]` slices,
//! * [`kernels`] — register-tiled, autovectorizer-friendly microkernels
//!   behind the dense and CSR entry points: one tile shape above a flop
//!   cutoff, plain loops below it, bitwise-identical to each other,
//! * [`parallel`] — the scoped-thread execution layer the hot kernels
//!   (LU trailing update, matvec, multi-column solves) schedule through,
//!   governed by `MEMLP_THREADS`,
//! * [`norm_est`] — a deterministic power-iteration estimate of `‖A‖₂`
//!   for first-order step-size selection, built on the CSR kernels and
//!   the thread pool.
//!
//! Vectors are deliberately plain `Vec<f64>` / `&[f64]`: every consumer in
//! the workspace (solvers, crossbar models, generators) wants to own and
//! mutate raw buffers, and a wrapper type would add friction without adding
//! invariants.
//!
//! # Example
//!
//! ```
//! use memlp_linalg::{Matrix, solve};
//!
//! # fn main() -> Result<(), memlp_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let x = solve(&a, &[1.0, 2.0])?;
//! assert!((a.matvec(&x)[0] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod block_kkt;
mod error;
mod lu;
mod matrix;
mod norms;
mod sparse;
mod sparse_ldl;
mod sparse_lu;
mod symbolic;
mod symmetric_kkt;

pub mod kernels;
pub mod norm_est;
pub mod ops;
pub mod parallel;

pub use block_kkt::BlockKkt;
pub use error::LinalgError;
pub use lu::LuFactors;
pub use matrix::Matrix;
pub use norms::inf_norm_mat;
pub use sparse::SparseMatrix;
pub use sparse_lu::SparseLu;
pub use symmetric_kkt::SymmetricKkt;

/// Solves the dense linear system `A·x = b` by LU decomposition with partial
/// pivoting.
///
/// This is a convenience wrapper around [`LuFactors::factor`] followed by
/// [`LuFactors::solve`]; factor explicitly when solving against multiple
/// right-hand sides.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if `A` is not square or `b`
/// has the wrong length, and [`LinalgError::Singular`] if a zero pivot is
/// encountered.
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    LuFactors::factor(a.clone())?.solve(b)
}
