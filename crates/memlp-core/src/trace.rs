//! Per-iteration convergence records.
//!
//! The paper's latency/energy estimates are assembled from *simulated
//! iteration counts* (§4.4); a solve's trace — one [`IterationRecord`] per
//! iteration of its final attempt — is how the benchmark harness gets at
//! them, and it doubles as a debugging aid for convergence studies. The
//! recovery events and the write and factorization counters of the same
//! solve live on [`crate::CrossbarSolution`]'s `recovery` and `ledger`.

/// One iteration's convergence snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Barrier parameter µ (Eqn 8).
    pub mu: f64,
    /// Relative duality gap at the start of the iteration.
    pub gap: f64,
    /// Relative primal residual (hardware-observed).
    pub primal_residual: f64,
    /// Relative dual residual (hardware-observed).
    pub dual_residual: f64,
    /// Step length θ taken (Eqn 11); 0 if the iteration exited early.
    pub theta: f64,
}
