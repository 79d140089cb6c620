#![forbid(unsafe_code)]
//! # memlp — a memristor-crossbar linear program solver
//!
//! A full Rust reproduction of *"A low-computation-complexity,
//! energy-efficient, and high-performance linear program solver based on
//! primal dual interior point method using memristor crossbars"* (Cai, Ren,
//! Soundarajan, Wang), including every substrate the paper depends on:
//!
//! | Layer | Crate | What it provides |
//! |---|---|---|
//! | Solvers (the contribution) | [`core`] | Algorithm 1 ([`CrossbarPdipSolver`]) and the large-scale Algorithm 2 ([`LargeScaleSolver`]), plus the §3.2 negative-coefficient transform |
//! | Analog NoC | [`noc`] | Hierarchical & mesh tile fabrics ([`TiledCrossbar`]) |
//! | Crossbar arrays | [`crossbar`] | The analog array simulator, 8-bit converters, cost ledger |
//! | Devices | [`device`] | Memristor models, pulse programming, process variation |
//! | LP toolkit | [`lp`] | Canonical problems, duals, random + domain workloads |
//! | Software baselines | [`solvers`] | Dense PDIP, normal-equations PDIP, simplex |
//! | Linear algebra | [`linalg`] | Dense and CSR matrices, blocked and sparse LU, iterative refinement |
//!
//! # Quickstart
//!
//! ```
//! use memlp::prelude::*;
//!
//! // A random feasible LP in the paper's canonical form (§4.2 workload).
//! let lp = RandomLp::paper(16, 7).feasible();
//!
//! // Solve it on simulated crossbar hardware with 10% process variation.
//! let solver = CrossbarPdipSolver::new(
//!     CrossbarConfig::paper_default().with_variation(10.0),
//!     CrossbarSolverOptions::default(),
//! );
//! let result = solver.solve(&lp);
//! assert_eq!(result.solution.status, LpStatus::Optimal);
//!
//! // Cross-check against the software reference.
//! let reference = NormalEqPdip::default().solve(&lp);
//! let rel = (result.solution.objective - reference.objective).abs()
//!     / (1.0 + reference.objective.abs());
//! assert!(rel < 0.1);
//!
//! // And inspect the estimated hardware cost.
//! println!("run {:.3} ms, {}", result.ledger.run_time_s() * 1e3, result.ledger);
//! ```

pub use memlp_core as core;
pub use memlp_crossbar as crossbar;
pub use memlp_device as device;
pub use memlp_linalg as linalg;
pub use memlp_lp as lp;
pub use memlp_noc as noc;
pub use memlp_solvers as solvers;

pub use memlp_core::{
    CrossbarPdhgOptions, CrossbarPdhgSolver, CrossbarPdipSolver, CrossbarSolution, CrossbarSolver,
    CrossbarSolverOptions, LargeScaleOptions, LargeScaleSolver, RecoveryEvent, RecoveryPolicy,
    RecoveryReport, SignSplit,
};
pub use memlp_crossbar::{CostLedger, Crossbar, CrossbarConfig, FaultModel};
pub use memlp_noc::{NocConfig, TiledCrossbar, Topology};

/// The most common imports in one place.
pub mod prelude {
    pub use memlp_core::{
        CrossbarPdhgOptions, CrossbarPdhgSolver, CrossbarPdipSolver, CrossbarSolution,
        CrossbarSolver, CrossbarSolverOptions, LargeScaleOptions, LargeScaleSolver, RecoveryEvent,
        RecoveryPolicy, RecoveryReport, SignSplit,
    };
    pub use memlp_crossbar::{
        CostLedger, Crossbar, CrossbarConfig, FaultModel, Fidelity, ReadoutMode,
    };
    pub use memlp_device::{CostParams, DeviceParams, VariationModel};
    pub use memlp_linalg::{LuFactors, Matrix};
    pub use memlp_lp::{domains, generator::RandomLp, LpProblem, LpSolution, LpStatus};
    pub use memlp_noc::{NocConfig, TiledCrossbar, Topology};
    pub use memlp_solvers::{
        Budget, BudgetCause, Deadline, DensePdip, IterationDeadline, LpSolver, MehrotraPdip,
        NormalEqPdip, PdhgOptions, PdhgSolver, PdipOptions, Simplex,
    };
}
