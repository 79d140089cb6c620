//! Server configuration.

use memlp_crossbar::CrossbarConfig;

/// Which crossbar solver family the workers run (`memlp serve --solver
/// alg1|pdhg-analog`).
///
/// Both families share the warm-context pool, budgets, and recovery
/// machinery, and each runs its own default options
/// (`CrossbarSolverOptions::default()`, `CrossbarPdhgOptions::default()`);
/// the choice is the per-iteration primitive. PDIP converges
/// in tens of iterations but pays O(N) diagonal rewrites plus an analog
/// solve each one; PDHG takes more iterations but each is two writes-free
/// analog MVMs, so repeat requests against a warm array consume no write
/// endurance at all and the digital controller state stays O(n + m).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeSolver {
    /// Algorithm 1: the crossbar PDIP solver (default; `alg1`).
    #[default]
    Pdip,
    /// The crossbar-native first-order backend (restarted PDHG;
    /// `pdhg-analog`).
    Pdhg,
}

/// Everything a [`Server`](crate::server::Server) needs to start.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Simulated hardware every worker builds its contexts from.
    pub crossbar: CrossbarConfig,
    /// Solver family the workers instantiate.
    pub solver: ServeSolver,
    /// Admission-queue capacity (jobs), summed across families. Full
    /// queue ⇒ load shed with `Overloaded`.
    pub queue_depth: usize,
    /// Worker threads, each owning a private warm-context pool. One
    /// worker serving sequential requests is deterministic end to end.
    pub workers: usize,
    /// Server-side default Newton-iteration cap applied to jobs that
    /// carry none (`0` = unlimited). A job's own nonzero cap wins.
    pub default_max_iters: u32,
    /// Server-side default iteration-tick deadline for jobs that carry
    /// none (`0` = no deadline). A job's own nonzero deadline wins.
    pub default_deadline_ticks: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            crossbar: CrossbarConfig::paper_default(),
            solver: ServeSolver::default(),
            queue_depth: 16,
            workers: 1,
            default_max_iters: 0,
            default_deadline_ticks: 0,
        }
    }
}

impl ServeConfig {
    /// Replaces the hardware model.
    pub fn with_crossbar(mut self, crossbar: CrossbarConfig) -> Self {
        self.crossbar = crossbar;
        self
    }

    /// Selects the solver family the workers run.
    pub fn with_solver(mut self, solver: ServeSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Sets the admission-queue capacity (min 1).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Sets the worker-thread count (min 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}
