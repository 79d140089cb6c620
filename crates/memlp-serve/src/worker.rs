//! Worker loop: pops admitted jobs and solves them on pooled warm
//! hardware contexts.
//!
//! Each worker owns a private [`ContextPool`], so no lock is held across
//! a solve. Every job is answered from one run of the solver's own §4.3
//! recovery ladder (variation redraws, hardware rungs, digital fallback)
//! on the family's warm array; the worker adds no retry of its own, so a
//! reply is exactly what [`CrossbarSolver::solve_on`] returns on that
//! context. Budget-degraded results come back as they are: past the
//! deadline the client wants the best iterate now.

use std::sync::mpsc;
use std::time::Instant;

use memlp_core::{
    Budget, CrossbarPdhgOptions, CrossbarPdhgSolver, CrossbarPdipSolver, CrossbarSolver,
    CrossbarSolverOptions, IterationDeadline,
};
use memlp_crossbar::OpCounts;
use memlp_linalg::Matrix;
use memlp_lp::LpProblem;

use crate::codec::{Response, SolutionBody, SolveJob};
use crate::config::{ServeConfig, ServeSolver};
use crate::pool::{occupancy_fingerprint, problem_fingerprint, ContextPool, FamilyKey};
use crate::queue::JobQueue;
use crate::server::ServerStats;

/// One admitted job plus the channel its response travels back on.
pub struct QueuedJob {
    /// The decoded solve request.
    pub job: SolveJob,
    /// Reply channel back to the connection that admitted the job.
    pub reply: mpsc::Sender<Response>,
}

/// Warm contexts each worker keeps before LRU eviction.
const POOL_CAPACITY: usize = 8;

/// Runs until the queue is closed **and** drained, so a graceful drain
/// finishes every admitted job before the worker exits.
pub fn run_worker(queue: &JobQueue<QueuedJob>, cfg: &ServeConfig, stats: &ServerStats) {
    let solver = instantiate(cfg);
    let mut pool = ContextPool::new(cfg.crossbar, POOL_CAPACITY);
    while let Some(q) = queue.pop() {
        let resp = solve_one(solver.as_ref(), &mut pool, cfg, &q.job);
        stats.record(&resp);
        // A gone receiver means the client hung up; the result is wasted
        // but the worker keeps serving.
        let _ = q.reply.send(resp);
    }
}

/// The worker's solver: the configured [`ServeSolver`] family at its
/// default options, instantiated at startup and driven through the
/// warm-pool [`CrossbarSolver::solve_on`] contract (warm `(x, y)` seeds
/// plus delta-programmed setup writes work the same way for Newton
/// iterates and PDHG iterates).
fn instantiate(cfg: &ServeConfig) -> Box<dyn CrossbarSolver> {
    match cfg.solver {
        ServeSolver::Pdip => Box::new(CrossbarPdipSolver::new(
            cfg.crossbar,
            CrossbarSolverOptions::default(),
        )),
        ServeSolver::Pdhg => Box::new(CrossbarPdhgSolver::new(
            cfg.crossbar,
            CrossbarPdhgOptions::default(),
        )),
    }
}

/// Decodes the job into a canonical-form [`LpProblem`], surfacing shape
/// mismatches and non-finite coefficients as client errors.
fn build_problem(job: &SolveJob) -> Result<LpProblem, String> {
    let rows = job.rows as usize;
    let cols = job.cols as usize;
    let a = Matrix::from_vec(rows, cols, job.a.clone()).map_err(|e| e.to_string())?;
    LpProblem::new(a, job.b.clone(), job.c.clone()).map_err(|e| e.to_string())
}

fn solve_one(
    solver: &dyn CrossbarSolver,
    pool: &mut ContextPool,
    cfg: &ServeConfig,
    job: &SolveJob,
) -> Response {
    let started = Instant::now();
    let lp = match build_problem(job) {
        Ok(lp) => lp,
        Err(message) => return Response::Error { message },
    };
    if let Err(e) = solver.preflight(&lp) {
        return Response::Error {
            message: e.to_string(),
        };
    }
    let key = FamilyKey {
        tag: job.family.clone(),
        rows: job.rows as usize,
        cols: job.cols as usize,
        occupancy: occupancy_fingerprint(&lp),
    };
    let fingerprint = problem_fingerprint(&lp);

    // Per-request budgets override the server-side defaults.
    let max_iters = if job.max_iters > 0 {
        job.max_iters
    } else {
        cfg.default_max_iters
    };
    let deadline_ticks = if job.deadline_ticks > 0 {
        job.deadline_ticks
    } else {
        cfg.default_deadline_ticks
    };
    // Deadline object must outlive the budget borrowing it.
    let deadline = (deadline_ticks > 0).then(|| IterationDeadline::new(deadline_ticks as usize));
    let mut budget = Budget::none();
    if max_iters > 0 {
        budget = budget.with_max_iters(max_iters as usize);
    }
    if let Some(d) = deadline.as_ref() {
        budget = budget.with_deadline(d);
    }

    let entry = pool.entry(&key, fingerprint);
    let warm_start = entry.warm.is_some();
    let salt = entry.solves;
    entry.solves += 1;
    let before = entry.hw.ledger().counts();
    let result = {
        // Split borrows: the warm iterate is read while the hardware
        // context is mutably driven.
        let warm = entry
            .warm
            .as_ref()
            .map(|(x, y)| (x.as_slice(), y.as_slice()));
        solver.solve_on(&lp, &mut entry.hw, budget, warm, Some(salt))
    };
    // The warm context's ledger spans its whole life: this request's
    // writes are the (saturating) difference across the solve.
    let after = entry.hw.ledger().counts();
    let written = |c: &OpCounts| c.setup_writes + c.update_writes;
    if result.solution.status.is_optimal() {
        entry.warm = Some((result.solution.x.clone(), result.solution.y.clone()));
    }

    Response::Solution(SolutionBody {
        status: result.solution.status,
        degraded: result.degraded,
        objective: result.solution.objective,
        iterations: result.solution.iterations as u64,
        x: result.solution.x,
        y: result.solution.y,
        retries: result.retries_used as u32,
        escalations: result.recovery.escalations() as u32,
        saw_faults: result.recovery.saw_faults(),
        used_digital: result.recovery.used_digital_fallback(),
        cells_written: written(&after).saturating_sub(written(&before)),
        cells_skipped: after.skipped_writes.saturating_sub(before.skipped_writes),
        warm_start,
        latency_us: started.elapsed().as_micros() as u64,
    })
}
