//! Worker loop: pops admitted jobs and solves them on pooled warm
//! hardware contexts.
//!
//! Each worker owns a private [`ContextPool`], so no lock is held across
//! a solve. Beyond the solver's own in-context recovery ladder, the
//! worker adds one more robustness rung: when a solve comes back
//! non-optimal with *confirmed* hardware faults, the family's array is
//! scrapped and refabricated (new seed ⇒ fresh fault plan and variation
//! draw) and the job retried after a decaying backoff — the service-level
//! answer to a warm context that has accumulated unrecoverable defects.
//! Budget-degraded results are returned immediately, never retried: past
//! the deadline the client wants the best iterate now, not a better one
//! later.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use memlp_core::{
    Budget, CrossbarPdhgOptions, CrossbarPdhgSolver, CrossbarPdipSolver, CrossbarSolver,
    IterationDeadline, WriteStats,
};
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

/// Runs until the queue is closed **and** drained, so a graceful drain
/// finishes every admitted job before the worker exits.
pub fn run_worker(queue: &JobQueue<QueuedJob>, cfg: &ServeConfig, stats: &ServerStats) {
    let solver = instantiate(cfg);
    let mut pool = ContextPool::new(cfg.crossbar, cfg.pool_capacity);
    while let Some(q) = queue.pop() {
        let resp = solve_one(solver.as_ref(), &mut pool, cfg, &q.job);
        stats.record(&resp);
        // A gone receiver means the client hung up; the result is wasted
        // but the worker keeps serving.
        let _ = q.reply.send(resp);
    }
}

/// The worker's solver: the configured [`ServeSolver`] family,
/// instantiated at startup and driven through the warm-pool
/// [`CrossbarSolver::solve_on`] contract (warm `(x, y)` seeds plus
/// delta-programmed setup writes work the same way for Newton iterates
/// and PDHG iterates).
fn instantiate(cfg: &ServeConfig) -> Box<dyn CrossbarSolver> {
    match cfg.solver {
        ServeSolver::Pdip => Box::new(CrossbarPdipSolver::new(cfg.crossbar, cfg.options)),
        ServeSolver::Pdhg => Box::new(CrossbarPdhgSolver::new(
            cfg.crossbar,
            CrossbarPdhgOptions {
                recovery: cfg.options.recovery,
                ..CrossbarPdhgOptions::default()
            },
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

    let mut replacements = 0usize;
    loop {
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
        let deadline =
            (deadline_ticks > 0).then(|| IterationDeadline::new(deadline_ticks as usize));
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
        let before = WriteStats::from_ledger(entry.hw.ledger());
        let result = {
            // Split borrows: the warm iterate is read while the hardware
            // context is mutably driven.
            let warm = entry
                .warm
                .as_ref()
                .map(|(x, y)| (x.as_slice(), y.as_slice()));
            solver.solve_on(&lp, &mut entry.hw, budget, warm, Some(salt))
        };
        let writes = WriteStats::from_ledger(entry.hw.ledger()).since(&before);

        let optimal = result.solution.status.is_optimal();
        if optimal {
            entry.warm = Some((result.solution.x.clone(), result.solution.y.clone()));
        }

        // Service-level retry: only for non-optimal outcomes with
        // confirmed defects, never past a budget expiry.
        if !optimal
            && result.degraded.is_none()
            && result.recovery.saw_faults()
            && replacements < cfg.retry_limit
        {
            pool.reset(&key);
            let backoff = cfg.backoff_ms >> replacements;
            if backoff > 0 {
                std::thread::sleep(Duration::from_millis(backoff));
            }
            replacements += 1;
            continue;
        }

        return Response::Solution(SolutionBody {
            status: result.solution.status,
            degraded: result.degraded,
            objective: result.solution.objective,
            iterations: result.solution.iterations as u64,
            x: result.solution.x,
            y: result.solution.y,
            retries: (result.retries_used + replacements) as u32,
            escalations: result.recovery.escalations() as u32,
            saw_faults: result.recovery.saw_faults(),
            used_digital: result.recovery.used_digital_fallback(),
            cells_written: writes.cells_written,
            cells_skipped: writes.cells_skipped,
            warm_start,
            latency_us: started.elapsed().as_micros() as u64,
        });
    }
}
