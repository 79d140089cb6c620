use memlp_crossbar::{CostLedger, CrossbarConfig, Fidelity};
use memlp_linalg::{ops, parallel, Matrix};
use memlp_lp::{LpProblem, LpSolution, LpStatus};
use memlp_solvers::budget::{Budget, BudgetCause};
use memlp_solvers::pdip::{CoreSolveError, PdipOptions, PdipState, DIVERGENCE_BOUND, STEP_SAFETY};

use crate::hw::HwContext;
use crate::newton::{AugmentedSystem, Factorization};
use crate::recovery::{Attempt, Ladder, RecoveryPolicy, RecoveryReport};
use crate::trace::IterationRecord;

/// The §3.2 relaxed feasibility parameter `α` (slightly above 1) of
/// Algorithm 1: the final solution must satisfy `A·x ⪯ α·b`.
const ALPHA: f64 = 1.05;
/// Iterations without a ≥5% best-score improvement before Algorithm 1
/// gives up on a stall whose verdict is still open — one that would answer
/// `NumericalFailure`, which a late improvement can still turn into an
/// accepted answer instead of a retry. Quantized analog I/O imposes a noise
/// floor on the observable residuals; a stall with a settled verdict exits
/// after [`DECISIVE_WINDOW`] instead.
const STALL_WINDOW: usize = 25;
/// Iterations without a ≥5% best-score improvement after which a stall
/// whose verdict is settled — `Optimal` (best score at or below
/// `ACCEPT_FLOOR`, passing the stall's constraint and objective checks) or
/// `Infeasible` (at or above `INFEASIBLE_FLOOR`) — exits: waiting longer
/// only re-confirms the converters' noise floor. A study over
/// `RandomLp::paper` draws (m = 24–256, 0–20% variation), the
/// soundness-probe domains and the CLI fault rates found no ok,
/// wrong-verdict or retry count made worse by 8, 10, 12 or 16 against a
/// uniform 25. 12 keeps the dozen iterations of history the singular-solve
/// exit asks before it certifies infeasibility, and cuts Algorithm 1's
/// iterations by 37–46% at 5–20% variation (DESIGN §9).
const DECISIVE_WINDOW: usize = 12;
/// Largest relative residual/gap score accepted as "converged at the
/// hardware noise floor" when a stall is declared.
const ACCEPT_FLOOR: f64 = 8e-2;
/// Relative primal-residual level at (or above) which a stalled run is
/// classified as infeasible (a contradiction gap, not noise).
const INFEASIBLE_FLOOR: f64 = 0.30;
/// Re-solve attempts after the first (the §4.3 "double checking scheme":
/// each retry rewrites the array, redrawing variation).
const RETRIES: usize = 2;

/// The solvers' block model realizes every write at functional fidelity
/// ([`memlp_crossbar::ArrayBlock`]); a configuration asking for the circuit
/// model is refused instead of silently downgraded.
///
/// # Errors
///
/// [`CoreSolveError::CircuitFidelity`] at [`Fidelity::Circuit`].
pub(crate) fn functional_only(config: &CrossbarConfig) -> Result<(), CoreSolveError> {
    match config.fidelity {
        Fidelity::Functional => Ok(()),
        Fidelity::Circuit => Err(CoreSolveError::CircuitFidelity),
    }
}

/// Options specific to the crossbar solvers, wrapping [`PdipOptions`] with
/// the paper's hardware-level policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarSolverOptions {
    /// Outer-loop PDIP options. Exit tolerances default looser than the
    /// software baselines: the 8-bit analog I/O sets a noise floor well
    /// above 1e-8.
    pub pdip: PdipOptions,
    /// Re-program the static blocks every `refresh_every` iterations
    /// (0 = never) — the mitigation for conductance drift
    /// ([`memlp_device::DriftModel`]); the rewrites are charged to the
    /// run phase like any other update.
    pub refresh_every: usize,
    /// How far the solver may escalate when write–verify reports defects
    /// (see [`RecoveryPolicy`]).
    pub recovery: RecoveryPolicy,
}

impl Default for CrossbarSolverOptions {
    fn default() -> Self {
        CrossbarSolverOptions {
            // Exit tolerances sit just above the 20%-variation noise floor,
            // so ideal hardware converges quickly and variation stretches
            // the iteration count toward the same target — the behaviour
            // behind the paper's latency-vs-variation trend (Fig 6a). The
            // stall detector below remains the backstop for runs whose
            // floor is above these tolerances.
            pdip: PdipOptions {
                eps_primal: 2e-2,
                eps_dual: 2e-2,
                eps_gap: 8e-3,
                max_iterations: 250,
                ..PdipOptions::default()
            },
            refresh_every: 0,
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// Result of a crossbar solve: the LP solution plus hardware accounting.
#[derive(Debug, Clone)]
pub struct CrossbarSolution {
    /// The solver-agnostic solution record.
    pub solution: LpSolution,
    /// Hardware latency/energy/operation ledger (all retries merged).
    pub ledger: CostLedger,
    /// Per-iteration convergence trace of the final attempt.
    pub trace: Vec<IterationRecord>,
    /// Re-solve attempts that were needed (0 = first attempt succeeded).
    pub retries_used: usize,
    /// Structured account of fault detections and every recovery rung the
    /// solve climbed (empty on defect-free hardware).
    pub recovery: RecoveryReport,
    /// `Some(cause)` when an explicit [`Budget`] expired mid-solve: the
    /// solution then carries the **best feasible iterate observed so far**
    /// under [`LpStatus::IterationLimit`] instead of a converged optimum —
    /// graceful degradation rather than an open-ended hang. `None` for
    /// unbudgeted solves and for budgeted solves that finished in time.
    pub degraded: Option<BudgetCause>,
}

/// The crossbar solver families — [`CrossbarPdipSolver`] (Algorithm 1),
/// [`LargeScaleSolver`](crate::LargeScaleSolver) (Algorithm 2) and
/// [`CrossbarPdhgSolver`](crate::CrossbarPdhgSolver) — behind one
/// object-safe surface, so a front end (the CLI's solver registry, the
/// serve worker) holds a `dyn CrossbarSolver` instead of matching on the
/// family.
pub trait CrossbarSolver: Sync {
    /// The hardware configuration a cold solve provisions.
    fn config(&self) -> &CrossbarConfig;

    /// Cheap admission check a batch or service front end runs **before**
    /// committing hardware attempts: an instance the family cannot solve —
    /// Algorithm 2's dense core past the [`crate::DENSE_CORE_LIMIT_BYTES`]
    /// allocation guard — is refused up front with
    /// [`CoreSolveError::CoreTooLarge`] instead of burning a full retry
    /// ladder to learn the same thing. Every family refuses a
    /// configuration at [`Fidelity::Circuit`] with
    /// [`CoreSolveError::CircuitFidelity`] rather than silently run it at
    /// functional fidelity.
    fn preflight(&self, lp: &LpProblem) -> Result<(), CoreSolveError>;

    /// Solves `lp` on an **existing** hardware context — the warm-pool
    /// entry point used by `memlp-serve`.
    ///
    /// With `reuse_salt = Some(salt)` the first attempt restarts only the
    /// transient noise via [`HwContext::begin_reuse`] (salted, e.g., with
    /// a per-context solve counter), keeping the array's variation draw,
    /// delta-write code caches and fault state — so a repeat solve of the
    /// same problem family skips unchanged cell writes. `None` starts
    /// cold, exactly as a solve on fresh hardware does. Escalation
    /// retries always redraw variation via [`HwContext::begin_attempt`].
    ///
    /// `warm` optionally seeds the first attempt's iterate from a previous
    /// solution's `(x, y)` pair; escalation retries restart from the
    /// family's default point so a bad warm point can never mask a
    /// hardware fault.
    fn solve_on(
        &self,
        lp: &LpProblem,
        hw: &mut HwContext,
        budget: Budget<'_>,
        warm: Option<(&[f64], &[f64])>,
        reuse_salt: Option<u64>,
    ) -> CrossbarSolution;

    /// Solves `lp` on freshly provisioned hardware under an explicit
    /// iteration/deadline [`Budget`], re-solving on failure up to the
    /// retry budget and escalating through the fault-recovery ladder
    /// between attempts (see [`RecoveryPolicy`]).
    ///
    /// The budget is polled once per iteration, cumulatively across retry
    /// attempts. When it expires the solve stops cooperatively and returns
    /// the best iterate observed so far with [`CrossbarSolution::degraded`]
    /// set — no retry escalation and no digital fallback are attempted
    /// past the deadline. With [`Budget::none()`] the solve is unbudgeted.
    fn solve_budgeted(&self, lp: &LpProblem, budget: Budget<'_>) -> CrossbarSolution {
        self.solve_on(lp, &mut HwContext::new(*self.config()), budget, None, None)
    }

    /// Solves a batch of problems concurrently, one independent solver pass
    /// per problem, returning per-item results in input order.
    ///
    /// Admission is per item: a poisoned instance (one [`Self::preflight`]
    /// refuses) yields an `Err` in *its* slot while every sibling still
    /// solves and returns normally.
    ///
    /// `jobs = 0` resolves the worker count from the environment
    /// (`MEMLP_THREADS`, then available parallelism). Each problem is an
    /// isolated simulation with its own [`HwContext`] and deterministic
    /// seeds, so batch results are identical to per-problem cold solves at
    /// any worker count.
    ///
    /// Parallelism is applied *across* batch items only: each worker runs
    /// its solves with the inner kernels pinned serial. The per-solve
    /// matrices are far too small to amortize nested thread fan-out, and
    /// oversubscribing (jobs × kernel threads) used to make `threads=2`
    /// slower than `threads=1`.
    fn solve_batch(
        &self,
        lps: &[LpProblem],
        jobs: usize,
    ) -> Vec<Result<CrossbarSolution, CoreSolveError>> {
        let jobs = if jobs == 0 {
            parallel::Threads::resolve().get()
        } else {
            jobs
        };
        parallel::run_indexed(jobs, lps.len(), |i| {
            parallel::with_threads(1, || {
                self.preflight(&lps[i])?;
                Ok(self.solve_budgeted(&lps[i], Budget::none()))
            })
        })
    }
}

/// **Algorithm 1** — the memristor crossbar-based linear program solver.
///
/// Each PDIP iteration (paper §3.2):
/// 1. update the `X/Y/Z/W` diagonals of the crossbar matrix `M` —
///    O(N) coefficient writes;
/// 2. derive `r` on the crossbar: one analog MVM (Eqn 15b) subtracted from
///    the constant vector (summing amplifiers), rows 3–4 halved;
/// 3. solve `M·Δs = r` — one O(1) analog solve;
/// 4. step `s ← s + θ·Δs` (Eqn 10–11) and update `µ` (Eqn 8).
///
/// Exit on the §3.1 conditions, with the §3.2 `A·x ⪯ α·b` post-check and
/// re-solve-on-failure. All hardware activity is charged to the returned
/// [`CostLedger`].
///
/// # Example
///
/// ```
/// use memlp_core::{CrossbarPdipSolver, CrossbarSolverOptions};
/// use memlp_crossbar::CrossbarConfig;
/// use memlp_lp::{generator::RandomLp, LpStatus};
///
/// let lp = RandomLp::paper(12, 3).feasible();
/// let solver = CrossbarPdipSolver::new(
///     CrossbarConfig::paper_default().with_variation(10.0),
///     CrossbarSolverOptions::default(),
/// );
/// let result = solver.solve(&lp);
/// assert_eq!(result.solution.status, LpStatus::Optimal);
/// ```
#[derive(Debug, Clone)]
pub struct CrossbarPdipSolver {
    config: CrossbarConfig,
    options: CrossbarSolverOptions,
    /// The core factorization every attempt forces in place of the
    /// input's pick; set only by the crate's whole-solve comparisons of
    /// the two factorizations.
    pub(crate) forced: Option<Factorization>,
}

impl CrossbarSolver for CrossbarPdipSolver {
    fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// Refuses circuit fidelity only: an oversized dense core reroutes to
    /// the sparse factorization.
    fn preflight(&self, _lp: &LpProblem) -> Result<(), CoreSolveError> {
        functional_only(&self.config)
    }

    fn solve_on(
        &self,
        lp: &LpProblem,
        hw: &mut HwContext,
        budget: Budget<'_>,
        warm: Option<(&[f64], &[f64])>,
        reuse_salt: Option<u64>,
    ) -> CrossbarSolution {
        let ladder = Ladder {
            policy: self.options.recovery,
            retries: RETRIES,
            alpha: ALPHA,
            seed_base: 0,
            alpha_check_always: false,
            keep_best: false,
            classify_accepted: false,
        };
        // Aᵀ is attempt-invariant; hoist it out of the retry loop. Fault
        // plans persist in `hw` across attempts (only the Eqn 18
        // variation redraws).
        let at = lp.a().transpose();
        let mut spent = 0usize;
        ladder.run(
            lp,
            hw,
            reuse_salt,
            |hw, k| {
                let init = if k == 0 { warm } else { None };
                Some(self.attempt(lp, &at, hw, budget, &mut spent, init))
            },
            |solution| self.classify_exhausted(lp, solution),
        )
    }
}

impl CrossbarPdipSolver {
    /// Creates a solver over the given hardware configuration.
    pub fn new(config: CrossbarConfig, options: CrossbarSolverOptions) -> Self {
        CrossbarPdipSolver {
            config,
            options,
            forced: None,
        }
    }

    /// [`CrossbarSolver::solve_budgeted`] without a budget.
    pub fn solve(&self, lp: &LpProblem) -> CrossbarSolution {
        self.solve_budgeted(lp, Budget::none())
    }

    /// [`CrossbarSolver::solve_budgeted`], callable without the trait in
    /// scope.
    pub fn solve_budgeted(&self, lp: &LpProblem, budget: Budget<'_>) -> CrossbarSolution {
        CrossbarSolver::solve_budgeted(self, lp, budget)
    }

    /// Exhaustion rule: once the retries are spent, a residual pinned at
    /// the infeasibility level that also fails the §3.2 relaxed check is
    /// the verdict.
    fn classify_exhausted(&self, lp: &LpProblem, solution: &mut LpSolution) {
        if matches!(
            solution.status,
            LpStatus::NumericalFailure | LpStatus::IterationLimit
        ) && !solution.x.is_empty()
        {
            // Both signals together: the residual never left the
            // contradiction zone (half the stall-path floor suffices here
            // because the α-check must *also* fail) and the iterate
            // grossly violates A·x ⪯ α·b.
            let bnorm = 1.0 + ops::inf_norm(lp.b());
            if solution.primal_residual / bnorm >= 0.5 * INFEASIBLE_FLOOR
                && !lp.satisfies_relaxed_scaled(&solution.x, ALPHA)
            {
                solution.status = LpStatus::Infeasible;
            }
        }
    }

    /// One full solve attempt on freshly written hardware.
    fn attempt(
        &self,
        lp: &LpProblem,
        at: &Matrix,
        hw: &mut HwContext,
        budget: Budget<'_>,
        spent: &mut usize,
        init: Option<(&[f64], &[f64])>,
    ) -> Attempt {
        let opts = &self.options.pdip;
        // A warm start clamps the previous iterate strictly inside the
        // positive orthant; the floor keeps the first complementarity
        // products well-scaled even when the seed solution had active
        // (near-zero) coordinates.
        let mut state = match init {
            Some((x0, y0)) => PdipState::warm_start(lp, x0, y0, opts.warm_start_floor),
            None => PdipState::new(lp),
        };
        let mut trace = Vec::new();
        let mut system = AugmentedSystem::program_with_at(lp, at, &state, hw);
        if let Some(factorization) = self.forced {
            system.force_factorization(factorization);
        }

        let bnorm = 1.0 + ops::inf_norm(lp.b());
        let cnorm = 1.0 + ops::inf_norm(lp.c());
        // Best-iterate tracking: quantized I/O gives the residuals a noise
        // floor, so the controller keeps the best observed iterate and
        // stops once progress stalls.
        let mut best_state = state.clone();
        let mut best_score = f64::INFINITY;
        let mut best_iter = 0usize;
        // Hardware clock at the previous ageing point (drift bookkeeping).
        let mut iter_clock = hw.ledger().run_time_s();

        for iter in 0..opts.max_iterations {
            // Cooperative cancellation: the budget is polled once per
            // Newton iteration (`spent` accumulates across retry attempts).
            // Expiry surrenders the best iterate seen so far — degradation,
            // not failure — so a deadline can never hang a request.
            if let Some(cause) = budget.check(*spent) {
                let best = if best_score.is_finite() {
                    best_state
                } else {
                    state
                };
                return (
                    best.into_solution(lp, LpStatus::IterationLimit, iter),
                    trace,
                    Some(cause),
                );
            }
            *spent += 1;
            // Divergence / NaN checks are digital (the controller tracks s).
            if let Some(status) = state.divergence() {
                return (state.into_solution(lp, status, iter), trace, None);
            }

            // (1) O(N) coefficient updates; static blocks age by the
            // hardware time the previous iteration consumed, and are
            // refreshed on the configured cadence.
            if iter > 0 {
                system.update_diagonals(&state, hw);
                let dt = hw.ledger().run_time_s() - iter_clock;
                system.age(dt, hw);
                iter_clock = hw.ledger().run_time_s();
                if self.options.refresh_every > 0 && iter % self.options.refresh_every == 0 {
                    system.refresh_static(hw);
                }
            }

            // (2) r from the crossbar MVM (Eqn 15a/15b).
            let mu = state.mu();
            let s = system.s_vector(&state);
            let ms = system.mvm(&s, hw);
            let constant = system.rhs_constant(lp, mu);
            let r = system.assemble_rhs(&constant, &ms);

            // Convergence tests on the hardware-observed residuals.
            let (rho, sigma) = system.residual_views(&r);
            let pr = ops::inf_norm(rho) / bnorm;
            let dr = ops::inf_norm(sigma) / cnorm;
            let gap = state.duality_gap() / (1.0 + lp.objective(&state.x).abs());
            trace.push(IterationRecord {
                mu,
                gap,
                primal_residual: pr,
                dual_residual: dr,
                theta: 0.0,
            });
            if pr <= opts.eps_primal && dr <= opts.eps_dual && gap <= opts.eps_gap {
                let mut status = self.final_status(lp, &state);
                // On confirmed-defective hardware the observed residuals
                // describe the realized (faulty) system, so back the exit
                // with a digital primal–dual agreement check on the true
                // problem — catches feasible-but-suboptimal convergence on
                // an array whose dead line dropped a binding constraint.
                if status == LpStatus::Optimal && hw.saw_faults() {
                    let dual_obj: f64 = lp.b().iter().zip(&state.y).map(|(b, y)| b * y).sum();
                    let primal_obj = lp.objective(&state.x);
                    if (primal_obj - dual_obj).abs() / (1.0 + primal_obj.abs()) > ACCEPT_FLOOR {
                        status = LpStatus::NumericalFailure;
                    }
                }
                return (state.into_solution(lp, status, iter), trace, None);
            }
            let score = pr.max(dr).max(gap);
            if score < 0.95 * best_score {
                best_score = score;
                best_state = state.clone();
                best_iter = iter;
            } else if iter - best_iter >= DECISIVE_WINDOW {
                // Progress has hit the analog noise floor. A settled verdict
                // exits now; an open one waits out the full window.
                let status = stall_status(lp, &best_state, best_score, hw.saw_faults());
                if status != LpStatus::NumericalFailure || iter - best_iter >= STALL_WINDOW {
                    return (best_state.into_solution(lp, status, iter), trace, None);
                }
            }

            // (3) analog solve for the step directions. A singular realized
            // system ends the attempt; classify by the residual level (an
            // infeasible run drives the complementarity diagonals into a
            // structurally singular corner long before the iterates
            // formally diverge). A `CoreTooLarge` refusal is routed the
            // same way: it only surfaces when a factorization broke down
            // and its fallback would not fit, which is the singular-corner
            // signature.
            let Ok(aug) = system.solve(&r, hw) else {
                // Require a dozen iterations of history so a transient
                // early singularity on a feasible problem is retried
                // rather than misread as a certificate.
                let status = if iter >= 12 && best_score >= INFEASIBLE_FLOOR {
                    LpStatus::Infeasible
                } else {
                    LpStatus::NumericalFailure
                };
                return (state.into_solution(lp, status, iter), trace, None);
            };

            // (4) damped update.
            let theta = state.step_length(&aug.dirs, STEP_SAFETY);
            if let Some(last) = trace.last_mut() {
                last.theta = theta;
            }
            state.apply_step(&aug.dirs, theta);
        }

        let status = match () {
            _ if ops::inf_norm(&state.y) > DIVERGENCE_BOUND => LpStatus::Infeasible,
            _ if ops::inf_norm(&state.x) > DIVERGENCE_BOUND => LpStatus::Unbounded,
            _ => LpStatus::IterationLimit,
        };
        (
            state.into_solution(lp, status, opts.max_iterations),
            trace,
            None,
        )
    }

    /// The §3.2 post-check: a "converged" solution that violates
    /// `A·x ⪯ α·b` is not trusted (process variation corrupted the
    /// constraints); report it as a numerical failure so the retry loop
    /// re-solves with fresh variation.
    fn final_status(&self, lp: &LpProblem, state: &PdipState) -> LpStatus {
        if lp.satisfies_relaxed_scaled(&state.x, ALPHA) {
            LpStatus::Optimal
        } else {
            LpStatus::NumericalFailure
        }
    }
}

/// The verdict of a stall whose best iterate is `best`, at best score
/// `best_score`: classified by the stall level (see Algorithm 2's
/// `INFEASIBLE_FLOOR`). Acceptance still passes the §3.2 constraint check,
/// at the slack the floor implies (observed residual ≤ floor·scale plus
/// read-out noise ⇒ α = 1 + 2·floor).
fn stall_status(lp: &LpProblem, best: &PdipState, best_score: f64, saw_faults: bool) -> LpStatus {
    if best_score >= INFEASIBLE_FLOOR {
        return LpStatus::Infeasible;
    }
    if best_score > ACCEPT_FLOOR {
        return LpStatus::NumericalFailure;
    }
    let alpha_stall = 1.0 + 2.0 * ACCEPT_FLOOR;
    // Primal–dual objective agreement closes the loophole where a feasible
    // iterate with corrupted duals sails through the residual score (cf.
    // the Algorithm-2 gate).
    let dual_obj: f64 = lp.b().iter().zip(&best.y).map(|(b, y)| b * y).sum();
    let primal_obj = lp.objective(&best.x);
    let obj_gap = (primal_obj - dual_obj).abs() / (1.0 + primal_obj.abs());
    // Confirmed defects halve the acceptable primal–dual disagreement: a
    // dead line can leave a feasible but markedly suboptimal iterate whose
    // corrupted duals agree just well enough for the stock gate.
    let gap_cap = if saw_faults {
        ACCEPT_FLOOR
    } else {
        2.0 * ACCEPT_FLOOR
    };
    if lp.satisfies_relaxed_scaled(&best.x, alpha_stall) && obj_gap <= gap_cap {
        LpStatus::Optimal
    } else {
        LpStatus::NumericalFailure
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memlp_lp::generator::RandomLp;
    use memlp_solvers::{LpSolver, NormalEqPdip};

    fn solver(var_pct: f64, seed: u64) -> CrossbarPdipSolver {
        CrossbarPdipSolver::new(
            CrossbarConfig::paper_default()
                .with_variation(var_pct)
                .with_seed(seed),
            CrossbarSolverOptions::default(),
        )
    }

    #[test]
    fn preflight_refuses_circuit_fidelity() {
        let lp = RandomLp::paper(12, 1).feasible();
        let circuit = CrossbarPdipSolver::new(
            CrossbarConfig::paper_default().circuit(),
            CrossbarSolverOptions::default(),
        );
        let err = circuit.preflight(&lp).expect_err("circuit must be refused");
        assert_eq!(err, CoreSolveError::CircuitFidelity);
        assert!(err.to_string().contains("functional fidelity"), "{err}");
        assert!(solver(0.0, 1).preflight(&lp).is_ok());
    }

    #[test]
    fn solves_small_ideal() {
        let lp = RandomLp::paper(12, 1).feasible();
        let res = solver(0.0, 1).solve(&lp);
        assert_eq!(res.solution.status, LpStatus::Optimal, "{}", res.solution);
        let reference = NormalEqPdip::default().solve(&lp);
        let rel = (res.solution.objective - reference.objective).abs()
            / (1.0 + reference.objective.abs());
        assert!(rel < 0.02, "relative error {rel}");
    }

    #[test]
    fn solves_under_variation() {
        for var in [5.0, 10.0, 20.0] {
            let lp = RandomLp::paper(24, 2).feasible();
            let res = solver(var, 3).solve(&lp);
            assert_eq!(
                res.solution.status,
                LpStatus::Optimal,
                "var {var}%: {}",
                res.solution
            );
            let reference = NormalEqPdip::default().solve(&lp);
            let rel = (res.solution.objective - reference.objective).abs()
                / (1.0 + reference.objective.abs());
            assert!(rel < 0.15, "var {var}%: relative error {rel}");
        }
    }

    #[test]
    fn detects_infeasible() {
        for seed in [5, 6, 7] {
            let lp = RandomLp::paper(24, seed).infeasible();
            let res = solver(0.0, seed + 2).solve(&lp);
            assert_eq!(
                res.solution.status,
                LpStatus::Infeasible,
                "seed {seed}: {}",
                res.solution
            );
        }
    }

    #[test]
    fn ledger_reflects_the_papers_cost_structure() {
        let lp = RandomLp::paper(24, 4).feasible();
        let res = solver(0.0, 9).solve(&lp);
        let counts = res.ledger.counts();
        let n = lp.num_vars();
        let m = lp.num_constraints();
        let iters = res.solution.iterations as u64;
        // 2(n+m) diagonal updates per iteration: one at programming time
        // plus one per loop iteration (the update precedes the exit check).
        // Delta programming may skip pulses whose 8-bit code is unchanged;
        // written + skipped is the paper's wholesale total.
        assert_eq!(
            counts.update_writes + counts.skipped_writes,
            2 * (n + m) as u64 * (iters + 1)
        );
        // One MVM + one solve per iteration (allow the final iteration to
        // exit before its solve).
        assert!(counts.solve_ops >= iters.saturating_sub(1) && counts.solve_ops <= iters + 1);
        assert!(counts.mvm_ops >= counts.solve_ops);
        assert!(res.ledger.run_time_s() > 0.0);
        assert!(res.ledger.setup_time_s() > 0.0);
    }

    #[test]
    fn trace_records_convergence() {
        let lp = RandomLp::paper(12, 8).feasible();
        let res = solver(0.0, 11).solve(&lp);
        assert!(!res.trace.is_empty());
        let first_gap = res.trace.first().unwrap().gap;
        let last_gap = res.trace.last().unwrap().gap;
        assert!(
            last_gap < first_gap,
            "gap should shrink: {first_gap} → {last_gap}"
        );
    }

    #[test]
    fn retry_counter_reported() {
        let lp = RandomLp::paper(12, 13).feasible();
        let res = solver(0.0, 17).solve(&lp);
        assert_eq!(
            res.retries_used, 0,
            "ideal hardware should not need retries"
        );
    }

    #[test]
    fn budget_degrades_with_best_iterate() {
        use memlp_solvers::{Budget, BudgetCause, IterationDeadline};
        let lp = RandomLp::paper(24, 2).feasible();
        let s = solver(0.0, 3);
        let full = s.solve(&lp);
        assert!(full.degraded.is_none());
        // A tiny iteration cap degrades instead of hanging or failing: the
        // best iterate so far comes back under IterationLimit.
        let capped = s.solve_budgeted(&lp, Budget::none().with_max_iters(3));
        assert_eq!(capped.degraded, Some(BudgetCause::MaxIters));
        assert_eq!(capped.solution.status, LpStatus::IterationLimit);
        assert_eq!(capped.solution.x.len(), lp.num_vars());
        assert!(capped.solution.iterations <= 3);
        // A deterministic deadline reports its own cause.
        let dl = IterationDeadline::new(5);
        let timed = s.solve_budgeted(&lp, Budget::none().with_deadline(&dl));
        assert_eq!(timed.degraded, Some(BudgetCause::DeadlineExceeded));
        // An ample budget is bitwise identical to the unbudgeted solve.
        let ample = s.solve_budgeted(&lp, Budget::none().with_max_iters(100_000));
        assert!(ample.degraded.is_none());
        assert_eq!(ample.solution.status, full.solution.status);
        assert_eq!(ample.solution.x, full.solution.x);
        assert_eq!(ample.solution.objective, full.solution.objective);
    }

    #[test]
    fn solve_on_reuses_warm_context_and_state() {
        use memlp_solvers::Budget;
        let lp = RandomLp::paper(16, 5).feasible();
        let s = solver(5.0, 7);
        let mut hw = HwContext::new(*s.config());
        let cold = s.solve_on(&lp, &mut hw, Budget::none(), None, Some(0));
        assert_eq!(cold.solution.status, LpStatus::Optimal, "{}", cold.solution);
        let after_cold = cold.ledger.counts();
        // Same problem family on the same warm context: the delta-write
        // cache short-circuits repeated cell programming, and the previous
        // solution warm-starts the interior-point iteration.
        let warm = s.solve_on(
            &lp,
            &mut hw,
            Budget::none(),
            Some((&cold.solution.x, &cold.solution.y)),
            Some(1),
        );
        assert_eq!(warm.solution.status, LpStatus::Optimal, "{}", warm.solution);
        let after_warm = warm.ledger.counts();
        assert!(
            after_warm.skipped_writes > after_cold.skipped_writes,
            "warm repeat must skip unchanged cells: {} -> {}",
            after_cold.skipped_writes,
            after_warm.skipped_writes
        );
        let rel = (warm.solution.objective - cold.solution.objective).abs()
            / (1.0 + cold.solution.objective.abs());
        assert!(rel < 0.05, "warm objective drifted: {rel}");
    }

    #[test]
    fn batch_surfaces_per_item_errors() {
        use crate::{LargeScaleOptions, LargeScaleSolver};
        use memlp_lp::domains::{assignment_lp, AssignmentProblem};
        let good = RandomLp::paper(24, 31).feasible();
        // Assignment k = 128: a 2.2 GB dense core, past Algorithm 2's guard.
        let big = assignment_lp(&AssignmentProblem::random(128, 7)).expect("valid instance");
        let s = LargeScaleSolver::new(
            CrossbarConfig::paper_default().with_seed(1),
            LargeScaleOptions::default(),
        );
        // The poisoned middle item errors in its own slot; siblings solve.
        let out = s.solve_batch(&[good.clone(), big, good], 2);
        assert_eq!(out.len(), 3);
        let err = out[1].as_ref().expect_err("oversized core must be refused");
        assert!(matches!(err, CoreSolveError::CoreTooLarge { .. }));
        let msg = err.to_string();
        assert!(
            msg.contains("limit")
                && msg.contains("Algorithm 1")
                && msg.contains("PDHG")
                && msg.contains("--solver auto")
                && !msg.contains("sparse path"),
            "error must state the limit and only real ways out: {msg}"
        );
        for i in [0usize, 2] {
            let res = out[i].as_ref().expect("sibling must still solve");
            assert_eq!(res.solution.status, LpStatus::Optimal, "item {i}");
        }
    }

    /// Small instances of the four memlp-lp domains, all at or below the
    /// sparse-Newton density threshold.
    fn domain_suite() -> Vec<(&'static str, LpProblem)> {
        use memlp_lp::domains::{
            assignment_lp, max_flow_lp, production_schedule_lp, transportation_lp,
            AssignmentProblem, MaxFlowNetwork, ProductionPlan, TransportationProblem,
        };
        vec![
            (
                "transport",
                transportation_lp(&TransportationProblem::random(3, 9, 5)).expect("valid domain"),
            ),
            (
                "routing",
                max_flow_lp(&MaxFlowNetwork::random_layered(3, 3, 7)).expect("valid domain"),
            ),
            (
                "scheduling",
                production_schedule_lp(&ProductionPlan::random(4, 8, 9)).expect("valid domain"),
            ),
            (
                "assignment",
                assignment_lp(&AssignmentProblem::random(4, 11)).expect("valid domain"),
            ),
        ]
    }

    /// A whole Algorithm 1 solve with every attempt's core factorization
    /// forced.
    fn solve_forced(
        lp: &LpProblem,
        config: CrossbarConfig,
        factorization: Factorization,
    ) -> CrossbarSolution {
        CrossbarPdipSolver {
            forced: Some(factorization),
            ..CrossbarPdipSolver::new(config, CrossbarSolverOptions::default())
        }
        .solve(lp)
    }

    /// Same status and iterate count, objectives within 1e-7 relative.
    fn assert_same_solve(dense: &CrossbarSolution, sparse: &CrossbarSolution, what: &str) {
        assert_eq!(dense.solution.status, LpStatus::Optimal, "{what}");
        assert_eq!(sparse.solution.status, LpStatus::Optimal, "{what}");
        assert_eq!(
            dense.solution.iterations, sparse.solution.iterations,
            "{what}: iterate counts diverged"
        );
        let rel = (dense.solution.objective - sparse.solution.objective).abs()
            / (1.0 + dense.solution.objective.abs());
        assert!(rel < 1e-7, "{what}: objective rel diff {rel}");
    }

    // The sparse core is a digital-controller substitution: the analog
    // physics is identical under both factorizations, so whole solves must
    // agree while the sparse one does strictly less digital work.

    #[test]
    fn domain_lps_pick_the_sparse_core() {
        for (name, lp) in domain_suite() {
            assert!(
                memlp_solvers::pdip::sparse_newton(&lp),
                "{name}: density {}",
                lp.density()
            );
        }
    }

    #[test]
    fn iterate_counts_and_objectives_match_across_paths() {
        // Routing's zero-rhs conservation rows leave no strict interior, so
        // paper-default variation fails it under both factorizations alike;
        // `routing_matches_on_ideal_hardware` covers it.
        for (name, lp) in domain_suite() {
            if name == "routing" {
                continue;
            }
            let config = CrossbarConfig::paper_default().with_seed(3);
            let dense = solve_forced(&lp, config, Factorization::Dense);
            let sparse = solve_forced(&lp, config, Factorization::Sparse);
            assert_same_solve(&dense, &sparse, name);
        }
    }

    #[test]
    fn routing_matches_on_ideal_hardware() {
        let (_, lp) = domain_suite().remove(1);
        let config = CrossbarConfig::ideal().with_seed(3);
        let dense = solve_forced(&lp, config, Factorization::Dense);
        let sparse = solve_forced(&lp, config, Factorization::Sparse);
        assert_same_solve(&dense, &sparse, "routing");
    }

    #[test]
    fn sparse_path_engages_and_reduces_factorization_flops() {
        for (name, lp) in domain_suite() {
            let config = CrossbarConfig::paper_default().with_seed(5);
            let dense = solve_forced(&lp, config, Factorization::Dense);
            let sparse = solve_forced(&lp, config, Factorization::Sparse);
            let (d, sp) = (dense.ledger.counts(), sparse.ledger.counts());
            assert!(sp.factorizations > 0, "{name}: sparse core never factored");
            assert!(
                sp.factor_flops < d.factor_flops,
                "{name}: sparse flops {} not below dense {}",
                sp.factor_flops,
                d.factor_flops
            );
            assert!(
                sp.factor_nnz < d.factor_nnz,
                "{name}: sparse fill {} not below dense {}",
                sp.factor_nnz,
                d.factor_nnz
            );
        }
    }

    #[test]
    fn forced_sparse_agrees_on_dense_random_lps() {
        // The sparse core must stay correct where it is not profitable: a
        // fully dense random A.
        for seed in [1, 2, 3] {
            let lp = RandomLp::paper(15, seed).feasible();
            assert!(lp.density() > 0.5, "random LP should be dense");
            let config = CrossbarConfig::paper_default().with_seed(seed);
            let dense = solve_forced(&lp, config, Factorization::Dense);
            let sparse = solve_forced(&lp, config, Factorization::Sparse);
            assert_same_solve(&dense, &sparse, &format!("seed {seed}"));
        }
    }

    #[test]
    fn nonnegative_problem_needs_no_compensation() {
        let g = memlp_lp::generator::RandomLp {
            neg_fraction: 0.0,
            ..memlp_lp::generator::RandomLp::paper(12, 19)
        };
        let lp = g.feasible();
        let res = solver(0.0, 21).solve(&lp);
        assert_eq!(res.solution.status, LpStatus::Optimal);
    }

    /// The first attempt of an Algorithm 1 solve of `lp` at `var_pct`
    /// variation, on fresh hardware seeded with `seed`.
    fn first_attempt(lp: &LpProblem, var_pct: f64, seed: u64) -> Attempt {
        let s = solver(var_pct, seed);
        let mut hw = HwContext::new(*s.config());
        hw.begin_attempt(0);
        let at = lp.a().transpose();
        s.attempt(lp, &at, &mut hw, Budget::none(), &mut 0, None)
    }

    /// The trace's best score and the iterations the attempt ran past the
    /// last ≥5% improvement of it, each iteration scored as the controller
    /// scores it.
    fn stall_lag(trace: &[IterationRecord]) -> (f64, usize) {
        let (mut best, mut best_iter) = (f64::INFINITY, 0);
        for (i, r) in trace.iter().enumerate() {
            let score = r.primal_residual.max(r.dual_residual).max(r.gap);
            if score < 0.95 * best {
                (best, best_iter) = (score, i);
            }
        }
        (best, trace.len() - 1 - best_iter)
    }

    #[test]
    fn settled_stalls_exit_after_the_short_window() {
        let gen = RandomLp::paper(12, 0);
        let (solution, trace, _) = first_attempt(&gen.feasible(), 10.0, 0);
        let (best, lag) = stall_lag(&trace);
        assert_eq!(solution.status, LpStatus::Optimal);
        assert!(best <= ACCEPT_FLOOR, "best score {best}");
        assert_eq!(lag, 12);

        let (solution, trace, _) = first_attempt(&gen.infeasible(), 10.0, 0);
        let (best, lag) = stall_lag(&trace);
        assert_eq!(solution.status, LpStatus::Infeasible);
        assert!(best >= INFEASIBLE_FLOOR, "best score {best}");
        assert_eq!(lag, 12);
    }

    #[test]
    fn open_stalls_wait_the_full_window() {
        // Seed 33 stalls between the two floors; seed 3 stalls below
        // `ACCEPT_FLOOR` but fails the stall's constraint or objective
        // check. Both would answer `NumericalFailure`, so both wait.
        for (seed, below_accept) in [(33, false), (3, true)] {
            let lp = RandomLp::paper(12, seed).feasible();
            let (solution, trace, _) = first_attempt(&lp, 10.0, seed);
            let (best, lag) = stall_lag(&trace);
            assert_eq!(solution.status, LpStatus::NumericalFailure, "seed {seed}");
            assert_eq!(best <= ACCEPT_FLOOR, below_accept, "seed {seed}: {best}");
            assert!(best < INFEASIBLE_FLOOR, "seed {seed}: {best}");
            assert_eq!(lag, 25, "seed {seed}");
        }
    }

    #[test]
    fn borderline_draws_keep_their_late_acceptance() {
        // Both draws are accepted only after a late improvement: a stall
        // window of 8, 12 or 16 in every band, not only the settled ones,
        // turns both into `NumericalFailure` after all retries. The
        // objectives are the ones a 25-iteration window everywhere gives,
        // bit for bit.
        for (m, seed, retries, objective) in [
            (128, 17_039_259_473_404_265_729, 0, 616.515_602_357_600_3),
            (24, 7_921_052_496_457_642_306, 2, 13.581_859_646_351_749),
        ] {
            let lp = RandomLp::paper(m, seed).feasible();
            let res = solver(20.0, seed).solve(&lp);
            assert_eq!(res.solution.status, LpStatus::Optimal, "m = {m}");
            assert_eq!(res.retries_used, retries, "m = {m}");
            assert_eq!(
                res.solution.objective.to_bits(),
                f64::to_bits(objective),
                "m = {m}"
            );
        }
    }
}
