use memlp_crossbar::{CrossbarConfig, Phase, TiledMatrix};
use memlp_linalg::{ops, LuFactors, Matrix};
use memlp_lp::{LpProblem, LpSolution, LpStatus};
use memlp_solvers::budget::{Budget, BudgetCause};
use memlp_solvers::pdip::{CoreSolveError, PdipOptions, PdipState, DIVERGENCE_BOUND};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::hw::{HwContext, ANALOG_TILE_SIDE};
use crate::newton::{dense_core_bytes, DENSE_CORE_LIMIT_BYTES};
use crate::recovery::{attempt_score, Attempt, Ladder, RecoveryPolicy};
use crate::solver::{functional_only, CrossbarSolution, CrossbarSolver};
use crate::trace::IterationRecord;
use crate::transform::SignSplit;

/// Stable block keys: each physical crossbar region the solver programs gets
/// one, so fault plans persist per region across attempts (see
/// [`HwContext::write_matrix`]).
mod key {
    /// Solve realization (with fill), in programming order.
    pub const AP_S: u32 = 0;
    pub const AN_S: u32 = 1;
    pub const ATP_S: u32 = 2;
    pub const ATN_S: u32 = 3;
    pub const RU_S: u32 = 4;
    pub const RL_S: u32 = 5;
    pub const SELX: u32 = 6;
    pub const SELY: u32 = 7;
    pub const IPX: u32 = 8;
    pub const IPY: u32 = 9;
    /// MVM realization (fill-free, Eqn 17a).
    pub const AP_M: u32 = 10;
    pub const AN_M: u32 = 11;
    pub const ATP_M: u32 = 12;
    pub const ATN_M: u32 = 13;
    pub const SELX_M: u32 = 14;
    pub const SELY_M: u32 = 15;
    pub const IPX_M: u32 = 16;
    pub const IPY_M: u32 = 17;
    /// Per-iteration diagonal crossbar M2.
    pub const XD: u32 = 18;
    pub const YD: u32 = 19;
}

/// Step-length decay half-life in iterations: `θ_k = θ / (1 + k/THETA_DECAY)`.
/// The slow decay damps the limit-cycle oscillation the constant-step
/// split iteration otherwise settles into.
const THETA_DECAY: f64 = 30.0;

/// Gain κ on the dual residual-feedback term: the `Δy` read-out from the
/// `[ρ, 0]` solve carries the unresolved primal residual `r⊥ = ρ − A·Δx`
/// (scaled by 1/λ); it is re-scaled by `−κ·λ` in the summing-amplifier
/// stage and added to the min-norm dual step. The sign flip corrects the
/// positive-only fill's anti-Newton polarity (crossbars cannot store
/// negative λ); without this term the primal residual floors at the
/// least-squares residual of `A`.
const DUAL_FEEDBACK: f64 = 1.0;

/// The base step length θ (§3.4: "θ … were found to be better to be
/// constant to guarantee convergence"), decayed by [`THETA_DECAY`].
const THETA: f64 = 0.30;
/// The §3.2 relaxed feasibility parameter α for the final check. The
/// large-scale solver's residual floor is coarser than Algorithm 1's (as
/// is its accuracy in the paper), so its "close but greater than 1" α is
/// looser.
const ALPHA: f64 = 1.10;
/// Iterations without improvement before declaring a noise-floor stall.
const STALL_WINDOW: usize = 40;
/// Largest relative score accepted as converged at a stall. The split
/// iteration stalls at a higher residual floor than Algorithm 1 (the paper
/// likewise reports coarser accuracy for the large-scale solver: 0.8–8.5%
/// vs 0.2–9.9%); the αb post-check remains the hard guard on what is
/// accepted.
const ACCEPT_FLOOR: f64 = 0.25;
/// Relative primal-residual level at (or above) which a stalled run is
/// classified as infeasible: a planted contradiction pins the residual at
/// the contradiction gap, far above the solver's noise floor.
const INFEASIBLE_FLOOR: f64 = 0.30;
/// Re-solve attempts after the first (the §4.3 double-checking scheme),
/// one more than Algorithm 1 allows.
const RETRIES: usize = 3;

/// Options for the large-scale solver (Algorithm 2, §3.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LargeScaleOptions {
    /// Outer-loop options (tolerances, iteration cap).
    pub pdip: PdipOptions,
    /// Magnitude of the `RU`/`RL` fill relative to the mean |A| coefficient
    /// — the "very small" values that make Eqn 16c non-singular.
    pub fill_scale: f64,
    /// How far the solver may escalate when write–verify reports defects
    /// (see [`RecoveryPolicy`]).
    pub recovery: RecoveryPolicy,
}

impl Default for LargeScaleOptions {
    fn default() -> Self {
        LargeScaleOptions {
            pdip: PdipOptions {
                eps_primal: 8e-3,
                eps_dual: 8e-3,
                eps_gap: 4e-3,
                max_iterations: 400,
                ..PdipOptions::default()
            },
            fill_scale: 0.05,
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// **Algorithm 2** — the memristor crossbar linear program solver for
/// large-scale operations (paper §3.4).
///
/// Instead of one `≈4(n+m)`-sized crossbar system per iteration, the Newton
/// step is split into:
///
/// 1. a **static** `(n+m+k)` system (Eqn 16c/16d) for `(Δx, Δy)` — `A` and
///    `Aᵀ` blocks with small random `RU`/`RL` fill to remove the
///    singularity of `diag(A, Aᵀ)`, programmed once; its right-hand side is
///    produced on a fill-free copy per Eqn 17a;
/// 2. a **diagonal** `(n+m)` system (Eqn 16b) for `(Δz, Δw)` — the only
///    per-iteration coefficient updates (O(N) writes of `X`, `Y`).
///
/// Steps use a constant θ; convergence failures re-solve with fresh
/// variation. The matrices a single crossbar must hold shrink from
/// `≈4(n+m)` to `≈(n+m+k)`, which is the scalability win the paper claims.
#[derive(Debug, Clone)]
pub struct LargeScaleSolver {
    config: CrossbarConfig,
    options: LargeScaleOptions,
}

/// Realized hardware state for one Algorithm-2 attempt.
struct LargeScaleSystem {
    n: usize,
    m: usize,
    split_a: SignSplit,
    split_at: SignSplit,
    // Solve realization (with fill), reduced to the (n+m) core and factored
    // once — the system is static across iterations.
    core_lu: LuFactors,
    // Effective corrections for Δp back-substitution.
    ipx: Vec<f64>,
    ipy: Vec<f64>,
    an_solve: TiledMatrix,
    atn_solve: TiledMatrix,
    // MVM realization (without fill) per Eqn 17a, carried with the
    // occupancy index of its planned coefficients so the fill-free MVMs
    // schedule (and the cost model charges) live tiles only.
    ap_mvm: TiledMatrix,
    an_mvm: TiledMatrix,
    atp_mvm: TiledMatrix,
    atn_mvm: TiledMatrix,
    selx_mvm: Vec<f64>,
    sely_mvm: Vec<f64>,
    ipx_mvm: Vec<f64>,
    ipy_mvm: Vec<f64>,
    // Per-iteration diagonal realization of M2 = diag(X, Y).
    xd: Vec<f64>,
    yd: Vec<f64>,
    cells: usize,
    /// Nominal λ the controller targeted for the RU/RL fill.
    fill_nominal: f64,
}

impl CrossbarSolver for LargeScaleSolver {
    fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// The Eqn 16c core is a dense `(n+m)²` factorization on every path,
    /// so an instance whose core would blow the allocation guard is
    /// refused up front instead of attempting the allocation, as is
    /// circuit fidelity.
    fn preflight(&self, lp: &LpProblem) -> Result<(), CoreSolveError> {
        functional_only(&self.config)?;
        let dim = lp.num_vars() + lp.num_constraints();
        let bytes = dense_core_bytes(dim);
        if bytes > DENSE_CORE_LIMIT_BYTES {
            return Err(CoreSolveError::CoreTooLarge {
                dim,
                bytes,
                limit: DENSE_CORE_LIMIT_BYTES,
            });
        }
        Ok(())
    }

    /// Algorithm 2 has no warm entry point: `warm` and `reuse_salt` are
    /// ignored and every attempt starts cold on `hw`. Failed attempts are
    /// kept and the best-scoring one (smallest relative residual/gap) is
    /// what the exhaustion rule sees once the retry budget is spent.
    fn solve_on(
        &self,
        lp: &LpProblem,
        hw: &mut HwContext,
        budget: Budget<'_>,
        _warm: Option<(&[f64], &[f64])>,
        _reuse_salt: Option<u64>,
    ) -> CrossbarSolution {
        let ladder = Ladder {
            policy: self.options.recovery,
            retries: RETRIES,
            alpha: ALPHA,
            seed_base: 0x1A26_0000,
            alpha_check_always: false,
            keep_best: true,
            classify_accepted: true,
        };
        // Aᵀ is attempt-invariant; hoist it out of the retry loop so each
        // attempt only redraws hardware variation.
        let at = lp.a().transpose();
        let mut spent = 0usize;
        ladder.run(
            lp,
            hw,
            None,
            |hw, k| self.attempt(lp, &at, hw, k as u64, budget, &mut spent),
            |solution| self.classify_exhausted(lp, solution),
        )
    }
}

impl LargeScaleSolver {
    /// Creates a solver over the given hardware configuration.
    pub fn new(config: CrossbarConfig, options: LargeScaleOptions) -> Self {
        LargeScaleSolver { config, options }
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

    /// Per §3.2, once the retry budget is spent a run whose residual is
    /// still pinned at the infeasibility level — or whose iterate fails the
    /// relaxed `A·x ⪯ α·b` check grossly — is the infeasibility verdict
    /// (variation is redrawn each retry, so a feasible problem would almost
    /// surely have passed at least once).
    fn classify_exhausted(&self, lp: &LpProblem, solution: &mut LpSolution) {
        if matches!(
            solution.status,
            LpStatus::NumericalFailure | LpStatus::IterationLimit
        ) && !solution.x.is_empty()
        {
            let pr = solution.primal_residual / (1.0 + ops::inf_norm(lp.b()));
            if pr >= INFEASIBLE_FLOOR && !lp.satisfies_relaxed_scaled(&solution.x, ALPHA) {
                solution.status = LpStatus::Infeasible;
            } else if attempt_score(lp, solution) <= ACCEPT_FLOOR
                && {
                    let dual: f64 = lp.b().iter().zip(&solution.y).map(|(b, y)| b * y).sum();
                    (solution.objective - dual).abs() / (1.0 + solution.objective.abs()) <= 0.5
                }
                && lp.satisfies_relaxed_scaled(&solution.x, ALPHA)
            {
                // Fall back to the coarse acceptance level once the retry
                // budget is spent: the tighter small-problem floor was
                // aspirational, not a correctness bound.
                solution.status = LpStatus::Optimal;
            }
        }
    }

    fn attempt(
        &self,
        lp: &LpProblem,
        at: &Matrix,
        hw: &mut HwContext,
        salt: u64,
        budget: Budget<'_>,
        spent: &mut usize,
    ) -> Option<Attempt> {
        let opts = &self.options.pdip;
        let finish = |state: PdipState,
                      status: LpStatus,
                      iter: usize,
                      trace: Vec<IterationRecord>,
                      cause: Option<BudgetCause>| {
            Some((state.into_solution(lp, status, iter), trace, cause))
        };
        let mut state = PdipState::new(lp);
        let mut trace = Vec::new();
        let mut sys = LargeScaleSystem::program(lp, at, &state, self.options.fill_scale, hw, salt)?;

        let bnorm = 1.0 + ops::inf_norm(lp.b());
        let cnorm = 1.0 + ops::inf_norm(lp.c());
        // Small systems have genuinely lower noise floors (fewer summed
        // noise terms per output line), so the stall-acceptance level
        // tightens below ~40 state variables.
        let accept_floor = if lp.num_vars() + lp.num_constraints() < 40 {
            0.4 * ACCEPT_FLOOR
        } else {
            ACCEPT_FLOOR
        };
        let mut best_state = state.clone();
        let mut best_score = f64::INFINITY;
        let mut best_iter = 0usize;
        // Tail averaging: the constant-θ iteration orbits the solution
        // rather than landing on it; the running mean of the orbit is a
        // far better iterate. Purely digital (the controller keeps sums).
        let mut tail = TailAverage::new(lp.num_vars(), lp.num_constraints());

        for iter in 0..opts.max_iterations {
            // Cooperative cancellation, as in the Algorithm-1 solver: one
            // budget poll per split iteration, cumulative across attempts.
            if let Some(cause) = budget.check(*spent) {
                let chosen = if best_score.is_finite() {
                    best_state
                } else {
                    state
                };
                return finish(chosen, LpStatus::IterationLimit, iter, trace, Some(cause));
            }
            *spent += 1;
            if let Some(status) = state.divergence() {
                return finish(state, status, iter, trace, None);
            }

            let theta = THETA / (1.0 + iter as f64 / THETA_DECAY);

            // --- System 1: r1 via the fill-free MVM (Eqn 17a).
            let mu = state.mu();
            let r1 = sys.rhs1(lp, &state, hw);
            let (rho, sigma) = (&r1[..sys.m], &r1[sys.m..sys.m + sys.n]);
            let pr = ops::inf_norm(rho) / bnorm;
            let dr = ops::inf_norm(sigma) / cnorm;
            let gap = state.duality_gap() / (1.0 + lp.objective(&state.x).abs());
            trace.push(IterationRecord {
                mu,
                gap,
                primal_residual: pr,
                dual_residual: dr,
                theta,
            });
            if pr <= opts.eps_primal && dr <= opts.eps_dual && gap <= opts.eps_gap {
                let status = if lp.satisfies_relaxed_scaled(&state.x, ALPHA) {
                    LpStatus::Optimal
                } else {
                    LpStatus::NumericalFailure
                };
                return finish(state, status, iter, trace, None);
            }
            let score = pr.max(dr).max(gap);
            if score < 0.95 * best_score {
                best_score = score;
                best_state = state.clone();
                best_iter = iter;
            } else {
                tail.accumulate(&state);
                if iter - best_iter >= STALL_WINDOW {
                    // Noise-floor stall: prefer the orbit average when it
                    // is (digitally verified) more primal-feasible, then
                    // classify via the §3.2 relaxed check.
                    let candidate = tail
                        .mean()
                        .filter(|avg| {
                            let avg_pr = ops::inf_norm(&avg.primal_residual(lp)) / bnorm;
                            avg_pr < best_score
                        })
                        .unwrap_or_else(|| best_state.clone());
                    let cand_pr = ops::inf_norm(&candidate.primal_residual(lp)) / bnorm;
                    let cand_score = best_score.min(cand_pr);
                    // A corrupted dual pair can show a small zᵀx + yᵀw
                    // while the primal and dual objectives disagree badly.
                    // A *catastrophic* disagreement blocks acceptance (the
                    // duals of the split iteration are legitimately sloppy,
                    // so only gross mismatch is disqualifying).
                    let cobj = lp.objective(&candidate.x);
                    let cdual: f64 = lp.b().iter().zip(&candidate.y).map(|(b, y)| b * y).sum();
                    let obj_gap = (cobj - cdual).abs() / (1.0 + cobj.abs());
                    // Classification by stall level: the solver's noise
                    // floor sits well below ACCEPT_FLOOR; a residual pinned
                    // at INFEASIBLE_FLOOR or above is a contradiction gap,
                    // not noise. The band in between is ambiguous — retry
                    // with fresh variation (§4.3 double checking).
                    let status = if cand_score <= accept_floor && obj_gap <= 0.5 {
                        LpStatus::Optimal
                    } else if cand_score >= INFEASIBLE_FLOOR {
                        LpStatus::Infeasible
                    } else {
                        LpStatus::NumericalFailure
                    };
                    return finish(candidate, status, iter, trace, None);
                }
            }

            // --- Solve system 1 (static crossbar). The ADC reference is
            // set a decade above the current iterate magnitude; weakly
            // determined step components saturate there.
            let clip = 10.0 * (1.0 + ops::inf_norm(&state.x).max(ops::inf_norm(&state.y)));
            if iter > 0 {
                // System 1 is static: every iteration after the first
                // reuses the factorization from programming time instead
                // of rebuilding and refactoring the core.
                hw.note_rebuild_avoided();
            }
            let Some((dx, dy)) = sys.solve1(&r1, clip, hw) else {
                return finish(state, LpStatus::NumericalFailure, iter, trace, None);
            };

            // --- Update s1 = (x, y) with constant θ, capped at the
            // positivity boundary (the paper's uncapped constant step
            // diverges whenever an iterate crosses zero; see DESIGN.md §9).
            let theta1 =
                positivity_cap(theta, &state.x, &dx).min(positivity_cap(theta, &state.y, &dy));
            for (v, d) in state.x.iter_mut().zip(&dx) {
                *v = (*v + theta1 * d).max(1e-9);
            }
            for (v, d) in state.y.iter_mut().zip(&dy) {
                *v = (*v + theta1 * d).max(1e-9);
            }

            // --- System 2: update M2 diagonals (the O(N) writes), derive
            //     r2 (Eqn 17b), solve the diagonal system (Eqn 16b).
            sys.update_diagonals(&state, hw);
            let clip2 = 10.0 * (1.0 + ops::inf_norm(&state.z).max(ops::inf_norm(&state.w)));
            let (dz, dw) = sys.solve2(&state, mu, clip2, hw)?;
            let theta2 =
                positivity_cap(theta, &state.z, &dz).min(positivity_cap(theta, &state.w, &dw));
            for (v, d) in state.z.iter_mut().zip(&dz) {
                *v = (*v + theta2 * d).max(1e-9);
            }
            for (v, d) in state.w.iter_mut().zip(&dw) {
                *v = (*v + theta2 * d).max(1e-9);
            }
        }

        let status = match () {
            _ if ops::inf_norm(&state.y) > DIVERGENCE_BOUND => LpStatus::Infeasible,
            _ if ops::inf_norm(&state.x) > DIVERGENCE_BOUND => LpStatus::Unbounded,
            _ => LpStatus::IterationLimit,
        };
        let iters = opts.max_iterations;
        finish(state, status, iters, trace, None)
    }
}

/// Running mean of the iterate orbit (digital controller state).
struct TailAverage {
    x: Vec<f64>,
    y: Vec<f64>,
    w: Vec<f64>,
    z: Vec<f64>,
    count: usize,
}

impl TailAverage {
    fn new(n: usize, m: usize) -> Self {
        TailAverage {
            x: vec![0.0; n],
            y: vec![0.0; m],
            w: vec![0.0; m],
            z: vec![0.0; n],
            count: 0,
        }
    }

    fn accumulate(&mut self, s: &PdipState) {
        for (a, v) in self.x.iter_mut().zip(&s.x) {
            *a += v;
        }
        for (a, v) in self.y.iter_mut().zip(&s.y) {
            *a += v;
        }
        for (a, v) in self.w.iter_mut().zip(&s.w) {
            *a += v;
        }
        for (a, v) in self.z.iter_mut().zip(&s.z) {
            *a += v;
        }
        self.count += 1;
    }

    fn mean(&self) -> Option<PdipState> {
        if self.count == 0 {
            return None;
        }
        let k = self.count as f64;
        Some(PdipState {
            x: self.x.iter().map(|v| v / k).collect(),
            y: self.y.iter().map(|v| v / k).collect(),
            w: self.w.iter().map(|v| v / k).collect(),
            z: self.z.iter().map(|v| v / k).collect(),
        })
    }
}

/// Caps a constant step length at 90% of the positivity boundary:
/// `min(θ, 0.9 / max_i(−d_i / v_i))`.
fn positivity_cap(theta: f64, v: &[f64], d: &[f64]) -> f64 {
    let mut max_ratio = 0.0f64;
    for (vi, di) in v.iter().zip(d) {
        if *di < 0.0 {
            max_ratio = max_ratio.max(-di / vi.max(f64::MIN_POSITIVE));
        }
    }
    if max_ratio <= 0.0 {
        theta
    } else {
        theta.min(0.9 / max_ratio)
    }
}

impl LargeScaleSystem {
    fn program(
        lp: &LpProblem,
        at: &Matrix,
        state: &PdipState,
        fill_scale: f64,
        hw: &mut HwContext,
        salt: u64,
    ) -> Option<LargeScaleSystem> {
        let n = lp.num_vars();
        let m = lp.num_constraints();
        let split_a = SignSplit::split(lp.a());
        let split_at = SignSplit::split(at);
        let kx = split_a.num_compensations();
        let ky = split_at.num_compensations();

        // RU (m×m) and RL (n×n) fill: λ on the diagonal, jittered slightly
        // per cell. A diagonal fill makes Eqn 16c the classic *regularized
        // saddle system* [[A, λI], [λI, Aᵀ]]: solving it against [ρ, 0]
        // yields the least-squares primal step in its Δx component, and
        // against [0, σ] the minimum-norm dual step in its Δy component —
        // both bounded for small λ, unlike a dense random fill whose weakly
        // determined directions explode (see DESIGN.md §9).
        let mean_abs = lp.a().as_slice().iter().map(|v| v.abs()).sum::<f64>()
            / (lp.a().as_slice().len() as f64).max(1.0);
        let fill = fill_scale * mean_abs.max(f64::MIN_POSITIVE);
        let mut frng = StdRng::seed_from_u64(0xF111_0000 ^ salt);
        let ru: Vec<f64> = (0..m)
            .map(|_| frng.random_range(0.75 * fill..1.25 * fill))
            .collect();
        let rl: Vec<f64> = (0..n)
            .map(|_| frng.random_range(0.75 * fill..1.25 * fill))
            .collect();

        // --- Solve realization (with fill). Matrix blocks go through the
        //     occupancy-indexed write path so planned-zero tiles of
        //     block-structured operands are never programmed.
        let ap_s = hw.write_matrix_tiled(key::AP_S, &split_a.pos, ANALOG_TILE_SIDE, Phase::Setup);
        let an_s = hw.write_matrix_tiled(key::AN_S, &split_a.neg, ANALOG_TILE_SIDE, Phase::Setup);
        let atp_s =
            hw.write_matrix_tiled(key::ATP_S, &split_at.pos, ANALOG_TILE_SIDE, Phase::Setup);
        let atn_s =
            hw.write_matrix_tiled(key::ATN_S, &split_at.neg, ANALOG_TILE_SIDE, Phase::Setup);
        let ru_s = hw.write_diag(key::RU_S, &ru, Phase::Setup);
        let rl_s = hw.write_diag(key::RL_S, &rl, Phase::Setup);
        let selx = hw.write_diag(key::SELX, &vec![1.0; kx], Phase::Setup);
        let sely = hw.write_diag(key::SELY, &vec![1.0; ky], Phase::Setup);
        let ipx = hw.write_diag(key::IPX, &vec![1.0; kx], Phase::Setup);
        let ipy = hw.write_diag(key::IPY, &vec![1.0; ky], Phase::Setup);
        if ipx.iter().chain(&ipy).any(|v| *v == 0.0) {
            return None;
        }

        // Eliminate Δp: effective A blocks get column corrections.
        let mut ax_eff = ap_s.realized().clone();
        split_a.fold_compensations(&mut ax_eff, an_s.realized(), &selx, &ipx);
        let mut ay_eff = atp_s.realized().clone();
        split_at.fold_compensations(&mut ay_eff, atn_s.realized(), &sely, &ipy);
        // Core (m+n) system: [A_eff λI; λI Aᵀ_eff], factored once.
        let dim = n + m;
        let mut k = Matrix::zeros(dim, dim);
        k.set_block(0, 0, &ax_eff);
        k.set_diag_block(0, n, &ru_s);
        k.set_diag_block(m, 0, &rl_s);
        k.set_block(m, n, &ay_eff);
        let core_lu = LuFactors::factor(k).ok()?;

        // --- MVM realization (fill-free, Eqn 17a) — independently written,
        //     so it carries its own variation draws.
        let ap_mvm = hw.write_matrix_tiled(key::AP_M, &split_a.pos, ANALOG_TILE_SIDE, Phase::Setup);
        let an_mvm = hw.write_matrix_tiled(key::AN_M, &split_a.neg, ANALOG_TILE_SIDE, Phase::Setup);
        let atp_mvm =
            hw.write_matrix_tiled(key::ATP_M, &split_at.pos, ANALOG_TILE_SIDE, Phase::Setup);
        let atn_mvm =
            hw.write_matrix_tiled(key::ATN_M, &split_at.neg, ANALOG_TILE_SIDE, Phase::Setup);
        let selx_mvm = hw.write_diag(key::SELX_M, &vec![1.0; kx], Phase::Setup);
        let sely_mvm = hw.write_diag(key::SELY_M, &vec![1.0; ky], Phase::Setup);
        let ipx_mvm = hw.write_diag(key::IPX_M, &vec![1.0; kx], Phase::Setup);
        let ipy_mvm = hw.write_diag(key::IPY_M, &vec![1.0; ky], Phase::Setup);

        let cells = 2 * (m * n * 2 + m * kx + n * ky) + m * m + n * n + 2 * (kx + ky);
        let mut sys = LargeScaleSystem {
            n,
            m,
            split_a,
            split_at,
            core_lu,
            ipx,
            ipy,
            an_solve: an_s,
            atn_solve: atn_s,
            ap_mvm,
            an_mvm,
            atp_mvm,
            atn_mvm,
            selx_mvm,
            sely_mvm,
            ipx_mvm,
            ipy_mvm,
            xd: Vec::new(),
            yd: Vec::new(),
            cells,
            fill_nominal: fill,
        };
        sys.update_diagonals(state, hw);
        Some(sys)
    }

    /// O(N) per-iteration updates: rewrite `X` and `Y` on the diagonal
    /// crossbar `M2`.
    fn update_diagonals(&mut self, state: &PdipState, hw: &mut HwContext) {
        self.xd = hw.write_diag(key::XD, &state.x, Phase::Run);
        self.yd = hw.write_diag(key::YD, &state.y, Phase::Run);
    }

    /// Eqn 17a: `r1 = [b − w, c + z, 0] − M̂·[x, y, p]` using the
    /// fill-free MVM realization.
    fn rhs1(&self, lp: &LpProblem, state: &PdipState, hw: &mut HwContext) -> Vec<f64> {
        let (n, m) = (self.n, self.m);
        let kx = self.ipx_mvm.len();
        let ky = self.ipy_mvm.len();
        let mut s = Vec::with_capacity(n + m + kx + ky);
        s.extend_from_slice(&state.x);
        s.extend_from_slice(&state.y);
        s.extend(self.split_a.compensation_values(&state.x));
        s.extend(self.split_at.compensation_values(&state.y));
        let sq = hw.dac_blocks(&s, &[n, m, kx + ky]);
        let x = &sq[..n];
        let y = &sq[n..n + m];
        let (px, py) = sq[n + m..].split_at(kx);

        let mut out = Vec::with_capacity(n + m + kx + ky);
        // Row 1: A′x + A″p_x ≈ A·x.
        let mut row1 = self.ap_mvm.matvec(x);
        if kx > 0 {
            let e = self.an_mvm.matvec(px);
            for (r, v) in row1.iter_mut().zip(&e) {
                *r += v;
            }
        }
        out.extend(row1);
        // Row 2: Aᵀ′y + Aᵀ″p_y ≈ Aᵀ·y.
        let mut row2 = self.atp_mvm.matvec(y);
        if ky > 0 {
            let e = self.atn_mvm.matvec(py);
            for (r, v) in row2.iter_mut().zip(&e) {
                *r += v;
            }
        }
        out.extend(row2);
        // Row 3 (consistency rows): sel·(x|y) + Ip·p ≈ 0.
        out.extend(
            self.split_a
                .comp_cols
                .iter()
                .enumerate()
                .map(|(r, &j)| self.selx_mvm[r] * x[j] + self.ipx_mvm[r] * px[r]),
        );
        out.extend(
            self.split_at
                .comp_cols
                .iter()
                .enumerate()
                .map(|(r, &j)| self.sely_mvm[r] * y[j] + self.ipy_mvm[r] * py[r]),
        );
        // The four planes plus the selector and Ip diagonals settle.
        let planes = [&self.ap_mvm, &self.an_mvm, &self.atp_mvm, &self.atn_mvm];
        hw.charge_analog_tiled(false, sq.len(), out.len(), 2 * (kx + ky), &planes);
        let ms = hw.adc_blocks(&out, &[m, n, kx + ky]);

        // Constant part: [b − w, c + z, 0] (summing amplifiers).
        let mut r = Vec::with_capacity(ms.len());
        for ((&bi, &wi), &mi) in lp.b().iter().zip(&state.w).zip(&ms) {
            r.push(bi - wi - mi);
        }
        for ((&cj, &zj), &mj) in lp.c().iter().zip(&state.z).zip(&ms[m..]) {
            r.push(cj + zj - mj);
        }
        for &mt in &ms[m + n..] {
            r.push(0.0 - mt);
        }
        r
    }

    /// Solves system 1 (Eqn 16c/16d) on the static crossbar; returns
    /// `(Δx, Δy)`.
    /// Solves system 1 as two analog solves against the same static
    /// crossbar: the right-hand side `[ρ, 0]` yields the least-squares
    /// primal step in its `Δx` lines, and `[0, σ]` the minimum-norm dual
    /// step in its `Δy` lines (the complementary lines carry the
    /// `residual/λ` component and are simply not read out). See the
    /// fill-construction comment in [`LargeScaleSystem::program`].
    fn solve1(&self, r1: &[f64], clip: f64, hw: &mut HwContext) -> Option<(Vec<f64>, Vec<f64>)> {
        let (n, m) = (self.n, self.m);
        let kx = self.ipx.len();
        let rq = hw.dac_blocks(r1, &[m, n, kx + self.ipy.len()]);
        let ra = &rq[..m];
        let rb = &rq[m..m + n];
        let (r7x, r7y) = rq[m + n..].split_at(kx);

        // Fold the Δp elimination corrections into each block.
        let mut top = ra.to_vec();
        if kx > 0 {
            let t: Vec<f64> = (0..kx).map(|r| r7x[r] / self.ipx[r]).collect();
            let corr = self.an_solve.matvec(&t);
            for (v, c) in top.iter_mut().zip(&corr) {
                *v -= c;
            }
        }
        let mut bot = rb.to_vec();
        if !r7y.is_empty() {
            let t: Vec<f64> = (0..r7y.len()).map(|r| r7y[r] / self.ipy[r]).collect();
            let corr = self.atn_solve.matvec(&t);
            for (v, c) in bot.iter_mut().zip(&corr) {
                *v -= c;
            }
        }

        let cells = self.cells / 2;

        // Solve 1: rhs [ρ, 0] → read the Δx lines, plus the Δy lines
        // (they carry r⊥/λ, the unresolved primal residual).
        let mut rhs_a = top;
        rhs_a.resize(n + m, 0.0);
        let sol_a = self.core_lu.solve(&rhs_a).ok()?;
        if !ops::all_finite(&sol_a) {
            return None;
        }
        let dx = hw.adc_clipped(&sol_a[..n], clip);
        let dy_feedback_raw = hw.adc_clipped(&sol_a[n..], clip / self.fill_nominal.max(1e-9));
        hw.charge_analog(true, n + m, n + m, cells);

        // Solve 2: rhs [0, σ] → read the Δy lines (min-norm dual step).
        let mut rhs_b = vec![0.0; m];
        rhs_b.extend(bot);
        let sol_b = self.core_lu.solve(&rhs_b).ok()?;
        if !ops::all_finite(&sol_b) {
            return None;
        }
        let dy_minnorm = hw.adc_clipped(&sol_b[n..], clip);
        hw.charge_analog(true, n + m, m, cells);

        // Combine in the summing-amplifier stage: re-scale the feedback by
        // −κ·λ (flipping the positive-fill polarity back to Newton's) and
        // add the min-norm step.
        let gain = -DUAL_FEEDBACK * self.fill_nominal;
        let dy: Vec<f64> = dy_minnorm
            .iter()
            .zip(&dy_feedback_raw)
            .map(|(mn, fb)| mn + gain * fb)
            .collect();
        Some((dx, dy))
    }

    /// System 2 (Eqns 16b/17b): derive `r2` on the diagonal crossbar and
    /// solve it — `Δz = r_z / X`, `Δw = r_w / Y`.
    fn solve2(
        &self,
        state: &PdipState,
        mu: f64,
        clip: f64,
        hw: &mut HwContext,
    ) -> Option<(Vec<f64>, Vec<f64>)> {
        let (n, m) = (self.n, self.m);
        // MVM: M2·[z, w] = [X·z, Y·w].
        let mut s = Vec::with_capacity(n + m);
        s.extend_from_slice(&state.z);
        s.extend_from_slice(&state.w);
        let sq = hw.dac_blocks(&s, &[n, m]);
        let mut prod = Vec::with_capacity(n + m);
        prod.extend((0..n).map(|j| self.xd[j] * sq[j]));
        prod.extend((0..m).map(|i| self.yd[i] * sq[n + i]));
        hw.charge_analog(false, n + m, n + m, n + m);
        let prodq = hw.adc_blocks(&prod, &[n, m]);

        // r2 = [µ, µ] − M2·[z, w]; then the diagonal solve.
        let r2: Vec<f64> = prodq.iter().map(|p| mu - p).collect();
        let r2q = hw.dac_blocks(&r2, &[n, m]);
        let mut out = Vec::with_capacity(n + m);
        for (&xdj, &rj) in self.xd.iter().zip(&r2q) {
            if xdj == 0.0 {
                return None;
            }
            out.push(rj / xdj);
        }
        for (&ydi, &ri) in self.yd.iter().zip(&r2q[n..]) {
            if ydi == 0.0 {
                return None;
            }
            out.push(ri / ydi);
        }
        if !ops::all_finite(&out) {
            return None;
        }
        let outq = hw.adc_clipped(&out, clip);
        hw.charge_analog(true, n + m, n + m, n + m);
        Some((outq[..n].to_vec(), outq[n..].to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memlp_lp::generator::RandomLp;
    use memlp_solvers::{LpSolver, NormalEqPdip};

    fn solver(var_pct: f64, seed: u64) -> LargeScaleSolver {
        LargeScaleSolver::new(
            CrossbarConfig::paper_default()
                .with_variation(var_pct)
                .with_seed(seed),
            LargeScaleOptions::default(),
        )
    }

    #[test]
    fn preflight_refuses_circuit_fidelity() {
        let lp = RandomLp::paper(12, 1).feasible();
        let circuit = LargeScaleSolver::new(
            CrossbarConfig::paper_default().circuit(),
            LargeScaleOptions::default(),
        );
        assert_eq!(circuit.preflight(&lp), Err(CoreSolveError::CircuitFidelity));
        assert!(solver(0.0, 1).preflight(&lp).is_ok());
    }

    #[test]
    fn solves_small_ideal() {
        let lp = RandomLp::paper(24, 31).feasible();
        let res = solver(0.0, 1).solve(&lp);
        assert_eq!(res.solution.status, LpStatus::Optimal, "{}", res.solution);
        let reference = NormalEqPdip::default().solve(&lp);
        let rel = (res.solution.objective - reference.objective).abs()
            / (1.0 + reference.objective.abs());
        // The paper reports 0.8-8.5% inaccuracy for the large-scale solver.
        assert!(rel < 0.10, "relative error {rel}");
    }

    #[test]
    fn solves_under_variation() {
        let lp = RandomLp::paper(24, 33).feasible();
        let res = solver(10.0, 3).solve(&lp);
        assert_eq!(res.solution.status, LpStatus::Optimal, "{}", res.solution);
        let reference = NormalEqPdip::default().solve(&lp);
        let rel = (res.solution.objective - reference.objective).abs()
            / (1.0 + reference.objective.abs());
        assert!(rel < 0.15, "relative error {rel}");
    }

    #[test]
    fn detects_infeasible() {
        for seed in [35, 36, 37] {
            let lp = RandomLp::paper(24, seed).infeasible();
            let res = solver(0.0, seed).solve(&lp);
            assert_eq!(
                res.solution.status,
                LpStatus::Infeasible,
                "seed {seed}: {}",
                res.solution
            );
        }
    }

    #[test]
    fn tile_elision_is_bitwise_invisible_to_the_split_solver() {
        // Dense random planes have no dead tiles, so elision must change
        // nothing at all — not the iterates, not the write counts.
        let lp = RandomLp::paper(24, 33).feasible();
        let run = |elide: bool| {
            LargeScaleSolver::new(
                CrossbarConfig::paper_default()
                    .with_variation(10.0)
                    .with_seed(3)
                    .with_tile_elision(elide),
                LargeScaleOptions::default(),
            )
            .solve(&lp)
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.solution.status, off.solution.status);
        assert_eq!(on.solution.x, off.solution.x, "primal must not see elision");
        assert_eq!(on.solution.y, off.solution.y, "duals must not see elision");
        assert_eq!(
            on.ledger.counts().setup_writes,
            off.ledger.counts().setup_writes
        );
        assert_eq!(
            on.ledger.counts().tiles_elided,
            0,
            "dense: nothing to elide"
        );
    }

    #[test]
    fn per_iteration_updates_are_n_plus_m() {
        let lp = RandomLp::paper(24, 37).feasible();
        let res = solver(0.0, 7).solve(&lp);
        let counts = res.ledger.counts();
        let n = lp.num_vars();
        let m = lp.num_constraints();
        let iters = res.solution.iterations as u64;
        // One (n+m) diagonal rewrite at programming plus one per iteration.
        // Written + skipped equals the wholesale total; delta programming
        // decides the split per cell.
        assert_eq!(
            counts.update_writes + counts.skipped_writes,
            (n + m) as u64 * (iters + 1)
        );
    }

    #[test]
    fn static_system_means_no_matrix_rewrites() {
        let lp = RandomLp::paper(16, 39).feasible();
        let res = solver(0.0, 9).solve(&lp);
        // All matrix-block writes happen during setup.
        assert!(res.ledger.counts().setup_writes > 0);
        assert!(res.ledger.setup_time_s() > 0.0);
    }
}
