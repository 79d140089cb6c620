//! Restarted primal–dual hybrid gradient (PDHG) for the canonical LP.
//!
//! The third solver family of the workspace: where both PDIP paths pay a
//! per-iteration Newton factorization, PDHG needs only one MVM with `A`
//! and one with `Aᵀ` per iteration — exactly the operation a memristor
//! crossbar (or the CSR microkernels) accelerates — and O(nnz) working
//! memory, so it keeps solving past the dense-core allocation wall.
//!
//! For `max cᵀx  s.t.  Ax ≤ b, x ≥ 0` the saddle-point form is
//! `min_x max_{y≥0} −cᵀx + yᵀ(Ax − b)` and the iteration is
//!
//! ```text
//! x⁺ = max(0, x + τ·(c − Aᵀy))        primal proximal step
//! x̄  = 2x⁺ − x                        primal extrapolation
//! y⁺ = max(0, y + σ·(Ax̄ − b))         dual proximal step
//! ```
//!
//! with `τ = 1/(ω·‖A‖₂)` and `σ = ω/‖A‖₂` so that `τσ‖A‖² ≤ 1` (the
//! convergence condition), `‖A‖₂` from the deterministic power-iteration
//! estimate in [`memlp_linalg::norm_est`], and the primal weight `ω`
//! re-balanced at restarts toward the observed movement ratio
//! `‖Δy‖/‖Δx‖` (the PDLP adaptive rule: when the dual has farther to
//! travel, buy it bigger steps). Restarts jump to the better of the current
//! iterate and the running restart-window average whenever the KKT score
//! has decayed sufficiently, which upgrades plain PDHG's O(1/k) tail to
//! the linear rate LPs admit.
//!
//! Termination matches the PDIP exit tests component-for-component: the
//! same relative primal/dual/gap tolerances (shared with
//! [`PdipOptions`]), the same `Ω` divergence bound mapped to the same
//! infeasible/unbounded certificates, and the same budget-degradation
//! contract (`Budget::none` preserves bit patterns exactly).
//!
//! The iteration itself is generic over a [`PdhgOperator`] so the digital
//! CSR path and the analog crossbar path (memlp-core) share one loop: the
//! operator is the only thing that differs between executing on spmv
//! microkernels and executing on quantized crossbar MVMs.

use memlp_linalg::{norm_est, ops, SparseMatrix};
use memlp_lp::{LpProblem, LpSolution, LpStatus};

use crate::budget::{Budget, BudgetCause};
use crate::pdip::{PdipOptions, DIVERGENCE_BOUND};
use crate::LpSolver;

/// KKT evaluation cadence in iterations: termination, restarts and trace
/// samples all happen at these checkpoints. Checkpoints reuse the
/// iteration's own MVMs, so the cadence trades latency of detection
/// against bookkeeping only.
const CHECK_EVERY: usize = 16;

/// Sufficient-decay factor `β` of the adaptive restart: restart when the
/// best candidate KKT score has dropped below `β ×` the score at the last
/// restart.
const RESTART_BETA: f64 = 0.5;

/// Force a restart after this many checkpoints without one (the
/// "artificial restart" that bounds the window length).
const RESTART_EVERY: usize = 64;

/// Initial primal weight `ω` (τ/σ balance), re-estimated at every restart
/// from the observed movement ratio.
const INITIAL_WEIGHT: f64 = 1.0;

/// The matrix oracle PDHG iterates through: one forward and one
/// transposed MVM per iteration, with an MVM meter for cost accounting.
///
/// Implementations may be stateful (the analog path advances quantizer
/// and noise streams on every call), hence `&mut self`.
pub trait PdhgOperator {
    /// Number of constraints `m`.
    fn rows(&self) -> usize;
    /// Number of variables `n`.
    fn cols(&self) -> usize;
    /// `A·x` (length `m`).
    fn apply(&mut self, x: &[f64]) -> Vec<f64>;
    /// `Aᵀ·y` (length `n`).
    fn apply_transposed(&mut self, y: &[f64]) -> Vec<f64>;
    /// `A·x` into a caller-owned buffer. The iteration loop hoists its
    /// product vectors and drives this, so an operator that can compute
    /// in place (the CSR path) performs zero per-iteration allocations;
    /// the default forwards to [`apply`](PdhgOperator::apply) for
    /// operators whose pipeline allocates anyway (the analog converters).
    /// Must be bitwise identical to the allocating variant.
    fn apply_into(&mut self, x: &[f64], out: &mut Vec<f64>) {
        *out = self.apply(x);
    }
    /// `Aᵀ·y` into a caller-owned buffer; see
    /// [`apply_into`](PdhgOperator::apply_into).
    fn apply_transposed_into(&mut self, y: &[f64], out: &mut Vec<f64>) {
        *out = self.apply_transposed(y);
    }
    /// Total MVMs performed so far (forward + transposed).
    fn mvms(&self) -> u64;
}

/// Digital [`PdhgOperator`]: CSR spmv microkernels over the problem's
/// sparse constraint matrix.
pub struct CsrOperator<'a> {
    a: &'a SparseMatrix,
    mvms: u64,
}

impl<'a> CsrOperator<'a> {
    /// Wraps a CSR matrix.
    pub fn new(a: &'a SparseMatrix) -> Self {
        CsrOperator { a, mvms: 0 }
    }
}

impl PdhgOperator for CsrOperator<'_> {
    fn rows(&self) -> usize {
        self.a.rows()
    }

    fn cols(&self) -> usize {
        self.a.cols()
    }

    fn apply(&mut self, x: &[f64]) -> Vec<f64> {
        self.mvms += 1;
        self.a.matvec(x)
    }

    fn apply_transposed(&mut self, y: &[f64]) -> Vec<f64> {
        self.mvms += 1;
        self.a.matvec_transposed(y)
    }

    fn apply_into(&mut self, x: &[f64], out: &mut Vec<f64>) {
        self.mvms += 1;
        out.resize(self.a.rows(), 0.0);
        self.a.matvec_into(x, out);
    }

    fn apply_transposed_into(&mut self, y: &[f64], out: &mut Vec<f64>) {
        self.mvms += 1;
        out.resize(self.a.cols(), 0.0);
        self.a.matvec_transposed_into(y, out);
    }

    fn mvms(&self) -> u64 {
        self.mvms
    }
}

/// Options for the restarted PDHG iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdhgOptions {
    /// Primal infeasibility tolerance (relative to `1 + ‖b‖∞`), on
    /// `‖(Ax − b)₊‖∞`.
    pub eps_primal: f64,
    /// Dual infeasibility tolerance (relative to `1 + ‖c‖∞`), on
    /// `‖(c − Aᵀy)₊‖∞`.
    pub eps_dual: f64,
    /// Gap tolerance (relative to `1 + |cᵀx| + |bᵀy|`), on `|cᵀx − bᵀy|`.
    pub eps_gap: f64,
    /// Maximum iterations. First-order methods trade per-iteration cost
    /// for iteration count, so this is orders of magnitude above the
    /// PDIP default.
    pub max_iterations: usize,
    /// Floor applied to warm-start iterates, shared knob with
    /// [`PdipOptions::warm_start_floor`]: warm components are clamped to
    /// `[floor, ∞)`. Unlike the interior-point solvers, PDHG is a
    /// projection method — iterates on the boundary are healthy, and an
    /// identical repeat request warm-started from its own solution should
    /// converge within the first checkpoint window — so the default here
    /// is `0` (plain nonnegative projection). Raise it only when warm
    /// data drifts enough that a stale active set is worth perturbing;
    /// [`PdhgOptions::from_pdip`] copies the PDIP floor for matched runs.
    pub warm_start_floor: f64,
    /// Row-equilibrate the problem (`memlp_lp::equilibrate`) before
    /// iterating and unscale the duals on exit. First-order convergence
    /// degrades with the spread of row norms (the step sizes are global,
    /// set by `‖A‖₂`), so balancing `[A | b]` rows typically cuts the
    /// iteration count on lopsided problems; the analog backends get the
    /// same benefit plus better per-row conductance utilization. Applied
    /// by the solver entry points ([`PdhgSolver::solve_full`] and the
    /// crossbar PDHG solver), not by [`solve_with_operator`] — the
    /// operator there already embodies whatever scaling the caller chose.
    /// On by default; equilibration failure (overflow on a subnormal row
    /// maximum) falls back to the unscaled problem.
    pub equilibrate: bool,
}

impl Default for PdhgOptions {
    fn default() -> Self {
        PdhgOptions {
            eps_primal: 1e-8,
            eps_dual: 1e-8,
            eps_gap: 1e-8,
            max_iterations: 100_000,
            warm_start_floor: 0.0,
            equilibrate: true,
        }
    }
}

impl PdhgOptions {
    /// Derives PDHG options from PDIP options: identical tolerances and
    /// warm-start floor (the divergence bound is the one
    /// [`DIVERGENCE_BOUND`] both families test), so a PDHG verdict means
    /// the same thing as a PDIP verdict at the same settings. The
    /// iteration cap stays at the first-order default (PDIP iteration
    /// counts are not comparable).
    pub fn from_pdip(p: &PdipOptions) -> Self {
        PdhgOptions {
            eps_primal: p.eps_primal,
            eps_dual: p.eps_dual,
            eps_gap: p.eps_gap,
            warm_start_floor: p.warm_start_floor,
            ..PdhgOptions::default()
        }
    }
}

/// One KKT checkpoint sample, for trace mirroring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdhgSample {
    /// Iteration the checkpoint was evaluated at (1-based).
    pub iteration: usize,
    /// Relative primal infeasibility `‖(Ax − b)₊‖∞ / (1 + ‖b‖∞)`.
    pub primal: f64,
    /// Relative dual infeasibility `‖(c − Aᵀy)₊‖∞ / (1 + ‖c‖∞)`.
    pub dual: f64,
    /// Relative objective gap `|cᵀx − bᵀy| / (1 + |cᵀx| + |bᵀy|)`.
    pub gap: f64,
    /// `true` if a restart fired at this checkpoint.
    pub restarted: bool,
}

/// Aggregate statistics of one PDHG run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PdhgStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Restarts taken (adaptive + artificial).
    pub restarts: usize,
    /// MVMs the operator performed (forward + transposed).
    pub mvms: u64,
    /// ‖A‖₂ estimate the step sizes were derived from.
    pub sigma: f64,
    /// Final (best) KKT score `max(pr/εp, dr/εd, gap/εg)`; ≤ 1 means
    /// converged.
    pub score: f64,
    /// Buffer allocations the iteration loop performed — the setup-time
    /// iterate, product, window-sum and scratch vectors. Everything the
    /// hot loop touches is hoisted into these, so the count is a
    /// function of the problem shape only, *independent of the iteration
    /// count* (the regression tests pin this); operator-internal
    /// allocations (e.g. the analog converter pipeline) are not counted.
    pub alloc_events: u64,
    /// KKT checkpoint samples in order.
    pub samples: Vec<PdhgSample>,
}

/// Outcome of [`solve_with_operator`]: the solution, the budget cause if
/// the run was cut short, and the run statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PdhgOutcome {
    /// Final solution (best KKT iterate observed).
    pub solution: LpSolution,
    /// Budget cause when the run degraded, `None` on a natural exit.
    pub cause: Option<BudgetCause>,
    /// Run statistics.
    pub stats: PdhgStats,
}

/// The restarted PDHG solver over the digital CSR path.
///
/// For the analog path, memlp-core wraps crossbar MVMs in a
/// [`PdhgOperator`] and drives the same loop through
/// [`solve_with_operator`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PdhgSolver {
    options: PdhgOptions,
}

impl PdhgSolver {
    /// Creates the solver with explicit options.
    pub fn new(options: PdhgOptions) -> Self {
        PdhgSolver { options }
    }

    /// The options in effect.
    pub fn options(&self) -> &PdhgOptions {
        &self.options
    }

    /// Full-control entry point: digital CSR operator, optional warm
    /// start, budget, and access to the run statistics.
    ///
    /// With [`PdhgOptions::equilibrate`] set the problem is row-scaled
    /// first, warm duals are carried *into* the scaled space
    /// (`y_scaled = y·s`), and on exit the duals are unscaled and the
    /// residual fields recomputed against the original problem.
    pub fn solve_full(
        &self,
        lp: &LpProblem,
        budget: Budget<'_>,
        warm: Option<(&[f64], &[f64])>,
    ) -> PdhgOutcome {
        if self.options.equilibrate {
            if let Ok((scaled, eq)) = memlp_lp::equilibrate(lp) {
                let warm_y: Option<Vec<f64>> = warm.map(|(_, y0)| scale_duals(y0, &eq.row_scales));
                let warm_scaled = match (warm, &warm_y) {
                    (Some((x0, _)), Some(ys)) => Some((x0, ys.as_slice())),
                    _ => None,
                };
                let a = scaled.sparse_a();
                let est = norm_est::spectral_norm(a);
                let sigma = est.safe_sigma(norm_est::upper_bound(a));
                let mut op = CsrOperator::new(a);
                let mut out = solve_with_operator(
                    &scaled,
                    &mut op,
                    sigma,
                    &self.options,
                    budget,
                    warm_scaled,
                );
                out.solution.y = eq.unscale_duals(&out.solution.y);
                rescore(lp, &mut out.solution);
                return out;
            }
        }
        let a = lp.sparse_a();
        let est = norm_est::spectral_norm(a);
        let sigma = est.safe_sigma(norm_est::upper_bound(a));
        let mut op = CsrOperator::new(a);
        solve_with_operator(lp, &mut op, sigma, &self.options, budget, warm)
    }
}

/// Carries original-space duals *into* a row-equilibrated problem:
/// scaling row i by `1/s_i` multiplies its dual by `s_i`.
pub fn scale_duals(y: &[f64], row_scales: &[f64]) -> Vec<f64> {
    y.iter().zip(row_scales).map(|(y, s)| y * s).collect()
}

/// Recomputes an [`LpSolution`]'s residual, objective and gap fields
/// digitally against `lp` (one CSR spmv pair, the same quantities the
/// loop's own exit path fills in). Used after dual unscaling so a
/// solution solved in equilibrated space reports residuals of the
/// problem the caller posed.
pub fn rescore(lp: &LpProblem, sol: &mut LpSolution) {
    let ax = lp.sparse_a().matvec(&sol.x);
    let aty = lp.sparse_a().matvec_transposed(&sol.y);
    let mut pr = 0.0f64;
    for (axi, bi) in ax.iter().zip(lp.b()) {
        pr = pr.max(axi - bi);
    }
    let mut dr = 0.0f64;
    for (ci, atyi) in lp.c().iter().zip(&aty) {
        dr = dr.max(ci - atyi);
    }
    sol.primal_residual = pr;
    sol.dual_residual = dr;
    sol.objective = lp.objective(&sol.x);
    sol.duality_gap = (sol.objective - ops::dot(lp.b(), &sol.y)).abs();
}

impl LpSolver for PdhgSolver {
    fn solve_budgeted(
        &self,
        lp: &LpProblem,
        budget: Budget<'_>,
    ) -> (LpSolution, Option<BudgetCause>) {
        let out = self.solve_full(lp, budget, None);
        (out.solution, out.cause)
    }

    fn name(&self) -> &'static str {
        "pdhg"
    }
}

/// Relative KKT residuals of `(x, y)` from externally computed products
/// `Ax` and `Aᵀy`, with the loop's checkpoint normalization.
///
/// Analog backends pass products evaluated against their *realized*
/// matrices (the controller's read-verify view of the programmed state)
/// to judge convergence on the operator the loop actually drives, free
/// of per-drive readout noise.
pub fn kkt_with_products(
    lp: &LpProblem,
    x: &[f64],
    y: &[f64],
    ax: &[f64],
    aty: &[f64],
) -> (f64, f64, f64) {
    let bnorm = 1.0 + ops::inf_norm(lp.b());
    let cnorm = 1.0 + ops::inf_norm(lp.c());
    kkt(lp, x, y, ax, aty, bnorm, cnorm)
}

/// Relative KKT residuals of `(x, y)` given precomputed `Ax` and `Aᵀy`.
fn kkt(
    lp: &LpProblem,
    x: &[f64],
    y: &[f64],
    ax: &[f64],
    aty: &[f64],
    bnorm: f64,
    cnorm: f64,
) -> (f64, f64, f64) {
    let mut pr = 0.0f64;
    for (axi, bi) in ax.iter().zip(lp.b()) {
        pr = pr.max(axi - bi);
    }
    let mut dr = 0.0f64;
    for (ci, atyi) in lp.c().iter().zip(aty) {
        dr = dr.max(ci - atyi);
    }
    let pobj = ops::dot(lp.c(), x);
    let dobj = ops::dot(lp.b(), y);
    let gap = (pobj - dobj).abs() / (1.0 + pobj.abs() + dobj.abs());
    (pr / bnorm, dr / cnorm, gap)
}

/// Runs the restarted PDHG loop over an arbitrary [`PdhgOperator`].
///
/// `sigma` is the step-size norm (a safe upper estimate of `‖A‖₂`, e.g.
/// [`norm_est::NormEstimate::safe_sigma`]); `warm` optionally seeds the
/// iterate from a previous solution, clamped to
/// [`PdhgOptions::warm_start_floor`]. The budget is polled once per
/// iteration; on expiry the best-so-far iterate is returned with
/// `LpStatus::IterationLimit` and the cause, exactly like the PDIP
/// solvers.
pub fn solve_with_operator(
    lp: &LpProblem,
    op: &mut dyn PdhgOperator,
    sigma: f64,
    opts: &PdhgOptions,
    budget: Budget<'_>,
    warm: Option<(&[f64], &[f64])>,
) -> PdhgOutcome {
    let n = lp.num_vars();
    let m = lp.num_constraints();
    debug_assert_eq!(op.cols(), n);
    debug_assert_eq!(op.rows(), m);
    let bnorm = 1.0 + ops::inf_norm(lp.b());
    let cnorm = 1.0 + ops::inf_norm(lp.c());
    // A zero matrix still admits the trivial saddle point; guard the
    // division rather than special-casing upstream.
    let norm = if sigma > 0.0 && sigma.is_finite() {
        sigma
    } else {
        1.0
    };

    // Every buffer the hot loop touches is allocated here, once — the
    // loop body itself performs no allocations (`stats.alloc_events`
    // measures exactly these sites, so the regression tests can pin the
    // count independent of the iteration count).
    let mut alloc_events = 0u64;
    let (mut x, mut y) = match warm {
        Some((x0, y0)) => {
            let floor = opts.warm_start_floor.max(0.0);
            (
                x0.iter().map(|&v| v.max(floor)).collect::<Vec<f64>>(),
                y0.iter().map(|&v| v.max(floor)).collect::<Vec<f64>>(),
            )
        }
        None => (vec![0.0; n], vec![0.0; m]),
    };
    alloc_events += 2;
    // PDLP weight convention: τ = 1/(ω·‖A‖), σ = ω/‖A‖, so a larger ω
    // (dual movement dominating) buys larger dual steps.
    let mut omega = INITIAL_WEIGHT;
    let mut tau = 1.0 / (omega * norm);
    let mut sig = omega / norm;

    let mut ax = op.apply(&x);
    let mut aty = op.apply_transposed(&y);
    alloc_events += 2;

    let mut stats = PdhgStats {
        sigma: norm,
        ..PdhgStats::default()
    };
    // Best-iterate tracking mirrors the crossbar PDIP controller: the
    // analog operator gives residuals a noise floor, so the loop keeps
    // the best observed checkpoint and returns it on any exit.
    let mut best_x = x.clone();
    let mut best_y = y.clone();
    let mut best_score = f64::INFINITY;
    // Restart-window state: anchor iterate, running sums for the window
    // average (A·avg comes for free by linearity), and the score at the
    // last restart for the sufficient-decay test.
    let mut anchor_x = x.clone();
    let mut anchor_y = y.clone();
    let mut restart_score = f64::INFINITY;
    let mut checks_since_restart = 0usize;
    let mut sum_x = vec![0.0f64; n];
    let mut sum_y = vec![0.0f64; m];
    let mut sum_ax = vec![0.0f64; m];
    let mut sum_aty = vec![0.0f64; n];
    alloc_events += 8;
    let mut window = 0usize;
    // Step scratch (double-buffered iterates and products, swapped each
    // iteration) and the checkpoint window-average temporaries.
    let mut x_next = vec![0.0f64; n];
    let mut y_next = vec![0.0f64; m];
    let mut ax_next = vec![0.0f64; m];
    let mut aty_next = vec![0.0f64; n];
    let mut avg_x = vec![0.0f64; n];
    let mut avg_y = vec![0.0f64; m];
    let mut avg_ax = vec![0.0f64; m];
    let mut avg_aty = vec![0.0f64; n];
    alloc_events += 8;

    let mut status: Option<LpStatus> = None;
    let mut cause: Option<BudgetCause> = None;
    let mut iterations = 0usize;

    for iter in 0..opts.max_iterations {
        if let Some(c) = budget.check(iter) {
            status = Some(LpStatus::IterationLimit);
            cause = Some(c);
            break;
        }
        iterations = iter + 1;

        // Primal step + extrapolated dual step, computed into the hoisted
        // double buffers and swapped in — no per-iteration allocations.
        for j in 0..n {
            x_next[j] = (x[j] + tau * (lp.c()[j] - aty[j])).max(0.0);
        }
        op.apply_into(&x_next, &mut ax_next);
        for i in 0..m {
            let axbar = 2.0 * ax_next[i] - ax[i];
            y_next[i] = (y[i] + sig * (axbar - lp.b()[i])).max(0.0);
        }
        op.apply_transposed_into(&y_next, &mut aty_next);

        std::mem::swap(&mut x, &mut x_next);
        std::mem::swap(&mut y, &mut y_next);
        std::mem::swap(&mut ax, &mut ax_next);
        std::mem::swap(&mut aty, &mut aty_next);
        for j in 0..n {
            sum_x[j] += x[j];
            sum_aty[j] += aty[j];
        }
        for i in 0..m {
            sum_y[i] += y[i];
            sum_ax[i] += ax[i];
        }
        window += 1;

        let last = iter + 1 == opts.max_iterations;
        if (iter + 1) % CHECK_EVERY != 0 && !last {
            continue;
        }

        // ---- checkpoint ----
        if !(ops::all_finite(&x) && ops::all_finite(&y)) {
            status = Some(LpStatus::NumericalFailure);
            break;
        }
        if ops::inf_norm(&y) > DIVERGENCE_BOUND {
            status = Some(LpStatus::Infeasible);
            break;
        }
        if ops::inf_norm(&x) > DIVERGENCE_BOUND {
            status = Some(LpStatus::Unbounded);
            break;
        }
        let (pr, dr, gap) = kkt(lp, &x, &y, &ax, &aty, bnorm, cnorm);
        let score = (pr / opts.eps_primal)
            .max(dr / opts.eps_dual)
            .max(gap / opts.eps_gap);
        if score < best_score {
            best_score = score;
            best_x.clone_from(&x);
            best_y.clone_from(&y);
        }
        if !restart_score.is_finite() {
            restart_score = score;
        }
        checks_since_restart += 1;
        let mut restarted = false;

        if score <= 1.0 {
            stats.samples.push(PdhgSample {
                iteration: iterations,
                primal: pr,
                dual: dr,
                gap,
                restarted: false,
            });
            status = Some(LpStatus::Optimal);
            break;
        }

        // Window average candidate (linearity gives A·avg from the sums),
        // computed into the hoisted average buffers.
        let inv = 1.0 / window as f64;
        let avg_score = if window > 1 {
            for (o, v) in avg_x.iter_mut().zip(&sum_x) {
                *o = v * inv;
            }
            for (o, v) in avg_y.iter_mut().zip(&sum_y) {
                *o = v * inv;
            }
            for (o, v) in avg_ax.iter_mut().zip(&sum_ax) {
                *o = v * inv;
            }
            for (o, v) in avg_aty.iter_mut().zip(&sum_aty) {
                *o = v * inv;
            }
            let (apr, adr, agap) = kkt(lp, &avg_x, &avg_y, &avg_ax, &avg_aty, bnorm, cnorm);
            let s = (apr / opts.eps_primal)
                .max(adr / opts.eps_dual)
                .max(agap / opts.eps_gap);
            Some(s)
        } else {
            None
        };
        let candidate_score = avg_score.map_or(score, |s| s.min(score));
        let decayed = candidate_score <= RESTART_BETA * restart_score;
        let overdue = checks_since_restart >= RESTART_EVERY;
        if decayed || overdue {
            // Jump to the better of current iterate and window average.
            if let Some(s) = avg_score {
                if s < score {
                    x.copy_from_slice(&avg_x);
                    y.copy_from_slice(&avg_y);
                    op.apply_into(&x, &mut ax);
                    op.apply_transposed_into(&y, &mut aty);
                }
            }
            // Re-balance the primal weight from the window movement
            // (PDLP's adaptive rule, geometrically damped and clamped).
            let dx = dist2(&x, &anchor_x).max(1e-10);
            let dy = dist2(&y, &anchor_y).max(1e-10);
            if dx > 1e-10 || dy > 1e-10 {
                let ratio = (dy / dx).sqrt();
                let blended = (omega.ln() * 0.5 + ratio.ln() * 0.5).exp();
                omega = blended.clamp(omega * 0.25, omega * 4.0).clamp(1e-3, 1e3);
                tau = 1.0 / (omega * norm);
                sig = omega / norm;
            }
            anchor_x.clone_from(&x);
            anchor_y.clone_from(&y);
            restart_score = candidate_score.min(score);
            checks_since_restart = 0;
            for v in sum_x.iter_mut() {
                *v = 0.0;
            }
            for v in sum_y.iter_mut() {
                *v = 0.0;
            }
            for v in sum_ax.iter_mut() {
                *v = 0.0;
            }
            for v in sum_aty.iter_mut() {
                *v = 0.0;
            }
            window = 0;
            stats.restarts += 1;
            restarted = true;
        }

        stats.samples.push(PdhgSample {
            iteration: iterations,
            primal: pr,
            dual: dr,
            gap,
            restarted,
        });
    }

    let status = match status {
        Some(s) => s,
        None => LpStatus::IterationLimit,
    };
    // Any non-natural exit reports the best observed iterate.
    let (fx, fy) = if matches!(status, LpStatus::Optimal) || !best_score.is_finite() {
        (x, y)
    } else {
        (best_x, best_y)
    };
    stats.iterations = iterations;
    stats.mvms = op.mvms();
    stats.alloc_events = alloc_events;
    stats.score = if matches!(status, LpStatus::Optimal) {
        // Recompute nothing: the converged checkpoint's score is ≤ 1 by
        // construction; keep the best observed for reporting.
        best_score.min(1.0)
    } else {
        best_score
    };

    let solution = finish(lp, fx, fy, status, iterations);
    PdhgOutcome {
        solution,
        cause,
        stats,
    }
}

/// Squared-free Euclidean distance `‖a − b‖₂`.
fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Builds the final [`LpSolution`]: residual fields carry the PDHG KKT
/// quantities (`‖(Ax−b)₊‖∞`, `‖(c−Aᵀy)₊‖∞`, `|cᵀx − bᵀy|`), the
/// first-order analogues of the PDIP slack residuals.
fn finish(
    lp: &LpProblem,
    x: Vec<f64>,
    y: Vec<f64>,
    status: LpStatus,
    iterations: usize,
) -> LpSolution {
    let ax = lp.sparse_a().matvec(&x);
    let aty = lp.sparse_a().matvec_transposed(&y);
    let mut pr = 0.0f64;
    for (axi, bi) in ax.iter().zip(lp.b()) {
        pr = pr.max(axi - bi);
    }
    let mut dr = 0.0f64;
    for (ci, atyi) in lp.c().iter().zip(&aty) {
        dr = dr.max(ci - atyi);
    }
    let objective = lp.objective(&x);
    let gap = (objective - ops::dot(lp.b(), &y)).abs();
    LpSolution {
        status,
        objective,
        iterations,
        primal_residual: pr,
        dual_residual: dr,
        duality_gap: gap,
        x,
        y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::IterationDeadline;
    use crate::NormalEqPdip;
    use memlp_linalg::Matrix;
    use memlp_lp::generator::RandomLp;

    fn sample() -> LpProblem {
        LpProblem::new(
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 1.0]]).unwrap(),
            vec![4.0, 6.0],
            vec![1.0, 1.0],
        )
        .unwrap()
    }

    fn loose() -> PdhgOptions {
        PdhgOptions {
            eps_primal: 1e-6,
            eps_dual: 1e-6,
            eps_gap: 1e-6,
            ..PdhgOptions::default()
        }
    }

    #[test]
    fn solves_the_sample_lp() {
        let lp = sample();
        let sol = PdhgSolver::new(loose()).solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        // Optimum: x = (8/5, 6/5), obj = 14/5.
        assert!((sol.objective - 2.8).abs() < 1e-4, "obj {}", sol.objective);
    }

    #[test]
    fn matches_pdip_on_random_lps() {
        for seed in [3u64, 7, 21] {
            let lp = RandomLp::paper(12, seed).feasible();
            let reference = NormalEqPdip::default().solve(&lp);
            let sol = PdhgSolver::new(loose()).solve(&lp);
            assert_eq!(sol.status, LpStatus::Optimal, "seed {seed}");
            let denom = reference.objective.abs().max(1.0);
            assert!(
                (sol.objective - reference.objective).abs() / denom < 1e-3,
                "seed {seed}: pdhg {} vs pdip {}",
                sol.objective,
                reference.objective
            );
        }
    }

    #[test]
    fn detects_unbounded() {
        // max x, no binding constraint in the growth direction.
        let lp =
            LpProblem::new(Matrix::from_rows(&[&[-1.0]]).unwrap(), vec![1.0], vec![1.0]).unwrap();
        let sol = PdhgSolver::new(loose()).solve(&lp);
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn budget_none_matches_unbudgeted_bitwise() {
        let lp = RandomLp::paper(10, 5).feasible();
        let solver = PdhgSolver::new(loose());
        let plain = solver.solve(&lp);
        let (budgeted, cause) = solver.solve_budgeted(&lp, Budget::none());
        assert!(cause.is_none());
        assert_eq!(plain.status, budgeted.status);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&plain.x), bits(&budgeted.x));
        assert_eq!(bits(&plain.y), bits(&budgeted.y));
    }

    #[test]
    fn budget_cuts_short_with_best_iterate() {
        let lp = RandomLp::paper(10, 5).feasible();
        let solver = PdhgSolver::new(loose());
        let (sol, cause) = solver.solve_budgeted(&lp, Budget::none().with_max_iters(40));
        assert_eq!(sol.status, LpStatus::IterationLimit);
        assert_eq!(cause, Some(BudgetCause::MaxIters));
        assert!(sol.iterations <= 40);
        // Deadline variant.
        let dl = IterationDeadline::new(8);
        let (_, cause) = solver.solve_budgeted(&lp, Budget::none().with_deadline(&dl));
        assert_eq!(cause, Some(BudgetCause::DeadlineExceeded));
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let lp = RandomLp::paper(14, 9).feasible();
        let solver = PdhgSolver::new(loose());
        let cold = solver.solve_full(&lp, Budget::none(), None);
        assert_eq!(cold.solution.status, LpStatus::Optimal);
        let warm = solver.solve_full(
            &lp,
            Budget::none(),
            Some((&cold.solution.x, &cold.solution.y)),
        );
        assert_eq!(warm.solution.status, LpStatus::Optimal);
        assert!(
            warm.stats.iterations <= cold.stats.iterations,
            "warm {} > cold {}",
            warm.stats.iterations,
            cold.stats.iterations
        );
    }

    #[test]
    fn hot_loop_allocations_are_iteration_independent() {
        let lp = RandomLp::paper(14, 9).feasible();
        let solver = PdhgSolver::new(loose());
        let short = solver.solve_full(&lp, Budget::none().with_max_iters(8), None);
        let long = solver.solve_full(&lp, Budget::none(), None);
        assert!(
            long.stats.iterations > short.stats.iterations,
            "need runs of different length: {} vs {}",
            long.stats.iterations,
            short.stats.iterations
        );
        // Every loop buffer is hoisted: the allocation count is a shape
        // constant, not a per-iteration cost.
        assert_eq!(short.stats.alloc_events, long.stats.alloc_events);
        assert_eq!(long.stats.alloc_events, 20);
    }

    #[test]
    fn equilibrated_solve_matches_unscaled_and_unscales_duals() {
        // Lopsided row scales: row 0 is ×1000 the sample problem's.
        let lp = LpProblem::new(
            Matrix::from_rows(&[&[1000.0, 2000.0], &[3.0, 1.0]]).unwrap(),
            vec![4000.0, 6.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        let on = PdhgSolver::new(loose()).solve_full(&lp, Budget::none(), None);
        let off = PdhgSolver::new(PdhgOptions {
            equilibrate: false,
            ..loose()
        })
        .solve_full(&lp, Budget::none(), None);
        assert_eq!(on.solution.status, LpStatus::Optimal);
        assert!(
            (on.solution.objective - 2.8).abs() < 1e-3,
            "obj {}",
            on.solution.objective
        );
        // Duals come back in the original row scaling: strong duality
        // must hold against the *original* b, not the scaled one.
        let dual_obj = on.solution.y[0] * 4000.0 + on.solution.y[1] * 6.0;
        assert!(
            (dual_obj - on.solution.objective).abs() < 1e-3,
            "bᵀy {dual_obj}"
        );
        // The scaling is the tractability: the unscaled run needs more
        // iterations on the lopsided rows (at these tolerances it stalls
        // in its iteration budget entirely).
        assert!(
            off.solution.status != LpStatus::Optimal || off.stats.iterations > on.stats.iterations,
            "unscaled: {:?} in {} iters vs equilibrated {}",
            off.solution.status,
            off.stats.iterations,
            on.stats.iterations
        );
    }

    #[test]
    fn stats_meter_counts_mvms() {
        let lp = sample();
        let out = PdhgSolver::new(loose()).solve_full(&lp, Budget::none(), None);
        // Two seed MVMs plus two per iteration (checkpoints are free).
        assert!(out.stats.mvms >= 2 * out.stats.iterations as u64);
        assert!(out.stats.sigma > 0.0);
        assert!(!out.stats.samples.is_empty());
    }
}
