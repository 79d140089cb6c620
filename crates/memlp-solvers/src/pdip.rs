//! Shared primal–dual interior-point machinery (paper §3.1).
//!
//! Both software baselines and the crossbar solvers in `memlp-core` iterate
//! the same outer loop: maintain strictly positive `(x, w, y, z)`, compute
//! step directions from a Newton system, damp them with the Eqn 11 step
//! length, and re-center with the Eqn 8 barrier parameter. This module owns
//! that outer loop's state so the solvers differ only in *how the Newton
//! system is solved* — which is exactly the paper's framing.
//!
//! The three digital baselines ([`crate::DensePdip`],
//! [`crate::NormalEqPdip`], [`crate::MehrotraPdip`]) share one loop: the
//! residuals `ρ`, `σ` once, the §3.1 exit tests on them, one budget poll,
//! the solver's Newton solve (which reads the same residuals), then
//! [`PdipState::step_length`] and [`PdipState::apply_step`]. The loop
//! owns its residual and direction buffers for the whole solve, and
//! the exit-test scales are taken once. Each solver supplies only the
//! Newton solve, and the two normal-equations solvers share its linear
//! algebra: one core factors the quasi-definite KKT form by a sparse LDLᵀ
//! per iteration, whatever the density of `A`, which `NormalEqPdip`
//! back-solves once and `MehrotraPdip` twice. After the Newton solve the
//! loop reads the direction as a certificate: a Farkas ray ends the solve
//! `Infeasible`, a primal ray `Unbounded`.
//! The Ω divergence rule ([`PdipState::divergence`]: non-finite `x`/`y`,
//! then `‖y‖∞ > Ω`, then `‖x‖∞ > Ω`) stays as the backstop; it is the one
//! both crossbar algorithms in `memlp-core` also apply at the top of every
//! iteration.
//!
//! [`PdipState`] touches `A` only through its CSR view
//! ([`LpProblem::sparse_a`]): the residuals and the warm-start slacks cost
//! O(nnz(A)), not O(m·n). On a row with no stored zero the CSR row sum
//! adds its terms in the same 4-lane order as the dense product, so fully
//! dense LPs (the paper's random instances) get the same bits either way.

use memlp_linalg::ops;
use memlp_lp::{LpProblem, LpSolution, LpStatus};

use crate::budget::{Budget, BudgetCause};

/// Whether Algorithm 1's digital Newton core (`memlp-core`'s `newton.rs`)
/// factors `lp` by the static-pivot `memlp_linalg::SparseLu` with
/// symbolic-analysis reuse instead of the dense Schur reduction: true at a
/// constraint-matrix density of a quarter or less, where the sparse
/// factorization wins even after fill-in on the domains this workspace
/// ships (DESIGN.md §13 has the measured crossover). The digital
/// baselines apply no such test: every normal-equations solve factors the
/// quasi-definite KKT LDLᵀ.
///
/// The input decides; no solver option or CLI flag overrides it. Both
/// factorizations solve the same Newton system, and the sparse one falls
/// back to the dense one for any iteration whose pivots break down.
pub fn sparse_newton(lp: &LpProblem) -> bool {
    lp.density() <= 0.25
}

/// Why a Newton-core solve produced no directions.
///
/// `Singular` is the paper's §4.3 variation-induced failure mode (the
/// realized system lost rank; callers retry or classify). `CoreTooLarge`
/// is a *guard*, not a numerical event: the dense factorization would
/// need an allocation beyond the configured limit (e.g. the ~35 GB
/// `(n+m)²` core of assignment@512), so it refuses up front. Algorithm 1
/// admits its `min(n,m)` Schur solve and its `(n+m)` LU fallback each by
/// its own buffers and reroutes a core whose Schur solve would not fit to
/// its sparse factorization, so the error surfaces there only when a
/// dense buffer it cannot avoid passes the limit; Algorithm 2, whose
/// System 1 is always dense, reports it from its preflight instead of
/// attempting the allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreSolveError {
    /// The realized system is singular (or produced non-finite entries).
    Singular,
    /// A dense buffer of the core solve would exceed the allocation guard.
    CoreTooLarge {
        /// Core dimension `n + m`.
        dim: usize,
        /// Bytes the refused dense buffer would need (`8·dim²` for the
        /// `(n+m)` LU).
        bytes: u64,
        /// The configured allocation limit in bytes.
        limit: u64,
    },
    /// The hardware configuration asks for circuit fidelity, which the
    /// solvers' block model does not simulate.
    CircuitFidelity,
}

impl std::fmt::Display for CoreSolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreSolveError::Singular => write!(f, "realized Newton system is singular"),
            CoreSolveError::CoreTooLarge { dim, bytes, limit } => write!(
                f,
                "dense Newton core of dimension {dim} needs {bytes} bytes, \
                 over the {limit}-byte limit; Algorithm 1 (`alg1`), PDHG \
                 (`pdhg`) and `--solver auto` solve it without a dense core"
            ),
            CoreSolveError::CircuitFidelity => write!(
                f,
                "circuit fidelity (the Eqn 5 divider and g_off leakage) is modelled \
                 only by the standalone Crossbar; the crossbar solvers realize their \
                 blocks at functional fidelity"
            ),
        }
    }
}

impl std::error::Error for CoreSolveError {}

/// Barrier reduction factor `δ ∈ (0, 1)` of Eqn 8: every PDIP loop
/// targets `µ = δ·(zᵀx + yᵀw)/(n + m)` ([`PdipState::mu`]).
pub const DELTA: f64 = 0.1;

/// Step-length safety factor `r < 1` of Eqn 11, the damping every PDIP
/// loop passes to [`PdipState::step_length`] (Mehrotra's affine predictor
/// alone measures its step at `r = 1`).
pub const STEP_SAFETY: f64 = 0.9995;

/// Iterate-magnitude bound `Ω` of the §3.1 divergence test ("constraints
/// are infeasible if the element with the largest absolute value in x, y
/// is greater than a certain enough large number"): `‖y‖∞ > Ω` certifies
/// an infeasible primal, `‖x‖∞ > Ω` an unbounded one. Every PDIP loop and
/// the PDHG checkpoints test against this one bound.
pub const DIVERGENCE_BOUND: f64 = 1e6;

/// Starting value of every component of `(x, w, y, z)` on a cold start
/// ([`PdipState::new`]): the paper initializes "as arbitrary vectors", and
/// a strictly positive constant is the conventional choice.
pub const INITIAL_VALUE: f64 = 1.0;

/// Options for PDIP iterations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdipOptions {
    /// Primal infeasibility tolerance `ε_b` (relative to `1 + ‖b‖∞`).
    pub eps_primal: f64,
    /// Dual infeasibility tolerance `ε_c` (relative to `1 + ‖c‖∞`).
    pub eps_dual: f64,
    /// Duality-gap tolerance `ε_g` (relative to `1 + |cᵀx|`).
    pub eps_gap: f64,
    /// Maximum iterations.
    pub max_iterations: usize,
    /// Interiority floor applied when warm-starting from a previous
    /// solution ([`PdipState::warm_start`]): every warm component is
    /// clamped to at least this value so the barrier path starts strictly
    /// interior even when the previous optimum sits on the boundary. The
    /// serving path and the PDHG warm starts share this one knob; larger
    /// values are more robust to stale iterates, smaller values preserve
    /// more of the warm information.
    pub warm_start_floor: f64,
}

impl Default for PdipOptions {
    fn default() -> Self {
        PdipOptions {
            eps_primal: 1e-8,
            eps_dual: 1e-8,
            eps_gap: 1e-8,
            max_iterations: 200,
            warm_start_floor: 1e-2,
        }
    }
}

/// Step directions for one PDIP iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct StepDirections {
    /// Δx (length n).
    pub dx: Vec<f64>,
    /// Δy (length m).
    pub dy: Vec<f64>,
    /// Δw (length m).
    pub dw: Vec<f64>,
    /// Δz (length n).
    pub dz: Vec<f64>,
}

impl StepDirections {
    /// Zero directions for `n` variables and `m` constraints: the buffers
    /// a solve's Newton steps are written into.
    pub(crate) fn zeros(n: usize, m: usize) -> Self {
        StepDirections {
            dx: vec![0.0; n],
            dy: vec![0.0; m],
            dw: vec![0.0; m],
            dz: vec![0.0; n],
        }
    }
}

/// The residuals `ρ = b − Ax − w` and `σ = c − Aᵀy + z` and the duality
/// gap of the current iterate, the residuals in buffers kept for a whole
/// solve, and the scales of the exit tests, fixed per LP: `1 + ‖b‖∞` and
/// `1 + ‖c‖∞` for convergence, `‖b‖₁` and `‖c‖₁` for [`ray_verdict`].
#[derive(Debug, Clone)]
pub(crate) struct Residuals {
    /// `ρ` (length m).
    pub(crate) rho: Vec<f64>,
    /// `σ` (length n).
    pub(crate) sigma: Vec<f64>,
    /// [`PdipState::duality_gap`].
    pub(crate) gap: f64,
    primal_scale: f64,
    dual_scale: f64,
    b_norm1: f64,
    c_norm1: f64,
}

impl Residuals {
    /// Zero residuals and the exit-test scales of `lp`.
    pub(crate) fn new(lp: &LpProblem) -> Self {
        Residuals {
            rho: vec![0.0; lp.num_constraints()],
            sigma: vec![0.0; lp.num_vars()],
            gap: 0.0,
            primal_scale: 1.0 + ops::inf_norm(lp.b()),
            dual_scale: 1.0 + ops::inf_norm(lp.c()),
            b_norm1: ops::one_norm(lp.b()),
            c_norm1: ops::one_norm(lp.c()),
        }
    }

    /// Recomputes `ρ`, `σ` and the gap at `state`.
    pub(crate) fn update(&mut self, lp: &LpProblem, state: &PdipState) {
        state.primal_residual_into(lp, &mut self.rho);
        state.dual_residual_into(lp, &mut self.sigma);
        self.gap = state.duality_gap();
    }

    /// [`PdipState::mu`] of the iterate, from the gap already taken.
    pub(crate) fn mu(&self) -> f64 {
        DELTA * self.gap / (self.sigma.len() + self.rho.len()) as f64
    }
}

/// The PDIP iterate `(x, w, y, z)` plus residual bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct PdipState {
    /// Primal variables (length n), strictly positive.
    pub x: Vec<f64>,
    /// Primal slacks (length m), strictly positive.
    pub w: Vec<f64>,
    /// Dual variables (length m), strictly positive.
    pub y: Vec<f64>,
    /// Dual slacks (length n), strictly positive.
    pub z: Vec<f64>,
}

impl PdipState {
    /// The cold start: every variable at [`INITIAL_VALUE`].
    pub fn new(lp: &LpProblem) -> Self {
        let n = lp.num_vars();
        let m = lp.num_constraints();
        PdipState {
            x: vec![INITIAL_VALUE; n],
            w: vec![INITIAL_VALUE; m],
            y: vec![INITIAL_VALUE; m],
            z: vec![INITIAL_VALUE; n],
        }
    }

    /// Warm start from a previous solution of a *related* problem (same
    /// dimensions, typically only `b`/`c` changed): the primal/dual iterate
    /// is taken from `x0`/`y0` and the slacks are recomputed against the
    /// new data (`w = b − A·x`, `z = Aᵀy − c`), everything clamped to
    /// `floor` to restore strict interiority. A near-optimal previous
    /// iterate lands the barrier path steps from the new optimum, which is
    /// what lets a warm serving context answer repeat requests in a
    /// fraction of the cold iteration count.
    pub fn warm_start(lp: &LpProblem, x0: &[f64], y0: &[f64], floor: f64) -> Self {
        debug_assert_eq!(x0.len(), lp.num_vars());
        debug_assert_eq!(y0.len(), lp.num_constraints());
        let x: Vec<f64> = x0.iter().map(|&v| v.max(floor)).collect();
        let y: Vec<f64> = y0.iter().map(|&v| v.max(floor)).collect();
        let ax = lp.sparse_a().matvec(&x);
        let w: Vec<f64> = lp
            .b()
            .iter()
            .zip(&ax)
            .map(|(b, ax)| (b - ax).max(floor))
            .collect();
        let aty = lp.sparse_a().matvec_transposed(&y);
        let z: Vec<f64> = aty
            .iter()
            .zip(lp.c())
            .map(|(aty, c)| (aty - c).max(floor))
            .collect();
        PdipState { x, w, y, z }
    }

    /// Primal residual vector `b − A·x − w` (zero at primal feasibility).
    pub fn primal_residual(&self, lp: &LpProblem) -> Vec<f64> {
        let mut rho = vec![0.0; lp.num_constraints()];
        self.primal_residual_into(lp, &mut rho);
        rho
    }

    /// Dual residual vector `c − Aᵀ·y + z` (zero at dual feasibility).
    pub fn dual_residual(&self, lp: &LpProblem) -> Vec<f64> {
        let mut sigma = vec![0.0; lp.num_vars()];
        self.dual_residual_into(lp, &mut sigma);
        sigma
    }

    /// [`Self::primal_residual`] written into `rho` (length m).
    fn primal_residual_into(&self, lp: &LpProblem, rho: &mut [f64]) {
        lp.sparse_a().matvec_into(&self.x, rho);
        for ((r, b), w) in rho.iter_mut().zip(lp.b()).zip(&self.w) {
            *r = b - *r - w;
        }
    }

    /// [`Self::dual_residual`] written into `sigma` (length n).
    fn dual_residual_into(&self, lp: &LpProblem, sigma: &mut [f64]) {
        lp.sparse_a().matvec_transposed_into(&self.y, sigma);
        for ((s, c), z) in sigma.iter_mut().zip(lp.c()).zip(&self.z) {
            *s = c - *s + z;
        }
    }

    /// Duality gap `zᵀx + yᵀw` (§3.1).
    pub fn duality_gap(&self) -> f64 {
        ops::dot(&self.z, &self.x) + ops::dot(&self.y, &self.w)
    }

    /// Barrier parameter `µ = δ·(zᵀx + yᵀw)/(n + m)` (Eqn 8, `δ` =
    /// [`DELTA`]).
    pub fn mu(&self) -> f64 {
        DELTA * self.duality_gap() / (self.x.len() + self.y.len()) as f64
    }

    /// The Eqn 11 step length: `θ = r·min(max_ratio⁻¹, 1)` where
    /// `max_ratio = max(−Δv_i/v_i)` over every component of every variable.
    pub fn step_length(&self, dirs: &StepDirections, safety: f64) -> f64 {
        let max_ratio = [
            max_ratio(&self.x, &dirs.dx),
            max_ratio(&self.y, &dirs.dy),
            max_ratio(&self.w, &dirs.dw),
            max_ratio(&self.z, &dirs.dz),
        ]
        .into_iter()
        .fold(0.0, f64::max);
        if max_ratio <= 0.0 {
            return 1.0;
        }
        (safety / max_ratio).min(1.0)
    }

    /// Applies `v ← v + θ·Δv` to all four variables (Eqn 10), flooring at a
    /// tiny positive value to preserve strict interiority in the face of
    /// rounding.
    pub fn apply_step(&mut self, dirs: &StepDirections, theta: f64) {
        const FLOOR: f64 = 1e-14;
        for (v, dv) in self.x.iter_mut().zip(&dirs.dx) {
            *v = (*v + theta * dv).max(FLOOR);
        }
        for (v, dv) in self.y.iter_mut().zip(&dirs.dy) {
            *v = (*v + theta * dv).max(FLOOR);
        }
        for (v, dv) in self.w.iter_mut().zip(&dirs.dw) {
            *v = (*v + theta * dv).max(FLOOR);
        }
        for (v, dv) in self.z.iter_mut().zip(&dirs.dz) {
            *v = (*v + theta * dv).max(FLOOR);
        }
    }

    /// The §3.1 divergence rule, shared by every PDIP loop: NaN/∞ in `x`
    /// or `y` is a [`LpStatus::NumericalFailure`]; `‖y‖∞ > Ω` means the
    /// dual is unbounded, so the primal is [`LpStatus::Infeasible`];
    /// `‖x‖∞ > Ω` means the primal is [`LpStatus::Unbounded`], `Ω` being
    /// [`DIVERGENCE_BOUND`]. `None` while the iterate stays inside the
    /// bound.
    pub fn divergence(&self) -> Option<LpStatus> {
        if !(ops::all_finite(&self.x) && ops::all_finite(&self.y)) {
            Some(LpStatus::NumericalFailure)
        } else if ops::inf_norm(&self.y) > DIVERGENCE_BOUND {
            Some(LpStatus::Infeasible)
        } else if ops::inf_norm(&self.x) > DIVERGENCE_BOUND {
            Some(LpStatus::Unbounded)
        } else {
            None
        }
    }

    /// Evaluates the §3.1 exit tests on the exact (digital) residuals
    /// `res` of this iterate: numerical failure, divergence
    /// (infeasible/unbounded certificates) or convergence
    /// ([`LpStatus::Optimal`]). `None` means keep iterating.
    pub(crate) fn outcome(
        &self,
        lp: &LpProblem,
        opts: &PdipOptions,
        res: &Residuals,
    ) -> Option<LpStatus> {
        if !(ops::all_finite(&self.w) && ops::all_finite(&self.z)) {
            return Some(LpStatus::NumericalFailure);
        }
        if let Some(status) = self.divergence() {
            return Some(status);
        }
        let pr = ops::inf_norm(&res.rho) / res.primal_scale;
        let dr = ops::inf_norm(&res.sigma) / res.dual_scale;
        let gap = res.gap / (1.0 + lp.objective(&self.x).abs());
        (pr <= opts.eps_primal && dr <= opts.eps_dual && gap <= opts.eps_gap)
            .then_some(LpStatus::Optimal)
    }

    /// Builds the final [`memlp_lp::LpSolution`] record for this state.
    pub fn into_solution(self, lp: &LpProblem, status: LpStatus, iterations: usize) -> LpSolution {
        let primal_residual = ops::inf_norm(&self.primal_residual(lp));
        let dual_residual = ops::inf_norm(&self.dual_residual(lp));
        let duality_gap = self.duality_gap();
        let objective = lp.objective(&self.x);
        LpSolution {
            status,
            objective,
            iterations,
            primal_residual,
            dual_residual,
            duality_gap,
            x: self.x,
            y: self.y,
        }
    }
}

/// `max(0, max_i −Δv_i / max(v_i, MIN_POSITIVE))` over the `i` with
/// `Δv_i < 0`, without a data-dependent branch: every component is
/// divided and the maximum, starting at 0, is kept by a compare-and-select
/// in four independent lanes. A non-negative `Δv_i` gives a ratio of at
/// most `-0`, and a NaN ratio never wins the `>`, as it never wins
/// `f64::max`; so the result does not depend on the order the components
/// are taken in and is the maximum a branch over the negative components
/// takes, bit for bit.
fn max_ratio(v: &[f64], dv: &[f64]) -> f64 {
    let ratio = |v: f64, dv: f64| {
        let den = if v > f64::MIN_POSITIVE {
            v
        } else {
            f64::MIN_POSITIVE
        };
        -dv / den
    };
    let keep = |m: f64, r: f64| if r > m { r } else { m };
    let (v4, dv4) = (v.chunks_exact(4), dv.chunks_exact(4));
    let tail = v4
        .remainder()
        .iter()
        .zip(dv4.remainder())
        .fold(0.0, |m, (&v, &dv)| keep(m, ratio(v, dv)));
    let mut lanes = [0.0; 4];
    for (v, dv) in v4.zip(dv4) {
        for ((m, &v), &dv) in lanes.iter_mut().zip(v).zip(dv) {
            *m = keep(*m, ratio(v, dv));
        }
    }
    lanes.into_iter().fold(tail, keep)
}

/// Classifies a numerical breakdown: iterates that were already diverging
/// when the Newton solve failed are certificates of infeasibility or
/// unboundedness (the Newton system condition number blows up along the
/// divergent ray well before `‖·‖∞` reaches Ω).
pub fn classify_breakdown(state: &PdipState) -> LpStatus {
    // On an infeasible primal the duals diverge along a ray while x stays
    // bounded (and vice versa for an unbounded primal); a two-orders-of-
    // magnitude imbalance at breakdown is taken as the certificate.
    let ynorm = ops::inf_norm(&state.y);
    let xnorm = ops::inf_norm(&state.x);
    if ynorm > 100.0 * xnorm.max(1.0) {
        LpStatus::Infeasible
    } else if xnorm > 100.0 * ynorm.max(1.0) {
        LpStatus::Unbounded
    } else {
        LpStatus::NumericalFailure
    }
}

/// Sign tolerance of [`ray_verdict`], relative to the direction's `‖·‖∞`.
const RAY_TOL: f64 = 1e-9;

/// Reads a Newton direction as a certificate. `Δy ⪰ 0`, `AᵀΔy ⪰ 0` and
/// `bᵀΔy < 0` is a Farkas ray: the primal is [`LpStatus::Infeasible`].
/// `Δx ⪰ 0`, `AΔx ⪯ 0` and `cᵀΔx > 0` is a ray along which the objective
/// grows without bound: [`LpStatus::Unbounded`]. Signs are taken to
/// within `tol = RAY_TOL·‖Δ‖∞`, and the objective must move by more than
/// errors of `tol` in every component could explain. Those tests are
/// O(n + m) and reject almost every direction of a feasible LP, so the
/// products with `A` are formed only for a candidate ray.
fn ray_verdict(lp: &LpProblem, res: &Residuals, dirs: &StepDirections) -> Option<LpStatus> {
    let a = lp.sparse_a();
    let gain = -ops::dot(lp.b(), &dirs.dy);
    if let Some(tol) = ray_tolerance(&dirs.dy, gain, res.b_norm1) {
        let mut aty = vec![0.0; lp.num_vars()];
        a.matvec_transposed_into(&dirs.dy, &mut aty);
        if aty.iter().all(|&v| v >= -tol) {
            return Some(LpStatus::Infeasible);
        }
    }
    let gain = ops::dot(lp.c(), &dirs.dx);
    if let Some(tol) = ray_tolerance(&dirs.dx, gain, res.c_norm1) {
        let mut ax = vec![0.0; lp.num_constraints()];
        a.matvec_into(&dirs.dx, &mut ax);
        if ax.iter().all(|&v| v <= tol) {
            return Some(LpStatus::Unbounded);
        }
    }
    None
}

/// `tol = RAY_TOL·‖d‖∞` when the objective gain along `d` exceeds
/// `tol·‖g‖₁`, `g` the objective's coefficients, and `d ⪰ −tol`.
fn ray_tolerance(d: &[f64], gain: f64, g_norm1: f64) -> Option<f64> {
    (gain > 0.0)
        .then(|| RAY_TOL * ops::inf_norm(d))
        .filter(|&tol| gain > tol * g_norm1 && d.iter().all(|&v| v >= -tol))
}

/// The digital PDIP loop every software baseline runs: the residuals
/// `ρ = b − Ax − w` and `σ = c − Aᵀy + z`, computed once per iteration,
/// then the [`outcome`] exit tests on them, one [`Budget`] poll, the
/// Newton solve supplied by the caller (which reads the same residuals
/// and writes the directions), the [`ray_verdict`] certificate test on
/// the directions, and the Eqn 11 damped step. The residuals and
/// directions live in buffers kept for the whole solve. `directions`
/// returning `None` is a numerical breakdown, classified by
/// [`classify_breakdown`]. The Ω rule of [`PdipState::divergence`] stays
/// in the exit tests as the backstop for rays the direction test misses.
///
/// [`outcome`]: PdipState::outcome
pub(crate) fn newton_loop(
    lp: &LpProblem,
    opts: &PdipOptions,
    budget: Budget<'_>,
    mut directions: impl FnMut(&PdipState, &Residuals, &mut StepDirections) -> Option<()>,
) -> (LpSolution, Option<BudgetCause>) {
    let mut state = PdipState::new(lp);
    let mut res = Residuals::new(lp);
    let mut dirs = StepDirections::zeros(lp.num_vars(), lp.num_constraints());
    for iter in 0..opts.max_iterations {
        res.update(lp, &state);
        if let Some(status) = state.outcome(lp, opts, &res) {
            return (state.into_solution(lp, status, iter), None);
        }
        if let Some(cause) = budget.check(iter) {
            let sol = state.into_solution(lp, LpStatus::IterationLimit, iter);
            return (sol, Some(cause));
        }
        if directions(&state, &res, &mut dirs).is_none() {
            let status = classify_breakdown(&state);
            return (state.into_solution(lp, status, iter), None);
        }
        if let Some(status) = ray_verdict(lp, &res, &dirs) {
            return (state.into_solution(lp, status, iter), None);
        }
        let theta = state.step_length(&dirs, STEP_SAFETY);
        state.apply_step(&dirs, theta);
    }
    res.update(lp, &state);
    let status = state
        .outcome(lp, opts, &res)
        .unwrap_or(LpStatus::IterationLimit);
    (state.into_solution(lp, status, opts.max_iterations), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memlp_linalg::Matrix;

    fn sample() -> LpProblem {
        LpProblem::new(
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 1.0]]).unwrap(),
            vec![4.0, 6.0],
            vec![1.0, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn new_state_is_strictly_positive() {
        let lp = sample();
        let s = PdipState::new(&lp);
        assert!(s.x.iter().all(|&v| v > 0.0));
        assert!(s.w.iter().all(|&v| v > 0.0));
        assert_eq!(s.x.len(), 2);
        assert_eq!(s.y.len(), 2);
    }

    #[test]
    fn warm_start_is_strictly_positive_and_near_feasible() {
        let lp = sample();
        // Warm from the known optimum; slacks recomputed from the data.
        let s = PdipState::warm_start(&lp, &[1.6, 1.2], &[0.4, 0.2], 1e-2);
        for v in s.x.iter().chain(&s.w).chain(&s.y).chain(&s.z) {
            assert!(*v >= 1e-2);
        }
        // The recomputed slacks keep the primal residual at the floor scale.
        assert!(ops::inf_norm(&s.primal_residual(&lp)) <= 2e-2);
    }

    #[test]
    fn residuals_zero_at_feasible_points() {
        let lp = sample();
        let mut s = PdipState::new(&lp);
        // Force primal feasibility: x = (1,1), w = b − A·x = (1, 2).
        s.x = vec![1.0, 1.0];
        s.w = vec![1.0, 2.0];
        assert!(ops::inf_norm(&s.primal_residual(&lp)) < 1e-12);
        // Force dual feasibility: y = (1,1), z = Aᵀy − c = (3, 2).
        s.y = vec![1.0, 1.0];
        s.z = vec![3.0, 2.0];
        assert!(ops::inf_norm(&s.dual_residual(&lp)) < 1e-12);
    }

    /// A state with distinct, non-dyadic entries so every product rounds.
    fn probe_state(lp: &LpProblem) -> PdipState {
        let fill = |len: usize, shift: f64| -> Vec<f64> {
            (0..len).map(|k| (shift + k as f64).sqrt()).collect()
        };
        PdipState {
            x: fill(lp.num_vars(), 0.3),
            w: fill(lp.num_constraints(), 0.7),
            y: fill(lp.num_constraints(), 1.1),
            z: fill(lp.num_vars(), 0.2),
        }
    }

    /// The residuals and warm start as computed on the dense `lp.a()`.
    fn dense_reference(lp: &LpProblem, s: &PdipState) -> [Vec<f64>; 4] {
        let ax = lp.a().matvec(&s.x);
        let primal = (0..lp.num_constraints())
            .map(|i| lp.b()[i] - ax[i] - s.w[i])
            .collect();
        let aty = lp.a().matvec_transposed(&s.y);
        let dual = (0..lp.num_vars())
            .map(|j| lp.c()[j] - aty[j] + s.z[j])
            .collect();
        let floor = 1e-2;
        let x: Vec<f64> = s.x.iter().map(|&v| v.max(floor)).collect();
        let y: Vec<f64> = s.y.iter().map(|&v| v.max(floor)).collect();
        let ax = lp.a().matvec(&x);
        let warm_w = (0..lp.num_constraints())
            .map(|i| (lp.b()[i] - ax[i]).max(floor))
            .collect();
        let aty = lp.a().matvec_transposed(&y);
        let warm_z = (0..lp.num_vars())
            .map(|j| (aty[j] - lp.c()[j]).max(floor))
            .collect();
        [primal, dual, warm_w, warm_z]
    }

    fn csr_results(lp: &LpProblem, s: &PdipState) -> [Vec<f64>; 4] {
        let warm = PdipState::warm_start(lp, &s.x, &s.y, 1e-2);
        [s.primal_residual(lp), s.dual_residual(lp), warm.w, warm.z]
    }

    #[test]
    fn csr_residuals_match_dense_bitwise_on_paper_lps() {
        use memlp_lp::generator::RandomLp;
        let gen = RandomLp::paper(24, 7);
        for lp in [gen.feasible(), gen.infeasible()] {
            let s = probe_state(&lp);
            let bits =
                |vs: [Vec<f64>; 4]| vs.map(|v| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>());
            assert_eq!(bits(csr_results(&lp, &s)), bits(dense_reference(&lp, &s)));
        }
    }

    #[test]
    fn csr_residuals_match_dense_on_domain_lps() {
        use memlp_lp::domains::{
            max_flow_lp, transportation_lp, MaxFlowNetwork, TransportationProblem,
        };
        let lps = [
            transportation_lp(&TransportationProblem::random(4, 24, 1)).unwrap(),
            max_flow_lp(&MaxFlowNetwork::random_layered(3, 4, 1)).unwrap(),
        ];
        for lp in lps {
            let s = probe_state(&lp);
            let (got, want) = (csr_results(&lp, &s), dense_reference(&lp, &s));
            for (g, w) in got.iter().zip(&want) {
                let diff = g
                    .iter()
                    .zip(w)
                    .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
                assert!(diff <= 1e-12 * ops::inf_norm(w).max(1.0), "diff {diff:e}");
            }
        }
    }

    #[test]
    fn mu_follows_eqn8() {
        let lp = sample();
        let s = PdipState::new(&lp);
        // all ones: gap = n + m = 4, so µ = δ·4/4 = δ.
        assert!((s.mu() - DELTA).abs() < 1e-15);
    }

    #[test]
    fn step_length_full_when_directions_positive() {
        let lp = sample();
        let s = PdipState::new(&lp);
        let dirs = StepDirections {
            dx: vec![1.0, 1.0],
            dy: vec![0.5, 0.0],
            dw: vec![0.1, 0.1],
            dz: vec![0.0, 2.0],
        };
        assert_eq!(s.step_length(&dirs, STEP_SAFETY), 1.0);
    }

    #[test]
    fn step_length_blocks_at_boundary() {
        let lp = sample();
        let s = PdipState::new(&lp);
        // Δx = −2 on a variable at 1.0 → ratio 2 → θ = r/2.
        let dirs = StepDirections {
            dx: vec![-2.0, 0.0],
            dy: vec![0.0, 0.0],
            dw: vec![0.0, 0.0],
            dz: vec![0.0, 0.0],
        };
        let theta = s.step_length(&dirs, STEP_SAFETY);
        assert!((theta - STEP_SAFETY / 2.0).abs() < 1e-12);
        // Applying it keeps positivity.
        let mut s2 = s.clone();
        s2.apply_step(&dirs, theta);
        assert!(s2.x[0] > 0.0);
    }

    #[test]
    fn step_length_matches_the_branchy_loop_bitwise() {
        // The loop `step_length` replaced: divide only where Δv < 0.
        fn branchy(s: &PdipState, d: &StepDirections, safety: f64) -> f64 {
            let mut max_ratio = 0.0f64;
            for (v, dv) in
                s.x.iter()
                    .zip(&d.dx)
                    .chain(s.y.iter().zip(&d.dy))
                    .chain(s.w.iter().zip(&d.dw))
                    .chain(s.z.iter().zip(&d.dz))
            {
                if *dv < 0.0 {
                    max_ratio = max_ratio.max(-dv / v.max(f64::MIN_POSITIVE));
                }
            }
            if max_ratio <= 0.0 {
                return 1.0;
            }
            (safety / max_ratio).min(1.0)
        }
        let pool = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.37,
            -2.5e-3,
            -7.0e5,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1e-300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let pick = |len: usize, seed: usize| -> Vec<f64> {
            (0..len)
                .map(|k| pool[(seed + 7 * k + k * k / 3) % pool.len()])
                .collect()
        };
        for (n, m) in [(1, 1), (2, 3), (5, 4), (9, 6), (13, 11)] {
            for seed in 0..40 {
                let s = PdipState {
                    x: pick(n, seed),
                    w: pick(m, seed + 1),
                    y: pick(m, seed + 2),
                    z: pick(n, seed + 3),
                };
                let d = StepDirections {
                    dx: pick(n, 3 * seed + 5),
                    dy: pick(m, 5 * seed + 1),
                    dw: pick(m, 2 * seed + 9),
                    dz: pick(n, seed + 11),
                };
                for safety in [STEP_SAFETY, 1.0] {
                    assert_eq!(
                        s.step_length(&d, safety).to_bits(),
                        branchy(&s, &d, safety).to_bits(),
                        "n {n} m {m} seed {seed}"
                    );
                }
            }
        }
    }

    fn outcome(s: &PdipState, lp: &LpProblem, opts: &PdipOptions) -> Option<LpStatus> {
        let mut res = Residuals::new(lp);
        res.update(lp, s);
        s.outcome(lp, opts, &res)
    }

    #[test]
    fn outcome_detects_divergence() {
        let lp = sample();
        let opts = PdipOptions::default();
        let mut s = PdipState::new(&lp);
        s.y[0] = 10.0 * DIVERGENCE_BOUND;
        assert_eq!(outcome(&s, &lp, &opts), Some(LpStatus::Infeasible));
        let mut s = PdipState::new(&lp);
        s.x[0] = 10.0 * DIVERGENCE_BOUND;
        assert_eq!(outcome(&s, &lp, &opts), Some(LpStatus::Unbounded));
    }

    #[test]
    fn divergence_checks_finiteness_then_duals_then_primals() {
        let lp = sample();
        let s = PdipState::new(&lp);
        assert_eq!(s.divergence(), None);
        let mut both = s.clone();
        both.x[0] = 10.0 * DIVERGENCE_BOUND;
        both.y[0] = 10.0 * DIVERGENCE_BOUND;
        assert_eq!(both.divergence(), Some(LpStatus::Infeasible));
        both.x[1] = f64::INFINITY;
        assert_eq!(both.divergence(), Some(LpStatus::NumericalFailure));
        // The slacks are not part of the rule.
        let mut slack = s;
        slack.w[0] = f64::NAN;
        assert_eq!(slack.divergence(), None);
    }

    #[test]
    fn outcome_detects_nan() {
        let lp = sample();
        let opts = PdipOptions::default();
        let mut s = PdipState::new(&lp);
        s.z[1] = f64::NAN;
        assert_eq!(outcome(&s, &lp, &opts), Some(LpStatus::NumericalFailure));
    }

    #[test]
    fn outcome_converged_at_optimum() {
        let lp = sample();
        let opts = PdipOptions::default();
        // Optimum of the sample LP: x = (8/5, 6/5), obj = 14/5.
        // Duals: y from Aᵀy = c → y = (2/5, 1/5).
        let mut s = PdipState::new(&lp);
        s.x = vec![1.6, 1.2];
        s.w = vec![1e-12, 1e-12];
        s.y = vec![0.4, 0.2];
        s.z = vec![1e-12, 1e-12];
        assert_eq!(outcome(&s, &lp, &opts), Some(LpStatus::Optimal));
    }

    #[test]
    fn ray_verdict_reads_certificates() {
        let lp = |rows: &[&[f64]], b: Vec<f64>, c: Vec<f64>| {
            LpProblem::new(Matrix::from_rows(rows).unwrap(), b, c).unwrap()
        };
        let verdict = |lp: &LpProblem, dx: Vec<f64>, dy: Vec<f64>| {
            let (n, m) = (dx.len(), dy.len());
            let dirs = StepDirections {
                dx,
                dy,
                dw: vec![0.0; m],
                dz: vec![0.0; n],
            };
            ray_verdict(lp, &Residuals::new(lp), &dirs)
        };
        // x₁ − x₂ ≥ −1 leaves x₁ free to grow: d = (1, 0) is a primal ray.
        let unbounded = lp(&[&[-1.0, 1.0]], vec![1.0], vec![1.0, 0.0]);
        assert_eq!(
            verdict(&unbounded, vec![1.0, 0.0], vec![0.0]),
            Some(LpStatus::Unbounded)
        );
        // The same direction with a component below −tol is no ray.
        assert_eq!(verdict(&unbounded, vec![1.0, -1e-6], vec![0.0]), None);
        // x ≤ 1 and x ≥ 2: y = (1, 1) is a Farkas ray.
        let infeasible = lp(&[&[1.0], &[-1.0]], vec![1.0, -2.0], vec![1.0]);
        assert_eq!(
            verdict(&infeasible, vec![0.0], vec![1.0, 1.0]),
            Some(LpStatus::Infeasible)
        );
        // x ≤ 1 and x ≥ 1 is feasible: bᵀy = −1e-12 along y ≈ (1, 1) is
        // rounding, not a certificate.
        let tight = lp(&[&[1.0], &[-1.0]], vec![1.0, -1.0], vec![1.0]);
        assert_eq!(verdict(&tight, vec![0.0], vec![1.0, 1.0 + 1e-12]), None);
    }

    #[test]
    fn into_solution_carries_state() {
        let lp = sample();
        let s = PdipState::new(&lp);
        let sol = s.into_solution(&lp, LpStatus::IterationLimit, 42);
        assert_eq!(sol.iterations, 42);
        assert_eq!(sol.x.len(), 2);
        assert_eq!(sol.y.len(), 2);
        assert!((sol.objective - 2.0).abs() < 1e-12); // cᵀ(1,1)
    }
}
