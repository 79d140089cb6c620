//! Crossbar-native PDHG: the first-order backend on analog hardware.
//!
//! Where Algorithm 1 rewrites the iterate-dependent diagonals of a Newton
//! system and performs one analog *solve* per iteration, PDHG needs only
//! one MVM with `A` and one with `Aᵀ` — operations the crossbar performs
//! in O(1) with **no per-iteration writes at all**: the §3.2 sign-split
//! blocks `A′`/`A″` are programmed once at setup and never touched again.
//! That makes the first-order backend the cheapest possible use of the
//! array (zero update-write energy, MVM-only run phase) and the only
//! analog path whose digital controller state stays O(n + m) — past the
//! dense-core allocation wall this is the path that still fits.
//!
//! **The transposed MVM costs no second array program.** The same
//! physical arrays that compute `A′x`/`A″p` are driven from the word-line
//! side to compute `A′ᵀy`/`A″ᵀy` — at the device level this is
//! [`memlp_crossbar::Crossbar::mvm_transposed`] and its NoC-tiled
//! counterpart [`TiledCrossbar::mvm_transposed`], which ship each tile's
//! bit-line read-back through the same fan-in fabric as the forward
//! product. Here the realized blocks returned by
//! [`HwContext::write_matrix`] model exactly that: one write, two drive
//! directions. The compensation columns fold the transpose of the
//! sign-split back together: `Aᵀy = A′ᵀy` with
//! `(Aᵀy)[comp_cols[r]] −= (A″ᵀy)[r]`.
//!
//! The iteration itself is [`memlp_solvers::pdhg::solve_with_operator`] —
//! bit-for-bit the same restarted, adaptively-weighted loop as the
//! digital path; only the operator differs. Retry, recovery-ladder, and
//! budget semantics come from the ladder shared with [`CrossbarPdipSolver`]
//! (`recovery::Ladder`).
//!
//! [`CrossbarPdipSolver`]: crate::CrossbarPdipSolver
//! [`TiledCrossbar::mvm_transposed`]: memlp_noc::TiledCrossbar::mvm_transposed

use memlp_crossbar::{CrossbarConfig, Phase, TiledMatrix};
use memlp_linalg::{kernels, norm_est};
use memlp_lp::{Equilibration, LpProblem, LpSolution, LpStatus};
use memlp_solvers::budget::Budget;
use memlp_solvers::pdhg::{self, PdhgOperator, PdhgOptions, PdhgStats};
use memlp_solvers::pdip::CoreSolveError;

use crate::hw::{HwContext, ANALOG_TILE_SIDE};
use crate::recovery::{Attempt, Ladder, RecoveryPolicy};
use crate::solver::{functional_only, CrossbarSolution, CrossbarSolver};
use crate::trace::IterationRecord;
use crate::transform::SignSplit;

/// Stable block keys for the PDHG arrays. Disjoint from the Newton-system
/// keys (0..=17) and the Algorithm 2 keys (0..=19) so a warm serving
/// context can host either solver family without fault-plan collisions.
mod key {
    pub const POS: u32 = 32;
    pub const NEG: u32 = 33;
}

/// The §3.2 relaxed feasibility parameter `α`: a converged iterate must
/// satisfy `A·x ⪯ α·b` on the *true* problem or the attempt is re-run with
/// fresh variation. Wider than Algorithm 1's because first-order iterates
/// converge **onto** the boundary of the realized polytope — an
/// interior-point iterate approaches from inside and keeps a natural
/// margin, but a PDHG solution's active rows sit at `Ãx = b` exactly, so
/// the true-`A` margin must absorb the whole realized-vs-true deviation
/// (process variation plus the converter floor).
const ALPHA: f64 = 1.1;

/// Re-solve attempts on failure (§4.3 double checking — each retry
/// rewrites the arrays, redrawing variation).
const RETRIES: usize = 2;

/// Options for the crossbar PDHG solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarPdhgOptions {
    /// First-order loop options. Exit tolerances default looser than the
    /// digital baselines: the 8-bit analog I/O sets a noise floor well
    /// above 1e-8, exactly as for the crossbar PDIP solvers.
    pub pdhg: PdhgOptions,
    /// How far the solver may escalate when write–verify reports defects.
    pub recovery: RecoveryPolicy,
}

impl Default for CrossbarPdhgOptions {
    fn default() -> Self {
        CrossbarPdhgOptions {
            pdhg: PdhgOptions {
                eps_primal: 2e-2,
                // The dual tolerance sits above the others: every drive
                // quantizes the dual vector through the 8-bit DAC, and
                // that per-entry error enters `Aᵀy` with gain ~‖A‖ —
                // for unit-cost problems (cnorm ≈ 2, column sums ~4,
                // dual range ~6) the floor is ≈ 4·6/2⁹ ≈ 5e-2. Asking
                // for less leaves the dual iterate random-walking in a
                // quantization band it can never exit.
                eps_dual: 6e-2,
                eps_gap: 8e-3,
                max_iterations: 50_000,
                ..PdhgOptions::default()
            },
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// The analog [`PdhgOperator`]: sign-split blocks programmed once, every
/// `apply`/`apply_transposed` a quantized crossbar drive against the
/// realized matrices, charged to the context's ledger.
struct AnalogSplitOperator<'hw> {
    hw: &'hw mut HwContext,
    /// Realized `A′` (m×n, ⪰ 0) with the occupancy of the planned split.
    pos: TiledMatrix,
    /// Realized `A″` (m×k, ⪰ 0); zero columns when `A ⪰ 0`.
    neg: TiledMatrix,
    /// Source column of each compensation column.
    comp_cols: Vec<usize>,
    mvms: u64,
}

impl<'hw> AnalogSplitOperator<'hw> {
    /// Programs the sign-split blocks (setup phase) on `hw`, tiled at the
    /// NoC sub-array granularity so planned-zero tiles are elided when the
    /// configuration asks for it.
    fn program(lp: &LpProblem, hw: &'hw mut HwContext) -> Self {
        let split = SignSplit::split(lp.a());
        let pos = hw.write_matrix_tiled(key::POS, &split.pos, ANALOG_TILE_SIDE, Phase::Setup);
        let neg = if split.num_compensations() > 0 {
            hw.write_matrix_tiled(key::NEG, &split.neg, ANALOG_TILE_SIDE, Phase::Setup)
        } else {
            TiledMatrix::new(
                &split.neg,
                split.neg.clone(),
                ANALOG_TILE_SIDE,
                hw.config().tile_elision,
            )
        };
        AnalogSplitOperator {
            hw,
            pos,
            neg,
            comp_cols: split.comp_cols,
            mvms: 0,
        }
    }

    fn charge(&mut self, inputs: usize, outputs: usize) {
        let planes = [&self.pos, &self.neg];
        self.hw
            .charge_analog_tiled(false, inputs, outputs, 0, &planes);
        self.mvms += 1;
    }

    /// Deterministic power iteration `v ← AᵀAv` driven through the
    /// programmed arrays themselves.
    ///
    /// Variation skews the realized matrices, so the realized operator
    /// norm can exceed the ideal ‖A‖ that digital preprocessing measured
    /// — and PDHG's contraction needs `τσ‖A‖² ≤ 1 `for the operator it
    /// actually drives. Stepping from the ideal norm alone leaves the
    /// iteration without that margin on unlucky draws: it settles into a
    /// limit cycle with residuals parked just above tolerance. A handful
    /// of MVM pairs (charged to the ledger like any other drive)
    /// recovers the realized norm; `floor` — the digital estimate —
    /// guards the noisy low side and [`REALIZED_NORM_MARGIN`] covers
    /// truncation plus readout quantization on the high side.
    fn realized_norm(&mut self, floor: f64) -> f64 {
        let n = self.cols();
        let mut v = vec![1.0 / (n as f64).sqrt().max(1.0); n];
        let mut sigma = 0.0f64;
        for _ in 0..NORM_POWER_ITERS {
            let av = self.apply(&v);
            let atav = self.apply_transposed(&av);
            let norm = atav.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm <= 0.0 {
                break;
            }
            sigma = norm.sqrt();
            for (vi, ai) in v.iter_mut().zip(&atav) {
                *vi = ai / norm;
            }
        }
        (sigma * REALIZED_NORM_MARGIN).max(floor)
    }

    /// Noise-free products `Ãx` and `Ãᵀy` against the realized blocks —
    /// the controller's read-verify view of the programmed state, with
    /// no DAC/ADC quantization, no read noise, and no ledger charge
    /// (write-verify already read these conductances back).
    fn realized_products(&self, x: &[f64], y: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut ax = self.pos.matvec(x);
        let mut aty = self.pos.matvec_transposed(y);
        if !self.comp_cols.is_empty() {
            let p: Vec<f64> = self.comp_cols.iter().map(|&j| -x[j]).collect();
            let extra = self.neg.matvec(&p);
            for (axi, e) in ax.iter_mut().zip(&extra) {
                *axi += e;
            }
            let extra_t = self.neg.matvec_transposed(y);
            for (r, &j) in self.comp_cols.iter().enumerate() {
                aty[j] -= extra_t[r];
            }
        }
        (ax, aty)
    }

    /// Folds the compensation plane into a forward product: drives `A″`
    /// with `p = −xq[comp_cols]` and accumulates into `y`. The rail
    /// vector and the plane's read-back live in one thread-local pack
    /// buffer, so the per-MVM compensation costs no allocation.
    fn add_compensation_forward(&self, xq: &[f64], y: &mut [f64]) {
        let k = self.comp_cols.len();
        let m = self.neg.realized().rows();
        kernels::with_pack_buffer(k + m, |buf| {
            let (p, extra) = buf.split_at_mut(k);
            for (pi, &j) in p.iter_mut().zip(&self.comp_cols) {
                *pi = -xq[j];
            }
            self.neg.matvec_into(p, extra);
            for (yi, e) in y.iter_mut().zip(extra.iter()) {
                *yi += e;
            }
        });
    }

    /// Transposed counterpart: subtracts `A″ᵀ·yq` from the source columns
    /// of `x`, through the same thread-local scratch.
    fn sub_compensation_transposed(&self, yq: &[f64], x: &mut [f64]) {
        let k = self.comp_cols.len();
        kernels::with_pack_buffer(k, |extra| {
            self.neg.matvec_transposed_into(yq, extra);
            for (r, &j) in self.comp_cols.iter().enumerate() {
                x[j] -= extra[r];
            }
        });
    }
}

/// Power-iteration rounds for the realized-norm estimate; `AᵀA` squares
/// the spectral gap, so a dozen rounds resolve `σ_max` to well under the
/// safety margin on LP constraint matrices.
const NORM_POWER_ITERS: usize = 12;

/// Head-room multiplied onto the realized-norm estimate: covers the
/// truncated power iteration plus ADC/DAC quantization of the probe
/// drives.
const REALIZED_NORM_MARGIN: f64 = 1.05;

impl PdhgOperator for AnalogSplitOperator<'_> {
    fn rows(&self) -> usize {
        self.pos.realized().rows()
    }

    fn cols(&self) -> usize {
        self.pos.realized().cols()
    }

    /// `A·x` on the array: bit lines driven with the DAC-quantized `x`
    /// (compensation rails carry `p = −x[comp_cols]`), word-line currents
    /// ADC-quantized on read-back.
    ///
    /// memlp-lint: analog_source
    fn apply(&mut self, x: &[f64]) -> Vec<f64> {
        let xq = self.hw.dac(x);
        let mut y = self.pos.matvec(&xq);
        if !self.comp_cols.is_empty() {
            self.add_compensation_forward(&xq, &mut y);
        }
        self.charge(self.cols(), self.rows());
        self.hw.adc(&y)
    }

    /// `Aᵀ·y` on the **same** arrays, word-line driven (the NoC tile
    /// transpose): no second array program exists or is needed. The
    /// compensation correction folds `A″ᵀy` back into the source columns.
    ///
    /// memlp-lint: analog_source
    fn apply_transposed(&mut self, y: &[f64]) -> Vec<f64> {
        let yq = self.hw.dac(y);
        let mut x = self.pos.matvec_transposed(&yq);
        if !self.comp_cols.is_empty() {
            self.sub_compensation_transposed(&yq, &mut x);
        }
        self.charge(self.rows(), self.cols());
        self.hw.adc(&x)
    }

    fn mvms(&self) -> u64 {
        self.mvms
    }
}

/// The crossbar-native PDHG solver: matrix-free first-order solves with
/// analog MVMs, sharing the retry/recovery/budget substrate with
/// [`CrossbarPdipSolver`](crate::CrossbarPdipSolver) and the iteration
/// loop with the digital [`memlp_solvers::PdhgSolver`].
///
/// # Example
///
/// ```
/// use memlp_core::{CrossbarPdhgOptions, CrossbarPdhgSolver};
/// use memlp_crossbar::CrossbarConfig;
/// use memlp_lp::{generator::RandomLp, LpStatus};
///
/// let lp = RandomLp::paper(12, 3).feasible();
/// let solver = CrossbarPdhgSolver::new(
///     CrossbarConfig::paper_default(),
///     CrossbarPdhgOptions::default(),
/// );
/// let result = solver.solve(&lp);
/// assert_eq!(result.solution.status, LpStatus::Optimal);
/// ```
#[derive(Debug, Clone)]
pub struct CrossbarPdhgSolver {
    config: CrossbarConfig,
    options: CrossbarPdhgOptions,
}

impl CrossbarSolver for CrossbarPdhgSolver {
    fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// The first-order backend is matrix-free — it has no dense core to
    /// refuse, so every well-formed problem is admitted unless the
    /// configuration asks for circuit fidelity.
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
            alpha_check_always: true,
            keep_best: false,
            classify_accepted: false,
        };
        // Row equilibration (when enabled) happens *before* the arrays
        // are programmed: the crossbar maps every coefficient onto one
        // shared conductance range, so balancing row maxima is worth
        // conductance resolution on hardware, not just iteration count.
        // Duals are unscaled (and residuals rescored against the original
        // problem) on the way out; equilibration failure falls back to
        // the unscaled problem.
        let (wlp, eq): (LpProblem, Option<Equilibration>) = if self.options.pdhg.equilibrate {
            match memlp_lp::equilibrate(lp) {
                Ok((scaled, eq)) => (scaled, Some(eq)),
                Err(_) => (lp.clone(), None),
            }
        } else {
            (lp.clone(), None)
        };
        // Warm duals ride into the scaled space (`y_scaled = y·s`).
        let warm_scaled: Option<(Vec<f64>, Vec<f64>)> = warm.map(|(x0, y0)| {
            let ys = match &eq {
                Some(e) => pdhg::scale_duals(y0, &e.row_scales),
                None => y0.to_vec(),
            };
            (x0.to_vec(), ys)
        });
        // Digital preprocessing on the (scaled) true A gives the floor;
        // each attempt then refines it through the programmed arrays (see
        // `realized_norm`), because the variation-skewed operator the
        // loop drives can have a larger norm than the ideal matrix.
        let a = wlp.sparse_a();
        let est = norm_est::spectral_norm(a);
        let sigma_floor = est.safe_sigma(norm_est::upper_bound(a));
        ladder.run(
            lp,
            hw,
            reuse_salt,
            |hw, k| {
                let init = if k == 0 {
                    warm_scaled
                        .as_ref()
                        .map(|(x0, y0)| (x0.as_slice(), y0.as_slice()))
                } else {
                    None
                };
                Some(self.attempt(lp, &wlp, eq.as_ref(), hw, budget, init, sigma_floor))
            },
            |solution| self.classify_exhausted(lp, solution),
        )
    }
}

impl CrossbarPdhgSolver {
    /// Creates a solver over the given hardware configuration.
    pub fn new(config: CrossbarConfig, options: CrossbarPdhgOptions) -> Self {
        CrossbarPdhgSolver { config, options }
    }

    /// The solver options.
    pub fn options(&self) -> &CrossbarPdhgOptions {
        &self.options
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

    /// One solve attempt: program the sign-split arrays, run the PDHG
    /// loop on them, and bring the result back to the caller's space.
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        &self,
        lp: &LpProblem,
        wlp: &LpProblem,
        eq: Option<&Equilibration>,
        hw: &mut HwContext,
        budget: Budget<'_>,
        init: Option<(&[f64], &[f64])>,
        sigma_floor: f64,
    ) -> Attempt {
        let mut op = AnalogSplitOperator::program(wlp, hw);
        let sigma = op.realized_norm(sigma_floor);
        let mut outcome =
            pdhg::solve_with_operator(wlp, &mut op, sigma, &self.options.pdhg, budget, init);
        // The loop terminates on residuals estimated through the
        // array readout, and readout noise puts a floor under the
        // measured dual residual — a run that exhausts its iterations
        // may already hold a converged iterate it cannot see. The
        // arbiter is a noise-free check against the *realized* blocks
        // (converged-on-realized is what "optimal" means on analog
        // hardware; the α-test below still guards true-problem
        // feasibility, exactly as for the PDIP solvers).
        if outcome.cause.is_none() && outcome.solution.status == LpStatus::IterationLimit {
            let s = &mut outcome.solution;
            let (ax, aty) = op.realized_products(&s.x, &s.y);
            let (pr, dr, gap) = pdhg::kkt_with_products(wlp, &s.x, &s.y, &ax, &aty);
            let o = &self.options.pdhg;
            if pr <= o.eps_primal && dr <= o.eps_dual && gap <= o.eps_gap {
                s.status = LpStatus::Optimal;
                s.primal_residual = pr;
                s.dual_residual = dr;
                s.duality_gap = gap;
            }
        }
        drop(op);
        // Back to the caller's space: unscale duals and rescore the
        // residual fields against the original problem (the digital
        // recomputation `solve_with_operator` itself performs, just
        // against `lp` instead of the scaled copy).
        if let Some(e) = eq {
            outcome.solution.y = e.unscale_duals(&outcome.solution.y);
            pdhg::rescore(lp, &mut outcome.solution);
        }
        (
            outcome.solution,
            trace_from_stats(&outcome.stats),
            outcome.cause,
        )
    }

    /// Exhaustion rule: an α-violating "Optimal" (one that failed the α
    /// check on every attempt) is demoted before the fallback decision.
    fn classify_exhausted(&self, lp: &LpProblem, solution: &mut LpSolution) {
        if solution.status == LpStatus::Optimal && !lp.satisfies_relaxed_scaled(&solution.x, ALPHA)
        {
            solution.status = LpStatus::NumericalFailure;
        }
    }
}

/// Mirrors the PDHG checkpoint samples into the workspace's common trace
/// format: first-order methods have no barrier parameter or step length,
/// so `mu`/`theta` are 0 and the KKT residuals fill the residual fields.
fn trace_from_stats(stats: &PdhgStats) -> Vec<IterationRecord> {
    stats
        .samples
        .iter()
        .map(|s| IterationRecord {
            mu: 0.0,
            gap: s.gap,
            primal_residual: s.primal,
            dual_residual: s.dual,
            theta: 0.0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use memlp_lp::generator::RandomLp;
    use memlp_solvers::pdhg::PdhgSolver;
    use memlp_solvers::LpSolver;

    fn solver(var_pct: f64, seed: u64) -> CrossbarPdhgSolver {
        CrossbarPdhgSolver::new(
            CrossbarConfig::paper_default()
                .with_variation(var_pct)
                .with_seed(seed),
            CrossbarPdhgOptions::default(),
        )
    }

    #[test]
    fn preflight_refuses_circuit_fidelity() {
        let lp = RandomLp::paper(12, 1).feasible();
        let circuit = CrossbarPdhgSolver::new(
            CrossbarConfig::paper_default().circuit(),
            CrossbarPdhgOptions::default(),
        );
        assert_eq!(circuit.preflight(&lp), Err(CoreSolveError::CircuitFidelity));
        assert!(solver(0.0, 1).preflight(&lp).is_ok());
    }

    #[test]
    fn solves_small_ideal() {
        let lp = RandomLp::paper(12, 1).feasible();
        let res = solver(0.0, 1).solve(&lp);
        assert_eq!(res.solution.status, LpStatus::Optimal, "{}", res.solution);
        let reference = PdhgSolver::default().solve(&lp);
        let rel = (res.solution.objective - reference.objective).abs()
            / (1.0 + reference.objective.abs());
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn analog_and_digital_agree_on_verdicts() {
        for seed in [3u64, 7, 21] {
            let lp = RandomLp::paper(16, seed).feasible();
            let analog = solver(5.0, seed).solve(&lp);
            let digital = PdhgSolver::default().solve(&lp);
            assert_eq!(analog.solution.status, digital.status, "seed {seed}");
        }
    }

    #[test]
    fn run_phase_is_write_free() {
        let lp = RandomLp::paper(12, 5).feasible();
        let res = solver(0.0, 2).solve(&lp);
        assert_eq!(res.solution.status, LpStatus::Optimal);
        let counts = res.ledger.counts();
        // The first-order backend programs at setup and never updates:
        // zero run-phase writes, MVMs dominating the operation mix.
        assert_eq!(counts.update_writes, 0, "PDHG must not rewrite cells");
        assert_eq!(counts.solve_ops, 0, "PDHG performs no analog solves");
        assert!(counts.mvm_ops >= 2, "forward + transposed MVMs expected");
        assert!(counts.setup_writes > 0);
    }

    #[test]
    fn budget_degrades_with_best_iterate() {
        use memlp_solvers::{Budget, BudgetCause};
        let lp = RandomLp::paper(16, 2).feasible();
        let s = solver(0.0, 3);
        let full = s.solve(&lp);
        assert!(full.degraded.is_none());
        let capped = s.solve_budgeted(&lp, Budget::none().with_max_iters(4));
        assert_eq!(capped.degraded, Some(BudgetCause::MaxIters));
        assert_eq!(capped.solution.status, LpStatus::IterationLimit);
        assert_eq!(capped.solution.x.len(), lp.num_vars());
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
        let warm = s.solve_on(
            &lp,
            &mut hw,
            Budget::none(),
            Some((&cold.solution.x, &cold.solution.y)),
            Some(1),
        );
        assert_eq!(warm.solution.status, LpStatus::Optimal, "{}", warm.solution);
        let after_warm = warm.ledger.counts();
        // Static blocks repeat byte-identically: every setup write of the
        // warm pass is skipped by delta programming.
        assert!(
            after_warm.skipped_writes > after_cold.skipped_writes,
            "warm repeat must skip unchanged cells: {} -> {}",
            after_cold.skipped_writes,
            after_warm.skipped_writes
        );
    }

    #[test]
    fn elision_is_bitwise_invisible_on_fault_free_domains() {
        use memlp_linalg::Matrix;
        // Block-sparse constraint matrix spanning a 2×2 tile grid at the
        // analog tile side, with the (1, 1) block planned dead.
        let m = 192;
        let n = 200;
        let a = Matrix::from_fn(m, n, |i, j| {
            let live = i < 128 || j < 128;
            if live {
                0.05 + ((i * 13 + j * 7) % 41) as f64 * 0.02
            } else {
                0.0
            }
        });
        let ones = vec![1.0; n];
        let b: Vec<f64> = a.matvec(&ones).iter().map(|v| v * 1.2 + 1.0).collect();
        let lp = memlp_lp::LpProblem::new(a, b, vec![1.0; n]).unwrap();
        let run = |elide: bool| {
            let cfg = CrossbarConfig::paper_default()
                .with_variation(5.0)
                .with_seed(9)
                .with_tile_elision(elide);
            let opts = CrossbarPdhgOptions {
                pdhg: PdhgOptions {
                    max_iterations: 600,
                    ..CrossbarPdhgOptions::default().pdhg
                },
                ..CrossbarPdhgOptions::default()
            };
            CrossbarPdhgSolver::new(cfg, opts).solve(&lp)
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.solution.status, off.solution.status);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&on.solution.x), bits(&off.solution.x));
        assert_eq!(bits(&on.solution.y), bits(&off.solution.y));
        // Only the cost model sees the elision.
        let (con, coff) = (on.ledger.counts(), off.ledger.counts());
        assert!(con.tiles_elided > 0, "dead tile must be elided");
        assert_eq!(coff.tiles_elided, 0);
        assert!(
            con.setup_writes < coff.setup_writes,
            "the tile sweep charges every fabricated cell, so eliding dead \
             tiles must shed setup writes: {} vs {}",
            con.setup_writes,
            coff.setup_writes
        );
        assert_eq!(
            con.setup_writes + con.elided_writes,
            coff.setup_writes + coff.elided_writes,
            "charged + elided must reconstruct the full-grid sweep"
        );
        assert!(
            con.noc_transfers < coff.noc_transfers,
            "live-tile scheduling must shed fabric traffic: {} vs {}",
            con.noc_transfers,
            coff.noc_transfers
        );
        assert!(on.ledger.run_time_s() < off.ledger.run_time_s());
    }

    #[test]
    fn trace_mirrors_checkpoints() {
        let lp = RandomLp::paper(12, 8).feasible();
        let res = solver(0.0, 11).solve(&lp);
        assert!(!res.trace.is_empty());
        let last = res.trace.last().unwrap();
        assert!(last.primal_residual <= 2e-2 + 1e-12);
        assert!(res.trace.iter().all(|r| r.mu == 0.0));
    }
}
