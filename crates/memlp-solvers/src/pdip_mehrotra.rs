use memlp_lp::{LpProblem, LpSolution};

use crate::budget::{Budget, BudgetCause};
use crate::pdip::{newton_loop, PdipOptions, PdipState, Residuals, StepDirections};
use crate::pdip_normal::NormalEqCore;
use crate::LpSolver;

/// Mehrotra's predictor–corrector PDIP — the algorithm behind essentially
/// every production interior-point LP code (and Matlab's `linprog`
/// interior-point mode).
///
/// Each iteration factors the reduced Newton system **once** and
/// back-solves it twice, on the same quasi-definite KKT LDLᵀ as
/// [`crate::NormalEqPdip`]:
///
/// 1. **predictor** (affine scaling, µ = 0) — measures how much progress a
///    pure Newton step on the complementarity conditions could make;
/// 2. **corrector** — re-centres with `σ = (µ_aff/µ)³` and compensates the
///    predictor's second-order error `ΔX_aff·ΔZ_aff·e`.
///
/// Compared with the single-step [`crate::NormalEqPdip`] it typically
/// converges in noticeably fewer iterations. It exists here as a baseline
/// extension: the paper's crossbar formulation maps the *plain* PDIP
/// iteration (Eqns 9–11), whose per-iteration structure is what the
/// hardware exploits.
///
/// # Example
///
/// ```
/// use memlp_lp::{generator::RandomLp, LpStatus};
/// use memlp_solvers::{LpSolver, MehrotraPdip};
///
/// let lp = RandomLp::paper(12, 5).feasible();
/// let sol = MehrotraPdip::default().solve(&lp);
/// assert_eq!(sol.status, LpStatus::Optimal);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MehrotraPdip {
    /// Iteration options (`delta` is unused — σ is chosen adaptively).
    pub options: PdipOptions,
}

impl MehrotraPdip {
    /// Creates the solver with explicit options.
    pub fn new(options: PdipOptions) -> Self {
        MehrotraPdip { options }
    }

    /// Back-solves the factored system for given complementarity targets,
    /// `Z·Δx + X·Δz = comp_xz` and `W·Δy + Y·Δw = comp_yw`, with the
    /// iterate's residuals `ρ = b − Ax − w` and `σ = c − Aᵀy + z`, into
    /// `dirs`. `None` on a failed solve or non-finite directions.
    fn directions(
        core: &mut NormalEqCore<'_>,
        s: &PdipState,
        res: &Residuals,
        comp_xz: &[f64],
        comp_yw: &[f64],
        dirs: &mut StepDirections,
    ) -> Option<()> {
        let (sigma_hat, rho_hat) = core.rhs_mut();
        for (((h, sigma), c), x) in sigma_hat.iter_mut().zip(&res.sigma).zip(comp_xz).zip(&s.x) {
            *h = sigma + c / x;
        }
        for (((h, rho), c), y) in rho_hat.iter_mut().zip(&res.rho).zip(comp_yw).zip(&s.y) {
            *h = rho - c / y;
        }
        core.solve(&mut dirs.dx, &mut dirs.dy)?;
        let mut finite = true;
        for ((((dz, c), z), x), dx) in dirs
            .dz
            .iter_mut()
            .zip(comp_xz)
            .zip(&s.z)
            .zip(&s.x)
            .zip(&dirs.dx)
        {
            *dz = (c - z * dx) / x;
            finite &= dz.is_finite() & dx.is_finite();
        }
        for ((((dw, c), w), y), dy) in dirs
            .dw
            .iter_mut()
            .zip(comp_yw)
            .zip(&s.w)
            .zip(&s.y)
            .zip(&dirs.dy)
        {
            *dw = (c - w * dy) / y;
            finite &= dw.is_finite() & dy.is_finite();
        }
        finite.then_some(())
    }

    /// One predictor–corrector Newton solve on the factored system:
    /// back-solve the affine predictor, then the re-centred corrector,
    /// into `dirs`. `None` on a failed solve or non-finite directions.
    fn step(
        core: &mut NormalEqCore<'_>,
        state: &PdipState,
        res: &Residuals,
        work: &mut Predictor,
        dirs: &mut StepDirections,
    ) -> Option<()> {
        let n = state.x.len();
        let m = state.y.len();
        let Predictor {
            comp_xz,
            comp_yw,
            aff,
        } = work;

        // Predictor: pure affine step (µ = 0).
        for ((c, x), z) in comp_xz.iter_mut().zip(&state.x).zip(&state.z) {
            *c = -x * z;
        }
        for ((c, y), w) in comp_yw.iter_mut().zip(&state.y).zip(&state.w) {
            *c = -y * w;
        }
        Self::directions(core, state, res, comp_xz, comp_yw, aff)?;
        let alpha_aff = state.step_length(aff, 1.0);

        // Adaptive centring: σ = (µ_aff / µ)³.
        let mu = res.gap / (n + m) as f64;
        let mut gap_aff = 0.0;
        for j in 0..n {
            gap_aff += (state.x[j] + alpha_aff * aff.dx[j]) * (state.z[j] + alpha_aff * aff.dz[j]);
        }
        for i in 0..m {
            gap_aff += (state.y[i] + alpha_aff * aff.dy[i]) * (state.w[i] + alpha_aff * aff.dw[i]);
        }
        let mu_aff = gap_aff / (n + m) as f64;
        let sigma_c = (mu_aff / mu.max(f64::MIN_POSITIVE)).clamp(0.0, 1.0).powi(3);

        // Corrector: recentre and cancel the predictor's second-order
        // complementarity error.
        for (j, c) in comp_xz.iter_mut().enumerate() {
            *c = sigma_c * mu - state.x[j] * state.z[j] - aff.dx[j] * aff.dz[j];
        }
        for (i, c) in comp_yw.iter_mut().enumerate() {
            *c = sigma_c * mu - state.y[i] * state.w[i] - aff.dy[i] * aff.dw[i];
        }
        Self::directions(core, state, res, comp_xz, comp_yw, dirs)
    }
}

/// The predictor's buffers, kept for a whole solve: the complementarity
/// targets and the affine directions.
struct Predictor {
    comp_xz: Vec<f64>,
    comp_yw: Vec<f64>,
    aff: StepDirections,
}

impl Predictor {
    fn new(n: usize, m: usize) -> Self {
        Predictor {
            comp_xz: vec![0.0; n],
            comp_yw: vec![0.0; m],
            aff: StepDirections::zeros(n, m),
        }
    }
}

impl LpSolver for MehrotraPdip {
    fn solve_budgeted(
        &self,
        lp: &LpProblem,
        budget: Budget<'_>,
    ) -> (LpSolution, Option<BudgetCause>) {
        let mut core = NormalEqCore::new(lp);
        let mut work = Predictor::new(lp.num_vars(), lp.num_constraints());
        newton_loop(lp, &self.options, budget, |state, res, dirs| {
            core.step(state, dirs, |core, dirs| {
                Self::step(core, state, res, &mut work, dirs)
            })
        })
    }

    fn name(&self) -> &'static str {
        "pdip-mehrotra"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NormalEqPdip;
    use memlp_linalg::Matrix;
    use memlp_lp::generator::RandomLp;
    use memlp_lp::LpStatus;

    #[test]
    fn solves_known_2x2() {
        let lp = LpProblem::new(
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 1.0]]).unwrap(),
            vec![4.0, 6.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        let sol = MehrotraPdip::default().solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 2.8).abs() < 1e-6);
    }

    #[test]
    fn agrees_with_single_step_pdip() {
        for seed in 0..6 {
            let lp = RandomLp::paper(30, 400 + seed).feasible();
            let a = MehrotraPdip::default().solve(&lp);
            let b = NormalEqPdip::default().solve(&lp);
            assert_eq!(a.status, LpStatus::Optimal, "seed {seed}");
            assert_eq!(b.status, LpStatus::Optimal, "seed {seed}");
            let rel = (a.objective - b.objective).abs() / (1.0 + b.objective.abs());
            assert!(
                rel < 1e-6,
                "seed {seed}: {} vs {}",
                a.objective,
                b.objective
            );
        }
    }

    #[test]
    fn needs_fewer_iterations_than_single_step() {
        let mut wins = 0;
        let total = 6;
        for seed in 0..total {
            let lp = RandomLp::paper(60, 500 + seed).feasible();
            let a = MehrotraPdip::default().solve(&lp);
            let b = NormalEqPdip::default().solve(&lp);
            assert!(
                a.status.is_optimal() && b.status.is_optimal(),
                "seed {seed}"
            );
            if a.iterations < b.iterations {
                wins += 1;
            }
        }
        assert!(
            wins >= total - 1,
            "Mehrotra won only {wins}/{total} iteration races"
        );
    }

    #[test]
    fn detects_infeasible_and_unbounded() {
        let inf = RandomLp::paper(16, 21).infeasible();
        assert_eq!(
            MehrotraPdip::default().solve(&inf).status,
            LpStatus::Infeasible
        );
        let unb = RandomLp::paper(16, 21).unbounded();
        assert_eq!(
            MehrotraPdip::default().solve(&unb).status,
            LpStatus::Unbounded
        );
    }

    #[test]
    fn residuals_tight_at_optimum() {
        let lp = RandomLp::paper(40, 23).feasible();
        let sol = MehrotraPdip::default().solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(sol.primal_residual < 1e-6);
        assert!(sol.dual_residual < 1e-6);
    }
}
