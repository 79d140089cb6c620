use memlp_linalg::{ops, LuFactors};
use memlp_lp::{LpProblem, LpSolution};

use crate::budget::{Budget, BudgetCause};
use crate::pdip::{newton_loop, PdipOptions, PdipState, StepDirections};
use crate::LpSolver;

/// Mehrotra's predictor–corrector PDIP — the algorithm behind essentially
/// every production interior-point LP code (and Matlab's `linprog`
/// interior-point mode).
///
/// Each iteration factors the normal matrix **once** and back-solves twice:
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

struct Reduction {
    lu: LuFactors,
    d: Vec<f64>, // X/Z
    rho: Vec<f64>,
    sigma: Vec<f64>,
}

impl MehrotraPdip {
    /// Creates the solver with explicit options.
    pub fn new(options: PdipOptions) -> Self {
        MehrotraPdip { options }
    }

    /// Factors the normal matrix `A·(X/Z)·Aᵀ + W/Y` for the current state.
    fn factor(lp: &LpProblem, s: &PdipState) -> Option<Reduction> {
        let n = lp.num_vars();
        let m = lp.num_constraints();
        let a = lp.a();
        let d: Vec<f64> = (0..n).map(|j| s.x[j] / s.z[j]).collect();
        let e: Vec<f64> = (0..m).map(|i| s.w[i] / s.y[i]).collect();
        // A·D·Aᵀ via the threaded gram kernel, then the E diagonal.
        let mut nmat = a.scaled_gram(&d);
        for i in 0..m {
            nmat[(i, i)] += e[i];
        }
        let reg = 1e-12 * (1.0 + nmat.max_abs());
        for i in 0..m {
            nmat[(i, i)] += reg;
        }
        let lu = LuFactors::factor(nmat).ok()?;
        Some(Reduction {
            lu,
            d,
            rho: s.primal_residual(lp),
            sigma: s.dual_residual(lp),
        })
    }

    /// Back-solves the reduced system for given complementarity targets:
    /// `Z·Δx + X·Δz = comp_xz`, `W·Δy + Y·Δw = comp_yw`.
    fn directions(
        lp: &LpProblem,
        s: &PdipState,
        red: &Reduction,
        comp_xz: &[f64],
        comp_yw: &[f64],
    ) -> Option<StepDirections> {
        let n = lp.num_vars();
        let m = lp.num_constraints();
        let a = lp.a();
        let sigma_hat: Vec<f64> = (0..n).map(|j| red.sigma[j] + comp_xz[j] / s.x[j]).collect();
        let rho_hat: Vec<f64> = (0..m).map(|i| red.rho[i] - comp_yw[i] / s.y[i]).collect();
        let dsig: Vec<f64> = (0..n).map(|j| red.d[j] * sigma_hat[j]).collect();
        let adsig = a.matvec(&dsig);
        let rhs: Vec<f64> = (0..m).map(|i| adsig[i] - rho_hat[i]).collect();
        let dy = red.lu.solve(&rhs).ok()?;
        let atdy = a.matvec_transposed(&dy);
        let dx: Vec<f64> = (0..n)
            .map(|j| red.d[j] * (sigma_hat[j] - atdy[j]))
            .collect();
        let dz: Vec<f64> = (0..n)
            .map(|j| (comp_xz[j] - s.z[j] * dx[j]) / s.x[j])
            .collect();
        let dw: Vec<f64> = (0..m)
            .map(|i| (comp_yw[i] - s.w[i] * dy[i]) / s.y[i])
            .collect();
        if !(ops::all_finite(&dx)
            && ops::all_finite(&dy)
            && ops::all_finite(&dw)
            && ops::all_finite(&dz))
        {
            return None;
        }
        Some(StepDirections { dx, dy, dw, dz })
    }

    /// One predictor–corrector Newton solve: factor once, back-solve the
    /// affine predictor, then the re-centred corrector. `None` on a
    /// singular factor or non-finite directions.
    fn step(lp: &LpProblem, state: &PdipState) -> Option<StepDirections> {
        let n = lp.num_vars();
        let m = lp.num_constraints();
        let red = Self::factor(lp, state)?;

        // Predictor: pure affine step (µ = 0).
        let comp_xz_aff: Vec<f64> = (0..n).map(|j| -state.x[j] * state.z[j]).collect();
        let comp_yw_aff: Vec<f64> = (0..m).map(|i| -state.y[i] * state.w[i]).collect();
        let aff = Self::directions(lp, state, &red, &comp_xz_aff, &comp_yw_aff)?;
        let alpha_aff = state.step_length(&aff, 1.0);

        // Adaptive centring: σ = (µ_aff / µ)³.
        let mu = state.duality_gap() / (n + m) as f64;
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
        let comp_xz: Vec<f64> = (0..n)
            .map(|j| sigma_c * mu - state.x[j] * state.z[j] - aff.dx[j] * aff.dz[j])
            .collect();
        let comp_yw: Vec<f64> = (0..m)
            .map(|i| sigma_c * mu - state.y[i] * state.w[i] - aff.dy[i] * aff.dw[i])
            .collect();
        Self::directions(lp, state, &red, &comp_xz, &comp_yw)
    }
}

impl LpSolver for MehrotraPdip {
    fn solve_budgeted(
        &self,
        lp: &LpProblem,
        budget: Budget<'_>,
    ) -> (LpSolution, Option<BudgetCause>) {
        newton_loop(lp, &self.options, budget, |state| Self::step(lp, state))
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
