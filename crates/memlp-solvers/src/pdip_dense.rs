use memlp_linalg::{LuFactors, Matrix};
use memlp_lp::{LpProblem, LpSolution};

use crate::budget::{Budget, BudgetCause};
use crate::pdip::{newton_loop, PdipOptions, PdipState};
use crate::LpSolver;

/// The PDIP method solving the **full** `2(n+m)` Newton system (Eqn 12) by
/// LU decomposition every iteration.
///
/// This reproduces the paper's "PDIP implemented in Matlab" baseline: §3.5
/// attributes O(N³)-per-iteration complexity to exactly this formulation.
/// Use [`crate::NormalEqPdip`] when you want the fast software reference.
///
/// # Example
///
/// ```
/// use memlp_lp::{generator::RandomLp, LpStatus};
/// use memlp_solvers::{DensePdip, LpSolver};
///
/// let lp = RandomLp::paper(8, 3).feasible();
/// let sol = DensePdip::default().solve(&lp);
/// assert_eq!(sol.status, LpStatus::Optimal);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct DensePdip {
    /// Iteration options.
    pub options: PdipOptions,
}

impl DensePdip {
    /// Creates the solver with explicit options.
    pub fn new(options: PdipOptions) -> Self {
        DensePdip { options }
    }

    /// Assembles the Eqn 12 block matrix for the current iterate:
    ///
    /// ```text
    /// ⎡ A   0   I   0 ⎤ ⎡Δx⎤   ⎡ b − Ax − w  ⎤
    /// ⎢ 0   Aᵀ  0  −I ⎥ ⎢Δy⎥ = ⎢ c − Aᵀy + z ⎥
    /// ⎢ Z   0   0   X ⎥ ⎢Δw⎥   ⎢ µe − XZe    ⎥
    /// ⎣ 0   W   Y   0 ⎦ ⎣Δz⎦   ⎣ µe − YWe    ⎦
    /// ```
    fn newton_matrix(lp: &LpProblem, s: &PdipState) -> Matrix {
        let n = lp.num_vars();
        let m = lp.num_constraints();
        let dim = 2 * (n + m);
        let mut k = Matrix::zeros(dim, dim);
        // Column offsets: Δx at 0, Δy at n, Δw at n+m, Δz at n+2m.
        let (ox, oy, ow, oz) = (0, n, n + m, n + 2 * m);
        // Row block 1 (m rows): A·Δx + Δw.
        k.set_block(0, ox, lp.a());
        k.set_diag_block(0, ow, &vec![1.0; m]);
        // Row block 2 (n rows): Aᵀ·Δy − Δz.
        k.set_block(m, oy, &lp.a().transpose());
        k.set_diag_block(m, oz, &vec![-1.0; n]);
        // Row block 3 (n rows): Z·Δx + X·Δz.
        k.set_diag_block(m + n, ox, &s.z);
        k.set_diag_block(m + n, oz, &s.x);
        // Row block 4 (m rows): W·Δy + Y·Δw.
        k.set_diag_block(m + 2 * n, oy, &s.w);
        k.set_diag_block(m + 2 * n, ow, &s.y);
        k
    }

    /// The Eqn 12 right-hand side from the iterate's residuals `rho` and
    /// `sigma`.
    fn newton_rhs(s: &PdipState, rho: &[f64], sigma: &[f64], mu: f64) -> Vec<f64> {
        let mut r = Vec::with_capacity(2 * (rho.len() + sigma.len()));
        r.extend_from_slice(rho);
        r.extend_from_slice(sigma);
        r.extend(s.x.iter().zip(&s.z).map(|(x, z)| mu - x * z));
        r.extend(s.y.iter().zip(&s.w).map(|(y, w)| mu - y * w));
        r
    }
}

impl LpSolver for DensePdip {
    fn solve_budgeted(
        &self,
        lp: &LpProblem,
        budget: Budget<'_>,
    ) -> (LpSolution, Option<BudgetCause>) {
        let n = lp.num_vars();
        let m = lp.num_constraints();
        newton_loop(lp, &self.options, budget, |state, res, dirs| {
            let mu = res.mu();
            let k = Self::newton_matrix(lp, state);
            let rhs = Self::newton_rhs(state, &res.rho, &res.sigma, mu);
            let delta = LuFactors::factor(k).and_then(|lu| lu.solve(&rhs)).ok()?;
            dirs.dx.copy_from_slice(&delta[..n]);
            dirs.dy.copy_from_slice(&delta[n..n + m]);
            dirs.dw.copy_from_slice(&delta[n + m..n + 2 * m]);
            dirs.dz.copy_from_slice(&delta[n + 2 * m..]);
            Some(())
        })
    }

    fn name(&self) -> &'static str {
        "pdip-dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memlp_lp::generator::RandomLp;
    use memlp_lp::LpStatus;

    #[test]
    fn solves_known_2x2() {
        // max x0 + x1 s.t. x0 + 2x1 ≤ 4, 3x0 + x1 ≤ 6 → x* = (8/5, 6/5).
        let lp = LpProblem::new(
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 1.0]]).unwrap(),
            vec![4.0, 6.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        let sol = DensePdip::default().solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(
            (sol.objective - 2.8).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
        assert!((sol.x[0] - 1.6).abs() < 1e-5);
        assert!((sol.x[1] - 1.2).abs() < 1e-5);
    }

    #[test]
    fn solves_random_feasible() {
        for seed in 0..5 {
            let lp = RandomLp::paper(24, seed).feasible();
            let sol = DensePdip::default().solve(&lp);
            assert_eq!(sol.status, LpStatus::Optimal, "seed {seed}: {sol}");
            assert!(
                lp.is_feasible(&sol.x, 1e-5),
                "seed {seed} solution infeasible"
            );
        }
    }

    #[test]
    fn strong_duality_holds_at_optimum() {
        let lp = RandomLp::paper(18, 11).feasible();
        let sol = DensePdip::default().solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        let dual_obj: f64 = lp.b().iter().zip(&sol.y).map(|(b, y)| b * y).sum();
        assert!(
            (sol.objective - dual_obj).abs() / (1.0 + sol.objective.abs()) < 1e-5,
            "primal {} vs dual {}",
            sol.objective,
            dual_obj
        );
    }

    #[test]
    fn detects_infeasible() {
        let lp = RandomLp::paper(12, 3).infeasible();
        let sol = DensePdip::default().solve(&lp);
        assert_eq!(sol.status, LpStatus::Infeasible, "{sol}");
    }

    #[test]
    fn detects_unbounded() {
        let lp = RandomLp::paper(12, 5).unbounded();
        let sol = DensePdip::default().solve(&lp);
        assert_eq!(sol.status, LpStatus::Unbounded, "{sol}");
    }

    #[test]
    fn routing_last_steps_are_not_farkas_rays() {
        // Near its optimum the last Newton step of these max-flow LPs has
        // Δy ⪰ 0 and AᵀΔy ⪰ 0 to within rounding and bᵀΔy ≈ −1e-7: a ray
        // test that ignores the scale of b reads that as `Infeasible`,
        // though every max-flow LP is feasible at x = 0.
        use memlp_lp::domains::{max_flow_lp, MaxFlowNetwork};
        for seed in [1, 8] {
            let lp = max_flow_lp(&MaxFlowNetwork::random_layered(3, 4, seed)).unwrap();
            let sol = DensePdip::default().solve(&lp);
            assert_eq!(sol.status, LpStatus::Optimal, "seed {seed}: {sol}");
        }
    }

    #[test]
    fn iteration_counts_are_moderate() {
        // IPMs should converge in tens of iterations, not hundreds.
        let lp = RandomLp::paper(48, 2).feasible();
        let sol = DensePdip::default().solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(sol.iterations < 100, "took {} iterations", sol.iterations);
    }
}
