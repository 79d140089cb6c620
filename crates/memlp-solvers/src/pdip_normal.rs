use memlp_linalg::SymmetricKkt;
use memlp_lp::{LpProblem, LpSolution};

use crate::budget::{Budget, BudgetCause};
use crate::pdip::{newton_loop, PdipOptions, PdipState, StepDirections};
use crate::LpSolver;

/// PDIP with the Newton system reduced to `m×m` **normal equations** — the
/// standard high-performance software formulation and this workspace's
/// stand-in for Matlab `linprog` (accuracy reference + CPU baseline).
///
/// Reduction (eliminating Δz, Δw, then Δx from Eqns 9a–9d):
///
/// ```text
/// Δz = X⁻¹(µe − XZe) − X⁻¹Z·Δx
/// Δw = Y⁻¹(µe − YWe) − Y⁻¹W·Δy
/// (A·Z⁻¹X·Aᵀ + Y⁻¹W)·Δy = A·Z⁻¹X·σ̂ − ρ̂
/// Δx = Z⁻¹X·(σ̂ − Aᵀ·Δy)
/// ```
///
/// with `σ̂ = σ + X⁻¹µe − z` and `ρ̂ = ρ − Y⁻¹µe + w`, where
/// `ρ = b − Ax − w` and `σ = c − Aᵀy + z`.
///
/// The reduction is solved in its **quasi-definite KKT form**, never by
/// forming `A·D·Aᵀ`:
///
/// ```text
/// ⎡ D⁻¹  Aᵀ ⎤ ⎡Δx⎤   ⎡σ̂⎤          D = Z⁻¹X,  E = Y⁻¹W
/// ⎣ A   −E  ⎦ ⎣Δy⎦ = ⎣ρ̂⎦
/// ```
///
/// The KKT pattern is fixed for the whole solve — only the two diagonals
/// move between iterations. [`memlp_linalg::SymmetricKkt`] keeps `A`'s
/// CSR, runs the fill-reducing symbolic analysis once, and refactors the
/// quasi-definite matrix by a sparse LDLᵀ every iteration; a fully dense
/// `A` (the paper's random instances) is one dense front of the same
/// factorization. An iteration whose LDLᵀ breaks down (a zero or
/// non-finite pivot, or non-finite directions) refactors once with the
/// diagonal shifted by `1e-12·‖K‖∞` and refines against the unshifted
/// matrix, keeping the solver total without a second factorization.
/// [`crate::MehrotraPdip`] shares the factorization.
///
/// # Example
///
/// ```
/// use memlp_lp::{generator::RandomLp, LpStatus};
/// use memlp_solvers::{LpSolver, NormalEqPdip};
///
/// let lp = RandomLp::paper(12, 1).feasible();
/// let sol = NormalEqPdip::default().solve(&lp);
/// assert_eq!(sol.status, LpStatus::Optimal);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalEqPdip {
    /// Iteration options.
    pub options: PdipOptions,
}

impl NormalEqPdip {
    /// Creates the solver with explicit options.
    pub fn new(options: PdipOptions) -> Self {
        NormalEqPdip { options }
    }
}

impl LpSolver for NormalEqPdip {
    fn solve_budgeted(
        &self,
        lp: &LpProblem,
        budget: Budget<'_>,
    ) -> (LpSolution, Option<BudgetCause>) {
        let mut core = NormalEqCore::new(lp);
        // µX⁻¹e and µY⁻¹e, once per iteration for both σ̂/ρ̂ and Δz/Δw.
        let mut mu_x = vec![0.0; lp.num_vars()];
        let mut mu_y = vec![0.0; lp.num_constraints()];
        newton_loop(lp, &self.options, budget, |s, res, dirs| {
            let mu = res.mu();
            // σ̂ = σ + µX⁻¹e − z;  ρ̂ = ρ − µY⁻¹e + w.
            let (sigma_hat, rho_hat) = core.rhs_mut();
            let terms = sigma_hat.iter_mut().zip(&mut mu_x).zip(&s.x);
            for (((h, q), x), (sigma, z)) in terms.zip(res.sigma.iter().zip(&s.z)) {
                *q = mu / x;
                *h = sigma + *q - z;
            }
            let terms = rho_hat.iter_mut().zip(&mut mu_y).zip(&s.y);
            for (((h, q), y), (rho, w)) in terms.zip(res.rho.iter().zip(&s.w)) {
                *q = mu / y;
                *h = rho - *q + w;
            }
            core.step(s, dirs, |core, dirs| {
                core.solve(&mut dirs.dx, &mut dirs.dy)?;
                let (z_x, w_y) = core.quotients();
                // Δz = µX⁻¹e − z − X⁻¹Z·Δx;  Δw = µY⁻¹e − w − Y⁻¹W·Δy.
                let mut finite = true;
                for ((((dz, q), z), zx), dx) in dirs
                    .dz
                    .iter_mut()
                    .zip(&mu_x)
                    .zip(&s.z)
                    .zip(z_x)
                    .zip(&dirs.dx)
                {
                    *dz = q - z - zx * dx;
                    finite &= dz.is_finite() & dx.is_finite();
                }
                for ((((dw, q), w), wy), dy) in dirs
                    .dw
                    .iter_mut()
                    .zip(&mu_y)
                    .zip(&s.w)
                    .zip(w_y)
                    .zip(&dirs.dy)
                {
                    *dw = q - w - wy * dy;
                    finite &= dw.is_finite() & dy.is_finite();
                }
                finite.then_some(())
            })
        })
    }

    fn name(&self) -> &'static str {
        "pdip-normal-eq"
    }
}

/// The Newton linear algebra of the normal-equations PDIP solvers
/// ([`NormalEqPdip`], [`crate::MehrotraPdip`]), one per solve, with every
/// buffer it needs for the whole solve.
/// [`Self::step`] factors the quasi-definite KKT form once per iteration;
/// [`Self::solve`] back-solves it for the `(σ̂, ρ̂)` written into
/// [`Self::rhs_mut`] and refines it until the backward error reaches `4ε`
/// or two rounds have run: the system grows ill-conditioned as µ → 0, and
/// the reference solver should deliver the full double-precision digits
/// the crossbar solutions are judged against.
pub(crate) struct NormalEqCore<'a> {
    lp: &'a LpProblem,
    /// The KKT matrix, its pattern and symbolic analysis fixed per solve.
    kkt: SymmetricKkt,
    /// `X⁻¹Z` and `Y⁻¹W` at the iterate of the latest [`Self::step`]: the
    /// KKT form's `D⁻¹` and `E`.
    z_x: Vec<f64>,
    w_y: Vec<f64>,
    /// `[σ̂; ρ̂]`, the right-hand side [`Self::solve`] reads.
    rhs: Vec<f64>,
    /// `[Δx; Δy]` of the latest solve.
    sol: Vec<f64>,
}

impl<'a> NormalEqCore<'a> {
    /// The core for `lp`.
    pub(crate) fn new(lp: &'a LpProblem) -> Self {
        let (n, m) = (lp.num_vars(), lp.num_constraints());
        NormalEqCore {
            lp,
            kkt: SymmetricKkt::new(lp.sparse_a()),
            z_x: vec![0.0; n],
            w_y: vec![0.0; m],
            rhs: vec![0.0; n + m],
            sol: vec![0.0; n + m],
        }
    }

    /// `(σ̂, ρ̂)`: where the caller writes the right-hand side of the next
    /// [`Self::solve`].
    pub(crate) fn rhs_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        self.rhs.split_at_mut(self.lp.num_vars())
    }

    /// `(X⁻¹Z, Y⁻¹W)` at the iterate of the latest [`Self::step`].
    pub(crate) fn quotients(&self) -> (&[f64], &[f64]) {
        (&self.z_x, &self.w_y)
    }

    /// One iteration's Newton work at `s`: factors the KKT form, `D⁻¹ =
    /// X⁻¹Z` and `E = Y⁻¹W`, on the cached symbolic analysis, then runs
    /// `step`, which solves it as often as it needs and writes `dirs`,
    /// returning `None` on a failed solve or non-finite directions. A
    /// breakdown — a failed refactor or a `None` from `step` — refactors
    /// once more with the diagonal shifted away from zero
    /// ([`SymmetricKkt::refactor_shifted`]) and re-runs `step`; the
    /// solves still refine against the unshifted matrix. `None` when the
    /// shifted factors break down too.
    pub(crate) fn step(
        &mut self,
        s: &PdipState,
        dirs: &mut StepDirections,
        mut step: impl FnMut(&mut Self, &mut StepDirections) -> Option<()>,
    ) -> Option<()> {
        for ((q, z), x) in self.z_x.iter_mut().zip(&s.z).zip(&s.x) {
            *q = z / x;
        }
        for ((q, w), y) in self.w_y.iter_mut().zip(&s.w).zip(&s.y) {
            *q = w / y;
        }
        if self.kkt.refactor(&self.z_x, &self.w_y).is_ok() && step(self, dirs).is_some() {
            return Some(());
        }
        self.kkt.refactor_shifted().ok()?;
        step(self, dirs)
    }

    /// Solves the factored KKT form for `(Δx, Δy)` at the right-hand side
    /// in [`Self::rhs_mut`].
    pub(crate) fn solve(&mut self, dx: &mut [f64], dy: &mut [f64]) -> Option<()> {
        self.kkt.solve_into(&self.rhs, &mut self.sol).ok()?;
        let (sol_x, sol_y) = self.sol.split_at(dx.len());
        dx.copy_from_slice(sol_x);
        dy.copy_from_slice(sol_y);
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let sol = NormalEqPdip::default().solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 2.8).abs() < 1e-6);
    }

    #[test]
    fn agrees_with_dense_pdip() {
        use crate::DensePdip;
        for seed in 0..5 {
            let lp = RandomLp::paper(21, 100 + seed).feasible();
            let a = NormalEqPdip::default().solve(&lp);
            let b = DensePdip::default().solve(&lp);
            assert_eq!(a.status, LpStatus::Optimal);
            assert_eq!(b.status, LpStatus::Optimal);
            let rel = (a.objective - b.objective).abs() / (1.0 + a.objective.abs());
            assert!(
                rel < 1e-6,
                "seed {seed}: {} vs {}",
                a.objective,
                b.objective
            );
        }
    }

    #[test]
    fn solves_medium_random() {
        let lp = RandomLp::paper(96, 7).feasible();
        let sol = NormalEqPdip::default().solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal, "{sol}");
        assert!(lp.is_feasible(&sol.x, 1e-5));
    }

    #[test]
    fn detects_infeasible_and_unbounded() {
        let inf = RandomLp::paper(16, 9).infeasible();
        assert_eq!(
            NormalEqPdip::default().solve(&inf).status,
            LpStatus::Infeasible
        );
        let unb = RandomLp::paper(16, 9).unbounded();
        assert_eq!(
            NormalEqPdip::default().solve(&unb).status,
            LpStatus::Unbounded
        );
    }

    #[test]
    fn auto_path_verdicts_on_domain_lps() {
        use crate::{MehrotraPdip, Simplex};
        use memlp_lp::domains::{
            max_flow_lp, production_schedule_lp, transportation_lp, MaxFlowNetwork, ProductionPlan,
            TransportationProblem,
        };
        let transport = |k, seed| transportation_lp(&TransportationProblem::random(4, k, seed));
        // (name, LP, iterations of NormalEqPdip and of MehrotraPdip). Every
        // LP factors the same KKT LDLᵀ, sparse or dense; each solve must
        // reach Simplex's optimum.
        let cases = [
            ("transport 4x9 s0", transport(9, 0), 14, 9),
            ("transport 4x9 s1", transport(9, 1), 14, 9),
            ("transport 4x9 s2", transport(9, 2), 13, 10),
            ("transport 4x9 s3", transport(9, 3), 15, 10),
            ("transport 4x24", transport(24, 1), 16, 10),
            (
                "routing 3x4",
                max_flow_lp(&MaxFlowNetwork::random_layered(3, 4, 1)),
                14,
                6,
            ),
            (
                "scheduling 4x3",
                production_schedule_lp(&ProductionPlan::random(4, 3, 1)),
                10,
                10,
            ),
            ("paper 16", Ok(RandomLp::paper(16, 3).feasible()), 13, 7),
        ];
        for (name, lp, normal_iters, mehrotra_iters) in cases {
            let lp = lp.unwrap();
            let reference = Simplex::default().solve(&lp);
            assert_eq!(reference.status, LpStatus::Optimal, "{name}");
            let runs = [
                ("normal", NormalEqPdip::default().solve(&lp), normal_iters),
                (
                    "mehrotra",
                    MehrotraPdip::default().solve(&lp),
                    mehrotra_iters,
                ),
            ];
            for (solver, sol, iterations) in runs {
                assert_eq!(sol.status, LpStatus::Optimal, "{solver} {name}");
                assert_eq!(sol.iterations, iterations, "{solver} {name}");
                let rel =
                    (sol.objective - reference.objective).abs() / (1.0 + reference.objective.abs());
                assert!(
                    rel < 1e-6,
                    "{solver} {name}: {} vs {}",
                    sol.objective,
                    reference.objective
                );
            }
        }
    }

    #[test]
    fn converges_on_paper_256_seeds_that_stalled_the_dense_normal_equations() {
        // The dense normal equations stopped at the 200-iteration cap on
        // these three draws, with the primal residual frozen near 1e-6.
        use crate::MehrotraPdip;
        for seed in [14, 20, 23] {
            let lp = RandomLp::paper(256, seed).feasible();
            for sol in [
                NormalEqPdip::default().solve(&lp),
                MehrotraPdip::default().solve(&lp),
            ] {
                assert_eq!(sol.status, LpStatus::Optimal, "seed {seed}: {sol}");
            }
        }
    }

    #[test]
    fn verdicts_on_infeasible_and_unbounded_paper_lps() {
        use crate::MehrotraPdip;
        for m in [10, 16, 64] {
            for seed in 0..10 {
                let gen = RandomLp::paper(m, seed);
                for (lp, want) in [
                    (gen.infeasible(), LpStatus::Infeasible),
                    (gen.unbounded(), LpStatus::Unbounded),
                ] {
                    for (name, sol) in [
                        ("normal", NormalEqPdip::default().solve(&lp)),
                        ("mehrotra", MehrotraPdip::default().solve(&lp)),
                    ] {
                        assert_eq!(sol.status, want, "{name} paper({m}, {seed})");
                    }
                }
            }
        }
    }

    #[test]
    fn residuals_reported_small_at_optimum() {
        let lp = RandomLp::paper(32, 13).feasible();
        let sol = NormalEqPdip::default().solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(sol.primal_residual < 1e-6);
        assert!(sol.dual_residual < 1e-6);
        assert!(sol.duality_gap < 1e-4);
    }
}
