use memlp_linalg::{LuFactors, Matrix, SymmetricKkt};
use memlp_lp::{LpProblem, LpSolution};

use crate::budget::{Budget, BudgetCause};
use crate::pdip::{newton_loop, sparse_newton, PdipOptions, PdipState, StepDirections};
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
/// When [`sparse_newton`] holds for the LP (a quarter fill or less), the
/// same reduction is solved in its **quasidefinite KKT form** instead of
/// forming `A·D·Aᵀ` densely:
///
/// ```text
/// ⎡ D⁻¹  Aᵀ ⎤ ⎡Δx⎤   ⎡σ̂⎤          D = Z⁻¹X,  E = Y⁻¹W
/// ⎣ A   −E  ⎦ ⎣Δy⎦ = ⎣ρ̂⎦
/// ```
///
/// The KKT pattern is fixed for the whole solve — only the two diagonals
/// move between iterations. [`memlp_linalg::SymmetricKkt`] keeps `A`'s
/// CSR, runs the fill-reducing symbolic analysis once, and refactors the
/// quasi-definite matrix by a sparse LDLᵀ every iteration. Any sparse
/// breakdown (a zero or non-finite pivot, or non-finite directions) falls
/// back to the dense normal equations for that iteration, keeping the
/// solver total.
/// [`crate::MehrotraPdip`] shares both factorizations.
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

    /// [`LpSolver::solve_budgeted`] with the Newton systems solved on
    /// `core`.
    pub(crate) fn solve_on(
        &self,
        lp: &LpProblem,
        budget: Budget<'_>,
        mut core: NormalEqCore<'_>,
    ) -> (LpSolution, Option<BudgetCause>) {
        let opts = &self.options;
        // µX⁻¹e and µY⁻¹e, once per iteration for both σ̂/ρ̂ and Δz/Δw.
        let mut mu_x = vec![0.0; lp.num_vars()];
        let mut mu_y = vec![0.0; lp.num_constraints()];
        newton_loop(lp, opts, budget, |s, res, dirs| {
            let mu = res.mu(opts.delta);
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
}

impl LpSolver for NormalEqPdip {
    fn solve_budgeted(
        &self,
        lp: &LpProblem,
        budget: Budget<'_>,
    ) -> (LpSolution, Option<BudgetCause>) {
        self.solve_on(lp, budget, NormalEqCore::new(lp))
    }

    fn name(&self) -> &'static str {
        "pdip-normal-eq"
    }
}

/// The Newton linear algebra of the normal-equations PDIP solvers
/// ([`NormalEqPdip`], [`crate::MehrotraPdip`]), one per solve, with every
/// buffer it needs for the whole solve.
/// [`Self::step`] factors the reduced system once per iteration;
/// [`Self::solve`] back-solves it for the `(σ̂, ρ̂)` written into
/// [`Self::rhs_mut`] and refines it: the system grows ill-conditioned as
/// µ → 0, and the reference solver should deliver the full
/// double-precision digits the crossbar solutions are judged against. The
/// KKT form refines until the backward error reaches `4ε` or two rounds
/// have run; the dense normal equations always run two.
pub(crate) struct NormalEqCore<'a> {
    lp: &'a LpProblem,
    /// Whether iterations try the sparse KKT factorization first (tests
    /// force either path by setting it).
    sparse: bool,
    /// The sparse KKT matrix (pattern and symbolic analysis fixed per
    /// solve), built on the first sparse iteration.
    kkt: Option<SymmetricKkt>,
    /// The dense normal equations of the latest dense factorization; its
    /// LU buffers are recycled by the next one.
    dense: Option<DenseNormal>,
    /// Whether [`Self::solve`] uses the KKT factors (else `dense`).
    on_kkt: bool,
    /// `X⁻¹Z` and `Y⁻¹W` at the iterate of the latest [`Self::step`]: the
    /// KKT form's `D⁻¹` and `E`.
    z_x: Vec<f64>,
    w_y: Vec<f64>,
    /// `[σ̂; ρ̂]`, the right-hand side [`Self::solve`] reads.
    rhs: Vec<f64>,
    /// `[Δx; Δy]` of the latest KKT solve.
    sol: Vec<f64>,
}

/// `N = A·D·Aᵀ + E`, kept unfactored for refinement, its scaling
/// `D = Z⁻¹X` and its LU factors.
struct DenseNormal {
    nmat: Matrix,
    d: Vec<f64>,
    lu: LuFactors,
}

impl<'a> NormalEqCore<'a> {
    /// The core for `lp`, on the factorization [`sparse_newton`] picks.
    pub(crate) fn new(lp: &'a LpProblem) -> Self {
        let (n, m) = (lp.num_vars(), lp.num_constraints());
        NormalEqCore {
            lp,
            sparse: sparse_newton(lp),
            kkt: None,
            dense: None,
            on_kkt: false,
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

    /// One iteration's Newton work at `s`: factors the reduced system,
    /// then runs `step`, which solves it as often as it needs and writes
    /// `dirs`, returning `None` on a failed solve or non-finite
    /// directions. A sparse breakdown — a failed refactor or a `None`
    /// from `step` — re-runs the whole step on the dense normal
    /// equations. `None` when the dense path breaks down too.
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
        if self.sparse && self.factor_kkt().is_some() && step(self, dirs).is_some() {
            return Some(());
        }
        self.factor_dense(s)?;
        step(self, dirs)
    }

    /// Solves the reduced system of the current factorization for
    /// `(Δx, Δy)` at the right-hand side in [`Self::rhs_mut`].
    pub(crate) fn solve(&mut self, dx: &mut [f64], dy: &mut [f64]) -> Option<()> {
        let n = dx.len();
        if self.on_kkt {
            self.kkt
                .as_mut()?
                .solve_into(&self.rhs, &mut self.sol)
                .ok()?;
            dx.copy_from_slice(&self.sol[..n]);
            dy.copy_from_slice(&self.sol[n..]);
            return Some(());
        }
        let DenseNormal { nmat, d, lu } = self.dense.as_ref()?;
        let (sigma_hat, rho_hat) = self.rhs.split_at(n);
        let a = self.lp.a();
        // RHS: A·D·σ̂ − ρ̂.
        let dsig: Vec<f64> = d.iter().zip(sigma_hat).map(|(d, s)| d * s).collect();
        let adsig = a.matvec(&dsig);
        let rhs: Vec<f64> = adsig.iter().zip(rho_hat).map(|(ad, r)| ad - r).collect();
        dy.copy_from_slice(&lu.refine(nmat, &rhs, 2).ok()?);
        // Δx = D·(σ̂ − Aᵀ·Δy).
        let atdy = a.matvec_transposed(dy);
        for (j, dxj) in dx.iter_mut().enumerate() {
            *dxj = d[j] * (sigma_hat[j] - atdy[j]);
        }
        Some(())
    }

    /// Refactors the KKT form, `D⁻¹ = X⁻¹Z` and `E = Y⁻¹W`, on the cached
    /// symbolic analysis.
    fn factor_kkt(&mut self) -> Option<()> {
        self.on_kkt = true;
        let lp = self.lp;
        let kkt = self
            .kkt
            .get_or_insert_with(|| SymmetricKkt::new(lp.sparse_a()));
        kkt.refactor(&self.z_x, &self.w_y).ok()
    }

    /// Forms and factors the dense normal equations. This path and its
    /// back-solve are the only readers of the dense view of A.
    fn factor_dense(&mut self, s: &PdipState) -> Option<()> {
        self.on_kkt = false;
        let m = self.lp.num_constraints();
        // Refinement needs the unfactored matrix too, so the LU works on
        // a working copy recycled from the previous dense factorization.
        let (mut work, piv) = match self.dense.take() {
            Some(dense) => dense.lu.into_parts(),
            None => (Matrix::zeros(m, m), Vec::new()),
        };
        let d: Vec<f64> = s.x.iter().zip(&s.z).map(|(x, z)| x / z).collect();
        // N = A·D·Aᵀ + E (A·D·Aᵀ via the threaded gram kernel — the
        // dominant per-iteration cost at O(m²n)).
        let mut nmat = self.lp.a().scaled_gram(&d);
        for (i, e) in self.w_y.iter().enumerate() {
            nmat[(i, i)] += e;
        }
        // Tiny static regularization keeps the factorization alive when a
        // diverging dual drives e_i → 0 on linearly dependent rows (the
        // infeasible-detection path); far below solution accuracy.
        let reg = 1e-12 * (1.0 + nmat.max_abs());
        for i in 0..m {
            nmat[(i, i)] += reg;
        }
        work.as_mut_slice().copy_from_slice(nmat.as_slice());
        let lu = LuFactors::factor_reusing(work, piv).ok()?;
        self.dense = Some(DenseNormal { nmat, d, lu });
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
    fn sparse_path_matches_dense_path_on_domain_lps() {
        use crate::MehrotraPdip;
        use memlp_lp::domains::{transportation_lp, TransportationProblem};
        // Both normal-equations solvers with the factorization forced.
        let solve = |lp: &LpProblem, sparse: bool| {
            let core = || NormalEqCore {
                sparse,
                ..NormalEqCore::new(lp)
            };
            [
                (
                    "normal",
                    NormalEqPdip::default().solve_on(lp, Budget::none(), core()),
                ),
                (
                    "mehrotra",
                    MehrotraPdip::default().solve_on(lp, Budget::none(), core()),
                ),
            ]
        };
        for seed in 0..3 {
            let lp = transportation_lp(&TransportationProblem::random(4, 9, seed)).unwrap();
            for ((name, (dense, _)), (_, (sparse, _))) in
                solve(&lp, false).into_iter().zip(solve(&lp, true))
            {
                assert_eq!(dense.status, LpStatus::Optimal, "{name} seed {seed}");
                assert_eq!(sparse.status, LpStatus::Optimal, "{name} seed {seed}");
                let rel =
                    (dense.objective - sparse.objective).abs() / (1.0 + dense.objective.abs());
                assert!(rel < 1e-7, "{name} seed {seed}: rel {rel:.3e}");
                assert_eq!(
                    dense.iterations, sparse.iterations,
                    "{name} seed {seed}: iterate counts diverged"
                );
            }
        }
    }

    #[test]
    fn auto_path_verdicts_on_domain_lps() {
        use crate::Simplex;
        use memlp_lp::domains::{
            max_flow_lp, production_schedule_lp, transportation_lp, MaxFlowNetwork, ProductionPlan,
            TransportationProblem,
        };
        // (name, LP, the sparse KKT path runs, iterations). Every case
        // takes its residuals through the CSR view of A, whose row sums
        // group their terms differently from the dense product, so only
        // the verdict, the iteration count and the objective are pinned.
        let cases = [
            (
                "transport 4x9",
                transportation_lp(&TransportationProblem::random(4, 9, 1)),
                true,
                14,
            ),
            (
                "transport 4x24",
                transportation_lp(&TransportationProblem::random(4, 24, 1)),
                true,
                16,
            ),
            (
                "routing 3x4",
                max_flow_lp(&MaxFlowNetwork::random_layered(3, 4, 1)),
                true,
                14,
            ),
            // Density 2/7 sits above the sparse threshold: the dense normal
            // equations solve its Newton systems.
            (
                "scheduling 4x3",
                production_schedule_lp(&ProductionPlan::random(4, 3, 1)),
                false,
                10,
            ),
        ];
        for (name, lp, sparse, iterations) in cases {
            let lp = lp.unwrap();
            assert_eq!(sparse_newton(&lp), sparse, "{name}");
            let sol = NormalEqPdip::default().solve(&lp);
            assert_eq!(sol.status, LpStatus::Optimal, "{name}");
            assert_eq!(sol.iterations, iterations, "{name}");
            let reference = Simplex::default().solve(&lp);
            assert_eq!(reference.status, LpStatus::Optimal, "{name}");
            let rel =
                (sol.objective - reference.objective).abs() / (1.0 + reference.objective.abs());
            assert!(
                rel < 1e-6,
                "{name}: {} vs {}",
                sol.objective,
                reference.objective
            );
        }
    }

    #[test]
    fn auto_path_picks_sparse_for_sparse_problems() {
        // Transport at 4×9 has density 2/13 → sparse; RandomLp is
        // fully dense → dense. Both must still solve.
        use memlp_lp::domains::{transportation_lp, TransportationProblem};
        let sparse_lp = transportation_lp(&TransportationProblem::random(4, 9, 3)).unwrap();
        assert!(sparse_newton(&sparse_lp));
        let dense_lp = RandomLp::paper(16, 3).feasible();
        assert!(!sparse_newton(&dense_lp));
        assert_eq!(
            NormalEqPdip::default().solve(&sparse_lp).status,
            LpStatus::Optimal
        );
        assert_eq!(
            NormalEqPdip::default().solve(&dense_lp).status,
            LpStatus::Optimal
        );
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
