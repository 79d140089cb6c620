use memlp_linalg::{ops, BlockKkt, LuFactors, Matrix};
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
/// move between iterations. [`memlp_linalg::BlockKkt`] assembles it once,
/// row by row from the CSR views of `Aᵀ` and `A` with no sort, and runs
/// the fill-reducing symbolic analysis once; every iteration writes the
/// two diagonals into their recorded slots and refactors numerically.
/// Any sparse breakdown (static pivot failure) falls back to the dense
/// normal equations for that iteration, keeping the solver total.
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

/// Per-solve factorization scratch: the `m×m` LU working copy and the
/// pivot vector are recycled across iterations instead of reallocated, and
/// the sparse KKT matrix (pattern and symbolic analysis fixed per solve)
/// is built on the first sparse iteration.
#[derive(Debug, Clone, Default)]
struct NormalScratch {
    lu: Matrix,
    piv: Vec<usize>,
    kkt: Option<BlockKkt>,
}

impl NormalEqPdip {
    /// Creates the solver with explicit options.
    pub fn new(options: PdipOptions) -> Self {
        NormalEqPdip { options }
    }

    fn directions(
        lp: &LpProblem,
        s: &PdipState,
        mu: f64,
        scratch: &mut NormalScratch,
        use_sparse: bool,
    ) -> Option<StepDirections> {
        let n = lp.num_vars();
        let m = lp.num_constraints();

        let rho = s.primal_residual(lp);
        let sigma = s.dual_residual(lp);

        // σ̂ = σ + µX⁻¹e − z;  ρ̂ = ρ − µY⁻¹e + w.
        let sigma_hat: Vec<f64> = (0..n).map(|j| sigma[j] + mu / s.x[j] - s.z[j]).collect();
        let rho_hat: Vec<f64> = (0..m).map(|i| rho[i] - mu / s.y[i] + s.w[i]).collect();

        if use_sparse {
            if let Some(dirs) = Self::sparse_directions(lp, s, mu, &sigma_hat, &rho_hat, scratch) {
                return Some(dirs);
            }
            // Static-pivot breakdown: fall through to the dense oracle for
            // this iteration.
        }

        // Dense normal equations: the only place this solver reads the
        // dense view of A.
        let a = lp.a();
        // D = Z⁻¹X (diagonal), E = Y⁻¹W (diagonal).
        let d: Vec<f64> = (0..n).map(|j| s.x[j] / s.z[j]).collect();
        let e: Vec<f64> = (0..m).map(|i| s.w[i] / s.y[i]).collect();

        // Normal matrix N = A·D·Aᵀ + E (A·D·Aᵀ via the threaded gram
        // kernel — the dominant per-iteration cost at O(m²n)).
        let mut nmat = a.scaled_gram(&d);
        for i in 0..m {
            nmat[(i, i)] += e[i];
        }
        // Tiny static regularization keeps the factorization alive when a
        // diverging dual drives e_i → 0 on linearly dependent rows (the
        // infeasible-detection path); far below solution accuracy.
        let reg = 1e-12 * (1.0 + nmat.max_abs());
        for i in 0..m {
            nmat[(i, i)] += reg;
        }

        // RHS: A·D·σ̂ − ρ̂.
        let dsig: Vec<f64> = (0..n).map(|j| d[j] * sigma_hat[j]).collect();
        let adsig = a.matvec(&dsig);
        let rhs: Vec<f64> = (0..m).map(|i| adsig[i] - rho_hat[i]).collect();

        // LU solve polished by two rounds of iterative refinement: the
        // normal matrix grows ill-conditioned as µ → 0, and the reference
        // solver should deliver the full double-precision digits the
        // crossbar solutions are judged against. Refinement needs the
        // unfactored matrix too, so the factorization works on the
        // scratch's recycled working copy rather than a fresh clone.
        let mut work = std::mem::take(&mut scratch.lu);
        if work.rows() != m || work.cols() != m {
            work = Matrix::zeros(m, m);
        }
        work.as_mut_slice().copy_from_slice(nmat.as_slice());
        let piv = std::mem::take(&mut scratch.piv);
        let lu = LuFactors::factor_reusing(work, piv).ok()?;
        let dy = lu.refine(&nmat, &rhs, 2).ok();
        let (work, piv) = lu.into_parts();
        scratch.lu = work;
        scratch.piv = piv;
        let dy = dy?;

        // Δx = D·(σ̂ − Aᵀ·Δy).
        let atdy = a.matvec_transposed(&dy);
        let dx: Vec<f64> = (0..n).map(|j| d[j] * (sigma_hat[j] - atdy[j])).collect();
        // Δz = µX⁻¹e − z − X⁻¹Z·Δx.
        let dz: Vec<f64> = (0..n)
            .map(|j| mu / s.x[j] - s.z[j] - s.z[j] / s.x[j] * dx[j])
            .collect();
        // Δw = µY⁻¹e − w − Y⁻¹W·Δy.
        let dw: Vec<f64> = (0..m)
            .map(|i| mu / s.y[i] - s.w[i] - s.w[i] / s.y[i] * dy[i])
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

    /// The sparse quasidefinite-KKT solve: symbolic analysis cached in the
    /// scratch, numeric refactor + refined triangular solves per iteration.
    /// Returns `None` on any sparse breakdown (caller falls back to dense).
    fn sparse_directions(
        lp: &LpProblem,
        s: &PdipState,
        mu: f64,
        sigma_hat: &[f64],
        rho_hat: &[f64],
        scratch: &mut NormalScratch,
    ) -> Option<StepDirections> {
        let n = lp.num_vars();
        let m = lp.num_constraints();
        if scratch.kkt.is_none() {
            let a = lp.sparse_a();
            scratch.kkt = Some(BlockKkt::new(&a.transpose(), a).ok()?);
        }
        let kkt = scratch.kkt.as_mut()?;
        // D⁻¹ = Z X⁻¹ and E = W Y⁻¹.
        let d_inv: Vec<f64> = (0..n).map(|j| s.z[j] / s.x[j]).collect();
        let e: Vec<f64> = (0..m).map(|i| s.w[i] / s.y[i]).collect();
        kkt.refactor(&d_inv, &e).ok()?;

        let mut rhs = Vec::with_capacity(n + m);
        rhs.extend_from_slice(sigma_hat);
        rhs.extend_from_slice(rho_hat);
        // Two refinement rounds against the exact KKT matrix, mirroring the
        // dense path: the static-pivot factors lose digits the refinement
        // recovers, keeping both paths at reference accuracy.
        let sol = kkt.solve(&rhs, 2).ok()?;
        let (dx, dy) = sol.split_at(n);

        // Δz = µX⁻¹e − z − X⁻¹Z·Δx;  Δw = µY⁻¹e − w − Y⁻¹W·Δy.
        let dz: Vec<f64> = (0..n)
            .map(|j| mu / s.x[j] - s.z[j] - s.z[j] / s.x[j] * dx[j])
            .collect();
        let dw: Vec<f64> = (0..m)
            .map(|i| mu / s.y[i] - s.w[i] - s.w[i] / s.y[i] * dy[i])
            .collect();

        if !(ops::all_finite(dx)
            && ops::all_finite(dy)
            && ops::all_finite(&dw)
            && ops::all_finite(&dz))
        {
            return None;
        }
        Some(StepDirections {
            dx: dx.to_vec(),
            dy: dy.to_vec(),
            dw,
            dz,
        })
    }
}

impl LpSolver for NormalEqPdip {
    fn solve_budgeted(
        &self,
        lp: &LpProblem,
        budget: Budget<'_>,
    ) -> (LpSolution, Option<BudgetCause>) {
        let opts = &self.options;
        let mut scratch = NormalScratch::default();
        let use_sparse = sparse_newton(lp);
        newton_loop(lp, opts, budget, |state| {
            let mu = state.mu(opts.delta);
            Self::directions(lp, state, mu, &mut scratch, use_sparse)
        })
    }

    fn name(&self) -> &'static str {
        "pdip-normal-eq"
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
        use memlp_lp::domains::{transportation_lp, TransportationProblem};
        // `solve_budgeted` with the factorization fixed.
        let solve = |lp: &LpProblem, use_sparse: bool| {
            let opts = PdipOptions::default();
            let mut scratch = NormalScratch::default();
            newton_loop(lp, &opts, Budget::none(), |state| {
                let mu = state.mu(opts.delta);
                NormalEqPdip::directions(lp, state, mu, &mut scratch, use_sparse)
            })
            .0
        };
        for seed in 0..3 {
            let lp = transportation_lp(&TransportationProblem::random(4, 9, seed)).unwrap();
            let dense = solve(&lp, false);
            let sparse = solve(&lp, true);
            assert_eq!(dense.status, LpStatus::Optimal);
            assert_eq!(sparse.status, LpStatus::Optimal);
            let rel = (dense.objective - sparse.objective).abs() / (1.0 + dense.objective.abs());
            assert!(rel < 1e-7, "seed {seed}: rel {rel:.3e}");
            assert_eq!(
                dense.iterations, sparse.iterations,
                "seed {seed}: iterate counts diverged"
            );
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
