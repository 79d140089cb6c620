use memlp_lp::{LpProblem, LpSolution, LpStatus};

use crate::budget::{Budget, BudgetCause};
use crate::LpSolver;

/// A two-phase primal simplex solver (dense tableau, Bland's anti-cycling
/// rule).
///
/// §2.1 of the paper introduces simplex as the classical alternative to
/// interior-point methods; this implementation serves as an independent
/// correctness oracle for the PDIP solvers at small and medium sizes. It is
/// deliberately simple (dense tableau, Bland's rule) rather than fast.
///
/// # Example
///
/// ```
/// use memlp_lp::{generator::RandomLp, LpStatus};
/// use memlp_solvers::{LpSolver, Simplex};
///
/// let lp = RandomLp::paper(9, 4).feasible();
/// let sol = Simplex::default().solve(&lp);
/// assert_eq!(sol.status, LpStatus::Optimal);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Simplex {
    /// Numerical tolerance for pivots and optimality tests.
    pub tolerance: f64,
    /// Maximum pivots across both phases.
    pub max_pivots: usize,
}

impl Default for Simplex {
    fn default() -> Self {
        Simplex {
            tolerance: 1e-9,
            max_pivots: 100_000,
        }
    }
}

struct Tableau {
    /// m rows × (cols + 1); the last column is the RHS.
    rows: Vec<Vec<f64>>,
    /// Objective row (`z_j − c_j` convention for maximization).
    zrow: Vec<f64>,
    /// Basis variable per row.
    basis: Vec<usize>,
    /// Rows that were negated while building phase 1 (flips dual signs).
    negated: Vec<bool>,
    n_struct: usize,
    n_slack: usize,
    n_art: usize,
    tol: f64,
}

enum PivotOutcome {
    Optimal,
    Unbounded,
    Progress,
}

impl Tableau {
    fn total_cols(&self) -> usize {
        self.n_struct + self.n_slack + self.n_art
    }

    /// One Bland-rule pivot. `allow` filters candidate entering columns.
    fn pivot_step(&mut self, allow: impl Fn(usize) -> bool) -> PivotOutcome {
        let cols = self.total_cols();
        // Entering: smallest index with negative reduced cost.
        let mut enter = None;
        for j in 0..cols {
            if allow(j) && self.zrow[j] < -self.tol {
                enter = Some(j);
                break;
            }
        }
        let Some(e) = enter else {
            return PivotOutcome::Optimal;
        };
        // Leaving: min ratio, ties by smallest basis variable (Bland).
        let mut leave: Option<(usize, f64)> = None;
        for i in 0..self.rows.len() {
            let a = self.rows[i][e];
            if a > self.tol {
                let ratio = self.rows[i][cols] / a;
                match leave {
                    None => leave = Some((i, ratio)),
                    Some((li, lr)) => {
                        if ratio < lr - self.tol
                            || ((ratio - lr).abs() <= self.tol && self.basis[i] < self.basis[li])
                        {
                            leave = Some((i, ratio));
                        }
                    }
                }
            }
        }
        let Some((l, _)) = leave else {
            return PivotOutcome::Unbounded;
        };
        self.do_pivot(l, e);
        PivotOutcome::Progress
    }

    fn do_pivot(&mut self, l: usize, e: usize) {
        let cols = self.total_cols();
        let p = self.rows[l][e];
        for v in self.rows[l].iter_mut() {
            *v /= p;
        }
        let pivot_row = self.rows[l].clone();
        for (i, row) in self.rows.iter_mut().enumerate() {
            if i != l {
                let f = row[e];
                if f != 0.0 {
                    for (rv, pv) in row.iter_mut().zip(&pivot_row) {
                        *rv -= f * pv;
                    }
                }
            }
        }
        let f = self.zrow[e];
        if f != 0.0 {
            for (zv, pv) in self.zrow.iter_mut().zip(pivot_row.iter().take(cols + 1)) {
                *zv -= f * pv;
            }
        }
        self.basis[l] = e;
    }

    /// Rebuilds the objective row for costs `c` (length = total columns)
    /// and re-zeroes the basic columns.
    fn install_objective(&mut self, c: &[f64]) {
        let cols = self.total_cols();
        self.zrow = c.iter().map(|v| -v).collect();
        self.zrow.push(0.0);
        for i in 0..self.rows.len() {
            let b = self.basis[i];
            let f = self.zrow[b];
            if f != 0.0 {
                let row = self.rows[i].clone();
                for (zv, rv) in self.zrow.iter_mut().zip(row.iter().take(cols + 1)) {
                    *zv -= f * rv;
                }
            }
        }
    }
}

impl Simplex {
    fn build_tableau(&self, lp: &LpProblem) -> Tableau {
        let n = lp.num_vars();
        let m = lp.num_constraints();
        // Artificial variables only for rows with negative b.
        let art_rows: Vec<usize> = (0..m).filter(|&i| lp.b()[i] < 0.0).collect();
        let n_art = art_rows.len();
        let cols = n + m + n_art;

        let a = lp.a();
        let mut rows = Vec::with_capacity(m);
        let mut basis = vec![0usize; m];
        let mut negated = vec![false; m];
        let mut art_idx = 0;
        for i in 0..m {
            let mut row = vec![0.0; cols + 1];
            let flip = lp.b()[i] < 0.0;
            let sgn = if flip { -1.0 } else { 1.0 };
            for (rj, &aij) in row.iter_mut().zip(a.row(i)) {
                *rj = sgn * aij;
            }
            row[n + i] = sgn; // slack
            row[cols] = sgn * lp.b()[i];
            if flip {
                row[n + m + art_idx] = 1.0;
                basis[i] = n + m + art_idx;
                negated[i] = true;
                art_idx += 1;
            } else {
                basis[i] = n + i;
            }
            rows.push(row);
        }
        Tableau {
            rows,
            zrow: vec![0.0; cols + 1],
            basis,
            negated,
            n_struct: n,
            n_slack: m,
            n_art,
            tol: self.tolerance,
        }
    }

    /// Runs both phases on a fresh tableau.
    fn solve_tableau(&self, lp: &LpProblem) -> LpSolution {
        let n = lp.num_vars();
        let m = lp.num_constraints();
        let mut t = self.build_tableau(lp);
        let cols = t.total_cols();
        let mut pivots = 0usize;

        // ---- Phase 1: drive artificials to zero (maximize −Σ artificials).
        if t.n_art > 0 {
            let mut c1 = vec![0.0; cols];
            c1[n + m..cols].fill(-1.0);
            t.install_objective(&c1);
            loop {
                if pivots >= self.max_pivots {
                    return LpSolution::failed(LpStatus::IterationLimit, pivots);
                }
                match t.pivot_step(|_| true) {
                    PivotOutcome::Optimal => break,
                    PivotOutcome::Unbounded => {
                        // Phase-1 objective is bounded by 0; cannot happen.
                        return LpSolution::failed(LpStatus::NumericalFailure, pivots);
                    }
                    PivotOutcome::Progress => pivots += 1,
                }
            }
            // Phase-1 optimum = −Σ artificials; z value is in zrow[cols].
            let phase1 = t.zrow[cols];
            if phase1 < -self.tolerance * 10.0 {
                return LpSolution::failed(LpStatus::Infeasible, pivots);
            }
            // Pivot any artificial still basic (at zero) out of the basis.
            for i in 0..m {
                if t.basis[i] >= n + m {
                    if let Some(e) = (0..n + m).find(|&j| t.rows[i][j].abs() > self.tolerance) {
                        t.do_pivot(i, e);
                        pivots += 1;
                    }
                    // If no pivot exists the row is redundant; the basic
                    // artificial stays at value 0 and never re-enters.
                }
            }
        }

        // ---- Phase 2: real objective, artificial columns banned.
        let mut c2 = vec![0.0; cols];
        c2[..n].copy_from_slice(lp.c());
        t.install_objective(&c2);
        loop {
            if pivots >= self.max_pivots {
                return LpSolution::failed(LpStatus::IterationLimit, pivots);
            }
            match t.pivot_step(|j| j < n + m) {
                PivotOutcome::Optimal => break,
                PivotOutcome::Unbounded => return LpSolution::failed(LpStatus::Unbounded, pivots),
                PivotOutcome::Progress => pivots += 1,
            }
        }

        // Extract primal solution.
        let mut x = vec![0.0; n];
        for i in 0..m {
            if t.basis[i] < n {
                x[t.basis[i]] = t.rows[i][cols];
            }
        }
        // Duals from slack reduced costs (sign-corrected for negated rows).
        let mut y = vec![0.0; m];
        for (i, yi) in y.iter_mut().enumerate() {
            let v = t.zrow[n + i];
            *yi = if t.negated[i] { -v } else { v };
        }
        let objective = lp.objective(&x);
        // Residual diagnostics mirroring the PDIP exit quantities.
        let ax = lp.a().matvec(&x);
        let primal_residual = ax
            .iter()
            .zip(lp.b())
            .map(|(l, r)| (l - r).max(0.0))
            .fold(0.0f64, f64::max);
        let dual_obj: f64 = lp.b().iter().zip(&y).map(|(b, yi)| b * yi).sum();
        LpSolution {
            status: LpStatus::Optimal,
            x,
            y,
            objective,
            iterations: pivots,
            primal_residual,
            dual_residual: 0.0,
            duality_gap: (dual_obj - objective).abs(),
        }
    }
}

impl LpSolver for Simplex {
    /// Pivots to the end: the budget is ignored.
    fn solve_budgeted(
        &self,
        lp: &LpProblem,
        _budget: Budget<'_>,
    ) -> (LpSolution, Option<BudgetCause>) {
        (self.solve_tableau(lp), None)
    }

    fn name(&self) -> &'static str {
        "simplex"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memlp_linalg::Matrix;
    use memlp_lp::generator::RandomLp;

    fn lp_2x2() -> LpProblem {
        LpProblem::new(
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 1.0]]).unwrap(),
            vec![4.0, 6.0],
            vec![1.0, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn solves_known_2x2() {
        // The same core padded with a dominated column (c = −5) and a zero
        // row keeps its optimum.
        let padded = LpProblem::new(
            Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[3.0, 1.0, 0.0], &[0.0, 0.0, 0.0]]).unwrap(),
            vec![4.0, 6.0, 7.0],
            vec![1.0, 1.0, -5.0],
        )
        .unwrap();
        for lp in [lp_2x2(), padded] {
            let sol = Simplex::default().solve(&lp);
            assert_eq!(sol.status, LpStatus::Optimal);
            assert!(
                (sol.objective - 2.8).abs() < 1e-9,
                "objective {}",
                sol.objective
            );
            assert!((sol.x[0] - 1.6).abs() < 1e-9);
            assert!((sol.x[1] - 1.2).abs() < 1e-9);
        }
    }

    #[test]
    fn duals_satisfy_strong_duality() {
        let lp = lp_2x2();
        let sol = Simplex::default().solve(&lp);
        let dual_obj: f64 = lp.b().iter().zip(&sol.y).map(|(b, y)| b * y).sum();
        assert!((dual_obj - sol.objective).abs() < 1e-9);
        assert!(sol.y.iter().all(|&v| v >= -1e-9));
    }

    #[test]
    fn detects_unbounded() {
        // max x, no binding constraint on x.
        let lp =
            LpProblem::new(Matrix::from_rows(&[&[-1.0]]).unwrap(), vec![1.0], vec![1.0]).unwrap();
        assert_eq!(Simplex::default().solve(&lp).status, LpStatus::Unbounded);
        // max x1 with x0 − x1 ≤ 4: x1 rides free on x0.
        let lp = LpProblem::new(
            Matrix::from_rows(&[&[1.0, -1.0]]).unwrap(),
            vec![4.0],
            vec![0.0, 1.0],
        )
        .unwrap();
        assert_eq!(Simplex::default().solve(&lp).status, LpStatus::Unbounded);
    }

    #[test]
    fn detects_infeasible() {
        // x ≤ 1 and −x ≤ −3 (x ≥ 3).
        let lp = LpProblem::new(
            Matrix::from_rows(&[&[1.0], &[-1.0]]).unwrap(),
            vec![1.0, -3.0],
            vec![1.0],
        )
        .unwrap();
        assert_eq!(Simplex::default().solve(&lp).status, LpStatus::Infeasible);
        // A zero row with b < 0 (0 ≤ −1).
        let lp = LpProblem::new(
            Matrix::from_rows(&[&[0.0], &[1.0]]).unwrap(),
            vec![-1.0, 3.0],
            vec![1.0],
        )
        .unwrap();
        assert_eq!(Simplex::default().solve(&lp).status, LpStatus::Infeasible);
    }

    #[test]
    fn handles_negative_b_feasible() {
        // −x0 − x1 ≤ −1 (x0 + x1 ≥ 1), x0 ≤ 2, x1 ≤ 2, max x0 + x1 → 4.
        let lp = LpProblem::new(
            Matrix::from_rows(&[&[-1.0, -1.0], &[1.0, 0.0], &[0.0, 1.0]]).unwrap(),
            vec![-1.0, 2.0, 2.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        let sol = Simplex::default().solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 4.0).abs() < 1e-9);
    }

    #[test]
    fn agrees_with_pdip_on_random_instances() {
        use crate::NormalEqPdip;
        for seed in 0..8 {
            let lp = RandomLp::paper(15, 200 + seed).feasible();
            let s = Simplex::default().solve(&lp);
            let p = NormalEqPdip::default().solve(&lp);
            assert_eq!(s.status, LpStatus::Optimal, "simplex failed on seed {seed}");
            assert_eq!(p.status, LpStatus::Optimal, "pdip failed on seed {seed}");
            let rel = (s.objective - p.objective).abs() / (1.0 + s.objective.abs());
            assert!(
                rel < 1e-6,
                "seed {seed}: simplex {} vs pdip {}",
                s.objective,
                p.objective
            );
        }
    }

    #[test]
    fn agrees_on_infeasible_instances() {
        for seed in 0..4 {
            let lp = RandomLp::paper(10, 300 + seed).infeasible();
            assert_eq!(
                Simplex::default().solve(&lp).status,
                LpStatus::Infeasible,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn solution_is_feasible() {
        let lp = RandomLp::paper(30, 17).feasible();
        let sol = Simplex::default().solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(lp.is_feasible(&sol.x, 1e-7));
    }

    #[test]
    fn degenerate_square_lp() {
        // All-zero objective: any feasible vertex is optimal.
        let lp = LpProblem::new(
            Matrix::from_rows(&[&[1.0, 1.0]]).unwrap(),
            vec![1.0],
            vec![0.0, 0.0],
        )
        .unwrap();
        let sol = Simplex::default().solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective, 0.0);
    }
}
