//! **Ablation A7** — workload sparsity (§3.5). The paper notes the O(N²)
//! crossbar initialization "will be lower for sparse matrices that are
//! common in linear programs": erased cells need no write pulses, so setup
//! cost is proportional to nnz. This ablation sweeps constraint-matrix
//! density and reports setup vs run cost and accuracy.

use memlp_bench::{fmt_time, run_trials, trials, Stats, Table};
use memlp_core::{CrossbarPdipSolver, CrossbarSolverOptions};
use memlp_crossbar::CrossbarConfig;
use memlp_linalg::SparseMatrix;
use memlp_lp::generator::RandomLp;
use memlp_solvers::{LpSolver, NormalEqPdip};

fn main() {
    let m = 96;
    let trials = trials(4);
    println!("Ablation: constraint-matrix density at m = {m}, 5% variation, {trials} trials");

    let mut t = Table::new(
        "Setup cost is nnz-proportional; run cost and accuracy are density-independent",
        &[
            "density",
            "nnz(A)",
            "setup writes",
            "setup time",
            "run time",
            "mean err %",
            "success",
        ],
    );
    for density in [1.0, 0.5, 0.25, 0.1] {
        let outcomes = run_trials(trials, |trial| {
            let seed = 10_000 + trial as u64;
            let gen = RandomLp {
                density,
                ..RandomLp::paper(m, seed)
            };
            let lp = gen.feasible();
            let nnz = SparseMatrix::from_dense(lp.a()).nnz();
            let reference = NormalEqPdip::default().solve(&lp);
            let r = CrossbarPdipSolver::new(
                CrossbarConfig::paper_default()
                    .with_variation(5.0)
                    .with_seed(seed),
                CrossbarSolverOptions::default(),
            )
            .solve(&lp);
            let err = if r.solution.status.is_optimal() && reference.status.is_optimal() {
                (r.solution.objective - reference.objective).abs()
                    / (1.0 + reference.objective.abs())
            } else {
                f64::NAN
            };
            (
                nnz as f64,
                r.ledger.counts().setup_writes as f64,
                r.ledger.setup_time_s(),
                r.ledger.run_time_s(),
                err,
                r.solution.status.is_optimal(),
            )
        });
        let ok = outcomes.iter().filter(|o| o.5).count();
        let nnz: Stats = outcomes.iter().map(|o| o.0).collect();
        let writes: Stats = outcomes.iter().map(|o| o.1).collect();
        let setup: Stats = outcomes.iter().map(|o| o.2).collect();
        let run: Stats = outcomes.iter().map(|o| o.3).collect();
        let errs: Stats = outcomes.iter().map(|o| o.4).collect();
        t.row(vec![
            format!("{density}"),
            format!("{:.0}", nnz.mean()),
            format!("{:.0}", writes.mean()),
            fmt_time(setup.mean()),
            fmt_time(run.mean()),
            format!("{:.3}", errs.mean() * 100.0),
            format!("{ok}/{trials}"),
        ]);
    }
    t.finish("ablation_sparsity");
    println!("\nExpected shape: setup writes/time fall roughly linearly with density;");
    println!("per-iteration run cost (diagonal rewrites) is density-independent.");
}
