//! **Ablation A5** — variation distribution. The paper models process
//! variation as uniform with a maximum range (§4.1) because the true
//! distribution is "too complex to be expressed by a mathematical
//! closed-form solution". How sensitive are the results to that choice?
//! This ablation re-runs the accuracy experiment with a Gaussian whose 3σ
//! equals the same maximum.

use memlp_bench::{run_trials, trials, Stats, Table};
use memlp_core::{CrossbarPdipSolver, CrossbarSolverOptions};
use memlp_crossbar::CrossbarConfig;
use memlp_device::VariationModel;
use memlp_lp::generator::RandomLp;
use memlp_solvers::{LpSolver, NormalEqPdip};

fn main() {
    let m = 64;
    let trials = trials(4);
    println!("Ablation: variation distribution at m = {m}, {trials} trials");

    let mut t = Table::new(
        "Uniform vs Gaussian (3σ = max) process variation — Algorithm 1 accuracy",
        &[
            "max var %",
            "distribution",
            "mean err %",
            "max err %",
            "success",
        ],
    );
    for var in [5.0, 10.0, 20.0] {
        for (name, model) in [
            ("uniform", VariationModel::uniform_pct(var)),
            ("gaussian", VariationModel::gaussian_pct(var)),
        ] {
            let outcomes = run_trials(trials, |trial| {
                let seed = 7000 + trial as u64;
                let lp = RandomLp::paper(m, seed).feasible();
                let reference = NormalEqPdip::default().solve(&lp);
                let cfg = CrossbarConfig {
                    variation: model,
                    ..CrossbarConfig::paper_default().with_seed(seed)
                };
                let r = CrossbarPdipSolver::new(cfg, CrossbarSolverOptions::default()).solve(&lp);
                if r.solution.status.is_optimal() {
                    Some(
                        (r.solution.objective - reference.objective).abs()
                            / (1.0 + reference.objective.abs()),
                    )
                } else {
                    None
                }
            });
            let ok = outcomes.iter().filter(|o| o.is_some()).count();
            let errs: Stats = outcomes.into_iter().flatten().collect();
            t.row(vec![
                format!("{var:.0}"),
                name.into(),
                format!("{:.3}", errs.mean() * 100.0),
                format!("{:.3}", errs.max() * 100.0),
                format!("{ok}/{trials}"),
            ]);
        }
    }
    t.finish("ablation_variation_model");
    println!("\nExpected shape: Gaussian (mass concentrated near zero) is milder than");
    println!("uniform at the same maximum — the paper's uniform model is conservative.");
}
