//! **Ablation A2** — the RU/RL fill magnitude of Algorithm 2 (§3.4). The
//! paper only says the fill values are "very small"; this ablation sweeps
//! the magnitude and shows the working range: too small amplifies the
//! weakly determined dual directions, too large corrupts the step quality.

use memlp_bench::{run_trials, trials, Stats, Table};
use memlp_core::{LargeScaleOptions, LargeScaleSolver};
use memlp_crossbar::CrossbarConfig;
use memlp_lp::generator::RandomLp;
use memlp_solvers::{LpSolver, NormalEqPdip};

fn main() {
    let m = 64;
    let trials = trials(4);
    println!("Ablation: Algorithm 2 fill scale at m = {m}, 10% variation, {trials} trials");

    let mut t = Table::new(
        "Algorithm 2 vs RU/RL fill magnitude (relative to mean |A|)",
        &["fill", "mean err %", "max err %", "mean iters", "success"],
    );
    for fill in [0.005, 0.02, 0.05, 0.1, 0.3, 1.0] {
        let outcomes = run_trials(trials, |trial| {
            let seed = 5000 + trial as u64;
            let lp = RandomLp::paper(m, seed).feasible();
            let reference = NormalEqPdip::default().solve(&lp);
            let opts = LargeScaleOptions {
                fill_scale: fill,
                ..LargeScaleOptions::default()
            };
            let r = LargeScaleSolver::new(
                CrossbarConfig::paper_default()
                    .with_variation(10.0)
                    .with_seed(seed),
                opts,
            )
            .solve(&lp);
            if r.solution.status.is_optimal() {
                Some((
                    (r.solution.objective - reference.objective).abs()
                        / (1.0 + reference.objective.abs()),
                    r.solution.iterations as f64,
                ))
            } else {
                None
            }
        });
        let ok = outcomes.iter().filter(|o| o.is_some()).count();
        let errs: Stats = outcomes.iter().flatten().map(|(e, _)| *e).collect();
        let iters: Stats = outcomes.iter().flatten().map(|(_, i)| *i).collect();
        t.row(vec![
            format!("{fill}"),
            format!("{:.3}", errs.mean() * 100.0),
            format!("{:.3}", errs.max() * 100.0),
            format!("{:.1}", iters.mean()),
            format!("{ok}/{trials}"),
        ]);
    }
    t.finish("ablation_fill");
}
