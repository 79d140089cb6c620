//! **Ablation A1** — converter resolution. The paper fixes all voltage I/O
//! at 8 bits (§4.1); this ablation sweeps the ADC/DAC width and shows
//! where the accuracy saturates, justifying that design point.

use memlp_bench::{run_trials, trials, Stats, Table};
use memlp_core::{CrossbarPdipSolver, CrossbarSolverOptions};
use memlp_crossbar::CrossbarConfig;
use memlp_lp::generator::RandomLp;
use memlp_solvers::{LpSolver, NormalEqPdip};

fn main() {
    let m = 64;
    let trials = trials(4);
    println!("Ablation: ADC/DAC bit width at m = {m}, 10% variation, {trials} trials");

    let mut t = Table::new(
        "Accuracy vs converter resolution (Algorithm 1, 10% variation)",
        &["bits", "mean err %", "max err %", "success"],
    );
    for bits in [4u32, 6, 8, 10, 12, 16] {
        let outcomes = run_trials(trials, |trial| {
            let seed = 4000 + trial as u64;
            let lp = RandomLp::paper(m, seed).feasible();
            let reference = NormalEqPdip::default().solve(&lp);
            let cfg = CrossbarConfig {
                adc_bits: bits,
                dac_bits: bits,
                ..CrossbarConfig::paper_default()
                    .with_variation(10.0)
                    .with_seed(seed)
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
            bits.to_string(),
            format!("{:.3}", errs.mean() * 100.0),
            format!("{:.3}", errs.max() * 100.0),
            format!("{ok}/{trials}"),
        ]);
    }
    t.finish("ablation_bits");
    println!("\nExpected shape: error falls steeply to ~8 bits, then saturates at the");
    println!("process-variation floor — the paper's 8-bit choice is the knee.");
}
