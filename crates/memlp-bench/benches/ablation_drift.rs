//! **Ablation A8** — conductance drift and periodic refresh (beyond-paper
//! physical effect). The paper assumes perfect retention during a solve —
//! reasonable at millisecond timescales and second-scale retention. This
//! ablation sweeps the retention time constant τ and shows (a) when the
//! assumption breaks and (b) how much a periodic static-block refresh
//! buys back, at what write cost.

use memlp_bench::{run_trials, trials, Stats, Table};
use memlp_core::{CrossbarPdipSolver, CrossbarSolverOptions};
use memlp_crossbar::CrossbarConfig;
use memlp_device::DriftModel;
use memlp_lp::generator::RandomLp;
use memlp_solvers::{LpSolver, NormalEqPdip};

fn main() {
    let m = 48;
    let trials = trials(4);
    println!("Ablation: retention τ × refresh cadence at m = {m}, 5% variation, {trials} trials");
    println!("(a solve at this size runs ~2-20 ms of hardware time)");

    let mut t = Table::new(
        "Algorithm 1 vs drift time constant and refresh cadence",
        &[
            "tau",
            "refresh every",
            "mean err %",
            "max err %",
            "success",
            "extra writes",
        ],
    );
    for (tau_label, tau) in [
        ("none", None),
        ("10 s", Some(10.0)),
        ("1 s", Some(1.0)),
        ("100 ms", Some(0.1)),
        ("30 ms", Some(0.03)),
    ] {
        for refresh in [0usize, 10] {
            if tau.is_none() && refresh > 0 {
                continue;
            }
            let outcomes = run_trials(trials, |trial| {
                let seed = 11_000 + trial as u64;
                let lp = RandomLp::paper(m, seed).feasible();
                let reference = NormalEqPdip::default().solve(&lp);
                let cfg = CrossbarConfig {
                    drift: tau
                        .map(DriftModel::exponential)
                        .unwrap_or_else(DriftModel::none),
                    ..CrossbarConfig::paper_default()
                        .with_variation(5.0)
                        .with_seed(seed)
                };
                let opts = CrossbarSolverOptions {
                    refresh_every: refresh,
                    ..Default::default()
                };
                let r = CrossbarPdipSolver::new(cfg, opts).solve(&lp);
                let err = if r.solution.status.is_optimal() {
                    (r.solution.objective - reference.objective).abs()
                        / (1.0 + reference.objective.abs())
                } else {
                    f64::NAN
                };
                (
                    err,
                    r.ledger.counts().update_writes as f64,
                    r.solution.status.is_optimal(),
                )
            });
            let ok = outcomes.iter().filter(|o| o.2).count();
            let errs: Stats = outcomes.iter().map(|o| o.0).collect();
            let writes: Stats = outcomes.iter().map(|o| o.1).collect();
            t.row(vec![
                tau_label.into(),
                if refresh == 0 {
                    "never".into()
                } else {
                    refresh.to_string()
                },
                format!("{:.3}", errs.mean() * 100.0),
                format!("{:.3}", errs.max() * 100.0),
                format!("{ok}/{trials}"),
                format!("{:.0}", writes.mean()),
            ]);
        }
    }
    t.finish("ablation_drift");
    println!("\nExpected shape: harmless until τ approaches the solve duration; refresh");
    println!("restores accuracy at the price of periodic O(nnz) rewrites.");
}
