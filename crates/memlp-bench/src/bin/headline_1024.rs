//! Targeted m = 1024 headline experiment (the paper's §4.4 scale) for
//! EXPERIMENTS.md: both solvers, feasible + infeasible, all variation
//! levels, against the measured software baseline.

use memlp_bench::experiments::{report_reference_misses, run_one, SolverKind};
use memlp_bench::{cpu_energy_j, fmt_energy, fmt_time, Stats, Table};
use memlp_lp::generator::RandomLp;
use memlp_lp::LpStatus;
use memlp_solvers::{LpSolver, NormalEqPdip};
use std::time::Instant;

fn main() {
    let m = 1024;
    let trials = 2;
    println!("m = {m} headline experiment ({trials} trials/cell)");

    // The software baseline: `trials` draws of each kind, every one timed
    // and its verdict counted.
    let expected = |infeasible: bool| {
        if infeasible {
            LpStatus::Infeasible
        } else {
            LpStatus::Optimal
        }
    };
    let baseline = |first_seed: u64, infeasible: bool| {
        let mut wall = Stats::new();
        let mut statuses = Vec::with_capacity(trials);
        for seed in first_seed..first_seed + trials as u64 {
            let gen = RandomLp::paper(m, seed);
            let lp = if infeasible {
                gen.infeasible()
            } else {
                gen.feasible()
            };
            let t0 = Instant::now();
            statuses.push(NormalEqPdip::default().solve(&lp).status);
            wall.push(t0.elapsed().as_secs_f64());
        }
        report_reference_misses(
            &format!("software baseline from seed {first_seed}"),
            statuses,
            expected(infeasible),
        );
        wall
    };
    let sw_feas = baseline(9000, false);
    let sw_inf = baseline(9100, true);
    println!(
        "software feasible {} infeasible {}",
        fmt_time(sw_feas.mean()),
        fmt_time(sw_inf.mean())
    );

    let mut table = Table::new(
        format!("m = {m}: headline latency/energy (paper §4.4 comparison)"),
        &[
            "workload",
            "solver",
            "var %",
            "latency",
            "energy",
            "err %",
            "iters",
            "speedup",
            "energy ratio",
            "ok",
        ],
    );
    for kind in [SolverKind::Alg2, SolverKind::Alg1] {
        // Algorithm 1 at this size costs ~20 s of simulation per solve;
        // keep its grid to the endpoints.
        let vars: &[f64] = if kind == SolverKind::Alg1 {
            &[0.0, 20.0]
        } else {
            &[0.0, 5.0, 10.0, 20.0]
        };
        for &var in vars {
            for (label, infeasible, sw) in
                [("feasible", false, &sw_feas), ("infeasible", true, &sw_inf)]
            {
                let expected = expected(infeasible);
                let mut lat = Stats::new();
                let mut en = Stats::new();
                let mut err = Stats::new();
                let mut iters = Stats::new();
                let mut ok = 0;
                let mut references = Vec::with_capacity(trials);
                for t in 0..trials {
                    let seed = 9200 + t as u64 + (var as u64) * 7;
                    let gen = RandomLp::paper(m, seed);
                    let lp = if infeasible {
                        gen.infeasible()
                    } else {
                        gen.feasible()
                    };
                    let o = run_one(kind, &lp, var, seed);
                    references.push(o.reference);
                    if o.status == expected {
                        ok += 1;
                        lat.push(o.hw_run_s);
                        en.push(o.hw_energy_j);
                        err.push(o.rel_error);
                        iters.push(o.iterations as f64);
                    }
                }
                table.row(vec![
                    label.into(),
                    kind.label().into(),
                    format!("{var:.0}"),
                    fmt_time(lat.mean()),
                    fmt_energy(en.mean()),
                    format!("{:.3}", err.mean() * 100.0),
                    format!("{:.0}", iters.mean()),
                    format!("{:.1}x", sw.mean() / lat.mean()),
                    format!("{:.1}x", cpu_energy_j(sw.mean()) / en.mean()),
                    format!("{ok}/{trials}"),
                ]);
                report_reference_misses(
                    &format!("{} {label} var {var}", kind.label()),
                    references,
                    expected,
                );
            }
        }
    }
    table.finish("headline_1024");
}
