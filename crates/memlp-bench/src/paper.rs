//! The paper's §4 evaluation in one pass: Figs 5–7, the §4.2/§4.3
//! iteration study, the §4.4 headline and the §4.3 variation control.
//!
//! [`run`] computes each experiment once and prints every table from the
//! shared results, mirroring each into `target/memlp-results/<name>.csv`:
//!
//! | table | CSV | built from |
//! |---|---|---|
//! | Fig 5(a)/(b) accuracy | `fig5a_accuracy`, `fig5b_accuracy_large` | feasible grids |
//! | Fig 6(a)/(b) latency | `fig6a_latency`, `fig6b_latency_large` | feasible grids + software baseline |
//! | Fig 7(a)/(b) energy | `fig7a_energy`, `fig7b_energy_large` | feasible grids + software baseline |
//! | iteration study | `iterations_table` | feasible grids + infeasible grids at {0, 20}% |
//! | §4.4 headline | `headline_table` | its own draws at the sweep's largest size |
//! | §4.3 control | `variation_control` | software solves on perturbed LPs |
//!
//! Hardware columns are *estimated* as in the paper: simulated iteration
//! counts × per-iteration hardware activity, costed by the `CostLedger`.
//! Software columns are *measured* wall-clock of the Rust baselines
//! (`linprog-sub` is `NormalEqPdip`; dense PDIP is timed up to m = 256),
//! and CPU energy is that time × 35 W. Paper results, for reading the
//! tables: 0.2%–9.9% (Alg 1) and 0.8%–8.5% (Alg 2) inaccuracy; at
//! m = 1024, 78–239 ms and 0.9–12.1 J for Algorithm 1 against 6.23 s and
//! 218.1 J for `linprog` (≥ 26× speed, ≥ 24× energy), < 80 ms for
//! Algorithm 2, ~273× energy for Algorithm 2, and ≥ 113× on infeasibility
//! detection (265 ms / 10.9 J against ~30 s / 1023 J).

use std::process::Command;
use std::time::Instant;

use memlp_device::VariationModel;
use memlp_linalg::parallel::Threads;
use memlp_linalg::Matrix;
use memlp_lp::generator::RandomLp;
use memlp_lp::LpProblem;
use memlp_solvers::{LpSolver, NormalEqPdip};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::experiments::{
    draw, expected, feasible_grid, infeasible_grid, report_reference_misses, run_one,
    software_latency, GridPoint, SolverKind,
};
use crate::{cpu_energy_j, fmt_energy, fmt_time, run_trials, Stats, Sweep, Table};

/// Runs the whole §4 suite on [`Sweep::paper`] and prints its tables.
pub fn run() {
    let sweep = Sweep::paper();
    println!("{}", header(&sweep));

    let alg1 = feasible_grid(SolverKind::Alg1, &sweep);
    let alg2 = feasible_grid(SolverKind::Alg2, &sweep);
    accuracy_table(
        "Fig 5(a): relative error of Algorithm 1 vs reference (mean over optimal trials)",
        &alg1,
        "fig5a_accuracy",
        "≤ ~10%",
    );
    accuracy_table(
        "Fig 5(b): relative error of Algorithm 2 (large-scale) vs reference",
        &alg2,
        "fig5b_accuracy_large",
        "≤ ~8.5%",
    );

    // Software baselines once per size (dense PDIP capped: O(N³)/iteration).
    let software: Vec<(Stats, Stats)> = sweep
        .sizes
        .iter()
        .map(|&m| software_latency(m, sweep.trials.min(3), 256))
        .collect();
    latency_tables(&sweep, &alg1, &alg2, &software);
    energy_tables(&sweep, &alg1, &alg2, &software);

    let infeasible_sweep = sweep.clone().with_variations(vec![0.0, 20.0]);
    iterations_table(&[
        (
            SolverKind::Alg1,
            &alg1,
            &infeasible_grid(SolverKind::Alg1, &infeasible_sweep),
        ),
        (
            SolverKind::Alg2,
            &alg2,
            &infeasible_grid(SolverKind::Alg2, &infeasible_sweep),
        ),
    ]);
    headline(&sweep);
    variation_control(&sweep);
}

/// The one-line provenance header: host, threads, commit and sweep.
fn header(sweep: &Sweep) -> String {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "memlp §4 evaluation — host {}/{} ({available} available threads), {} solver threads, \
         commit {commit}, sizes {:?}, variation {:?}%, {} trials/point",
        std::env::consts::OS,
        std::env::consts::ARCH,
        Threads::resolve().get(),
        sweep.sizes,
        sweep.variations,
        sweep.trials
    )
}

/// Fig 5: relative objective error per grid point, and the worst case.
fn accuracy_table(title: &str, grid: &[GridPoint], csv: &str, paper: &str) {
    let mut t = Table::new(title, "m,var %,mean err %,max err %,success,iterations");
    for p in grid {
        t.row(vec![
            p.m.to_string(),
            format!("{:.0}", p.var_pct),
            format!("{:.3}", p.rel_error.mean() * 100.0),
            format!("{:.3}", p.rel_error.max() * 100.0),
            format!("{:.0}%", p.success_rate * 100.0),
            format!("{:.1}", p.iterations.mean()),
        ]);
    }
    t.finish(csv);

    let worst = grid
        .iter()
        .map(|p| p.rel_error.max())
        .fold(0.0f64, f64::max);
    println!(
        "\nworst-case error anywhere on the grid: {:.2}% (paper: {paper})",
        worst * 100.0
    );
}

/// The mean of `pick` at grid point (`m`, `var`), NaN when absent.
fn at(grid: &[GridPoint], m: usize, var: f64, pick: impl Fn(&GridPoint) -> f64) -> f64 {
    grid.iter()
        .find(|p| p.m == m && p.var_pct == var)
        .map_or(f64::NAN, pick)
}

/// Fig 6: estimated crossbar latency against the measured software time.
fn latency_tables(
    sweep: &Sweep,
    alg1: &[GridPoint],
    alg2: &[GridPoint],
    software: &[(Stats, Stats)],
) {
    let mut a = Table::new(
        "Fig 6(a): estimated latency, Algorithm 1 vs software",
        "m,var %,crossbar (est),linprog-sub (wall),dense PDIP (wall),speedup",
    );
    let mut b = Table::new(
        "Fig 6(b): estimated latency, Algorithm 2 (large-scale) vs software",
        "m,var %,crossbar (est),linprog-sub (wall),speedup",
    );
    for (&m, (normal, dense)) in sweep.sizes.iter().zip(software) {
        for p in alg1.iter().filter(|p| p.m == m) {
            a.row(vec![
                m.to_string(),
                format!("{:.0}", p.var_pct),
                fmt_time(p.hw_run_s.mean()),
                fmt_time(normal.mean()),
                fmt_time(dense.mean()),
                format!("{:.1}x", normal.mean() / p.hw_run_s.mean()),
            ]);
        }
        for p in alg2.iter().filter(|p| p.m == m) {
            b.row(vec![
                m.to_string(),
                format!("{:.0}", p.var_pct),
                fmt_time(p.hw_run_s.mean()),
                fmt_time(normal.mean()),
                format!("{:.1}x", normal.mean() / p.hw_run_s.mean()),
            ]);
        }
    }
    a.finish("fig6a_latency");
    println!("\nShape checks (paper’s qualitative claims):");
    for &m in &sweep.sizes {
        let latency = |v| at(alg1, m, v, |p| p.hw_run_s.mean());
        println!(
            "  m={m:>5}: latency var0={} var20={} (paper: grows with variation)",
            fmt_time(latency(0.0)),
            fmt_time(latency(20.0))
        );
    }
    b.finish("fig6b_latency_large");
}

/// Fig 7: estimated crossbar energy against the 35 W CPU model.
fn energy_tables(
    sweep: &Sweep,
    alg1: &[GridPoint],
    alg2: &[GridPoint],
    software: &[(Stats, Stats)],
) {
    let tables = [
        (
            "Fig 7(a): estimated energy, Algorithm 1 vs software (35 W CPU model)",
            alg1,
            "fig7a_energy",
        ),
        (
            "Fig 7(b): estimated energy, Algorithm 2 (large-scale) vs software (35 W CPU model)",
            alg2,
            "fig7b_energy_large",
        ),
    ];
    for (title, grid, csv) in tables {
        let mut t = Table::new(title, "m,var %,crossbar (est),linprog-sub (cpu),ratio");
        for (&m, (normal, _)) in sweep.sizes.iter().zip(software) {
            let cpu = cpu_energy_j(normal.mean());
            for p in grid.iter().filter(|p| p.m == m) {
                t.row(vec![
                    m.to_string(),
                    format!("{:.0}", p.var_pct),
                    fmt_energy(p.hw_energy_j.mean()),
                    fmt_energy(cpu),
                    format!("{:.1}x", cpu / p.hw_energy_j.mean()),
                ]);
            }
        }
        t.finish(csv);
    }
    println!("\nShape check: Algorithm 1 energy grows with variation (write-verify + iterations):");
    for &m in &sweep.sizes {
        let energy = |v| at(alg1, m, v, |p| p.hw_energy_j.mean());
        println!(
            "  m={m:>5}: var0={} var20={}",
            fmt_energy(energy(0.0)),
            fmt_energy(energy(20.0))
        );
    }
}

/// §4.2/§4.3: iterations to converge and to detect infeasibility, per
/// solver as `(kind, feasible grid, infeasible grid)`.
fn iterations_table(grids: &[(SolverKind, &[GridPoint], &[GridPoint])]) {
    let mut t = Table::new(
        "Iterations to converge / to detect infeasibility",
        "solver,workload,m,var %,mean iters,min,max,success",
    );
    for &(kind, feasible, infeasible) in grids {
        for (workload, grid) in [("feasible", feasible), ("infeasible", infeasible)] {
            for p in grid {
                t.row(vec![
                    kind.label().into(),
                    workload.into(),
                    p.m.to_string(),
                    format!("{:.0}", p.var_pct),
                    format!("{:.1}", p.iterations.mean()),
                    format!("{:.0}", p.iterations.min()),
                    format!("{:.0}", p.iterations.max()),
                    format!("{:.0}%", p.success_rate * 100.0),
                ]);
            }
        }
    }
    t.finish("iterations_table");
}

/// §4.4: both algorithms at every variation level, feasible and
/// infeasible, at the sweep's largest size against the software baseline.
/// Every baseline solve is timed; the ones that miss their verdict are
/// counted in the `ok` column and printed, not dropped.
fn headline(sweep: &Sweep) {
    let m = *sweep.sizes.last().expect("non-empty sweep");
    let trials = sweep.trials.min(5);
    println!("\n§4.4 headline at m = {m} ({trials} trials/cell)");
    let baseline = |first_seed: u64, infeasible: bool| {
        let runs = run_trials(trials, |t| {
            let lp = draw(m, first_seed + t as u64, infeasible);
            let t0 = Instant::now();
            let status = NormalEqPdip::default().solve(&lp).status;
            (t0.elapsed().as_secs_f64(), status)
        });
        report_reference_misses(
            &format!("software baseline from seed {first_seed}"),
            runs.iter().map(|&(_, status)| status),
            expected(infeasible),
        );
        let ok = runs
            .iter()
            .filter(|&&(_, status)| status == expected(infeasible))
            .count();
        let wall: Stats = runs.into_iter().map(|(wall, _)| wall).collect();
        (wall, ok)
    };
    let software = [
        ("feasible", false, baseline(9000, false)),
        ("infeasible", true, baseline(9100, true)),
    ];

    let mut t = Table::new(
        format!("§4.4 headline (m = {m}): latency & energy vs variation"),
        "workload,solver,var %,latency,energy,err %,iters,speedup,energy ratio,ok",
    );
    for (label, _, (wall, ok)) in &software {
        t.row(vec![
            (*label).into(),
            "linprog-sub".into(),
            "-".into(),
            fmt_time(wall.mean()),
            fmt_energy(cpu_energy_j(wall.mean())),
            "-".into(),
            "-".into(),
            "1.0x".into(),
            "1.0x".into(),
            format!("{ok}/{trials}"),
        ]);
    }
    for kind in [SolverKind::Alg1, SolverKind::Alg2] {
        for &var in &sweep.variations {
            for (label, infeasible, (sw, _)) in &software {
                let outcomes = run_trials(trials, |tr| {
                    let seed = 9200 + tr as u64 + (var as u64) * 7;
                    run_one(kind, &draw(m, seed, *infeasible), var, seed)
                });
                let expected = expected(*infeasible);
                report_reference_misses(
                    &format!("{} {label} var {var}", kind.label()),
                    outcomes.iter().map(|o| o.reference),
                    expected,
                );
                let ok: Vec<_> = outcomes.iter().filter(|o| o.status == expected).collect();
                let lat: Stats = ok.iter().map(|o| o.hw_run_s).collect();
                let en: Stats = ok.iter().map(|o| o.hw_energy_j).collect();
                let err: Stats = ok.iter().map(|o| o.rel_error).collect();
                let iters: Stats = ok.iter().map(|o| o.iterations as f64).collect();
                t.row(vec![
                    (*label).into(),
                    kind.label().into(),
                    format!("{var:.0}"),
                    fmt_time(lat.mean()),
                    fmt_energy(en.mean()),
                    format!("{:.3}", err.mean() * 100.0),
                    format!("{:.0}", iters.mean()),
                    format!("{:.1}x", sw.mean() / lat.mean()),
                    format!("{:.1}x", cpu_energy_j(sw.mean()) / en.mean()),
                    format!("{}/{trials}", ok.len()),
                ]);
            }
        }
    }
    t.finish("headline_table");
}

/// Applies Eqn 18 to a whole LP digitally (A, b, c all perturbed).
fn perturb_lp(lp: &LpProblem, var_pct: f64, seed: u64) -> LpProblem {
    let var = VariationModel::uniform_pct(var_pct);
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::from_fn(lp.num_constraints(), lp.num_vars(), |i, j| {
        var.perturb(lp.a()[(i, j)], &mut rng)
    });
    let b = lp.b().iter().map(|&v| var.perturb(v, &mut rng)).collect();
    let c = lp.c().iter().map(|&v| var.perturb(v, &mut rng)).collect();
    LpProblem::new(a, b, c).expect("perturbation preserves shapes")
}

/// §4.3 control: the *software* solver on LPs perturbed by the same
/// variation model errs by the same magnitude as the crossbar — LPs are
/// insensitive to bounded coefficient noise, more so at larger sizes.
fn variation_control(sweep: &Sweep) {
    let mut t = Table::new(
        "Software (f64) on Eqn-18-perturbed problems: relative objective error",
        "m,var %,mean err %,max err %",
    );
    for &m in &sweep.sizes {
        for &var in sweep.variations.iter().filter(|&&v| v != 0.0) {
            let errs: Stats = run_trials(sweep.trials, |trial| {
                let seed = 3000 + m as u64 * 7 + trial as u64;
                let lp = RandomLp::paper(m, seed).feasible();
                let clean = NormalEqPdip::default().solve(&lp);
                let noisy = NormalEqPdip::default().solve(&perturb_lp(&lp, var, seed ^ 0xA11CE));
                if clean.status.is_optimal() && noisy.status.is_optimal() {
                    (noisy.objective - clean.objective).abs() / (1.0 + clean.objective.abs())
                } else {
                    f64::NAN
                }
            })
            .into_iter()
            .collect();
            t.row(vec![
                m.to_string(),
                format!("{var:.0}"),
                format!("{:.3}", errs.mean() * 100.0),
                format!("{:.3}", errs.max() * 100.0),
            ]);
        }
    }
    t.finish("variation_control");

    println!(
        "\nConclusion check (paper §4.3): these software-side errors should be of the same\n\
         magnitude as the crossbar solver's in Fig 5(a) — LPs are largely insensitive to\n\
         bounded coefficient noise, increasingly so at larger sizes."
    );
}
