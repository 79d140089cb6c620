//! **Ablation A6** — simulation fidelity. The functional model perturbs
//! logical coefficients (the paper's Eqn 18 exactly); the circuit model
//! adds the physical non-idealities the paper abstracts away: `g_off`
//! leakage through "zero" cells and the Eqn-5 output divider. This
//! ablation quantifies the gap on raw crossbar operations.

use memlp_bench::{run_trials, trials, Stats, Table};
use memlp_crossbar::{Crossbar, CrossbarConfig, ReadoutMode};
use memlp_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let trials = trials(6);
    println!("Ablation: functional vs circuit fidelity on raw crossbar ops ({trials} trials)");

    let mut t = Table::new(
        "MVM / solve max relative error vs exact math (10% variation, 8-bit I/O)",
        &["n", "fidelity", "readout", "mvm err %", "solve err %"],
    );
    for &n in &[8usize, 16, 32] {
        for (fname, circuit) in [("functional", false), ("circuit", true)] {
            for (rname, readout) in [
                ("calibrated", ReadoutMode::Calibrated),
                ("raw-divider", ReadoutMode::RawDivider),
            ] {
                if !circuit && readout == ReadoutMode::RawDivider {
                    continue; // read-out mode only matters at circuit fidelity
                }
                let errs: Vec<(f64, f64)> = run_trials(trials, |trial| {
                    let seed = 8000 + trial as u64;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let a = Matrix::from_fn(n, n, |i, j| {
                        let v: f64 = rng.random_range(0.05..1.0);
                        v + if i == j { 3.0 } else { 0.0 }
                    });
                    let x: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
                    let b: Vec<f64> = (0..n).map(|_| rng.random_range(0.5..2.0)).collect();
                    let mut cfg = CrossbarConfig::paper_default()
                        .with_variation(10.0)
                        .with_seed(seed);
                    cfg.readout = readout;
                    if circuit {
                        cfg = cfg.circuit();
                    }
                    let mut xb = Crossbar::new(n, cfg).expect("fits");
                    xb.program(&a).expect("non-negative");

                    let y = xb.mvm(&x).expect("shapes");
                    let exact = a.matvec(&x);
                    let scale = exact.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                    let mvm_err = y
                        .iter()
                        .zip(&exact)
                        .map(|(g, w)| (g - w).abs())
                        .fold(0.0f64, f64::max)
                        / scale;

                    let xs = xb.solve(&b).expect("non-singular");
                    let back = a.matvec(&xs);
                    let bscale = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                    let solve_err = back
                        .iter()
                        .zip(&b)
                        .map(|(g, w)| (g - w).abs())
                        .fold(0.0f64, f64::max)
                        / bscale;
                    (mvm_err, solve_err)
                });
                let mvm: Stats = errs.iter().map(|(a, _)| *a).collect();
                let solve: Stats = errs.iter().map(|(_, b)| *b).collect();
                t.row(vec![
                    n.to_string(),
                    fname.into(),
                    if circuit { rname.into() } else { "-".into() },
                    format!("{:.3}", mvm.mean() * 100.0),
                    format!("{:.3}", solve.mean() * 100.0),
                ]);
            }
        }
    }
    t.finish("ablation_fidelity");
    println!("\nExpected shape: circuit fidelity with calibrated read-out tracks the");
    println!("functional model; the raw-divider read-out of [8] pays a visible penalty;");
    println!("all gaps grow with array size as g_off leakage accumulates per column.");
}
