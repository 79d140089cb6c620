//! The ablation studies A1–A8 (DESIGN.md §5) in one pass: the paper's
//! design choices — 8-bit converters (§4.1), the RU/RL fill (§3.4), the
//! NoC (§3.4, Fig 3), uniform variation (§4.1), nnz-proportional setup
//! (§3.5) — and the physical effects it abstracts away: stuck-at faults,
//! circuit fidelity and conductance drift.
//!
//! [`run`] prints every table, mirrors each into
//! `target/memlp-results/ablation_<name>.csv`, and prints the shape the
//! table should show. Five studies share one solve-and-compare sweep: draw
//! a feasible §4.2 LP per trial, solve it on a crossbar solver and with
//! the `NormalEqPdip` reference, and report the relative objective error
//! and the success count. `MEMLP_TRIALS=k` overrides every study's trial
//! count.

use memlp_core::{
    CrossbarPdipSolver, CrossbarSolution, CrossbarSolverOptions, LargeScaleOptions,
    LargeScaleSolver,
};
use memlp_crossbar::{CostLedger, Crossbar, CrossbarConfig, FaultModel, ReadoutMode};
use memlp_device::{DriftModel, VariationModel};
use memlp_linalg::{Matrix, SparseMatrix};
use memlp_lp::generator::RandomLp;
use memlp_lp::LpProblem;
use memlp_noc::{NocConfig, TiledCrossbar};
use memlp_solvers::{LpSolver, NormalEqPdip};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{fmt_time, run_trials, trials, Stats, Table};

/// Every study: its CSV name under `target/memlp-results/`, its default
/// trial count, and the function that prints its one-line setup and
/// returns its table at a trial count, noting the shape it should show.
type Study = (&'static str, usize, fn(usize) -> Table);

const STUDIES: [Study; 8] = [
    ("ablation_bits", 4, bits),
    ("ablation_fill", 4, fill),
    ("ablation_noc", 1, noc),
    ("ablation_faults", 4, faults),
    ("ablation_variation_model", 4, variation_model),
    ("ablation_fidelity", 6, fidelity),
    ("ablation_sparsity", 4, sparsity),
    ("ablation_drift", 4, drift),
];

/// Runs every ablation study and prints its table.
pub fn run() {
    for (csv, default_trials, study) in STUDIES {
        study(trials(default_trials)).finish(csv);
    }
}

/// Every study's CSV name and table at `trials` per point.
pub fn tables(trials: usize) -> Vec<(&'static str, Table)> {
    STUDIES
        .into_iter()
        .map(|(csv, _, study)| (csv, study(trials)))
        .collect()
}

/// One trial of a solve-and-compare study.
struct Trial {
    /// The crossbar solve reached `Optimal`.
    optimal: bool,
    /// Relative objective error against the reference; NaN unless the
    /// crossbar solve — and, where the study demands it, the reference —
    /// is optimal.
    err: f64,
    iterations: usize,
    ledger: CostLedger,
}

/// The draws of a solve-and-compare study: feasible §4.2 LPs at `m`
/// constraints and `density`, seeded `seed0 + trial`, each on
/// `CrossbarConfig::paper_default()` hardware at `var_pct` variation
/// seeded likewise.
#[derive(Clone, Copy)]
struct Draws {
    m: usize,
    density: f64,
    var_pct: f64,
    seed0: u64,
}

impl Draws {
    /// Dense draws (the §4.2 generator as is).
    fn paper(m: usize, var_pct: f64, seed0: u64) -> Draws {
        let density = 1.0;
        Draws {
            m,
            density,
            var_pct,
            seed0,
        }
    }

    fn lp(&self, trial: usize) -> LpProblem {
        let seed = self.seed0 + trial as u64;
        RandomLp {
            density: self.density,
            ..RandomLp::paper(self.m, seed)
        }
        .feasible()
    }
}

/// The shared sweep: `trials` draws, each solved by `solve(lp, config)`
/// on the draw's hardware config and by the `NormalEqPdip` reference.
fn compare(
    trials: usize,
    draws: Draws,
    reference_must_be_optimal: bool,
    solve: impl Fn(&LpProblem, CrossbarConfig) -> CrossbarSolution + Sync,
) -> Vec<Trial> {
    run_trials(trials, |trial| {
        let lp = draws.lp(trial);
        let config = CrossbarConfig::paper_default()
            .with_variation(draws.var_pct)
            .with_seed(draws.seed0 + trial as u64);
        let reference = NormalEqPdip::default().solve(&lp);
        let r = solve(&lp, config);
        let optimal = r.solution.status.is_optimal();
        let err = if optimal && (reference.status.is_optimal() || !reference_must_be_optimal) {
            (r.solution.objective - reference.objective).abs() / (1.0 + reference.objective.abs())
        } else {
            f64::NAN
        };
        Trial {
            optimal,
            err,
            iterations: r.solution.iterations,
            ledger: r.ledger,
        }
    })
}

/// Algorithm 1 with default options.
fn alg1(lp: &LpProblem, config: CrossbarConfig) -> CrossbarSolution {
    CrossbarPdipSolver::new(config, CrossbarSolverOptions::default()).solve(lp)
}

/// Mean and max relative error in percent over the trials that have one.
fn err_pct(trials: &[Trial]) -> [String; 2] {
    let errs: Stats = trials.iter().map(|t| t.err).collect();
    [
        format!("{:.3}", errs.mean() * 100.0),
        format!("{:.3}", errs.max() * 100.0),
    ]
}

/// `optimal/total` over the trials.
fn success(trials: &[Trial]) -> String {
    let ok = trials.iter().filter(|t| t.optimal).count();
    format!("{ok}/{}", trials.len())
}

/// **A1** — converter resolution. The paper fixes all voltage I/O at
/// 8 bits (§4.1); sweeping the ADC/DAC width shows where the accuracy
/// saturates, justifying that design point.
fn bits(trials: usize) -> Table {
    let draws = Draws::paper(64, 10.0, 4000);
    println!("Ablation: ADC/DAC bit width at m = 64, 10% variation, {trials} trials");
    let mut t = Table::new(
        "Accuracy vs converter resolution (Algorithm 1, 10% variation)",
        "bits,mean err %,max err %,success",
    )
    .note(
        "Expected shape: error falls steeply to ~8 bits, then saturates at the\n\
        process-variation floor — the paper's 8-bit choice is the knee.",
    );
    for bits in [4u32, 6, 8, 10, 12, 16] {
        let o = compare(trials, draws, false, |lp, config| {
            alg1(
                lp,
                CrossbarConfig {
                    adc_bits: bits,
                    dac_bits: bits,
                    ..config
                },
            )
        });
        let [mean, max] = err_pct(&o);
        t.row(vec![bits.to_string(), mean, max, success(&o)]);
    }
    t
}

/// **A2** — the RU/RL fill magnitude of Algorithm 2 (§3.4). The paper
/// only says the fill values are "very small"; too small amplifies the
/// weakly determined dual directions, too large corrupts the step quality.
fn fill(trials: usize) -> Table {
    let draws = Draws::paper(64, 10.0, 5000);
    println!("Ablation: Algorithm 2 fill scale at m = 64, 10% variation, {trials} trials");
    let mut t = Table::new(
        "Algorithm 2 vs RU/RL fill magnitude (relative to mean |A|)",
        "fill,mean err %,max err %,mean iters,success",
    );
    for fill in [0.005, 0.02, 0.05, 0.1, 0.3, 1.0] {
        let o = compare(trials, draws, false, |lp, config| {
            let options = LargeScaleOptions {
                fill_scale: fill,
                ..Default::default()
            };
            LargeScaleSolver::new(config, options).solve(lp)
        });
        let iters: Stats = o
            .iter()
            .filter(|t| t.optimal)
            .map(|t| t.iterations as f64)
            .collect();
        let [mean, max] = err_pct(&o);
        t.row(vec![
            format!("{fill}"),
            mean,
            max,
            format!("{:.1}", iters.mean()),
            success(&o),
        ]);
    }
    t
}

/// **A3** — NoC topology and tile size (§3.4, Fig 3). For a fixed large
/// matrix, sweeps the physical tile side and compares hierarchical vs
/// mesh fabrics on MVM accuracy and NoC overheads. Deterministic: the
/// trial count is unused.
fn noc(_trials: usize) -> Table {
    let n = 256;
    let a = Matrix::from_fn(n, n, |i, j| {
        0.05 + ((i * 131 + j * 37) % 29) as f64 * 0.03 + if i == j { 6.0 } else { 0.0 }
    });
    let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.21).sin()).collect();
    let exact = a.matvec(&x);
    let mut t = Table::new(
        format!("Tiled {n}×{n} MVM: tile size × topology"),
        "tile,tiles,topology,max err %,noc transfers,noc+array time",
    )
    .note(
        "Expected shape: smaller tiles → more transfers and buffer noise;\n\
        mesh pays more hops than the arbiter tree at high tile counts.",
    );
    for tile in [32usize, 64, 128, 256] {
        for (name, fabric) in [
            ("hierarchical", NocConfig::hierarchical()),
            ("mesh", NocConfig::mesh()),
        ] {
            let mut tiled =
                TiledCrossbar::program(&a, tile, CrossbarConfig::paper_default(), fabric)
                    .expect("fits");
            let y = tiled.mvm(&x).expect("shapes");
            let ledger = tiled.ledger();
            t.row(vec![
                tile.to_string(),
                tiled.tile_count().to_string(),
                name.into(),
                format!("{:.3}", max_rel_err(&y, &exact) * 100.0),
                ledger.counts().noc_transfers.to_string(),
                fmt_time(ledger.run_time_s()),
            ]);
        }
    }
    t
}

/// `max |got − want| / max |want|`.
fn max_rel_err(got: &[f64], want: &[f64]) -> f64 {
    let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    got.iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs())
        .fold(0.0f64, f64::max)
        / scale
}

/// **A4** — stuck-at faults. The paper studies multiplicative variation
/// only; real arrays also suffer hard defects. How much of the PDIP
/// loop's noise tolerance carries over?
fn faults(trials: usize) -> Table {
    let draws = Draws::paper(48, 5.0, 6000);
    println!("Ablation: stuck-at fault rate at m = 48, 5% variation, {trials} trials");
    let mut t = Table::new(
        "Algorithm 1 vs symmetric stuck-at fault rate",
        "fault rate,mean err %,max err %,success",
    )
    .note(
        "Expected shape: graceful degradation through ~1e-3, breakdown near 1e-2 —\n\
        hard defects are costlier than the same magnitude of analog variation.",
    );
    for rate in [0.0, 1e-4, 1e-3, 5e-3, 1e-2] {
        let faults = FaultModel::symmetric(rate).expect("valid fault rate");
        let o = compare(trials, draws, false, |lp, config| {
            alg1(lp, config.with_faults(faults))
        });
        let [mean, max] = err_pct(&o);
        t.row(vec![format!("{rate}"), mean, max, success(&o)]);
    }
    t
}

/// **A5** — variation distribution. The paper models process variation as
/// uniform with a maximum range (§4.1) because the true distribution is
/// "too complex to be expressed by a mathematical closed-form solution";
/// this re-runs the accuracy experiment with a Gaussian whose 3σ equals
/// the same maximum.
fn variation_model(trials: usize) -> Table {
    println!("Ablation: variation distribution at m = 64, {trials} trials");
    let mut t = Table::new(
        "Uniform vs Gaussian (3σ = max) process variation — Algorithm 1 accuracy",
        "max var %,distribution,mean err %,max err %,success",
    )
    .note(
        "Expected shape: Gaussian (mass concentrated near zero) is milder than\n\
        uniform at the same maximum — the paper's uniform model is conservative.",
    );
    for var in [5.0, 10.0, 20.0] {
        for (name, model) in [
            ("uniform", VariationModel::uniform_pct(var)),
            ("gaussian", VariationModel::gaussian_pct(var)),
        ] {
            let draws = Draws::paper(64, var, 7000);
            let o = compare(trials, draws, false, |lp, config| {
                alg1(
                    lp,
                    CrossbarConfig {
                        variation: model,
                        ..config
                    },
                )
            });
            let [mean, max] = err_pct(&o);
            t.row(vec![
                format!("{var:.0}"),
                name.into(),
                mean,
                max,
                success(&o),
            ]);
        }
    }
    t
}

/// **A6** — simulation fidelity. The functional model perturbs logical
/// coefficients (the paper's Eqn 18 exactly); the circuit model adds the
/// physical non-idealities the paper abstracts away: `g_off` leakage
/// through "zero" cells and the Eqn-5 output divider. The gap is measured
/// on raw crossbar operations.
fn fidelity(trials: usize) -> Table {
    println!("Ablation: functional vs circuit fidelity on raw crossbar ops ({trials} trials)");
    let mut t = Table::new(
        "MVM / solve max relative error vs exact math (10% variation, 8-bit I/O)",
        "n,fidelity,readout,mvm err %,solve err %",
    )
    .note(
        "Expected shape: circuit fidelity with calibrated read-out tracks the\n\
        functional model; the raw-divider read-out of [8] pays a visible penalty;\n\
        all gaps grow with array size as g_off leakage accumulates per column.",
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
                    let xs = xb.solve(&b).expect("non-singular");
                    (
                        max_rel_err(&y, &a.matvec(&x)),
                        max_rel_err(&a.matvec(&xs), &b),
                    )
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
    t
}

/// **A7** — workload sparsity (§3.5). The paper notes the O(N²) crossbar
/// initialization "will be lower for sparse matrices that are common in
/// linear programs": erased cells need no write pulses, so setup cost is
/// proportional to nnz. Sweeps constraint-matrix density and reports setup
/// vs run cost and accuracy; only trials whose reference is optimal count
/// toward the error.
fn sparsity(trials: usize) -> Table {
    println!("Ablation: constraint-matrix density at m = 96, 5% variation, {trials} trials");
    let mut t = Table::new(
        "Setup cost is nnz-proportional; run cost and accuracy are density-independent",
        "density,nnz(A),setup writes,setup time,run time,mean err %,success",
    )
    .note(
        "Expected shape: setup writes/time fall roughly linearly with density;\n\
        per-iteration run cost (diagonal rewrites) is density-independent.",
    );
    for density in [1.0, 0.5, 0.25, 0.1] {
        let draws = Draws {
            density,
            ..Draws::paper(96, 5.0, 10_000)
        };
        let o = compare(trials, draws, true, alg1);
        let nnz: Stats = (0..trials)
            .map(|trial| SparseMatrix::from_dense(draws.lp(trial).a()).nnz() as f64)
            .collect();
        let mean_of = |f: fn(&CostLedger) -> f64| -> f64 {
            o.iter().map(|t| f(&t.ledger)).collect::<Stats>().mean()
        };
        let [mean, _] = err_pct(&o);
        t.row(vec![
            format!("{density}"),
            format!("{:.0}", nnz.mean()),
            format!("{:.0}", mean_of(|l| l.counts().setup_writes as f64)),
            fmt_time(mean_of(CostLedger::setup_time_s)),
            fmt_time(mean_of(CostLedger::run_time_s)),
            mean,
            success(&o),
        ]);
    }
    t
}

/// **A8** — conductance drift and periodic refresh. The paper assumes
/// perfect retention during a solve — reasonable at millisecond timescales
/// and second-scale retention. Sweeping the retention time constant τ
/// shows when the assumption breaks and how much a periodic static-block
/// refresh buys back, at what write cost.
fn drift(trials: usize) -> Table {
    let draws = Draws::paper(48, 5.0, 11_000);
    println!("Ablation: retention τ × refresh cadence at m = 48, 5% variation, {trials} trials");
    println!("(a solve at this size runs ~2-20 ms of hardware time)");
    let mut t = Table::new(
        "Algorithm 1 vs drift time constant and refresh cadence",
        "tau,refresh every,mean err %,max err %,success,extra writes",
    )
    .note(
        "Expected shape: harmless until τ approaches the solve duration; refresh\n\
        restores accuracy at the price of periodic O(nnz) rewrites.",
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
            let drift = tau.map_or_else(DriftModel::none, DriftModel::exponential);
            let o = compare(trials, draws, false, |lp, config| {
                let options = CrossbarSolverOptions {
                    refresh_every: refresh,
                    ..Default::default()
                };
                CrossbarPdipSolver::new(CrossbarConfig { drift, ..config }, options).solve(lp)
            });
            let writes: Stats = o
                .iter()
                .map(|t| t.ledger.counts().update_writes as f64)
                .collect();
            let [mean, max] = err_pct(&o);
            t.row(vec![
                tau_label.into(),
                if refresh == 0 {
                    "never".into()
                } else {
                    refresh.to_string()
                },
                mean,
                max,
                success(&o),
                format!("{:.0}", writes.mean()),
            ]);
        }
    }
    t
}
