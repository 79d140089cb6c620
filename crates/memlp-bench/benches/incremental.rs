//! Incremental-reprogramming study: write traffic of Algorithm 1 with
//! delta programming **off** (every refresh and update re-pulses the full
//! block — the paper's implicit baseline) versus **on** (cells whose
//! write-quantized code is unchanged are verified but not pulsed).
//!
//! The suite runs the paper-scale generator with a periodic static-block
//! refresh cadence, the regime where reprogramming cost dominates: on
//! drift-free hardware every refresh rewrite is redundant and delta
//! programming should elide nearly all of it. Solutions are bitwise
//! identical between the two columns (enforced by
//! `memlp-core/tests/delta_identity.rs`); only the cost ledger moves.
//!
//! Emits `BENCH_incremental.json` at the repository root. The headline
//! metric is the reduction in cells written after initial programming
//! (`update_writes`), which CI guards against regression; every field but
//! the wall-clock `seconds` is deterministic and must match the committed
//! file.

use std::time::Instant;

use memlp_bench::artifact::{self, quote};
use memlp_bench::obj;
use memlp_core::{CrossbarPdipSolver, CrossbarSolverOptions};
use memlp_crossbar::CrossbarConfig;
use memlp_device::CostParams;
use memlp_lp::generator::RandomLp;
use memlp_lp::LpProblem;

/// Constraint count of every suite problem (n = m/3, per §4.2).
const M: usize = 48;
const SEEDS: [u64; 4] = [1400, 1401, 1402, 1403];
/// Static-block refresh cadence (iterations). Drift is off in
/// `paper_default`, so every refresh is a pure redundancy test.
const REFRESH_EVERY: usize = 4;
/// CI regression budget: delta-on cells written (setup + update, summed
/// over the suite) must not exceed this baseline by more than 10%.
/// Re-baseline deliberately when the solver's write pattern changes.
const BASELINE_CELLS_WRITTEN: u64 = 15174;

#[derive(Default)]
struct Column {
    setup: u64,
    update: u64,
    skipped: u64,
    reuse: u64,
    energy_j: f64,
    secs: f64,
    iterations: usize,
}

fn suite() -> Vec<LpProblem> {
    SEEDS
        .iter()
        .map(|&s| RandomLp::paper(M, s).feasible())
        .collect()
}

fn run(delta: bool, lps: &[LpProblem]) -> Column {
    let solver = CrossbarPdipSolver::new(
        CrossbarConfig::paper_default()
            .with_variation(5.0)
            .with_seed(11)
            .with_delta_writes(delta),
        CrossbarSolverOptions {
            refresh_every: REFRESH_EVERY,
            ..CrossbarSolverOptions::default()
        },
    );
    let mut col = Column::default();
    let t = Instant::now();
    for lp in lps {
        let res = solver.solve(lp);
        assert!(
            res.solution.status.is_optimal(),
            "suite problem failed: {}",
            res.solution
        );
        let c = res.ledger.counts();
        col.setup += c.setup_writes;
        col.update += c.update_writes;
        col.skipped += c.skipped_writes;
        col.reuse += c.rebuilds_avoided;
        col.energy_j += res.ledger.energy_j(&CostParams::default());
        col.iterations += res.solution.iterations;
    }
    col.secs = t.elapsed().as_secs_f64();
    col
}

fn main() {
    let lps = suite();
    println!(
        "incremental reprogramming: Algorithm 1, m = {M}, {} LPs, refresh every {REFRESH_EVERY} iters",
        lps.len()
    );
    println!();
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>8} {:>11}",
        "delta", "setup", "update", "skipped", "reuse", "energy mJ"
    );

    let full = run(false, &lps);
    let delta = run(true, &lps);
    for (name, c) in [("off", &full), ("on", &delta)] {
        println!(
            "{name:>10} {:>12} {:>12} {:>12} {:>8} {:>11.3}",
            c.setup,
            c.update,
            c.skipped,
            c.reuse,
            c.energy_j * 1e3
        );
    }
    assert_eq!(
        full.iterations, delta.iterations,
        "delta programming changed iteration counts — identity broken"
    );

    let update_reduction = 1.0 - delta.update as f64 / full.update as f64;
    let total_reduction =
        1.0 - (delta.setup + delta.update) as f64 / (full.setup + full.update) as f64;
    let energy_reduction = 1.0 - delta.energy_j / full.energy_j;
    let cells_written = delta.setup + delta.update;
    println!();
    println!("update-write reduction: {:.1}%", update_reduction * 100.0);
    println!("total-write reduction:  {:.1}%", total_reduction * 100.0);
    println!("energy reduction:       {:.1}%", energy_reduction * 100.0);
    println!("cells written (delta on): {cells_written} (baseline {BASELINE_CELLS_WRITTEN})");

    let reduction_ok = update_reduction >= 0.50;
    let within_budget = cells_written as f64 <= BASELINE_CELLS_WRITTEN as f64 * 1.10;
    let gate_pass = reduction_ok && within_budget;

    let column = |c: &Column| {
        obj! {
            setup_writes: c.setup, update_writes: c.update, skipped_writes: c.skipped,
            rebuilds_avoided: c.reuse, energy_mj: format!("{:.3}", c.energy_j * 1e3),
            ~seconds: format!("{:.6}", c.secs),
        }
    };
    let doc = obj! {
        bench: quote("incremental"),
        suite: quote(&format!(
            "RandomLp::paper(m={M}), Algorithm 1, 5% variation, refresh every \
             {REFRESH_EVERY} iters, {} LPs",
            lps.len()
        )),
        full_reprogram: column(&full), delta: column(&delta),
        update_write_reduction: format!("{update_reduction:.4}"),
        total_write_reduction: format!("{total_reduction:.4}"),
        energy_reduction: format!("{energy_reduction:.4}"),
        cells_written: cells_written, baseline_cells_written: BASELINE_CELLS_WRITTEN,
        within_budget: within_budget,
    };
    artifact::finish("BENCH_incremental.json", doc, gate_pass);
}
