//! Parallel-scaling study: batched Algorithm-1 solves across a grid of
//! thread budgets × batch sizes, on a fixed LP suite.
//!
//! Both parallelism knobs are pinned per cell: the kernel pool via
//! `parallel::with_threads` and the batch fan-out via `solve_batch`'s
//! `jobs` argument. Because every kernel is thread-count invariant
//! (DESIGN.md §8), each cell performs the *identical* computation — the
//! grid measures pure scheduling efficiency.
//!
//! Emits `BENCH_parallel.json` at the repository root alongside the usual
//! stdout table. The host's `available_parallelism` is recorded so
//! speedups can be judged against the cores actually present; it and the
//! timings are host-dependent, the grid itself must match the committed
//! file.

use std::time::Instant;

use memlp_bench::artifact::{self, quote, Rows};
use memlp_bench::{fmt_time, median, obj};
use memlp_core::{CrossbarPdipSolver, CrossbarSolver, CrossbarSolverOptions};
use memlp_crossbar::CrossbarConfig;
use memlp_linalg::parallel::with_threads;
use memlp_lp::generator::RandomLp;
use memlp_lp::LpProblem;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const BATCHES: [usize; 3] = [1, 8, 64];
/// Constraint count of every suite problem (n = m/3, per §4.2).
const M: usize = 48;
const REPS: usize = 3;

struct Cell {
    threads: usize,
    batch: usize,
    /// Median wall-clock for the whole batch, seconds.
    secs: f64,
    /// Problems solved per second at this cell.
    throughput: f64,
    /// Thread budget exceeds the host's `available_parallelism`: the cell
    /// measures scheduler churn, not parallel speedup, and is excluded
    /// from the headline numbers.
    oversubscribed: bool,
}

/// Fixed suite: `count` distinct feasible LPs with deterministic seeds.
fn suite(count: usize) -> Vec<LpProblem> {
    (0..count)
        .map(|i| RandomLp::paper(M, 1000 + i as u64).feasible())
        .collect()
}

fn main() {
    let solver = CrossbarPdipSolver::new(
        CrossbarConfig::paper_default().with_variation(10.0),
        CrossbarSolverOptions::default(),
    );
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("parallel scaling: Algorithm 1, m = {M}, suite of distinct LPs");
    println!("host available_parallelism = {available}");
    if THREADS.iter().any(|&t| t > available) {
        println!(
            "cells marked * request more threads than the host has; they are \
             kept for completeness but excluded from the headline speedup"
        );
    }
    println!();
    println!(
        "{:>8} {:>6} {:>12} {:>14} {:>9}",
        "threads", "batch", "batch time", "solves/s", "speedup"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for &batch in &BATCHES {
        let lps = suite(batch);
        let mut base = f64::NAN;
        for &threads in &THREADS {
            let secs = median(
                (0..REPS)
                    .map(|_| {
                        let t = Instant::now();
                        let results = with_threads(threads, || solver.solve_batch(&lps, threads));
                        assert!(
                            results
                                .iter()
                                .all(|r| r.as_ref().is_ok_and(|r| r.solution.status.is_optimal())),
                            "suite problem failed to solve"
                        );
                        t.elapsed().as_secs_f64()
                    })
                    .collect(),
            );
            if threads == 1 {
                base = secs;
            }
            let oversubscribed = threads > available;
            println!(
                "{threads:>8} {batch:>6} {:>12} {:>14.2} {:>8.2}x{}",
                fmt_time(secs),
                batch as f64 / secs,
                base / secs,
                if oversubscribed { " *" } else { "" },
            );
            cells.push(Cell {
                threads,
                batch,
                secs,
                throughput: batch as f64 / secs,
                oversubscribed,
            });
        }
        println!();
    }

    // Headline speedup is judged on honest cells only: the largest thread
    // budget the host can actually schedule, at the largest batch.
    let honest_threads = THREADS
        .iter()
        .copied()
        .filter(|&t| t <= available)
        .max()
        .unwrap_or(1);
    let speedup_at = |threads: usize, batch: usize| {
        let t1 = cells
            .iter()
            .find(|c| c.threads == 1 && c.batch == batch)
            .unwrap()
            .secs;
        let tn = cells
            .iter()
            .find(|c| c.threads == threads && c.batch == batch)
            .unwrap()
            .secs;
        t1 / tn
    };
    let honest = speedup_at(honest_threads, 64);
    // On a single-core host the honest grid collapses to threads = 1 and
    // the only defensible claim is "no regression"; multi-core hosts must
    // not lose throughput by going parallel.
    let gate_pass = honest > 0.85;
    println!("honest speedup at {honest_threads} thread(s), batch 64: {honest:.3}x (need > 0.85x)");

    let cells_json = cells.iter().map(|c| {
        obj! {
            threads: c.threads, batch: c.batch, ~seconds: format!("{:.6}", c.secs),
            ~solves_per_sec: format!("{:.3}", c.throughput), ~oversubscribed: c.oversubscribed,
        }
    });
    let doc = obj! {
        bench: quote("scaling"),
        suite: quote(&format!("RandomLp::paper(m={M}), Algorithm 1, 10% variation")),
        ~available_parallelism: available,
        reps: REPS,
        note: quote(
            "oversubscribed cells (threads > available_parallelism) measure scheduler \
             churn, not parallel speedup, and are excluded from the honest headline \
             numbers; results stay deterministic across all cells",
        ),
        cells: Rows(cells_json.collect()),
        ~honest_threads: honest_threads,
        ~speedup_honest_batch_64: format!("{honest:.3}"),
    };
    artifact::finish("BENCH_parallel.json", doc, gate_pass);
}
