//! Snapshot of the §4.3 retry ladder for the three crossbar solver
//! families (Algorithm 1, Algorithm 2, analog PDHG) under four
//! conditions: fault-free hardware, 1% stuck cells plus dead word lines,
//! an iteration budget that expires, and an infeasible LP.
//!
//! Each run pins a hash of the solution bits, the status, `retries_used`
//! and the recovery-event list. The expected values were recorded from
//! the per-family ladders before they were folded into one; any change to
//! retry seeding, the failure test, exhaustion rules or the digital
//! fallback gate shows up here as a changed line.
//!
//! The hash also moves with the digital Newton arithmetic: the ADC ranges
//! on the raw solve's largest entry, so its rounding reaches the solution
//! bits. The Algorithm 1 fault-free, budget and infeasible hashes were
//! re-recorded when the dense core moved from the `(n+m)` LU to the
//! `min(n,m)` Schur solve; their statuses, iteration counts, retries and
//! events did not change.
//!
//! The paper LPs above are dense, so Algorithm 1 factors them densely. The
//! sparse-core snapshot runs Algorithm 1 fault-free and faulty on a
//! transportation LP and a routing LP, whose densities put its Newton core
//! on the sparse factorization; those lines were recorded before the
//! sparse core moved onto the shared KKT type of `memlp-linalg`.
//!
//! The three Algorithm 1 `Faulty` runs end in the digital fallback. They
//! were re-recorded, header and fallback line only, when that fallback
//! dropped its digital PDHG rung: the reference PDIP now gives their
//! answers, so their hashes moved and `FirstOrderFallback` became
//! `DigitalFallback`.
//!
//! Three Algorithm 1 hashes (`alg1 Infeasible`, `alg1 transport FaultFree`,
//! `alg1 routing FaultFree`) were re-recorded when a stall whose verdict
//! is already settled (`Optimal` or `Infeasible`) began to exit after 12
//! iterations without improvement instead of 25: those runs end on such a
//! stall, so their final iteration count moved. Every status, retry count
//! and event line, and every Algorithm 2 and analog-PDHG line, stayed.

use memlp_core::{
    Budget, CrossbarPdhgOptions, CrossbarPdhgSolver, CrossbarPdipSolver, CrossbarSolution,
    CrossbarSolverOptions, LargeScaleOptions, LargeScaleSolver,
};
use memlp_crossbar::{CrossbarConfig, FaultModel};
use memlp_lp::domains::{max_flow_lp, transportation_lp, MaxFlowNetwork, TransportationProblem};
use memlp_lp::generator::RandomLp;
use memlp_lp::LpProblem;
use memlp_solvers::pdhg::PdhgOptions;

#[derive(Clone, Copy, Debug)]
enum Condition {
    FaultFree,
    Faulty,
    BudgetExpires,
    Infeasible,
}

const CONDITIONS: [Condition; 4] = [
    Condition::FaultFree,
    Condition::Faulty,
    Condition::BudgetExpires,
    Condition::Infeasible,
];

fn config(cond: Condition, seed: u64) -> CrossbarConfig {
    let config = CrossbarConfig::paper_default()
        .with_variation(5.0)
        .with_seed(seed);
    match cond {
        Condition::Faulty => config.with_faults(
            FaultModel::new(0.005, 0.005)
                .and_then(|m| m.with_dead_lines(0.04, 0.0))
                .expect("valid fault rates"),
        ),
        _ => config,
    }
}

fn problem(cond: Condition, m: usize, seed: u64) -> LpProblem {
    let gen = RandomLp::paper(m, seed);
    match cond {
        Condition::Infeasible => gen.infeasible(),
        _ => gen.feasible(),
    }
}

fn budget(cond: Condition) -> Budget<'static> {
    match cond {
        Condition::BudgetExpires => Budget::none().with_max_iters(3),
        _ => Budget::none(),
    }
}

/// FNV-1a over every numeric field of the solution, bit for bit.
fn solution_hash(r: &CrossbarSolution) -> u64 {
    let s = &r.solution;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in s.x.iter().chain(&s.y) {
        eat(v.to_bits());
    }
    for v in [
        s.objective,
        s.primal_residual,
        s.dual_residual,
        s.duality_gap,
    ] {
        eat(v.to_bits());
    }
    eat(s.iterations as u64);
    h
}

/// One header line per run, then one indented line per recovery event.
fn line(family: &str, cond: Condition, r: &CrossbarSolution) -> String {
    let mut out = format!(
        "{family} {cond:?}: {:016x} {:?} retries={} degraded={:?}",
        solution_hash(r),
        r.solution.status,
        r.retries_used,
        r.degraded,
    );
    for e in &r.recovery.events {
        out.push_str(&format!("\n  {e:?}"));
    }
    out
}

fn alg1(cond: Condition) -> String {
    let s = CrossbarPdipSolver::new(config(cond, 4), CrossbarSolverOptions::default());
    line(
        "alg1",
        cond,
        &s.solve_budgeted(&problem(cond, 16, 904), budget(cond)),
    )
}

fn alg2(cond: Condition) -> String {
    // Seed 6 makes the infeasible case spend every retry, so the
    // best-scoring attempt and the exhaustion rule decide the verdict.
    let seed = match cond {
        Condition::Infeasible => 6,
        _ => 4,
    };
    let s = LargeScaleSolver::new(config(cond, seed), LargeScaleOptions::default());
    line(
        "alg2",
        cond,
        &s.solve_budgeted(&problem(cond, 16, 900 + seed), budget(cond)),
    )
}

fn pdhg_analog(cond: Condition) -> String {
    // A short iteration cap keeps the infeasible case (which runs every
    // attempt to its cap) cheap; the ladder logic is what is pinned.
    let options = CrossbarPdhgOptions {
        pdhg: PdhgOptions {
            max_iterations: 3_000,
            ..CrossbarPdhgOptions::default().pdhg
        },
        ..CrossbarPdhgOptions::default()
    };
    // Seed 2 at m = 24 is a defective array the first attempt cannot
    // solve, so the faulty case climbs one rung.
    let (m, seed) = match cond {
        Condition::Faulty => (24, 2),
        _ => (12, 4),
    };
    let s = CrossbarPdhgSolver::new(config(cond, seed), options);
    line(
        "pdhg-analog",
        cond,
        &s.solve_budgeted(&problem(cond, m, 904), budget(cond)),
    )
}

fn check(actual: Vec<String>, expected: &[&str]) {
    let actual = actual.join("\n");
    let expected = expected.join("\n");
    assert_eq!(actual, expected, "ladder snapshot changed:\n{actual}");
}

#[test]
fn alg1_ladder_snapshot() {
    check(CONDITIONS.iter().map(|&c| alg1(c)).collect(), ALG1);
}

#[test]
fn alg1_sparse_core_snapshot() {
    let problems = [
        (
            "transport",
            transportation_lp(&TransportationProblem::random(4, 9, 1)),
        ),
        (
            "routing",
            max_flow_lp(&MaxFlowNetwork::random_layered(3, 4, 0)),
        ),
    ];
    let mut actual = Vec::new();
    for (name, lp) in problems {
        let lp = lp.expect("valid domain");
        for cond in [Condition::FaultFree, Condition::Faulty] {
            let s = CrossbarPdipSolver::new(config(cond, 4), CrossbarSolverOptions::default());
            actual.push(line(&format!("alg1 {name}"), cond, &s.solve(&lp)));
        }
    }
    check(actual, ALG1_SPARSE);
}

#[test]
fn alg2_ladder_snapshot() {
    check(CONDITIONS.iter().map(|&c| alg2(c)).collect(), ALG2);
}

#[test]
fn pdhg_analog_ladder_snapshot() {
    check(CONDITIONS.iter().map(|&c| pdhg_analog(c)).collect(), PDHG);
}

const ALG1: &[&str] = &[
    "alg1 FaultFree: b5a2e014eafc5881 Optimal retries=0 degraded=None",
    "alg1 Faulty: 77eba5b340b86b7d Optimal retries=2 degraded=None",
    "  FaultsDetected { block: 0, stuck_cells: 1, weak_cells: 0, dead_rows: 0, dead_cols: 0 }",
    "  FaultsDetected { block: 1, stuck_cells: 1, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 2, stuck_cells: 1, weak_cells: 0, dead_rows: 0, dead_cols: 0 }",
    "  FaultsDetected { block: 3, stuck_cells: 0, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 5, stuck_cells: 0, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 6, stuck_cells: 0, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 7, stuck_cells: 0, weak_cells: 0, dead_rows: 2, dead_cols: 0 }",
    "  FaultsDetected { block: 13, stuck_cells: 0, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 16, stuck_cells: 0, weak_cells: 0, dead_rows: 3, dead_cols: 0 }",
    "  FaultsDetected { block: 17, stuck_cells: 1, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  Remapped { rows: 10, cols: 0, unmapped: 1 }",
    "  VariationRedraw { attempt: 1 }",
    "  Remapped { rows: 0, cols: 0, unmapped: 1 }",
    "  VariationRedraw { attempt: 2 }",
    "  DigitalFallback { iterations: 13 }",
    "alg1 BudgetExpires: 5d77445f5d9057c1 IterationLimit retries=0 degraded=Some(MaxIters)",
    "alg1 Infeasible: a2d4b18bb0b5c84d Infeasible retries=0 degraded=None",
];
const ALG1_SPARSE: &[&str] = &[
    "alg1 transport FaultFree: 734baa127acebbd8 Optimal retries=0 degraded=None",
    "alg1 transport Faulty: 529cc1022237e067 Optimal retries=2 degraded=None",
    "  FaultsDetected { block: 0, stuck_cells: 2, weak_cells: 0, dead_rows: 0, dead_cols: 0 }",
    "  FaultsDetected { block: 1, stuck_cells: 5, weak_cells: 2, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 2, stuck_cells: 3, weak_cells: 2, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 3, stuck_cells: 3, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 5, stuck_cells: 0, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 6, stuck_cells: 0, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 7, stuck_cells: 0, weak_cells: 0, dead_rows: 2, dead_cols: 0 }",
    "  FaultsDetected { block: 8, stuck_cells: 0, weak_cells: 0, dead_rows: 2, dead_cols: 0 }",
    "  FaultsDetected { block: 9, stuck_cells: 0, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 12, stuck_cells: 1, weak_cells: 1, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 13, stuck_cells: 0, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 14, stuck_cells: 0, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 15, stuck_cells: 0, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 16, stuck_cells: 0, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 17, stuck_cells: 1, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  Reprogrammed { repaired: 5, remaining: 10 }",
    "  Remapped { rows: 16, cols: 0, unmapped: 0 }",
    "  VariationRedraw { attempt: 1 }",
    "  VariationRedraw { attempt: 2 }",
    "  DigitalFallback { iterations: 14 }",
    "alg1 routing FaultFree: d0f95dfa84f5c7de Infeasible retries=1 degraded=None",
    "  VariationRedraw { attempt: 1 }",
    "alg1 routing Faulty: 6f94783b395caa71 Optimal retries=2 degraded=None",
    "  FaultsDetected { block: 0, stuck_cells: 7, weak_cells: 3, dead_rows: 0, dead_cols: 0 }",
    "  FaultsDetected { block: 1, stuck_cells: 10, weak_cells: 4, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 2, stuck_cells: 7, weak_cells: 4, dead_rows: 0, dead_cols: 0 }",
    "  FaultsDetected { block: 3, stuck_cells: 3, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 4, stuck_cells: 1, weak_cells: 0, dead_rows: 2, dead_cols: 0 }",
    "  FaultsDetected { block: 5, stuck_cells: 0, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 6, stuck_cells: 2, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 7, stuck_cells: 0, weak_cells: 0, dead_rows: 2, dead_cols: 0 }",
    "  FaultsDetected { block: 8, stuck_cells: 0, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 9, stuck_cells: 0, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 12, stuck_cells: 1, weak_cells: 1, dead_rows: 0, dead_cols: 0 }",
    "  FaultsDetected { block: 13, stuck_cells: 0, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 15, stuck_cells: 0, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 16, stuck_cells: 3, weak_cells: 1, dead_rows: 3, dead_cols: 0 }",
    "  FaultsDetected { block: 17, stuck_cells: 1, weak_cells: 0, dead_rows: 3, dead_cols: 0 }",
    "  Reprogrammed { repaired: 13, remaining: 22 }",
    "  Remapped { rows: 16, cols: 0, unmapped: 2 }",
    "  VariationRedraw { attempt: 1 }",
    "  Remapped { rows: 0, cols: 0, unmapped: 2 }",
    "  VariationRedraw { attempt: 2 }",
    "  DigitalFallback { iterations: 15 }",
];
const ALG2: &[&str] = &[
    "alg2 FaultFree: 6004f79df3b705ac Optimal retries=0 degraded=None",
    "alg2 Faulty: 46621fee24b0ea5b Optimal retries=2 degraded=None",
    "  FaultsDetected { block: 0, stuck_cells: 1, weak_cells: 0, dead_rows: 0, dead_cols: 0 }",
    "  FaultsDetected { block: 1, stuck_cells: 1, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 2, stuck_cells: 1, weak_cells: 0, dead_rows: 0, dead_cols: 0 }",
    "  FaultsDetected { block: 3, stuck_cells: 0, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 5, stuck_cells: 0, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 7, stuck_cells: 0, weak_cells: 0, dead_rows: 2, dead_cols: 0 }",
    "  FaultsDetected { block: 9, stuck_cells: 0, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  Remapped { rows: 6, cols: 0, unmapped: 0 }",
    "  VariationRedraw { attempt: 1 }",
    "  FaultsDetected { block: 12, stuck_cells: 1, weak_cells: 1, dead_rows: 0, dead_cols: 0 }",
    "  FaultsDetected { block: 13, stuck_cells: 0, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 15, stuck_cells: 0, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 17, stuck_cells: 1, weak_cells: 0, dead_rows: 1, dead_cols: 0 }",
    "  FaultsDetected { block: 19, stuck_cells: 0, weak_cells: 0, dead_rows: 2, dead_cols: 0 }",
    "  Reprogrammed { repaired: 1, remaining: 3 }",
    "  Remapped { rows: 5, cols: 0, unmapped: 0 }",
    "  VariationRedraw { attempt: 2 }",
    "alg2 BudgetExpires: 45cfcc3591097ded IterationLimit retries=0 degraded=Some(MaxIters)",
    "alg2 Infeasible: fae4b7bc84e79eee Infeasible retries=3 degraded=None",
    "  VariationRedraw { attempt: 1 }",
    "  VariationRedraw { attempt: 2 }",
    "  VariationRedraw { attempt: 3 }",
];
const PDHG: &[&str] = &[
    "pdhg-analog FaultFree: 86d6980f59fcc5ab Optimal retries=0 degraded=None",
    "pdhg-analog Faulty: 3df7126307d50067 Optimal retries=1 degraded=None",
    "  FaultsDetected { block: 32, stuck_cells: 3, weak_cells: 2, dead_rows: 2, dead_cols: 0 }",
    "  FaultsDetected { block: 33, stuck_cells: 2, weak_cells: 2, dead_rows: 0, dead_cols: 0 }",
    "  Reprogrammed { repaired: 4, remaining: 1 }",
    "  Remapped { rows: 2, cols: 0, unmapped: 0 }",
    "  VariationRedraw { attempt: 1 }",
    "pdhg-analog BudgetExpires: 4ca64b3c438bda95 IterationLimit retries=0 degraded=Some(MaxIters)",
    "pdhg-analog Infeasible: 3538e9e7895329ea IterationLimit retries=2 degraded=None",
    "  VariationRedraw { attempt: 1 }",
    "  VariationRedraw { attempt: 2 }",
];
