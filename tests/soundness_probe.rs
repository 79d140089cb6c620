//! The crossbar soundness probe: the three crossbar families on small LPs
//! from the paper's application domains, scored against Simplex.
//!
//! Each cell counts ten seeds as `ok/other/infeasible`: `ok` is an
//! `Optimal` verdict within 0.1 relative objective error of Simplex,
//! `infeasible` an `Infeasible` verdict, `other` everything else. Every LP
//! here is feasible, so each `Infeasible` is a wrong verdict. The rows are
//! pinned as they are, wrong verdicts included: a change that moves one
//! must say why.

use memlp::prelude::*;
use memlp_lp::domains::{
    assignment_lp, max_flow_lp, production_schedule_lp, transportation_lp, AssignmentProblem,
    MaxFlowNetwork, ProductionPlan, TransportationProblem,
};

/// Routing, transport, scheduling, assignment and §4.2 LPs for seed `s`.
fn domain_lps(s: u64) -> [LpProblem; 5] {
    // A transport draw can be infeasible: take the first one Simplex solves.
    let transport = (0..)
        .map(|k| transportation_lp(&TransportationProblem::random(4, 8, 1000 * s + k)).unwrap())
        .find(|lp| Simplex::default().solve(lp).status == LpStatus::Optimal)
        .unwrap();
    [
        max_flow_lp(&MaxFlowNetwork::random_layered(3, 4, s)).unwrap(),
        transport,
        production_schedule_lp(&ProductionPlan::random(4, 3, s)).unwrap(),
        assignment_lp(&AssignmentProblem::random(5, s)).unwrap(),
        RandomLp::paper(24, s).feasible(),
    ]
}

/// One probe row over seeds 0–9: `ok/other/infeasible` per domain.
fn row(solve: fn(&LpProblem, CrossbarConfig) -> CrossbarSolution, var_pct: f64) -> String {
    let mut cells = [[0u32; 3]; 5];
    for s in 0..10 {
        for (cell, lp) in cells.iter_mut().zip(domain_lps(s)) {
            let reference = Simplex::default().solve(&lp).objective;
            let config = CrossbarConfig::paper_default()
                .with_variation(var_pct)
                .with_seed(s);
            let got = solve(&lp, config).solution;
            let rel = (got.objective - reference).abs() / (1.0 + reference.abs());
            cell[match got.status {
                LpStatus::Optimal if rel < 0.1 => 0,
                LpStatus::Infeasible => 2,
                _ => 1,
            }] += 1;
        }
    }
    let cells: Vec<String> = cells
        .iter()
        .map(|[a, b, c]| format!("{a}/{b}/{c}"))
        .collect();
    cells.join(" ")
}

#[test]
fn algorithm_2_probe() {
    let alg2 = |lp: &LpProblem, config| {
        LargeScaleSolver::new(config, LargeScaleOptions::default()).solve(lp)
    };
    assert_eq!(row(alg2, 0.0), "0/0/10 0/2/8 5/0/5 0/0/10 10/0/0");
    assert_eq!(row(alg2, 10.0), "0/0/10 0/0/10 0/0/10 0/0/10 9/1/0");
}

#[test]
fn algorithm_1_probe() {
    let alg1 = |lp: &LpProblem, config| {
        CrossbarPdipSolver::new(config, CrossbarSolverOptions::default()).solve(lp)
    };
    assert_eq!(row(alg1, 0.0), "5/2/3 10/0/0 10/0/0 10/0/0 10/0/0");
    assert_eq!(row(alg1, 10.0), "0/1/9 8/2/0 10/0/0 4/5/1 10/0/0");
}

#[test]
fn analog_pdhg_probe() {
    let pdhg = |lp: &LpProblem, config| {
        CrossbarPdhgSolver::new(config, CrossbarPdhgOptions::default()).solve(lp)
    };
    assert_eq!(row(pdhg, 10.0), "0/10/0 10/0/0 9/1/0 5/5/0 10/0/0");
}
