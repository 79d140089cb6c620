//! Fault-recovery sweep: both PDIP solvers on defective arrays (1% stuck
//! cells split evenly on/off, plus a dead word-line rate sized to roughly
//! one dead row per block), with the escalation ladder on versus off.
//!
//! With recovery enabled every seed must come back `Optimal` inside the
//! paper's Fig 5 envelope (rel err ≤ 0.10); with recovery disabled the same
//! seeds fail or leave the envelope. The sweep mirrors the
//! `fault_recovery` acceptance test so CI archives the evidence as
//! `BENCH_fault_recovery.json` at the repository root. Every field is
//! deterministic: the run fails when one moved against the committed file.

use memlp_bench::artifact::{self, quote, Rows};
use memlp_bench::obj;
use memlp_core::{
    CrossbarPdipSolver, CrossbarSolution, CrossbarSolverOptions, LargeScaleOptions,
    LargeScaleSolver, RecoveryPolicy,
};
use memlp_crossbar::{CrossbarConfig, FaultModel};
use memlp_lp::generator::RandomLp;
use memlp_lp::{LpProblem, LpStatus};
use memlp_solvers::{LpSolver, NormalEqPdip};

/// Fig 5 envelope: the paper reports ≤ 9.9% relative objective error.
const ENVELOPE: f64 = 0.10;
const M: usize = 24;
const ALG1_SEEDS: [u64; 4] = [2, 4, 9, 12];
const ALG2_SEEDS: [u64; 3] = [2, 3, 7];

/// 1% total stuck cells plus ~one dead word line per array — the ISSUE's
/// acceptance operating point, identical to the `fault_recovery` test.
fn faulty_model() -> FaultModel {
    FaultModel::new(0.005, 0.005)
        .and_then(|m| m.with_dead_lines(0.04, 0.0))
        .expect("valid fault rates")
}

fn config(seed: u64) -> CrossbarConfig {
    CrossbarConfig::paper_default()
        .with_seed(seed)
        .with_faults(faulty_model())
}

fn solve(alg: &'static str, seed: u64, lp: &LpProblem, policy: RecoveryPolicy) -> CrossbarSolution {
    match alg {
        "alg1" => CrossbarPdipSolver::new(
            config(seed),
            CrossbarSolverOptions {
                recovery: policy,
                ..CrossbarSolverOptions::default()
            },
        )
        .solve(lp),
        _ => LargeScaleSolver::new(
            config(seed),
            LargeScaleOptions {
                recovery: policy,
                ..LargeScaleOptions::default()
            },
        )
        .solve(lp),
    }
}

fn main() {
    println!("fault-recovery sweep: m = {M}, 1% stuck cells + ~1 dead line per array");
    println!();
    println!(
        "{:>5} {:>5} {:>9} {:>17} {:>10} {:>7} {:>6} {:>9}",
        "alg", "seed", "policy", "status", "rel err %", "events", "escal", "fallback"
    );

    let mut rows = Vec::new();
    // Seeds inside the envelope with the ladder on (index 0) and off (1).
    let mut in_envelope = [0usize; 2];
    let cases: Vec<(&'static str, u64)> = ALG1_SEEDS
        .iter()
        .map(|&s| ("alg1", s))
        .chain(ALG2_SEEDS.iter().map(|&s| ("alg2", s)))
        .collect();
    for &(alg, seed) in &cases {
        let lp = RandomLp::paper(M, 900 + seed).feasible();
        let reference = NormalEqPdip::default().solve(&lp);
        for (i, (policy, name)) in [
            (RecoveryPolicy::Full, "full"),
            (RecoveryPolicy::Disabled, "disabled"),
        ]
        .into_iter()
        .enumerate()
        {
            let r = solve(alg, seed, &lp, policy);
            let status = r.solution.status;
            let rel_err = (r.solution.objective - reference.objective).abs()
                / (1.0 + reference.objective.abs());
            let escalations = r.recovery.escalations();
            let fault_events = r.recovery.events.len() - escalations;
            let fallback = r.recovery.used_digital_fallback();
            let ok = status == LpStatus::Optimal && rel_err <= ENVELOPE;
            in_envelope[i] += usize::from(ok);
            println!(
                "{alg:>5} {seed:>5} {name:>9} {:>17} {:>10.3} {fault_events:>7} {escalations:>6} {:>9}",
                format!("{status:?}"),
                rel_err * 100.0,
                if fallback { "yes" } else { "no" },
            );
            // NaN (a failed solve has no finite objective) is not valid JSON.
            let rel_err = if rel_err.is_finite() {
                format!("{rel_err:.6}")
            } else {
                String::from("null")
            };
            rows.push(obj! {
                alg: quote(alg), seed: seed, policy: quote(name),
                status: quote(&format!("{status:?}")), rel_err: rel_err,
                fault_events: fault_events, escalations: escalations,
                digital_fallback: fallback, in_envelope: ok,
            });
        }
    }

    let [recovered, unrecovered_ok] = in_envelope;
    println!();
    println!(
        "recovery on : {recovered}/{} seeds Optimal within envelope",
        cases.len()
    );
    println!(
        "recovery off: {unrecovered_ok}/{} seeds Optimal within envelope",
        cases.len()
    );
    let gate_pass = recovered == cases.len() && unrecovered_ok == 0;

    let doc = obj! {
        bench: quote("fault_recovery"),
        suite: quote(&format!("RandomLp::paper(m={M}), 1% stuck cells + dead-line rate 0.04")),
        envelope_rel_err: ENVELOPE,
        note: quote(
            "each seed is solved twice on identical fault plans: recovery ladder on \
             (reprogram weak cells -> remap to spares -> variation redraw -> digital \
             fallback) then off; deterministic, so reruns reproduce these rows exactly",
        ),
        rows: Rows(rows),
        recovered_in_envelope: quote(&format!("{recovered}/{}", cases.len())),
        unrecovered_in_envelope: quote(&format!("{unrecovered_ok}/{}", cases.len())),
    };
    artifact::finish("BENCH_fault_recovery.json", doc, gate_pass);
}
