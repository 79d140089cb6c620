//! Snapshot of the deterministic columns of the §4 grids on a tiny sweep.
//!
//! Both algorithms run the feasible and the infeasible grid at
//! m ∈ {4, 16}, variation ∈ {0, 20}%, two trials per point. Each grid
//! point pins what follows from the seeds alone: the success rate, the
//! iteration mean/min/max, the relative-error mean/max and the mean
//! modelled run latency and energy from the `CostLedger`, every float
//! printed with `{:e}` (shortest round-trip, so bit-exact). Wall-clock
//! software times are left out.
//!
//! The expected lines were recorded before the ten per-figure bench
//! targets were folded into one `paper_eval` pass; none moved. They must
//! hold at any `MEMLP_THREADS`.
//!
//! Four Algorithm 1 lines (feasible m = 16 at 20%, infeasible m = 4 at 0%
//! and 20%, infeasible m = 16 at 20%) were re-recorded when a stall whose
//! verdict is already settled began to exit after 12 iterations without
//! improvement instead of 25: their `iters`, `run_s` and `energy_j` fell
//! (feasible m = 16 at 20%: 32 → 19 iterations), while `success` and
//! `err` held. No Algorithm 2 line moved.

use memlp_bench::experiments::{feasible_grid, infeasible_grid, GridPoint, SolverKind};
use memlp_bench::Sweep;

fn line(kind: SolverKind, workload: &str, p: &GridPoint) -> String {
    format!(
        "{} {workload} m={} var={}: success={:e} iters={:e}/{:e}/{:e} err={:e}/{:e} run_s={:e} energy_j={:e}",
        kind.label(),
        p.m,
        p.var_pct,
        p.success_rate,
        p.iterations.mean(),
        p.iterations.min(),
        p.iterations.max(),
        p.rel_error.mean(),
        p.rel_error.max(),
        p.hw_run_s.mean(),
        p.hw_energy_j.mean(),
    )
}

#[test]
fn paper_grids_snapshot() {
    let sweep = Sweep {
        sizes: vec![4, 16],
        variations: vec![0.0, 20.0],
        trials: 2,
    };
    let mut actual = Vec::new();
    for kind in [SolverKind::Alg1, SolverKind::Alg2] {
        for p in &feasible_grid(kind, &sweep) {
            actual.push(line(kind, "feasible", p));
        }
        for p in &infeasible_grid(kind, &sweep) {
            actual.push(line(kind, "infeasible", p));
        }
    }
    let actual = actual.join("\n");
    assert_eq!(
        actual,
        EXPECTED.join("\n"),
        "grid snapshot changed:\n{actual}"
    );
}

const EXPECTED: &[&str] = &[
    "alg1 feasible m=4 var=0: success=1e0 iters=4.5e0/4e0/5e0 err=1.4555106262840937e-3/2.4410361134529334e-3 run_s=5.6099999999999995e-5 energy_j=6.60002840625e-4",
    "alg1 feasible m=4 var=20: success=1e0 iters=5e0/4e0/6e0 err=2.7876446418652768e-2/5.575073527373391e-2 run_s=1.2176499999999997e-4 energy_j=1.4264530729999995e-3",
    "alg1 feasible m=16 var=0: success=1e0 iters=5.5e0/5e0/6e0 err=2.327853348241196e-3/3.194339820297379e-3 run_s=2.7143000000000013e-4 energy_j=3.349712635656251e-3",
    "alg1 feasible m=16 var=20: success=1e0 iters=1.9e1/1.8e1/2e1 err=2.0687911012898588e-2/2.8368908054618253e-2 run_s=4.4720674999999994e-3 energy_j=5.1624418425343724e-2",
    "alg1 infeasible m=4 var=0: success=1e0 iters=1.85e1/1.4e1/2.3e1 err=NaN/NaN run_s=9.066249999999983e-5 energy_j=1.0428360749374982e-3",
    "alg1 infeasible m=4 var=20: success=1e0 iters=1.9e1/1.5e1/2.3e1 err=NaN/NaN run_s=2.910049999999998e-4 energy_j=3.350469635749998e-3",
    "alg1 infeasible m=16 var=0: success=1e0 iters=1.15e1/1e1/1.3e1 err=NaN/NaN run_s=3.7832500000000043e-4 energy_j=4.852497706750006e-3",
    "alg1 infeasible m=16 var=20: success=1e0 iters=1.4e1/1.4e1/1.4e1 err=NaN/NaN run_s=1.588227500000003e-3 energy_j=1.8711947718812533e-2",
    "alg2 feasible m=4 var=0: success=1e0 iters=6.05e1/5.5e1/6.6e1 err=2.3281950562057355e-1/4.361099839374307e-1 run_s=9.299470000000071e-4 energy_j=1.0390442523531326e-2",
    "alg2 feasible m=4 var=20: success=5e-1 iters=7e1/7e1/7e1 err=9.479942984068149e-2/9.479942984068149e-2 run_s=7.699330000000032e-4 energy_j=8.642601971500031e-3",
    "alg2 feasible m=16 var=0: success=5e-1 iters=8.4e1/8.4e1/8.4e1 err=2.1886562224131777e-2/2.1886562224131777e-2 run_s=1.8152949999999976e-3 energy_j=2.1086013996249986e-2",
    "alg2 feasible m=16 var=20: success=5e-1 iters=1e2/1e2/1e2 err=5.398677422263407e-3/5.398677422263407e-3 run_s=1.0511550999999826e-2 energy_j=1.2405475970631075e-1",
    "alg2 infeasible m=4 var=0: success=5e-1 iters=4.9e1/4.9e1/4.9e1 err=NaN/NaN run_s=7.132060000000066e-4 energy_j=7.982988589750072e-3",
    "alg2 infeasible m=4 var=20: success=0e0 iters=NaN/NaN/NaN err=NaN/NaN run_s=NaN energy_j=NaN",
    "alg2 infeasible m=16 var=0: success=1e0 iters=4.65e1/4.6e1/4.7e1 err=NaN/NaN run_s=2.1331015000000107e-3 energy_j=2.5084931385250118e-2",
    "alg2 infeasible m=16 var=20: success=5e-1 iters=4.9e1/4.9e1/4.9e1 err=NaN/NaN run_s=1.1793899999999998e-3 energy_j=1.4844454358750009e-2",
];
