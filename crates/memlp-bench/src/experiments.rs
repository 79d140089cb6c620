//! Grid execution behind the §4 suite ([`crate::paper`]).

use std::time::Instant;

use memlp_core::{CrossbarPdipSolver, CrossbarSolverOptions, LargeScaleOptions, LargeScaleSolver};
use memlp_crossbar::CrossbarConfig;
use memlp_device::CostParams;
use memlp_lp::generator::RandomLp;
use memlp_lp::{LpProblem, LpStatus};
use memlp_solvers::{DensePdip, LpSolver, NormalEqPdip};

use crate::{run_trials, Stats, Sweep};

/// Which crossbar solver an experiment drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Algorithm 1 (full augmented system).
    Alg1,
    /// Algorithm 2 (large-scale split system).
    Alg2,
}

impl SolverKind {
    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            SolverKind::Alg1 => "alg1",
            SolverKind::Alg2 => "alg2",
        }
    }
}

/// One trial's outcome.
#[derive(Debug, Clone, Copy)]
pub struct TrialOutcome {
    /// Terminal status.
    pub status: LpStatus,
    /// Relative objective error vs the f64 reference (NaN unless both are
    /// optimal).
    pub rel_error: f64,
    /// Terminal status of the `NormalEqPdip` reference; callers count the
    /// trials where it missed the expected verdict.
    pub reference: LpStatus,
    /// PDIP iterations.
    pub iterations: usize,
    /// Estimated hardware run-phase latency, s (retries included).
    pub hw_run_s: f64,
    /// Estimated hardware energy, J.
    pub hw_energy_j: f64,
    /// Reference solver wall time, s.
    pub ref_wall_s: f64,
}

/// Solves one instance on the chosen crossbar solver and the reference.
pub fn run_one(kind: SolverKind, lp: &LpProblem, var_pct: f64, seed: u64) -> TrialOutcome {
    let t0 = Instant::now();
    let reference = NormalEqPdip::default().solve(lp);
    let ref_wall_s = t0.elapsed().as_secs_f64();

    let config = CrossbarConfig::paper_default()
        .with_variation(var_pct)
        .with_seed(seed);
    let (solution, ledger) = match kind {
        SolverKind::Alg1 => {
            let r = CrossbarPdipSolver::new(config, CrossbarSolverOptions::default()).solve(lp);
            (r.solution, r.ledger)
        }
        SolverKind::Alg2 => {
            let r = LargeScaleSolver::new(config, LargeScaleOptions::default()).solve(lp);
            (r.solution, r.ledger)
        }
    };
    let rel_error = if solution.status.is_optimal() && reference.status.is_optimal() {
        (solution.objective - reference.objective).abs() / (1.0 + reference.objective.abs())
    } else {
        f64::NAN
    };
    TrialOutcome {
        status: solution.status,
        rel_error,
        reference: reference.status,
        iterations: solution.iterations,
        hw_run_s: ledger.run_time_s(),
        hw_energy_j: ledger.energy_j(&CostParams::default()),
        ref_wall_s,
    }
}

/// Aggregated results at one grid point.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Constraints `m`.
    pub m: usize,
    /// Variation percentage.
    pub var_pct: f64,
    /// Fraction of trials that ended with the expected status.
    pub success_rate: f64,
    /// Relative objective error stats (optimal trials only).
    pub rel_error: Stats,
    /// Iteration count stats.
    pub iterations: Stats,
    /// Hardware run-latency stats, s.
    pub hw_run_s: Stats,
    /// Hardware energy stats, J.
    pub hw_energy_j: Stats,
    /// Reference wall-time stats, s.
    pub ref_wall_s: Stats,
}

/// Runs the feasible-workload grid for one solver kind.
pub fn feasible_grid(kind: SolverKind, sweep: &Sweep) -> Vec<GridPoint> {
    grid(kind, sweep, false)
}

/// Runs the infeasible-workload grid (success = detected infeasible).
pub fn infeasible_grid(kind: SolverKind, sweep: &Sweep) -> Vec<GridPoint> {
    grid(kind, sweep, true)
}

/// The §4.2 random LP of size `m` drawn from `seed`, feasible or not.
pub(crate) fn draw(m: usize, seed: u64, infeasible: bool) -> LpProblem {
    let gen = RandomLp::paper(m, seed);
    if infeasible {
        gen.infeasible()
    } else {
        gen.feasible()
    }
}

/// The verdict a draw must reach to count as a success.
pub(crate) fn expected(infeasible: bool) -> LpStatus {
    if infeasible {
        LpStatus::Infeasible
    } else {
        LpStatus::Optimal
    }
}

fn grid(kind: SolverKind, sweep: &Sweep, infeasible: bool) -> Vec<GridPoint> {
    let mut out = Vec::new();
    for &m in &sweep.sizes {
        for &var in &sweep.variations {
            let outcomes = run_trials(sweep.trials, |trial| {
                let seed = 1000 + m as u64 * 131 + (var as u64) * 17 + trial as u64;
                run_one(kind, &draw(m, seed, infeasible), var, seed ^ 0xBEEF)
            });
            let expected = expected(infeasible);
            let successes = outcomes.iter().filter(|o| o.status == expected).count();
            report_reference_misses(
                &format!("{} m = {m}, {var}% variation", kind.label()),
                outcomes.iter().map(|o| o.reference),
                expected,
            );
            out.push(GridPoint {
                m,
                var_pct: var,
                success_rate: successes as f64 / outcomes.len().max(1) as f64,
                rel_error: outcomes.iter().map(|o| o.rel_error).collect(),
                iterations: outcomes
                    .iter()
                    .filter(|o| o.status == expected)
                    .map(|o| o.iterations as f64)
                    .collect(),
                hw_run_s: outcomes
                    .iter()
                    .filter(|o| o.status == expected)
                    .map(|o| o.hw_run_s)
                    .collect(),
                hw_energy_j: outcomes
                    .iter()
                    .filter(|o| o.status == expected)
                    .map(|o| o.hw_energy_j)
                    .collect(),
                ref_wall_s: outcomes.iter().map(|o| o.ref_wall_s).collect(),
            });
        }
    }
    out
}

/// Prints how many of the `statuses` of a reference solver missed
/// `expected`: a reference that does not converge is reported, not
/// dropped from the statistics.
pub fn report_reference_misses(
    what: &str,
    statuses: impl IntoIterator<Item = LpStatus>,
    expected: LpStatus,
) {
    let (mut total, mut misses) = (0, 0);
    for status in statuses {
        total += 1;
        misses += usize::from(status != expected);
    }
    println!("{what}: {misses} of {total} reference solves did not reach {expected:?}");
}

/// Measures the software baselines' wall time on feasible instances at one
/// size: `(normal_eq_seconds, dense_seconds_if_run)`. The dense baseline is
/// skipped above `dense_limit` (O(N³) per iteration gets slow). Every
/// trial's time counts; the solves that do not reach optimality are
/// counted and printed.
pub fn software_latency(m: usize, trials: usize, dense_limit: usize) -> (Stats, Stats) {
    let time = |solver: &(dyn LpSolver + Sync)| {
        run_trials(trials, |trial| {
            let lp = RandomLp::paper(m, 500 + trial as u64).feasible();
            let t = Instant::now();
            let s = solver.solve(&lp);
            (t.elapsed().as_secs_f64(), s.status)
        })
    };
    let stats = |name: &str, runs: Vec<(f64, LpStatus)>| -> Stats {
        report_reference_misses(
            &format!("{name} m = {m}"),
            runs.iter().map(|&(_, status)| status),
            LpStatus::Optimal,
        );
        runs.into_iter().map(|(wall, _)| wall).collect()
    };
    let normal = stats("NormalEqPdip", time(&NormalEqPdip::default()));
    let dense = if m <= dense_limit {
        stats("DensePdip", time(&DensePdip::default()))
    } else {
        Stats::new()
    };
    (normal, dense)
}
