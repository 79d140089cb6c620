//! First-order backend study: PDIP vs PDHG past the dense-core wall
//! (DESIGN.md §17).
//!
//! Three measurements, one JSON artifact (`BENCH_pdhg.json`; its
//! wall-clock `seconds` and crossover `winner`s are host-dependent, every
//! other field must match the committed file):
//!
//! 1. **Crossover** — every memlp-lp domain at m ∈ {128, 512}, digital
//!    NormalEqPdip vs digital PdhgSolver at a *shared* KKT tolerance
//!    (1e-4 on primal/dual/gap, [`PdhgOptions::from_pdip`] so a verdict
//!    means the same thing on both): wall-clock, iterations, and the
//!    PDHG MVM count. Second-order methods win while factorizations are
//!    cheap; the table records where the balance tips.
//! 2. **Headline** — assignment at k = 256 agents (m = 512, n = 65536).
//!    The (n+m)² dense Newton core would need ~35 GB, which
//!    [`DENSE_CORE_LIMIT_BYTES`] refuses; the PDHG working set is the
//!    CSR matrix plus O(n + m) iterate vectors. The CI gate asserts the
//!    instance is solved to the shared tolerance inside a memory budget
//!    no dense path can meet.
//! 3. **Analog agreement** — for every domain at the feasible cell size,
//!    the crossbar PDHG solver (paper-default 8-bit converters, 5%
//!    variation) must return the same verdict as the digital loop — by
//!    construction both run [`memlp_solvers::pdhg::solve_with_operator`];
//!    only the operator differs — with write/energy accounting showing
//!    the run phase is MVM-only (zero update writes).

use std::time::Instant;

use memlp_bench::artifact::{self, quote, Obj, Rows};
use memlp_bench::{domain_lp, fmt_time, obj, DOMAINS};
use memlp_core::{CrossbarPdhgOptions, CrossbarPdhgSolver, DENSE_CORE_LIMIT_BYTES};
use memlp_crossbar::CrossbarConfig;
use memlp_device::CostParams;
use memlp_lp::{LpProblem, LpStatus};
use memlp_solvers::pdhg::{PdhgOptions, PdhgSolver};
use memlp_solvers::{Budget, LpSolver, NormalEqPdip, PdipOptions};

/// Shared KKT tolerance for the crossover and headline rows.
const TOL: f64 = 1e-4;

fn shared_pdip_options() -> PdipOptions {
    PdipOptions {
        eps_primal: TOL,
        eps_dual: TOL,
        eps_gap: TOL,
        ..PdipOptions::default()
    }
}

struct SolveRecord {
    secs: f64,
    iterations: usize,
    status: LpStatus,
    /// PDHG only: analog-equivalent MVM count (digital spmv calls).
    mvms: Option<u64>,
    restarts: Option<usize>,
}

fn run_pdip(lp: &LpProblem) -> SolveRecord {
    let solver = NormalEqPdip::new(shared_pdip_options());
    let t = Instant::now();
    let sol = solver.solve(lp);
    SolveRecord {
        secs: t.elapsed().as_secs_f64(),
        iterations: sol.iterations,
        status: sol.status,
        mvms: None,
        restarts: None,
    }
}

fn run_pdhg(lp: &LpProblem) -> SolveRecord {
    run_pdhg_with(lp, true)
}

fn run_pdhg_with(lp: &LpProblem, equilibrate: bool) -> SolveRecord {
    let opts = PdhgOptions {
        equilibrate,
        ..PdhgOptions::from_pdip(&shared_pdip_options())
    };
    let solver = PdhgSolver::new(opts);
    let t = Instant::now();
    let out = solver.solve_full(lp, Budget::none(), None);
    SolveRecord {
        secs: t.elapsed().as_secs_f64(),
        iterations: out.stats.iterations,
        status: out.solution.status,
        mvms: Some(out.stats.mvms),
        restarts: Some(out.stats.restarts),
    }
}

fn record(r: &SolveRecord) -> Obj {
    let mut o = obj! {
        ~seconds: format!("{:.6}", r.secs), iterations: r.iterations,
        status: quote(&r.status.to_string()),
    };
    if let (Some(mvms), Some(restarts)) = (r.mvms, r.restarts) {
        o = o
            .field("mvms", false, mvms)
            .field("restarts", false, restarts);
    }
    o
}

/// Runs the analog crossbar PDHG and the digital loop at the *analog*
/// default tolerances on the same instance, prints the row and returns
/// it with whether the verdicts agree and the run phase wrote no cell.
fn analog_row(domain: &'static str, lp: &LpProblem) -> (Obj, bool, bool) {
    let opts = CrossbarPdhgOptions::default();
    let config = CrossbarConfig::paper_default()
        .with_variation(5.0)
        .with_seed(21);
    let analog = CrossbarPdhgSolver::new(config, opts).solve(lp);
    let digital = PdhgSolver::new(opts.pdhg).solve(lp);
    let c = analog.ledger.counts();
    let (m, n) = (lp.num_constraints(), lp.num_vars());
    let (verdict_analog, verdict_digital) = (analog.solution.status, digital.status);
    let agree = verdict_analog == verdict_digital;
    let energy_mj = analog.ledger.energy_j(&CostParams::default()) * 1e3;
    println!(
        "{domain:>11} {m:>5} {n:>6} {:>10} {:>10} {:>8} {:>8} {energy_mj:>10.3}",
        verdict_analog.to_string(),
        verdict_digital.to_string(),
        c.mvm_ops,
        c.setup_writes,
    );
    let row = obj! {
        domain: quote(domain), m: m, n: n,
        verdict_analog: quote(&verdict_analog.to_string()),
        verdict_digital: quote(&verdict_digital.to_string()), agree: agree,
        mvms: c.mvm_ops, setup_writes: c.setup_writes, update_writes: c.update_writes,
        energy_mj: format!("{energy_mj:.3}"),
    };
    (row, agree, c.update_writes == 0)
}

/// The digital PDHG working set: the CSR matrix (values plus column
/// indices plus row pointers) and the O(n + m) iterate/residual vectors
/// the loop holds (x, x̄, previous x, restart window sums and best
/// iterates on both sides, cached products).
fn pdhg_workset_bytes(lp: &LpProblem) -> u64 {
    let nnz = lp.sparse_a().nnz() as u64;
    let (n, m) = (lp.num_vars() as u64, lp.num_constraints() as u64);
    let csr = nnz * 16 + (m + 1) * 8;
    let vectors = 8 * (8 * n + 8 * m);
    csr + vectors
}

fn main() {
    println!("first-order backend: digital PDIP vs PDHG at shared tolerance {TOL:.0e}");
    println!();
    println!(
        "{:>11} {:>5} {:>6} {:>12} {:>7} {:>12} {:>8} {:>9} {:>9}",
        "domain", "m", "n", "pdip", "iters", "pdhg", "iters", "mvms", "winner"
    );

    let mut crossover = Vec::new();
    let mut equilibration = Vec::new();
    let mut all_verdicts_ok = true;
    for &m_target in &[128usize, 512] {
        for domain in DOMAINS {
            let lp = domain_lp(domain, m_target);
            let pdip = run_pdip(&lp);
            let pdhg = run_pdhg(&lp);
            // Equilibration study: the same loop with the pre-step off.
            // Positive delta = iterations the row scaling saves.
            let raw = run_pdhg_with(&lp, false);
            equilibration.push(obj! {
                domain: quote(domain), m_target: m_target,
                iterations_equilibrated: pdhg.iterations,
                status_equilibrated: quote(&pdhg.status.to_string()),
                iterations_raw: raw.iterations, status_raw: quote(&raw.status.to_string()),
                iters_delta: raw.iterations as i64 - pdhg.iterations as i64,
            });
            // Both solvers must deliver at the shared tolerance for the
            // comparison to mean anything.
            all_verdicts_ok &= pdip.status == LpStatus::Optimal;
            all_verdicts_ok &= pdhg.status == LpStatus::Optimal;
            let winner = if pdip.secs <= pdhg.secs {
                "pdip"
            } else {
                "pdhg"
            };
            println!(
                "{domain:>11} {:>5} {:>6} {:>12} {:>7} {:>12} {:>8} {:>9} {winner:>9}",
                lp.num_constraints(),
                lp.num_vars(),
                fmt_time(pdip.secs),
                pdip.iterations,
                fmt_time(pdhg.secs),
                pdhg.iterations,
                pdhg.mvms.unwrap_or(0),
            );
            crossover.push(obj! {
                domain: quote(domain), m_target: m_target, m: lp.num_constraints(),
                n: lp.num_vars(), nnz: lp.sparse_a().nnz(), pdip: record(&pdip),
                pdhg: record(&pdhg), ~winner: quote(winner),
            });
        }
    }

    // --- Headline: assignment at k = 256, past the dense-core wall.
    let lp = domain_lp("assignment", 512);
    let dense_core_dim = (lp.num_vars() + lp.num_constraints()) as u64;
    let dense_core_bytes = 8 * dense_core_dim * dense_core_dim;
    let workset = pdhg_workset_bytes(&lp);
    let headline = run_pdhg(&lp);
    let memory_gate = workset < DENSE_CORE_LIMIT_BYTES && dense_core_bytes > DENSE_CORE_LIMIT_BYTES;
    let headline_gate = memory_gate && headline.status == LpStatus::Optimal;
    println!();
    println!(
        "headline assignment@k=256: {} in {} ({} iterations, {} MVMs)",
        headline.status,
        fmt_time(headline.secs),
        headline.iterations,
        headline.mvms.unwrap_or(0)
    );
    println!(
        "memory: pdhg workset {:.1} MB < limit {:.1} GB < dense core {:.1} GB",
        workset as f64 / 1e6,
        DENSE_CORE_LIMIT_BYTES as f64 / 1e9,
        dense_core_bytes as f64 / 1e9
    );

    // --- Analog verdict agreement at the feasible cell size.
    println!();
    println!(
        "{:>11} {:>5} {:>6} {:>10} {:>10} {:>8} {:>8} {:>10}",
        "domain", "m", "n", "analog", "digital", "mvms", "writes", "energy mJ"
    );
    let mut analog_rows = Vec::new();
    let mut all_agree = true;
    let mut run_writes_free = true;
    for domain in DOMAINS {
        let (row, agree, writes_free) = analog_row(domain, &domain_lp(domain, 128));
        all_agree &= agree;
        run_writes_free &= writes_free;
        analog_rows.push(row);
    }

    let gate_pass = all_verdicts_ok && headline_gate && all_agree && run_writes_free;

    let doc = obj! {
        bench: quote("pdhg"),
        suite: quote(
            "first-order backend: PDIP-vs-PDHG crossover, dense-wall headline, \
             analog verdict agreement",
        ),
        shared_tolerance: format!("{TOL:e}"),
        crossover: Rows(crossover),
        equilibration: Rows(equilibration),
        headline: obj! {
            domain: quote("assignment"), agents: 256, m: lp.num_constraints(), n: lp.num_vars(),
            result: record(&headline), pdhg_workset_bytes: workset,
            dense_core_bytes: dense_core_bytes, dense_core_limit_bytes: DENSE_CORE_LIMIT_BYTES,
            memory_gate: memory_gate,
            note: quote(
                "workset = CSR(A) + O(n+m) iterate vectors; the dense Newton core is \
                 refused by the allocation guard, so no dense path can run this instance",
            ),
        },
        analog_agreement: Rows(analog_rows),
    };
    println!();
    println!(
        "gates: verdicts_ok={all_verdicts_ok} headline={headline_gate} \
         agree={all_agree} writes_free={run_writes_free}"
    );
    artifact::finish("BENCH_pdhg.json", doc, gate_pass);
}
