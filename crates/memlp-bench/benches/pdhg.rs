//! First-order backend study: PDIP vs PDHG past the dense-core wall
//! (DESIGN.md §17).
//!
//! Three measurements, one JSON artifact (`BENCH_pdhg.json`):
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

use memlp_bench::fmt_time;
use memlp_core::{CrossbarPdhgOptions, CrossbarPdhgSolver, DENSE_CORE_LIMIT_BYTES};
use memlp_crossbar::CrossbarConfig;
use memlp_device::CostParams;
use memlp_lp::domains::{
    assignment_lp, max_flow_lp, production_schedule_lp, transportation_lp, AssignmentProblem,
    MaxFlowNetwork, ProductionPlan, TransportationProblem,
};
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

/// Domain instances sized to `m_target` constraints (same constructors
/// and seed as the sparse-Newton study, so rows are comparable across
/// benches).
fn build(domain: &'static str, m_target: usize) -> LpProblem {
    let lp = match (domain, m_target) {
        ("transport", 128) => transportation_lp(&TransportationProblem::random(4, 124, 21)),
        ("transport", 512) => transportation_lp(&TransportationProblem::random(4, 508, 21)),
        ("routing", 128) => max_flow_lp(&MaxFlowNetwork::random_layered(6, 6, 21)),
        ("routing", 512) => max_flow_lp(&MaxFlowNetwork::random_layered(12, 12, 21)),
        ("scheduling", 128) => production_schedule_lp(&ProductionPlan::random(8, 120, 21)),
        ("scheduling", 512) => production_schedule_lp(&ProductionPlan::random(8, 504, 21)),
        ("assignment", 128) => assignment_lp(&AssignmentProblem::random(64, 21)),
        ("assignment", 512) => assignment_lp(&AssignmentProblem::random(256, 21)),
        _ => unreachable!("unknown bench row"),
    };
    lp.expect("valid domain instance")
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

fn fmt_record(r: &SolveRecord) -> String {
    let mut s = format!(
        "{{\"seconds\": {:.6}, \"iterations\": {}, \"status\": \"{}\"",
        r.secs, r.iterations, r.status
    );
    if let Some(m) = r.mvms {
        s.push_str(&format!(", \"mvms\": {m}"));
    }
    if let Some(rs) = r.restarts {
        s.push_str(&format!(", \"restarts\": {rs}"));
    }
    s.push('}');
    s
}

struct AnalogRow {
    domain: &'static str,
    m: usize,
    n: usize,
    verdict_analog: LpStatus,
    verdict_digital: LpStatus,
    agree: bool,
    mvms: u64,
    setup_writes: u64,
    update_writes: u64,
    energy_mj: f64,
}

/// Runs the analog crossbar PDHG and the digital loop at the *analog*
/// default tolerances on the same instance; verdicts must match.
fn analog_row(domain: &'static str, lp: &LpProblem) -> AnalogRow {
    let opts = CrossbarPdhgOptions::default();
    let analog = CrossbarPdhgSolver::new(
        CrossbarConfig::paper_default()
            .with_variation(5.0)
            .with_seed(21),
        opts,
    )
    .solve(lp);
    let digital = PdhgSolver::new(opts.pdhg).solve(lp);
    let c = analog.ledger.counts();
    AnalogRow {
        domain,
        m: lp.num_constraints(),
        n: lp.num_vars(),
        verdict_analog: analog.solution.status,
        verdict_digital: digital.status,
        agree: analog.solution.status == digital.status,
        mvms: c.mvm_ops,
        setup_writes: c.setup_writes,
        update_writes: c.update_writes,
        energy_mj: analog.ledger.energy_j(&CostParams::default()) * 1e3,
    }
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

    let mut crossover = String::new();
    let mut equilibration = String::new();
    let mut all_verdicts_ok = true;
    let domains = ["transport", "routing", "scheduling", "assignment"];
    let mut first = true;
    for &m_target in &[128usize, 512] {
        for domain in domains {
            let lp = build(domain, m_target);
            let pdip = run_pdip(&lp);
            let pdhg = run_pdhg(&lp);
            // Equilibration study: the same loop with the pre-step off.
            // Positive delta = iterations the row scaling saves.
            let raw = run_pdhg_with(&lp, false);
            if !equilibration.is_empty() {
                equilibration.push_str(",\n");
            }
            equilibration.push_str(&format!(
                "    {{\"domain\": \"{domain}\", \"m_target\": {m_target}, \
                 \"iterations_equilibrated\": {}, \"status_equilibrated\": \"{}\", \
                 \"iterations_raw\": {}, \"status_raw\": \"{}\", \"iters_delta\": {}}}",
                pdhg.iterations,
                pdhg.status,
                raw.iterations,
                raw.status,
                raw.iterations as i64 - pdhg.iterations as i64,
            ));
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
            if !first {
                crossover.push_str(",\n");
            }
            first = false;
            crossover.push_str(&format!(
                "    {{\"domain\": \"{domain}\", \"m_target\": {m_target}, \"m\": {}, \
                 \"n\": {}, \"nnz\": {}, \"pdip\": {}, \"pdhg\": {}, \"winner\": \"{winner}\"}}",
                lp.num_constraints(),
                lp.num_vars(),
                lp.sparse_a().nnz(),
                fmt_record(&pdip),
                fmt_record(&pdhg),
            ));
        }
    }

    // --- Headline: assignment at k = 256, past the dense-core wall.
    let lp = build("assignment", 512);
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
    for domain in domains {
        let lp = build(domain, 128);
        let row = analog_row(domain, &lp);
        println!(
            "{:>11} {:>5} {:>6} {:>10} {:>10} {:>8} {:>8} {:>10.3}",
            row.domain,
            row.m,
            row.n,
            row.verdict_analog.to_string(),
            row.verdict_digital.to_string(),
            row.mvms,
            row.setup_writes,
            row.energy_mj
        );
        all_agree &= row.agree;
        run_writes_free &= row.update_writes == 0;
        analog_rows.push(row);
    }

    let gate_pass = all_verdicts_ok && headline_gate && all_agree && run_writes_free;

    // --- BENCH_pdhg.json at the repository root.
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"pdhg\",\n");
    json.push_str(
        "  \"suite\": \"first-order backend: PDIP-vs-PDHG crossover, dense-wall headline, \
         analog verdict agreement\",\n",
    );
    json.push_str(&format!("  \"shared_tolerance\": {TOL:e},\n"));
    json.push_str("  \"crossover\": [\n");
    json.push_str(&crossover);
    json.push_str("\n  ],\n");
    json.push_str("  \"equilibration\": [\n");
    json.push_str(&equilibration);
    json.push_str("\n  ],\n");
    json.push_str(&format!(
        "  \"headline\": {{\"domain\": \"assignment\", \"agents\": 256, \"m\": {}, \"n\": {}, \
         \"result\": {}, \"pdhg_workset_bytes\": {}, \"dense_core_bytes\": {}, \
         \"dense_core_limit_bytes\": {}, \"memory_gate\": {}, \
         \"note\": \"workset = CSR(A) + O(n+m) iterate vectors; the dense Newton core is \
         refused by the allocation guard, so no dense path can run this instance\"}},\n",
        lp.num_constraints(),
        lp.num_vars(),
        fmt_record(&headline),
        workset,
        dense_core_bytes,
        DENSE_CORE_LIMIT_BYTES,
        memory_gate,
    ));
    json.push_str("  \"analog_agreement\": [\n");
    for (i, r) in analog_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"domain\": \"{}\", \"m\": {}, \"n\": {}, \"verdict_analog\": \"{}\", \
             \"verdict_digital\": \"{}\", \"agree\": {}, \"mvms\": {}, \"setup_writes\": {}, \
             \"update_writes\": {}, \"energy_mj\": {:.3}}}{}\n",
            r.domain,
            r.m,
            r.n,
            r.verdict_analog,
            r.verdict_digital,
            r.agree,
            r.mvms,
            r.setup_writes,
            r.update_writes,
            r.energy_mj,
            if i + 1 < analog_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"gate_pass\": {gate_pass}\n}}\n"));

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = std::path::Path::new(root).join("BENCH_pdhg.json");
    std::fs::write(&path, &json).expect("write BENCH_pdhg.json");
    println!();
    println!("wrote {}", path.display());

    assert!(
        gate_pass,
        "pdhg gate failed: verdicts_ok={all_verdicts_ok} headline={headline_gate} \
         agree={all_agree} writes_free={run_writes_free}"
    );
}
