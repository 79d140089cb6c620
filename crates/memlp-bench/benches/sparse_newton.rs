//! Sparse-vs-dense Newton factorization study on the digital side of
//! Algorithm 1 (DESIGN.md §13).
//!
//! For each memlp-lp domain at m ∈ {128, 512} the bench programs one
//! `AugmentedSystem` on ideal hardware, assembles a real PDIP right-hand
//! side, then times the per-iteration core solve under both
//! `Factorization::Dense` (Schur reduction of the (n+m) core to a min(n,m)
//! system + its partial-pivot LU) and `Factorization::Sparse` (diagonal
//! scatter + symbolic-reuse refactor of the (n+m) core). The analog work
//! is identical on both paths, so the ratio is pure digital-controller
//! speedup.
//!
//! A second section decomposes the digital baseline `NormalEqPdip` on
//! transport@512: the seconds per iteration of a whole solve, less its
//! once-per-solve symbolic analysis, against one
//! `SymmetricKkt::refactor` (the `n + m` diagonal writes plus the numeric
//! LDLᵀ) and `solve` (refinement to backward-error level, at most two
//! rounds) on that LP's quasi-definite KKT matrix — the work an iteration
//! cannot avoid. The gate holds the ratio at or below 2.5×, so O(m·n)
//! work creeping back into the loop (a dense residual product over the
//! 0.4%-dense `A`) fails it on any host. The row also records the LDLᵀ's
//! own `kkt_flops` and `kkt_factor_nnz`, and its `analyze_seconds`: the
//! median of `SymmetricKkt::new` (ordering and symbolic analysis), the
//! setup a solve pays once.
//!
//! Emits `BENCH_sparse.json` at the repository root and *asserts* the ≥ 5× gate on the
//! routing and transport rows at m = 512 and the `normal_eq` ratio gate.
//! The sparse warmup call (symbolic analysis + first refactor) is excluded,
//! exactly as a solver run amortizes it over iterations 2..k. That
//! once-per-solve setup is recorded on its own instead: each sparse row's
//! `analyze_seconds` is the median of `BlockKkt::new` (fill-reducing
//! ordering + symbolic analysis) on the LP's quasidefinite KKT matrix.
//! The `flops`, `factor_nnz`, `kkt_flops` and `kkt_factor_nnz` fields are
//! deterministic, like every field but the timings: the run fails when
//! one moved against the committed file, so a change to the ordering has
//! to re-commit it.

use std::time::Instant;

use memlp_bench::artifact::{self, quote, Obj, Rows};
use memlp_bench::{domain_lp, fmt_time, median, obj, DOMAINS};
use memlp_core::{AugmentedSystem, Factorization, HwContext};
use memlp_crossbar::CrossbarConfig;
use memlp_linalg::{BlockKkt, SymmetricKkt};
use memlp_lp::LpProblem;
use memlp_solvers::pdip::PdipState;
use memlp_solvers::{LpSolver, NormalEqPdip};

/// Per-iteration digital speedup the gated rows must clear.
const GATE_MIN_SPEEDUP: f64 = 5.0;
/// Rows gated: (domain, target m).
const GATED: [(&str, usize); 2] = [("routing", 512), ("transport", 512)];
/// Most a whole `NormalEqPdip` iteration may cost, as a multiple of one
/// sparse KKT refactor + refined solve on the same LP.
const GATE_MAX_ITER_OVER_KKT: f64 = 2.5;

struct Timing {
    /// Median wall-clock of one core solve, seconds.
    secs: f64,
    /// Factorization flops per iteration (exact for sparse; for dense the
    /// 2·k²·K + 2/3·k³ model of forming and factoring the k = min(n,m)
    /// Schur matrix, K = max(n,m)).
    flops: u64,
    /// Stored factor entries (|L|+|U|+diagonal for sparse, k² + K·k for
    /// dense).
    factor_nnz: u64,
}

struct Row {
    domain: &'static str,
    m_target: usize,
    m: usize,
    n: usize,
    density: f64,
    dense: Timing,
    sparse: Timing,
    /// Median wall-clock of `BlockKkt::new` on the LP's KKT matrix, seconds.
    analyze_secs: f64,
}

/// Times the per-iteration core solve under `factorization`. Programming,
/// rhs assembly, and the sparse symbolic analysis happen before the clock
/// starts; every timed call does the full per-iteration digital work
/// (diagonal updates, factorization, triangular solves, back-substitution).
fn measure(lp: &LpProblem, factorization: Factorization) -> Option<Timing> {
    let mut hw = HwContext::new(CrossbarConfig::ideal().with_seed(11));
    let state = PdipState::new(lp);
    let mut sys = AugmentedSystem::program(lp, &state, &mut hw);
    sys.force_factorization(factorization);
    let mu = state.mu();
    let s = sys.s_vector(&state);
    let ms = sys.mvm(&s, &mut hw);
    let constant = sys.rhs_constant(lp, mu);
    let r = sys.assemble_rhs(&constant, &ms);

    sys.solve(&r, &mut hw).ok()?; // warmup: sparse symbolic analysis amortizes here
    let core = lp.num_vars() + lp.num_constraints();
    let reps = if core >= 2000 { 2 } else { 5 };
    let before = hw.ledger().counts();
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        sys.solve(&r, &mut hw).ok()?;
        times.push(t.elapsed().as_secs_f64());
    }
    let after = hw.ledger().counts();
    let done = after.factorizations - before.factorizations;
    assert_eq!(
        done, reps as u64,
        "every timed rep must factor exactly once"
    );
    Some(Timing {
        secs: median(times),
        flops: (after.factor_flops - before.factor_flops) / done,
        factor_nnz: (after.factor_nnz - before.factor_nnz) / done,
    })
}

/// Median wall-clock of the sparse KKT path's once-per-solve setup,
/// `BlockKkt::new(Aᵀ, A)`: the fill-reducing ordering plus the symbolic
/// analysis.
fn measure_analyze(lp: &LpProblem) -> f64 {
    let a = lp.sparse_a();
    let at = a.transpose();
    let reps = if lp.num_vars() + lp.num_constraints() >= 20_000 {
        3
    } else {
        7
    };
    let times = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let kkt = BlockKkt::new(&at, a).expect("KKT symbolic analysis");
            let secs = t.elapsed().as_secs_f64();
            drop(kkt);
            secs
        })
        .collect();
    median(times)
}

/// The `normal_eq` decomposition: a whole solve's cost per iteration
/// against its per-iteration sparse KKT floor.
struct NormalEqSplit {
    m: usize,
    n: usize,
    iterations: usize,
    /// Median wall-clock of one `NormalEqPdip::default()` solve, less the
    /// once-per-solve `analyze_secs`, divided by its iteration count,
    /// seconds.
    iter_secs: f64,
    /// Median wall-clock of one `SymmetricKkt::refactor` + `solve` on the
    /// LP's KKT matrix, seconds.
    kkt_secs: f64,
    /// Median wall-clock of `SymmetricKkt::new` (ordering and symbolic
    /// analysis, once per solve), seconds.
    analyze_secs: f64,
    /// Flops of one LDLᵀ refactor.
    kkt_flops: u64,
    /// Stored LDLᵀ entries, `|L|` plus the diagonal.
    kkt_factor_nnz: usize,
}

fn measure_normal_eq(lp: &LpProblem) -> NormalEqSplit {
    const REPS: usize = 5;
    let solver = NormalEqPdip::default();
    let sol = solver.solve(lp); // warmup
    let mut solves = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        let again = solver.solve(lp);
        solves.push(t.elapsed().as_secs_f64());
        assert_eq!(again.iterations, sol.iterations, "deterministic solve");
    }

    // The KKT at the converged iterate: the most ill-conditioned one, where
    // refinement does the most work.
    let s = PdipState::warm_start(lp, &sol.x, &sol.y, 1e-9);
    let d_inv: Vec<f64> = s.z.iter().zip(&s.x).map(|(z, x)| z / x).collect();
    let e: Vec<f64> = s.w.iter().zip(&s.y).map(|(w, y)| w / y).collect();
    let mut analyses = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        let kkt = SymmetricKkt::new(lp.sparse_a());
        analyses.push(t.elapsed().as_secs_f64());
        drop(kkt);
    }
    let mut kkt = SymmetricKkt::new(lp.sparse_a());
    let rhs: Vec<f64> = (0..d_inv.len() + e.len())
        .map(|i| 1.0 + (i % 7) as f64)
        .collect();
    let mut kkts = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        kkt.refactor(&d_inv, &e).expect("KKT refactor");
        let x = kkt.solve(&rhs).expect("KKT solve");
        kkts.push(t.elapsed().as_secs_f64());
        assert!(x.iter().all(|v| v.is_finite()));
    }
    // Each solve runs the symbolic analysis once; the gate compares the
    // per-iteration work only.
    let analyze_secs = median(analyses);
    NormalEqSplit {
        m: lp.num_constraints(),
        n: lp.num_vars(),
        iterations: sol.iterations,
        iter_secs: (median(solves) - analyze_secs) / sol.iterations.max(1) as f64,
        kkt_secs: median(kkts),
        analyze_secs,
        kkt_flops: kkt.flops(),
        kkt_factor_nnz: kkt.factor_nnz(),
    }
}

fn timing(t: &Timing) -> Obj {
    obj! { ~seconds: format!("{:.6}", t.secs), flops: t.flops, factor_nnz: t.factor_nnz }
}

fn main() {
    println!("sparse Newton path: per-iteration core solve, dense vs sparse");
    println!();
    println!(
        "{:>11} {:>5} {:>5} {:>6} {:>8} {:>12} {:>12} {:>9} {:>12}",
        "domain", "m", "n", "dens", "", "dense", "sparse", "speedup", "analyze"
    );

    let mut rows: Vec<Row> = Vec::new();
    for &m_target in &[128usize, 512] {
        for domain in DOMAINS {
            let lp = domain_lp(domain, m_target);
            let dense = measure(&lp, Factorization::Dense).expect("dense core solve");
            let sparse = measure(&lp, Factorization::Sparse).expect("sparse core solve");
            let analyze_secs = measure_analyze(&lp);
            println!(
                "{domain:>11} {:>5} {:>5} {:>6.4} {:>8} {:>12} {:>12} {:>8.1}x {:>12}",
                lp.num_constraints(),
                lp.num_vars(),
                lp.density(),
                "",
                fmt_time(dense.secs),
                fmt_time(sparse.secs),
                dense.secs / sparse.secs,
                fmt_time(analyze_secs),
            );
            rows.push(Row {
                domain,
                m_target,
                m: lp.num_constraints(),
                n: lp.num_vars(),
                density: lp.density(),
                dense,
                sparse,
                analyze_secs,
            });
        }
    }

    let split = measure_normal_eq(&domain_lp("transport", 512));
    let ratio = split.iter_secs / split.kkt_secs;
    println!();
    println!(
        "normal_eq transport@512: {} per iteration ({} iterations), KKT refactor+refine {}: {ratio:.2}x (gate <= {GATE_MAX_ITER_OVER_KKT}x); analysis {} per solve",
        fmt_time(split.iter_secs),
        split.iterations,
        fmt_time(split.kkt_secs),
        fmt_time(split.analyze_secs),
    );

    let mut gate_pass = ratio <= GATE_MAX_ITER_OVER_KKT;
    for &(domain, m_target) in &GATED {
        let row = rows
            .iter()
            .find(|r| r.domain == domain && r.m_target == m_target)
            .expect("gated row present");
        let speedup = row.dense.secs / row.sparse.secs;
        println!("gate {domain}@{m_target}: {speedup:.1}x (need >= {GATE_MIN_SPEEDUP}x)");
        if speedup < GATE_MIN_SPEEDUP {
            gate_pass = false;
        }
    }

    let rows_json = rows.iter().map(|r| {
        let flops_ratio = if r.sparse.flops > 0 {
            format!("{:.2}", r.dense.flops as f64 / r.sparse.flops as f64)
        } else {
            "null".into()
        };
        let analyze = format!("{:.6}", r.analyze_secs);
        obj! {
            domain: quote(r.domain), m_target: r.m_target, m: r.m, n: r.n,
            density: format!("{:.5}", r.density), dense: timing(&r.dense),
            sparse: timing(&r.sparse).field("analyze_seconds", true, analyze),
            ~speedup_time: format!("{:.2}", r.dense.secs / r.sparse.secs),
            speedup_flops: flops_ratio,
        }
    });
    let doc = obj! {
        bench: quote("sparse_newton"),
        suite: quote("memlp-lp domains, per-iteration core solve on ideal hardware"),
        gate_min_speedup: GATE_MIN_SPEEDUP,
        gate_rows: "[\"routing@512\", \"transport@512\"]",
        rows: Rows(rows_json.collect()),
        normal_eq: obj! {
            domain: quote("transport"), m_target: 512, m: split.m, n: split.n,
            iterations: split.iterations, ~iter_seconds: format!("{:.6}", split.iter_secs),
            ~kkt_refactor_refine_seconds: format!("{:.6}", split.kkt_secs),
            ~analyze_seconds: format!("{:.6}", split.analyze_secs),
            kkt_flops: split.kkt_flops, kkt_factor_nnz: split.kkt_factor_nnz,
            ~iter_over_kkt: format!("{ratio:.2}"), gate_max_iter_over_kkt: GATE_MAX_ITER_OVER_KKT,
        },
    };
    artifact::finish("BENCH_sparse.json", doc, gate_pass);
}
