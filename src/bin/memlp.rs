//! `memlp` — command-line LP solving on simulated memristor hardware.
//!
//! ```text
//! memlp solve <file.lp> [<file.lp> ...]
//!             [--solver alg1|alg2|simplex|pdip|mehrotra|pdhg|pdhg-analog|auto]
//!             [--variation <pct>] [--seed <n>] [--jobs <n>] [--quiet]
//!             [--max-iters <n>] [--timeout-iters <n>]
//!             [--stuck-rate <frac>] [--dead-line-rate <frac>]
//!             [--transient-rate <frac>] [--spares <n>]
//!             [--recovery off|hardware|full]
//! memlp serve [--addr <host:port>] [--solver alg1|pdhg-analog]
//!             [--queue-depth <n>] [--workers <n>]
//!             [--variation <pct>] [--seed <n>]        # long-running daemon
//! memlp client <addr> [solve <file.lp> ... | health | drain]
//! memlp generate <m> [--seed <n>] [--infeasible]   # emit a random LP
//! memlp info <file.lp>                             # problem statistics
//! ```
//!
//! With several files, `solve` runs them as a concurrent batch; `--jobs`
//! caps the batch workers (0 = auto from `MEMLP_THREADS` / CPU count).
//! The fault knobs inject hardware defects into the crossbar solvers:
//! `--stuck-rate` is the total stuck-cell fraction (split evenly between
//! stuck-on and stuck-off), `--dead-line-rate` kills whole word/bit lines,
//! `--transient-rate` flips ADC read-outs, and `--recovery` selects how far
//! the solvers escalate when write–verify reports defects. The LP's
//! constraint-matrix density picks Algorithm 1's digital factorization
//! (sparse or dense) of each Newton system; `pdip` and `mehrotra` factor
//! the quasi-definite KKT by a sparse LDLᵀ on every LP. `--max-iters`
//! caps total Newton iterations and `--timeout-iters` sets a
//! deterministic per-solve deadline (in iteration polls); both take a
//! count from 1 to `u32::MAX` in `solve`, `serve` and `client` alike.
//! Either budget expiring returns the best iterate found with a
//! `degraded:` verdict instead of failing.
//! `--solver pdhg` is the matrix-free first-order backend (digital CSR),
//! `pdhg-analog` runs the same loop on crossbar MVMs, and `auto` picks per
//! problem: PDIP while the dense Newton core fits the
//! `DENSE_CORE_LIMIT_BYTES` allocation guard, PDHG past it.
//! `serve` runs the crossbar families `alg1` (default) and `pdhg-analog`
//! under the same names. The `.lp` dialect is documented in
//! `memlp_lp::format`.

use std::io::{self, Write};
use std::num::NonZeroU32;
use std::process::ExitCode;

use memlp::prelude::*;
use memlp_device::CostParams;
use memlp_lp::format;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = io::stdout();
    let mut out = stdout.lock();
    match run(&args, &mut out).and_then(|()| out.flush().map_err(Stop::from)) {
        // A reader that closed the pipe early (`memlp … | head`) has
        // taken what it wanted.
        Ok(()) | Err(Stop::ClosedPipe) => ExitCode::SUCCESS,
        Err(Stop::Error(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command stopped short of success.
enum Stop {
    /// A usage, input or solve error, reported on standard error.
    Error(String),
    /// Standard output was closed by its reader.
    ClosedPipe,
}

impl From<String> for Stop {
    fn from(msg: String) -> Self {
        Stop::Error(msg)
    }
}

impl From<&str> for Stop {
    fn from(msg: &str) -> Self {
        Stop::Error(msg.into())
    }
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::BrokenPipe {
            Stop::ClosedPipe
        } else {
            Stop::Error(format!("cannot write output: {e}"))
        }
    }
}

/// Every command writes through `out`, one locked standard-output handle.
type Out<'a> = &'a mut dyn Write;

const USAGE: &str = "usage:
  memlp solve <file.lp> [<file.lp> ...] [--solver alg1|alg2|simplex|pdip|mehrotra|pdhg|pdhg-analog|auto] [--variation <pct>] [--seed <n>] [--jobs <n>] [--quiet]
              [--max-iters <n>] [--timeout-iters <n>]
              [--stuck-rate <frac>] [--dead-line-rate <frac>] [--transient-rate <frac>] [--spares <n>] [--recovery off|hardware|full]
  memlp serve [--addr <host:port>] [--solver alg1|pdhg-analog] [--queue-depth <n>] [--workers <n>] [--variation <pct>] [--seed <n>] [--max-iters <n>] [--timeout-iters <n>]
  memlp client <addr> (solve <file.lp> [...] [--max-iters <n>] [--timeout-iters <n>] [--family <tag>] | health | drain)
  memlp generate <m> [--seed <n>] [--infeasible]
  memlp info <file.lp>";

fn run(args: &[String], out: Out<'_>) -> Result<(), Stop> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("solve") => solve_cmd(&args[1..], out),
        Some("serve") => serve_cmd(&args[1..], out),
        Some("client") => client_cmd(&args[1..], out),
        Some("generate") => generate_cmd(&args[1..], out),
        Some("info") => info_cmd(&args[1..], out),
        Some(other) => Err(format!("unknown command `{other}`").into()),
        None => Err("missing command".into()),
    }
}

struct Flags {
    positional: Vec<String>,
    solver: String,
    variation: f64,
    seed: u64,
    /// Batch workers for multi-file `solve` (0 = resolve from the
    /// environment: `MEMLP_THREADS`, then available parallelism).
    jobs: usize,
    quiet: bool,
    infeasible: bool,
    /// Total stuck-cell fraction (split evenly stuck-on/stuck-off).
    stuck_rate: f64,
    /// Dead word/bit line fraction.
    dead_line_rate: f64,
    /// Transient ADC read-upset fraction.
    transient_rate: f64,
    /// Spare lines per array side (None = hardware default).
    spares: Option<usize>,
    /// Recovery escalation policy: off | hardware | full.
    recovery: RecoveryPolicy,
    /// Cap on total Newton iterations (None = unlimited). `u32` is the
    /// wire width, so an out-of-range value is refused at parse time, and
    /// so is 0, which the wire reads as "unset".
    max_iters: Option<NonZeroU32>,
    /// Deterministic deadline in iteration polls (None = none), a non-zero
    /// `u32` for the same reasons.
    timeout_iters: Option<NonZeroU32>,
    /// Listen/connect address for serve/client.
    addr: String,
    /// Admission-queue depth for serve.
    queue_depth: usize,
    /// Worker threads for serve (1 = deterministic).
    workers: usize,
    /// Problem-family tag for client jobs (warm-context pooling key).
    family: String,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        positional: Vec::new(),
        solver: "alg1".into(),
        variation: 0.0,
        seed: 42,
        jobs: 0,
        quiet: false,
        infeasible: false,
        stuck_rate: 0.0,
        dead_line_rate: 0.0,
        transient_rate: 0.0,
        spares: None,
        recovery: RecoveryPolicy::Full,
        max_iters: None,
        timeout_iters: None,
        addr: "127.0.0.1:0".into(),
        queue_depth: 16,
        workers: 1,
        family: "default".into(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        match flag {
            "--solver" => f.solver = flag_value(&mut it, flag)?,
            "--variation" => f.variation = flag_value(&mut it, flag)?,
            "--seed" => f.seed = flag_value(&mut it, flag)?,
            "--jobs" => f.jobs = flag_value(&mut it, flag)?,
            "--stuck-rate" => f.stuck_rate = flag_value(&mut it, flag)?,
            "--dead-line-rate" => f.dead_line_rate = flag_value(&mut it, flag)?,
            "--transient-rate" => f.transient_rate = flag_value(&mut it, flag)?,
            "--spares" => f.spares = Some(flag_value(&mut it, flag)?),
            "--recovery" => {
                f.recovery = match flag_value::<String>(&mut it, flag)?.as_str() {
                    "off" | "disabled" => RecoveryPolicy::Disabled,
                    "hardware" => RecoveryPolicy::Hardware,
                    "full" => RecoveryPolicy::Full,
                    other => return Err(format!("unknown recovery policy `{other}`")),
                }
            }
            "--max-iters" => f.max_iters = Some(flag_value(&mut it, flag)?),
            "--timeout-iters" => f.timeout_iters = Some(flag_value(&mut it, flag)?),
            "--addr" => f.addr = flag_value(&mut it, flag)?,
            "--queue-depth" => f.queue_depth = flag_value(&mut it, flag)?,
            "--workers" => f.workers = flag_value(&mut it, flag)?,
            "--family" => f.family = flag_value(&mut it, flag)?,
            "--quiet" => f.quiet = true,
            "--infeasible" => f.infeasible = true,
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            other => f.positional.push(other.to_string()),
        }
    }
    Ok(f)
}

/// Takes the value that follows `flag` and parses it; a missing and a
/// malformed value are both reported under the flag's name.
fn flag_value<T>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|e| format!("{flag}: invalid value `{raw}`: {e}"))
}

fn load(path: &str) -> Result<LpProblem, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    format::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// One solved row: the LP result plus, for crossbar families, the hardware
/// ledger, the recovery report and the budget-degradation cause.
type SolveRow = (
    LpSolution,
    Option<memlp_crossbar::CostLedger>,
    Option<RecoveryReport>,
    Option<BudgetCause>,
);

/// What `--solver <name>` selects: solves one LP under a budget; `Err` is
/// an admission refusal.
type SolveFn = Box<dyn Fn(&LpProblem, Budget<'_>) -> Result<SolveRow, String> + Sync>;

/// A crossbar family: admission check, then a cold solve on fresh
/// hardware with the inner kernels pinned to one thread (the per-solve
/// matrices are too small to amortize nested fan-out under `--jobs`).
fn crossbar(solver: impl CrossbarSolver + 'static) -> SolveFn {
    Box::new(move |lp, budget| {
        solver.preflight(lp).map_err(|e| e.to_string())?;
        let r = memlp_linalg::parallel::with_threads(1, || solver.solve_budgeted(lp, budget));
        Ok((r.solution, Some(r.ledger), Some(r.recovery), r.degraded))
    })
}

/// A digital family: no hardware accounting, kernels left unpinned.
fn digital(
    solve: impl Fn(&LpProblem, Budget<'_>) -> (LpSolution, Option<BudgetCause>) + Sync + 'static,
) -> SolveFn {
    Box::new(move |lp, budget| {
        let (sol, cause) = solve(lp, budget);
        Ok((sol, None, None, cause))
    })
}

/// The solver registry, keyed by the `--solver` name.
fn solver_family(f: &Flags, config: CrossbarConfig) -> Result<SolveFn, String> {
    let pdip = NormalEqPdip::default();
    Ok(match f.solver.as_str() {
        "alg1" => crossbar(CrossbarPdipSolver::new(
            config,
            CrossbarSolverOptions {
                recovery: f.recovery,
                ..CrossbarSolverOptions::default()
            },
        )),
        "alg2" => crossbar(LargeScaleSolver::new(
            config,
            LargeScaleOptions {
                recovery: f.recovery,
                ..LargeScaleOptions::default()
            },
        )),
        "pdhg-analog" => crossbar(CrossbarPdhgSolver::new(
            config,
            CrossbarPdhgOptions {
                recovery: f.recovery,
                ..CrossbarPdhgOptions::default()
            },
        )),
        "simplex" => digital(|lp, _| (Simplex::default().solve(lp), None)),
        "pdip" => digital(move |lp, budget| pdip.solve_budgeted(lp, budget)),
        "mehrotra" => digital(|lp, budget| MehrotraPdip::default().solve_budgeted(lp, budget)),
        "pdhg" => digital(|lp, budget| PdhgSolver::default().solve_budgeted(lp, budget)),
        // Digital auto-selection: PDIP while the dense Newton core fits
        // the allocation guard, the matrix-free PDHG backend past it.
        "auto" => digital(move |lp, budget| {
            let dim = lp.num_vars() + lp.num_constraints();
            if memlp_core::dense_core_bytes(dim) > memlp_core::DENSE_CORE_LIMIT_BYTES {
                PdhgSolver::default().solve_budgeted(lp, budget)
            } else {
                pdip.solve_budgeted(lp, budget)
            }
        }),
        other => return Err(format!("unknown solver `{other}`")),
    })
}

fn solve_cmd(args: &[String], out: Out<'_>) -> Result<(), Stop> {
    let f = parse_flags(args)?;
    if f.positional.is_empty() {
        return Err("solve needs a file argument".into());
    }
    let lps: Vec<LpProblem> = f
        .positional
        .iter()
        .map(|p| load(p))
        .collect::<Result<_, _>>()?;
    let faults = FaultModel::new(0.5 * f.stuck_rate, 0.5 * f.stuck_rate)
        .and_then(|m| m.with_dead_lines(f.dead_line_rate, f.dead_line_rate))
        .and_then(|m| m.with_transients(f.transient_rate))
        .map_err(|e| e.to_string())?;
    let mut config = CrossbarConfig::paper_default()
        .with_variation(f.variation)
        .with_seed(f.seed)
        .with_faults(faults);
    if let Some(spares) = f.spares {
        config = config.with_spare_lines(spares);
    }
    let jobs = if f.jobs == 0 {
        memlp_linalg::parallel::Threads::resolve().get()
    } else {
        f.jobs
    };
    let solve = solver_family(&f, config)?;
    // Multi-file batches fan out across `jobs` workers; every problem is an
    // isolated deterministic simulation, so results (and the single-file
    // output) are identical to sequential solves. Admission errors (e.g. an
    // oversized explicit-dense core) land in the failing item's slot only.
    let results: Vec<Result<SolveRow, String>> =
        memlp_linalg::parallel::run_indexed(jobs, lps.len(), |i| {
            // Per-item budget: every problem gets its own fresh deadline.
            let dl = f
                .timeout_iters
                .map(|t| IterationDeadline::new(t.get() as usize));
            let mut budget = Budget::none();
            if let Some(n) = f.max_iters {
                budget = budget.with_max_iters(n.get() as usize);
            }
            if let Some(d) = dl.as_ref() {
                budget = budget.with_deadline(d);
            }
            solve(&lps[i], budget)
        });

    let multi = results.len() > 1;
    let mut failures = Vec::new();
    for (path, row) in f.positional.iter().zip(&results) {
        if multi {
            writeln!(out, "== {path} ==")?;
        }
        let (solution, hardware, recovery, degraded) = match row {
            Ok(row) => row,
            Err(msg) => {
                writeln!(out, "status:    rejected ({msg})")?;
                failures.push((path.as_str(), LpStatus::NumericalFailure));
                continue;
            }
        };
        writeln!(out, "status:    {}", solution.status)?;
        if let Some(cause) = degraded {
            writeln!(out, "degraded:  {cause} — best iterate returned")?;
        }
        writeln!(out, "objective: {:.9}", solution.objective)?;
        writeln!(out, "iterations: {}", solution.iterations)?;
        if !f.quiet {
            for (j, v) in solution.x.iter().enumerate() {
                writeln!(out, "x{j} = {v:.6}")?;
            }
        }
        if let Some(ledger) = hardware {
            writeln!(
                out,
                "hardware:  run {:.3} ms, setup {:.3} ms, energy {:.3} mJ",
                ledger.run_time_s() * 1e3,
                ledger.setup_time_s() * 1e3,
                ledger.energy_j(&CostParams::default()) * 1e3
            )?;
            writeln!(out, "activity:  {ledger}")?;
            let c = ledger.counts();
            let pulsed = c.setup_writes + c.update_writes;
            let offered = pulsed + c.skipped_writes;
            if offered > 0 {
                writeln!(
                    out,
                    "writes:    {pulsed} pulsed, {} skipped ({:.1}% sparsity), {} rebuilds avoided",
                    c.skipped_writes,
                    100.0 * c.skipped_writes as f64 / offered as f64,
                    c.rebuilds_avoided
                )?;
            }
            if c.factorizations > 0 {
                writeln!(
                    out,
                    "newton:    {} factorization(s), {} flops ({:.0}/iter), {} factor entries",
                    c.factorizations,
                    c.factor_flops,
                    c.factor_flops as f64 / c.factorizations as f64,
                    c.factor_nnz
                )?;
            }
        }
        if let Some(report) = recovery {
            if report.saw_faults() {
                writeln!(
                    out,
                    "recovery:  {} fault event(s), {} escalation(s){}",
                    report.events.len() - report.escalations(),
                    report.escalations(),
                    if report.used_digital_fallback() {
                        ", digital fallback"
                    } else {
                        ""
                    }
                )?;
            }
        }
        // A budget expiry is a requested degradation, not a failure: the
        // caller traded optimality for a bounded response.
        if !solution.status.is_optimal() && degraded.is_none() {
            failures.push((path.as_str(), solution.status));
        }
    }
    match failures.as_slice() {
        [] => Ok(()),
        [(_, status)] if !multi => Err(Stop::Error(format!(
            "solve terminated with status: {status}"
        ))),
        many => Err(Stop::Error(format!(
            "{} of {} solves did not reach optimality ({})",
            many.len(),
            results.len(),
            many.iter()
                .map(|(p, s)| format!("{p}: {s}"))
                .collect::<Vec<_>>()
                .join(", ")
        ))),
    }
}

fn serve_cmd(args: &[String], out: Out<'_>) -> Result<(), Stop> {
    let f = parse_flags(args)?;
    if !f.positional.is_empty() {
        return Err(Stop::Error(format!(
            "serve takes no positional arguments, got `{}`",
            f.positional[0]
        )));
    }
    let crossbar = CrossbarConfig::paper_default()
        .with_variation(f.variation)
        .with_seed(f.seed);
    // The daemon serves the crossbar families with a warm-pool entry
    // point, under the names `solve` gives them; the digital names are
    // refused rather than silently mapped onto hardware.
    let serve_solver = match f.solver.as_str() {
        "alg1" => memlp_serve::ServeSolver::Pdip,
        "pdhg-analog" => memlp_serve::ServeSolver::Pdhg,
        other => {
            let hint = match other {
                "pdip" => "; `pdip` is digital, use --solver alg1",
                "pdhg" => "; `pdhg` is digital, use --solver pdhg-analog",
                _ => "",
            };
            return Err(Stop::Error(format!(
                "serve supports --solver alg1|pdhg-analog, got `{other}`{hint}"
            )));
        }
    };
    let config = memlp_serve::ServeConfig::default()
        .with_crossbar(crossbar)
        .with_solver(serve_solver)
        .with_queue_depth(f.queue_depth)
        .with_workers(f.workers);
    let config = memlp_serve::ServeConfig {
        default_max_iters: f.max_iters.map_or(0, NonZeroU32::get),
        default_deadline_ticks: f.timeout_iters.map_or(0, NonZeroU32::get),
        ..config
    };
    let server = memlp_serve::Server::bind(&f.addr, config)
        .map_err(|e| format!("cannot bind {}: {e}", f.addr))?;
    // The literal `listening on <addr>` line is the startup handshake:
    // scripts (and tests/cli.rs) parse the ephemeral port out of it.
    writeln!(out, "listening on {}", server.addr())?;
    writeln!(
        out,
        "queue depth {}, {} worker(s); stop with `memlp client {} drain`",
        config.queue_depth,
        config.workers,
        server.addr()
    )?;
    server.wait();
    writeln!(out, "drained; all in-flight work completed")?;
    Ok(())
}

/// Converts a parsed LP into a wire job under the given family/budgets.
fn job_for(lp: &LpProblem, f: &Flags) -> memlp_serve::SolveJob {
    memlp_serve::SolveJob {
        family: f.family.clone(),
        rows: lp.num_constraints() as u32,
        cols: lp.num_vars() as u32,
        a: lp.a().as_slice().to_vec(),
        b: lp.b().to_vec(),
        c: lp.c().to_vec(),
        max_iters: f.max_iters.map_or(0, NonZeroU32::get),
        deadline_ticks: f.timeout_iters.map_or(0, NonZeroU32::get),
    }
}

fn client_cmd(args: &[String], out: Out<'_>) -> Result<(), Stop> {
    let addr = args
        .first()
        .ok_or("client needs a server address (host:port)")?;
    let action = args.get(1).map(String::as_str);
    let connect = || {
        memlp_serve::ServeClient::connect(addr)
            .map_err(|e| format!("cannot connect to {addr}: {e}"))
    };
    match action {
        Some("health") => {
            let h = connect()?.health().map_err(|e| e.to_string())?;
            writeln!(
                out,
                "ready:     {}{}",
                h.ready,
                if h.draining { " (draining)" } else { "" }
            )?;
            writeln!(out, "queue:     {}/{}", h.queued, h.capacity)?;
            writeln!(out, "workers:   {}", h.workers)?;
            writeln!(out, "admitted:  {}", h.admitted)?;
            writeln!(out, "completed: {}", h.completed)?;
            writeln!(out, "rejected:  {}", h.rejected)?;
            Ok(())
        }
        Some("drain") => {
            let completed = connect()?.drain().map_err(|e| e.to_string())?;
            writeln!(
                out,
                "drained; server completed {completed} solve(s) over its lifetime"
            )?;
            Ok(())
        }
        Some("solve") => {
            let f = parse_flags(&args[2..])?;
            if f.positional.is_empty() {
                return Err("client solve needs a file argument".into());
            }
            let mut client = connect()?;
            let mut failures: Vec<(&str, String)> = Vec::new();
            for path in &f.positional {
                let lp = load(path)?;
                writeln!(out, "{path}:")?;
                match client.solve(job_for(&lp, &f)).map_err(|e| e.to_string())? {
                    memlp_serve::Response::Solution(s) => {
                        writeln!(out, "  status:    {}", s.status)?;
                        if let Some(cause) = s.degraded {
                            writeln!(out, "  degraded:  {cause} — best iterate returned")?;
                        }
                        writeln!(out, "  objective: {:.6}", s.objective)?;
                        writeln!(out, "  iters:     {}", s.iterations)?;
                        writeln!(
                            out,
                            "  hardware:  {} start, {} cells written, {} skipped",
                            if s.warm_start { "warm" } else { "cold" },
                            s.cells_written,
                            s.cells_skipped
                        )?;
                        writeln!(out, "  latency:   {} us (server-side)", s.latency_us)?;
                        if !s.status.is_optimal() && s.degraded.is_none() {
                            failures.push((path, s.status.to_string()));
                        }
                    }
                    memlp_serve::Response::Overloaded {
                        retry_after_hint_ms,
                        queue_depth,
                    } => {
                        writeln!(
                            out,
                            "  status:    overloaded (queue depth {queue_depth}); retry in {retry_after_hint_ms} ms"
                        )?;
                        failures.push((path, "overloaded".into()));
                    }
                    memlp_serve::Response::Error { message } => {
                        writeln!(out, "  status:    rejected ({message})")?;
                        failures.push((path, message));
                    }
                    other => return Err(Stop::Error(format!("unexpected response: {other:?}"))),
                }
            }
            if failures.is_empty() {
                Ok(())
            } else {
                Err(Stop::Error(format!(
                    "{} of {} jobs did not complete ({})",
                    failures.len(),
                    f.positional.len(),
                    failures
                        .iter()
                        .map(|(p, s)| format!("{p}: {s}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )))
            }
        }
        Some(other) => Err(Stop::Error(format!("unknown client action `{other}`"))),
        None => Err("client needs one of: solve, health, drain".into()),
    }
}

fn generate_cmd(args: &[String], out: Out<'_>) -> Result<(), Stop> {
    let f = parse_flags(args)?;
    let m: usize = f
        .positional
        .first()
        .ok_or("generate needs a constraint count")?
        .parse()
        .map_err(|_| "constraint count must be an integer")?;
    let gen = RandomLp::paper(m, f.seed);
    let lp = if f.infeasible {
        gen.infeasible()
    } else {
        gen.feasible()
    };
    write!(out, "{}", format::write(&lp))?;
    Ok(())
}

fn info_cmd(args: &[String], out: Out<'_>) -> Result<(), Stop> {
    let f = parse_flags(args)?;
    let path = f.positional.first().ok_or("info needs a file argument")?;
    let lp = load(path)?;
    // §3.2 compensation count, read off the CSR matrix: one per column and
    // one per row that holds a negative entry (the splits of A and Aᵀ).
    let sparse = lp.sparse_a();
    let mut neg_rows = vec![false; lp.num_constraints()];
    let mut neg_cols = vec![false; lp.num_vars()];
    for (i, j, v) in sparse.iter() {
        if v < 0.0 {
            neg_rows[i] = true;
            neg_cols[j] = true;
        }
    }
    let compensations = neg_rows.iter().chain(&neg_cols).filter(|&&neg| neg).count();
    writeln!(out, "constraints (m):        {}", lp.num_constraints())?;
    writeln!(out, "variables (n):          {}", lp.num_vars())?;
    writeln!(
        out,
        "nonzeros in A:          {} (density {:.1}%)",
        sparse.nnz(),
        sparse.density() * 100.0
    )?;
    writeln!(
        out,
        "max |coefficient|:      {:.6}",
        lp.max_abs_coefficient()
    )?;
    writeln!(
        out,
        "compensation variables: {compensations} (§3.2 transform)"
    )?;
    let dim = 3 * lp.num_vars() + 3 * lp.num_constraints() + compensations;
    writeln!(out, "Algorithm-1 system dim: {dim}")?;
    writeln!(
        out,
        "Algorithm-2 system dim: {}",
        lp.num_vars() + lp.num_constraints()
    )?;
    Ok(())
}
