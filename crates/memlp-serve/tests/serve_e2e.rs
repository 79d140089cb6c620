//! End-to-end robustness scenarios against a real in-process server:
//! warm-context reuse, budget degradation, overload shedding, graceful
//! drain, and replayability of the single-worker configuration.
//!
//! Connections use real sockets on a loopback ephemeral port; servers and
//! clients are separate OS threads, exactly as in production. Timing
//! never decides correctness: assertions are on protocol outcomes
//! ("every request got exactly one response"), not on who won a race.

use std::time::{Duration, Instant};

use memlp_core::{
    Budget, BudgetCause, CrossbarPdipSolver, CrossbarSolver, CrossbarSolverOptions, HwContext,
};
use memlp_crossbar::{CrossbarConfig, FaultModel};
use memlp_lp::{generator::RandomLp, LpProblem, LpStatus};
use memlp_serve::codec::{Request, Response, SolveJob};
use memlp_serve::{ServeClient, ServeConfig, ServeSolver, Server};

/// Builds a solve job from a deterministic random LP.
fn job(family: &str, m: usize, seed: u64, max_iters: u32, deadline_ticks: u32) -> SolveJob {
    job_for(
        family,
        &RandomLp::paper(m, seed).feasible(),
        max_iters,
        deadline_ticks,
    )
}

fn job_for(family: &str, lp: &LpProblem, max_iters: u32, deadline_ticks: u32) -> SolveJob {
    SolveJob {
        family: family.to_string(),
        rows: lp.num_constraints() as u32,
        cols: lp.num_vars() as u32,
        a: lp.a().as_slice().to_vec(),
        b: lp.b().to_vec(),
        c: lp.c().to_vec(),
        max_iters,
        deadline_ticks,
    }
}

fn config() -> ServeConfig {
    ServeConfig::default().with_crossbar(
        CrossbarConfig::paper_default()
            .with_variation(5.0)
            .with_seed(41),
    )
}

fn expect_solution(resp: Response) -> memlp_serve::codec::SolutionBody {
    match resp {
        Response::Solution(s) => s,
        other => panic!("expected a solution, got {other:?}"),
    }
}

#[test]
fn warm_repeats_hit_the_delta_cache() {
    let server = Server::bind("127.0.0.1:0", config()).expect("bind");
    let addr = server.addr().to_string();
    let mut client = ServeClient::connect(&addr).expect("connect");

    let health = client.health().expect("health");
    assert!(health.ready && !health.draining);
    assert_eq!(health.completed, 0);

    let cold = expect_solution(client.solve(job("fam", 16, 3, 0, 0)).unwrap());
    assert_eq!(cold.status, LpStatus::Optimal);
    assert!(!cold.warm_start, "first solve of a family must be cold");
    assert!(cold.cells_written > 0);

    let warm = expect_solution(client.solve(job("fam", 16, 3, 0, 0)).unwrap());
    assert_eq!(warm.status, LpStatus::Optimal);
    assert!(warm.warm_start, "repeat solve must start from the pool");
    assert!(
        warm.cells_skipped > 0,
        "repeat solve must skip unchanged cells via the delta cache"
    );
    assert!(
        warm.cells_written < cold.cells_written,
        "warm solve wrote {} cells, cold wrote {}",
        warm.cells_written,
        cold.cells_written
    );

    // A different family gets its own (cold) array.
    let other = expect_solution(client.solve(job("other", 16, 4, 0, 0)).unwrap());
    assert!(!other.warm_start);

    assert_eq!(client.health().unwrap().completed, 3);
    server.shutdown();
}

#[test]
fn exhausted_budgets_degrade_with_best_iterate() {
    let server = Server::bind("127.0.0.1:0", config()).expect("bind");
    let addr = server.addr().to_string();
    let mut client = ServeClient::connect(&addr).expect("connect");

    // Iteration-tick deadline: expires mid-solve, deterministically.
    let by_deadline = expect_solution(client.solve(job("d", 16, 5, 0, 3)).unwrap());
    assert_eq!(by_deadline.degraded, Some(BudgetCause::DeadlineExceeded));
    assert_eq!(by_deadline.status, LpStatus::IterationLimit);
    assert!(
        !by_deadline.x.is_empty() && by_deadline.x.iter().all(|v| v.is_finite()),
        "degraded response must still carry the best iterate"
    );

    // Hard iteration cap.
    let by_cap = expect_solution(client.solve(job("d", 16, 5, 2, 0)).unwrap());
    assert_eq!(by_cap.degraded, Some(BudgetCause::MaxIters));
    assert!(by_cap.iterations <= 2);

    // Ample budget: not degraded.
    let fine = expect_solution(client.solve(job("d", 16, 5, 10_000, 10_000)).unwrap());
    assert_eq!(fine.degraded, None);
    assert_eq!(fine.status, LpStatus::Optimal);
    server.shutdown();
}

#[test]
fn burst_above_queue_capacity_sheds_but_never_drops() {
    let server =
        Server::bind("127.0.0.1:0", config().with_queue_depth(1).with_workers(1)).expect("bind");
    let addr = server.addr().to_string();

    // Post a burst from independent connections without reading any
    // response: admission happens per connection thread, so the pushes
    // race a single busy worker (m = 48 keeps it busy for milliseconds).
    const BURST: usize = 6;
    let mut clients: Vec<ServeClient> = (0..BURST)
        .map(|_| ServeClient::connect(&addr).expect("connect"))
        .collect();
    for (i, c) in clients.iter_mut().enumerate() {
        c.send(&Request::Solve(job("burst", 48, 100 + i as u64, 0, 0)))
            .expect("send");
    }

    // Every request gets exactly one response — shed or solved, never
    // hung, never dropped.
    let mut solved = 0usize;
    let mut shed = 0usize;
    for c in &mut clients {
        match c.recv().expect("each request must be answered") {
            Response::Solution(s) => {
                assert_eq!(s.status, LpStatus::Optimal);
                solved += 1;
            }
            Response::Overloaded {
                retry_after_hint_ms,
                queue_depth,
            } => {
                assert!(retry_after_hint_ms > 0, "hint must suggest a backoff");
                assert!(queue_depth >= 1);
                shed += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(solved + shed, BURST);
    assert!(
        shed >= 1,
        "burst of {BURST} against a depth-1 queue must shed at least once"
    );
    assert!(solved >= 1, "the admitted head of the burst must complete");

    // The shed was transient: once the burst clears, service resumes.
    let mut after = ServeClient::connect(&addr).expect("connect");
    let s = expect_solution(after.solve(job("burst", 48, 200, 0, 0)).unwrap());
    assert_eq!(s.status, LpStatus::Optimal);
    server.shutdown();
}

#[test]
fn drain_completes_inflight_work_then_stops() {
    let server = Server::bind("127.0.0.1:0", config().with_queue_depth(8)).expect("bind");
    let addr = server.addr().to_string();

    // Two in-flight jobs, posted but unread.
    let mut a = ServeClient::connect(&addr).expect("connect");
    let mut b = ServeClient::connect(&addr).expect("connect");
    a.send(&Request::Solve(job("drain", 24, 9, 0, 0))).unwrap();
    b.send(&Request::Solve(job("drain", 24, 10, 0, 0))).unwrap();

    // Close the queue only once Health shows both admitted: a drain that
    // overtook a post would refuse it.
    let mut ctl = ServeClient::connect(&addr).expect("connect");
    let start = Instant::now();
    while ctl.health().unwrap().admitted < 2 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "posts never admitted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let completed = ctl.drain().expect("drain must ack");
    assert_eq!(
        completed, 2,
        "drain acks only after in-flight work finished"
    );

    // The admitted jobs were completed, not dropped.
    assert_eq!(expect_solution(a.recv().unwrap()).status, LpStatus::Optimal);
    assert_eq!(expect_solution(b.recv().unwrap()).status, LpStatus::Optimal);

    // The server stopped on its own: wait() joins without force-stop.
    server.wait();
}

/// A crossbar with stuck cells and dead lines: the daemon answers from
/// one run of the solver's own recovery ladder, so its first reply is
/// exactly what `solve_on` returns on a fresh context of the same
/// configuration with reuse salt 0 — no service-level retry on top, even
/// for the infeasible LP whose ladder ends non-optimal on faulty hardware.
#[test]
fn faulted_array_replies_match_one_ladder_run() {
    let faults = FaultModel::symmetric(0.01)
        .and_then(|f| f.with_dead_lines(0.02, 0.02))
        .expect("valid fault model");
    let crossbar = CrossbarConfig::paper_default()
        .with_variation(5.0)
        .with_seed(41)
        .with_faults(faults);
    let gen = RandomLp::paper(24, 3);
    for lp in [gen.feasible(), gen.infeasible()] {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig::default().with_crossbar(crossbar),
        )
        .expect("bind");
        let mut client = ServeClient::connect(&server.addr().to_string()).expect("connect");
        let served = expect_solution(client.solve(job_for("faulty", &lp, 0, 0)).unwrap());
        server.shutdown();

        let direct = CrossbarPdipSolver::new(crossbar, CrossbarSolverOptions::default()).solve_on(
            &lp,
            &mut HwContext::new(crossbar),
            Budget::none(),
            None,
            Some(0),
        );
        assert!(served.saw_faults, "the configured defects must be detected");
        assert_eq!(served.status, direct.solution.status);
        assert_eq!(
            served.objective.to_bits(),
            direct.solution.objective.to_bits()
        );
        assert_eq!(served.iterations, direct.solution.iterations as u64);
        assert_eq!(served.retries as usize, direct.retries_used);
        assert_eq!(served.saw_faults, direct.recovery.saw_faults());
        assert_eq!(served.used_digital, direct.recovery.used_digital_fallback());
    }
}

/// A single-worker server fed the same request sequence twice (fresh
/// process state each time) answers bitwise identically — the serve-path
/// extension of the repo's determinism regime.
#[test]
fn single_worker_serving_is_replayable() {
    let run = || {
        let server = Server::bind("127.0.0.1:0", config()).expect("bind");
        let addr = server.addr().to_string();
        let mut client = ServeClient::connect(&addr).expect("connect");
        let mut out = Vec::new();
        for (seed, ticks) in [(3u64, 0u32), (3, 0), (5, 4), (7, 0)] {
            let s = expect_solution(client.solve(job("fam", 16, seed, 0, ticks)).unwrap());
            out.push((
                s.status,
                s.degraded,
                s.objective.to_bits(),
                s.iterations,
                s.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                s.cells_written,
                s.cells_skipped,
            ));
        }
        server.shutdown();
        out
    };
    assert_eq!(run(), run(), "same requests, same bits");
}

/// The first-order worker family: PDHG solves served from the same warm
/// pool. Repeats must warm-start from the previous PDHG iterate and skip
/// every unchanged setup write — the first-order backend performs no
/// update writes at all, so a warm repeat costs zero write endurance.
#[test]
fn pdhg_workers_serve_warm_repeats() {
    let server =
        Server::bind("127.0.0.1:0", config().with_solver(ServeSolver::Pdhg)).expect("bind");
    let addr = server.addr().to_string();
    let mut client = ServeClient::connect(&addr).expect("connect");

    let cold = expect_solution(client.solve(job("fam", 16, 3, 0, 0)).unwrap());
    assert_eq!(cold.status, LpStatus::Optimal);
    assert!(!cold.warm_start);
    assert!(cold.cells_written > 0);

    let warm = expect_solution(client.solve(job("fam", 16, 3, 0, 0)).unwrap());
    assert_eq!(warm.status, LpStatus::Optimal);
    assert!(warm.warm_start, "repeat must start from the pooled iterate");
    // PDHG programs only the static sign-split blocks, so an identical
    // repeat re-offers nothing new: every write is delta-skipped and the
    // warm request consumes zero write endurance.
    assert_eq!(
        warm.cells_written, 0,
        "a PDHG repeat must be write-free, wrote {} cells",
        warm.cells_written
    );
    assert!(
        warm.cells_skipped >= cold.cells_written,
        "static blocks must be delta-skipped: {} skipped vs {} cold writes",
        warm.cells_skipped,
        cold.cells_written
    );
    server.shutdown();
}
