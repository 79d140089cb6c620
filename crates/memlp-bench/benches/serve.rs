//! Serving-path robustness bench: an in-process `memlp-serve` daemon
//! driven through real loopback sockets, covering the four scenarios the
//! service contract gates on —
//!
//! 1. **warm vs cold** — repeat solves of one family must hit the pooled
//!    context (delta-cache skips, warm-started PDIP) and beat the cold
//!    p50;
//! 2. **deadline-exceeded** — an exhausted iteration-tick budget returns
//!    the best iterate, marked degraded, instead of hanging or erroring;
//! 3. **overload burst** — a burst above queue depth 4 sheds with
//!    structured retry hints and never hangs or drops a request;
//! 4. **drain** — in-flight work completes before shutdown.
//!
//! Plus a closed-loop concurrency sweep (1/8/64 clients) where every
//! request must be accounted for: ok + degraded + shed == sent, zero
//! transport errors. Evidence lands in `BENCH_serve.json` at the
//! repository root with a single `"gate_pass"` verdict for CI to grep.
//! Latencies, rates and whatever the scheduler decides (burst ok/shed
//! splits, sweep warm hits) are host-dependent; the rest must match the
//! committed file.

use std::time::{Duration, Instant};

use memlp_bench::artifact::{self, quote, Rows};
use memlp_bench::{median, obj};
use memlp_crossbar::CrossbarConfig;
use memlp_lp::generator::RandomLp;
use memlp_lp::LpStatus;
use memlp_serve::codec::{Request, Response, SolutionBody, SolveJob};
use memlp_serve::{HealthInfo, LoadConfig, LoadReport, ServeClient, ServeConfig, Server};

fn job(family: &str, m: usize, seed: u64, max_iters: u32, deadline_ticks: u32) -> SolveJob {
    let lp = RandomLp::paper(m, seed).feasible();
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

fn solution(resp: Response) -> SolutionBody {
    match resp {
        Response::Solution(s) => s,
        other => panic!("expected a solution, got {other:?}"),
    }
}

/// Polls `Health` on `client` until `done` holds, so a scenario moves on
/// from what the server reports rather than from how fast the host is.
/// Panics after 30 s: a wedged server fails the bench instead of hanging
/// it.
fn await_health(client: &mut ServeClient, what: &str, done: impl Fn(&HealthInfo) -> bool) {
    let start = Instant::now();
    loop {
        let h = client.health().expect("health");
        if done(&h) {
            return;
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "timed out waiting for {what}: {h:?}"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Scenario 1+2: one server, one client — cold/warm contrast, then a
/// deadline expiry on the warm context. Single worker + sequential
/// requests, so these numbers replay bitwise (latency aside).
fn warm_cold_and_deadline() -> (SolutionBody, Vec<SolutionBody>, SolutionBody) {
    let server = Server::bind("127.0.0.1:0", config()).expect("bind");
    let addr = server.addr().to_string();
    let mut client = ServeClient::connect(&addr).expect("connect");

    let cold = solution(client.solve(job("steady", 32, 7, 0, 0)).expect("cold"));
    assert_eq!(cold.status, LpStatus::Optimal, "cold solve must converge");
    assert!(!cold.warm_start);

    let warm: Vec<SolutionBody> = (0..5)
        .map(|i| {
            let s = solution(client.solve(job("steady", 32, 7, 0, 0)).expect("warm"));
            assert_eq!(s.status, LpStatus::Optimal, "warm repeat {i}");
            assert!(s.warm_start, "repeat {i} must start from the pool");
            s
        })
        .collect();

    let degraded = solution(client.solve(job("steady", 32, 7, 0, 3)).expect("deadline"));
    assert!(
        degraded.degraded.is_some(),
        "a 3-tick deadline on a 30+-iteration problem must expire"
    );
    assert!(
        degraded.objective.is_finite() && degraded.x.iter().all(|v| v.is_finite()),
        "degraded responses carry the best iterate, not garbage"
    );

    drop(client);
    server.shutdown();
    (cold, warm, degraded)
}

/// Scenario 3: burst of 12 one-shot clients against queue depth 4 and a
/// single worker. The worker is first put on a long cold solve (m = 512),
/// confirmed in service through `Health` (admitted, neither queued nor
/// completed), so the burst meets a busy worker and a queue with four
/// slots whatever the host speed. No retries: every request resolves to
/// exactly one of ok/shed.
fn overload_burst() -> LoadReport {
    let server =
        Server::bind("127.0.0.1:0", config().with_queue_depth(4).with_workers(1)).expect("bind");
    let addr = server.addr().to_string();
    let mut hold = ServeClient::connect(&addr).expect("connect hold");
    hold.send(&Request::Solve(job("hold", 512, 77, 0, 0)))
        .expect("post hold");
    let mut probe = ServeClient::connect(&addr).expect("connect probe");
    await_health(&mut probe, "the hold solve in service", |h| {
        h.admitted == 1 && h.queued == 0 && h.completed == 0
    });
    let report = memlp_serve::run_load(
        &LoadConfig {
            addr,
            concurrency: 12,
            requests_per_client: 1,
            max_overload_retries: 0,
        },
        |client_idx, _| {
            job(
                &format!("burst-{client_idx}"),
                48,
                900 + client_idx as u64,
                0,
                0,
            )
        },
    );
    let held = solution(hold.recv().expect("hold reply"));
    assert_eq!(
        held.status,
        LpStatus::Optimal,
        "the hold solve must converge"
    );
    server.shutdown();
    report
}

/// Closed-loop sweep: every client hammers its own family so later
/// requests ride the pool. Accounting must balance at every concurrency.
fn sweep_point(concurrency: usize) -> LoadReport {
    let server =
        Server::bind("127.0.0.1:0", config().with_queue_depth(64).with_workers(2)).expect("bind");
    let addr = server.addr().to_string();
    let report = memlp_serve::run_load(
        &LoadConfig {
            addr,
            concurrency,
            requests_per_client: 3,
            max_overload_retries: 3,
        },
        |client_idx, _| {
            let fam = client_idx % 4;
            job(&format!("sweep-{fam}"), 16, 100 + fam as u64, 0, 0)
        },
    );
    server.shutdown();
    report
}

/// Scenario 4: two posted-but-unread jobs, then a drain, sent once
/// `Health` shows both admitted (a drain that overtook a post would
/// refuse it). The ack arrives only after both complete, and both
/// replies are real solutions.
fn drain_completes() -> (u64, usize) {
    let server = Server::bind("127.0.0.1:0", config()).expect("bind");
    let addr = server.addr().to_string();

    let mut a = ServeClient::connect(&addr).expect("connect a");
    let mut b = ServeClient::connect(&addr).expect("connect b");
    a.send(&Request::Solve(job("drain", 16, 5, 0, 0)))
        .expect("post a");
    b.send(&Request::Solve(job("drain", 16, 6, 0, 0)))
        .expect("post b");

    let mut ctl = ServeClient::connect(&addr).expect("connect ctl");
    await_health(&mut ctl, "both drain solves admitted", |h| h.admitted == 2);
    let completed = ctl.drain().expect("drain ack");

    let mut finished = 0usize;
    for client in [&mut a, &mut b] {
        let s = solution(client.recv().expect("reply after drain"));
        assert_eq!(s.status, LpStatus::Optimal, "in-flight work must finish");
        finished += 1;
    }
    server.wait();
    (completed, finished)
}

fn main() {
    println!("serve bench: in-process daemon, loopback sockets");
    println!();

    // --- warm vs cold + deadline.
    let (cold, warm, degraded) = warm_cold_and_deadline();
    let warm_p50 = median(warm.iter().map(|s| s.latency_us as f64).collect()) as u64;
    let warm_skipped: u64 = warm.iter().map(|s| s.cells_skipped).sum();
    let warm_hits = warm.iter().filter(|s| s.warm_start).count();
    println!(
        "warm/cold   : cold {} us / {} iters -> warm p50 {} us / {} iters, {} skipped writes",
        cold.latency_us, cold.iterations, warm_p50, warm[0].iterations, warm_skipped
    );
    println!(
        "deadline    : {} after {} iters, objective {:.6}",
        degraded
            .degraded
            .map(|c| c.to_string())
            .unwrap_or_else(|| "missing".into()),
        degraded.iterations,
        degraded.objective
    );

    // --- overload burst at queue depth 4.
    let burst = overload_burst();
    println!(
        "burst       : {} sent -> {} ok, {} shed (queue depth 4), {} errors",
        burst.sent, burst.ok, burst.shed, burst.errors
    );

    // --- concurrency sweep.
    let sweep: Vec<(usize, LoadReport)> = [1usize, 8, 64]
        .iter()
        .map(|&c| (c, sweep_point(c)))
        .collect();
    for (c, r) in &sweep {
        println!(
            "sweep c={c:<3}: {} sent, {} ok, {} shed, p50 {} us, p99 {} us, {:.1} solves/s, {} warm hits",
            r.sent, r.ok, r.shed, r.p50_us, r.p99_us, r.solves_per_sec, r.warm_hits
        );
    }

    // --- drain.
    let (drain_ack, drain_finished) = drain_completes();
    println!("drain       : ack after {drain_ack} completed, {drain_finished}/2 replies delivered");

    // --- gates.
    let gate_warm_faster = warm_p50 < cold.latency_us;
    let gate_skipped = warm_skipped > 0 && warm_hits == warm.len();
    let gate_degraded = degraded.degraded.is_some();
    let gate_burst = burst.errors == 0
        && burst.shed >= 1
        && burst.ok >= 1
        && burst.ok + burst.shed == burst.sent;
    let gate_sweep = sweep
        .iter()
        .all(|(_, r)| r.errors == 0 && r.ok + r.degraded + r.shed == r.sent);
    let gate_drain = drain_finished == 2 && drain_ack >= 2;
    let gate_pass =
        gate_warm_faster && gate_skipped && gate_degraded && gate_burst && gate_sweep && gate_drain;

    println!();
    println!("gates: warm_faster={gate_warm_faster} delta_skips={gate_skipped} degraded={gate_degraded} burst={gate_burst} sweep={gate_sweep} drain={gate_drain}");

    let cause = degraded
        .degraded
        .map(|c| c.to_string())
        .unwrap_or_else(|| "missing".into());
    // Which request of a family lands first, and on which worker, is up
    // to the scheduler: of the burst and sweep counts only the accounting
    // is reproducible.
    let sweep_json = sweep.iter().map(|(c, r)| {
        obj! {
            concurrency: c, sent: r.sent, ~ok: r.ok, ~degraded: r.degraded, ~shed: r.shed,
            errors: r.errors, ~p50_us: r.p50_us, ~p99_us: r.p99_us,
            ~solves_per_sec: format!("{:.1}", r.solves_per_sec), ~warm_hits: r.warm_hits,
        }
    });
    let doc = obj! {
        bench: quote("serve"),
        suite: quote("in-process daemon on loopback, RandomLp::paper families, variation 5%"),
        warm_cold: obj! {
            ~cold_us: cold.latency_us, cold_iters: cold.iterations, ~warm_p50_us: warm_p50,
            warm_iters: warm[0].iterations, warm_cells_skipped: warm_skipped,
            warm_hits: quote(&format!("{warm_hits}/{}", warm.len())),
        },
        deadline: obj! {
            cause: quote(&cause), iterations: degraded.iterations,
            finite_iterate: degraded.x.iter().all(|v| v.is_finite()),
        },
        burst: obj! {
            queue_depth: 4, sent: burst.sent, ~ok: burst.ok, ~shed: burst.shed,
            ~overload_replies: burst.overload_replies, errors: burst.errors,
        },
        sweep: Rows(sweep_json.collect()),
        drain: obj! { posted: 2, replies_delivered: drain_finished, ack_completed: drain_ack },
        gates: obj! {
            ~warm_p50_below_cold: gate_warm_faster, nonzero_skipped_writes: gate_skipped,
            deadline_degrades: gate_degraded, ~burst_sheds_never_drops: gate_burst,
            sweep_accounting_balances: gate_sweep, drain_completes_inflight: gate_drain,
        },
    };
    artifact::finish("BENCH_serve.json", doc, gate_pass);
}
