//! End-to-end tests of the `memlp` command-line binary.

use std::process::Command;

fn memlp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_memlp"))
}

#[test]
fn generate_info_solve_pipeline() {
    let dir = std::env::temp_dir().join("memlp-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pipeline.lp");

    // generate
    let out = memlp()
        .args(["generate", "24", "--seed", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::write(&path, &out.stdout).unwrap();

    // info
    let out = memlp()
        .args(["info", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("constraints (m):        24"), "{text}");
    assert!(text.contains("variables (n):          8"), "{text}");

    // solve with every solver; a solver that reports success must agree
    // with the exact answer. (Algorithm 2 is allowed to *decline* — its
    // acceptance gate flags unreliable small-m runs rather than returning
    // a silently wrong optimum — but it must never succeed with a bad one.)
    let mut objectives = Vec::new();
    for solver in ["alg1", "alg2", "simplex", "pdip", "mehrotra"] {
        let out = memlp()
            .args([
                "solve",
                path.to_str().unwrap(),
                "--solver",
                solver,
                "--quiet",
            ])
            .output()
            .unwrap();
        if !out.status.success() {
            assert_eq!(solver, "alg2", "only alg2 may decline: {solver}");
            continue;
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let obj: f64 = text
            .lines()
            .find_map(|l| l.strip_prefix("objective: "))
            .expect("objective line")
            .trim()
            .parse()
            .expect("numeric objective");
        objectives.push((solver, obj));
    }
    let reference = objectives.iter().find(|(s, _)| *s == "simplex").unwrap().1;
    for (solver, obj) in &objectives {
        let rel = (obj - reference).abs() / (1.0 + reference.abs());
        let budget = if *solver == "alg2" { 0.12 } else { 0.05 };
        assert!(rel < budget, "{solver}: {obj} vs simplex {reference}");
    }

    // Without --quiet, Algorithm 1 reports its Newton factorization
    // counters.
    let out = memlp()
        .args(["solve", path.to_str().unwrap(), "--solver", "alg1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("newton:") && text.contains("factorization"),
        "alg1 should report factorization counters: {text}"
    );
}

/// `memlp info` on a mixed-sign LP: the compensation count is one per
/// column plus one per row holding a negative entry (here columns x, y, z,
/// w and rows c0, c1, c3; the `>=` row is negated first).
#[test]
fn info_counts_compensations_on_a_mixed_sign_lp() {
    let dir = std::env::temp_dir().join("memlp-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mixed.lp");
    std::fs::write(
        &path,
        "max: 3 x + 2 y - z + 0.5 w + v;\n\
         c0: x + 2 y - z <= 4;\n\
         c1: -2x + y >= -3;\n\
         c2: y + w + v <= 5.5;\n\
         c3: 6 z - 0.25 w - x <= 1e-3;\n",
    )
    .unwrap();
    let out = memlp()
        .args(["info", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "constraints (m):        4\n\
         variables (n):          5\n\
         nonzeros in A:          11 (density 55.0%)\n\
         max |coefficient|:      6.000000\n\
         compensation variables: 7 (§3.2 transform)\n\
         Algorithm-1 system dim: 34\n\
         Algorithm-2 system dim: 9\n"
    );
}

/// A sparse LP whose dense `A` would not fit the process: transport 2×8000
/// has m = 8002 and n = 16000, so the dense view would take 1.02 GB, while
/// the `.lp` text is under 1 MB. Parsing, `info`, the two normal-equations
/// PDIP solvers (`pdip` and `mehrotra`, both on the sparse KKT
/// factorization) and the `auto` pick (PDHG: the dense Newton core is past
/// its guard) never build that view, so they run under a 400 MB
/// address-space limit.
#[test]
fn sparse_paths_never_build_the_dense_matrix() {
    use memlp_lp::domains::{transportation_lp, TransportationProblem};

    let dir = std::env::temp_dir().join("memlp-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("transport-2x8000.lp");
    let tp = TransportationProblem::random(2, 8000, 7);
    assert!(tp.supply.iter().sum::<f64>() >= tp.demand.iter().sum::<f64>());
    let lp = transportation_lp(&tp).unwrap();
    assert_eq!((lp.num_constraints(), lp.num_vars()), (8002, 16000));
    std::fs::write(&path, memlp_lp::format::write(&lp)).unwrap();

    let limited = |args: &str| {
        let out = Command::new("bash")
            .arg("-c")
            .arg(format!("ulimit -v 400000; exec \"$0\" {args} \"$1\""))
            .arg(env!("CARGO_BIN_EXE_memlp"))
            .arg(&path)
            .env("MEMLP_THREADS", "1")
            .output()
            .unwrap();
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "{args}: exit {:?}: {text}{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        text
    };
    let info = limited("info");
    assert!(info.contains("nonzeros in A:          32000"), "{info}");
    let pdip = limited("solve --solver pdip --quiet");
    assert!(pdip.starts_with("status:    optimal\n"), "{pdip}");
    let mehrotra = limited("solve --solver mehrotra --quiet");
    assert!(mehrotra.starts_with("status:    optimal\n"), "{mehrotra}");
    let auto = limited("solve --solver auto --quiet --max-iters 200");
    assert!(auto.contains("iterations: 200\n"), "{auto}");
}

#[test]
fn solve_reports_infeasible_with_nonzero_exit() {
    let dir = std::env::temp_dir().join("memlp-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("infeasible.lp");
    let out = memlp()
        .args(["generate", "16", "--seed", "5", "--infeasible"])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::write(&path, &out.stdout).unwrap();

    let out = memlp()
        .args([
            "solve",
            path.to_str().unwrap(),
            "--solver",
            "simplex",
            "--quiet",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "infeasible must exit non-zero");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("infeasible"), "{text}");
}

/// The fault knobs feed the recovery ladder: with 1% stuck cells and dead
/// lines the solve must still succeed (and say what the ladder did), while
/// the same defective hardware with `--recovery off` must fail.
#[test]
fn fault_flags_drive_the_recovery_ladder() {
    let dir = std::env::temp_dir().join("memlp-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("faulty.lp");
    let out = memlp()
        .args(["generate", "24", "--seed", "902"])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::write(&path, &out.stdout).unwrap();

    let fault_args = [
        "--solver",
        "alg1",
        "--seed",
        "2",
        "--stuck-rate",
        "0.01",
        "--dead-line-rate",
        "0.04",
        "--quiet",
    ];

    let out = memlp()
        .args(["solve", path.to_str().unwrap()])
        .args(fault_args)
        .args(["--recovery", "full"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "recovery on must solve: {text}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("recovery:"), "{text}");
    assert!(text.contains("escalation"), "{text}");

    let out = memlp()
        .args(["solve", path.to_str().unwrap()])
        .args(fault_args)
        .args(["--recovery", "off"])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "same defects with recovery off must fail: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Rates are validated up front: a probability above 1 is rejected.
    let out = memlp()
        .args(["solve", path.to_str().unwrap(), "--stuck-rate", "1.5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("fault"), "{err}");
}

/// The digital fallback is the reference PDIP: where defective hardware
/// leaves Algorithm 1 unresolved on transport 4×24, the answer's objective
/// and iteration count are `--solver pdip`'s on the same file.
#[test]
fn digital_fallback_answers_as_the_reference_pdip() {
    use memlp_lp::domains::{transportation_lp, TransportationProblem};

    let dir = std::env::temp_dir().join("memlp-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("transport-4x24.lp");
    let lp = transportation_lp(&TransportationProblem::random(4, 24, 5)).unwrap();
    std::fs::write(&path, memlp_lp::format::write(&lp)).unwrap();

    let solve = |args: &[&str]| {
        let out = memlp()
            .args(["solve", path.to_str().unwrap(), "--quiet"])
            .args(args)
            .output()
            .unwrap();
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "{args:?}: {text}");
        text
    };
    let faulty = solve(&[
        "--solver",
        "alg1",
        "--stuck-rate",
        "0.01",
        "--dead-line-rate",
        "0.005",
        "--seed",
        "1",
    ]);
    assert!(faulty.contains("digital fallback"), "{faulty}");
    let pdip = solve(&["--solver", "pdip"]);
    for key in ["objective:", "iterations:"] {
        let line = |text: &str| text.lines().find(|l| l.starts_with(key)).map(str::to_owned);
        assert!(line(&pdip).is_some(), "{pdip}");
        assert_eq!(line(&faulty), line(&pdip), "{key}");
    }
}

/// `--max-iters` / `--timeout-iters` degrade gracefully: the exhausted
/// budget is reported with a `degraded:` verdict, the best iterate is
/// still printed, and the exit code stays zero (a requested degradation
/// is not a failure). An ample budget must not change the result at all.
#[test]
fn budget_flags_degrade_gracefully() {
    let dir = std::env::temp_dir().join("memlp-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("budget.lp");
    let out = memlp()
        .args(["generate", "24", "--seed", "17"])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::write(&path, &out.stdout).unwrap();

    // Tiny iteration cap: degraded, zero exit, iterate still reported.
    let out = memlp()
        .args(["solve", path.to_str().unwrap(), "--max-iters", "2"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "budget expiry must exit zero: {text}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        text.contains("degraded:") && text.contains("iteration budget exhausted"),
        "{text}"
    );
    assert!(text.contains("objective:"), "{text}");

    // Tiny tick deadline: same contract, different cause.
    let out = memlp()
        .args(["solve", path.to_str().unwrap(), "--timeout-iters", "2"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(
        text.contains("degraded:") && text.contains("deadline exceeded"),
        "{text}"
    );

    // Ample budgets leave the solve untouched: no degraded line, and the
    // objective matches the unbudgeted run exactly.
    let unbudgeted = memlp()
        .args(["solve", path.to_str().unwrap(), "--quiet"])
        .output()
        .unwrap();
    assert!(unbudgeted.status.success());
    let ample = memlp()
        .args([
            "solve",
            path.to_str().unwrap(),
            "--quiet",
            "--max-iters",
            "100000",
            "--timeout-iters",
            "100000",
        ])
        .output()
        .unwrap();
    assert!(ample.status.success());
    let objective = |bytes: &[u8]| -> String {
        String::from_utf8_lossy(bytes)
            .lines()
            .find_map(|l| l.strip_prefix("objective: ").map(str::to_string))
            .expect("objective line")
    };
    assert!(!String::from_utf8_lossy(&ample.stdout).contains("degraded:"));
    assert_eq!(objective(&ample.stdout), objective(&unbudgeted.stdout));
}

/// The budget flags travel as `u32` on the serving wire, so a value past
/// `u32::MAX` is refused under the flag's name instead of wrapping
/// (`4294967296` would otherwise become 0, "no cap").
#[test]
fn budget_flags_refuse_values_past_u32() {
    let dir = std::env::temp_dir().join("memlp-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("budget-wrap.lp");
    let out = memlp()
        .args(["generate", "8", "--seed", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::write(&path, &out.stdout).unwrap();
    for flag in ["--max-iters", "--timeout-iters"] {
        let out = memlp()
            .args(["solve", path.to_str().unwrap(), flag, "4294967296"])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag}: {err}");
        assert!(err.contains(flag), "{flag}: {err}");
    }
}

/// A budget of 0 is refused under the flag's name everywhere: `solve`
/// would stop at once while the serving wire reads 0 as "no cap", so the
/// same flag would mean two things. `client` refuses it before it dials
/// (port 1 on loopback has no server) and `serve` before it binds (the
/// address is malformed, so a regression fails here instead of starting a
/// daemon).
#[test]
fn budget_flags_refuse_zero() {
    let dir = std::env::temp_dir().join("memlp-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("budget-zero.lp");
    let out = memlp()
        .args(["generate", "8", "--seed", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::write(&path, &out.stdout).unwrap();
    let file = path.to_str().unwrap();
    for flag in ["--max-iters", "--timeout-iters"] {
        for args in [
            vec!["solve", file, flag, "0"],
            vec!["client", "127.0.0.1:1", "solve", file, flag, "0"],
            vec!["serve", "--addr", "no-such-host", flag, "0"],
        ] {
            let out = memlp().args(&args).output().unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{args:?}: {err}");
            assert!(err.contains(flag), "{args:?}: {err}");
            assert!(!err.contains("cannot connect"), "{args:?}: {err}");
            assert!(!err.contains("cannot bind"), "{args:?}: {err}");
        }
    }
}

/// Full serve lifecycle through the real binary: daemon up, warm repeat
/// solves through `client solve`, health, budget degradation over the
/// wire, and a graceful drain that stops the daemon.
#[test]
fn serve_and_client_round_trip() {
    use std::io::{BufRead, BufReader};

    let dir = std::env::temp_dir().join("memlp-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve.lp");
    let out = memlp()
        .args(["generate", "16", "--seed", "29"])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::write(&path, &out.stdout).unwrap();

    // Daemon on an ephemeral port; the startup line announces the address.
    let mut server = memlp()
        .args(["serve", "--queue-depth", "4", "--variation", "5"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = BufReader::new(server.stdout.take().unwrap()).lines();
    let first = lines.next().expect("startup line").unwrap();
    let addr = first
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line: {first}"))
        .to_string();

    // Cold then warm solve of the same family.
    let solve = |extra: &[&str]| {
        let out = memlp()
            .args(["client", &addr, "solve", path.to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap();
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).to_string(),
        )
    };
    let (ok, cold) = solve(&["--family", "fam"]);
    assert!(ok, "{cold}");
    assert!(cold.contains("cold start"), "{cold}");
    let (ok, warm) = solve(&["--family", "fam"]);
    assert!(ok, "{warm}");
    assert!(warm.contains("warm start"), "{warm}");

    // Budget degradation over the wire: zero exit, degraded verdict.
    let (ok, degraded) = solve(&["--family", "fam", "--timeout-iters", "2"]);
    assert!(ok, "degraded solve must exit zero: {degraded}");
    assert!(degraded.contains("degraded:"), "{degraded}");

    // Health reflects the three completed solves.
    let out = memlp().args(["client", &addr, "health"]).output().unwrap();
    assert!(out.status.success());
    let health = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(health.contains("completed: 3"), "{health}");

    // Drain stops the daemon; it exits zero on its own.
    let out = memlp().args(["client", &addr, "drain"]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let status = server.wait().unwrap();
    assert!(status.success(), "server must exit cleanly after drain");
}

/// `serve --solver` takes the registry names of the crossbar families
/// with a warm-pool entry point; the digital names `pdip` and `pdhg` are
/// refused with an error that names the crossbar counterpart.
#[test]
fn serve_solver_names_match_the_solve_registry() {
    use std::io::{BufRead, BufReader};

    for name in ["alg1", "pdhg-analog"] {
        let mut server = memlp()
            .args(["serve", "--solver", name])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        let mut lines = BufReader::new(server.stdout.take().unwrap()).lines();
        let first = lines.next().expect("startup line").unwrap();
        let addr = first
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("{name}: unexpected startup line: {first}"))
            .to_string();
        let out = memlp().args(["client", &addr, "drain"]).output().unwrap();
        assert!(out.status.success(), "{name}: drain failed");
        assert!(server.wait().unwrap().success(), "{name}: unclean exit");
    }

    for (name, crossbar) in [("pdip", "alg1"), ("pdhg", "pdhg-analog")] {
        let out = memlp().args(["serve", "--solver", name]).output().unwrap();
        assert!(!out.status.success(), "serve must refuse `{name}`");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("use --solver {crossbar}")),
            "`{name}` must point at `{crossbar}`: {err}"
        );
    }
}

#[test]
fn bad_usage_prints_help() {
    let out = memlp().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");

    let out = memlp().args(["solve"]).output().unwrap();
    assert!(!out.status.success());

    let out = memlp().args(["solve", "/nonexistent.lp"]).output().unwrap();
    assert!(!out.status.success());

    // A file the parser rejects is an error naming the file, not a panic.
    // U+212A lowercases to a shorter `k`, which once shifted the objective
    // keyword's byte offset off a char boundary; the row has no relation.
    let dir = std::env::temp_dir().join("memlp-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("kelvin.lp");
    std::fs::write(&path, "max:\u{212A};\nc0: \u{212A};\n").unwrap();
    let out = memlp()
        .args(["solve", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("kelvin.lp") && !err.contains("panicked"),
        "{err}"
    );

    // The density picks the Newton factorization and tile elision is
    // always on: neither has a flag.
    for flag in [&["--path", "sparse"][..], &["--no-tile-elision"]] {
        let out = memlp()
            .args(["solve", path.to_str().unwrap()])
            .args(flag)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag"), "{flag:?}: {err}");
    }

    // A missing and a malformed flag value both name the flag.
    for args in [
        &["generate", "8", "--seed"][..],
        &["generate", "8", "--seed", "abc"],
    ] {
        let out = memlp().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--seed"), "{args:?}: {err}");
    }
}

#[test]
fn closed_stdout_ends_quietly() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    // `generate 400` writes megabytes, far past a pipe buffer, so the
    // binary is still writing when the reader goes away after one line
    // (`memlp generate 400 | head -1`).
    let mut child = memlp()
        .args(["generate", "400", "--seed", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(!first.is_empty());
    // The reader (and with it the pipe) is dropped here.
    let mut err = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut err)
        .unwrap();
    let status = child.wait().unwrap();
    assert!(!err.contains("panicked"), "{err}");
    assert_ne!(status.code(), Some(101), "{err}");
}
