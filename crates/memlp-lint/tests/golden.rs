//! Golden-file tests: each fixture is linted under a simulated
//! workspace-relative path (the path drives crate/test scoping) and the
//! exact `(line, rule)` set is asserted.

use memlp_lint::lint_str;

fn findings(fixture: &str, simulated_path: &str) -> Vec<(u32, String)> {
    let path = format!("{}/tests/fixtures/{}", env!("CARGO_MANIFEST_DIR"), fixture);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    lint_str(simulated_path, &src)
        .findings
        .into_iter()
        .map(|f| (f.line, f.rule.to_string()))
        .collect()
}

fn check(fixture: &str, simulated_path: &str, expected: &[(u32, &str)]) {
    let got = findings(fixture, simulated_path);
    let want: Vec<(u32, String)> = expected.iter().map(|&(l, r)| (l, r.to_string())).collect();
    assert_eq!(got, want, "fixture {fixture} as {simulated_path}");
}

#[test]
fn determinism_rules_fire_in_solver_crates() {
    check(
        "bad_determinism.rs",
        "crates/memlp-core/src/fake.rs",
        &[
            (1, "determinism::wall-clock"),
            (2, "determinism::hash-container"),
            (5, "determinism::wall-clock"),
            (9, "determinism::unseeded-rng"),
            (10, "determinism::wall-clock"),
            (13, "determinism::hash-container"),
        ],
    );
}

/// The fault-injection / write–verify modules are determinism-critical:
/// ambient RNG, wall-clock seeds, and unordered maps in a fault-map pastiche
/// must all fire, in both the crossbar and device crates.
#[test]
fn fault_modules_are_held_to_the_determinism_regime() {
    let expected: &[(u32, &str)] = &[
        (1, "determinism::hash-container"),
        (4, "determinism::hash-container"),
        (8, "determinism::unseeded-rng"),
        (9, "determinism::hash-container"),
        (21, "determinism::wall-clock"),
        (22, "determinism::unseeded-rng"),
    ];
    check(
        "bad_fault_module.rs",
        "crates/memlp-crossbar/src/fault.rs",
        expected,
    );
    check(
        "bad_fault_module.rs",
        "crates/memlp-device/src/programming.rs",
        expected,
    );
}

/// The real idiom — salted seeded `StdRng` streams and `BTreeMap`-backed
/// fault maps — lints clean in the same modules.
#[test]
fn seeded_fault_modules_lint_clean() {
    check(
        "good_fault_module.rs",
        "crates/memlp-crossbar/src/fault.rs",
        &[],
    );
    check(
        "good_fault_module.rs",
        "crates/memlp-device/src/programming.rs",
        &[],
    );
}

/// Delta programming is cache-driven and determinism-critical: an
/// unordered code cache, wall-clock refresh stamps, or ambient RNG in the
/// skip path must all fire in the hardware-context module.
#[test]
fn delta_programming_modules_are_held_to_the_determinism_regime() {
    check(
        "bad_delta_module.rs",
        "crates/memlp-core/src/hw.rs",
        &[
            (1, "determinism::hash-container"),
            (2, "determinism::wall-clock"),
            (5, "determinism::hash-container"),
            (6, "determinism::wall-clock"),
            (10, "determinism::unseeded-rng"),
            (12, "determinism::wall-clock"),
            (24, "determinism::unseeded-rng"),
        ],
    );
}

/// The real idiom — a `BTreeMap` code cache keyed by block, with the
/// variation deviate drawn on skip and write alike — lints clean both in
/// the core hardware context and the array-level delta path.
#[test]
fn delta_programming_idiom_lints_clean() {
    check("good_delta_module.rs", "crates/memlp-core/src/hw.rs", &[]);
    check(
        "good_delta_module.rs",
        "crates/memlp-crossbar/src/array.rs",
        &[],
    );
}

#[test]
fn forbidden_tokens_inside_literals_and_comments_are_ignored() {
    check("good_strings.rs", "crates/memlp-core/src/fake.rs", &[]);
}

#[test]
fn panic_rules_fire_outside_test_modules_only() {
    check(
        "bad_panic.rs",
        "crates/memlp-lp/src/fake.rs",
        &[
            (2, "panic::unwrap"),
            (5, "panic::expect"),
            (8, "panic::panic-macro"),
            (11, "panic::panic-macro"),
            (14, "panic::panic-macro"),
            (17, "panic::panic-macro"),
        ],
    );
}

/// Line 11 is a `OnceLock` cache: lazily filled shared state belongs in
/// `memlp_linalg::parallel` (its `WriteOnce`), so the cell is flagged in
/// memlp-lp, whose `LpProblem` keeps a lazily built dense view.
#[test]
fn concurrency_primitives_flagged_outside_the_pool() {
    let expected: &[(u32, &str)] = &[
        (1, "concurrency::primitive"),
        (2, "concurrency::primitive"),
        (5, "concurrency::primitive"),
        (9, "concurrency::primitive"),
        (10, "concurrency::primitive"),
        (11, "concurrency::primitive"),
    ];
    check(
        "bad_concurrency.rs",
        "crates/memlp-noc/src/fake.rs",
        expected,
    );
    check(
        "bad_concurrency.rs",
        "crates/memlp-lp/src/fake.rs",
        expected,
    );
}

#[test]
fn float_strict_eq_exempts_exact_zero() {
    check(
        "bad_float.rs",
        "crates/memlp-solvers/src/fake.rs",
        &[
            (2, "float::strict-eq"),
            (4, "float::strict-eq"),
            (6, "float::strict-eq"),
        ],
    );
}

#[test]
fn allow_directives_suppress_validate_and_report_unused() {
    check(
        "allow_escapes.rs",
        "crates/memlp-core/src/fake.rs",
        &[
            (4, "lint::allow-missing-reason"),
            (5, "panic::unwrap"),
            (7, "lint::unknown-rule"),
            (10, "lint::unused-allow"),
        ],
    );
}

/// Multi-rule directives: a shared reason may contain commas and
/// parentheses; a rule that fires nothing is reported *by name* while its
/// used sibling stays silent; and a multi-rule directive still needs a
/// reason to suppress anything.
#[test]
fn multi_rule_allows_suppress_together_and_report_stale_rules_by_name() {
    check(
        "allow_multi.rs",
        "crates/memlp-core/src/fake.rs",
        &[
            (7, "lint::unused-allow"),
            (12, "lint::allow-missing-reason"),
            (13, "panic::unwrap"),
        ],
    );
    let path = format!(
        "{}/tests/fixtures/allow_multi.rs",
        env!("CARGO_MANIFEST_DIR")
    );
    let src = std::fs::read_to_string(path).unwrap();
    let report = lint_str("crates/memlp-core/src/fake.rs", &src);
    let unused = report
        .findings
        .iter()
        .find(|f| f.rule == "lint::unused-allow")
        .expect("unused-allow finding");
    assert!(
        unused.message.contains("determinism::wall-clock"),
        "stale rule not named: {}",
        unused.message
    );
}

#[test]
fn crate_roots_must_forbid_unsafe() {
    check(
        "missing_forbid.rs",
        "crates/memlp-device/src/lib.rs",
        &[(1, "safety::forbid-unsafe-missing")],
    );
    check("good_crate_root.rs", "crates/memlp-device/src/lib.rs", &[]);
}

#[test]
fn bench_crate_may_time_and_abort() {
    check("bench_timing_ok.rs", "crates/memlp-bench/src/fake.rs", &[]);
}

/// The serve daemon's trifecta — sockets, wall clocks, concurrency
/// primitives — fires in a solver crate and in the CLI alike: neither is
/// a refuge for smuggled network I/O or timing.
#[test]
fn serve_surfaces_are_confined_to_the_serve_crate() {
    let expected: &[(u32, &str)] = &[
        (4, "net::socket"),
        (5, "concurrency::primitive"),
        (6, "determinism::wall-clock"),
        (9, "determinism::wall-clock"),
        (10, "net::socket"),
        (11, "concurrency::primitive"),
        (12, "concurrency::primitive"),
    ];
    check(
        "bad_serve_module.rs",
        "crates/memlp-solvers/src/fake.rs",
        expected,
    );
    check("bad_serve_module.rs", "src/fake.rs", expected);
}

/// The same surfaces, written in the daemon's real idiom (poison-recovering
/// locks, latency stamps, listener bind), lint clean under memlp-serve —
/// and it is the *path* that licenses them, not the code: the identical
/// file under a solver crate fires every confinement rule.
#[test]
fn serve_idiom_is_clean_at_home_and_flagged_abroad() {
    check(
        "good_serve_module.rs",
        "crates/memlp-serve/src/fake.rs",
        &[],
    );
    check(
        "good_serve_module.rs",
        "crates/memlp-core/src/fake.rs",
        &[
            (3, "net::socket"),
            (4, "concurrency::primitive"),
            (5, "determinism::wall-clock"),
            (9, "concurrency::primitive"),
            (17, "determinism::wall-clock"),
            (18, "net::socket"),
        ],
    );
}

#[test]
fn unsafe_is_flagged_even_in_exempt_crates() {
    check(
        "unsafe_code.rs",
        "crates/memlp-bench/src/fake.rs",
        &[(3, "safety::unsafe-code")],
    );
}

#[test]
fn integration_tests_still_run_under_the_concurrency_regime() {
    check(
        "test_file_concurrency.rs",
        "crates/memlp-linalg/tests/fake.rs",
        &[(1, "concurrency::primitive"), (5, "concurrency::primitive")],
    );
}

#[test]
fn severities_match_the_registry() {
    let path = format!(
        "{}/tests/fixtures/allow_escapes.rs",
        env!("CARGO_MANIFEST_DIR")
    );
    let src = std::fs::read_to_string(path).unwrap();
    let report = lint_str("crates/memlp-core/src/fake.rs", &src);
    assert_eq!(report.deny_count(), 3);
    assert_eq!(report.warn_count(), 1);
}

/// The sparse Newton kernels are inner-loop and determinism-critical: an
/// unordered slot map for the symbolic pattern, wall-clock analysis
/// stamps, unwraps in the refactor hot path, and a strict compare against
/// a nonzero float must all fire — in the linalg kernel crate and in the
/// core Schur-complement module alike.
#[test]
fn sparse_modules_are_held_to_the_workspace_regime() {
    let expected: &[(u32, &str)] = &[
        (1, "determinism::hash-container"),
        (2, "determinism::wall-clock"),
        (5, "determinism::hash-container"),
        (6, "determinism::wall-clock"),
        (10, "determinism::wall-clock"),
        (13, "panic::unwrap"),
        (14, "float::strict-eq"),
    ];
    check(
        "bad_sparse_module.rs",
        "crates/memlp-linalg/src/sparse_lu.rs",
        expected,
    );
    check(
        "bad_sparse_module.rs",
        "crates/memlp-core/src/newton.rs",
        expected,
    );
}

/// The register-tiled microkernel module is inner-loop and
/// determinism-critical: a timing-fed tile auto-tuner is exactly what the
/// regime exists to keep out — wall-clock in the dispatch path, an
/// unordered rate cache, a cross-thread counter outside the pool, an
/// unwrap in the hot path, and a strict compare against a nonzero rate
/// must all fire, in the linalg kernel module and its matrix entry points
/// alike.
#[test]
fn kernel_modules_are_held_to_the_workspace_regime() {
    let expected: &[(u32, &str)] = &[
        (1, "determinism::hash-container"),
        (2, "concurrency::primitive"),
        (3, "determinism::wall-clock"),
        (9, "determinism::hash-container"),
        (10, "concurrency::primitive"),
        (14, "determinism::wall-clock"),
        (18, "float::strict-eq"),
        (26, "panic::unwrap"),
    ];
    check(
        "bad_kernels_module.rs",
        "crates/memlp-linalg/src/kernels.rs",
        expected,
    );
    check(
        "bad_kernels_module.rs",
        "crates/memlp-linalg/src/matrix.rs",
        expected,
    );
}

/// The real idiom — a thread-local `Cell` policy override with scoped
/// restore, the fixed 4-lane reduction tree, and exact-zero padding
/// compares — lints clean in the same module.
#[test]
fn kernel_idiom_lints_clean() {
    check(
        "good_kernels_module.rs",
        "crates/memlp-linalg/src/kernels.rs",
        &[],
    );
}

/// The real idiom — Vec-indexed fill pattern, NaN-safe pivot guard, and
/// exact-zero skip compares — lints clean in the same modules.
#[test]
fn sparse_kernel_idiom_lints_clean() {
    check(
        "good_sparse_module.rs",
        "crates/memlp-linalg/src/sparse_lu.rs",
        &[],
    );
    check(
        "good_sparse_module.rs",
        "crates/memlp-core/src/newton.rs",
        &[],
    );
}
