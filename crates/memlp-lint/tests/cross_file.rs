//! Cross-file golden tests: each fixture *set* under
//! `tests/fixtures/cross/` is a multi-file workspace slice linted through
//! [`memlp_lint::lint_sources`], with the exact `(file, line, rule)` set
//! asserted and the call-chain witness checked step by step. Bad/good
//! pairs keep the same call shape so a pass that stops resolving calls
//! cannot silently turn a bad fixture "clean".

use memlp_lint::{lint_sources, Finding, Report};

const PANIC_FILES: &[(&str, &str)] = &[
    ("api.rs", "crates/memlp-lp/src/api.rs"),
    ("scale.rs", "crates/memlp-lp/src/scale.rs"),
    ("pivot.rs", "crates/memlp-lp/src/pivot.rs"),
];

const ENTROPY_FILES: &[(&str, &str)] = &[
    ("diag.rs", "src/diag.rs"),
    ("sched.rs", "crates/memlp-noc/src/sched.rs"),
];

const TAINT_FILES: &[(&str, &str)] = &[
    ("probe.rs", "crates/memlp-device/src/probe.rs"),
    ("verify.rs", "crates/memlp-core/src/verify.rs"),
];

const PDHG_FILES: &[(&str, &str)] = &[
    ("operator.rs", "crates/memlp-core/src/pdhg_op.rs"),
    ("converge.rs", "crates/memlp-solvers/src/pdhg_check.rs"),
];

const TILE_FILES: &[(&str, &str)] = &[
    ("readback.rs", "crates/memlp-noc/src/tile_readback.rs"),
    ("scan.rs", "crates/memlp-crossbar/src/tile_scan.rs"),
];

fn load(set: &str, files: &[(&str, &str)]) -> Report {
    let sources = files
        .iter()
        .map(|&(fixture, simulated)| {
            let path = format!(
                "{}/tests/fixtures/cross/{set}/{fixture}",
                env!("CARGO_MANIFEST_DIR")
            );
            let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
            (simulated.to_string(), src)
        })
        .collect();
    lint_sources(sources)
}

fn triples(report: &Report) -> Vec<(&str, u32, &str)> {
    report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule))
        .collect()
}

fn the_finding<'a>(report: &'a Report, rule: &str) -> &'a Finding {
    let mut hits = report.findings.iter().filter(|f| f.rule == rule);
    let f = hits.next().unwrap_or_else(|| panic!("no {rule} finding"));
    assert!(hits.next().is_none(), "more than one {rule} finding");
    f
}

/// Asserts the witness chain step by step: `(file, line, label fragment)`.
fn check_witness(f: &Finding, expected: &[(&str, u32, &str)]) {
    let got: Vec<String> = f
        .witness
        .iter()
        .map(|w| format!("{}:{}: {}", w.file, w.line, w.label))
        .collect();
    assert_eq!(
        f.witness.len(),
        expected.len(),
        "witness for [{}] {}:\n{}",
        f.rule,
        f.file,
        got.join("\n")
    );
    for (step, &(file, line, fragment)) in f.witness.iter().zip(expected) {
        assert_eq!((step.file.as_str(), step.line), (file, line), "{got:?}");
        assert!(
            step.label.contains(fragment),
            "step label `{}` missing `{fragment}`",
            step.label
        );
    }
}

/// The 3-hop chain `solve_entry` → `scale_rhs` → `pick_pivot` ends in a
/// private `.unwrap()`: the per-file rule flags the token and the
/// reachability pass pins the abort on the public entry point, with the
/// full discovery chain as witness.
#[test]
fn three_hop_panic_chain_is_traced_to_the_entry_point() {
    let r = load("panic_bad", PANIC_FILES);
    assert_eq!(
        triples(&r),
        vec![
            ("crates/memlp-lp/src/pivot.rs", 4, "panic::unwrap"),
            ("crates/memlp-lp/src/pivot.rs", 4, "reach::panic"),
        ]
    );
    let f = the_finding(&r, "reach::panic");
    assert!(
        f.message
            .contains("can abort callers of entry point `memlp_lp::api::solve_entry`"),
        "{}",
        f.message
    );
    check_witness(
        f,
        &[
            (
                "crates/memlp-lp/src/api.rs",
                4,
                "entry point `memlp_lp::api::solve_entry`",
            ),
            (
                "crates/memlp-lp/src/api.rs",
                5,
                "calls `memlp_lp::scale::scale_rhs`",
            ),
            (
                "crates/memlp-lp/src/scale.rs",
                4,
                "calls `memlp_lp::pivot::pick_pivot`",
            ),
            (
                "crates/memlp-lp/src/pivot.rs",
                4,
                "`.unwrap()` in `memlp_lp::pivot::pick_pivot`",
            ),
        ],
    );
}

/// The same chain returning `Option` through every hop lints clean.
#[test]
fn option_returning_panic_chain_lints_clean() {
    let r = load("panic_good", PANIC_FILES);
    assert_eq!(triples(&r), vec![]);
}

/// A wall-clock helper in the root crate is reached from `memlp-noc`
/// through an aliased import: the leak is reported at the entropy seed,
/// and the witness walks alias resolution back to the scheduler entry
/// point. Since the wall-clock ban widened beyond the solver crates
/// (timing now lives only in memlp-bench/memlp-serve), the token pass
/// flags the helper's `Instant` reads too — the cross-file finding is
/// still the one that names the solver-side entry point.
#[test]
fn aliased_import_entropy_leak_is_traced_across_crates() {
    let r = load("entropy_bad", ENTROPY_FILES);
    assert_eq!(
        triples(&r),
        vec![
            ("src/diag.rs", 3, "determinism::wall-clock"),
            ("src/diag.rs", 7, "determinism::wall-clock"),
            ("src/diag.rs", 7, "reach::nondeterminism"),
        ]
    );
    let f = the_finding(&r, "reach::nondeterminism");
    assert!(f.message.contains("leaks ambient entropy"), "{}", f.message);
    check_witness(
        f,
        &[
            (
                "crates/memlp-noc/src/sched.rs",
                6,
                "entry point `memlp_noc::sched::stamp_epoch`",
            ),
            (
                "crates/memlp-noc/src/sched.rs",
                7,
                "calls `memlp::diag::stamp_millis`",
            ),
            ("src/diag.rs", 7, "`Instant` in `memlp::diag::stamp_millis`"),
        ],
    );
}

/// The same import/call shape fed by a replayable tick counter is clean.
#[test]
fn tick_fed_scheduler_lints_clean() {
    let r = load("entropy_good", ENTROPY_FILES);
    assert_eq!(triples(&r), vec![]);
}

/// A readout bound from the annotated `analog_source` method and compared
/// with `==` (or used as a raw index) fires the taint rule; each witness
/// walks the provenance back to the annotation in the other crate.
#[test]
fn tainted_readout_exact_compare_and_index_are_found() {
    let r = load("taint_bad", TAINT_FILES);
    assert_eq!(
        triples(&r),
        vec![
            ("crates/memlp-core/src/verify.rs", 8, "float::strict-eq"),
            ("crates/memlp-core/src/verify.rs", 8, "taint::analog-exact"),
            ("crates/memlp-core/src/verify.rs", 14, "taint::analog-exact"),
        ]
    );
    let taints: Vec<&Finding> = r
        .findings
        .iter()
        .filter(|f| f.rule == "taint::analog-exact")
        .collect();
    check_witness(
        taints[0],
        &[
            (
                "crates/memlp-core/src/verify.rs",
                8,
                "strict compare on analog-tainted `v`",
            ),
            ("crates/memlp-core/src/verify.rs", 7, "`v` bound from"),
            (
                "crates/memlp-device/src/probe.rs",
                12,
                "is an annotated analog source",
            ),
        ],
    );
    check_witness(
        taints[1],
        &[
            (
                "crates/memlp-core/src/verify.rs",
                14,
                "unclamped index on analog-tainted `v`",
            ),
            ("crates/memlp-core/src/verify.rs", 13, "`v` bound from"),
            (
                "crates/memlp-device/src/probe.rs",
                12,
                "is an annotated analog source",
            ),
        ],
    );
}

/// Tolerance-band compares and `.min()`-clamped indexing over the same
/// tainted readout lint clean.
#[test]
fn tolerant_compare_and_clamped_index_lint_clean() {
    let r = load("taint_good", TAINT_FILES);
    assert_eq!(triples(&r), vec![]);
}

/// The first-order backend's smuggling hazard: the PDHG operator's
/// annotated analog drives feed the convergence check, and a strict `==`
/// against zero on the readout (or a raw checkpoint index) fires the
/// taint rule with provenance walked back to the annotation in the
/// operator crate.
#[test]
fn pdhg_readout_must_not_reach_strict_convergence_compares() {
    let r = load("pdhg_bad", PDHG_FILES);
    assert_eq!(
        triples(&r),
        vec![
            (
                "crates/memlp-solvers/src/pdhg_check.rs",
                8,
                "float::strict-eq"
            ),
            (
                "crates/memlp-solvers/src/pdhg_check.rs",
                8,
                "taint::analog-exact"
            ),
            (
                "crates/memlp-solvers/src/pdhg_check.rs",
                14,
                "taint::analog-exact"
            ),
        ]
    );
    let taints: Vec<&Finding> = r
        .findings
        .iter()
        .filter(|f| f.rule == "taint::analog-exact")
        .collect();
    check_witness(
        taints[0],
        &[
            (
                "crates/memlp-solvers/src/pdhg_check.rs",
                8,
                "strict compare on analog-tainted `r`",
            ),
            (
                "crates/memlp-solvers/src/pdhg_check.rs",
                7,
                "`r` bound from",
            ),
            (
                "crates/memlp-core/src/pdhg_op.rs",
                12,
                "is an annotated analog source",
            ),
        ],
    );
    check_witness(
        taints[1],
        &[
            (
                "crates/memlp-solvers/src/pdhg_check.rs",
                14,
                "unclamped index on analog-tainted `r`",
            ),
            (
                "crates/memlp-solvers/src/pdhg_check.rs",
                13,
                "`r` bound from",
            ),
            (
                "crates/memlp-core/src/pdhg_op.rs",
                12,
                "is an annotated analog source",
            ),
        ],
    );
}

/// Tolerance-banded convergence and clamped checkpoint indices — the
/// real loop's idiom — lint clean over the same call shape.
#[test]
fn pdhg_tolerance_band_checks_lint_clean() {
    let r = load("pdhg_good", PDHG_FILES);
    assert_eq!(triples(&r), vec![]);
}

/// The elision discipline (DESIGN.md §18): a tile-occupancy index must be
/// built from *planned* coefficients, never analog read-backs — a
/// liveness verdict riding converter noise makes fabrication decisions
/// depend on entropy. Deciding liveness by strict-comparing a read-back
/// (or indexing the occupancy bitmap with one) fires the taint rule with
/// provenance walked back to the annotated source in the fabric crate —
/// and it fires in `memlp-crossbar`, *outside* the per-file float-rule
/// scope: taint provenance, not crate lists, is what guards the index.
#[test]
fn occupancy_built_from_analog_readbacks_is_flagged() {
    let r = load("tile_bad", TILE_FILES);
    assert_eq!(
        triples(&r),
        vec![
            (
                "crates/memlp-crossbar/src/tile_scan.rs",
                8,
                "taint::analog-exact"
            ),
            (
                "crates/memlp-crossbar/src/tile_scan.rs",
                14,
                "taint::analog-exact"
            ),
        ]
    );
    let taints: Vec<&Finding> = r
        .findings
        .iter()
        .filter(|f| f.rule == "taint::analog-exact")
        .collect();
    check_witness(
        taints[0],
        &[
            (
                "crates/memlp-crossbar/src/tile_scan.rs",
                8,
                "strict compare on analog-tainted `g`",
            ),
            (
                "crates/memlp-crossbar/src/tile_scan.rs",
                7,
                "`g` bound from",
            ),
            (
                "crates/memlp-noc/src/tile_readback.rs",
                12,
                "is an annotated analog source",
            ),
        ],
    );
    check_witness(
        taints[1],
        &[
            (
                "crates/memlp-crossbar/src/tile_scan.rs",
                14,
                "unclamped index on analog-tainted `g`",
            ),
            (
                "crates/memlp-crossbar/src/tile_scan.rs",
                13,
                "`g` bound from",
            ),
            (
                "crates/memlp-noc/src/tile_readback.rs",
                12,
                "is an annotated analog source",
            ),
        ],
    );
}

/// The real occupancy idiom — liveness from planned coefficients (exact
/// zero tests on digital values), read-backs band-checked, indices
/// clamped — lints clean over the same call shape.
#[test]
fn occupancy_built_from_planned_values_lints_clean() {
    let r = load("tile_good", TILE_FILES);
    assert_eq!(triples(&r), vec![]);
}

/// Acceptance criterion: every cross-file finding carries a non-empty
/// witness chain whose last step lands on the reported seed line.
#[test]
fn every_cross_file_finding_has_a_witness_ending_at_the_seed() {
    for (set, files) in [
        ("panic_bad", PANIC_FILES),
        ("entropy_bad", ENTROPY_FILES),
        ("taint_bad", TAINT_FILES),
        ("pdhg_bad", PDHG_FILES),
        ("tile_bad", TILE_FILES),
    ] {
        let r = load(set, files);
        for f in r.findings.iter().filter(|f| f.rule.starts_with("reach::")) {
            let last = f
                .witness
                .last()
                .unwrap_or_else(|| panic!("[{}] {}:{} has no witness", f.rule, f.file, f.line));
            assert_eq!((last.file.as_str(), last.line), (f.file.as_str(), f.line));
            assert!(f.witness.len() >= 2, "witness too short in {set}");
        }
    }
}

/// End to end through the binary on a two-file workspace: editing only
/// the *callee* must surface the cross-file finding at the caller's entry
/// point, and reverting it must retire the finding again.
#[test]
fn editing_a_callee_retriggers_and_retires_the_cross_file_finding() {
    use std::path::Path;
    use std::process::Command;

    const LIB_RS: &str = "#![forbid(unsafe_code)]\n\
        mod helper;\n\
        \n\
        pub fn api(xs: &[u32]) -> u32 {\n\
        \x20   crate::helper::pick(xs)\n\
        }\n";
    // Callee with a reachable private panic (seed for `reach::panic`).
    const HELPER_PANICKY: &str = "fn pick(xs: &[u32]) -> u32 {\n\
        \x20   xs.first().copied().unwrap()\n\
        }\n";
    // Same callee, total: no seed.
    const HELPER_TOTAL: &str = "fn pick(xs: &[u32]) -> u32 {\n\
        \x20   xs.first().copied().unwrap_or(0)\n\
        }\n";

    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("callee_edit");
    let src = root.join("src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
    std::fs::write(src.join("lib.rs"), LIB_RS).unwrap();
    let helper = src.join("helper.rs");
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_memlp-lint"))
            .args(["--root", root.to_str().unwrap(), "--format", "json"])
            .output()
            .expect("spawn memlp-lint");
        (out.status.code(), String::from_utf8(out.stdout).unwrap())
    };

    std::fs::write(&helper, HELPER_TOTAL).unwrap();
    let (code, out) = run();
    assert_eq!(code, Some(0), "{out}");
    assert!(!out.contains("reach::panic"), "{out}");

    std::fs::write(&helper, HELPER_PANICKY).unwrap();
    let (code, out) = run();
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains("\"rule\": \"reach::panic\""), "{out}");
    assert!(out.contains("entry point `memlp::api`"), "{out}");

    std::fs::write(&helper, HELPER_TOTAL).unwrap();
    let (code, out) = run();
    assert_eq!(code, Some(0), "{out}");
    assert!(!out.contains("reach::panic"), "{out}");
}
