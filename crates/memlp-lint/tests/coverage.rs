//! Scan-set coverage lock-in: the lint must keep walking the workspace
//! root's `src`/`tests`/`examples`, every crate's sources, and the bench
//! crate's `benches/` — and keep honoring the crate-class exemptions that
//! make those paths lintable (benches may time, tests may panic).

use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

#[test]
fn the_scan_set_covers_every_crate_class() {
    let files = memlp_lint::workspace_files(workspace_root()).expect("collect scan set");
    for must in [
        // Workspace-root package: library, binaries, integration tests,
        // examples.
        "src/lib.rs",
        "tests/end_to_end.rs",
        "examples/quickstart.rs",
        // A library crate and the bench crate's benches/.
        "crates/memlp-core/src/lib.rs",
        "crates/memlp-bench/benches/kernel_tiles.rs",
        // The lint tool itself is not above its own law.
        "crates/memlp-lint/src/lib.rs",
    ] {
        assert!(
            files.iter().any(|f| f == must),
            "scan set is missing {must}"
        );
    }
    for (prefix, why) in [
        (
            "crates/memlp-lint/tests/fixtures/",
            "rule fixtures violate on purpose",
        ),
        ("vendor/", "third-party code"),
        ("target/", "build output"),
    ] {
        assert!(
            !files.iter().any(|f| f.starts_with(prefix)),
            "scan set must exclude {prefix} ({why})"
        );
    }
}

#[test]
fn crate_class_exemptions_hold_for_the_scanned_paths() {
    use memlp_lint::rules::FileCtx;
    // Benches and examples are test scope (may time, may unwrap).
    assert!(FileCtx::classify("crates/memlp-bench/benches/kernel_tiles.rs").test_file);
    assert!(FileCtx::classify("examples/quickstart.rs").test_file);
    assert!(FileCtx::classify("tests/end_to_end.rs").test_file);
    // Root-package library code is the `memlp` crate and full scope.
    let root_lib = FileCtx::classify("src/lib.rs");
    assert_eq!(root_lib.krate, "memlp");
    assert!(!root_lib.test_file && root_lib.crate_root);
    // Crate sources are attributed to their crate.
    assert_eq!(
        FileCtx::classify("crates/memlp-noc/src/router.rs").krate,
        "memlp-noc"
    );
}
