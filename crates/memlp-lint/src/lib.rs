#![forbid(unsafe_code)]
//! `memlp-lint` — the workspace's own static analyzer.
//!
//! The paper's headline claims (O(1) analog MVM, 8-bit quantized I/O,
//! reproducible solves under the Eqn 18 variation model) only hold in this
//! reproduction because every crate obeys rules the compiler cannot check:
//! seeded RNG streams only, no wall-clock dependence in solver paths, all
//! threading routed through `memlp-linalg::parallel`, and library code
//! that returns `Error` values instead of panicking mid-solve. This crate
//! walks every workspace source file with a hand-rolled lexer (no `syn`,
//! no dependencies at all) and enforces those rules; see
//! [`rules::RULES`] for the registry and DESIGN.md §"Static guarantees"
//! for the invariant-by-invariant rationale.
//!
//! Run it as `cargo lint` (alias), `cargo run -p memlp-lint`, or through
//! the library API:
//!
//! ```
//! let report = memlp_lint::lint_str(
//!     "crates/memlp-core/src/example.rs",
//!     "fn f() { Some(1).unwrap(); }",
//! );
//! assert_eq!(report.deny_count(), 1);
//! ```
//!
//! Findings can be suppressed per line with a directive comment that must
//! carry a reason (directives without one are themselves deny findings):
//!
//! ```text
//! // memlp-lint: allow(panic::expect, reason = "invariant: set by program()")
//! ```

pub mod graph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};

pub use report::Report;
pub use rules::{Finding, Severity, WitnessStep, RULES};

/// Directories scanned inside the workspace root and inside each crate.
const SCAN_DIRS: &[&str] = &["src", "tests", "examples", "benches"];

/// Path fragments never scanned: third-party code, build output, and the
/// lint's own rule fixtures (deliberately-violating test data).
const EXCLUDED: &[&str] = &["vendor/", "target/", "crates/memlp-lint/tests/fixtures/"];

/// Lints a single in-memory source file (`rel_path` drives scope rules)
/// through the full two-pass pipeline. Cross-file rules see only this one
/// file, so findings they would derive from other files are absent — use
/// [`lint_sources`] to analyze a file set together.
pub fn lint_str(rel_path: &str, src: &str) -> Report {
    lint_sources(vec![(rel_path.to_string(), src.to_string())])
}

/// Full pipeline over an in-memory file set: pass 1 per file, pass 2
/// (call graph + fixed points) across all of them, then `unused-allow`
/// accounting once both passes have consumed directives.
pub fn lint_sources(files: Vec<(String, String)>) -> Report {
    let mut analyses: Vec<rules::FileAnalysis> = files
        .iter()
        .map(|(rel, src)| rules::analyze_file(rel, src))
        .collect();
    Report {
        findings: finish_pipeline(&mut analyses),
        files_scanned: files.len(),
    }
}

/// Pass 2 + unused-allow over pass-1 results, returning the merged,
/// sorted finding list.
fn finish_pipeline(analyses: &mut [rules::FileAnalysis]) -> Vec<Finding> {
    let mut findings = graph::cross_findings(analyses);
    for a in analyses.iter() {
        findings.extend(a.findings.iter().cloned());
        findings.extend(rules::unused_allow_findings(a));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Collects the workspace-relative scan set under `root`, sorted: the
/// root package's `src`/`tests`/`examples`/`benches` plus the same four
/// directories of every crate under `crates/`, minus third-party code
/// (`vendor/`), build output (`target/`) and the lint's own rule fixtures
/// (`crates/memlp-lint/tests/fixtures/`). Public so the coverage tests can
/// pin the scan set itself, not just the count.
///
/// # Errors
///
/// Returns a description of the first unreadable directory.
pub fn workspace_files(root: &Path) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    for dir in SCAN_DIRS {
        collect_rs(&root.join(dir), root, &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = read_dir_sorted(&crates_dir)?;
        entries.retain(|p| p.is_dir());
        for krate in entries {
            for dir in SCAN_DIRS {
                collect_rs(&krate.join(dir), root, &mut files)?;
            }
        }
    }
    files.sort();
    files.dedup();
    Ok(files)
}

/// Lints every workspace source file under `root`: pass 1 per file, then
/// the cross-file pass over all of them.
///
/// # Errors
///
/// Returns a description of the first I/O failure (unreadable directory or
/// file).
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    // Opt-in phase timing on stderr (stdout stays byte-stable).
    let timing = std::env::var_os("MEMLP_LINT_TIMING").is_some();
    // memlp-lint: allow(determinism::wall-clock, reason = "diagnostic phase timing printed to stderr behind MEMLP_LINT_TIMING; findings and exit code never depend on it")
    let t0 = std::time::Instant::now();
    let files = workspace_files(root)?;
    let mut analyses = Vec::with_capacity(files.len());
    for rel in &files {
        let src =
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))?;
        analyses.push(rules::analyze_file(rel, &src));
    }
    let t_pass1 = t0.elapsed();
    let findings = finish_pipeline(&mut analyses);
    if timing {
        eprintln!(
            "memlp-lint timing: pass1 {:?}, pass2 {:?}",
            t_pass1,
            t0.elapsed() - t_pass1
        );
    }
    Ok(Report {
        findings,
        files_scanned: files.len(),
    })
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}

/// Recursively collects workspace-relative `.rs` paths under `dir`,
/// in sorted (deterministic) order, honoring [`EXCLUDED`].
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    for path in read_dir_sorted(dir)? {
        let rel = path
            .strip_prefix(root)
            .map_err(|e| format!("path {}: {e}", path.display()))?
            .to_string_lossy()
            .replace('\\', "/");
        if EXCLUDED.iter().any(|ex| rel.starts_with(ex)) {
            continue;
        }
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// `read_dir` with sorted results: directory iteration order is
/// filesystem-dependent, and this tool's own output must be deterministic.
fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut entries = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        entries.push(entry.path());
    }
    entries.sort();
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_str_counts_files_and_findings() {
        let r = lint_str("crates/memlp-core/src/x.rs", "fn ok() -> u8 { 1 }\n");
        assert_eq!(r.files_scanned, 1);
        assert_eq!(r.deny_count(), 0);
    }

    #[test]
    fn excluded_paths_are_skipped() {
        assert!(EXCLUDED
            .iter()
            .any(|e| "crates/memlp-lint/tests/fixtures/bad.rs".starts_with(e)));
    }
}
