//! Report assembly and output formatting (human and JSON).
//!
//! The JSON writer is hand-rolled — the analyzer is dependency-free by
//! design — and emits a stable shape CI can archive and diff:
//!
//! ```json
//! {
//!   "files_scanned": 42,
//!   "deny": 1,
//!   "warn": 0,
//!   "findings": [
//!     {"file": "...", "line": 7, "rule": "panic::unwrap",
//!      "severity": "deny", "message": "...", "snippet": "..."}
//!   ]
//! }
//! ```
//!
//! Cross-file findings additionally carry a `"witness"` array of
//! `{"file", "line", "label"}` steps — the call chain from the rule's
//! anchor to the finding site.

use std::fmt::Write as _;

use crate::rules::{Finding, Severity};

/// A whole-workspace lint report.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, ordered by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Number of deny-level findings (these fail the run).
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
            .count()
    }

    /// Number of warn-level findings.
    pub fn warn_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warn)
            .count()
    }

    /// Human-readable rendering: one block per finding plus a summary line.
    pub fn to_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}:{}: {} [{}] {}",
                f.file,
                f.line,
                f.severity.label(),
                f.rule,
                f.message
            );
            if !f.snippet.is_empty() {
                let _ = writeln!(out, "    {}", f.snippet);
            }
            // Cross-file findings carry their call-chain witness: every hop
            // from the rule's anchor (public API, solver entry, analog
            // source) down to the finding site.
            for (i, w) in f.witness.iter().enumerate() {
                let arrow = if i == 0 { "   " } else { "-> " };
                let _ = writeln!(out, "    {arrow}{}:{}: {}", w.file, w.line, w.label);
            }
        }
        let _ = writeln!(
            out,
            "memlp-lint: {} finding(s) ({} deny, {} warn) across {} file(s)",
            self.findings.len(),
            self.deny_count(),
            self.warn_count(),
            self.files_scanned
        );
        out
    }

    /// JSON rendering (see module docs for the shape).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"deny\": {},", self.deny_count());
        let _ = writeln!(out, "  \"warn\": {},", self.warn_count());
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                "\"file\": {}, \"line\": {}, \"rule\": {}, \"severity\": {}, \
                 \"message\": {}, \"snippet\": {}",
                json_str(&f.file),
                f.line,
                json_str(f.rule),
                json_str(f.severity.label()),
                json_str(&f.message),
                json_str(&f.snippet)
            );
            if !f.witness.is_empty() {
                out.push_str(", \"witness\": [");
                for (j, w) in f.witness.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(
                        out,
                        "{{\"file\": {}, \"line\": {}, \"label\": {}}}",
                        json_str(&w.file),
                        w.line,
                        json_str(&w.label)
                    );
                }
                out.push(']');
            }
            out.push('}');
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::lint_source;

    fn sample_report() -> Report {
        let findings = lint_source(
            "crates/memlp-core/src/x.rs",
            "fn f() { Some(1).unwrap(); }\n",
        );
        Report {
            findings,
            files_scanned: 1,
        }
    }

    #[test]
    fn human_output_has_location_and_summary() {
        let text = sample_report().to_human();
        assert!(text.contains("crates/memlp-core/src/x.rs:1: deny [panic::unwrap]"));
        assert!(text.contains("1 deny, 0 warn"));
    }

    #[test]
    fn json_output_is_escaped_and_structured() {
        let text = sample_report().to_json();
        assert!(text.contains("\"rule\": \"panic::unwrap\""));
        assert!(text.contains("\"deny\": 1"));
        // The snippet contains quotes-free code here; force an escape check.
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
