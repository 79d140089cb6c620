//! Rule families and the scanning engine.
//!
//! Every rule maps to an invariant the paper's headline claims rest on
//! (see DESIGN.md §"Static guarantees"):
//!
//! * **determinism** — the Eqn 18 variation model and every solver result
//!   must be reproducible from a seed, so the solver crates may not touch
//!   wall clocks, unseeded RNGs, or unordered hash containers;
//! * **concurrency** — PR 1's bitwise thread-invariance proof lives in
//!   `memlp-linalg::parallel`; keeping every primitive there keeps the
//!   proof local;
//! * **panic-freedom** — library crates return their `Error` types instead
//!   of aborting mid-solve;
//! * **float hygiene** — strict `==`/`!=` against non-zero float literals
//!   is almost always a tolerance bug in solver code (exact-zero sparsity
//!   checks are exempt);
//! * **safety** — `#![forbid(unsafe_code)]` on every crate root, and no
//!   `unsafe` anywhere;
//! * **cross-file reachability & taint** (`reach::*`, `taint::*`) — the
//!   two-pass analyzer in [`crate::parser`] / [`crate::graph`] follows the
//!   workspace call graph to find invariant leaks no single file shows:
//!   panicking private helpers reachable from public API, entropy escaping
//!   the solver crates through any call chain, and analog readouts flowing
//!   into exact comparisons or unclamped indexing.
//!
//! This module owns the rule registry, the per-file token pass
//! ([`analyze_file`] — pass 1, pure in the file content and path), and the
//! directive (`memlp-lint: allow(...)`) machinery. The cross-file pass
//! lives in [`crate::graph`] and is stitched in by [`crate::lint_sources`].

use crate::lexer::{lex, Comment, Tok, TokKind};
use crate::parser::{self, FileIr};

/// Finding severity. `Deny` findings fail the build; `Warn` findings are
/// advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory only.
    Warn,
    /// Fails the lint run (non-zero exit).
    Deny,
}

impl Severity {
    /// Lower-case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// One step of a cross-file call-chain witness: how the analyzer got from
/// the rule's anchor (public API, solver-crate entry, analog source) to
/// the finding site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessStep {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What this step is (e.g. `public API memlp_core::Solver::solve`,
    /// `calls helper() here`).
    pub label: String,
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule identifier, e.g. `panic::unwrap`.
    pub rule: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// The trimmed source line.
    pub snippet: String,
    /// Call-chain witness (cross-file rules only; empty for token rules).
    pub witness: Vec<WitnessStep>,
}

/// Registry of every rule: (id, severity, summary). `--list-rules` prints
/// this table and `allow(...)` directives are validated against it.
pub const RULES: &[(&str, Severity, &str)] = &[
    (
        "determinism::wall-clock",
        Severity::Deny,
        "no Instant/SystemTime outside memlp-bench/memlp-serve; solver timing is the cost ledger",
    ),
    (
        "determinism::unseeded-rng",
        Severity::Deny,
        "no thread_rng/OsRng/from_entropy in determinism-critical crates; seed every stream",
    ),
    (
        "determinism::hash-container",
        Severity::Deny,
        "no HashMap/HashSet in determinism-critical crates; iteration order is unspecified",
    ),
    (
        "concurrency::primitive",
        Severity::Deny,
        "no thread::spawn/scope, Mutex, RwLock, atomics, … outside memlp-linalg::parallel and memlp-serve",
    ),
    (
        "net::socket",
        Severity::Deny,
        "no TcpListener/TcpStream/UdpSocket outside memlp-serve; the daemon owns the network edge",
    ),
    (
        "panic::unwrap",
        Severity::Deny,
        "no .unwrap() in non-test library code; return the crate's Error type",
    ),
    (
        "panic::expect",
        Severity::Deny,
        "no .expect() in non-test library code; return the crate's Error type",
    ),
    (
        "panic::panic-macro",
        Severity::Deny,
        "no panic!/todo!/unimplemented!/unreachable! in non-test library code",
    ),
    (
        "float::strict-eq",
        Severity::Deny,
        "no ==/!= against non-zero float literals in solver/linalg code; use a tolerance",
    ),
    (
        "safety::unsafe-code",
        Severity::Deny,
        "no unsafe blocks anywhere in the workspace",
    ),
    (
        "safety::forbid-unsafe-missing",
        Severity::Deny,
        "every crate root must carry #![forbid(unsafe_code)]",
    ),
    (
        "style::dbg-macro",
        Severity::Warn,
        "dbg! left in library code",
    ),
    (
        "lint::allow-missing-reason",
        Severity::Deny,
        "memlp-lint: allow(...) directives must carry reason = \"...\"",
    ),
    (
        "lint::unknown-rule",
        Severity::Deny,
        "memlp-lint: allow(...) names a rule that does not exist",
    ),
    (
        "lint::unused-allow",
        Severity::Warn,
        "memlp-lint: allow(...) directive suppressed nothing",
    ),
    (
        "reach::panic",
        Severity::Deny,
        "panicking private helper transitively reachable from public library API",
    ),
    (
        "reach::nondeterminism",
        Severity::Deny,
        "entropy/wall-clock source outside the solver crates reachable from solver code",
    ),
    (
        "taint::analog-exact",
        Severity::Deny,
        "analog readout flows into strict float ==/!= or unclamped indexing",
    ),
];

/// Long-form rationale for `--explain <rule>`. Every registry entry has
/// one; the cross-file rules also document their witness output.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "determinism::wall-clock" => {
            "Every solver result in this reproduction must replay bit-for-bit from a seed \
             (paper Eqn 18 / §4.1). `Instant`/`SystemTime` reads make control flow depend on \
             the host scheduler, so they are confined to the two crates whose job is timing: \
             memlp-bench (kernel measurement) and memlp-serve (request latency stamps and \
             load-gen percentiles, which never feed back into a solve). Everywhere else — \
             solver crates, the CLI, the lint tool — thread a simulated clock through the \
             cost ledger, or use the solver's iteration-tick deadlines (`IterationDeadline`)."
        }
        "determinism::unseeded-rng" => {
            "`thread_rng`/`OsRng`/`from_entropy` draw from ambient entropy, so two runs of \
             the same seed diverge. Construct a seeded `StdRng` stream (salted per block, as \
             in memlp-crossbar::fault) instead."
        }
        "determinism::hash-container" => {
            "`HashMap`/`HashSet` iteration order is unspecified and changes across runs and \
             toolchains. Solver paths iterate containers to build matrices and reports, so \
             use `BTreeMap`/`BTreeSet` or a `Vec`."
        }
        "concurrency::primitive" => {
            "PR 1's bitwise thread-invariance proof lives entirely in \
             memlp-linalg::parallel. Any primitive outside it (threads, locks, atomics, \
             channels) would need its own proof; route work through the shared pool. \
             memlp-serve is the one other crate allowed primitives: a daemon's accept \
             loop, admission queue, and worker pool are concurrency by definition, and \
             its determinism story is different — each *solve* replays bitwise on pooled \
             seeded hardware, while scheduling order is explicitly out of scope \
             (DESIGN.md §16)."
        }
        "net::socket" => {
            "Sockets are ambient, nondeterministic I/O and an availability surface. All \
             network access is confined to memlp-serve, whose framed length-prefixed \
             protocol, admission control, and drain lifecycle are property-tested; solver \
             crates stay pure functions of their seeds, and the CLI talks to the daemon \
             through memlp_serve::ServeClient rather than raw sockets."
        }
        "panic::unwrap" | "panic::expect" => {
            "Library code aborting mid-solve loses the trace and the partially-programmed \
             crossbar state. Return the crate's Error type; reserve panics for tests. If the \
             value is provably present, say why: \
             // memlp-lint: allow(panic::unwrap, reason = \"...\")."
        }
        "panic::panic-macro" => {
            "`panic!`/`todo!`/`unimplemented!`/`unreachable!` in non-test library code aborts \
             the caller's solve. Return an Error instead."
        }
        "float::strict-eq" => {
            "Strict equality against a non-zero float literal is a tolerance bug in solver \
             code: analog readouts and LU results carry quantization and variation error. \
             Compare with an epsilon. Exact-zero compares are exempt (structural sparsity)."
        }
        "safety::unsafe-code" => {
            "The workspace is 100% safe Rust; every kernel is written so the \
             autovectorizer, not unsafe SIMD, provides the speed (DESIGN.md §14)."
        }
        "safety::forbid-unsafe-missing" => {
            "`#![forbid(unsafe_code)]` on every crate root turns the no-unsafe policy into \
             a compiler guarantee that survives refactors."
        }
        "style::dbg-macro" => "`dbg!` is a leftover debugging aid; remove it before merging.",
        "lint::allow-missing-reason" => {
            "Escape hatches must be auditable: every `memlp-lint: allow(...)` carries \
             reason = \"...\" explaining why the invariant holds anyway."
        }
        "lint::unknown-rule" => {
            "The allow directive names a rule that is not in the registry — most likely a \
             typo; see --list-rules."
        }
        "lint::unused-allow" => {
            "The directive suppressed nothing on its own or the following line. For a \
             multi-rule directive `allow(a, b, reason = ...)` the message names which rule \
             went unused; delete the stale rule (or the whole directive)."
        }
        "reach::panic" => {
            "Cross-file pass. A private helper that can panic (unwrap/expect/panic!-family \
             or assert!-family) is transitively reachable from a public, non-test function \
             of a library crate: the panic is part of the public contract but invisible at \
             the API boundary. The finding prints the full call-chain witness, e.g.\n  \
             public API memlp_core::Solver::solve (solver.rs:120)\n  \
             -> calls assemble() (solver.rs:140)\n  \
             -> assemble: `assert_eq!` may panic here (newton.rs:88)\n\
             Return an Error through the chain, or allow at the seed with the invariant \
             that makes the panic unreachable."
        }
        "reach::nondeterminism" => {
            "Cross-file pass. A function in a determinism-critical solver crate can reach \
             — through any call chain, across crates and `use` aliases — a wall-clock or \
             ambient-RNG source that is per-file legal where it lives (bench/CLI code). \
             Entropy must not flow back into solver results; break the edge or move the \
             helper."
        }
        "taint::analog-exact" => {
            "Cross-file pass. A value derived from an analog readout (an API annotated \
             `memlp-lint: analog_source`, or any function the fixed point proves returns \
             one) flows into a strict float ==/!= or into slice indexing without clamping. \
             ADC outputs are only trustworthy inside the calibrated tolerance envelope \
             (paper Fig 5), so exact decisions on them are miscompiles of the math: compare \
             against a tolerance, or clamp before indexing. Exact-zero compares are exempt \
             (structural sparsity survives the ADC). The finding's witness traces \
             sink <- binding <- call <- ... <- annotated source."
        }
        _ => return None,
    })
}

/// Crates whose solver paths must be bit-reproducible (paper Eqn 18 /
/// §4.1): wall clocks, unseeded RNGs, and hash containers are banned.
pub(crate) const DETERMINISM_CRATES: &[&str] = &[
    "memlp-core",
    "memlp-linalg",
    "memlp-crossbar",
    "memlp-device",
    "memlp-noc",
    "memlp-solvers",
    "memlp-lp",
];

/// Crates whose numerics are tolerance-based: strict float equality against
/// a non-zero literal is flagged.
const FLOAT_CRATES: &[&str] = &["memlp-core", "memlp-linalg", "memlp-solvers"];

/// The only crates allowed to read wall clocks: the bench harness times
/// kernels, and the serve daemon stamps request latencies (which never
/// feed back into a solve). Everywhere else `Instant`/`SystemTime` is
/// banned — including the CLI and this lint tool, which carry explicit
/// allows where a human has argued the read is inert.
pub(crate) const WALL_CLOCK_CRATES: &[&str] = &["memlp-bench", "memlp-serve"];

/// Crates allowed to own concurrency primitives wholesale. The serving
/// daemon is concurrency by definition (accept loop, admission queue,
/// worker pool); its per-solve determinism contract is documented in
/// DESIGN.md §16. memlp-linalg is *not* listed: its `parallel` module
/// carries per-site allows so any new primitive there is still a
/// conscious decision.
pub(crate) const CONCURRENCY_CRATES: &[&str] = &["memlp-serve"];

/// The only crate allowed to open sockets; see `net::socket`.
pub(crate) const NET_CRATES: &[&str] = &["memlp-serve"];

/// Crates exempt from panic rules (the bench harness is allowed to abort).
pub(crate) const PANIC_EXEMPT_CRATES: &[&str] = &["memlp-bench"];

/// Severity of a registry rule (Deny for unknown ids, fail-closed).
pub(crate) fn severity_of(rule: &str) -> Severity {
    RULES
        .iter()
        .find(|(id, ..)| *id == rule)
        .map(|&(_, s, _)| s)
        .unwrap_or(Severity::Deny)
}

fn is_known_rule(rule: &str) -> bool {
    RULES.iter().any(|(id, ..)| *id == rule)
}

/// How a scanned file is classified, derived from its workspace-relative
/// path.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Crate the file belongs to (`memlp` for the root package).
    pub krate: String,
    /// True for integration tests / examples / benches (whole file is test
    /// scope).
    pub test_file: bool,
    /// True for `src/lib.rs` of a crate (the root package included).
    pub crate_root: bool,
}

impl FileCtx {
    /// Classifies a workspace-relative path.
    pub fn classify(rel: &str) -> FileCtx {
        let rel = rel.replace('\\', "/");
        let krate = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("memlp")
            .to_string();
        let test_file = rel.split('/').any(|seg| {
            seg == "tests" || seg == "examples" || seg == "benches" || seg == "fixtures"
        });
        let crate_root =
            rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"));
        FileCtx {
            krate,
            test_file,
            crate_root,
        }
    }
}

/// An `allow` escape-hatch directive parsed from a comment. A multi-rule
/// directive `allow(a, b, reason = "...")` expands to one `Directive` per
/// rule, sharing `line` and `group` size, so unused-allow reporting can
/// name exactly which rule went stale.
#[derive(Debug, Clone)]
pub struct Directive {
    /// The rule this directive suppresses.
    pub rule: String,
    /// 1-based line of the directive comment.
    pub line: u32,
    /// Set when the directive suppressed at least one finding (either
    /// pass).
    pub used: bool,
    /// Number of rules in the same comma-separated directive (1 = simple).
    pub group: usize,
}

impl Directive {
    /// True when this directive covers findings on `line` (its own line or
    /// the next, so trailing and line-above placements both work).
    pub fn covers(&self, line: u32) -> bool {
        line == self.line || line == self.line + 1
    }
}

/// Pass-1 result for one file: per-file findings (without `unused-allow`,
/// which is only decidable after the cross-file pass consumes directives),
/// the parsed directives, the item-level IR, and the file class.
#[derive(Debug, Clone)]
pub struct FileAnalysis {
    /// Workspace-relative path.
    pub path: String,
    /// Path classification.
    pub ctx: FileCtx,
    /// Token-rule findings, already directive-suppressed.
    pub findings: Vec<Finding>,
    /// Directives, with pass-1 usage recorded.
    pub directives: Vec<Directive>,
    /// Item-level IR for the cross-file pass.
    pub ir: FileIr,
    /// Per-line trimmed snippets the cross pass anchors findings to.
    pub snippets: Vec<String>,
}

impl FileAnalysis {
    /// Trimmed source line (1-based), or empty when out of range.
    pub fn snippet(&self, line: u32) -> String {
        self.snippets
            .get(line as usize - 1)
            .cloned()
            .unwrap_or_default()
    }
}

/// Pass 1: lex, token-scan, and parse one file. Pure in the file content
/// and path.
pub fn analyze_file(rel_path: &str, src: &str) -> FileAnalysis {
    let ctx = FileCtx::classify(rel_path);
    let lexed = lex(src);
    let snippets: Vec<String> = src.lines().map(|l| l.trim().to_string()).collect();
    let snippet =
        |line: u32| -> String { snippets.get(line as usize - 1).cloned().unwrap_or_default() };

    let mut findings: Vec<Finding> = Vec::new();
    let mut directives = parse_directives(rel_path, &lexed.comments, &mut findings, &snippet);
    let test_mask = test_region_mask(&lexed.toks);

    scan_tokens(
        &ctx,
        rel_path,
        &lexed.toks,
        &test_mask,
        &mut findings,
        &snippet,
    );

    if ctx.crate_root && !has_forbid_unsafe(&lexed.toks) {
        findings.push(Finding {
            file: rel_path.to_string(),
            line: 1,
            rule: "safety::forbid-unsafe-missing",
            severity: severity_of("safety::forbid-unsafe-missing"),
            message: "crate root is missing `#![forbid(unsafe_code)]`".into(),
            snippet: snippet(1),
            witness: Vec::new(),
        });
    }

    // Apply suppressions: a directive covers its own line and the next one,
    // so it works both trailing (`stmt // memlp-lint: allow(...)`) and on
    // the line above the offending statement.
    findings.retain(|f| {
        if f.rule.starts_with("lint::") {
            return true;
        }
        for d in directives.iter_mut() {
            if d.rule == f.rule && d.covers(f.line) {
                d.used = true;
                return false;
            }
        }
        true
    });

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    let ir = parser::parse_file(rel_path, &lexed, ctx.test_file, &test_mask);
    FileAnalysis {
        path: rel_path.to_string(),
        ctx,
        findings,
        directives,
        ir,
        snippets,
    }
}

/// Emits `lint::unused-allow` warnings for directives neither pass used.
/// For multi-rule directives the message names the stale rule and notes
/// that a sibling rule did match, so the fix is precise.
pub fn unused_allow_findings(analysis: &FileAnalysis) -> Vec<Finding> {
    let mut out = Vec::new();
    for d in &analysis.directives {
        if d.used {
            continue;
        }
        let sibling_used = d.group > 1
            && analysis
                .directives
                .iter()
                .any(|o| o.line == d.line && o.used);
        let message = if sibling_used {
            let used: Vec<&str> = analysis
                .directives
                .iter()
                .filter(|o| o.line == d.line && o.used)
                .map(|o| o.rule.as_str())
                .collect();
            format!(
                "allow({}) suppressed nothing on this or the next line ({} in the same \
                 directive did — drop the stale rule)",
                d.rule,
                used.join(", ")
            )
        } else {
            format!(
                "allow({}) suppressed nothing on this or the next line",
                d.rule
            )
        };
        out.push(Finding {
            file: analysis.path.clone(),
            line: d.line,
            rule: "lint::unused-allow",
            severity: severity_of("lint::unused-allow"),
            message,
            snippet: analysis.snippet(d.line),
            witness: Vec::new(),
        });
    }
    out
}

/// Lints one file's source with the per-file token pass only. `rel_path`
/// drives the scope rules (which crate, test vs. library code). The full
/// pipeline — cross-file rules included — is [`crate::lint_str`] /
/// [`crate::lint_sources`].
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let analysis = analyze_file(rel_path, src);
    let mut findings = analysis.findings.clone();
    findings.extend(unused_allow_findings(&analysis));
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Parses `memlp-lint: allow(rule_a[, rule_b…], reason = "...")` directives
/// out of the comment stream. A directive must *start* the comment (after
/// the comment markers), so prose that merely mentions the syntax never
/// parses as one. Directives without a reason, or naming unknown rules,
/// become findings themselves (and do not suppress anything). One comment
/// may allow several rules; each is tracked separately for usage.
/// `memlp-lint: analog_source` fact annotations (consumed by the parser)
/// are recognized and skipped here.
/// Splits a directive's argument list (everything after the opening paren)
/// into top-level comma-separated parts. Commas and parens inside the
/// quoted reason string don't split or terminate; the scan stops at the
/// matching close paren (or end of comment for unterminated input, which
/// the reason check then rejects).
fn directive_args(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut escape = false;
    for ch in s.chars() {
        if in_str {
            cur.push(ch);
            if escape {
                escape = false;
            } else if ch == '\\' {
                escape = true;
            } else if ch == '"' {
                in_str = false;
            }
            continue;
        }
        match ch {
            '"' => {
                in_str = true;
                cur.push(ch);
            }
            ',' => {
                parts.push(std::mem::take(&mut cur));
            }
            ')' => break,
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur);
    }
    parts
}

fn parse_directives(
    rel_path: &str,
    comments: &[Comment],
    findings: &mut Vec<Finding>,
    snippet: &dyn Fn(u32) -> String,
) -> Vec<Directive> {
    let mut out = Vec::new();
    for c in comments {
        let content = c.text.trim_start_matches(['/', '*', '!']).trim_start();
        {
            let Some(rest) = content.strip_prefix("memlp-lint:") else {
                continue;
            };
            let body = rest.trim_start();
            // Fact annotations are the parser's business, not suppressions.
            if body.starts_with("analog_source") {
                continue;
            }
            let Some(args) = body.strip_prefix("allow") else {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: c.line,
                    rule: "lint::allow-missing-reason",
                    severity: severity_of("lint::allow-missing-reason"),
                    message:
                        "malformed directive: expected `memlp-lint: allow(rule, reason = \"...\")`"
                            .into(),
                    snippet: snippet(c.line),
                    witness: Vec::new(),
                });
                continue;
            };
            let args = args.trim_start();
            let inner = args.strip_prefix('(').map(directive_args);
            let Some(inner) = inner else {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: c.line,
                    rule: "lint::allow-missing-reason",
                    severity: severity_of("lint::allow-missing-reason"),
                    message: "malformed directive: missing `(rule, reason = \"...\")`".into(),
                    snippet: snippet(c.line),
                    witness: Vec::new(),
                });
                continue;
            };
            // Every top-level part before the `reason = "..."` clause is a
            // rule name (the splitter ignores commas inside the quoted
            // reason and parens inside its text).
            let mut rules: Vec<String> = Vec::new();
            let mut has_reason = false;
            for part in inner {
                let part = part.trim();
                if let Some(r) = part.strip_prefix("reason") {
                    has_reason = r
                        .trim_start()
                        .strip_prefix('=')
                        .map(|v| v.trim_start())
                        .map(|v| v.starts_with('"') && v.len() > 2 && v[1..].contains('"'))
                        .unwrap_or(false);
                } else if !part.is_empty() {
                    rules.push(part.to_string());
                }
            }
            if rules.is_empty() {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: c.line,
                    rule: "lint::allow-missing-reason",
                    severity: severity_of("lint::allow-missing-reason"),
                    message: "malformed directive: missing `(rule, reason = \"...\")`".into(),
                    snippet: snippet(c.line),
                    witness: Vec::new(),
                });
                continue;
            }
            // One finding per reasonless directive (not per listed rule).
            if !has_reason {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: c.line,
                    rule: "lint::allow-missing-reason",
                    severity: severity_of("lint::allow-missing-reason"),
                    message: format!(
                        "allow({}) has no reason — every escape hatch must say why",
                        rules.join(", ")
                    ),
                    snippet: snippet(c.line),
                    witness: Vec::new(),
                });
            }
            let group = rules.len();
            for rule in rules {
                if !is_known_rule(&rule) {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line: c.line,
                        rule: "lint::unknown-rule",
                        severity: severity_of("lint::unknown-rule"),
                        message: format!("allow names unknown rule `{rule}` (see --list-rules)"),
                        snippet: snippet(c.line),
                        witness: Vec::new(),
                    });
                } else if has_reason {
                    out.push(Directive {
                        rule,
                        line: c.line,
                        used: false,
                        group,
                    });
                }
            }
        }
    }
    out
}

/// Public alias for [`test_region_mask`] so the parser's unit tests share
/// the exact same notion of test scope.
#[cfg(test)]
pub(crate) fn test_region_mask_of(toks: &[Tok]) -> Vec<bool> {
    test_region_mask(toks)
}

/// Marks token index ranges covered by `#[cfg(test)]` / `#[test]` items so
/// panic/determinism/float rules skip unit-test code embedded in library
/// sources.
fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if let Some(after_attr) = test_attr_end(toks, i) {
            // Skip any further attributes between the test attribute and
            // the item (`#[cfg(test)] #[allow(...)] mod tests { … }`).
            let mut j = after_attr;
            while j + 1 < toks.len() && toks[j].text == "#" && toks[j + 1].text == "[" {
                let mut depth = 0usize;
                let mut k = j + 1;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                j = (k + 1).min(toks.len());
            }
            // The item body: everything to the matching `}` of its first
            // top-level `{`, or to a `;` for brace-less items.
            let mut k = j;
            let mut end = toks.len().saturating_sub(1);
            while k < toks.len() {
                match toks[k].text.as_str() {
                    "{" => {
                        let mut depth = 0usize;
                        while k < toks.len() {
                            match toks[k].text.as_str() {
                                "{" => depth += 1,
                                "}" => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            k += 1;
                        }
                        end = k.min(toks.len() - 1);
                        break;
                    }
                    ";" => {
                        end = k;
                        break;
                    }
                    _ => k += 1,
                }
            }
            for m in mask.iter_mut().take(end + 1).skip(i) {
                *m = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// If `toks[i..]` opens with `#[test]` or `#[cfg(test)]`, returns the index
/// one past the closing `]`.
fn test_attr_end(toks: &[Tok], i: usize) -> Option<usize> {
    if toks.get(i)?.text != "#" || toks.get(i + 1)?.text != "[" {
        return None;
    }
    let t2 = &toks.get(i + 2)?.text;
    if t2 == "test" && toks.get(i + 3)?.text == "]" {
        return Some(i + 4);
    }
    if t2 == "cfg"
        && toks.get(i + 3)?.text == "("
        && toks.get(i + 4)?.text == "test"
        && toks.get(i + 5)?.text == ")"
        && toks.get(i + 6)?.text == "]"
    {
        return Some(i + 7);
    }
    None
}

/// True when the token stream contains `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe(toks: &[Tok]) -> bool {
    const SEQ: &[&str] = &["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
    toks.windows(SEQ.len())
        .any(|w| w.iter().zip(SEQ).all(|(t, s)| t.text == *s))
}

/// True for a float literal token (decimal point, exponent, or f32/f64
/// suffix; radix-prefixed integers are excluded). Shared with the parser's
/// sink extraction.
pub(crate) fn is_float_literal_text(text: &str) -> bool {
    is_float_literal(text)
}

/// True when a float literal is exactly zero; shared with the parser.
pub(crate) fn float_literal_is_zero(text: &str) -> bool {
    is_zero_literal(text)
}

/// True for a float literal token (decimal point, exponent, or f32/f64
/// suffix; radix-prefixed integers are excluded).
fn is_float_literal(text: &str) -> bool {
    let t = text.to_ascii_lowercase();
    if t.starts_with("0x") || t.starts_with("0o") || t.starts_with("0b") {
        return false;
    }
    t.contains('.') || t.ends_with("f32") || t.ends_with("f64") || {
        // `1e5`-style exponent with no dot.
        t.chars()
            .next()
            .map(|c| c.is_ascii_digit())
            .unwrap_or(false)
            && t.contains('e')
    }
}

/// True when a float literal is exactly zero (`0.0`, `0.`, `0f64`): exact
/// structural-sparsity checks against zero are well-defined and common in
/// the kernels, so they are exempt from `float::strict-eq`.
fn is_zero_literal(text: &str) -> bool {
    let t = text.to_ascii_lowercase();
    let mantissa: String = t
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .split('e')
        .next()
        .unwrap_or("")
        .chars()
        .filter(|c| *c != '_')
        .collect();
    !mantissa.is_empty() && mantissa.chars().all(|c| c == '0' || c == '.')
}

/// The token-scanning pass: emits at most one finding per (line, rule).
fn scan_tokens(
    ctx: &FileCtx,
    rel_path: &str,
    toks: &[Tok],
    test_mask: &[bool],
    findings: &mut Vec<Finding>,
    snippet: &dyn Fn(u32) -> String,
) {
    let determinism = DETERMINISM_CRATES.contains(&ctx.krate.as_str()) && !ctx.test_file;
    let float_scope = FLOAT_CRATES.contains(&ctx.krate.as_str()) && !ctx.test_file;
    let panic_scope = !PANIC_EXEMPT_CRATES.contains(&ctx.krate.as_str()) && !ctx.test_file;
    let clock_scope = !WALL_CLOCK_CRATES.contains(&ctx.krate.as_str()) && !ctx.test_file;
    let conc_scope = !CONCURRENCY_CRATES.contains(&ctx.krate.as_str());
    let net_scope = !NET_CRATES.contains(&ctx.krate.as_str()) && !ctx.test_file;

    let mut seen: Vec<(u32, &'static str)> = Vec::new();
    let mut emit = |line: u32, rule: &'static str, message: String| {
        if seen.contains(&(line, rule)) {
            return;
        }
        seen.push((line, rule));
        findings.push(Finding {
            file: rel_path.to_string(),
            line,
            rule,
            severity: severity_of(rule),
            message,
            snippet: snippet(line),
            witness: Vec::new(),
        });
    };

    for (idx, tok) in toks.iter().enumerate() {
        let in_test = test_mask.get(idx).copied().unwrap_or(false);
        let prev = idx.checked_sub(1).and_then(|p| toks.get(p));
        let next = toks.get(idx + 1);
        let text = tok.text.as_str();

        match tok.kind {
            TokKind::Ident => {
                // safety::unsafe-code — everywhere, test code included.
                if text == "unsafe" {
                    emit(
                        tok.line,
                        "safety::unsafe-code",
                        "`unsafe` is banned workspace-wide".into(),
                    );
                }

                // concurrency::primitive — everywhere outside the serve
                // daemon (tests included, so the thread-invariance suites
                // run under the same regime); memlp-linalg::parallel
                // carries explicit allows.
                let is_conc_ident = matches!(
                    text,
                    "Mutex" | "RwLock" | "Condvar" | "OnceLock" | "OnceCell" | "mpsc" | "Barrier"
                ) || (text.starts_with("Atomic")
                    && text.len() > "Atomic".len());
                let is_thread_call = text == "thread"
                    && next.map(|n| n.text == "::").unwrap_or(false)
                    && matches!(
                        toks.get(idx + 2).map(|t| t.text.as_str()),
                        Some("spawn") | Some("scope")
                    );
                if conc_scope && (is_conc_ident || is_thread_call) {
                    emit(
                        tok.line,
                        "concurrency::primitive",
                        format!(
                            "`{text}` outside memlp-linalg::parallel and memlp-serve — route \
                             threading through the shared pool so thread-invariance stays \
                             provable in one place"
                        ),
                    );
                }

                // net::socket — only the serve daemon opens sockets.
                if net_scope
                    && !in_test
                    && matches!(text, "TcpListener" | "TcpStream" | "UdpSocket")
                {
                    emit(
                        tok.line,
                        "net::socket",
                        format!(
                            "`{text}` outside memlp-serve — network I/O is confined to the \
                             daemon's framed protocol; talk to it through ServeClient"
                        ),
                    );
                }

                // determinism::wall-clock — everywhere except the two
                // timing crates (memlp-bench, memlp-serve).
                if clock_scope && !in_test && matches!(text, "Instant" | "SystemTime") {
                    emit(
                        tok.line,
                        "determinism::wall-clock",
                        format!(
                            "`{text}` outside memlp-bench/memlp-serve — time a solve via the \
                             cost ledger or bound it with IterationDeadline"
                        ),
                    );
                }

                if determinism && !in_test {
                    if matches!(text, "thread_rng" | "ThreadRng" | "OsRng" | "from_entropy")
                        || (text == "rand"
                            && next.map(|n| n.text == "::").unwrap_or(false)
                            && toks
                                .get(idx + 2)
                                .map(|t| t.text == "random")
                                .unwrap_or(false))
                    {
                        emit(
                            tok.line,
                            "determinism::unseeded-rng",
                            format!(
                                "`{text}` draws from ambient entropy — construct a seeded \
                                 StdRng so every solver run replays bit-for-bit (Eqn 18)"
                            ),
                        );
                    }
                    if matches!(text, "HashMap" | "HashSet") {
                        emit(
                            tok.line,
                            "determinism::hash-container",
                            format!(
                                "`{text}` iteration order is unspecified — use \
                                 BTreeMap/BTreeSet or a Vec in solver paths"
                            ),
                        );
                    }
                }

                if panic_scope && !in_test {
                    if matches!(text, "unwrap" | "expect")
                        && prev
                            .map(|p| p.text == "." || p.text == "::")
                            .unwrap_or(false)
                        && next.map(|n| n.text == "(").unwrap_or(false)
                    {
                        let rule: &'static str = if text == "unwrap" {
                            "panic::unwrap"
                        } else {
                            "panic::expect"
                        };
                        emit(
                            tok.line,
                            rule,
                            format!(
                                "`.{text}()` in non-test library code — return the crate's \
                                 Error type instead of aborting mid-solve"
                            ),
                        );
                    }
                    if matches!(text, "panic" | "todo" | "unimplemented" | "unreachable")
                        && next.map(|n| n.text == "!").unwrap_or(false)
                    {
                        emit(
                            tok.line,
                            "panic::panic-macro",
                            format!("`{text}!` in non-test library code"),
                        );
                    }
                    if text == "dbg" && next.map(|n| n.text == "!").unwrap_or(false) {
                        emit(
                            tok.line,
                            "style::dbg-macro",
                            "`dbg!` left in library code".into(),
                        );
                    }
                }
            }
            TokKind::Punct if float_scope && !in_test && (text == "==" || text == "!=") => {
                // Literal on the right (allowing unary minus) or left.
                let rhs = match next {
                    Some(n) if n.text == "-" => toks.get(idx + 2),
                    other => other,
                };
                let lit = [prev, rhs].into_iter().flatten().find(|t| {
                    t.kind == TokKind::Num && is_float_literal(&t.text) && !is_zero_literal(&t.text)
                });
                if let Some(l) = lit {
                    emit(
                        tok.line,
                        "float::strict-eq",
                        format!(
                            "strict `{text}` against float literal `{}` — compare with a \
                             tolerance",
                            l.text
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_at(path: &str, src: &str) -> Vec<(u32, &'static str)> {
        lint_source(path, src)
            .into_iter()
            .map(|f| (f.line, f.rule))
            .collect()
    }

    #[test]
    fn registry_ids_are_unique() {
        for (i, (id, ..)) in RULES.iter().enumerate() {
            assert!(
                RULES.iter().skip(i + 1).all(|(other, ..)| other != id),
                "duplicate rule id {id}"
            );
        }
    }

    #[test]
    fn cfg_test_modules_are_exempt_from_panic_rules() {
        let src = "#![forbid(unsafe_code)]\nfn ok() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert!(rules_at("crates/memlp-lp/src/x.rs", src)
            .iter()
            .all(|(_, r)| !r.starts_with("panic::")));
    }

    #[test]
    fn zero_float_comparisons_are_exempt() {
        let src = "fn f(x: f64) -> bool { x == 0.0 && x != 1.5 }\n";
        let got = rules_at("crates/memlp-linalg/src/x.rs", src);
        assert_eq!(got, vec![(1, "float::strict-eq")]);
    }

    #[test]
    fn forbid_attribute_is_required_on_crate_roots() {
        let got = rules_at("crates/memlp-lp/src/lib.rs", "pub fn f() {}\n");
        assert_eq!(got, vec![(1, "safety::forbid-unsafe-missing")]);
        let got = rules_at(
            "crates/memlp-lp/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n",
        );
        assert!(got.is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_and_is_marked_used() {
        let src = "#![forbid(unsafe_code)]\n// memlp-lint: allow(panic::unwrap, reason = \"demo\")\nfn f() { Some(1).unwrap(); }\n";
        assert!(rules_at("crates/memlp-core/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_its_own_finding() {
        let src = "// memlp-lint: allow(panic::unwrap)\nfn f() { Some(1).unwrap(); }\n";
        let got = rules_at("crates/memlp-core/src/x.rs", src);
        assert!(got.contains(&(1, "lint::allow-missing-reason")));
        assert!(got.contains(&(2, "panic::unwrap")));
    }
}
