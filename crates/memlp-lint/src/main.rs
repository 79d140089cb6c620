#![forbid(unsafe_code)]
//! `memlp-lint` binary: lint the workspace, print findings, exit non-zero
//! on deny-level findings.
//!
//! ```text
//! memlp-lint [--root <path>] [--format human|json] [--list-rules]
//!            [--explain <rule>] [--quiet]
//! ```
//!
//! Exit codes: `0` clean (warn findings allowed), `1` deny findings, `2`
//! usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use memlp_lint::rules::Severity;

enum Format {
    Human,
    Json,
}

struct Args {
    root: Option<PathBuf>,
    format: Format,
    list_rules: bool,
    explain: Option<String>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        format: Format::Human,
        list_rules: false,
        explain: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root needs a path")?;
                args.root = Some(PathBuf::from(v));
            }
            "--format" => match it.next().as_deref() {
                Some("json") => args.format = Format::Json,
                Some("human") => args.format = Format::Human,
                other => return Err(format!("--format expects human|json, got {other:?}")),
            },
            "--explain" => {
                let v = it.next().ok_or("--explain needs a rule id")?;
                args.explain = Some(v);
            }
            // A bare `--` separator (e.g. from `cargo lint -- --flag` when
            // the alias already ends in `--`) is ignored.
            "--" => {}
            "--list-rules" => args.list_rules = true,
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => {
                return Err("usage: memlp-lint [--root <path>] [--format human|json] \
                            [--list-rules] [--explain <rule>] [--quiet]"
                    .into())
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("memlp-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for (id, severity, summary) in memlp_lint::RULES {
            println!("{:<30} {:<5} {}", id, severity.label(), summary);
        }
        return ExitCode::SUCCESS;
    }

    if let Some(rule) = &args.explain {
        return match memlp_lint::rules::explain(rule) {
            Some(text) => {
                println!("{rule}\n");
                println!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("memlp-lint: unknown rule `{rule}` (see --list-rules)");
                ExitCode::from(2)
            }
        };
    }

    let root = match args.root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| memlp_lint::find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("memlp-lint: no workspace root found (pass --root)");
            return ExitCode::from(2);
        }
    };
    if !root.is_dir() {
        eprintln!("memlp-lint: root {} is not a directory", root.display());
        return ExitCode::from(2);
    }

    let report = match memlp_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("memlp-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    match args.format {
        Format::Json => print!("{}", report.to_json()),
        Format::Human if !args.quiet => print!("{}", report.to_human()),
        Format::Human => {
            // Quiet mode: deny findings only, no snippets or witnesses.
            for f in report
                .findings
                .iter()
                .filter(|f| f.severity == Severity::Deny)
            {
                println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
            }
        }
    }

    if report.deny_count() > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
