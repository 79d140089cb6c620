//! SARIF 2.1.0 emitter (`--format sarif`).
//!
//! GitHub's code-scanning upload understands this shape and annotates
//! findings inline on PRs. Each finding becomes one `result`; cross-file
//! findings attach their call-chain witness as `relatedLocations`, so the
//! annotation links every hop from the public entry point to the seed.
//! Output is deterministic: rules appear in registry order, results in
//! report order, and object keys are `BTreeMap`-sorted.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::report::Report;
use crate::rules::{Severity, RULES};

/// The JSON subset the emitter writes. Numbers are integers.
enum Json {
    Num(i64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Compact single-line rendering (deterministic: object keys are
    /// `BTreeMap`-ordered).
    fn render_into(&self, out: &mut String) {
        match self {
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => {
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
            }
            Json::Arr(v) => {
                out.push('[');
                for (i, item) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).render_into(out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn s(text: &str) -> Json {
    Json::Str(text.to_string())
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    let mut m = BTreeMap::new();
    for (k, v) in pairs {
        m.insert(k.to_string(), v);
    }
    Json::Obj(m)
}

fn message(text: &str) -> Json {
    obj(vec![("text", s(text))])
}

fn location(uri: &str, line: u32, msg: Option<&str>) -> Json {
    let mut pairs = vec![(
        "physicalLocation",
        obj(vec![
            ("artifactLocation", obj(vec![("uri", s(uri))])),
            (
                "region",
                obj(vec![("startLine", Json::Num(i64::from(line.max(1))))]),
            ),
        ]),
    )];
    if let Some(m) = msg {
        pairs.push(("message", message(m)));
    }
    obj(pairs)
}

fn level_of(sev: Severity) -> &'static str {
    match sev {
        Severity::Deny => "error",
        Severity::Warn => "warning",
    }
}

/// Renders a report as a SARIF 2.1.0 document.
pub fn to_sarif(report: &Report) -> String {
    let rules: Vec<Json> = RULES
        .iter()
        .map(|(id, sev, summary)| {
            obj(vec![
                ("id", s(id)),
                ("shortDescription", message(summary)),
                (
                    "defaultConfiguration",
                    obj(vec![("level", s(level_of(*sev)))]),
                ),
            ])
        })
        .collect();
    let rule_index: BTreeMap<&str, usize> = RULES
        .iter()
        .enumerate()
        .map(|(i, (id, ..))| (*id, i))
        .collect();

    let results: Vec<Json> = report
        .findings
        .iter()
        .map(|f| {
            let mut pairs = vec![
                ("ruleId", s(f.rule)),
                (
                    "ruleIndex",
                    Json::Num(rule_index.get(f.rule).map_or(-1, |&i| i as i64)),
                ),
                ("level", s(level_of(f.severity))),
                ("message", message(&f.message)),
                (
                    "locations",
                    Json::Arr(vec![location(&f.file, f.line, None)]),
                ),
            ];
            if !f.witness.is_empty() {
                pairs.push((
                    "relatedLocations",
                    Json::Arr(
                        f.witness
                            .iter()
                            .map(|w| location(&w.file, w.line, Some(&w.label)))
                            .collect(),
                    ),
                ));
            }
            obj(pairs)
        })
        .collect();

    let doc = obj(vec![
        (
            "$schema",
            s("https://json.schemastore.org/sarif-2.1.0.json"),
        ),
        ("version", s("2.1.0")),
        (
            "runs",
            Json::Arr(vec![obj(vec![
                (
                    "tool",
                    obj(vec![(
                        "driver",
                        obj(vec![
                            ("name", s("memlp-lint")),
                            (
                                "informationUri",
                                s("https://github.com/memlp/memlp#static-guarantees"),
                            ),
                            ("rules", Json::Arr(rules)),
                        ]),
                    )]),
                ),
                ("results", Json::Arr(results)),
            ])]),
        ),
    ]);
    let mut out = String::new();
    doc.render_into(&mut out);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_str;

    #[test]
    fn sarif_has_schema_rules_and_results() {
        let report = lint_str(
            "crates/memlp-core/src/x.rs",
            "fn f() { Some(1).unwrap(); }\n",
        );
        let text = to_sarif(&report);
        assert!(text.contains("\"version\":\"2.1.0\""));
        assert!(text.contains("\"ruleId\":\"panic::unwrap\""));
        assert!(text.contains("\"level\":\"error\""));
        assert!(text.contains("\"startLine\":1"));
        // The whole document is well-formed JSON.
        let bytes = text.trim().as_bytes();
        let mut pos = 0;
        assert_eq!(skip_value(bytes, &mut pos), Some(()));
        assert_eq!(pos, bytes.len(), "trailing bytes after the document");
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while b.get(*pos).is_some_and(|c| c.is_ascii_whitespace()) {
            *pos += 1;
        }
    }

    /// Steps over one JSON value (objects, arrays, strings, integers);
    /// `None` on any syntax error.
    fn skip_value(b: &[u8], pos: &mut usize) -> Option<()> {
        skip_ws(b, pos);
        match *b.get(*pos)? {
            open @ (b'{' | b'[') => {
                let close = if open == b'{' { b'}' } else { b']' };
                *pos += 1;
                skip_ws(b, pos);
                if *b.get(*pos)? == close {
                    *pos += 1;
                    return Some(());
                }
                loop {
                    if open == b'{' {
                        skip_ws(b, pos);
                        skip_string(b, pos)?;
                        skip_ws(b, pos);
                        (*b.get(*pos)? == b':').then_some(())?;
                        *pos += 1;
                    }
                    skip_value(b, pos)?;
                    skip_ws(b, pos);
                    match *b.get(*pos)? {
                        b',' => *pos += 1,
                        c if c == close => {
                            *pos += 1;
                            return Some(());
                        }
                        _ => return None,
                    }
                }
            }
            b'"' => skip_string(b, pos),
            _ => {
                if b[*pos] == b'-' {
                    *pos += 1;
                }
                let digits = *pos;
                while b.get(*pos).is_some_and(u8::is_ascii_digit) {
                    *pos += 1;
                }
                (*pos > digits).then_some(())
            }
        }
    }

    fn skip_string(b: &[u8], pos: &mut usize) -> Option<()> {
        (*b.get(*pos)? == b'"').then_some(())?;
        *pos += 1;
        loop {
            match *b.get(*pos)? {
                b'"' => {
                    *pos += 1;
                    return Some(());
                }
                b'\\' => {
                    *pos += match *b.get(*pos + 1)? {
                        b'u' => 6,
                        b'"' | b'\\' | b'/' | b'n' | b'r' | b't' | b'b' | b'f' => 2,
                        _ => return None,
                    };
                }
                c if c < 0x20 => return None,
                _ => *pos += 1,
            }
        }
    }

    #[test]
    fn clean_input_yields_empty_results() {
        let report = lint_str("crates/memlp-core/src/x.rs", "pub fn f() -> u8 { 1 }\n");
        let text = to_sarif(&report);
        assert!(text.contains("\"results\":[]"));
    }
}
