//! The `BENCH_*.json` files the gate benches write at the repository
//! root, and the check that keeps their deterministic values honest.
//!
//! A bench builds its document with [`obj!`](crate::obj), one value per
//! key, each pre-formatted by the bench so it keeps its precision. A key
//! marked `~` is host-dependent — wall-clock times, rates, speedups and
//! whatever they decide; every other value is deterministic, following
//! from the seeds and the code alone. [`finish`] renders the committed
//! layout (top-level fields one per line, a [`Rows`] array one row per
//! line, every other object inline, `gate_pass` last), compares it with
//! the file it replaces, host-dependent values masked, writes the new
//! file, and panics when the gate failed or a deterministic value moved,
//! naming each moved key path with its old and new value. A second run
//! then passes: re-committing the file is how a change accepts a
//! deterministic move, and a fresh checkout catches one that was not.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::Path;

/// Builds an [`Obj`]: `obj! { key: value, ~key: value }`, where `~`
/// marks a host-dependent value (for a nested object or [`Rows`], every
/// value in it). A value is any `Display` — strings go through
/// [`quote`] — an [`Obj`] or [`Rows`].
#[macro_export]
macro_rules! obj {
    (@ $o:expr ;) => { $o };
    (@ $o:expr ; ~ $k:ident : $v:expr $(, $($rest:tt)*)?) => {
        $crate::obj!(@ $o.field(stringify!($k), true, $v) ; $($($rest)*)?)
    };
    (@ $o:expr ; $k:ident : $v:expr $(, $($rest:tt)*)?) => {
        $crate::obj!(@ $o.field(stringify!($k), false, $v) ; $($($rest)*)?)
    };
    ($($t:tt)*) => { $crate::obj!(@ $crate::artifact::Obj::default() ; $($t)*) };
}

/// A JSON object under construction; fields keep their insertion order.
#[derive(Debug, Default)]
pub struct Obj {
    fields: Vec<(&'static str, bool, Node)>,
}

/// An array of objects, rendered one row per line at the top level.
#[derive(Debug)]
pub struct Rows(pub Vec<Obj>);

/// One value of an [`Obj`].
#[derive(Debug)]
pub enum Node {
    /// A pre-formatted scalar (or inline array).
    Value(String),
    /// A nested object, rendered inline.
    Obj(Obj),
    /// An array of objects.
    Rows(Vec<Obj>),
}

/// What a value of an [`Obj`] can be.
pub trait IntoNode {
    /// The value as a document node.
    fn into_node(self) -> Node;
}

impl<T: Display> IntoNode for T {
    fn into_node(self) -> Node {
        Node::Value(self.to_string())
    }
}

impl IntoNode for Obj {
    fn into_node(self) -> Node {
        Node::Obj(self)
    }
}

impl IntoNode for Rows {
    fn into_node(self) -> Node {
        Node::Rows(self.0)
    }
}

impl Obj {
    /// Appends `key: value`; `host` marks it host-dependent.
    pub fn field(mut self, key: &'static str, host: bool, value: impl IntoNode) -> Obj {
        self.fields.push((key, host, value.into_node()));
        self
    }

    /// The document's layout: `{`, one top-level field per line, `}`.
    fn render(&self) -> String {
        let lines: Vec<String> = self
            .fields
            .iter()
            .map(|(key, _, node)| match node {
                Node::Rows(rows) => {
                    let rows: Vec<String> =
                        rows.iter().map(|r| format!("    {}", r.inline())).collect();
                    format!("  \"{key}\": [\n{}\n  ]", rows.join(",\n"))
                }
                _ => format!("  \"{key}\": {}", node.inline()),
            })
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }

    fn inline(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(key, _, node)| format!("\"{key}\": {}", node.inline()))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Key paths of the host-dependent values, array indices erased
    /// (`rows[].seconds`): a field is host-dependent in every row, however
    /// many rows the previous file had.
    fn host_paths(&self, prefix: &str, out: &mut Vec<String>) {
        for (key, host, node) in &self.fields {
            let path = join(prefix, key);
            match node {
                _ if *host => out.push(path),
                Node::Value(_) => {}
                Node::Obj(obj) => obj.host_paths(&path, out),
                Node::Rows(rows) => {
                    for row in rows {
                        row.host_paths(&format!("{path}[]"), out);
                    }
                }
            }
        }
    }
}

impl Node {
    fn inline(&self) -> String {
        match self {
            Node::Value(text) => text.clone(),
            Node::Obj(obj) => obj.inline(),
            Node::Rows(rows) => {
                let rows: Vec<String> = rows.iter().map(Obj::inline).collect();
                format!("[{}]", rows.join(", "))
            }
        }
    }
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Appends `gate_pass` to `doc`, writes it to `file` at the repository
/// root and checks it against the file it replaced (see the module docs).
///
/// # Panics
/// When `gate_pass` is false or a deterministic value moved — after
/// writing the file, so a rerun passes.
pub fn finish(file: &str, doc: Obj, gate_pass: bool) {
    let path = crate::repo_root().join(file);
    let moved = write_checked(&path, doc, gate_pass);
    println!("wrote {}", path.display());
    let mut failures = Vec::new();
    if !gate_pass {
        failures.push(format!("{file}: gate failed (\"gate_pass\": false)"));
    }
    if !moved.is_empty() {
        failures.push(format!(
            "{file}: deterministic values moved against the previous file \
             (re-commit it if the change is intended):\n  {}",
            moved.join("\n  ")
        ));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Renders `doc` plus `gate_pass`, writes it to `path`, and returns the
/// deterministic values that moved against the file it replaced as
/// `path: old -> new` lines (none when there was no previous file).
fn write_checked(path: &Path, doc: Obj, gate_pass: bool) -> Vec<String> {
    let doc = doc.field("gate_pass", true, gate_pass);
    let text = doc.render();
    let previous = std::fs::read_to_string(path).ok();
    std::fs::write(path, &text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    let Some(previous) = previous else {
        return Vec::new();
    };
    let mut host = Vec::new();
    doc.host_paths("", &mut host);
    let masked = |path: &str| {
        let path = erase_indices(path);
        host.iter().any(|h| {
            path.strip_prefix(h.as_str())
                .is_some_and(|rest| rest.is_empty() || rest.starts_with(['.', '[']))
        })
    };
    let Some(old) = leaves(&previous) else {
        return vec!["(the previous file is not valid JSON)".into()];
    };
    let new = leaves(&text).expect("the writer renders valid JSON");
    let mut moved: Vec<String> = new
        .iter()
        .filter(|(p, v)| old.get(*p) != Some(v) && !masked(p))
        .map(|(p, v)| {
            format!(
                "{p}: {} -> {v}",
                old.get(p).map_or("(absent)", |o| o.as_str())
            )
        })
        .collect();
    moved.extend(
        old.iter()
            .filter(|(p, _)| !new.contains_key(*p) && !masked(p))
            .map(|(p, o)| format!("{p}: {o} -> (absent)")),
    );
    moved
}

fn join(prefix: &str, key: &str) -> String {
    if prefix.is_empty() {
        key.to_string()
    } else {
        format!("{prefix}.{key}")
    }
}

/// `rows[3].dense.seconds` → `rows[].dense.seconds`.
fn erase_indices(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    for part in path.split('[') {
        match part.split_once(']') {
            Some((_, rest)) => {
                out.push_str("[]");
                out.push_str(rest);
            }
            None => out.push_str(part),
        }
    }
    out
}

/// Every scalar of a JSON document by key path, as its source text;
/// `None` when `text` is not one JSON value.
fn leaves(text: &str) -> Option<BTreeMap<String, String>> {
    let mut out = BTreeMap::new();
    let rest = value(text, String::new(), &mut out)?;
    rest.trim().is_empty().then_some(out)
}

/// Parses the JSON value at the start of `s` into `out`; returns the rest.
fn value<'a>(s: &'a str, path: String, out: &mut BTreeMap<String, String>) -> Option<&'a str> {
    let s = s.trim_start();
    let close = match s.as_bytes().first()? {
        b'{' => '}',
        b'[' => ']',
        b'"' => {
            let (text, rest) = string(s)?;
            out.insert(path, text.to_string());
            return Some(rest);
        }
        _ => {
            let end = s.find([',', '}', ']', ' ', '\n']).unwrap_or(s.len());
            out.insert(path, s[..end].to_string());
            return (end > 0).then(|| &s[end..]);
        }
    };
    let mut s = s[1..].trim_start();
    if let Some(rest) = s.strip_prefix(close) {
        return Some(rest);
    }
    for index in 0.. {
        let sub = if close == '}' {
            let (key, rest) = string(s.trim_start())?;
            s = rest.trim_start().strip_prefix(':')?;
            join(&path, &key[1..key.len() - 1])
        } else {
            format!("{path}[{index}]")
        };
        s = value(s, sub, out)?.trim_start();
        match s.strip_prefix(',') {
            Some(rest) => s = rest,
            None => break,
        }
    }
    s.strip_prefix(close)
}

/// Splits a leading string literal, quotes included, off `s`.
fn string(s: &str) -> Option<(&str, &str)> {
    let mut escaped = false;
    for (i, c) in s.char_indices().skip(1) {
        match c {
            '"' if !escaped => return Some(s.split_at(i + 1)),
            '\\' => escaped = !escaped,
            _ => escaped = false,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(flops: u64, seconds: &str) -> Obj {
        let row = |domain: &str| obj! { domain: quote(domain) };
        obj! {
            bench: quote("sample"), note: quote("a \"quoted\" note"),
            rows: Rows(vec![
                obj! { domain: quote("transport"), sparse: obj! { ~seconds: seconds, flops: flops } },
                obj! { domain: quote("routing"), threads_checked: "[1, 2, 8]" },
            ]),
            cutoff: obj! { min: 7, ~rate: "1.500" },
            ~trials: Rows(vec![row("a"), row("b")]),
        }
    }

    #[test]
    fn renders_the_committed_layout() {
        let text = sample(9588, "0.000055")
            .field("gate_pass", true, true)
            .render();
        assert_eq!(
            text,
            "{\n  \"bench\": \"sample\",\n  \"note\": \"a \\\"quoted\\\" note\",\n  \"rows\": [\n    \
             {\"domain\": \"transport\", \"sparse\": {\"seconds\": 0.000055, \"flops\": 9588}},\n    \
             {\"domain\": \"routing\", \"threads_checked\": [1, 2, 8]}\n  ],\n  \
             \"cutoff\": {\"min\": 7, \"rate\": 1.500},\n  \"trials\": [\n    \
             {\"domain\": \"a\"},\n    {\"domain\": \"b\"}\n  ],\n  \"gate_pass\": true\n}\n"
        );
        let leaves = leaves(&text).expect("valid JSON");
        assert_eq!(leaves["rows[0].sparse.flops"], "9588");
        assert_eq!(leaves["rows[1].threads_checked[2]"], "8");
        assert_eq!(leaves["note"], "\"a \\\"quoted\\\" note\"");
        assert!(super::leaves(&text.replace("9588}", "9588,}")).is_none());
        assert!(super::leaves("{} trailing").is_none());
    }

    #[test]
    fn host_values_may_move_deterministic_ones_may_not() {
        let dir = std::env::temp_dir().join(format!("memlp-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sample.json");
        let _ = std::fs::remove_file(&path);
        let edit = |from: &str, to: &str| {
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, text.replacen(from, to, 1)).unwrap();
        };

        assert!(write_checked(&path, sample(9588, "0.000055"), true).is_empty());
        // A host-dependent value moved: the check passes.
        assert!(write_checked(&path, sample(9588, "0.000071"), true).is_empty());
        // So does a host-dependent array that lost a row.
        edit("\"b\"}\n", "\"b\"},\n    {\"domain\": \"c\"}\n");
        assert!(write_checked(&path, sample(9588, "0.000071"), true).is_empty());

        // A hand-edited deterministic value is named, then restored.
        edit("\"flops\": 9588", "\"flops\": 9590");
        let moved = write_checked(&path, sample(9588, "0.000071"), true);
        assert_eq!(moved, ["rows[0].sparse.flops: 9590 -> 9588"]);
        assert!(write_checked(&path, sample(9588, "0.000071"), true).is_empty());

        // A deterministic row that disappears is reported key by key.
        edit("8]}\n", "8]},\n    {\"domain\": \"scheduling\"}\n");
        let moved = write_checked(&path, sample(9588, "0.000071"), true);
        assert_eq!(moved, ["rows[2].domain: \"scheduling\" -> (absent)"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
