//! Property tests for the `.lp` text format.
//!
//! 1. **Round trip.** `parse(&write(lp))` is equal by value to `lp` (so a
//!    stored `-0.0` reads back as `0.0`), for paper-style random LPs and
//!    for small dense LPs whose entries mix signs, fractions, exponents,
//!    exact zeros and values one rounding step away from 1.
//! 2. **Never panics.** `parse` returns `Ok` or `Err` on strings built from
//!    a token alphabet of the format's punctuation plus multi-byte
//!    characters whose lowercase has a different byte length.
//! 3. **CSR assembly matches a dense `+=`.** On generated text with
//!    repeated and cancelling terms, `>=` rows and every coefficient
//!    spelling (`2 x`, glued `2x` and `1e-3y`, `2*x`), the parsed CSR matrix
//!    equals, bit for bit, `SparseMatrix::from_dense` of a dense matrix
//!    built by adding each term into a zeroed cell in the order written,
//!    columns numbered by first appearance. A second strategy draws from
//!    300 generated names (a shared 40-byte prefix, names differing only
//!    in their last byte, 65 or more distinct names per LP) so the
//!    parser's name table grows past its first 64 slots and probes.
//! 4. **The writer reads CSR rows without changing a byte.** On the four
//!    domain LPs, `write` matches a reference that walks the dense rows.
//! 5. **The byte-level term scanner parses as the `char`-splitting parser
//!    did.** The earlier parser is kept below as the oracle. On token
//!    soup, on written LPs with tokens spliced in, and on written LPs with
//!    non-ASCII names and Unicode whitespace, `parse` returns `Ok` exactly
//!    when the oracle does, with the same CSR matrix, `b` and `c` bit for
//!    bit, and otherwise the same `LpError`. The inputs mix U+00A0,
//!    U+2003 and U+0085 whitespace, non-ASCII names, `*`, glued `2x`,
//!    `1e-3`, U+001F, CRLF and `\` comments.

use std::panic::{catch_unwind, AssertUnwindSafe};

use memlp_linalg::{Matrix, SparseMatrix};
use std::fmt::Write as _;

use memlp_lp::domains::{
    assignment_lp, max_flow_lp, production_schedule_lp, transportation_lp, AssignmentProblem,
    MaxFlowNetwork, ProductionPlan, TransportationProblem,
};
use memlp_lp::format::{parse, write};
use memlp_lp::generator::RandomLp;
use memlp_lp::LpProblem;
use proptest::prelude::*;

/// Entries the writer must reproduce exactly: signed zeros, unit
/// coefficients (written without a number) and their nearest neighbours.
const SPECIAL: [f64; 6] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    1.0 + f64::EPSILON,
    1.0 - f64::EPSILON / 2.0,
];

/// `mantissa · 10^exp` with a signed fractional mantissa and
/// `exp ∈ [-12, 12]`, or one of [`SPECIAL`].
fn coefficient() -> impl Strategy<Value = f64> {
    let scaled = (-9.99f64..9.99, 0u32..25).prop_map(|(m, e)| m * 10f64.powi(e as i32 - 12));
    prop_oneof![
        scaled.clone(),
        scaled,
        (0usize..SPECIAL.len()).prop_map(|k| SPECIAL[k]),
    ]
}

fn dense_lp() -> impl Strategy<Value = LpProblem> {
    (1usize..6, 1usize..6).prop_flat_map(|(m, n)| {
        (
            proptest::collection::vec(coefficient(), m * n),
            proptest::collection::vec(coefficient(), m),
            proptest::collection::vec(coefficient(), n),
        )
            .prop_map(move |(a, b, c)| {
                let a = Matrix::from_vec(m, n, a).expect("sized buffer");
                LpProblem::new(a, b, c).expect("finite entries")
            })
    })
}

/// Tokens `parse` is fed: the format's punctuation, numbers, names, and
/// characters whose lowercase changes byte length (U+212A → `k`, U+0130 →
/// `i̇`, U+1E9E → `ß`).
const ALPHABET: [&str; 26] = [
    "max:", "min:", "max", "MIN", "<=", ">=", ";", ":", "\\", "+", "-", "0", "1", "2.5", "e-", "e",
    "*", "x", "y", "é", " ", "\n", "c0:", "\u{212A}", "\u{130}", "\u{1E9E}",
];

/// Most cases open with an objective keyword so they reach the objective
/// splitter.
const OPENERS: [&str; 5] = ["max:", "min:", "MAX:", " min", ""];

fn token_soup() -> impl Strategy<Value = String> {
    (
        0usize..OPENERS.len(),
        proptest::collection::vec(0usize..ALPHABET.len(), 0..24),
    )
        .prop_map(|(open, tokens)| {
            let mut s = String::from(OPENERS[open]);
            for t in tokens {
                s.push_str(ALPHABET[t]);
            }
            s
        })
}

/// One written term: variable, magnitude, minus sign, spelling.
type Term = (usize, f64, bool, usize);

/// Magnitudes the terms are written with: integers, fractions, exponents
/// and one that rounds (0.1).
const MAGNITUDES: [f64; 7] = [1.0, 2.0, 0.5, 1e-3, 0.1, 250.0, 3.75e-7];

/// Variable names, none starting with a letter a number could absorb
/// (`e`, `E`) so the glued spellings stay unambiguous.
const NAMES: [&str; 5] = ["x", "y", "z1", "w_2", "q"];

/// Size of [`name_pool`].
const POOL: usize = 300;

/// Names that make the parser's name table grow and probe: 100 sharing a
/// 40-byte prefix, 100 in groups of 25 that differ only in their last
/// byte, and 100 short ones. None starts with `e`/`E` (see [`NAMES`]).
fn name_pool() -> Vec<String> {
    let shared = "shared_prefix_forty_bytes_long_abcdefgh";
    (0..100)
        .map(|k| format!("{shared}{k}"))
        .chain((0..100).map(|k| format!("tail{}_{}", k / 25, char::from(b'a' + (k % 25) as u8))))
        .chain((0..100).map(|k| format!("x{k}")))
        .collect()
}

/// A term over the first `names` names.
fn term(names: usize) -> impl Strategy<Value = Term> {
    (
        0usize..names,
        0usize..MAGNITUDES.len(),
        any::<bool>(),
        0usize..6,
    )
        .prop_map(|(v, k, neg, style)| (v, MAGNITUDES[k], neg, style))
}

/// A row's terms, with a cancelling copy of some terms appended so
/// entries that sum to exactly zero occur.
fn terms(names: usize, max_len: usize) -> impl Strategy<Value = Vec<Term>> {
    (
        proptest::collection::vec(term(names), 1..max_len),
        any::<bool>(),
    )
        .prop_map(|(mut ts, cancel)| {
            if cancel {
                let (v, mag, neg, style) = ts[0];
                ts.push((v, mag, !neg, (style + 1) % 6));
            }
            ts
        })
}

/// Writes the terms in their spellings.
fn write_terms(out: &mut String, terms: &[Term], names: &[&str]) {
    for (k, &(v, mag, neg, style)) in terms.iter().enumerate() {
        let name = names[v];
        out.push_str(match (k, neg) {
            (0, true) => " -",
            (0, false) => " ",
            (_, true) => " - ",
            (_, false) => " + ",
        });
        match style {
            0 => out.push_str(&format!("{mag} {name}")),
            1 => out.push_str(&format!("{mag}{name}")),
            2 => out.push_str(&format!("{mag:e}{name}")),
            3 => out.push_str(&format!("{mag:e} * {name}")),
            4 => out.push_str(&format!("{mag}*{name}")),
            // Unit coefficient written as a bare name.
            _ => out.push_str(name),
        }
    }
}

fn coefficient_of(&(_, mag, neg, style): &Term) -> f64 {
    let mag = if style == 5 { 1.0 } else { mag };
    if neg {
        -mag
    } else {
        mag
    }
}

/// An LP as written: (maximize?, objective, rows of (terms, `>=`?, rhs)).
type Written = (bool, Vec<Term>, Vec<(Vec<Term>, bool, f64)>);

/// Up to 5 rows of up to 6 terms over [`NAMES`].
fn written_lp() -> impl Strategy<Value = Written> {
    (
        any::<bool>(),
        terms(NAMES.len(), 6),
        proptest::collection::vec((terms(NAMES.len(), 6), any::<bool>(), 0u32..19), 0..6),
    )
        .prop_map(|(max, obj, rows)| (max, obj, with_rhs(rows)))
}

/// An LP over [`name_pool`] whose objective names 65 to all 300 distinct
/// pool names (more than the name table's first 64 slots, so it grows
/// several times), term `k` with coefficient ±(k + 1) so a misnumbered
/// column changes `c`; up to 7 rows of up to 12 terms draw from the whole
/// pool.
fn wide_written_lp() -> impl Strategy<Value = Written> {
    (
        any::<bool>(),
        0usize..POOL,
        65usize..=POOL,
        proptest::collection::vec((terms(POOL, 12), any::<bool>(), 0u32..19), 0..8),
    )
        .prop_map(|(max, start, len, rows)| {
            // 7 is coprime to POOL, so the names are distinct.
            let obj = (0..len)
                .map(|k| ((start + 7 * k) % POOL, (k + 1) as f64, k % 3 == 0, k % 5))
                .collect();
            (max, obj, with_rhs(rows))
        })
}

fn with_rhs(rows: Vec<(Vec<Term>, bool, u32)>) -> Vec<(Vec<Term>, bool, f64)> {
    rows.into_iter()
        .map(|(ts, ge, rhs)| (ts, ge, (f64::from(rhs) - 9.0) * 0.5))
        .collect()
}

fn lp_text((max, obj, rows): &Written, names: &[&str]) -> String {
    let mut text = String::from(if *max { "max:" } else { "min:" });
    write_terms(&mut text, obj, names);
    text.push_str(";\n");
    for (i, (ts, ge, rhs)) in rows.iter().enumerate() {
        text.push_str(&format!("c{i}:"));
        write_terms(&mut text, ts, names);
        text.push_str(&format!(" {} {rhs};\n", if *ge { ">=" } else { "<=" }));
    }
    text
}

/// The reference: columns numbered by first appearance, every term added
/// into a zeroed dense cell (`>=` rows negated), then converted to CSR.
fn dense_reference((max, obj, rows): &Written) -> (SparseMatrix, Vec<f64>, Vec<f64>) {
    let mut order: Vec<usize> = Vec::new();
    let mut column = |v: usize| match order.iter().position(|&u| u == v) {
        Some(j) => j,
        None => {
            order.push(v);
            order.len() - 1
        }
    };
    let obj_cols: Vec<usize> = obj.iter().map(|t| column(t.0)).collect();
    let row_cols: Vec<Vec<usize>> = rows
        .iter()
        .map(|(ts, _, _)| ts.iter().map(|t| column(t.0)).collect())
        .collect();
    let n = order.len();
    let mut a = Matrix::zeros(rows.len(), n);
    let mut b = vec![0.0; rows.len()];
    for (i, (ts, ge, rhs)) in rows.iter().enumerate() {
        let sign = if *ge { -1.0 } else { 1.0 };
        for (t, &j) in ts.iter().zip(&row_cols[i]) {
            a[(i, j)] += sign * coefficient_of(t);
        }
        b[i] = sign * rhs;
    }
    let mut c = vec![0.0; n];
    let obj_sign = if *max { 1.0 } else { -1.0 };
    for (t, &j) in obj.iter().zip(&obj_cols) {
        c[j] += obj_sign * coefficient_of(t);
    }
    (SparseMatrix::from_dense(&a), b, c)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Parses the written LP and compares it, bit for bit, with
/// [`dense_reference`]: same first-appearance column numbering, same sums.
fn matches_dense_accumulation(lp: &Written, names: &[&str]) -> Result<(), TestCaseError> {
    let text = lp_text(lp, names);
    let parsed = parse(&text).expect("generated LP parses");
    let (a, b, c) = dense_reference(lp);
    let got = parsed.sparse_a();
    prop_assert_eq!(
        (got.rows(), got.cols()),
        (a.rows(), a.cols()),
        "text:\n{}",
        text
    );
    prop_assert_eq!(got.row_ptr(), a.row_ptr(), "text:\n{}", text);
    prop_assert_eq!(got.col_idx(), a.col_idx(), "text:\n{}", text);
    prop_assert_eq!(bits(got.values()), bits(a.values()), "text:\n{}", text);
    prop_assert_eq!(bits(parsed.b()), bits(&b));
    prop_assert_eq!(bits(parsed.c()), bits(&c), "text:\n{}", text);
    prop_assert_eq!(bits(parsed.a().as_slice()), bits(a.to_dense().as_slice()));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn write_then_parse_round_trips_paper_lps(m in 2usize..16, seed in 0u64..1_000, infeasible in any::<bool>()) {
        let gen = RandomLp::paper(m, seed);
        let lp = if infeasible { gen.infeasible() } else { gen.feasible() };
        prop_assert_eq!(parse(&write(&lp)).expect("written LP parses"), lp);
    }

    #[test]
    fn write_then_parse_round_trips_dense_lps(lp in dense_lp()) {
        let text = write(&lp);
        let back = parse(&text).expect("written LP parses");
        prop_assert_eq!(back, lp, "text:\n{}", text);
    }

    #[test]
    fn parsed_csr_matches_dense_accumulation(lp in written_lp()) {
        matches_dense_accumulation(&lp, &NAMES)?;
    }

    #[test]
    fn parsed_csr_matches_dense_accumulation_over_many_names(lp in wide_written_lp()) {
        let pool = name_pool();
        let names: Vec<&str> = pool.iter().map(String::as_str).collect();
        matches_dense_accumulation(&lp, &names)?;
    }

    #[test]
    fn parse_never_panics_on_token_soup(text in token_soup()) {
        let outcome = catch_unwind(AssertUnwindSafe(|| parse(&text).is_ok()));
        prop_assert!(outcome.is_ok(), "parse panicked on {:?}", text);
    }
}

/// The writer as it was when it walked the dense rows of `A`.
fn write_from_dense_rows(lp: &LpProblem) -> String {
    fn num(v: f64) -> String {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    }
    fn expr(out: &mut String, coefs: &[f64], keep_zeros: bool) {
        let mut first = true;
        for (j, &v) in coefs.iter().enumerate() {
            if v == 0.0 && !keep_zeros {
                continue;
            }
            out.push_str(match (first, v < 0.0) {
                (true, true) => " -",
                (true, false) => " ",
                (false, true) => " - ",
                (false, false) => " + ",
            });
            first = false;
            if v.abs() != 1.0 {
                let _ = write!(out, "{} ", num(v.abs()));
            }
            let _ = write!(out, "x{j}");
        }
        if first {
            out.push_str(" 0 x0");
        }
    }
    let mut out = String::from("max:");
    expr(&mut out, lp.c(), true);
    out.push_str(";\n");
    for i in 0..lp.num_constraints() {
        let _ = write!(out, "c{i}:");
        expr(&mut out, lp.a().row(i), false);
        let _ = writeln!(out, " <= {};", num(lp.b()[i]));
    }
    out
}

#[test]
fn writer_matches_the_dense_row_writer_on_domain_lps() {
    let lps = [
        transportation_lp(&TransportationProblem::random(4, 40, 3)),
        max_flow_lp(&MaxFlowNetwork::random_layered(4, 5, 3)),
        production_schedule_lp(&ProductionPlan::random(3, 12, 3)),
        assignment_lp(&AssignmentProblem::random(6, 3)),
    ];
    for lp in lps {
        let lp = lp.expect("domain LP builds");
        let text = write(&lp);
        assert_eq!(text, write_from_dense_rows(&lp));
        assert_eq!(parse(&text).expect("written LP parses"), lp);
    }
}

/// The parser as it was before the byte-level term scanner: statements
/// split on `;`, each term cut out at its break and split into tokens by
/// `char`. Only the name table differs: a `BTreeMap` numbering names by
/// first appearance, as the open-addressed table does.
mod reference {
    use std::borrow::Cow;
    use std::collections::BTreeMap;

    use memlp_linalg::SparseMatrix;
    use memlp_lp::{LpError, LpProblem};

    #[derive(Default)]
    struct Names<'a> {
        columns: BTreeMap<&'a str, usize>,
        len: usize,
    }

    impl<'a> Names<'a> {
        fn intern(&mut self, name: &'a str) -> usize {
            let next = self.columns.len();
            let column = *self.columns.entry(name).or_insert(next);
            self.len = self.columns.len();
            column
        }
    }

    pub fn parse(text: &str) -> Result<LpProblem, LpError> {
        let cleaned = strip_comments(text);
        let mut statements = cleaned.split(';').map(str::trim).filter(|s| !s.is_empty());
        let objective = statements
            .next()
            .ok_or_else(|| syntax("an objective statement", "empty input"))?;

        let mut vars = Names::default();

        // Objective.
        let (sense, obj_expr) = split_objective(objective)?;
        let mut c_terms: Vec<(usize, f64)> = Vec::new();
        for_each_term(obj_expr, |coef, name| {
            c_terms.push((vars.intern(name), coef));
        })?;

        // Constraints, as CSR triplets.
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        let mut b: Vec<f64> = Vec::new();
        for stmt in statements {
            // Optional "name:" prefix — but be careful not to eat "<=".
            let body = match stmt.find(':') {
                Some(pos) => &stmt[pos + 1..],
                None => stmt,
            };
            let (lhs, op, rhs) = split_relation(body)?;
            let rhs_val: f64 = rhs.trim().parse().map_err(|_| LpError::NonFinite {
                location: format!("right-hand side `{rhs}`"),
            })?;
            // Canonicalize: `expr >= r` becomes `−expr <= −r`.
            let sign = if op == "<=" { 1.0 } else { -1.0 };
            let row = b.len();
            for_each_term(lhs, |coef, name| {
                triplets.push((row, vars.intern(name), sign * coef));
            })?;
            b.push(sign * rhs_val);
        }

        let n = vars.len;
        if n == 0 {
            return Err(syntax("at least one variable", "none found"));
        }
        let a = SparseMatrix::from_triplets(b.len(), n, &triplets)?;
        let mut c = vec![0.0; n];
        let obj_sign = if sense == Sense::Max { 1.0 } else { -1.0 };
        for (j, v) in c_terms {
            c[j] += obj_sign * v;
        }
        LpProblem::from_sparse(a, b, c)
    }

    fn strip_comments(text: &str) -> Cow<'_, str> {
        if !text.contains(['\\', '\r']) {
            return Cow::Borrowed(text);
        }
        Cow::Owned(
            text.lines()
                .map(|l| l.split('\\').next().unwrap_or(""))
                .collect::<Vec<_>>()
                .join("\n"),
        )
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Sense {
        Max,
        Min,
    }

    fn split_objective(stmt: &str) -> Result<(Sense, &str), LpError> {
        // Match the keyword on the original text: lowercasing can change a
        // character's byte length, so offsets into a lowercased copy do not
        // index `stmt`.
        let trimmed = stmt.trim_start();
        let (sense, keyword) = match trimmed.get(..3) {
            Some(k) if k.eq_ignore_ascii_case("max") => (Sense::Max, "`max:`"),
            Some(k) if k.eq_ignore_ascii_case("min") => (Sense::Min, "`min:`"),
            _ => return Err(syntax("an objective starting with `max:` or `min:`", stmt)),
        };
        let rest = trimmed[3..]
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| syntax(keyword, stmt))?;
        Ok((sense, rest))
    }

    fn split_relation(body: &str) -> Result<(&str, &'static str, &str), LpError> {
        if let Some(pos) = body.find("<=") {
            Ok((&body[..pos], "<=", &body[pos + 2..]))
        } else if let Some(pos) = body.find(">=") {
            Ok((&body[..pos], ">=", &body[pos + 2..]))
        } else {
            Err(syntax("a `<=` or `>=` relation", body))
        }
    }

    /// Parses `[+-] [coef [*]] name …` and hands each term to `emit` as
    /// (coefficient, name), the name borrowed from `expr`.
    ///
    /// Terms start at every `+` or `-` after the first character, except the
    /// sign of an exponent (`1e-3`: the sign follows an `e`/`E` that follows
    /// a digit or `.`); U+001F also breaks a term.
    fn for_each_term<'a>(expr: &'a str, mut emit: impl FnMut(f64, &'a str)) -> Result<(), LpError> {
        let bytes = expr.as_bytes();
        let mut any = false;
        let mut start = 0;
        for (k, &ch) in bytes.iter().enumerate() {
            let breaks = match ch {
                b'+' | b'-' => {
                    k > 0
                        && !(k >= 2
                            && matches!(bytes[k - 1], b'e' | b'E')
                            && (bytes[k - 2].is_ascii_digit() || bytes[k - 2] == b'.'))
                }
                0x1f => true,
                _ => false,
            };
            if breaks {
                any |= parse_term(&expr[start..k], &mut emit)?;
                // The separator byte itself is dropped; a sign opens the next
                // term.
                start = if ch == 0x1f { k + 1 } else { k };
            }
        }
        any |= parse_term(&expr[start..], &mut emit)?;
        if !any {
            return Err(syntax("at least one term", expr));
        }
        Ok(())
    }

    /// Parses one signed term; blank text is no term (`Ok(false)`).
    fn parse_term<'a>(raw: &'a str, emit: &mut impl FnMut(f64, &'a str)) -> Result<bool, LpError> {
        let term = raw.trim();
        if term.is_empty() {
            return Ok(false);
        }
        let (sign, rest) = match term.strip_prefix('-') {
            Some(r) => (-1.0, r.trim_start()),
            None => (1.0, term.strip_prefix('+').unwrap_or(term).trim_start()),
        };
        if rest.is_empty() {
            return Err(syntax("a term after the sign", term));
        }
        // Split into leading number and variable name; `*` separates like
        // whitespace.
        let mut parts = rest
            .split(|c: char| c.is_whitespace() || c == '*')
            .filter(|p| !p.is_empty());
        let first = parts.next().ok_or_else(|| syntax("a term", term))?;
        let (coef, name) = if first
            .chars()
            .next()
            .map(|c| c.is_ascii_digit() || c == '.')
            .unwrap_or(false)
        {
            // Either `2 x` (separate tokens) or the glued form `2x`. For
            // the glued form take the longest numeric prefix (so exponents
            // like `1e-3` are not split at the `e`).
            if let Ok(coef) = first.parse::<f64>() {
                let name = parts
                    .next()
                    .ok_or_else(|| syntax("a variable after the coefficient", term))?;
                (coef, name)
            } else {
                let (split_at, coef) = (1..first.len())
                    .rev()
                    .filter(|&k| first.is_char_boundary(k))
                    .find_map(|k| first[..k].parse::<f64>().ok().map(|coef| (k, coef)))
                    .ok_or_else(|| LpError::NonFinite {
                        location: format!("coefficient `{first}`"),
                    })?;
                if parts.next().is_some() {
                    return Err(syntax("a single `coef var` term", term));
                }
                (coef, &first[split_at..])
            }
        } else {
            (1.0, first)
        };
        if parts.next().is_some() {
            return Err(syntax("a single `coef var` term", term));
        }
        if !name
            .chars()
            .next()
            .map(char::is_alphabetic)
            .unwrap_or(false)
        {
            return Err(syntax("a variable name starting with a letter", name));
        }
        emit(sign * coef, name);
        Ok(true)
    }

    fn syntax(expected: &str, found: &str) -> LpError {
        LpError::ShapeMismatch {
            expected: expected.into(),
            found: found.trim().into(),
        }
    }
}

/// Tokens for the differential test: the format's punctuation, numbers in
/// every spelling, names with non-ASCII letters, Unicode whitespace,
/// U+001F, line ends and comments.
const DIFF_ALPHABET: [&str; 46] = [
    "max:",
    "min:",
    "MAX:",
    "c0:",
    ":",
    ";",
    "<=",
    ">=",
    "+",
    "-",
    "*",
    " ",
    "\n",
    "\r\n",
    "\r",
    "\t",
    "\\ note; x\n",
    "\\",
    "\u{a0}",
    "\u{2003}",
    "\u{85}",
    "\u{1f}",
    "0",
    "2",
    "2x",
    "1e-3",
    "1e-3y",
    "2.5",
    ".5",
    "5.",
    "e",
    "E",
    "x",
    "y",
    "é",
    "zé",
    "Ωmega",
    "名",
    "\u{212A}",
    "\u{130}",
    "3*x",
    "1e999",
    "inf",
    "2e",
    "1E-3",
    "2E+2y",
];

/// Spellings of the gaps between tokens in a written LP.
const SPACES: [&str; 6] = [" ", "\u{a0}", "\u{2003}", "\t", "\u{85}", "  "];

/// Variable names that start with a non-ASCII letter or hold one.
const UNICODE_NAMES: [&str; 5] = ["é", "zé", "Ωmega", "名x", "\u{212A}k"];

fn diff_soup() -> impl Strategy<Value = String> {
    (
        0usize..OPENERS.len(),
        proptest::collection::vec(0usize..DIFF_ALPHABET.len(), 0..40),
    )
        .prop_map(|(open, tokens)| {
            let mut s = String::from(OPENERS[open]);
            for t in tokens {
                s.push_str(DIFF_ALPHABET[t]);
            }
            s
        })
}

/// A written LP, its gaps respelled, with up to three alphabet tokens
/// inserted at character boundaries.
fn spliced_lp() -> impl Strategy<Value = String> {
    (
        written_lp(),
        0usize..SPACES.len(),
        any::<bool>(),
        proptest::collection::vec((0usize..4096, 0usize..DIFF_ALPHABET.len()), 0..4),
    )
        .prop_map(|(lp, space, unicode, inserts)| {
            let names: &[&str] = if unicode { &UNICODE_NAMES } else { &NAMES };
            let mut text = lp_text(&lp, names).replace(' ', SPACES[space]);
            for (at, token) in inserts {
                let mut pos = at % (text.len() + 1);
                while !text.is_char_boundary(pos) {
                    pos -= 1;
                }
                text.insert_str(pos, DIFF_ALPHABET[token]);
            }
            text
        })
}

/// `parse` against the oracle: both `Ok` with the same bits, or both
/// `Err` with the same error.
fn agrees_with_reference(text: &str) -> Result<(), TestCaseError> {
    match (parse(text), reference::parse(text)) {
        (Ok(got), Ok(want)) => {
            let (g, w) = (got.sparse_a(), want.sparse_a());
            prop_assert_eq!((g.rows(), g.cols()), (w.rows(), w.cols()), "{:?}", text);
            prop_assert_eq!(g.row_ptr(), w.row_ptr(), "{:?}", text);
            prop_assert_eq!(g.col_idx(), w.col_idx(), "{:?}", text);
            prop_assert_eq!(bits(g.values()), bits(w.values()), "{:?}", text);
            prop_assert_eq!(bits(got.b()), bits(want.b()), "{:?}", text);
            prop_assert_eq!(bits(got.c()), bits(want.c()), "{:?}", text);
        }
        (Err(got), Err(want)) => prop_assert_eq!(got, want, "{:?}", text),
        (got, want) => prop_assert!(
            false,
            "parse {:?}, reference {:?} on {:?}",
            got.map(|_| ()),
            want.map(|_| ()),
            text
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_matches_the_reference_on_token_soup(text in diff_soup()) {
        agrees_with_reference(&text)?;
    }

    #[test]
    fn parse_matches_the_reference_on_spliced_lps(text in spliced_lp()) {
        agrees_with_reference(&text)?;
    }

    #[test]
    fn parse_matches_the_reference_on_the_old_soup(text in token_soup()) {
        agrees_with_reference(&text)?;
    }
}

#[test]
fn parse_matches_the_reference_on_chosen_cases() {
    let cases = [
        "max: 2x + 1e-3y - 3 * z;\r\nc0: x + y <= 4; \\ comment; here\n c1: 2x >= -1e-3;",
        "max: \u{a0}x\u{2003}+\u{2003}2\u{a0}y; c: x\u{85}<= 1;",
        "min: 名 + é; c: 2名 - 3é >= 1;",
        "max: x\u{1f}y; c: x\u{1f}-y <= 2;",
        "max: 2e; c: 2e-x <= 1;",
        "max: 2E-3x + 1E+2 y - 3.E-1z; c: .5E+1 x >= 2E-1;",
        "max: 1.5.3x;",
        "max: - ; c: x <= 1;",
        "max: - * ;",
        "max: 2 x y;",
        "max: 2x y;",
        "max: x y;",
        "max: 2;",
        "max: x; c: x <= banana;",
        "max: x; c: x + 1;",
        "max: 3 4x;",
        "max: 1e999x; c: x <= 1;",
        "max: x; c: 1e999 x <= 1;",
        "",
        "c: x <= 1;",
        "max x;",
        "max: \u{130}x; c0: \u{130}x <= 1;",
    ];
    for text in cases {
        if let Err(e) = agrees_with_reference(text) {
            panic!("{text:?}: {e:?}");
        }
    }
}
