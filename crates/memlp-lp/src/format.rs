//! A plain-text LP format (a small CPLEX-LP-style dialect).
//!
//! Lets problems travel in and out of the workspace as human-readable
//! text. The dialect covers exactly the canonical form the solvers accept:
//!
//! ```text
//! \ anything after a backslash is a comment
//! max: 3 x1 + 2 x2;
//! c1: x1 + 2 x2 <= 4;
//! c2: 3 x1 + x2 <= 6;
//! c3: -x1 - x2 >= -10;     \ ≥ rows are canonicalized by negation
//! ```
//!
//! Variables are implicitly non-negative (`x ⪰ 0`), matching §3.1;
//! `min:` objectives are negated into max form.
//!
//! # Example
//!
//! ```
//! use memlp_lp::format;
//!
//! # fn main() -> Result<(), memlp_lp::LpError> {
//! let text = "max: x + y;\nc1: x + 2 y <= 4;\nc2: 3 x + y <= 6;\n";
//! let lp = format::parse(text)?;
//! assert_eq!(lp.num_vars(), 2);
//! let round_trip = format::parse(&format::write(&lp))?;
//! assert_eq!(round_trip, lp);
//! # Ok(())
//! # }
//! ```

use std::borrow::Cow;
use std::fmt::Write as _;

use memlp_linalg::SparseMatrix;

use crate::error::LpError;
use crate::problem::LpProblem;

/// Parses the LP text format into a canonical-form problem.
///
/// Variable order is the order of first appearance. The text is read in
/// one pass (text with `\` comments or CRLF line ends is first copied
/// without them). Names stay borrowed from it and are numbered through a
/// flat open-addressed table (fixed FNV-1a hash, linear probing), which is
/// only looked up, never iterated. The constraint terms become CSR
/// triplets, so the problem arrives with its dense view unbuilt
/// ([`LpProblem::from_sparse`]). Repeated terms of one variable in a row
/// are summed in the order written and a row entry that sums to zero is
/// dropped, so [`LpProblem::a`] holds what a dense `+=` of the terms would.
///
/// # Errors
///
/// Returns [`LpError::ShapeMismatch`] with a line/diagnostic description
/// for any syntax problem, and [`LpError::NonFinite`] for unparseable
/// numbers.
pub fn parse(text: &str) -> Result<LpProblem, LpError> {
    let cleaned = strip_comments(text);
    let mut statements = cleaned.split(';').map(str::trim).filter(|s| !s.is_empty());
    let objective = statements
        .next()
        .ok_or_else(|| syntax("an objective statement", "empty input"))?;

    let mut vars = NameTable::default();

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

/// Variable names to columns: an open-addressed table keyed by a fixed
/// FNV-1a hash with linear probing, names borrowed from the text. It is
/// only looked up, never iterated, so its layout cannot reach the parsed
/// problem.
#[derive(Default)]
struct NameTable<'a> {
    /// `(name, column)` per slot; the length is zero or a power of two.
    slots: Vec<Option<(&'a str, usize)>>,
    /// Distinct names so far, the next column.
    len: usize,
}

impl<'a> NameTable<'a> {
    /// Slots allocated by the first insertion.
    const INITIAL_SLOTS: usize = 64;

    /// The column of `name`: variables are numbered in order of first
    /// appearance.
    fn intern(&mut self, name: &'a str) -> usize {
        // Grow at a 1/2 load factor, so every probe run ends at an empty
        // slot.
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let i = self.slot_of(name);
        match self.slots[i] {
            Some((_, column)) => column,
            None => {
                self.slots[i] = Some((name, self.len));
                self.len += 1;
                self.len - 1
            }
        }
    }

    /// The slot holding `name`, else the empty slot that ends its probe
    /// run.
    fn slot_of(&self, name: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = fnv1a(name) & mask;
        while self.slots[i].is_some_and(|(key, _)| key != name) {
            i = (i + 1) & mask;
        }
        i
    }

    /// Doubles the slot count (or allocates the first slots) and reinserts
    /// every entry.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(Self::INITIAL_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![None; size]);
        for entry @ (key, _) in old.into_iter().flatten() {
            let i = self.slot_of(key);
            self.slots[i] = Some(entry);
        }
    }
}

/// 64-bit FNV-1a of `name`, truncated to `usize`.
fn fnv1a(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h as usize
}

/// The text with every `\` comment cut off at its line end and CRLF line
/// ends turned into LF (error messages quote statements from it). Text
/// with neither is borrowed as is.
fn strip_comments(text: &str) -> Cow<'_, str> {
    let bytes = text.as_bytes();
    if !(bytes.contains(&b'\\') || bytes.contains(&b'\r')) {
        return Cow::Borrowed(text);
    }
    Cow::Owned(
        text.lines()
            .map(|l| l.split('\\').next().unwrap_or(""))
            .collect::<Vec<_>>()
            .join("\n"),
    )
}

/// Writes a problem in the LP text format (variables named `x0…x{n−1}`).
///
/// The objective lists every variable, zero coefficients included: the
/// parser numbers variables by first appearance, so this pins `xj` to
/// column `j` and keeps all-zero columns. Constraint rows are read from
/// the CSR matrix, so writing never builds the dense view.
pub fn write(lp: &LpProblem) -> String {
    let mut out = String::new();
    out.push_str("max:");
    write_expr(&mut out, lp.c().iter().copied().enumerate());
    out.push_str(";\n");
    let a = lp.sparse_a();
    let (row_ptr, cols, vals) = (a.row_ptr(), a.col_idx(), a.values());
    for i in 0..lp.num_constraints() {
        let _ = write!(out, "c{i}:");
        let span = row_ptr[i]..row_ptr[i + 1];
        let terms = cols[span.clone()]
            .iter()
            .copied()
            .zip(vals[span].iter().copied());
        write_expr(&mut out, terms.filter(|&(_, v)| v != 0.0));
        let _ = writeln!(out, " <= {};", fmt_num(lp.b()[i]));
    }
    out
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
/// Terms start at every `+` or `-` after the first byte, except the sign
/// of an exponent (`1e-3`: the sign follows an `e`/`E` that follows a
/// digit or `.`); U+001F also breaks a term and is dropped. One pass over
/// the bytes finds the breaks and, inside each term, its tokens: the runs
/// of characters other than whitespace and `*`. Runs of plain ASCII bytes
/// are skipped in a tight loop; a non-ASCII character is decoded where it
/// starts, for [`char::is_whitespace`].
fn for_each_term<'a>(expr: &'a str, mut emit: impl FnMut(f64, &'a str)) -> Result<(), LpError> {
    let bytes = expr.as_bytes();
    let mut any = false;
    let mut term = Term::at(0);
    let mut k = 0;
    while k < bytes.len() {
        let byte = bytes[k];
        if PLAIN[usize::from(byte)] {
            term.word(k);
            k += 1;
            while k < bytes.len() && PLAIN[usize::from(bytes[k])] {
                k += 1;
            }
            continue;
        }
        let mut width = 1;
        match byte {
            b'+' | b'-' => {
                let exponent = k >= 2
                    && matches!(bytes[k - 1], b'e' | b'E')
                    && (bytes[k - 2].is_ascii_digit() || bytes[k - 2] == b'.');
                if k > 0 && !exponent {
                    any |= term.finish(expr, k, &mut emit)?;
                    term = Term::at(k);
                }
                // A sign opens its term; an exponent's sign is part of a
                // token.
                if k == term.start {
                    term.sign(byte);
                } else {
                    term.word(k);
                }
            }
            0x1f => {
                any |= term.finish(expr, k, &mut emit)?;
                term = Term::at(k + 1);
            }
            b'*' => term.star(k),
            // `char::is_whitespace` on ASCII: tab, LF, VT, FF, CR, space.
            b'\t'..=b'\r' | b' ' => term.close(k),
            _ => {
                let c = expr[k..].chars().next().unwrap_or_default();
                width = c.len_utf8();
                if c.is_whitespace() {
                    term.close(k);
                } else {
                    term.word(k);
                }
            }
        }
        k += width;
    }
    any |= term.finish(expr, bytes.len(), &mut emit)?;
    if !any {
        return Err(syntax("at least one term", expr));
    }
    Ok(())
}

/// ASCII bytes that neither break a term nor separate tokens: everything
/// but whitespace, `*`, `+`, `-` and U+001F. Non-ASCII bytes are not
/// plain either; their characters are decoded.
const PLAIN: [bool; 256] = {
    let mut plain = [false; 256];
    let mut b = 0;
    while b < 128 {
        plain[b] = !matches!(b as u8, b'\t'..=b'\r' | b' ' | b'*' | b'+' | b'-' | 0x1f);
        b += 1;
    }
    plain
};

/// One term of [`for_each_term`] as its characters arrive: where it
/// starts, its sign, and its tokens (a term has one or two; a third only
/// has to be counted to be refused).
struct Term {
    start: usize,
    /// `-1.0` or `1.0` when the term opens with `-` or `+`.
    sign: Option<f64>,
    /// No token character or `*` yet: with no sign either, the term is
    /// blank.
    empty: bool,
    /// Byte ranges of the first two tokens, the number of tokens closed,
    /// and the start of the open one.
    tokens: [(usize, usize); 2],
    count: usize,
    open: Option<usize>,
}

impl Term {
    fn at(start: usize) -> Self {
        Term {
            start,
            sign: None,
            empty: true,
            tokens: [(0, 0); 2],
            count: 0,
            open: None,
        }
    }

    /// The term's opening `+` or `-`.
    fn sign(&mut self, byte: u8) {
        self.sign = Some(if byte == b'-' { -1.0 } else { 1.0 });
    }

    /// A token character at `k`: opens a token unless one is open.
    fn word(&mut self, k: usize) {
        self.empty = false;
        if self.open.is_none() {
            self.open = Some(k);
        }
    }

    /// A `*` at `k`: separates tokens like whitespace, but is not blank.
    fn star(&mut self, k: usize) {
        self.empty = false;
        self.close(k);
    }

    /// Ends the open token, if any, at `k`.
    fn close(&mut self, k: usize) {
        if let Some(open) = self.open.take() {
            if let Some(span) = self.tokens.get_mut(self.count) {
                *span = (open, k);
            }
            self.count += 1;
        }
    }

    /// Parses the term, which ends at byte `end` of `expr`; blank text is
    /// no term (`Ok(false)`).
    fn finish<'a>(
        mut self,
        expr: &'a str,
        end: usize,
        emit: &mut impl FnMut(f64, &'a str),
    ) -> Result<bool, LpError> {
        if self.empty && self.sign.is_none() {
            return Ok(false);
        }
        self.close(end);
        let term = &expr[self.start..end];
        let sign = match self.sign {
            Some(_) if self.empty => return Err(syntax("a term after the sign", term)),
            Some(sign) => sign,
            None => 1.0,
        };
        let token = |t: usize| (t < self.count).then(|| &expr[self.tokens[t].0..self.tokens[t].1]);
        let first = token(0).ok_or_else(|| syntax("a term", term))?;
        // The coefficient and name, and how many tokens they took.
        let (coef, name, used) = if first.starts_with(|c: char| c.is_ascii_digit() || c == '.') {
            // Either `2 x` (separate tokens) or the glued form `2x`. For
            // the glued form take the longest numeric prefix (so exponents
            // like `1e-3` are not split at the `e`).
            if let Ok(coef) = first.parse::<f64>() {
                let name =
                    token(1).ok_or_else(|| syntax("a variable after the coefficient", term))?;
                (coef, name, 2)
            } else {
                let (split_at, coef) = (1..first.len())
                    .rev()
                    .filter(|&k| first.is_char_boundary(k))
                    .find_map(|k| first[..k].parse::<f64>().ok().map(|coef| (k, coef)))
                    .ok_or_else(|| LpError::NonFinite {
                        location: format!("coefficient `{first}`"),
                    })?;
                (coef, &first[split_at..], 1)
            }
        } else {
            (1.0, first, 1)
        };
        if self.count > used {
            return Err(syntax("a single `coef var` term", term));
        }
        if !name.starts_with(char::is_alphabetic) {
            return Err(syntax("a variable name starting with a letter", name));
        }
        emit(sign * coef, name);
        Ok(true)
    }
}

/// Writes `(column, coefficient)` terms as ` a x0 + b x1 …`, or
/// ` 0 x0` when there are none.
fn write_expr(out: &mut String, terms: impl Iterator<Item = (usize, f64)>) {
    let mut first = true;
    for (j, v) in terms {
        if first {
            if v < 0.0 {
                out.push_str(" -");
            } else {
                out.push(' ');
            }
            first = false;
        } else if v < 0.0 {
            out.push_str(" - ");
        } else {
            out.push_str(" + ");
        }
        let mag = v.abs();
        if mag != 1.0 {
            let _ = write!(out, "{} ", fmt_num(mag));
        }
        let _ = write!(out, "x{j}");
    }
    if first {
        out.push_str(" 0 x0");
    }
}

fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn syntax(expected: &str, found: &str) -> LpError {
    LpError::ShapeMismatch {
        expected: expected.into(),
        found: found.trim().into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_doc_example() {
        let lp = parse("max: x + y;\nc1: x + 2 y <= 4;\nc2: 3 x + y <= 6;").unwrap();
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 2);
        assert_eq!(lp.c(), &[1.0, 1.0]);
        assert_eq!(lp.b(), &[4.0, 6.0]);
        assert_eq!(lp.a()[(1, 0)], 3.0);
    }

    #[test]
    fn min_objective_is_negated() {
        let lp = parse("min: 2 x;\nc: x <= 1;").unwrap();
        assert_eq!(lp.c(), &[-2.0]);
    }

    #[test]
    fn ge_rows_are_canonicalized() {
        let lp = parse("max: x;\nc: x >= 3;").unwrap();
        assert_eq!(lp.a()[(0, 0)], -1.0);
        assert_eq!(lp.b(), &[-3.0]);
    }

    #[test]
    fn comments_and_whitespace_ignored() {
        let lp = parse("\\ header\nmax: x ; \\ obj\n c1 : 2x <= 4 ; \\ done\n").unwrap();
        assert_eq!(lp.num_constraints(), 1);
        assert_eq!(lp.a()[(0, 0)], 2.0);
        // U+0130 lowercases to three bytes; the objective keyword must
        // still be found in the original text.
        let lp = parse("min: \u{130}x; c0: \u{130}x <= 1;").unwrap();
        assert_eq!(lp.c(), &[-1.0]);
    }

    #[test]
    fn negative_and_fractional_coefficients() {
        let lp = parse("max: -0.5 x + 1.25 y;\nc: -x - 2.5 y <= -1;").unwrap();
        assert_eq!(lp.c(), &[-0.5, 1.25]);
        assert_eq!(lp.a()[(0, 1)], -2.5);
        assert_eq!(lp.b(), &[-1.0]);
    }

    #[test]
    fn scientific_notation_coefficients() {
        let lp = parse("max: 1e-3 x;\nc: 2E+2 x <= 1e1;").unwrap();
        assert!((lp.c()[0] - 1e-3).abs() < 1e-18);
        assert_eq!(lp.a()[(0, 0)], 200.0);
        assert_eq!(lp.b(), &[10.0]);
    }

    #[test]
    fn star_separator_allowed() {
        let lp = parse("max: 3*x;\nc: 2 * x <= 4;").unwrap();
        assert_eq!(lp.c(), &[3.0]);
        assert_eq!(lp.a()[(0, 0)], 2.0);
    }

    #[test]
    fn repeated_variables_accumulate() {
        let lp = parse("max: x + x;\nc: x + x <= 2;").unwrap();
        assert_eq!(lp.c(), &[2.0]);
        assert_eq!(lp.a()[(0, 0)], 2.0);
    }

    #[test]
    fn name_table_numbers_by_first_appearance_across_growth() {
        let names: Vec<String> = (0..500).map(|k| format!("v{}", k * 7919 % 500)).collect();
        let mut table = NameTable::default();
        for (k, name) in names.iter().enumerate() {
            assert_eq!(table.intern(name), k);
        }
        assert_eq!(table.len, names.len());
        assert_eq!(table.slots.len(), 1024);
        // Some name sits past its home slot, so lookups above walked a
        // probe run.
        let mask = table.slots.len() - 1;
        let displaced = table
            .slots
            .iter()
            .enumerate()
            .filter(|(i, slot)| slot.is_some_and(|(key, _)| fnv1a(key) & mask != *i))
            .count();
        assert!(displaced > 0);
        for (k, name) in names.iter().enumerate().rev() {
            assert_eq!(table.intern(name), k);
        }
        assert_eq!(table.len, names.len());
    }

    #[test]
    fn rejects_missing_objective() {
        assert!(parse("c: x <= 1;").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn rejects_missing_relation() {
        assert!(parse("max: x;\nc: x + 1;").is_err());
    }

    #[test]
    fn rejects_bad_rhs() {
        assert!(parse("max: x;\nc: x <= banana;").is_err());
    }

    #[test]
    fn rejects_numeric_variable_names() {
        assert!(parse("max: 2 3;\nc: x <= 1;").is_err());
    }

    #[test]
    fn write_parse_roundtrip() {
        let lp =
            parse("max: 3 x - 0.5 y + z;\nc0: x + y <= 4;\nc1: -2 x + 3 z <= -1;\nc2: y >= 1;")
                .unwrap();
        let text = write(&lp);
        let back = parse(&text).unwrap();
        assert_eq!(back, lp);
    }

    #[test]
    fn roundtrip_of_generated_problem() {
        use crate::generator::RandomLp;
        let lp = RandomLp::paper(12, 3).feasible();
        let back = parse(&write(&lp)).unwrap();
        assert_eq!(back.num_vars(), lp.num_vars());
        assert_eq!(back.num_constraints(), lp.num_constraints());
        for j in 0..lp.num_vars() {
            assert!((back.c()[j] - lp.c()[j]).abs() < 1e-12);
        }
        for i in 0..lp.num_constraints() {
            assert!((back.b()[i] - lp.b()[i]).abs() < 1e-12);
            for j in 0..lp.num_vars() {
                assert!((back.a()[(i, j)] - lp.a()[(i, j)]).abs() < 1e-12);
            }
        }
    }
}
