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

use std::collections::BTreeMap;
use std::fmt::Write as _;

use memlp_linalg::Matrix;

use crate::error::LpError;
use crate::problem::LpProblem;

/// Parses the LP text format into a canonical-form problem.
///
/// Variable order is the order of first appearance.
///
/// # Errors
///
/// Returns [`LpError::ShapeMismatch`] with a line/diagnostic description
/// for any syntax problem, and [`LpError::NonFinite`] for unparseable
/// numbers.
pub fn parse(text: &str) -> Result<LpProblem, LpError> {
    // Strip comments, join into statements separated by ';'.
    let cleaned: String = text
        .lines()
        .map(|l| l.split('\\').next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n");
    let statements: Vec<&str> = cleaned
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if statements.is_empty() {
        return Err(syntax("an objective statement", "empty input"));
    }

    let mut vars: Vec<String> = Vec::new();
    let mut var_index: BTreeMap<String, usize> = BTreeMap::new();
    let intern = |name: &str, vars: &mut Vec<String>, var_index: &mut BTreeMap<String, usize>| {
        if let Some(&i) = var_index.get(name) {
            i
        } else {
            let i = vars.len();
            vars.push(name.to_string());
            var_index.insert(name.to_string(), i);
            i
        }
    };

    // Objective.
    let (sense, obj_expr) = split_objective(statements[0])?;
    let obj_terms = parse_expr(obj_expr)?;
    let mut c_map: Vec<(usize, f64)> = Vec::new();
    for (coef, name) in &obj_terms {
        let i = intern(name, &mut vars, &mut var_index);
        c_map.push((i, *coef));
    }

    // Constraints.
    struct Row {
        terms: Vec<(usize, f64)>,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::new();
    for stmt in &statements[1..] {
        // Optional "name:" prefix — but be careful not to eat "<=".
        let body = match stmt.find(':') {
            Some(pos) => &stmt[pos + 1..],
            None => stmt,
        };
        let (lhs, op, rhs) = split_relation(body)?;
        let rhs_val: f64 = rhs.trim().parse().map_err(|_| LpError::NonFinite {
            location: format!("right-hand side `{rhs}`"),
        })?;
        let terms = parse_expr(lhs)?;
        // Canonicalize: `expr >= r` becomes `−expr <= −r`.
        let sign = if op == "<=" { 1.0 } else { -1.0 };
        let mut row = Vec::with_capacity(terms.len());
        for (coef, name) in &terms {
            let i = intern(name, &mut vars, &mut var_index);
            row.push((i, sign * coef));
        }
        rows.push(Row {
            terms: row,
            rhs: sign * rhs_val,
        });
    }

    let n = vars.len();
    if n == 0 {
        return Err(syntax("at least one variable", "none found"));
    }
    let m = rows.len();
    let mut a = Matrix::zeros(m, n);
    let mut b = vec![0.0; m];
    for (i, row) in rows.iter().enumerate() {
        for &(j, v) in &row.terms {
            a[(i, j)] += v;
        }
        b[i] = row.rhs;
    }
    let mut c = vec![0.0; n];
    let obj_sign = if sense == Sense::Max { 1.0 } else { -1.0 };
    for (j, v) in c_map {
        c[j] += obj_sign * v;
    }
    LpProblem::new(a, b, c)
}

/// Writes a problem in the LP text format (variables named `x0…x{n−1}`).
///
/// The objective lists every variable, zero coefficients included: the
/// parser numbers variables by first appearance, so this pins `xj` to
/// column `j` and keeps all-zero columns.
pub fn write(lp: &LpProblem) -> String {
    let mut out = String::new();
    out.push_str("max:");
    write_expr(&mut out, lp.c(), true);
    out.push_str(";\n");
    for i in 0..lp.num_constraints() {
        let _ = write!(out, "c{i}:");
        write_expr(&mut out, lp.a().row(i), false);
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

/// Parses `[+-] [coef [*]] name …` into (coefficient, name) terms.
fn parse_expr(expr: &str) -> Result<Vec<(f64, String)>, LpError> {
    let mut terms = Vec::new();
    // Insert separators before +/- so we can split into signed terms, but
    // keep exponents like `1e-3` intact.
    let mut normalized = String::with_capacity(expr.len() + 8);
    let chars: Vec<char> = expr.chars().collect();
    for (k, &ch) in chars.iter().enumerate() {
        if (ch == '+' || ch == '-') && k > 0 {
            let prev = chars[..k].iter().rev().find(|c| !c.is_whitespace());
            let is_exponent = matches!(prev, Some('e') | Some('E'))
                && chars[..k]
                    .iter()
                    .rev()
                    .nth(1)
                    .map(|c| c.is_ascii_digit() || *c == '.')
                    .unwrap_or(false);
            if !is_exponent {
                normalized.push('\u{1f}');
            }
        }
        normalized.push(ch);
    }
    for raw in normalized.split('\u{1f}') {
        let term = raw.trim();
        if term.is_empty() {
            continue;
        }
        let (sign, rest) = match term.strip_prefix('-') {
            Some(r) => (-1.0, r.trim_start()),
            None => (1.0, term.strip_prefix('+').unwrap_or(term).trim_start()),
        };
        if rest.is_empty() {
            return Err(syntax("a term after the sign", term));
        }
        // Split into leading number and variable name.
        let rest = rest.replace('*', " ");
        let mut parts = rest.split_whitespace();
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
                (coef, name.to_string())
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
                (coef, first[split_at..].to_string())
            }
        } else {
            (1.0, first.to_string())
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
            return Err(syntax("a variable name starting with a letter", &name));
        }
        terms.push((sign * coef, name));
    }
    if terms.is_empty() {
        return Err(syntax("at least one term", expr));
    }
    Ok(terms)
}

fn write_expr(out: &mut String, coefs: &[f64], keep_zeros: bool) {
    let mut first = true;
    for (j, &v) in coefs.iter().enumerate() {
        if v == 0.0 && !keep_zeros {
            continue;
        }
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
