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
