//! Property tests for the `.lp` text format.
//!
//! 1. **Round trip.** `parse(&write(lp))` is equal by value to `lp` (so a
//!    stored `-0.0` reads back as `0.0`), for paper-style random LPs and
//!    for small dense LPs whose entries mix signs, fractions, exponents,
//!    exact zeros and values one rounding step away from 1.
//! 2. **Never panics.** `parse` returns `Ok` or `Err` on strings built from
//!    a token alphabet of the format's punctuation plus multi-byte
//!    characters whose lowercase has a different byte length.

use std::panic::{catch_unwind, AssertUnwindSafe};

use memlp_linalg::Matrix;
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
    fn parse_never_panics_on_token_soup(text in token_soup()) {
        let outcome = catch_unwind(AssertUnwindSafe(|| parse(&text).is_ok()));
        prop_assert!(outcome.is_ok(), "parse panicked on {:?}", text);
    }
}
