//! Property-based tests for the crossbar simulator.

use memlp_crossbar::{Crossbar, CrossbarConfig, Quantizer, WriteQuantizer};
use memlp_linalg::Matrix;
use proptest::prelude::*;

fn nonneg_matrix(side: usize, seed: u64) -> Matrix {
    Matrix::from_fn(side, side, |i, j| {
        let h = (i as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(j as u64)
            .wrapping_mul(1442695040888963407)
            .wrapping_add(seed);
        0.05 + (h % 1000) as f64 / 1000.0 + if i == j { 2.0 } else { 0.0 }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Quantization never moves a value by more than half a step of its
    /// vector's full-scale range.
    #[test]
    fn quantizer_error_bound(bits in 2u32..16, values in proptest::collection::vec(-1e3f64..1e3, 1..64)) {
        let q = Quantizer::new(bits);
        let full = values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let out = q.quantize_vec(&values);
        for (a, b) in values.iter().zip(&out) {
            prop_assert!((a - b).abs() <= q.max_error(full) + 1e-12);
        }
    }

    /// Quantization is idempotent and order-preserving.
    #[test]
    fn quantizer_idempotent_monotone(bits in 2u32..12, mut values in proptest::collection::vec(-10.0f64..10.0, 2..32)) {
        let q = Quantizer::new(bits);
        let once = q.quantize_vec(&values);
        let twice = q.quantize_vec(&once);
        prop_assert_eq!(&once, &twice);
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let sorted_q = q.quantize_vec(&values);
        for w in sorted_q.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
    }

    /// Realized values stay inside the Eqn-18 variation band (widened by
    /// the 12-bit write-code rounding of `paper_default`), also when the
    /// matrix is smaller than the array.
    #[test]
    fn realized_within_variation_band(side in 2usize..12, spare in 0usize..4, var in 0.0f64..25.0, seed in 0u64..1000) {
        let a = nonneg_matrix(side, seed);
        let cfg = CrossbarConfig::paper_default().with_variation(var).with_seed(seed);
        let mut xb = Crossbar::new(side + spare, cfg).unwrap();
        xb.program(&a).unwrap();
        let r = xb.realized().unwrap();
        let frac = var / 100.0;
        let band = frac + (1.0 + frac) / 4096.0;
        for i in 0..side {
            for j in 0..side {
                let t = a[(i, j)];
                prop_assert!((r[(i, j)] - t).abs() <= band * t + 1e-12,
                    "cell ({}, {}): {} vs {} at {}%", i, j, r[(i, j)], t, var);
            }
        }
    }

    /// Solve then multiply returns the (quantized) right-hand side on
    /// ideal hardware.
    #[test]
    fn solve_mvm_roundtrip_ideal(side in 2usize..10, seed in 0u64..500) {
        let a = nonneg_matrix(side, seed);
        let mut xb = Crossbar::new(side, CrossbarConfig::ideal().with_seed(seed)).unwrap();
        xb.program(&a).unwrap();
        let b: Vec<f64> = (0..side).map(|i| 1.0 + (i % 3) as f64).collect();
        let x = xb.solve(&b).unwrap();
        let back = a.matvec(&x);
        for (g, w) in back.iter().zip(&b) {
            prop_assert!((g - w).abs() < 5e-3 * w.abs().max(1.0), "{} vs {}", g, w);
        }
    }

    /// Programming charges every cell; each updated cell is one pulse or,
    /// when delta programming finds its code unchanged (a repeated
    /// update), one skip — independent of values.
    #[test]
    fn ledger_write_accounting(side in 2usize..10, updates in 0usize..20, seed in 0u64..100) {
        let a = nonneg_matrix(side, seed);
        let mut xb = Crossbar::new(side, CrossbarConfig::paper_default().with_seed(seed)).unwrap();
        xb.program(&a).unwrap();
        let cells: Vec<(usize, usize, f64)> =
            (0..updates).map(|k| (k % side, (k * 7) % side, 0.5)).collect();
        xb.update_cells(&cells).unwrap();
        let c = xb.ledger().counts();
        prop_assert_eq!(c.setup_writes, (side * side) as u64);
        prop_assert_eq!(c.update_writes + c.skipped_writes, updates as u64);
    }
}

/// Full scales the converter kernel is checked at: subnormal, the normal
/// boundary, ordinary and huge.
const SCALES: [f64; 9] = [
    5e-324,
    1e-310,
    f64::MIN_POSITIVE,
    1e-6,
    1.0,
    3.7,
    1e6,
    1e300,
    f64::MAX,
];

/// Entries whose handling is a special case of the reference.
const SPECIALS: [f64; 9] = [
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e-320,
    -5e-324,
    f64::MAX,
    -f64::MAX,
];

/// The scalar converter loop the vector kernel replaced: auto-range (capped
/// at `cap`), then [`Quantizer::quantize_against`] entry by entry.
fn scalar_quantize(q: &Quantizer, v: &[f64], cap: f64) -> Vec<u64> {
    let fs = v.iter().fold(0.0f64, |m, x| m.max(x.abs())).min(cap);
    v.iter()
        .map(|&x| q.quantize_against(x, fs).to_bits())
        .collect()
}

fn bits_of(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The branchy `WriteQuantizer::code` body the branch-free one replaced.
fn reference_code(bits: u32, v: f64) -> u64 {
    if !v.is_finite() || v <= 0.0 {
        return 0;
    }
    let drop = WriteQuantizer::EXACT_BITS - bits;
    if drop == 0 {
        return v.to_bits();
    }
    let rounded = (v.to_bits() + (1u64 << (drop - 1))) >> drop;
    if f64::from_bits(rounded << drop).is_finite() {
        rounded
    } else {
        rounded - 1
    }
}

/// The branchy `WriteQuantizer::decode` body.
fn reference_decode(bits: u32, code: u64) -> f64 {
    if code == 0 {
        return 0.0;
    }
    f64::from_bits(code << (WriteQuantizer::EXACT_BITS - bits))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every auto-ranged and capped converter entry point reproduces the
    /// scalar `quantize_against` loop bit for bit: ordinary entries, exact
    /// ties `(k + ½)·fs/levels` of either sign, ±0, NaN, ±∞, subnormal and
    /// huge full scales, at every resolution.
    #[test]
    fn quantize_into_matches_the_scalar_reference(
        bits in 1u32..=24,
        scale in 0usize..SCALES.len(),
        mantissas in proptest::collection::vec(-1.0f64..1.0, 0..40),
        ties in proptest::collection::vec(0u64..(1 << 24), 0..12),
        specials in proptest::collection::vec(0usize..SPECIALS.len(), 0..3),
        cap in 0usize..4,
    ) {
        let q = Quantizer::new(bits);
        let (fs, levels) = (SCALES[scale], q.levels());
        let mut v = vec![fs];
        v.extend(mantissas.iter().map(|m| m * fs));
        v.extend(ties.iter().enumerate().map(|(i, &k)| {
            let tie = ((k % (levels as u64 + 1)) as f64 + 0.5) * fs / levels;
            if i % 2 == 0 { tie } else { -tie }
        }));
        v.extend(specials.iter().map(|&s| SPECIALS[s]));
        let cap = [f64::INFINITY, 0.5 * fs, f64::NAN, 0.0][cap];

        let mut out = vec![1.0; v.len()];
        q.quantize_capped_into(&v, cap, &mut out);
        prop_assert_eq!(bits_of(&out), scalar_quantize(&q, &v, cap));

        let want = scalar_quantize(&q, &v, f64::INFINITY);
        q.quantize_into(&v, &mut out);
        prop_assert_eq!(bits_of(&out), want.clone());
        prop_assert_eq!(bits_of(&q.quantize_vec(&v)), want.clone());
        let mut in_place = v.clone();
        q.quantize_in_place(&mut in_place);
        prop_assert_eq!(bits_of(&in_place), want);
    }

    /// The branch-free write code and decode reproduce the branchy bodies
    /// over arbitrary bit patterns (every sign, NaN and ∞ included) at
    /// every resolution.
    #[test]
    fn write_code_matches_the_branchy_reference(
        bits in 1u32..=53,
        halves in proptest::collection::vec((0u32..=u32::MAX, 0u32..=u32::MAX), 1..64),
    ) {
        let wq = WriteQuantizer::new(bits);
        for (hi, lo) in halves {
            let p = u64::from(hi) << 32 | u64::from(lo);
            let v = f64::from_bits(p);
            let code = wq.code(v);
            prop_assert_eq!(code, reference_code(bits, v), "bits {}, pattern {:#x}", bits, p);
            prop_assert_eq!(wq.decode(code).to_bits(), reference_decode(bits, code).to_bits());
        }
    }
}

/// Exact ties of the level grid round away from zero in the kernel as in
/// the reference, at every resolution.
#[test]
fn quantize_into_rounds_exact_ties_like_the_reference() {
    for bits in 1..=24 {
        let q = Quantizer::new(bits);
        let levels = q.levels();
        // A power-of-two full scale over `levels` keeps `(k + ½)·fs/levels`
        // an exact tie of the code whenever the division round-trips.
        for fs in [1.0, 0.5f64.powi(1060), 2.0f64.powi(1000)] {
            let mut v = vec![fs];
            for k in (0..=levels as u64).step_by((levels as usize / 64).max(1)) {
                let tie = (k as f64 + 0.5) * fs / levels;
                v.extend([tie, -tie]);
            }
            let mut out = vec![0.0; v.len()];
            q.quantize_into(&v, &mut out);
            assert_eq!(
                bits_of(&out),
                scalar_quantize(&q, &v, f64::INFINITY),
                "bits {bits}, fs {fs:e}"
            );
        }
    }
}

/// The top of the write-code range, where rounding would carry into the
/// infinity pattern, matches the reference at every resolution.
#[test]
fn write_code_matches_the_reference_at_the_top_of_the_range() {
    let top = f64::MAX.to_bits();
    for bits in 1..=WriteQuantizer::EXACT_BITS {
        let wq = WriteQuantizer::new(bits);
        let below = (0..64)
            .chain((0..53).map(|s| 1u64 << s))
            .map(|d| f64::from_bits(top - d));
        for v in below.chain([
            f64::MIN_POSITIVE,
            5e-324,
            1.0,
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
        ]) {
            assert_eq!(wq.code(v), reference_code(bits, v), "bits {bits}, v {v:e}");
            assert!(wq.decode(wq.code(v)).is_finite());
        }
    }
}
