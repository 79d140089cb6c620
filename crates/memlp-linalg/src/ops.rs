//! Vector kernels on plain `&[f64]` slices.
//!
//! These are the hot inner loops of the workspace; they are written so the
//! compiler can auto-vectorize them (no bounds checks in the loop bodies,
//! unrolled accumulators for `dot`).

/// Dot product `x · y`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(
        x.len(),
        y.len(),
        "dot: length mismatch {} vs {}",
        x.len(),
        y.len()
    );
    // Four independent accumulators break the FP dependency chain and let
    // LLVM vectorize despite float non-associativity.
    let chunks = x.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for k in 0..chunks {
        let i = 4 * k;
        s0 += x[i] * y[i];
        s1 += x[i + 1] * y[i + 1];
        s2 += x[i + 2] * y[i + 2];
        s3 += x[i + 3] * y[i + 3];
    }
    let mut s = (s0 + s1) + (s2 + s3);
    for i in 4 * chunks..x.len() {
        s += x[i] * y[i];
    }
    s
}

/// `y ← y + a·x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(
        x.len(),
        y.len(),
        "axpy: length mismatch {} vs {}",
        x.len(),
        y.len()
    );
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `x ← s·x`.
#[inline]
pub fn scale(s: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= s;
    }
}

/// Elementwise difference `x - y` as a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(
        x.len(),
        y.len(),
        "sub: length mismatch {} vs {}",
        x.len(),
        y.len()
    );
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Elementwise sum `x + y` as a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(
        x.len(),
        y.len(),
        "add: length mismatch {} vs {}",
        x.len(),
        y.len()
    );
    x.iter().zip(y).map(|(a, b)| a + b).collect()
}

/// Infinity norm `max |x_i|` (0.0 for an empty slice; NaN entries are
/// skipped).
///
/// The maximum is kept by a compare-and-select in four independent
/// lanes, which vectorizes where an `f64::max` chain does not. Every
/// `|x_i|` is non-negative and a NaN never wins the `>`, so the result is
/// the same for any order the entries are taken in.
#[inline]
pub fn inf_norm(x: &[f64]) -> f64 {
    let keep = |m: f64, v: f64| {
        let a = v.abs();
        if a > m {
            a
        } else {
            m
        }
    };
    let x4 = x.chunks_exact(4);
    let tail = x4.remainder().iter().fold(0.0, |m, &v| keep(m, v));
    let mut lanes = [0.0; 4];
    for x in x4 {
        for (m, &v) in lanes.iter_mut().zip(x) {
            *m = keep(*m, v);
        }
    }
    lanes.into_iter().fold(tail, keep)
}

/// One norm `Σ |x_i|`.
#[inline]
pub fn one_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// Largest entry (not absolute; `-inf` for an empty slice).
#[inline]
pub fn max(x: &[f64]) -> f64 {
    x.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v))
}

/// Smallest entry (`+inf` for an empty slice).
#[inline]
pub fn min(x: &[f64]) -> f64 {
    x.iter().fold(f64::INFINITY, |m, &v| m.min(v))
}

/// Returns `true` if every entry is finite. Every entry is read, with no
/// early exit, so the scan vectorizes.
#[inline]
pub fn all_finite(x: &[f64]) -> bool {
    x.iter().fold(true, |all, v| all & v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f64> = (0..17).map(|i| i as f64 * 0.5).collect();
        let y: Vec<f64> = (0..17).map(|i| (17 - i) as f64).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-9);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 2.0];
        axpy(2.0, &[10.0, 20.0], &mut y);
        assert_eq!(y, vec![21.0, 42.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![0.5, -1.0, 4.0];
        assert_eq!(sub(&add(&x, &y), &y), x);
    }

    #[test]
    fn inf_norm_matches_the_max_fold_bitwise() {
        let pool = [
            0.0,
            -0.0,
            1.5,
            -7.25,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -3e300,
        ];
        for len in 0..14 {
            for seed in 0..pool.len() {
                let x: Vec<f64> = (0..len)
                    .map(|k| pool[(seed + 5 * k + k * k) % pool.len()])
                    .collect();
                let want = x.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
                assert_eq!(inf_norm(&x).to_bits(), want.to_bits(), "{x:?}");
            }
        }
    }

    #[test]
    fn norms_known_values() {
        let x = [3.0, -4.0];
        assert_eq!(inf_norm(&x), 4.0);
        assert_eq!(one_norm(&x), 7.0);
    }

    #[test]
    fn norms_empty() {
        assert_eq!(inf_norm(&[]), 0.0);
        assert_eq!(one_norm(&[]), 0.0);
    }

    #[test]
    fn max_min_values() {
        let x = [2.0, -5.0, 3.0];
        assert_eq!(max(&x), 3.0);
        assert_eq!(min(&x), -5.0);
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        assert!(all_finite(&[1.0, -2.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }
}
