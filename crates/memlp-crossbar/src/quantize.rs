/// An ADC/DAC pair with per-vector dynamic-range scaling.
///
/// The paper stores all voltage inputs and outputs with 8-bit precision
/// (§4.1). A physical converter with a programmable reference digitizes a
/// vector relative to its own full-scale range, so the quantizer here
/// auto-ranges on the largest absolute entry of each vector (block
/// floating-point semantics): the quantization step is `max|v| / (2^(b-1) − 1)`.
///
/// # Example
///
/// ```
/// use memlp_crossbar::Quantizer;
///
/// let q = Quantizer::new(8);
/// let v = q.quantize_vec(&[1.0, -0.5, 0.003]);
/// assert!((v[0] - 1.0).abs() < 1e-12);         // full-scale is exact
/// assert!((v[1] + 0.5).abs() <= 1.0 / 254.0);  // inside one step
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantizer {
    bits: u32,
}

impl Quantizer {
    /// Creates a quantizer with the given resolution (1..=24 bits).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=24`.
    pub fn new(bits: u32) -> Self {
        assert!(
            (1..=24).contains(&bits),
            "quantizer resolution {bits} outside 1..=24 bits"
        );
        Quantizer { bits }
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of positive levels (`2^(bits-1) − 1`).
    pub fn levels(&self) -> f64 {
        ((1u32 << (self.bits - 1)) - 1) as f64
    }

    /// Quantizes one value against an explicit full-scale range — the
    /// scalar reference [`Quantizer::quantize_into`] reproduces bit for bit.
    pub fn quantize_against(&self, v: f64, full_scale: f64) -> f64 {
        if full_scale == 0.0 || !v.is_finite() {
            return 0.0;
        }
        let levels = self.levels();
        let code = (v / full_scale * levels).round().clamp(-levels, levels);
        code / levels * full_scale
    }

    /// Quantizes a vector, auto-ranging on its largest absolute entry.
    pub fn quantize_vec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; v.len()];
        self.quantize_into(v, &mut out);
        out
    }

    /// Quantizes a vector in place; returns the full-scale range used.
    pub fn quantize_in_place(&self, v: &mut [f64]) -> f64 {
        let (full_scale, levels) = (full_scale(v), self.levels());
        for x in v.iter_mut() {
            *x = convert(*x, full_scale, levels);
        }
        full_scale
    }

    /// The converter kernel: quantizes `v` into `out`, auto-ranging on the
    /// largest absolute entry of `v`; returns the full-scale range used.
    /// Bit-identical to [`Quantizer::quantize_against`] entry by entry, but
    /// free of the `round` call, so the loop vectorizes (DESIGN.md §14).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != v.len()`.
    pub fn quantize_into(&self, v: &[f64], out: &mut [f64]) -> f64 {
        self.quantize_capped_into(v, f64::INFINITY, out)
    }

    /// [`Quantizer::quantize_into`] with the auto-ranged full scale capped at
    /// `max_scale`: over-range entries saturate instead of stretching the
    /// grid. Returns the full-scale range used.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != v.len()`.
    pub fn quantize_capped_into(&self, v: &[f64], max_scale: f64, out: &mut [f64]) -> f64 {
        assert_eq!(out.len(), v.len(), "quantize_into: output length");
        let (full_scale, levels) = (full_scale(v).min(max_scale), self.levels());
        for (o, &x) in out.iter_mut().zip(v) {
            *o = convert(x, full_scale, levels);
        }
        full_scale
    }

    /// Worst-case absolute quantization error for a vector whose largest
    /// absolute entry is `full_scale` (half a step).
    pub fn max_error(&self, full_scale: f64) -> f64 {
        0.5 * full_scale / self.levels()
    }
}

/// `2^52`: adding and subtracting it rounds a value in `[0, 2^52)` to the
/// nearest integer, ties to even (the spacing of doubles in `[2^52, 2^53)`
/// is exactly 1).
const ROUND_MAGIC: f64 = 4_503_599_627_370_496.0;

/// Largest absolute entry of `v`, `0` for an empty or all-NaN `v`. Four
/// independent lanes: `max` is exact and order-free, so the lanes change
/// no bit of the result, only the length of the dependency chain.
fn full_scale(v: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut chunks = v.chunks_exact(4);
    for c in &mut chunks {
        for (l, x) in lanes.iter_mut().zip(c) {
            *l = l.max(x.abs());
        }
    }
    let tail = chunks
        .remainder()
        .iter()
        .fold(0.0f64, |m, x| m.max(x.abs()));
    lanes.iter().fold(tail, |m, &l| m.max(l))
}

/// One converter entry: [`Quantizer::quantize_against`] for a
/// `full_scale` that is not NaN, written without branches or a `round`
/// call. The code `y = x / fs · levels` is clamped to `levels` in
/// magnitude first, which commutes with rounding because `levels` is an
/// integer; `|y| ≤ levels < 2^52` then makes the [`ROUND_MAGIC`]
/// round-to-nearest-even exact, and one step up on an exact `.5` remainder
/// turns it into round-half-away-from-zero. `copysign` restores the sign
/// (and `−0` for a small negative entry), and a select maps a non-finite
/// entry or a zero full scale to `+0` as the reference does.
#[inline(always)]
fn convert(x: f64, full_scale: f64, levels: f64) -> f64 {
    let y = x / full_scale * levels;
    let a = y.abs().min(levels);
    let even = (a + ROUND_MAGIC) - ROUND_MAGIC;
    let n = even + if a - even == 0.5 { 1.0 } else { 0.0 };
    let q = n.copysign(y) / levels * full_scale;
    if full_scale != 0.0 && x.is_finite() {
        q
    } else {
        0.0
    }
}

/// Write-precision quantizer: the conductance **code map** that delta
/// programming compares against.
///
/// A program-and-verify write loop drives a cell until the read-back
/// conductance sits within a *relative* tolerance of the target — the pulse
/// train resolves the stored value to `bits` significant bits regardless of
/// where in the conductance window the target lies. The code is therefore
/// scale-free (the float's exponent plus a `bits`-wide mantissa), unlike the
/// [`Quantizer`]'s full-scale-relative ADC/DAC grid: codes stay comparable
/// across iterations even as the block's dynamic range drifts, and tiny
/// barrier-diagonal entries never collapse to code 0 (which would make the
/// realized Newton system structurally singular).
///
/// Two invariants delta programming relies on (tested below):
/// * **code assignment is monotone** in the target value, and
/// * **equal targets always produce equal codes**.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteQuantizer {
    bits: u32,
}

impl WriteQuantizer {
    /// Maximum resolution: a full f64 mantissa, i.e. writes are exact.
    pub const EXACT_BITS: u32 = 53;

    /// Creates a write quantizer resolving `bits` significant bits
    /// (1..=53; 53 reproduces the target exactly).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=53`.
    pub fn new(bits: u32) -> Self {
        assert!(
            (1..=Self::EXACT_BITS).contains(&bits),
            "write resolution {bits} outside 1..=53 bits"
        );
        WriteQuantizer { bits }
    }

    /// Resolution in significant bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Worst-case relative rounding error, `2^-bits` (half the relative
    /// spacing between adjacent codes). Verify bands must widen by this
    /// much or healthy quantized cells read as defects.
    pub fn rel_step(&self) -> f64 {
        2.0f64.powi(-(self.bits as i32))
    }

    /// The conductance code for a target value. Non-positive and non-finite
    /// targets map to code 0 (the erased cell); positive targets map to
    /// their f64 bit pattern rounded (half-up) to `bits` significant bits.
    /// Monotone over non-negative finite targets.
    ///
    /// Branch-free, so a block write does not mispredict on the random
    /// signs and zeros of its targets: the positive finite doubles are
    /// exactly the bit patterns `1..INF`, the half-up rounding constant is
    /// `0` at 53 bits (the code is the bit pattern itself), and a carry
    /// into the infinity pattern at the top of the range steps back to the
    /// largest finite code.
    #[inline]
    pub fn code(&self, v: f64) -> u64 {
        const INF: u64 = 0x7FF0_0000_0000_0000;
        let bits = v.to_bits();
        let drop = Self::EXACT_BITS - self.bits;
        let rounded = bits.wrapping_add((1u64 << drop) >> 1) >> drop;
        let code = rounded - u64::from(rounded << drop >= INF);
        if bits.wrapping_sub(1) < INF - 1 {
            code
        } else {
            0
        }
    }

    /// The stored value a code realizes (exact; codes round-trip, and code
    /// 0 is the bit pattern of `+0`).
    #[inline]
    pub fn decode(&self, code: u64) -> f64 {
        f64::from_bits(code << (Self::EXACT_BITS - self.bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_is_representable_exactly() {
        let q = Quantizer::new(8);
        let v = q.quantize_vec(&[-3.0, 1.0, 3.0]);
        assert_eq!(v[0], -3.0);
        assert_eq!(v[2], 3.0);
    }

    #[test]
    fn error_bounded_by_half_step() {
        let q = Quantizer::new(8);
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.7133).sin() * 2.5).collect();
        let quant = q.quantize_vec(&data);
        let full = data.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let bound = q.max_error(full) + 1e-15;
        for (a, b) in data.iter().zip(&quant) {
            assert!((a - b).abs() <= bound, "{a} -> {b}, bound {bound}");
        }
    }

    #[test]
    fn zero_vector_stays_zero() {
        let q = Quantizer::new(8);
        assert_eq!(q.quantize_vec(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn more_bits_less_error() {
        let lo = Quantizer::new(4);
        let hi = Quantizer::new(12);
        assert!(hi.max_error(1.0) < lo.max_error(1.0));
    }

    #[test]
    fn quantize_in_place_returns_range() {
        let q = Quantizer::new(8);
        let mut v = vec![0.5, -2.0];
        let fs = q.quantize_in_place(&mut v);
        assert_eq!(fs, 2.0);
        assert_eq!(v[1], -2.0);
    }

    #[test]
    fn non_finite_maps_to_zero() {
        let q = Quantizer::new(8);
        assert_eq!(q.quantize_against(f64::NAN, 1.0), 0.0);
        assert_eq!(q.quantize_against(f64::INFINITY, 1.0), 0.0);
    }

    #[test]
    fn clamps_beyond_full_scale() {
        let q = Quantizer::new(8);
        // Explicit range smaller than the value: saturates at full scale.
        assert_eq!(q.quantize_against(5.0, 1.0), 1.0);
        assert_eq!(q.quantize_against(-5.0, 1.0), -1.0);
    }

    #[test]
    #[should_panic(expected = "outside 1..=24")]
    fn rejects_zero_bits() {
        Quantizer::new(0);
    }

    #[test]
    fn quantization_is_idempotent() {
        let q = Quantizer::new(6);
        let v = q.quantize_vec(&[0.37, -0.91, 0.05]);
        let w = q.quantize_vec(&v);
        assert_eq!(v, w);
    }

    // ----- WriteQuantizer: the invariants delta programming relies on ------

    /// Deterministic pseudo-random positive samples across many decades,
    /// including values near the conductance-window edges.
    fn write_samples() -> Vec<f64> {
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut rnd = move || {
            seed ^= seed >> 12;
            seed ^= seed << 25;
            seed ^= seed >> 27;
            (seed.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut v: Vec<f64> = (0..500).map(|i| rnd() * 10.0f64.powi(i % 13 - 6)).collect();
        // Conductance-window boundaries: a typical g_off/g_on pair spans
        // ~1e-6..1e-3 S; include the edges and their nearest neighbours.
        for edge in [1e-6, 1e-3, 1.0, f64::MIN_POSITIVE, f64::MAX] {
            v.push(edge);
            v.push(edge * (1.0 + 1e-12));
            v.push(edge * (1.0 - 1e-12));
        }
        // f64::MAX * (1 + ε) overflows; codes are defined on finite targets.
        v.retain(|x| x.is_finite() && *x > 0.0);
        v
    }

    #[test]
    fn write_codes_are_monotone() {
        let wq = WriteQuantizer::new(8);
        let mut v = write_samples();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        for pair in v.windows(2) {
            assert!(
                wq.code(pair[0]) <= wq.code(pair[1]),
                "codes out of order for {} vs {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn equal_inputs_produce_equal_codes() {
        for bits in [1, 4, 8, 24, WriteQuantizer::EXACT_BITS] {
            let wq = WriteQuantizer::new(bits);
            for v in write_samples() {
                assert_eq!(wq.code(v), wq.code(v), "bits {bits}, v {v}");
                // A round-tripped value maps back to the same code, so
                // rewriting an unchanged coefficient is always a skip.
                assert_eq!(
                    wq.code(wq.decode(wq.code(v))),
                    wq.code(v),
                    "bits {bits}, v {v}"
                );
            }
        }
    }

    #[test]
    fn write_error_bounded_by_rel_step() {
        let wq = WriteQuantizer::new(8);
        for v in write_samples() {
            let q = wq.decode(wq.code(v));
            assert!(
                (q - v).abs() <= wq.rel_step() * v * (1.0 + 1e-12),
                "{v} -> {q} exceeds rel step {}",
                wq.rel_step()
            );
        }
    }

    #[test]
    fn write_quantizer_edge_values() {
        let wq = WriteQuantizer::new(8);
        assert_eq!(wq.code(0.0), 0);
        assert_eq!(wq.code(-1.0), 0);
        assert_eq!(wq.code(f64::NAN), 0);
        assert_eq!(wq.code(f64::INFINITY), 0);
        assert_eq!(wq.decode(0), 0.0);
        // The top of the range stays finite even though rounding up would
        // carry into the infinity exponent.
        assert!(wq.decode(wq.code(f64::MAX)).is_finite());
    }

    #[test]
    fn exact_bits_is_identity() {
        let wq = WriteQuantizer::new(WriteQuantizer::EXACT_BITS);
        for v in write_samples() {
            assert_eq!(wq.decode(wq.code(v)).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn more_write_bits_never_coarser() {
        let lo = WriteQuantizer::new(6);
        let hi = WriteQuantizer::new(12);
        for v in write_samples() {
            let err = |q: WriteQuantizer| (q.decode(q.code(v)) - v).abs();
            assert!(err(hi) <= err(lo) + 1e-300);
        }
        assert!(hi.rel_step() < lo.rel_step());
    }

    #[test]
    #[should_panic(expected = "outside 1..=53")]
    fn write_quantizer_rejects_zero_bits() {
        WriteQuantizer::new(0);
    }
}
