use crate::error::{dim_mismatch, LinalgError};
use crate::kernels::{self, TILE_CUTOFF_FLOPS};
use crate::matrix::Matrix;
use crate::parallel::{self, Threads};

/// Block size for the right-looking blocked factorization. 48 keeps the
/// panel plus a stripe of the trailing matrix inside L1/L2 for the matrix
/// sizes this workspace sees (up to a few thousand).
const BLOCK: usize = 48;

/// An LU decomposition with partial pivoting: `P·A = L·U`.
///
/// This is the O(N³) direct method that the paper's complexity comparison
/// (§3.5) attributes to the software PDIP baseline, and it is also how the
/// simulator computes the settled state of an analog crossbar solve (the
/// hardware itself is O(1); the simulator is not).
///
/// # Example
///
/// ```
/// use memlp_linalg::{LuFactors, Matrix};
///
/// # fn main() -> Result<(), memlp_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let lu = LuFactors::factor(a.clone())?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// let r = a.matvec(&x);
/// assert!((r[0] - 3.0).abs() < 1e-12 && (r[1] - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactors {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: Matrix,
    /// Row permutation: step k swapped rows k and `piv[k]`.
    piv: Vec<usize>,
    /// Sign of the permutation (+1.0 or -1.0), for the determinant.
    perm_sign: f64,
}

impl LuFactors {
    /// Factors a square matrix in place (consumes it).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the matrix is not
    /// square, and [`LinalgError::Singular`] if a column has no usable
    /// pivot (exactly zero).
    pub fn factor(a: Matrix) -> Result<Self, LinalgError> {
        Self::factor_reusing(a, Vec::new())
    }

    /// [`Self::factor`] with a caller-recycled pivot buffer: solvers that
    /// factor repeatedly at a fixed size pass back the permutation vector
    /// from [`Self::into_parts`] so neither the `n²` matrix buffer nor the
    /// pivot allocation churns per iteration.
    ///
    /// # Errors
    ///
    /// Same as [`Self::factor`] (the buffer is dropped on error).
    pub fn factor_reusing(mut a: Matrix, mut piv: Vec<usize>) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(dim_mismatch(
                "square matrix",
                format!("{}x{}", a.rows(), a.cols()),
            ));
        }
        let n = a.rows();
        piv.clear();
        piv.reserve(n);
        let mut perm_sign = 1.0;

        let mut k = 0;
        while k < n {
            let nb = BLOCK.min(n - k);
            // Factor the panel a[k.., k..k+nb] with partial pivoting; row
            // swaps are applied across the full matrix.
            for j in k..k + nb {
                // Pivot search in column j, rows j..n.
                let mut p = j;
                let mut pmax = a[(j, j)].abs();
                for i in j + 1..n {
                    let v = a[(i, j)].abs();
                    if v > pmax {
                        pmax = v;
                        p = i;
                    }
                }
                if pmax == 0.0 {
                    return Err(LinalgError::Singular { column: j });
                }
                piv.push(p);
                if p != j {
                    a.swap_rows(p, j);
                    perm_sign = -perm_sign;
                }
                // Eliminate below the pivot within the panel columns only,
                // one contiguous row segment at a time.
                let inv_pivot = 1.0 / a[(j, j)];
                for i in j + 1..n {
                    let (pivot_row, row) = borrow_two_rows(&mut a, j, i);
                    let lij = row[j] * inv_pivot;
                    row[j] = lij;
                    if lij != 0.0 {
                        let u = &pivot_row[j + 1..k + nb];
                        for (x, &uc) in row[j + 1..k + nb].iter_mut().zip(u) {
                            *x -= lij * uc;
                        }
                    }
                }
            }

            let rest = k + nb;
            if rest < n {
                // U12 ← L11⁻¹ · A12 (unit-lower triangular solve, in place).
                for j in k..rest {
                    for i in k..j {
                        let lji = a[(j, i)];
                        if lji != 0.0 {
                            // row_j ← row_j − lji · row_i over columns rest..n
                            let (ri, rj) = borrow_two_rows(&mut a, i, j);
                            for c in rest..rj.len() {
                                rj[c] -= lji * ri[c];
                            }
                        }
                    }
                }
                // Trailing update A22 ← A22 − L21 · U12. U12 sits in the
                // panel rows above the trailing rows, so splitting the
                // matrix there reads it in place (`gemm_acc` packs it).
                // Each trailing row reads only its own L21 segment and
                // writes only its own tail, and every tail element
                // accumulates sequentially over the panel index, so the
                // update fans out across thread bands and register tiles
                // with bit-for-bit identical results. Each band packs its
                // (negated) L21 panel into the reusable scratch first —
                // IEEE negation is exact, so `A22 += (−L21)·U12` matches
                // the subtraction bit-for-bit — which both breaks the
                // aliasing between the L21 columns and the updated tail
                // and gives the tile kernel a contiguous operand.
                let width = n - rest;
                let flops = 2 * (n - rest) * nb * width;
                let tiled = flops >= TILE_CUTOFF_FLOPS;
                let threads = Threads::resolve().for_flops(flops);
                let cols = a.cols();
                let (panel_rows, tail_rows) = a.as_mut_slice().split_at_mut(rest * cols);
                let u12 = &panel_rows[k * cols + rest..];
                parallel::par_chunk_bands(threads, tail_rows, cols, |_, band| {
                    let rows = band.len() / cols;
                    kernels::with_pack_buffer(rows * nb, |l21| {
                        for (seg, row) in l21.chunks_exact_mut(nb).zip(band.chunks_exact(cols)) {
                            for (li, &v) in seg.iter_mut().zip(&row[k..rest]) {
                                *li = -v;
                            }
                        }
                        let tails = &mut band[rest..];
                        kernels::gemm_acc(tiled, tails, cols, l21, nb, u12, cols, rows, width, nb);
                    });
                });
            }
            k += nb;
        }

        Ok(LuFactors {
            lu: a,
            piv,
            perm_sign,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` using the precomputed factors.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(dim_mismatch(
                format!("vector of length {n}"),
                format!("length {}", b.len()),
            ));
        }
        let mut x = b.to_vec();
        // Apply the permutation.
        for (k, &p) in self.piv.iter().enumerate() {
            if p != k {
                x.swap(k, p);
            }
        }
        // Forward substitution L·y = P·b (unit lower).
        for i in 1..n {
            let row = self.lu.row(i);
            let s = crate::ops::dot(&row[..i], &x[..i]);
            x[i] -= s;
        }
        // Back substitution U·x = y.
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let s = crate::ops::dot(&row[i + 1..], &x[i + 1..]);
            x[i] = (x[i] - s) / row[i];
        }
        Ok(x)
    }

    /// Consumes the factorization and returns both reusable buffers — the
    /// packed LU matrix and the pivot vector — for
    /// [`Self::factor_reusing`].
    pub fn into_parts(self) -> (Matrix, Vec<usize>) {
        (self.lu, self.piv)
    }

    /// Determinant of the original matrix (product of U's diagonal times the
    /// permutation sign).
    pub fn det(&self) -> f64 {
        self.perm_sign * self.lu.diag().iter().product::<f64>()
    }
}

/// Borrows two distinct rows of a matrix mutably. Rows must differ.
fn borrow_two_rows(a: &mut Matrix, lo: usize, hi: usize) -> (&[f64], &mut [f64]) {
    debug_assert!(lo < hi);
    let cols = a.cols();
    let data = a.as_mut_slice();
    let (head, tail) = data.split_at_mut(hi * cols);
    (&head[lo * cols..(lo + 1) * cols], &mut tail[..cols])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() <= tol, "{x} vs {y} (tol {tol})");
        }
    }

    #[test]
    fn rejects_non_square() {
        assert!(LuFactors::factor(Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        let err = LuFactors::factor(a).unwrap_err();
        assert!(matches!(err, LinalgError::Singular { .. }));
    }

    #[test]
    fn solves_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let lu = LuFactors::factor(a).unwrap();
        let x = lu.solve(&[3.0, 5.0]).unwrap();
        assert_close(&x, &[0.8, 1.4], 1e-12);
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let lu = LuFactors::factor(Matrix::identity(3)).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn det_of_identity_is_one() {
        let lu = LuFactors::factor(Matrix::identity(5)).unwrap();
        assert!((lu.det() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn det_known_value() {
        // det [[1,2],[3,4]] = -2, requires a pivot swap.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let lu = LuFactors::factor(a).unwrap();
        assert!((lu.det() + 2.0).abs() < 1e-12);
    }

    #[test]
    fn random_large_roundtrip_crosses_block_boundary() {
        // n > BLOCK so the blocked path (panel + trailing update) is used.
        let n = BLOCK * 2 + 7;
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut rnd = move || {
            // xorshift64* — deterministic, no rand dependency in this crate.
            seed ^= seed >> 12;
            seed ^= seed << 25;
            seed ^= seed >> 27;
            (seed.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let a = Matrix::from_fn(n, n, |i, j| rnd() + if i == j { 4.0 } else { 0.0 });
        let xtrue: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.matvec(&xtrue);
        let x = LuFactors::factor(a).unwrap().solve(&b).unwrap();
        assert_close(&x, &xtrue, 1e-8);
    }
}
