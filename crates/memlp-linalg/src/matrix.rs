use std::fmt;
use std::ops::{Index, IndexMut};

use crate::error::{dim_mismatch, LinalgError};
use crate::kernels::{self, TILE_CUTOFF_FLOPS};
use crate::parallel::{self, Threads};

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the workhorse of the workspace: crossbar conductance maps,
/// Newton systems, and LP constraint matrices are all `Matrix` values. It
/// favours explicit, allocation-transparent operations over operator
/// overloading; the only overloaded operators are indexing (`m[(i, j)]`).
///
/// # Example
///
/// ```
/// use memlp_linalg::Matrix;
///
/// let mut m = Matrix::zeros(2, 3);
/// m[(0, 1)] = 5.0;
/// assert_eq!(m.transpose()[(1, 0)], 5.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Default for Matrix {
    /// The empty `0 × 0` matrix (a placeholder, e.g. for reusable buffers).
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(i, j)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the rows have unequal
    /// lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let r = rows.len();
        if r == 0 {
            return Err(dim_mismatch("at least one row", "0 rows"));
        }
        let c = rows[0].len();
        let mut data = Vec::with_capacity(r * c);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != c {
                return Err(dim_mismatch(
                    format!("row of length {c}"),
                    format!("row {i} of length {}", row.len()),
                ));
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Wraps an existing row-major buffer as a matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(dim_mismatch(
                format!("{} elements for {rows}x{cols}", rows * cols),
                format!("{} elements", data.len()),
            ));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the underlying row-major buffer mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns row `i` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns the main diagonal as a vector.
    pub fn diag(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.data[i * self.cols + i]).collect()
    }

    /// Swaps rows `a` and `b` in place.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// Computes the matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            self.cols,
            "matvec: vector length {} != cols {}",
            x.len(),
            self.cols
        );
        let mut y = vec![0.0; self.rows];
        // Row-disjoint: each output element is one fixed-order dot product,
        // so banding the output across threads — and register-tiling rows
        // inside each band — is bit-for-bit identical to serial.
        let flops = 2 * self.rows * self.cols;
        let tiled = flops >= TILE_CUTOFF_FLOPS;
        let threads = Threads::resolve().for_flops(flops);
        parallel::par_bands(threads, &mut y, |start, band| {
            kernels::matvec_rows(tiled, &self.data[start * self.cols..], self.cols, x, band);
        });
        y
    }

    /// Computes `Aᵀ·x` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_transposed(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            self.rows,
            "matvec_transposed: vector length {} != rows {}",
            x.len(),
            self.rows
        );
        let mut y = vec![0.0; self.cols];
        // Column bands: each worker owns a contiguous slice of y and walks
        // all rows in the same order as the serial loop, so the per-element
        // accumulation order (and thus the rounding) is unchanged.
        let threads = Threads::resolve().for_flops(2 * self.rows * self.cols);
        parallel::par_bands(threads, &mut y, |start, band| {
            for (i, &xi) in x.iter().enumerate() {
                if xi == 0.0 {
                    continue;
                }
                let row = &self.row(i)[start..start + band.len()];
                for (yj, &aij) in band.iter_mut().zip(row) {
                    *yj += aij * xi;
                }
            }
        });
        y
    }

    /// Computes the matrix product `A·B`.
    ///
    /// Uses a cache-friendly i-k-j loop order; adequate for the workspace's
    /// medium-sized dense blocks.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != b.rows()`.
    pub fn matmul(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let mut c = Matrix::default();
        self.matmul_into(b, &mut c)?;
        Ok(c)
    }

    /// [`Self::matmul`] into a caller-owned buffer: `c` is overwritten with
    /// `A·B`, reallocating only when its shape differs, so a loop that
    /// multiplies at a fixed shape reuses one allocation. The result is
    /// bit-for-bit the product `matmul` returns.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != b.rows()`
    /// (`c` is left untouched).
    pub fn matmul_into(&self, b: &Matrix, c: &mut Matrix) -> Result<(), LinalgError> {
        if self.cols != b.rows {
            return Err(dim_mismatch(
                format!("{}x{} · {}xK", self.rows, self.cols, self.cols),
                format!("{}x{} · {}x{}", self.rows, self.cols, b.rows, b.cols),
            ));
        }
        if c.rows != self.rows || c.cols != b.cols {
            *c = Matrix::zeros(self.rows, b.cols);
        } else {
            c.data.fill(0.0);
        }
        if c.data.is_empty() {
            return Ok(());
        }
        // Each C element accumulates sequentially over k regardless of the
        // band partition or register tiling, so threading and tiling
        // are both bitwise-invariant (see `kernels`).
        let flops = 2 * self.rows * self.cols * b.cols;
        let tiled = flops >= TILE_CUTOFF_FLOPS;
        let threads = Threads::resolve().for_flops(flops);
        parallel::par_chunk_bands(threads, &mut c.data, b.cols, |first_row, band| {
            let rows = band.len() / b.cols;
            kernels::gemm_acc(
                tiled,
                band,
                b.cols,
                &self.data[first_row * self.cols..],
                self.cols,
                &b.data,
                b.cols,
                rows,
                b.cols,
                self.cols,
            );
        });
        Ok(())
    }

    /// Computes the scaled Gram (normal) matrix `N = A·diag(d)·Aᵀ` — the
    /// Schur-complement core the software PDIP baselines form every
    /// iteration, and their dominant O(m²·n) cost.
    ///
    /// The upper triangle is computed per output row (rows are disjoint, so
    /// they fan out across threads with unchanged per-entry summation
    /// order) and mirrored into the lower triangle serially; results are
    /// bit-for-bit identical at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != self.cols()`.
    pub fn scaled_gram(&self, d: &[f64]) -> Matrix {
        assert_eq!(
            d.len(),
            self.cols,
            "scaled_gram: diagonal length {} != cols {}",
            d.len(),
            self.cols
        );
        let m = self.rows;
        let n = self.cols;
        let mut out = Matrix::zeros(m, m);
        if m == 0 {
            return out;
        }
        // Row i packs its d-scaled copy `aᵢ ∘ d` once into the reusable
        // scratch (one multiply per column instead of one per output
        // element), then the upper-triangle entries are fixed-order dots
        // against rows k ≥ i — register-tiled like matvec. Per-element
        // bits depend only on the packed values, never on the tiling.
        let flops = m * m * n + m * n;
        let tiled = flops >= TILE_CUTOFF_FLOPS;
        let threads = Threads::resolve().for_flops(flops);
        parallel::par_chunks(threads, &mut out.data, m, |i, orow| {
            kernels::with_pack_buffer(n, |scaled| {
                let ai = self.row(i);
                for ((s, &aij), &dj) in scaled.iter_mut().zip(ai).zip(d) {
                    *s = aij * dj;
                }
                kernels::matvec_rows(tiled, &self.data[i * n..], n, scaled, &mut orow[i..]);
            });
        });
        for i in 0..m {
            for k in 0..i {
                out.data[i * m + k] = out.data[k * m + i];
            }
        }
        out
    }

    /// Returns `self + other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Returns `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(other, |a, b| a - b)
    }

    fn zip_with(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Result<Matrix, LinalgError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(dim_mismatch(
                format!("{}x{}", self.rows, self.cols),
                format!("{}x{}", other.rows, other.cols),
            ));
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns a copy with every entry transformed by `f`.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Multiplies every entry by `s` in place.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns the largest absolute entry (0.0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &v| m.max(v.abs()))
    }

    /// Returns the smallest entry (`+inf` for an empty matrix).
    pub fn min(&self) -> f64 {
        self.data.iter().fold(f64::INFINITY, |m, &v| m.min(v))
    }

    /// Returns `true` if every entry is finite and non-negative — the
    /// condition for a matrix to be mappable onto a memristor crossbar.
    pub fn is_nonnegative(&self) -> bool {
        self.data.iter().all(|&v| v.is_finite() && v >= 0.0)
    }

    /// Copies `block` into `self` with its top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(
            r0 + block.rows <= self.rows && c0 + block.cols <= self.cols,
            "block {}x{} at ({r0},{c0}) does not fit in {}x{}",
            block.rows,
            block.cols,
            self.rows,
            self.cols
        );
        for i in 0..block.rows {
            let src = block.row(i);
            let dst =
                &mut self.data[(r0 + i) * self.cols + c0..(r0 + i) * self.cols + c0 + block.cols];
            dst.copy_from_slice(src);
        }
    }

    /// Writes `d` onto the diagonal of the square sub-block whose top-left
    /// corner is `(r0, c0)` (other entries of that block are untouched).
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn set_diag_block(&mut self, r0: usize, c0: usize, d: &[f64]) {
        assert!(
            r0 + d.len() <= self.rows && c0 + d.len() <= self.cols,
            "diagonal block of length {} at ({r0},{c0}) does not fit in {}x{}",
            d.len(),
            self.rows,
            self.cols
        );
        for (i, &v) in d.iter().enumerate() {
            self.data[(r0 + i) * self.cols + (c0 + i)] = v;
        }
    }

    /// Extracts the `nr × nc` sub-block whose top-left corner is `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Matrix {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "block {nr}x{nc} at ({r0},{c0}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        let mut b = Matrix::zeros(nr, nc);
        for i in 0..nr {
            let src = &self.data[(r0 + i) * self.cols + c0..(r0 + i) * self.cols + c0 + nc];
            b.row_mut(i).copy_from_slice(src);
        }
        b
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for j in 0..show_cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            if self.cols > show_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = Matrix::identity(3);
        assert!(i.is_square());
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 10 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.transpose(), m);
        assert_eq!(t[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn matvec_transposed_matches_explicit_transpose() {
        let m = Matrix::from_fn(4, 3, |i, j| (i + 2 * j) as f64 - 3.0);
        let x = [1.0, -2.0, 0.5, 3.0];
        let expect = m.transpose().matvec(&x);
        assert_eq!(m.matvec_transposed(&x), expect);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let p = m.matmul(&Matrix::identity(3)).unwrap();
        assert_eq!(p, m);
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_into_overwrites_and_reshapes_the_buffer() {
        let a = Matrix::from_fn(5, 3, |i, j| (i as f64) - 0.5 * j as f64);
        let b = Matrix::from_fn(3, 4, |i, j| 1.0 + (i * 4 + j) as f64);
        let want = a.matmul(&b).unwrap();
        // Same shape with stale contents: overwritten, not accumulated.
        let mut c = Matrix::from_fn(5, 4, |_, _| 7.0);
        a.matmul_into(&b, &mut c).unwrap();
        assert_eq!(c, want);
        // Wrong shape: reallocated.
        let mut c = Matrix::zeros(2, 2);
        a.matmul_into(&b, &mut c).unwrap();
        assert_eq!(c, want);
        // Mismatch: rejected, buffer untouched.
        assert!(b.matmul_into(&b, &mut c).is_err());
        assert_eq!(c, want);
    }

    #[test]
    fn add_and_sub() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 5.0]]).unwrap();
        assert_eq!(
            a.add(&b).unwrap(),
            Matrix::from_rows(&[&[4.0, 7.0]]).unwrap()
        );
        assert_eq!(
            b.sub(&a).unwrap(),
            Matrix::from_rows(&[&[2.0, 3.0]]).unwrap()
        );
        assert!(a.add(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn swap_rows_swaps() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        m.swap_rows(0, 2);
        assert_eq!(m.row(0), &[5.0, 6.0]);
        assert_eq!(m.row(2), &[1.0, 2.0]);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn block_get_set_roundtrip() {
        let mut big = Matrix::zeros(4, 4);
        let small = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        big.set_block(1, 2, &small);
        assert_eq!(big[(1, 2)], 1.0);
        assert_eq!(big[(2, 3)], 4.0);
        assert_eq!(big.block(1, 2, 2, 2), small);
    }

    #[test]
    fn set_diag_block_leaves_off_diagonal() {
        let mut m = Matrix::zeros(3, 3);
        m[(0, 1)] = 9.0;
        m.set_diag_block(0, 0, &[1.0, 2.0, 3.0]);
        assert_eq!(m.diag(), vec![1.0, 2.0, 3.0]);
        assert_eq!(m[(0, 1)], 9.0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn set_block_panics_out_of_bounds() {
        let mut big = Matrix::zeros(2, 2);
        big.set_block(1, 1, &Matrix::zeros(2, 2));
    }

    #[test]
    fn max_abs_and_min() {
        let m = Matrix::from_rows(&[&[-3.0, 2.0], &[1.0, -0.5]]).unwrap();
        assert_eq!(m.max_abs(), 3.0);
        assert_eq!(m.min(), -3.0);
    }

    #[test]
    fn is_nonnegative_detects_negatives() {
        assert!(Matrix::identity(3).is_nonnegative());
        let m = Matrix::from_rows(&[&[1.0, -0.001]]).unwrap();
        assert!(!m.is_nonnegative());
    }

    #[test]
    fn map_and_scale() {
        let mut m = Matrix::from_rows(&[&[1.0, -2.0]]).unwrap();
        assert_eq!(m.map(f64::abs).as_slice(), &[1.0, 2.0]);
        m.scale_mut(2.0);
        assert_eq!(m.as_slice(), &[2.0, -4.0]);
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Matrix::zeros(1, 1));
        assert!(s.contains("Matrix 1x1"));
    }

    #[test]
    fn scaled_gram_matches_explicit_product() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64 * 0.5 - 2.0);
        let d = [0.5, 2.0, 1.5, 0.25];
        let got = a.scaled_gram(&d);
        let ad = Matrix::from_fn(3, 4, |i, j| a[(i, j)] * d[j]);
        let want = ad.matmul(&a.transpose()).unwrap();
        assert_eq!(got.rows(), 3);
        for i in 0..3 {
            for k in 0..3 {
                assert!((got[(i, k)] - want[(i, k)]).abs() < 1e-12);
                assert_eq!(got[(i, k)], got[(k, i)]);
            }
        }
    }
}
