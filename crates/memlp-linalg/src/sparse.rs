//! Compressed sparse row (CSR) matrices.
//!
//! §3.5 of the paper points out that LP constraint matrices are commonly
//! sparse, which lowers the O(N²) crossbar initialization cost to
//! O(nnz) — erased cells need no write pulses. The analog *solve* path
//! stays dense (the realized array is a dense physical object), but the
//! **digital** side — the simulator's block-elimination core and the
//! software reference/fallback solvers — runs on the kernels here: CSR
//! transpose, sparse×dense and sparse×sparse products, scaled Gram
//! products, and triangular solves. The fill-reducing sparse LU that
//! consumes them lives in [`crate::sparse_lu`].

use crate::error::{dim_mismatch, LinalgError};
use crate::matrix::Matrix;

/// A compressed-sparse-row matrix of `f64` values.
///
/// # Example
///
/// ```
/// use memlp_linalg::{Matrix, SparseMatrix};
///
/// # fn main() -> Result<(), memlp_linalg::LinalgError> {
/// let dense = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 0.0, 3.0]])?;
/// let sparse = SparseMatrix::from_dense(&dense);
/// assert_eq!(sparse.nnz(), 3);
/// assert_eq!(sparse.matvec(&[1.0, 1.0, 1.0]), vec![3.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// Row start offsets into `col_idx`/`values` (length rows + 1).
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Builds a CSR matrix from (row, col, value) triplets.
    ///
    /// **Duplicate-entry policy:** triplets naming the same `(row, col)`
    /// coordinate are **summed** (the finite-element/assembly convention),
    /// and entries whose final value is exactly `0.0` — including duplicates
    /// that cancel — are dropped from the stored pattern. Out-of-bounds
    /// coordinates are an error, never silently accepted.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if any coordinate is out
    /// of bounds for the `rows × cols` shape.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, LinalgError> {
        for &(i, j, _) in triplets {
            if i >= rows || j >= cols {
                return Err(dim_mismatch(
                    format!("coordinates within {rows}x{cols}"),
                    format!("({i}, {j})"),
                ));
            }
        }
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_by_key(|&(i, j, _)| (i, j));
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut cur_row = 0usize;
        for &(i, j, v) in &sorted {
            // Close every row before i (empty rows get zero-length spans).
            for r in cur_row..i {
                row_ptr[r + 1] = col_idx.len();
            }
            cur_row = i;
            // Merge a duplicate coordinate within the current row.
            let row_start = row_ptr[cur_row];
            match values.last_mut() {
                Some(last) if col_idx.len() > row_start && col_idx.last() == Some(&j) => {
                    *last += v;
                }
                _ => {
                    col_idx.push(j);
                    values.push(v);
                }
            }
        }
        for r in cur_row..rows {
            row_ptr[r + 1] = col_idx.len();
        }
        let mut m = SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        };
        m.prune_zeros();
        Ok(m)
    }

    /// Wraps CSR arrays the caller has already written in canonical form
    /// (ascending columns within each row, no duplicates).
    pub(crate) fn from_csr(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> SparseMatrix {
        debug_assert_eq!(row_ptr.len(), rows + 1);
        debug_assert_eq!(col_idx.len(), values.len());
        SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Converts from a dense matrix, keeping only non-zero entries.
    pub fn from_dense(dense: &Matrix) -> SparseMatrix {
        let rows = dense.rows();
        let cols = dense.cols();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for i in 0..rows {
            for (j, &v) in dense.row(i).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Materializes the dense equivalent.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                m[(i, self.col_idx[k])] = self.values[k];
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zero entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fill fraction `nnz / (rows·cols)` (0 for an empty matrix).
    pub fn density(&self) -> f64 {
        let cells = self.rows * self.cols;
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }

    /// Sparse matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// In-place [`matvec`](SparseMatrix::matvec): writes `A·x` into `y`
    /// without allocating. Results are bitwise identical to the allocating
    /// variant — iterative solvers hoist their product buffers through
    /// this.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(
            x.len(),
            self.cols,
            "matvec: length {} != cols {}",
            x.len(),
            self.cols
        );
        assert_eq!(
            y.len(),
            self.rows,
            "matvec: output length {} != rows {}",
            y.len(),
            self.rows
        );
        // Blocked over each row's nonzero span: the fixed 4-lane tree of
        // `kernels::spmv_row` (gathered loads, four independent chains).
        for (i, yi) in y.iter_mut().enumerate() {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            *yi = crate::kernels::spmv_row(&self.values[lo..hi], &self.col_idx[lo..hi], x);
        }
    }

    /// Sparse transposed product `Aᵀ·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_transposed(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.cols];
        self.matvec_transposed_into(x, &mut y);
        y
    }

    /// In-place [`matvec_transposed`](SparseMatrix::matvec_transposed):
    /// writes `Aᵀ·x` into `y` without allocating, bitwise identical to the
    /// allocating variant.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()` or `y.len() != self.cols()`.
    pub fn matvec_transposed_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(
            x.len(),
            self.rows,
            "matvec_transposed: length {} != rows {}",
            x.len(),
            self.rows
        );
        assert_eq!(
            y.len(),
            self.cols,
            "matvec_transposed: output length {} != cols {}",
            y.len(),
            self.cols
        );
        y.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let row = self.row_ptr[i]..self.row_ptr[i + 1];
            for (&j, &v) in self.col_idx[row.clone()].iter().zip(&self.values[row]) {
                y[j] += v * xi;
            }
        }
    }

    /// Iterates `(row, col, value)` over stored entries in row order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |i| {
            (self.row_ptr[i]..self.row_ptr[i + 1])
                .map(move |k| (i, self.col_idx[k], self.values[k]))
        })
    }

    /// Row start offsets (length `rows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices of the stored entries, in row order.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Values of the stored entries, in row order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the stored values (the pattern is fixed). This is
    /// the in-place update hook for per-iteration numeric refreshes: solvers
    /// keep the CSR pattern and overwrite only the numbers.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// CSR transpose: returns `Aᵀ` in CSR form (counting sort, `O(nnz)`).
    pub fn transpose(&self) -> SparseMatrix {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &j in &self.col_idx {
            row_ptr[j + 1] += 1;
        }
        for j in 0..self.cols {
            row_ptr[j + 1] += row_ptr[j];
        }
        let mut next = row_ptr.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k];
                let slot = next[j];
                next[j] += 1;
                col_idx[slot] = i;
                values[slot] = self.values[k];
            }
        }
        SparseMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Sparse×sparse product `A·B` (Gustavson's algorithm with a dense
    /// accumulator per output row; column indices emitted sorted, so the
    /// result is a canonical CSR matrix).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() !=
    /// b.rows()`.
    pub fn matmul_sparse(&self, b: &SparseMatrix) -> Result<SparseMatrix, LinalgError> {
        if self.cols != b.rows {
            return Err(dim_mismatch(
                format!("{} rows", self.cols),
                format!("{} rows", b.rows),
            ));
        }
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        let mut acc = vec![0.0f64; b.cols];
        let mut seen = vec![false; b.cols];
        let mut touched: Vec<usize> = Vec::new();
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let av = self.values[k];
                let br = self.col_idx[k];
                for kb in b.row_ptr[br]..b.row_ptr[br + 1] {
                    let j = b.col_idx[kb];
                    if !seen[j] {
                        seen[j] = true;
                        touched.push(j);
                    }
                    acc[j] += av * b.values[kb];
                }
            }
            touched.sort_unstable();
            for &j in &touched {
                if acc[j] != 0.0 {
                    col_idx.push(j);
                    values.push(acc[j]);
                }
                acc[j] = 0.0;
                seen[j] = false;
            }
            touched.clear();
            row_ptr.push(col_idx.len());
        }
        Ok(SparseMatrix {
            rows: self.rows,
            cols: b.cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Sparse scaled Gram product `A·diag(d)·Aᵀ` — the sparse counterpart of
    /// [`Matrix::scaled_gram`], the normal-equations kernel of the PDIP
    /// reference solver.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `d.len() !=
    /// self.cols()`.
    pub fn scaled_gram(&self, d: &[f64]) -> Result<SparseMatrix, LinalgError> {
        if d.len() != self.cols {
            return Err(dim_mismatch(
                format!("diagonal of length {}", self.cols),
                format!("length {}", d.len()),
            ));
        }
        let mut scaled = self.clone();
        for (v, &j) in scaled.values.iter_mut().zip(&scaled.col_idx) {
            *v *= d[j];
        }
        scaled.matmul_sparse(&self.transpose())
    }

    fn prune_zeros(&mut self) {
        if !self.values.contains(&0.0) {
            return;
        }
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                if self.values[k] != 0.0 {
                    col_idx.push(self.col_idx[k]);
                    values.push(self.values[k]);
                }
            }
            row_ptr[i + 1] = col_idx.len();
        }
        self.row_ptr = row_ptr;
        self.col_idx = col_idx;
        self.values = values;
    }
}

impl From<&Matrix> for SparseMatrix {
    fn from(dense: &Matrix) -> SparseMatrix {
        SparseMatrix::from_dense(dense)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dense() -> Matrix {
        Matrix::from_rows(&[
            &[1.0, 0.0, 2.0, 0.0],
            &[0.0, 0.0, 0.0, 0.0],
            &[0.0, 3.0, 0.0, 4.0],
        ])
        .unwrap()
    }

    #[test]
    fn dense_roundtrip() {
        let d = sample_dense();
        let s = SparseMatrix::from_dense(&d);
        assert_eq!(s.nnz(), 4);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn matvec_matches_dense() {
        let d = sample_dense();
        let s = SparseMatrix::from_dense(&d);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(s.matvec(&x), d.matvec(&x));
        let y = [1.0, -1.0, 0.5];
        assert_eq!(s.matvec_transposed(&y), d.matvec_transposed(&y));
    }

    #[test]
    fn from_triplets_sorts_and_sums() {
        let s =
            SparseMatrix::from_triplets(2, 2, &[(1, 1, 2.0), (0, 0, 1.0), (1, 1, 3.0)]).unwrap();
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.to_dense()[(1, 1)], 5.0);
    }

    #[test]
    fn from_triplets_rejects_out_of_bounds() {
        assert!(SparseMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(SparseMatrix::from_triplets(2, 2, &[(0, 5, 1.0)]).is_err());
    }

    #[test]
    fn explicit_zeros_are_dropped() {
        let s = SparseMatrix::from_triplets(2, 2, &[(0, 0, 0.0), (1, 0, 2.0)]).unwrap();
        assert_eq!(s.nnz(), 1);
    }

    #[test]
    fn empty_rows_handled() {
        let s = SparseMatrix::from_triplets(4, 3, &[(3, 2, 1.0)]).unwrap();
        assert_eq!(s.matvec(&[0.0, 0.0, 2.0]), vec![0.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn density_reports_fill() {
        let s = SparseMatrix::from_dense(&sample_dense());
        assert!((s.density() - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn iter_yields_all_entries() {
        let s = SparseMatrix::from_dense(&sample_dense());
        let entries: Vec<_> = s.iter().collect();
        assert_eq!(
            entries,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 1, 3.0), (2, 3, 4.0)]
        );
    }

    #[test]
    fn conversion_trait() {
        let d = sample_dense();
        let s: SparseMatrix = (&d).into();
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn duplicates_that_cancel_are_pruned() {
        let s =
            SparseMatrix::from_triplets(2, 2, &[(0, 1, 3.0), (0, 1, -3.0), (1, 0, 1.0)]).unwrap();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(1, 0, 1.0)]);
    }

    #[test]
    fn transpose_round_trips() {
        let s = SparseMatrix::from_dense(&sample_dense());
        let t = s.transpose();
        assert_eq!(t.rows(), s.cols());
        assert_eq!(t.cols(), s.rows());
        assert_eq!(t.transpose().to_dense(), s.to_dense());
        for (i, j, v) in s.iter() {
            assert_eq!(t.to_dense()[(j, i)], v);
        }
    }

    #[test]
    fn matmul_sparse_matches_dense_and_stays_canonical() {
        let a = sample_dense();
        let s = SparseMatrix::from_dense(&a);
        let t = s.transpose();
        let got = s.matmul_sparse(&t).unwrap();
        let want = a.matmul(&a.transpose()).unwrap();
        assert_eq!(got.to_dense(), want);
        // Canonical CSR: sorted, unique columns per row.
        for i in 0..got.rows() {
            let span = &got.col_idx()[got.row_ptr()[i]..got.row_ptr()[i + 1]];
            assert!(span.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(s.matmul_sparse(&s).is_err());
    }

    #[test]
    fn scaled_gram_matches_dense_kernel() {
        let a = sample_dense();
        let s = SparseMatrix::from_dense(&a);
        let d = [2.0, 0.5, 1.0, 3.0];
        let want = a.scaled_gram(&d);
        let got = s.scaled_gram(&d).unwrap().to_dense();
        for i in 0..want.rows() {
            for j in 0..want.cols() {
                assert!((want[(i, j)] - got[(i, j)]).abs() < 1e-12);
            }
        }
        assert!(s.scaled_gram(&[1.0]).is_err());
    }

    #[test]
    fn values_mut_updates_in_place() {
        let mut s = SparseMatrix::from_dense(&sample_dense());
        // Stored order (0,0), (0,2), (2,1), (2,3): slot 2 holds (2, 1).
        s.values_mut()[2] = 7.5;
        assert_eq!(s.to_dense()[(2, 1)], 7.5);
    }
}
