//! Row-major dense `f64` matrix.

use crate::{LinalgError, Result};

/// A dense, row-major matrix of `f64` values.
///
/// The storage is a single `Vec<f64>` of length `rows * cols`; element
/// `(i, j)` lives at index `i * cols + j`.  Indexing via `m[(i, j)]` is
/// bounds-checked in debug builds only (the underlying slice indexing
/// performs the check).
///
/// ```
/// use eadrl_linalg::Matrix;
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0])?;
/// let v = a.matvec(&[1.0, 1.0])?;
/// assert_eq!(v, vec![3.0, 7.0]);
/// # Ok::<(), eadrl_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                context: format!(
                    "from_vec: {} values cannot fill a {rows}x{cols} matrix",
                    data.len()
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from a slice of rows.
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the rows have uneven lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::ShapeMismatch {
                    context: format!(
                        "from_rows: row {i} has {} columns, expected {cols}",
                        r.len()
                    ),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the row-major backing storage.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the row-major backing storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a fresh vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transpose as a fresh matrix.
    ///
    /// Allocates; training-loop hot paths use
    /// [`transpose_into`](Self::transpose_into) with a reused buffer
    /// instead.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        crate::kernels::transpose(self.rows, self.cols, &self.data, &mut t.data);
        t
    }

    /// Writes the transpose into `out`, reshaping it in place.
    ///
    /// `out`'s existing allocation is reused whenever its capacity
    /// suffices, so repeated calls with the same shapes are
    /// allocation-free.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize(self.cols, self.rows);
        crate::kernels::transpose(self.rows, self.cols, &self.data, &mut out.data);
    }

    /// Reshapes `self` to `rows x cols` in place, reusing the backing
    /// allocation when its capacity suffices. The contents afterwards are
    /// unspecified (whatever the producing kernel writes) — this is a
    /// buffer-management primitive for the `_into` methods, not a view
    /// operation.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Matrix-matrix product `self * other`.
    ///
    /// Delegates to the cache-blocked [`kernels::gemm`](crate::kernels::gemm),
    /// whose per-element accumulation order matches the classic i-k-j loop
    /// bit for bit.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// Matrix-matrix product written into `out` (reshaped in place, so
    /// repeated calls with the same shapes are allocation-free).
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                context: format!(
                    "matmul: {}x{} * {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        out.resize(self.rows, other.cols);
        crate::kernels::gemm(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
        Ok(())
    }

    /// Matrix-vector product `self * v`.
    ///
    /// Each output element is [`vector::dot`](crate::vector::dot) of a row
    /// with `v` — the shared dot kernel, so the accumulation order is the
    /// canonical ascending-index sum.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(v, &mut out)?;
        Ok(out)
    }

    /// Matrix-vector product written into `out` (resized in place).
    pub fn matvec_into(&self, v: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch {
                context: format!("matvec: {}x{} * {}", self.rows, self.cols, v.len()),
            });
        }
        out.resize(self.rows, 0.0);
        crate::kernels::matvec(self.rows, self.cols, &self.data, v, out);
        Ok(())
    }

    /// Transposed matrix-vector product `selfᵀ * v`.
    pub fn tr_matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.rows != v.len() {
            return Err(LinalgError::ShapeMismatch {
                context: format!("tr_matvec: ({}x{})ᵀ * {}", self.rows, self.cols, v.len()),
            });
        }
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let vi = v[i];
            for (o, &a) in out.iter_mut().zip(self.row(i).iter()) {
                *o += vi * a;
            }
        }
        Ok(out)
    }

    /// Gram matrix `selfᵀ * self` (symmetric, `cols x cols`).
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..self.cols {
                let a = row[i];
                // eadrl-lint: allow(no-float-eq): sparsity fast path — skipping exact zeros is bit-identical to multiplying by them
                if a == 0.0 {
                    continue;
                }
                for j in i..self.cols {
                    g.data[i * self.cols + j] += a * row[j];
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..self.cols {
            for j in 0..i {
                g.data[i * self.cols + j] = g.data[j * self.cols + i];
            }
        }
        g
    }

    /// Element-wise difference `self - other`.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Scales every entry by `s` in place, allocation-free.
    pub fn scale_in_place(&mut self, s: f64) {
        crate::vector::scale_in_place(&mut self.data, s);
    }

    /// Adds `s` to every diagonal entry in place (useful for ridge terms and
    /// GP noise jitter).
    pub fn add_diagonal(&mut self, s: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self.data[i * self.cols + i] += s;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute entry, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// True when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Extracts the sub-matrix of the given half-open row/column ranges.
    pub fn submatrix(
        &self,
        row_range: std::ops::Range<usize>,
        col_range: std::ops::Range<usize>,
    ) -> Matrix {
        let rows = row_range.len();
        let cols = col_range.len();
        let mut data = Vec::with_capacity(rows * cols);
        for i in row_range {
            data.extend_from_slice(&self.row(i)[col_range.clone()]);
        }
        Matrix { rows, cols, data }
    }

    fn zip_with(&self, other: &Matrix, op: &str, f: impl Fn(f64, f64) -> f64) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                context: format!(
                    "{op}: {}x{} vs {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }
}

impl std::ops::MulAssign<f64> for Matrix {
    /// In-place scalar scaling: `m *= s`.
    #[inline]
    fn mul_assign(&mut self, s: f64) {
        self.scale_in_place(s);
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, m(2, 2, &[58.0, 64.0, 139.0, 154.0]));
    }

    #[test]
    fn matmul_shape_mismatch_is_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matvec_matches_matmul_with_column() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let v = [1.0, 0.5, -1.0];
        let got = a.matvec(&v).unwrap();
        let expect = a.matmul(&m(3, 1, &v)).unwrap();
        assert_eq!(got, expect.col(0));
    }

    #[test]
    fn tr_matvec_matches_transpose_matvec() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let v = [1.0, -2.0, 3.0];
        assert_eq!(a.tr_matvec(&v).unwrap(), a.transpose().matvec(&v).unwrap());
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((g[(i, j)] - explicit[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sub_and_add_diagonal() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sub(&a).unwrap(), Matrix::zeros(2, 2));
        let mut c = a.clone();
        c.add_diagonal(10.0);
        assert_eq!(c[(0, 0)], 11.0);
        assert_eq!(c[(1, 1)], 14.0);
        assert_eq!(c[(0, 1)], 2.0);
    }

    #[test]
    fn submatrix_extracts_block() {
        let a = m(3, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        let s = a.submatrix(1..3, 0..2);
        assert_eq!(s, m(2, 2, &[4.0, 5.0, 7.0, 8.0]));
    }

    #[test]
    fn into_variants_match_allocating_ones_and_reuse_capacity() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);

        let mut out = Matrix::zeros(2, 2);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        let ptr = out.data().as_ptr();
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(
            out.data().as_ptr(),
            ptr,
            "repeat matmul_into must not reallocate"
        );

        let mut t = Matrix::default();
        a.transpose_into(&mut t);
        assert_eq!(t, a.transpose());

        let v = [1.0, 0.5, -1.0];
        let mut mv = Vec::new();
        a.matvec_into(&v, &mut mv).unwrap();
        assert_eq!(mv, a.matvec(&v).unwrap());

        assert!(a.matmul_into(&a, &mut out).is_err());
        assert!(a.matvec_into(&[1.0], &mut mv).is_err());
    }

    #[test]
    fn scale_in_place_and_mul_assign_agree() {
        let a = m(2, 2, &[1.0, -2.0, 3.0, 4.0]);
        let mut b = a.clone();
        b.scale_in_place(2.5);
        assert_eq!(b, m(2, 2, &[2.5, -5.0, 7.5, 10.0]));
        let mut c = a.clone();
        c *= 2.5;
        assert_eq!(c, b);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(Matrix::from_rows(&rows).is_err());
    }

    #[test]
    fn frobenius_and_max_abs() {
        let a = m(2, 2, &[3.0, 0.0, -4.0, 0.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.max_abs(), 4.0);
        assert!(a.is_finite());
    }
}
