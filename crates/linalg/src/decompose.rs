//! Matrix factorizations: LU with partial pivoting, Cholesky, Householder QR.

use crate::matrix::Matrix;
use crate::{LinalgError, Result};

/// LU decomposition with partial pivoting: `P * A = L * U`.
///
/// `L` and `U` are packed into a single matrix (unit diagonal of `L`
/// implicit); `perm` records the row permutation.
#[derive(Debug, Clone)]
pub struct Lu {
    lu: Matrix,
    perm: Vec<usize>,
}

impl Lu {
    /// Factorizes a square matrix. Returns [`LinalgError::Singular`] when a
    /// pivot is (numerically) zero.
    pub fn new(a: &Matrix) -> Result<Self> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::ShapeMismatch {
                context: format!("LU requires a square matrix, got {}x{}", a.rows(), a.cols()),
            });
        }
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Partial pivot: pick the largest |entry| in column k at or below row k.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < 1e-300 {
                return Err(LinalgError::Singular);
            }
            if pivot_row != k {
                perm.swap(k, pivot_row);
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    let upd = factor * lu[(k, j)];
                    lu[(i, j)] -= upd;
                }
            }
        }
        Ok(Lu { lu, perm })
    }

    /// Solves `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                context: format!("LU solve: rhs length {} vs dimension {n}", b.len()),
            });
        }
        // Forward substitution with permuted rhs (L has unit diagonal).
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[self.perm[i]];
            for j in 0..i {
                s -= self.lu[(i, j)] * y[j];
            }
            y[i] = s;
        }
        // Back substitution.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.lu[(i, j)] * x[j];
            }
            x[i] = s / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Inverse of the factorized matrix (column-by-column solve).
    pub fn inverse(&self) -> Result<Matrix> {
        let n = self.lu.rows();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = self.solve(&e)?;
            e[j] = 0.0;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        Ok(inv)
    }
}

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite matrix.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read. Returns
    /// [`LinalgError::NotPositiveDefinite`] when a diagonal pivot is
    /// non-positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::ShapeMismatch {
                context: format!(
                    "Cholesky requires a square matrix, got {}x{}",
                    a.rows(),
                    a.cols()
                ),
            });
        }
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite);
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Solves `A x = b` via two triangular solves.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                context: format!("Cholesky solve: rhs length {} vs dimension {n}", b.len()),
            });
        }
        // L y = b
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for j in 0..i {
                s -= self.l[(i, j)] * y[j];
            }
            y[i] = s / self.l[(i, i)];
        }
        // Lᵀ x = y
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.l[(j, i)] * x[j];
            }
            x[i] = s / self.l[(i, i)];
        }
        Ok(x)
    }
}

/// Householder QR factorization `A = Q R` for `rows >= cols`.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Householder vectors packed below the diagonal; R on and above it.
    qr: Matrix,
    /// Diagonal of R (stored separately for numerical convenience).
    r_diag: Vec<f64>,
}

impl Qr {
    /// Factorizes a tall (or square) matrix.
    pub fn new(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::ShapeMismatch {
                context: format!("QR requires rows >= cols, got {m}x{n}"),
            });
        }
        let mut qr = a.clone();
        let mut r_diag = vec![0.0; n];
        for k in 0..n {
            // Norm of the k-th column below (and including) the diagonal.
            let mut norm = 0.0_f64;
            for i in k..m {
                norm = norm.hypot(qr[(i, k)]);
            }
            // eadrl-lint: allow(no-float-eq): zero-pivot guard — only an exactly-zero column norm makes the Householder reflector undefined
            if norm == 0.0 {
                return Err(LinalgError::Singular);
            }
            if qr[(k, k)] < 0.0 {
                norm = -norm;
            }
            for i in k..m {
                qr[(i, k)] /= norm;
            }
            qr[(k, k)] += 1.0;
            // Apply the reflector to the remaining columns.
            for j in (k + 1)..n {
                let mut s = 0.0;
                for i in k..m {
                    s += qr[(i, k)] * qr[(i, j)];
                }
                s = -s / qr[(k, k)];
                for i in k..m {
                    let upd = s * qr[(i, k)];
                    qr[(i, j)] += upd;
                }
            }
            r_diag[k] = -norm;
        }
        Ok(Qr { qr, r_diag })
    }

    /// Solves the least-squares problem `min ||A x - b||₂`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = self.qr.shape();
        if b.len() != m {
            return Err(LinalgError::ShapeMismatch {
                context: format!("QR solve: rhs length {} vs {m} rows", b.len()),
            });
        }
        let mut y = b.to_vec();
        // Apply Qᵀ.
        for k in 0..n {
            let mut s = 0.0;
            for i in k..m {
                s += self.qr[(i, k)] * y[i];
            }
            s = -s / self.qr[(k, k)];
            for i in k..m {
                y[i] += s * self.qr[(i, k)];
            }
        }
        // Back-substitute R x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            if self.r_diag[i].abs() < 1e-300 {
                return Err(LinalgError::Singular);
            }
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.qr[(i, j)] * x[j];
            }
            x[i] = s / self.r_diag[i];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn lu_solves_known_system() {
        // 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]).unwrap();
        let lu = Lu::new(&a).unwrap();
        approx(&lu.solve(&[5.0, 10.0]).unwrap(), &[1.0, 3.0], 1e-12);
    }

    #[test]
    fn lu_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let lu = Lu::new(&a).unwrap();
        approx(&lu.solve(&[2.0, 3.0]).unwrap(), &[3.0, 2.0], 1e-12);
    }

    #[test]
    fn lu_detects_singular() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert!(matches!(Lu::new(&a), Err(LinalgError::Singular)));
    }

    #[test]
    fn lu_inverse_roundtrip() {
        let a = Matrix::from_vec(3, 3, vec![4.0, 2.0, 1.0, 2.0, 5.0, 3.0, 1.0, 3.0, 6.0]).unwrap();
        let inv = Lu::new(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let eye = Matrix::identity(3);
        assert!(prod.sub(&eye).unwrap().max_abs() < 1e-10);
    }

    #[test]
    fn cholesky_reconstructs_spd_matrix() {
        let a = Matrix::from_vec(3, 3, vec![4.0, 2.0, 1.0, 2.0, 5.0, 3.0, 1.0, 3.0, 6.0]).unwrap();
        let ch = Cholesky::new(&a).unwrap();
        let l = &ch.l;
        let rec = l.matmul(&l.transpose()).unwrap();
        assert!(rec.sub(&a).unwrap().max_abs() < 1e-10);
    }

    #[test]
    fn cholesky_solve_matches_lu() {
        let a = Matrix::from_vec(3, 3, vec![4.0, 2.0, 1.0, 2.0, 5.0, 3.0, 1.0, 3.0, 6.0]).unwrap();
        let b = [1.0, -2.0, 0.5];
        let x1 = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let x2 = Lu::new(&a).unwrap().solve(&b).unwrap();
        approx(&x1, &x2, 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn qr_solves_square_system() {
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]).unwrap();
        let x = Qr::new(&a).unwrap().solve(&[5.0, 10.0]).unwrap();
        approx(&x, &[1.0, 3.0], 1e-12);
    }

    #[test]
    fn qr_least_squares_fits_line() {
        // Fit y = 2x + 1 exactly through three collinear points.
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let x = Qr::new(&a).unwrap().solve(&[1.0, 3.0, 5.0]).unwrap();
        approx(&x, &[1.0, 2.0], 1e-12);
    }

    #[test]
    fn qr_least_squares_minimizes_residual() {
        // Overdetermined noisy system: residual must be orthogonal to columns.
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
        ])
        .unwrap();
        let b = [0.9, 3.2, 4.8, 7.1];
        let x = Qr::new(&a).unwrap().solve(&b).unwrap();
        let pred = a.matvec(&x).unwrap();
        let resid: Vec<f64> = b.iter().zip(pred.iter()).map(|(y, p)| y - p).collect();
        let ortho = a.tr_matvec(&resid).unwrap();
        assert!(ortho.iter().all(|v| v.abs() < 1e-10));
    }

    #[test]
    fn qr_rejects_wide_matrix() {
        let a = Matrix::zeros(2, 3);
        assert!(Qr::new(&a).is_err());
    }
}
