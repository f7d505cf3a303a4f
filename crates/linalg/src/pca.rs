//! Principal-component analysis on top of the Jacobi eigendecomposition.

use crate::eigen::SymmetricEigen;
use crate::matrix::Matrix;
use crate::{LinalgError, Result};

/// Fitted PCA model: centering vector plus the leading principal axes.
///
/// Used by the principal-component-regression (PCR) base model in
/// `eadrl-models`, and reusable for any dimensionality reduction over
/// embedded time-series windows.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    /// Columns are the principal axes (descending explained variance).
    components: Matrix,
}

impl Pca {
    /// Fits PCA on the rows of `x`, keeping `n_components` axes.
    ///
    /// `n_components` is clamped to the number of features. Requires at
    /// least two samples.
    pub fn fit(x: &Matrix, n_components: usize) -> Result<Self> {
        let (n, d) = x.shape();
        if n < 2 {
            return Err(LinalgError::ShapeMismatch {
                context: format!("PCA needs >= 2 samples, got {n}"),
            });
        }
        let k = n_components.clamp(1, d);
        // Column means.
        let mut mean = vec![0.0; d];
        for i in 0..n {
            for (m, &v) in mean.iter_mut().zip(x.row(i).iter()) {
                *m += v;
            }
        }
        for m in mean.iter_mut() {
            *m /= n as f64;
        }
        // Covariance matrix of centered data.
        let mut centered = x.clone();
        for i in 0..n {
            for (v, m) in centered.row_mut(i).iter_mut().zip(mean.iter()) {
                *v -= m;
            }
        }
        let mut cov = centered.gram();
        cov.scale_in_place(1.0 / (n as f64 - 1.0));
        let eig = SymmetricEigen::new(&cov)?;
        let components = eig.eigenvectors.submatrix(0..d, 0..k);
        Ok(Pca { mean, components })
    }

    /// Projects rows of `x` onto the principal axes.
    pub fn transform(&self, x: &Matrix) -> Result<Matrix> {
        if x.cols() != self.mean.len() {
            return Err(LinalgError::ShapeMismatch {
                context: format!(
                    "PCA transform: {} features vs fitted {}",
                    x.cols(),
                    self.mean.len()
                ),
            });
        }
        let mut centered = x.clone();
        for i in 0..x.rows() {
            for (v, m) in centered.row_mut(i).iter_mut().zip(self.mean.iter()) {
                *v -= m;
            }
        }
        centered.matmul(&self.components)
    }

    /// Projects a single sample.
    pub fn transform_one(&self, sample: &[f64]) -> Result<Vec<f64>> {
        if sample.len() != self.mean.len() {
            return Err(LinalgError::ShapeMismatch {
                context: format!(
                    "PCA transform_one: {} features vs fitted {}",
                    sample.len(),
                    self.mean.len()
                ),
            });
        }
        let centered: Vec<f64> = sample
            .iter()
            .zip(self.mean.iter())
            .map(|(v, m)| v - m)
            .collect();
        self.components.tr_matvec(&centered)
    }

    /// Number of retained components.
    pub fn n_components(&self) -> usize {
        self.components.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_axis_follows_dominant_direction() {
        // Points spread along the (1,1) diagonal with small orthogonal noise.
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| {
                let t = i as f64 / 10.0;
                let eps = if i % 2 == 0 { 0.01 } else { -0.01 };
                vec![t + eps, t - eps]
            })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let pca = Pca::fit(&x, 1).unwrap();
        let axis = pca.components.col(0);
        // Axis should be ±(1,1)/√2.
        assert!((axis[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.05);
        assert!((axis[0] - axis[1]).abs() < 0.1);
    }

    #[test]
    fn transform_one_matches_batch_transform() {
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i * i) as f64 * 0.1, 1.0 / (i + 1) as f64])
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let pca = Pca::fit(&x, 2).unwrap();
        let batch = pca.transform(&x).unwrap();
        let single = pca.transform_one(x.row(7)).unwrap();
        for j in 0..2 {
            assert!((batch[(7, j)] - single[j]).abs() < 1e-10);
        }
    }

    #[test]
    fn n_components_is_clamped() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 7.0]]).unwrap();
        let pca = Pca::fit(&x, 10).unwrap();
        assert_eq!(pca.n_components(), 2);
    }

    #[test]
    fn too_few_samples_is_error() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(Pca::fit(&x, 1).is_err());
    }
}
