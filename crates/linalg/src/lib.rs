#![allow(clippy::needless_range_loop)] // index loops over multiple parallel arrays read clearer in numeric kernels
#![deny(unsafe_code)]

//! Dense linear-algebra substrate for the EA-DRL reproduction.
//!
//! The EA-DRL paper's base-model pool contains several estimators that are
//! linear-algebra heavy (Gaussian-process regression, principal-component
//! regression, partial-least-squares regression, ARIMA fitting via least
//! squares).  This crate provides the minimal, dependency-free dense kernels
//! they need:
//!
//! * [`Matrix`] — a row-major `f64` matrix with the usual arithmetic,
//! * [`kernels`] — cache-blocked GEMM/transpose kernels behind the
//!   allocation-free batched training path,
//! * [`decompose`] — LU (with partial pivoting), Cholesky and Householder-QR
//!   factorizations with solvers,
//! * [`eigen`] — cyclic-Jacobi eigendecomposition of symmetric matrices,
//! * [`lstsq()`](lstsq::lstsq) — (ridge-)regularized linear least squares,
//! * [`pca`] / [`pls`] — principal-component analysis and NIPALS partial
//!   least squares built on the above.
//!
//! All routines operate on `f64` and are written for correctness and clarity
//! on small/medium problems (the pool models embed time series with k = 5,
//! so design matrices here are thin).

pub mod decompose;
pub mod eigen;
pub mod kernels;
pub mod lstsq;
pub mod matrix;
pub mod pca;
pub mod pls;
pub mod vector;

pub use decompose::{Cholesky, Lu, Qr};
pub use eigen::SymmetricEigen;
pub use lstsq::{lstsq, ridge};
pub use matrix::Matrix;
pub use pca::Pca;
pub use pls::PlsModel;

/// Errors produced by linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the expected/actual shapes.
        context: String,
    },
    /// The matrix is singular (or numerically so) and cannot be factorized
    /// or solved against.
    Singular,
    /// The matrix is not positive definite (Cholesky only).
    NotPositiveDefinite,
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { context } => {
                write!(f, "shape mismatch: {context}")
            }
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::NotPositiveDefinite => {
                write!(f, "matrix is not positive definite")
            }
            LinalgError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
