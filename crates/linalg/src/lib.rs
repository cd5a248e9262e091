//! # cbs-linalg
//!
//! Dense complex linear algebra substrate for the complex-band-structure
//! (CBS) / Sakurai-Sugiura workspace.
//!
//! The SC17 paper this workspace reproduces relies on LAPACK/MKL for its
//! dense kernels (`ZGGEV` for the OBM baseline, SVD and small eigensolves in
//! the Sakurai-Sugiura post-processing).  This crate provides those
//! operations from scratch:
//!
//! * [`Complex64`] — the complex scalar used everywhere,
//! * [`CVector`] / [`CMatrix`] — dense vectors and row-major matrices,
//! * [`LuDecomposition`] — LU with partial pivoting (solve / inverse / det),
//! * [`eig`] — Hessenberg + shifted-QR complex Schur form and eigenpairs,
//! * [`svd()`] — one-sided Jacobi SVD,
//! * [`generalized_eigen`] — `A x = λ B x` by shift-and-invert reduction.
//!
//! All dense problems in this workspace are small (≲ a few thousand rows), so
//! the implementations favour robustness and clarity; the large sparse
//! operators live in `cbs-sparse` and are only ever applied matrix-free.

#![warn(missing_docs)]

pub mod complex;
pub mod eig;
pub mod geig;
pub mod lu;
pub mod matrix;
pub mod svd;
pub mod vector;

pub use complex::{c64, Complex64};
pub use eig::{eigen, eigenvalues, hessenberg, schur, Eigen};
pub use geig::{generalized_eigen, generalized_residual, GeneralizedEigen, GeneralizedEigenpair};
pub use lu::{inverse, solve, LuDecomposition};
pub use matrix::CMatrix;
pub use svd::{svd, Svd};
pub use vector::CVector;

/// Errors produced by the dense linear algebra routines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinalgError {
    /// A square matrix was required.
    NotSquare {
        /// Number of rows of the offending matrix.
        nrows: usize,
        /// Number of columns of the offending matrix.
        ncols: usize,
    },
    /// The matrix is (numerically) singular.
    Singular {
        /// Index of the zero pivot.
        pivot: usize,
    },
    /// An iterative process failed to converge.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// Generic shape error.
    InvalidDimensions {
        /// Human-readable description of the constraint that was violated.
        context: &'static str,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotSquare { nrows, ncols } => {
                write!(f, "matrix is not square ({nrows} x {ncols})")
            }
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular (zero pivot at index {pivot})")
            }
            LinalgError::NoConvergence { iterations } => {
                write!(f, "iteration failed to converge after {iterations} steps")
            }
            LinalgError::InvalidDimensions { context } => {
                write!(f, "invalid dimensions: {context}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}
