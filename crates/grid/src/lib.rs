//! # cbs-grid
//!
//! Real-space grid substrate: uniform 3-D grids for one-dimensionally
//! periodic cells and high-order central finite-difference stencils for the
//! Laplacian.
//!
//! Everything here is pure geometry/bookkeeping; the Hamiltonian assembly
//! lives in `cbs-dft`.

#![warn(missing_docs)]

pub mod grid3d;
pub mod stencil;

pub use grid3d::{CellShift, Grid3};
pub use stencil::{laplacian_stencil_1d, second_derivative_weights, FdOrder, KINETIC_PREFACTOR};
