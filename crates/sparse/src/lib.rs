//! # cbs-sparse
//!
//! Sparse matrices and matrix-free linear operators for the CBS workspace.
//!
//! The paper's eigensolver never forms the Kohn-Sham Hamiltonian densely: it
//! only needs `H x` (and `H† x`).  This crate provides
//!
//! * [`LinearOperator`] — the matrix-free operator trait all solvers consume,
//! * [`CsrMatrix`] / [`CooBuilder`] — complex compressed-sparse-row storage,
//! * [`LowRankOp`] / [`SparseVec`] — factored non-local projector operators,
//! * [`Preconditioner`] — a split preconditioner `M = M_L·M_R`: the maps
//!   into and out of its split system `M_L⁻¹AM_R⁻¹` and that system's
//!   apply ([`SplitOperator`]), for both the primal and the dual side,
//! * [`RealStencil`] — a *real* Hamiltonian's `H₀₀` and `H₀₁` as `f64`
//!   rows with `u32` indices (explicit `H₀₁ᵀ`, projector terms as real
//!   sparse factors), and `P(z)` applied from them in one fused row pass
//!   (real×complex arithmetic, no scratch slab).  It is the one stored form
//!   of every Hamiltonian `cbs-dft` builds: [`StencilBuilder`] writes it row
//!   by row, its [`StencilBlock`] views are the block operators a QEP is
//!   built from, and a QEP over the two views of one stencil
//!   ([`LinearOperator::stencil_block`]) applies `P(z)` through it.
//!   [`StencilDilu`] is the diagonal ILU of its sparse part, kept as `n`
//!   pivots and swept over the stencil's rows, a [`Preconditioner`] whose
//!   split apply folds `P(z)` into its two sweeps (Eisenstat's trick),
//! * [`DenseOp`] — a dense matrix as a [`LinearOperator`], for tests and
//!   small reference problems.
//!
//! Only the stencil keeps fused multi-column kernels (its `P(z)`, its
//! split and its diagonal ILU's sweeps); every other operator here applies
//! a slab one column at a time through the [`LinearOperator`] defaults.
//! [`Preconditioner`] has no defaults: its one product implementation, the
//! stencil's diagonal ILU, maps and applies whole slabs.
//!
//! The stencil is the one operator storage.  [`AssembledPattern`],
//! [`AssembledOp`] and [`FactoredProjector`] ([`vestige`]) are the names
//! the repo benchmark's frozen per-layer replay still calls: views of the
//! stencil's sparse rows and the projector tails in factored form, kept
//! until ROADMAP 1(a) releases them.  No library solve reads them.

#![warn(missing_docs)]

pub mod csr;
pub mod lowrank;
pub mod ops;
pub mod real_stencil;
pub mod scratch;
pub mod vestige;

pub use csr::{CooBuilder, CsrMatrix};
pub use lowrank::{LowRankOp, RankOneTerm, SparseVec};
pub use ops::{adjoint_defect, DenseOp, LinearOperator, Preconditioner, SplitOperator};
pub use real_stencil::{Block, RealStencil, StencilBlock, StencilBuilder, StencilDilu};
pub use scratch::with_scratch;
pub use vestige::{AssembledOp, AssembledPattern, FactoredProjector};
