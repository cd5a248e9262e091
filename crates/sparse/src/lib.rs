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
//! * [`AssembledPattern`] / [`AssembledOp`] — the shifted QEP operator
//!   `P(z)` materialized as one CSR by numeric refill of a shared symbolic
//!   union pattern (one storage traversal per matvec, and something an
//!   ILU can factor),
//! * [`Ilu0`] / [`Preconditioner`] — the complex diagonal ILU of a CSR in
//!   factored form, whose forward/backward and adjoint triangular solves
//!   stream the factor rows in storage order, one right-hand side at a
//!   time ([`TriSchedule`], the dependency-level analysis of a pattern, is
//!   a vestige no solve reads),
//! * [`FactoredProjector`] — the non-local projector part of `P(z)` kept in
//!   factored low-rank form alongside an assembled CSR part,
//! * [`RealStencil`] — a *real* Hamiltonian's `H₀₀` and `H₀₁` as `f64`
//!   rows with `u32` indices (explicit `H₀₁ᵀ`, projector terms as real
//!   sparse factors), and `P(z)` applied from them in one fused row pass
//!   (real×complex arithmetic, no scratch slab).  It is the one stored form
//!   of every Hamiltonian `cbs-dft` builds: [`StencilBuilder`] writes it row
//!   by row, its [`StencilBlock`] views are the block operators a QEP is
//!   built from, and a QEP over the two views of one stencil
//!   ([`LinearOperator::stencil_block`]) applies `P(z)` through it.
//!   [`StencilDilu`] is the same diagonal ILU as [`Ilu0`] kept as `n`
//!   pivots and swept over the stencil's rows, whose [`SplitOperator`]
//!   folds `P(z)` into its two sweeps (Eisenstat's trick),
//! * [`DenseOp`] — a dense matrix as a [`LinearOperator`], for tests and
//!   small reference problems.
//!
//! Only the stencil keeps fused multi-column kernels (its `P(z)`, its
//! split and its diagonal ILU's sweeps); every other operator and
//! preconditioner here applies or solves a slab one column at a time
//! through the [`LinearOperator`] and [`Preconditioner`] defaults.
//!
//! No library solve runs the assembled types ([`AssembledPattern`],
//! [`AssembledOp`], [`Ilu0`], [`FactoredProjector`]) any more: the ILU
//! policy splits the [`RealStencil`] by its [`StencilDilu`].  They serve
//! the repo benchmark's per-layer replay and the tests' oracle for that
//! split — `pattern.assemble(E, z).ilu0()` is the same diagonal ILU in
//! factored form.

#![warn(missing_docs)]

pub mod assembled;
pub mod csr;
pub mod lowrank;
pub mod ops;
pub mod projector;
pub mod real_stencil;
pub mod scratch;

pub use assembled::{AssembledOp, AssembledPattern, Ilu0, TriSchedule};
pub use csr::{CooBuilder, CsrMatrix};
pub use lowrank::{LowRankOp, RankOneTerm, SparseVec};
pub use ops::{adjoint_defect, DenseOp, LinearOperator, Preconditioner};
pub use projector::FactoredProjector;
pub use real_stencil::{
    Block, RealStencil, SplitOperator, StencilBlock, StencilBuilder, StencilDilu,
};
pub use scratch::{recycle_scratch, take_scratch, with_scratch};
