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
//!   stream the factor rows in storage order (blocked over right-hand
//!   sides) for the preconditioned dual BiCG ([`TriSchedule`], the
//!   dependency-level analysis of a pattern, is a vestige no solve reads),
//! * [`FactoredProjector`] — the non-local projector part of `P(z)` kept in
//!   factored low-rank form alongside an assembled CSR part,
//! * [`RealStencil`] — `P(z)` of a *real* Hamiltonian as one fused row pass
//!   over `f64` coefficients (real×complex arithmetic, explicit `H₀₁ᵀ`, no
//!   scratch slab): what the matrix-free path runs whenever both blocks
//!   expose real [`LinearOperator::sparse_lowrank_parts`] — and
//!   [`StencilDilu`], the same diagonal ILU as [`Ilu0`] kept as `n` pivots
//!   and swept over the stencil's rows, whose [`SplitOperator`] folds `P(z)`
//!   into its two sweeps (Eisenstat's trick),
//! * [`DenseOp`] — a dense matrix as a [`LinearOperator`], for tests and
//!   small reference problems.

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
pub use real_stencil::{RealStencil, SplitOperator, StencilDilu};
pub use scratch::{recycle_scratch, take_scratch, with_scratch};
