//! # cbs-solver
//!
//! Iterative solvers for the CBS workspace:
//!
//! * [`bicg_dual_block_precond`] — *the* dual BiCG: all right-hand sides of
//!   one shifted system advanced in lockstep through fused block matvecs,
//!   solving `A x = b` *and* `A† x̃ = b̃` in one sweep (the kernel the paper
//!   uses to halve the cost of the contour quadrature, `P(z)† = P(1/z̄)`),
//!   from a zero start, with per-column deflation and a stop on the
//!   relative residual.  It has one recurrence: a split preconditioner
//!   `cbs_sparse::Preconditioner` (the stencil's diagonal ILU
//!   `cbs_sparse::StencilDilu`, under the ILU policy) is solved through,
//!   by running that recurrence on its split system, stopping on the
//!   residuals of `A` the split ones stand for, and certifying the true
//!   residuals of the returned solutions,
//! * [`bicg()`] — its width-1, unpreconditioned call for a single system
//!   (the Green-function columns of the OBM baseline),
//! * [`ConvergenceHistory`] / [`SolverOptions`] — the residual-history
//!   bookkeeping behind the paper's Figure 5 and Table 1.

#![warn(missing_docs)]

pub mod bicg;
pub mod block;
pub mod history;

pub use bicg::{bicg, BicgResult};
pub use block::{bicg_dual_block_precond, BlockBicgResult};
pub use history::{ConvergenceHistory, SolverOptions, StopReason};
