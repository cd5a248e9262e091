//! # cbs-solver
//!
//! Iterative solvers for the CBS workspace:
//!
//! * [`bicg_dual_block_precond`] — *the* dual BiCG: all right-hand sides of
//!   one shifted system advanced in lockstep through fused block matvecs,
//!   solving `A x = b` *and* `A† x̃ = b̃` in one sweep (the kernel the paper
//!   uses to halve the cost of the contour quadrature, `P(z)† = P(1/z̄)`),
//!   with per-column deflation, a stop on the relative residual (also of
//!   the system a split operator stands for), optional initial guesses (a vestige no
//!   workspace solve uses) and an optional preconditioner (`M⁻¹` on the
//!   primal residuals, `M⁻†` on the dual — e.g. `cbs_sparse::Ilu0` of the
//!   assembled `P(z)`),
//! * [`bicg_dual`], [`bicg()`] — its width-1, unpreconditioned, unseeded
//!   calls for single systems,
//! * [`ConvergenceHistory`] / [`SolverOptions`] — the residual-history
//!   bookkeeping behind the paper's Figure 5 and Table 1.

#![warn(missing_docs)]

pub mod bicg;
pub mod block;
pub mod history;

pub use bicg::{bicg, bicg_dual, BicgResult};
pub use block::{bicg_dual_block_precond, BlockBicgResult};
pub use history::{ConvergenceHistory, SolverOptions, StopReason};
