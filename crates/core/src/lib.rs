//! # cbs-core
//!
//! The paper's primary contribution: computing the complex band structure
//! (CBS) of a 1-D periodic system by casting the real-space Kohn-Sham
//! equation as a quadratic eigenvalue problem (QEP) and solving it with the
//! Sakurai-Sugiura contour-integral method restricted to the physically
//! relevant annulus `λ_min < |λ| < 1/λ_min`.
//!
//! Main entry points:
//!
//! * [`QepProblem`] — the matrix-free operator `P(z) = -z⁻¹H₀₁† + (E-H₀₀) - zH₀₁`,
//! * [`RingContour`] — the two-circle quadrature of the annulus,
//! * [`SsConfig`] / [`solve_qep_with`] — Algorithm 1 of the paper at one
//!   scan energy (moments, block Hankel matrices, SVD filtering, reduced
//!   eigenproblem), and [`solve_qeps_with`] — the same for many energies in
//!   one pooled round,
//! * [`ComplexBandStructure`] / [`classify_point`] — `k(E)` with its
//!   propagating and evanescent branches.  The multi-energy driver that
//!   fills it is `cbs_sweep::EnergySweep`, one `solve_qeps_with` round per
//!   run.
//!
//! The linear systems at the quadrature nodes are solved matrix-free with
//! the dual BiCG from `cbs-solver`, exploiting `P(z)† = P(1/z̄)` so only the
//! outer-circle systems are ever iterated — and, for a real Hamiltonian
//! (`P(z̄) = conj P(z)`, [`QepProblem::is_conjugate_symmetric`]), only the
//! upper half-plane half of those (see the [`ss`] module docs).
//!
//! The `N_int x N_rh` independent shifted solves of every problem run
//! through one road, the pooled round of [`solve_qeps_with`] (the [`pool`]
//! module): a job per solved quadrature node of each problem (all of its
//! right-hand sides in one call of the block dual-BiCG, run to the
//! configured tolerance, with the node's diagonal ILU under the ILU
//! policy), all of them in one dispatch through any
//! `cbs_parallel::TaskExecutor` (`cbs_parallel::SerialExecutor` for a
//! serial solve).  [`solve_qep_with`] is its one-problem call.

#![warn(missing_docs)]

pub mod cbs;
pub mod contour;
pub mod policy;
pub mod pool;
pub mod qep;
pub mod ss;

pub use cbs::{
    classify_point, CbsPoint, CbsStatistics, ComplexBandStructure, PROPAGATING_TOLERANCE,
};
pub use contour::{ContourError, QuadraturePoint, RingContour};
pub use policy::{BlockPolicy, PrecondPolicy};
pub use pool::{solve_qeps_with, SsResults};
pub use qep::{QepOperator, QepProblem};
pub use ss::{solve_qep_with, source_block, QepEigenpair, SsConfig, SsResult, SsTimings};
