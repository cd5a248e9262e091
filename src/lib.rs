//! # cbs — complex band structures with the Sakurai-Sugiura method
//!
//! Facade crate of the workspace reproducing Iwase, Futamura, Imakura,
//! Sakurai and Ono, *"Efficient and Scalable Calculation of Complex Band
//! Structure using Sakurai-Sugiura Method"* (SC'17).
//!
//! It re-exports the member crates under stable names and is the dependency
//! used by the runnable examples (`examples/`) and the cross-crate
//! integration tests (`tests/`).
//!
//! ```no_run
//! use cbs::dft::{bulk_al_100, grid_for_structure, BlockHamiltonian, HamiltonianParams};
//! use cbs::core::SsConfig;
//! use cbs::parallel::RayonExecutor;
//! use cbs::sweep::{EnergySweep, SweepConfig};
//!
//! let structure = bulk_al_100(1);
//! let grid = grid_for_structure(&structure, 0.9);
//! let h = BlockHamiltonian::build(grid, &structure, HamiltonianParams::default());
//! let (h00, h01) = (h.h00(), h.h01());
//! // The N_int x N_rh shifted solves of every energy fan out over the
//! // chosen executor; `SerialExecutor` produces bit-identical results.
//! let sweep = EnergySweep::new(&h00, &h01, h.period(), SweepConfig::new(SsConfig::small()));
//! let run = sweep.run(&[0.1], &RayonExecutor);
//! println!("{} states found", run.cbs.points.len());
//! ```

#![warn(missing_docs)]

/// Dense complex linear algebra substrate (re-export of `cbs-linalg`).
pub use cbs_linalg as linalg;

/// Sparse matrices and matrix-free operators (re-export of `cbs-sparse`).
pub use cbs_sparse as sparse;

/// The workspace's one clock (`now_ns`) and its session-gated stage
/// spans: per-stage attribution and Chrome trace export (re-export of
/// `cbs-trace`).
pub use cbs_trace as trace;

/// Real-space grids and finite-difference stencils (re-export of `cbs-grid`).
pub use cbs_grid as grid;

/// Kohn-Sham Hamiltonian substrate (re-export of `cbs-dft`).
pub use cbs_dft as dft;

/// Iterative solvers (re-export of `cbs-solver`).
pub use cbs_solver as solver;

/// The Sakurai-Sugiura CBS solver (re-export of `cbs-core`).
pub use cbs_core as core;

/// The OBM / transfer-matrix baseline (re-export of `cbs-obm`).
pub use cbs_obm as obm;

/// Task executors (re-export of `cbs-parallel`).
pub use cbs_parallel as parallel;

/// Batched energy-sweep orchestration, every energy solved cold
/// (re-export of `cbs-sweep`).
pub use cbs_sweep as sweep;
