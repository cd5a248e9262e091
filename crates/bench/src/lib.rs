//! # cbs-bench
//!
//! The experiment harness: one binary per table/figure of the paper (under
//! `src/bin/`) and the shared system-construction / reporting code they all
//! use.  Performance measurements live in the separate `benchmark/` package
//! at the repository root.
//!
//! Resolution is controlled by the `CBS_SCALE` environment variable
//! (`CBS_SCALE=1.0` reproduces the paper's 0.2 Å grids; the default 0.45
//! uses coarser grids suitable for a single core — see [`systems`]).

#![warn(missing_docs)]

pub mod experiments;
pub mod systems;
