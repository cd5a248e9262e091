//! # cbs-parallel
//!
//! The execution layer of the paper's method:
//!
//! * [`TaskExecutor`] with [`SerialExecutor`] / [`RayonExecutor`] — the
//!   pluggable, order-preserving batch-execution seam the Sakurai-Sugiura
//!   shifted-solve pool in `cbs-core` fans out through,
//! * [`SweepSchedule`] — the sweep-level release policy (flat vs dyadic
//!   wavefront) that `cbs-sweep` uses to trade task-pool flattening against
//!   cross-energy warm-start reuse.

#![warn(missing_docs)]

pub mod executor;
pub mod schedule;

pub use executor::{ExecutorChoice, RayonExecutor, SerialExecutor, TaskExecutor};
pub use schedule::SweepSchedule;
