//! # cbs-parallel
//!
//! The hierarchical parallel runtime of the paper's method:
//!
//! * [`ParallelLayout`] — process assignment to the three layers (right-hand
//!   sides → quadrature points → grid domains), with the paper's
//!   top-layer-first rule,
//! * [`TaskExecutor`] with [`SerialExecutor`] / [`RayonExecutor`] — the
//!   pluggable, order-preserving batch-execution seam the Sakurai-Sugiura
//!   shifted-solve pool in `cbs-core` fans out through,
//! * [`SweepSchedule`] — the sweep-level release policy (flat vs dyadic
//!   wavefront) that `cbs-sweep` uses to trade task-pool flattening against
//!   cross-energy warm-start reuse,
//! * [`PerformanceModel`] — a calibrated analytic model of an
//!   Oakforest-PACS-like cluster used to produce the strong-scaling curves
//!   of Figures 8-10 and the intra-node sweep of Table 2 on hardware that
//!   cannot run 139,264 cores.

#![warn(missing_docs)]

pub mod executor;
pub mod hierarchy;
pub mod perf_model;
pub mod schedule;

pub use executor::{
    measure_bicg_iteration_cost, ExecutorChoice, RayonExecutor, SerialExecutor, TaskExecutor,
};
pub use hierarchy::ParallelLayout;
pub use perf_model::{
    default_workload, MachineModel, PerformanceModel, PredictedTime, ScalingLayer, WorkloadModel,
};
pub use schedule::SweepSchedule;
