//! # cbs-parallel
//!
//! The execution layer of the paper's method: [`TaskExecutor`] with
//! [`SerialExecutor`] / [`RayonExecutor`] — the pluggable, order-preserving
//! batch-execution seam the Sakurai-Sugiura shifted-solve pool in
//! `cbs-core` fans out through.

#![warn(missing_docs)]

pub mod executor;

pub use executor::{RayonExecutor, SerialExecutor, TaskExecutor};
