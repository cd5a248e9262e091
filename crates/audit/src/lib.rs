//! `cbs-audit`: the repo-invariant static-analysis pass.
//!
//! The workspace's headline guarantee — bit-identical results across the
//! `{executor} × {precond}` policy matrix, resumable
//! checkpoints, SIMD lanes bitwise-equal to scalar — is enforced
//! dynamically by the test suite.  This crate adds the static half: a
//! dependency-free line/token scanner (no `syn`, no regex) that rejects
//! determinism hazards, unregistered environment knobs and hot-path
//! allocations *before* they reach a bench run, wired as a blocking CI
//! gate (`unsafe` needs no lint: the workspace sets `unsafe_code =
//! "forbid"`, so the compiler rejects it):
//!
//! ```text
//! cargo run -p cbs-audit -- check [--json]
//! ```
//!
//! See [`lints`] for the lint families and [`scan`] for the allowlist
//! syntax (`// cbs-audit: allow(<LINT>) reason="..."`).

#![warn(missing_docs)]

pub mod lints;
pub mod registry;
pub mod report;
pub mod scan;

pub use lints::run_lints;
pub use registry::{parse_registry, Registry};
pub use report::Finding;
pub use scan::{scan_source, scan_workspace, SourceFile};

use std::path::Path;

/// The result of one full `check` run.
#[derive(Clone, Debug)]
pub struct Audit {
    /// Lint findings (empty = the workspace is clean).
    pub findings: Vec<Finding>,
}

impl Audit {
    /// `true` when no lint fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Scan the workspace rooted at `root` (its `README.md` is the knob
/// registry) and run every lint.
pub fn audit_workspace(root: &Path) -> std::io::Result<Audit> {
    let files = scan_workspace(root)?;
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap_or_default();
    let registry = parse_registry(&readme);
    Ok(Audit { findings: run_lints(&files, &registry) })
}
