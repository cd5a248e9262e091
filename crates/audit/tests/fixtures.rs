//! Fixture tests: every lint family has a known-bad snippet under
//! `tests/fixtures/` on which it fires **exactly once**, plus positive
//! fixtures showing the allowlist suppressing the same patterns.  `scan_workspace` skips the fixture tree, so these
//! snippets never leak into the live audit.

use cbs_audit::{parse_registry, run_lints, scan_source, Registry};

/// Lint ids firing on `content` scanned as if it lived at `path`, against
/// an empty knob registry.
fn lints_for(path: &str, content: &str) -> Vec<&'static str> {
    let files = vec![scan_source(path, content)];
    run_lints(&files, &Registry::default()).iter().map(|f| f.lint).collect()
}

#[test]
fn d001_hash_collection_fires_exactly_once() {
    let got = lints_for("crates/core/src/bad.rs", include_str!("fixtures/d001_hash.rs"));
    assert_eq!(got, ["D001"]);
}

#[test]
fn d002_wall_clock_fires_exactly_once() {
    let got = lints_for("crates/core/src/bad.rs", include_str!("fixtures/d002_clock.rs"));
    assert_eq!(got, ["D002"]);
}

#[test]
fn d003_relaxed_atomic_fires_exactly_once() {
    let got = lints_for("crates/core/src/bad.rs", include_str!("fixtures/d003_relaxed.rs"));
    assert_eq!(got, ["D003"]);
}

#[test]
fn d004_parallel_float_reduction_fires_exactly_once() {
    let got = lints_for("crates/core/src/bad.rs", include_str!("fixtures/d004_par_reduce.rs"));
    assert_eq!(got, ["D004"]);
}

#[test]
fn a001_hot_allocation_fires_exactly_once() {
    // Only the hot assembled module is in scope, so the same snippet is
    // clean elsewhere.
    let hot = lints_for("crates/sparse/src/assembled.rs", include_str!("fixtures/a001_alloc.rs"));
    assert_eq!(hot, ["A001"]);
    let cold = lints_for("crates/core/src/bad.rs", include_str!("fixtures/a001_alloc.rs"));
    assert!(cold.is_empty(), "A001 fired outside the hot modules: {cold:?}");
}

#[test]
fn a001_hot_collect_fires_exactly_once() {
    // Materializing a `Vec` of column slices per apply is the allocation the
    // ILU(0) block sweeps used to make twice per call.
    let hot = lints_for("crates/sparse/src/assembled.rs", include_str!("fixtures/a001_collect.rs"));
    assert_eq!(hot, ["A001"]);
    let cold = lints_for("crates/core/src/bad.rs", include_str!("fixtures/a001_collect.rs"));
    assert!(cold.is_empty(), "A001 fired outside the hot modules: {cold:?}");
}

#[test]
fn k001_unregistered_knob_fires_exactly_once() {
    let got = lints_for("crates/core/src/bad.rs", include_str!("fixtures/k001_knob.rs"));
    assert_eq!(got, ["K001"]);
}

#[test]
fn k002_and_k003_fire_once_each_from_the_registry() {
    // `CBS_FIXA` is referenced by code but its class cell is junk (K002);
    // `CBS_FIXB` is classified but nothing references it (K003).
    let registry = parse_registry(include_str!("fixtures/registry_bad.md"));
    let files =
        vec![scan_source("crates/core/src/knob_ref.rs", include_str!("fixtures/registry_code.rs"))];
    let findings = run_lints(&files, &registry);
    let got: Vec<&str> = findings.iter().map(|f| f.lint).collect();
    assert_eq!(got, ["K002", "K003"]);
    assert!(findings[0].message.contains("CBS_FIXA"), "{}", findings[0].message);
    assert!(findings[1].message.contains("CBS_FIXB"), "{}", findings[1].message);
}

#[test]
fn m001_reasonless_allow_fires_exactly_once() {
    let got = lints_for("crates/core/src/bad.rs", include_str!("fixtures/m001_no_reason.rs"));
    assert_eq!(got, ["M001"]);
}

#[test]
fn m002_unknown_lint_allow_fires_exactly_once() {
    let got = lints_for("crates/core/src/bad.rs", include_str!("fixtures/m002_unknown_lint.rs"));
    assert_eq!(got, ["M002"]);
}

#[test]
fn allow_directives_suppress_everything() {
    // The same hazards as the bad fixtures — wall clock, hot allocation —
    // each carrying its allow justification.
    let file =
        scan_source("crates/sparse/src/assembled.rs", include_str!("fixtures/allowed_clean.rs"));
    let findings = run_lints(&[file], &Registry::default());
    assert!(findings.is_empty(), "expected a clean fixture, got {findings:?}");
}
