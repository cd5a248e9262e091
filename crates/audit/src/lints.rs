//! The lint families.
//!
//! | Family | Id | Rejects |
//! |---|---|---|
//! | Determinism | `D001` | `HashMap` / `HashSet` in result-producing crates (unordered iteration can reach fingerprinted values) |
//! | Determinism | `D002` | `Instant::now` / `SystemTime` outside `cbs-trace` (wall-clock reads in product code) |
//! | Determinism | `D003` | `Ordering::Relaxed` atomics outside `cbs-trace` (unsynchronized values feeding results) |
//! | Determinism | `D004` | float reductions (`sum` / `reduce` / `fold`) chained onto rayon parallel iterators |
//! | Knobs | `K001` | `"CBS_*"` literals naming a knob missing from the README registry |
//! | Knobs | `K002` | registry rows not classified `fingerprint` / `neutral` |
//! | Knobs | `K003` | registry rows no code references (stale docs) |
//! | Allocation | `A001` | raw `vec!` / `with_capacity` / `.collect()` into a `Vec` in the hot per-node modules (assembled operator, real stencil; route through `cbs_sparse` scratch, or iterate without materializing) |
//! | Meta | `M001` | allowlist directive without a `reason="..."` |
//! | Meta | `M002` | allowlist directive naming an unknown lint |
//!
//! Every site-level lint honors
//! `// cbs-audit: allow(<LINT>) reason="..."` on the same line or a
//! standalone comment directly above the site.

use crate::registry::{knob_names, KnobClass, Registry};
use crate::report::Finding;
use crate::scan::{FileKind, SourceFile};

/// Crates whose outputs are fingerprinted (eigenvalues, moments, sweep
/// checkpoints) — the scope of D001.  `cbs-trace` observes, `cbs-bench`
/// reports, `cbs-audit` lints; everything else produces results.
const RESULT_CRATES: &[&str] = &[
    "cbs",
    "cbs-linalg",
    "cbs-sparse",
    "cbs-grid",
    "cbs-dft",
    "cbs-solver",
    "cbs-core",
    "cbs-obm",
    "cbs-parallel",
    "cbs-sweep",
];

/// The hot modules of the per-iteration solve path — the scope of A001.
const HOT_MODULES: &[&str] =
    &["crates/sparse/src/assembled.rs", "crates/sparse/src/real_stencil.rs"];

/// Every lint id the allowlist may name.
pub const LINT_IDS: &[&str] =
    &["D001", "D002", "D003", "D004", "K001", "K002", "K003", "A001", "M001", "M002"];

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// `true` when `needle` occurs in `hay` with no identifier characters
/// touching either end (a poor man's word-boundary match).
fn has_token(hay: &str, needle: &str) -> bool {
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let pre_ok = start == 0 || !is_ident_char(bytes[start - 1]);
        let post_ok = end >= bytes.len() || !is_ident_char(bytes[end]);
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

fn push(
    findings: &mut Vec<Finding>,
    file: &SourceFile,
    idx: usize,
    lint: &'static str,
    msg: String,
) {
    if file.allowed(lint, idx) {
        return;
    }
    findings.push(Finding { path: file.path.clone(), line: idx + 1, lint, message: msg });
}

/// D001 — hash collections in result-producing crates.
fn d001(file: &SourceFile, findings: &mut Vec<Finding>) {
    if file.kind != FileKind::Lib || !RESULT_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        // Imports are not the hazard — the use sites are, and each one is
        // flagged individually.
        if line.in_test || line.code.trim_start().starts_with("use ") {
            continue;
        }
        for ty in ["HashMap", "HashSet"] {
            if has_token(&line.code, ty) {
                push(
                    findings,
                    file,
                    idx,
                    "D001",
                    format!(
                        "`{ty}` in result-producing crate `{}`: unordered iteration is a determinism hazard — use `BTreeMap`/`BTreeSet`, or allow with a reason why this one is never iterated into results",
                        file.crate_name
                    ),
                );
            }
        }
    }
}

/// D002 — wall-clock reads outside `cbs-trace`.
fn d002(file: &SourceFile, findings: &mut Vec<Finding>) {
    if file.kind != FileKind::Lib || file.crate_name == "cbs-trace" {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if line.code.contains("Instant::now") || has_token(&line.code, "SystemTime") {
            push(
                findings,
                file,
                idx,
                "D002",
                "wall-clock read outside `cbs-trace`: route timing through `cbs_trace::timed`/span scopes, or allow with a reason why this timestamp never feeds results".to_string(),
            );
        }
    }
}

/// D003 — relaxed atomics outside `cbs-trace`.
fn d003(file: &SourceFile, findings: &mut Vec<Finding>) {
    if file.kind != FileKind::Lib || file.crate_name == "cbs-trace" {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if line.code.contains("Ordering::Relaxed") {
            push(
                findings,
                file,
                idx,
                "D003",
                "`Ordering::Relaxed` outside `cbs-trace`: relaxed loads/stores feeding fingerprinted values are a determinism hazard — allow only with a reason (e.g. a commutative integer counter)".to_string(),
            );
        }
    }
}

/// D004 — float reductions chained onto rayon parallel iterators.
fn d004(file: &SourceFile, findings: &mut Vec<Finding>) {
    if file.kind != FileKind::Lib {
        return;
    }
    const PAR_ADAPTERS: &[&str] =
        &["par_iter", "into_par_iter", "par_iter_mut", "par_chunks", "par_bridge"];
    const REDUCERS: &[&str] = &[".sum(", ".sum::", ".reduce(", ".fold(", ".product("];
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if !PAR_ADAPTERS.iter().any(|a| has_token(&line.code, a)) {
            continue;
        }
        // Scan the rest of the statement (to the terminating `;` at or
        // below the starting nesting level, capped at 40 lines) for a
        // reduction adapter.
        let mut nest: i64 = 0;
        let mut hit: Option<usize> = None;
        'stmt: for (j, l) in file.lines.iter().enumerate().skip(idx).take(40) {
            if j > idx && l.in_test {
                break;
            }
            if REDUCERS.iter().any(|r| l.code.contains(r)) {
                hit = Some(j);
                break;
            }
            for c in l.code.chars() {
                match c {
                    '(' | '[' | '{' => nest += 1,
                    ')' | ']' | '}' => nest -= 1,
                    ';' if nest <= 0 => break 'stmt,
                    _ => {}
                }
            }
        }
        if hit.is_some() {
            push(
                findings,
                file,
                idx,
                "D004",
                "reduction chained onto a rayon parallel iterator: float accumulation order becomes scheduling-dependent — route through the deterministic-join executor seam, or allow with a reason (e.g. integer-only reduction)".to_string(),
            );
        }
    }
}

/// K001 — knob literals missing from the registry.
fn k001(file: &SourceFile, registry: &Registry, findings: &mut Vec<Finding>) {
    if file.kind == FileKind::Test {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let mut seen = Vec::new();
        for s in &line.strings {
            for name in knob_names(s) {
                if registry.get(&name).is_none() && !seen.contains(&name) {
                    push(
                        findings,
                        file,
                        idx,
                        "K001",
                        format!(
                            "`{name}` is not in the README env-knob table — register it (classified `fingerprint` or `neutral`) or allow with a reason"
                        ),
                    );
                    seen.push(name);
                }
            }
        }
    }
}

/// K002 / K003 — registry-side checks (anchored at README lines).
fn registry_lints(files: &[SourceFile], registry: &Registry, findings: &mut Vec<Finding>) {
    let mut referenced: Vec<&str> = Vec::new();
    for file in files {
        for line in &file.lines {
            for s in &line.strings {
                for name in knob_names(s) {
                    if let Some(row) = registry.get(&name) {
                        if !referenced.contains(&row.name.as_str()) {
                            referenced.push(row.name.as_str());
                        }
                    }
                }
            }
        }
    }
    for row in &registry.rows {
        if row.class == KnobClass::Unclassified {
            findings.push(Finding {
                path: "README.md".to_string(),
                line: row.line,
                lint: "K002",
                message: format!(
                    "knob `{}` is not classified: the second table cell must be exactly `fingerprint` or `neutral`",
                    row.name
                ),
            });
        }
        if !referenced.contains(&row.name.as_str()) {
            findings.push(Finding {
                path: "README.md".to_string(),
                line: row.line,
                lint: "K003",
                message: format!(
                    "knob `{}` is documented but no source references it — stale documentation",
                    row.name
                ),
            });
        }
    }
}

/// A001 — raw allocations in the hot modules.
fn a001(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !HOT_MODULES.contains(&file.path.as_str()) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        // A bare `.collect()` takes its target from the binding, which may
        // sit on another line; in these modules every such target is a `Vec`.
        for pat in ["vec!", "with_capacity(", ".collect()", "collect::<Vec"] {
            if line.code.contains(pat) {
                push(
                    findings,
                    file,
                    idx,
                    "A001",
                    format!(
                        "raw `{}` allocation in a hot module: per-apply buffers must route through the `cbs_sparse` thread-local scratch pool (or be iterated without materializing a `Vec`); allow only setup-time allocations, with a reason",
                        pat.trim_start_matches('.').trim_end_matches(['(', ')'])
                    ),
                );
            }
        }
    }
}

/// M001 / M002 — allowlist hygiene.
fn meta_lints(file: &SourceFile, findings: &mut Vec<Finding>) {
    for allow in &file.allows {
        if !LINT_IDS.contains(&allow.lint.as_str()) {
            findings.push(Finding {
                path: file.path.clone(),
                line: allow.line + 1,
                lint: "M002",
                message: format!("allow directive names unknown lint `{}`", allow.lint),
            });
        }
        if allow.reason.is_empty() {
            findings.push(Finding {
                path: file.path.clone(),
                line: allow.line + 1,
                lint: "M001",
                message: "allow directive without a `reason=\"...\"` — every exemption must say why it is sound".to_string(),
            });
        }
    }
}

/// Run every lint over the scanned files against the knob registry.
pub fn run_lints(files: &[SourceFile], registry: &Registry) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        d001(file, &mut findings);
        d002(file, &mut findings);
        d003(file, &mut findings);
        d004(file, &mut findings);
        k001(file, registry, &mut findings);
        a001(file, &mut findings);
        meta_lints(file, &mut findings);
    }
    registry_lints(files, registry, &mut findings);
    findings.sort();
    findings
}
