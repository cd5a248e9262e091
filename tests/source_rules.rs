//! The static rules clippy cannot express, checked on the text of every
//! product source (`src/`, `examples/` and `crates/*/src/`):
//!
//! | rule | rejects |
//! |---|---|
//! | `D003` | `Ordering::Relaxed`: relaxed atomics that feed results are a determinism hazard |
//! | `D004` | a `sum` / `reduce` / `fold` / `product` chained onto a rayon parallel iterator: the float accumulation order would follow the schedule |
//! | `E001` | a `CBS_*` name or a `std::env::var` / `var_os` call: the library and the examples read no environment variable |
//!
//! The other rules are clippy configuration (`clippy.toml` and
//! `[workspace.lints]`).  A line is exempt from one rule by a marker on the
//! same line, `// source-rule: allow(D003) reason="why it is sound"`; a
//! marker without a reason, or naming an unknown rule, is itself a finding.
//! Lines that start with `//` are comments and are not scanned.

use std::fs;
use std::path::Path;

const RULES: [&str; 3] = ["D003", "D004", "E001"];
const MARKER: &str = "source-rule: allow(";
const PAR_ADAPTERS: [&str; 5] =
    ["par_iter", "into_par_iter", "par_iter_mut", "par_chunks", "par_bridge"];
const REDUCERS: [&str; 5] = [".sum(", ".sum::", ".reduce(", ".fold(", ".product("];

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// `true` when `word` occurs in `line` with no identifier character on either side.
fn has_word(line: &str, word: &str) -> bool {
    line.match_indices(word).any(|(at, _)| {
        !line[..at].ends_with(is_ident) && !line[at + word.len()..].starts_with(is_ident)
    })
}

/// `true` when `line` names a `CBS_*` variable or reads the environment.
fn reads_env(line: &str) -> bool {
    line.contains("env::var")
        || line.match_indices("CBS_").any(|(at, _)| !line[..at].ends_with(is_ident))
}

/// `true` when the statement that starts at `lines[0]` reaches a reducer
/// before its terminating `;` (at most 40 lines on).
fn reduces(lines: &[&str]) -> bool {
    let mut nest = 0i64;
    for line in lines.iter().take(40) {
        if REDUCERS.iter().any(|r| line.contains(r)) {
            return true;
        }
        for c in line.chars() {
            match c {
                '(' | '[' | '{' => nest += 1,
                ')' | ']' | '}' => nest -= 1,
                ';' if nest <= 0 => return false,
                _ => {}
            }
        }
    }
    false
}

/// Every finding of the rules on `files` (repo-relative path, text), as
/// (`path:line`, rule).
fn check(files: &[(String, String)]) -> Vec<(String, &'static str)> {
    let mut findings = Vec::new();
    for (path, text) in files {
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if line.trim_start().starts_with("//") {
                continue;
            }
            let at = format!("{path}:{}", i + 1);
            let exempt = line.split_once(MARKER).and_then(|(_, marker)| {
                let (rule, tail) = marker.split_once(')').unwrap_or((marker, ""));
                let reason =
                    tail.trim_start().strip_prefix("reason=\"").and_then(|r| r.split_once('"'));
                let problem = match reason.map_or("", |r| r.0.trim()) {
                    "" => "no-reason",
                    _ if !RULES.contains(&rule) => "unknown-rule",
                    _ => return Some(rule),
                };
                findings.push((at.clone(), problem));
                None
            });
            let mut hit = |rule: &'static str| {
                if exempt != Some(rule) {
                    findings.push((at.clone(), rule));
                }
            };
            if line.contains("Ordering::Relaxed") {
                hit("D003");
            }
            if PAR_ADAPTERS.iter().any(|a| has_word(line, a)) && reduces(&lines[i..]) {
                hit("D004");
            }
            if reads_env(line) {
                hit("E001");
            }
        }
    }
    findings
}

/// Every `.rs` file under the scanned roots of the repo at `root`.
fn sources(root: &Path) -> Vec<(String, String)> {
    let mut dirs = vec![root.join("src"), root.join("examples")];
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        dirs.push(krate.expect("crate dir").path().join("src"));
    }
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = fs::read_dir(&dir) else { continue };
        for path in entries.map(|e| e.expect("dir entry").path()) {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).expect("under root");
                let rel = rel.to_string_lossy().replace('\\', "/");
                files.push((rel, fs::read_to_string(&path).expect("readable source")));
            }
        }
    }
    files.sort();
    files
}

#[test]
fn the_workspace_keeps_the_source_rules() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = sources(root);
    assert!(files.iter().any(|(path, _)| path == "crates/core/src/qep.rs"), "scan missed cbs-core");
    let findings = check(&files);
    assert!(findings.is_empty(), "source-rule findings: {findings:?}");
}

/// The rules that fire on `code` at `path`.
fn rules(path: &str, code: &str) -> Vec<&'static str> {
    check(&[(path.to_string(), code.to_string())]).into_iter().map(|f| f.1).collect()
}

#[test]
fn each_rule_fires_once_on_its_bad_snippet() {
    let relaxed = "fn bump(n: &AtomicUsize) {\n    n.fetch_add(1, Ordering::Relaxed);\n}\n";
    assert_eq!(rules("crates/core/src/bad.rs", relaxed), ["D003"]);
    assert_eq!(rules("crates/trace/src/lib.rs", relaxed), ["D003"]);
    let reduce = "fn total(xs: &[f64]) -> f64 {\n    xs.par_iter()\n        .map(|x| x * 2.0)\n        .sum()\n}\n";
    assert_eq!(rules("crates/core/src/bad.rs", reduce), ["D004"]);
    let env = "fn knob() -> Option<String> {\n    std::env::var(\"CBS_UNREGISTERED\").ok()\n}\n";
    assert_eq!(rules("crates/core/src/bad.rs", env), ["E001"]);
    assert_eq!(rules("examples/bad.rs", "let home = std::env::var_os(\"HOME\");\n"), ["E001"]);
    assert_eq!(rules("examples/bad.rs", "const N: &str = \"CBS_NRH\";\n"), ["E001"]);
    assert!(rules("examples/good.rs", "const XCBS_N: usize = 8;\n").is_empty());
}

#[test]
fn a_marker_exempts_one_rule_only_with_a_reason() {
    let path = "crates/core/src/bad.rs";
    let line = "n.fetch_add(1, Ordering::Relaxed); // source-rule: allow(D003)";
    assert!(rules(path, &format!("{line} reason=\"an integer counter\"")).is_empty());
    assert_eq!(rules(path, &format!("{line} reason=\"\"")), ["no-reason", "D003"]);
    assert_eq!(rules(path, line), ["no-reason", "D003"]);
    let other = "n.fetch_add(1, Ordering::Relaxed); // source-rule: allow(D004) reason=\"no\"";
    assert_eq!(rules(path, other), ["D003"]);
    let unknown = "let a = 1; // source-rule: allow(Z999) reason=\"no such rule\"";
    assert_eq!(rules(path, unknown), ["unknown-rule"]);
}
