//! Findings and their plain-text / JSON renderings
//! (hand-rolled JSON — the crate is dependency-free).

use std::fmt::Write as _;

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Lint id (`D001`, …).
    pub lint: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render findings as a JSON array (stable order: path, line, lint).
pub fn findings_json(findings: &[Finding]) -> String {
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"path\": \"{}\", \"line\": {}, \"lint\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&f.path),
            f.line,
            f.lint,
            json_escape(&f.message)
        );
        out.push_str(if i + 1 == findings.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

/// Render findings as `path:line: LINT message` lines.
pub fn findings_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{}:{}: {} {}", f.path, f.line, f.lint, f.message);
    }
    out
}
