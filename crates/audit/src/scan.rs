//! Workspace walking and the hand-rolled line/token scanner.
//!
//! The scanner does **not** parse Rust — it runs a small character-level
//! state machine over each source file that is just smart enough to
//! separate, per line, (a) code with comments stripped and string
//! *contents* blanked, (b) comment text, and (c) the contents of string
//! literals.  On top of that a second pass tracks brace depth to mark
//! `#[cfg(test)]` / `#[test]` regions, so lints can distinguish product
//! code from test code without a type checker.

use std::fs;
use std::path::{Path, PathBuf};

/// Which target directory a file came from — decides which lints apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// `src/` — library / binary product code.
    Lib,
    /// `tests/` — integration-test code (test rules apply to every line).
    Test,
    /// `examples/` — runnable examples.
    Example,
}

/// One scanned source line, split into its lint-relevant views.
#[derive(Clone, Debug, Default)]
pub struct Line {
    /// Code with comments removed and string-literal contents blanked
    /// (delimiters kept, so token shapes survive).
    pub code: String,
    /// Plain comment text of the line (`//`, `/* .. */`) — the channel
    /// allow directives live in.
    pub comment: String,
    /// Doc-comment text (`///`, `//!`) — never parsed for directives, so
    /// documentation *about* the allowlist syntax cannot trigger it.
    pub doc: String,
    /// Contents of string literals that *start* on this line.
    pub strings: Vec<String>,
    /// `true` inside a `#[cfg(test)]` / `#[test]` item (or anywhere in a
    /// `tests/` file).
    pub in_test: bool,
}

/// A `// cbs-audit: allow(<LINT>) reason="..."` directive.
#[derive(Clone, Debug)]
pub struct Allow {
    /// 0-based line of the directive comment.
    pub line: usize,
    /// The allowed lint id, upper-cased (`D001`, `A001`, …).
    pub lint: String,
    /// The mandatory justification text (empty = missing → meta finding).
    pub reason: String,
    /// 0-based lines the directive covers: itself, skipped attribute
    /// lines, and the next code line.
    pub covers: Vec<usize>,
}

/// One scanned file: workspace-relative path, owning crate, and lines.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Crate name (`cbs-sparse`, …; the facade and its `tests/` are `cbs`).
    pub crate_name: String,
    /// Originating target directory.
    pub kind: FileKind,
    /// Per-line scan results.
    pub lines: Vec<Line>,
    /// Parsed allowlist directives.
    pub allows: Vec<Allow>,
}

impl SourceFile {
    /// `true` when `line` (0-based) is excused from `lint` by an allowlist
    /// directive with a non-empty reason.
    pub fn allowed(&self, lint: &str, line: usize) -> bool {
        self.allows.iter().any(|a| {
            a.lint.eq_ignore_ascii_case(lint) && !a.reason.is_empty() && a.covers.contains(&line)
        })
    }
}

/// Character-level scanner state.
enum State {
    Code,
    LineComment,
    DocComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Scan file `content` presented under the workspace-relative `path`.
pub fn scan_source(path: &str, content: &str) -> SourceFile {
    let kind = kind_of(path);
    let crate_name = crate_of(path);
    let mut lines: Vec<Line> = Vec::new();

    let mut state = State::Code;
    for raw in content.lines() {
        let mut line = Line::default();
        // A line comment never continues across lines.
        if matches!(state, State::LineComment | State::DocComment) {
            state = State::Code;
        }
        let b: Vec<char> = raw.chars().collect();
        let mut i = 0usize;
        let mut cur_string = String::new();
        while i < b.len() {
            let c = b[i];
            let next = b.get(i + 1).copied();
            match state {
                State::Code => {
                    if c == '/' && next == Some('/') {
                        i += 2;
                        let is_doc = b.get(i) == Some(&'/') || b.get(i) == Some(&'!');
                        while b.get(i) == Some(&'/') || b.get(i) == Some(&'!') {
                            i += 1;
                        }
                        state = if is_doc { State::DocComment } else { State::LineComment };
                        continue;
                    }
                    if c == '/' && next == Some('*') {
                        state = State::BlockComment(1);
                        i += 2;
                        continue;
                    }
                    if c == 'r' && (next == Some('"') || next == Some('#')) {
                        // Possible raw string: r"..." or r#"..."# (any hashes).
                        let mut j = i + 1;
                        let mut hashes = 0u32;
                        while b.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if b.get(j) == Some(&'"') {
                            line.code.push('"');
                            state = State::RawStr(hashes);
                            cur_string.clear();
                            i = j + 1;
                            continue;
                        }
                    }
                    if c == '"' {
                        line.code.push('"');
                        state = State::Str;
                        cur_string.clear();
                        i += 1;
                        continue;
                    }
                    if c == '\'' {
                        // Char literal or lifetime.  `'a` (lifetime) has no
                        // closing quote nearby; a char literal closes after
                        // one (possibly escaped) char.
                        let is_char_lit = match next {
                            Some('\\') => true,
                            Some(_) => b.get(i + 2) == Some(&'\''),
                            None => false,
                        };
                        if is_char_lit {
                            line.code.push('\'');
                            state = State::Char;
                            i += 1;
                            continue;
                        }
                        line.code.push(c);
                        i += 1;
                        continue;
                    }
                    line.code.push(c);
                    i += 1;
                }
                State::LineComment => {
                    line.comment.push(c);
                    i += 1;
                }
                State::DocComment => {
                    line.doc.push(c);
                    i += 1;
                }
                State::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        state =
                            if depth == 1 { State::Code } else { State::BlockComment(depth - 1) };
                        i += 2;
                        continue;
                    }
                    if c == '/' && next == Some('*') {
                        state = State::BlockComment(depth + 1);
                        i += 2;
                        continue;
                    }
                    line.comment.push(c);
                    i += 1;
                }
                State::Str => {
                    if c == '\\' {
                        // Keep the escaped char in the literal text (enough
                        // for knob-name extraction), skip both.
                        if let Some(n) = next {
                            cur_string.push(n);
                        }
                        i += 2;
                        continue;
                    }
                    if c == '"' {
                        line.code.push('"');
                        line.strings.push(std::mem::take(&mut cur_string));
                        state = State::Code;
                        i += 1;
                        continue;
                    }
                    cur_string.push(c);
                    i += 1;
                }
                State::RawStr(hashes) => {
                    if c == '"' {
                        let mut j = i + 1;
                        let mut seen = 0u32;
                        while seen < hashes && b.get(j) == Some(&'#') {
                            seen += 1;
                            j += 1;
                        }
                        if seen == hashes {
                            line.code.push('"');
                            line.strings.push(std::mem::take(&mut cur_string));
                            state = State::Code;
                            i = j;
                            continue;
                        }
                    }
                    cur_string.push(c);
                    i += 1;
                }
                State::Char => {
                    if c == '\\' {
                        i += 2;
                        continue;
                    }
                    if c == '\'' {
                        line.code.push('\'');
                        state = State::Code;
                        i += 1;
                        continue;
                    }
                    i += 1;
                }
            }
        }
        // Unterminated string at end of line (multi-line literal): record
        // what we have so far so knob names in it are still seen.
        if matches!(state, State::Str | State::RawStr(_)) && !cur_string.is_empty() {
            line.strings.push(cur_string.clone());
            cur_string.clear();
        }
        lines.push(line);
    }

    mark_test_regions(&mut lines, kind);
    let allows = parse_allows(&lines);
    SourceFile { path: path.to_string(), crate_name, kind, lines, allows }
}

/// Mark `#[cfg(test)]` / `#[test]` items via brace-depth tracking.
fn mark_test_regions(lines: &mut [Line], kind: FileKind) {
    if kind == FileKind::Test {
        for l in lines.iter_mut() {
            l.in_test = true;
        }
        return;
    }
    let mut depth = 0usize;
    let mut pending = false;
    let mut test_depth: Option<usize> = None;
    for line in lines.iter_mut() {
        if test_depth.is_some() || pending {
            line.in_test = true;
        }
        let code = line.code.clone();
        if code.contains("#[cfg(test")
            || code.contains("#[test]")
            || code.contains("#[cfg(all(test")
        {
            pending = true;
            line.in_test = true;
        }
        let mut opened_in_line = false;
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened_in_line = true;
                    if pending && test_depth.is_none() {
                        test_depth = Some(depth);
                        pending = false;
                        line.in_test = true;
                    }
                }
                '}' => {
                    if test_depth == Some(depth) {
                        test_depth = None;
                        line.in_test = true;
                    }
                    depth = depth.saturating_sub(1);
                }
                _ => {}
            }
        }
        // `#[cfg(test)] use foo;` — a braceless cfg'd item ends the pending
        // region at its semicolon.
        if pending && !opened_in_line && code.trim_end().ends_with(';') {
            pending = false;
        }
    }
}

fn is_attr_only(code: &str) -> bool {
    let t = code.trim();
    t.starts_with("#[") || t.starts_with("#![")
}

/// Parse `cbs-audit: allow(<LINT>) reason="..."` directives out of the
/// comment text and compute the lines each one covers.
fn parse_allows(lines: &[Line]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let Some(pos) = line.comment.find("cbs-audit:") else { continue };
        let rest = &line.comment[pos + "cbs-audit:".len()..];
        let Some(open) = rest.find("allow(") else { continue };
        let after = &rest[open + "allow(".len()..];
        let Some(close) = after.find(')') else { continue };
        let lint = after[..close].trim().to_ascii_uppercase();
        let tail = &after[close + 1..];
        let reason = tail
            .find("reason=\"")
            .map(|r| &tail[r + "reason=\"".len()..])
            .and_then(|r| r.find('"').map(|end| r[..end].trim().to_string()))
            .unwrap_or_default();
        // Coverage: the directive's own line; if it is a standalone
        // comment, extend over following attribute/empty lines to the next
        // code line.
        let mut covers = vec![idx];
        if line.code.trim().is_empty() {
            let mut j = idx + 1;
            let mut budget = 10usize;
            while j < lines.len() && budget > 0 {
                covers.push(j);
                let code = lines[j].code.trim();
                if !code.is_empty() && !is_attr_only(&lines[j].code) {
                    break;
                }
                j += 1;
                budget -= 1;
            }
        }
        allows.push(Allow { line: idx, lint, reason, covers });
    }
    allows
}

fn kind_of(path: &str) -> FileKind {
    let mut parts = path.split('/');
    // Either `src|tests|...` at the root or `crates/<name>/<dir>/...`.
    let first = parts.next().unwrap_or("");
    let dir = if first == "crates" {
        parts.next();
        parts.next().unwrap_or("")
    } else {
        first
    };
    match dir {
        "tests" => FileKind::Test,
        "examples" => FileKind::Example,
        _ => FileKind::Lib,
    }
}

fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return format!("cbs-{name}");
        }
    }
    "cbs".to_string()
}

/// Walk the workspace rooted at `root` and scan every `.rs` source under
/// the standard target directories, skipping `vendor/`, `target/` and the
/// audit fixtures tree.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut rel_dirs: Vec<PathBuf> =
        ["src", "tests", "examples"].iter().map(PathBuf::from).collect();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut names: Vec<_> = fs::read_dir(&crates_dir)?
            .filter_map(std::result::Result::ok)
            .filter(|e| e.path().is_dir())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        for name in names {
            for sub in ["src", "tests", "examples"] {
                rel_dirs.push(PathBuf::from("crates").join(&name).join(sub));
            }
        }
    }
    let mut files = Vec::new();
    for rel in rel_dirs {
        let abs = root.join(&rel);
        if !abs.is_dir() {
            continue;
        }
        collect_rs(&abs, &mut files)?;
    }
    files.sort();
    let mut scanned = Vec::new();
    for abs in files {
        let rel = abs
            .strip_prefix(root)
            .unwrap_or(&abs)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if rel.starts_with("crates/audit/tests/fixtures/") {
            continue;
        }
        let content = fs::read_to_string(&abs)?;
        scanned.push(scan_source(&rel, &content));
    }
    Ok(scanned)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name == "target" || name == "vendor" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
