//! The machine-checkable env-knob registry: the README's knob table.
//!
//! The K-lints parse the same markdown table the README shows readers, so
//! documentation and code cannot drift apart: every `"CBS_*"` string
//! literal in the workspace must name a registered knob ([`super::lints`]
//! K001), every registered knob must be classified `fingerprint` or
//! `neutral` (K002), and every registered knob must still be referenced by
//! code (K003).
//!
//! Expected row shape (a GitHub-flavored markdown table):
//!
//! ```text
//! | `CBS_PRECOND=ilu0` … | fingerprint | effect text … |
//! ```
//!
//! The knob name is the first `CBS_[A-Z0-9_]+` token of the first cell;
//! the class is the full text of the second cell.

/// How a knob relates to the repo's bit-reproducibility contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KnobClass {
    /// Changes the floating-point trajectory or the computed system, so it
    /// participates in result fingerprints / sweep checkpoints.
    Fingerprint,
    /// Bitwise-neutral: a speed / observability / harness dial that never
    /// changes fingerprinted values.
    Neutral,
    /// The class cell did not say `fingerprint` or `neutral` — a K002
    /// finding.
    Unclassified,
}

/// One registered knob row.
#[derive(Clone, Debug)]
pub struct KnobRow {
    /// Knob name (`CBS_PRECOND`, …).
    pub name: String,
    /// Parsed classification.
    pub class: KnobClass,
    /// 1-based README line of the row.
    pub line: usize,
}

/// The parsed registry.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    /// Rows in README order.
    pub rows: Vec<KnobRow>,
}

impl Registry {
    /// Look up a knob row by name.
    pub fn get(&self, name: &str) -> Option<&KnobRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Extract every `CBS_[A-Z0-9_]+` token from `text`.
pub fn knob_names(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(pos) = text[i..].find("CBS_") {
        let start = i + pos;
        let mut end = start + "CBS_".len();
        while end < bytes.len()
            && (bytes[end].is_ascii_uppercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        // Require at least one character after the prefix and no
        // identifier character immediately before (so `MY_CBS_X` or
        // `CBS_` alone do not count).
        let prefixed =
            start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        if end > start + "CBS_".len() && !prefixed {
            out.push(text[start..end].trim_end_matches('_').to_string());
        }
        i = end;
    }
    out
}

/// Parse the knob registry out of README markdown.
pub fn parse_registry(readme: &str) -> Registry {
    let mut rows = Vec::new();
    for (idx, line) in readme.lines().enumerate() {
        let trimmed = line.trim_start();
        if !trimmed.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = trimmed.trim_matches('|').split('|').collect();
        if cells.len() < 2 {
            continue;
        }
        let first = cells[0];
        // Only rows whose first cell *starts* with a backticked CBS knob
        // are registry rows (prose tables mentioning knobs elsewhere in a
        // later cell are not).
        if !first.trim().starts_with("`CBS_") {
            continue;
        }
        let Some(name) = knob_names(first).into_iter().next() else { continue };
        let class = match cells[1].trim() {
            "fingerprint" => KnobClass::Fingerprint,
            "neutral" => KnobClass::Neutral,
            _ => KnobClass::Unclassified,
        };
        rows.push(KnobRow { name, class, line: idx + 1 });
    }
    Registry { rows }
}
