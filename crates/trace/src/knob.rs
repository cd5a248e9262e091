//! Typed environment-knob parsing — the single front door for every
//! `CBS_*` environment variable in the workspace.
//!
//! Before this module existed each crate hand-rolled its own
//! `std::env::var(..)` + parse + fallback chain, and the fallbacks had
//! quietly diverged: the bench harness would drop a *configured*
//! `PrecondPolicy` back to the hard default on a typo'd `CBS_PRECOND`,
//! while the library's `from_env` would never have looked at the
//! configured value in the first place.  [`knob`] fixes both problems at
//! once:
//!
//! * **Unset** variables return `None` — the caller keeps whatever default
//!   it already had (a configured policy, a hard-coded constant, …).
//! * **Malformed** values warn once per variable on stderr and then
//!   behave exactly like unset — they can no longer silently select a
//!   *different* non-default behavior than the caller intended.
//! * **Well-formed** values parse through the [`Knob`] trait, which each
//!   policy enum implements next to its `from_name` so the accepted
//!   syntax stays in one place per type.
//!
//! `tests/source_rules.rs` closes the loop: every `CBS_*` name in the
//! workspace's sources must appear, classified as `fingerprint` or
//! `neutral`, in the README's env-knob table.

use std::collections::BTreeSet;
use std::sync::Mutex;

/// A type that can be parsed from an environment-knob value.
///
/// Implementations must be *strict*: return `None` for anything that is
/// not a recognized spelling, so [`knob`] can warn instead of silently
/// snapping to a default the user did not ask for.
pub trait Knob: Sized {
    /// Parse a knob value; `None` means "not a recognized spelling".
    fn parse_knob(value: &str) -> Option<Self>;
}

impl Knob for usize {
    fn parse_knob(value: &str) -> Option<Self> {
        value.trim().parse().ok()
    }
}

impl Knob for u64 {
    fn parse_knob(value: &str) -> Option<Self> {
        value.trim().parse().ok()
    }
}

impl Knob for f64 {
    fn parse_knob(value: &str) -> Option<Self> {
        value.trim().parse().ok()
    }
}

impl Knob for String {
    fn parse_knob(value: &str) -> Option<Self> {
        Some(value.to_owned())
    }
}

/// Names that have already produced a malformed-value warning; each knob
/// warns at most once per process so per-call parse sites (bench binaries,
/// tight config loops) do not spam stderr.
fn warned() -> &'static Mutex<BTreeSet<String>> {
    static WARNED: std::sync::OnceLock<Mutex<BTreeSet<String>>> = std::sync::OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(BTreeSet::new()))
}

fn warn_once(name: &str, detail: &str) {
    let mut set = warned().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if set.insert(name.to_owned()) {
        eprintln!("cbs: warning: ignoring {detail}; {name} falls back to its default");
    }
}

/// Read and parse the environment knob `name`.
///
/// Returns `Some` only for a set, valid-unicode, well-formed value.  An
/// unset variable is silently `None`; a malformed or non-unicode value
/// warns once per process on stderr and is then treated as unset, so the
/// caller's default (hard-coded or configured) always wins over garbage.
pub fn knob<T: Knob>(name: &str) -> Option<T> {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(_)) => {
            warn_once(name, &format!("non-unicode value of {name}"));
            None
        }
        Ok(value) => match T::parse_knob(&value) {
            Some(parsed) => Some(parsed),
            None => {
                warn_once(name, &format!("malformed {name}={value:?}"));
                None
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_is_none() {
        assert_eq!(knob::<usize>("KNOB_TEST_UNSET"), None);
    }

    #[test]
    fn set_parses_and_malformed_defaults() {
        std::env::set_var("KNOB_TEST_USIZE", " 42 ");
        assert_eq!(knob::<usize>("KNOB_TEST_USIZE"), Some(42));
        std::env::set_var("KNOB_TEST_USIZE", "forty-two");
        assert_eq!(knob::<usize>("KNOB_TEST_USIZE"), None);
        std::env::set_var("KNOB_TEST_F64", "0.5");
        assert_eq!(knob::<f64>("KNOB_TEST_F64"), Some(0.5));
    }

    #[test]
    fn warns_once_per_name() {
        std::env::set_var("KNOB_TEST_WARN", "bogus");
        assert_eq!(knob::<usize>("KNOB_TEST_WARN"), None);
        assert_eq!(knob::<usize>("KNOB_TEST_WARN"), None);
        let set = warned().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        assert!(set.contains("KNOB_TEST_WARN"));
    }
}
