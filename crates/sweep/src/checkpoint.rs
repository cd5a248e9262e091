//! Incremental sweep checkpointing.
//!
//! A [`SweepCheckpoint`] is written after every completed scan energy and
//! restores a killed sweep **bit-identically**: it carries the completed
//! [`EnergyRecord`]s (in completion order, which is grid order) and a
//! bit-exact fingerprint of the configuration and energy grid, verified on
//! resume.  Every solve starts cold, so finished energies' results are all
//! a resume needs.
//!
//! The on-disk format is a line-oriented text file in which every `f64` is
//! stored as the 16-hex-digit bit pattern of `f64::to_bits` — exact
//! round-tripping is what makes resumed sweeps reproduce uninterrupted ones
//! down to the last bit.  A `checksum` line before the closing `end` holds
//! the FNV-1a 64 hash of every byte before it, so a flipped digit is a
//! [`CheckpointError::Malformed`] checkpoint, never a silently wrong band.
//! The encoding is hand-rolled here: nothing in the workspace serializes
//! through a framework.

use std::fmt::Write as _;
use std::path::Path;

use cbs_core::CbsPoint;
use cbs_linalg::c64;

use crate::sweep::{EnergyRecord, EnergyStats};

/// Everything needed to resume a killed sweep bit-identically.
#[derive(Clone, Debug, Default)]
pub struct SweepCheckpoint {
    /// Bit-exact configuration + period fingerprint
    /// ([`crate::SweepConfig::fingerprint`]).
    pub fingerprint: Vec<u64>,
    /// The sweep's energy grid, ascending.
    pub energies: Vec<f64>,
    /// Completed energies, in completion order: a prefix of
    /// [`energies`](Self::energies).
    pub records: Vec<EnergyRecord>,
}

/// Why a checkpoint could not be used.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Truncated, corrupt (checksum mismatch) or otherwise unparseable
    /// checkpoint text.
    Malformed(String),
    /// A checkpoint written by any on-disk format version other than the
    /// current one — older or newer, its counters and sections cannot be
    /// restored faithfully.  Delete the checkpoint and re-sweep.
    IncompatibleVersion {
        /// The magic line found in the file.
        found: String,
    },
    /// The checkpoint parses but does not match the sweep being resumed
    /// (configuration fingerprint or energy grid differ, or the records are
    /// not a prefix of the grid).
    Mismatch(String),
    /// Filesystem error while reading or writing the checkpoint.
    Io(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Malformed(m) => write!(f, "sweep checkpoint error: {m}"),
            Self::IncompatibleVersion { found } => write!(
                f,
                "sweep checkpoint error: incompatible checkpoint version (found `{found}`, \
                 expected `{MAGIC}`) — delete the checkpoint and re-sweep"
            ),
            Self::Mismatch(m) => write!(f, "sweep checkpoint error: {m}"),
            Self::Io(m) => write!(f, "sweep checkpoint error: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

// The on-disk format version.  Every change to the layout or to the
// arithmetic behind the stored records bumps it (CHANGES.md keeps the
// history), and any other version is refused with
// [`CheckpointError::IncompatibleVersion`], never read with misaligned or
// silently zeroed fields.
const MAGIC: &str = "cbs-sweep-checkpoint v23";

/// Prefix shared by every version's magic line; anything with this prefix
/// but the wrong version is an incompatible (not malformed) checkpoint.
const MAGIC_PREFIX: &str = "cbs-sweep-checkpoint v";

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn err(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Malformed(msg.into())
}

struct Tokens<'s> {
    line_no: usize,
    toks: std::str::SplitWhitespace<'s>,
}

impl<'s> Tokens<'s> {
    fn next(&mut self) -> Result<&'s str, CheckpointError> {
        self.toks.next().ok_or_else(|| err(format!("line {}: missing token", self.line_no)))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        let t = self.next()?;
        u64::from_str_radix(t, 16)
            .map(f64::from_bits)
            .map_err(|_| err(format!("line {}: bad f64 bits `{t}`", self.line_no)))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let t = self.next()?;
        u64::from_str_radix(t, 16).map_err(|_| err(format!("line {}: bad u64 `{t}`", self.line_no)))
    }

    fn usize(&mut self) -> Result<usize, CheckpointError> {
        Ok(self.u64()? as usize)
    }

    fn bool(&mut self) -> Result<bool, CheckpointError> {
        Ok(self.u64()? != 0)
    }
}

/// FNV-1a, 64 bit, of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `body` closed by its `checksum` line and `end`.
fn sealed(mut body: String) -> String {
    let _ = writeln!(body, "checksum {:016x}", fnv1a(body.as_bytes()));
    body.push_str("end\n");
    body
}

impl SweepCheckpoint {
    /// Serialize to the line-oriented bit-exact text format.
    pub fn serialize_to_string(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC}");
        let _ = write!(out, "fingerprint {:x}", self.fingerprint.len());
        for f in &self.fingerprint {
            let _ = write!(out, " {f:016x}");
        }
        out.push('\n');
        let _ = write!(out, "grid {:x}", self.energies.len());
        for &e in &self.energies {
            let _ = write!(out, " {}", hex(e));
        }
        out.push('\n');
        let _ = writeln!(out, "records {:x}", self.records.len());
        for r in &self.records {
            let s = &r.stats;
            let _ = writeln!(
                out,
                "record {} {:x} {:x} {:x} {:x} {:x} {:x} {:x} {:x} {:x}",
                hex(r.energy),
                s.bicg_iterations,
                s.matvecs,
                s.operator_traversals,
                s.solves,
                s.unconverged,
                s.accepted,
                s.discarded,
                s.numerical_rank,
                r.points.len(),
            );
            for p in &r.points {
                let _ = writeln!(
                    out,
                    "point {} {} {} {} {} {:x} {}",
                    hex(p.energy),
                    hex(p.lambda.re),
                    hex(p.lambda.im),
                    hex(p.k_re),
                    hex(p.k_im),
                    p.propagating as u8,
                    hex(p.residual),
                );
            }
        }
        sealed(out)
    }

    /// Parse the format produced by [`serialize_to_string`](Self::serialize_to_string).
    pub fn parse(text: &str) -> Result<Self, CheckpointError> {
        struct LineReader<'s> {
            inner: std::iter::Enumerate<std::str::Lines<'s>>,
        }
        impl<'s> LineReader<'s> {
            fn expect(&mut self, tag: &str) -> Result<Tokens<'s>, CheckpointError> {
                let (i, line) =
                    self.inner.next().ok_or_else(|| err(format!("truncated: expected `{tag}`")))?;
                let line_no = i + 1;
                let mut toks = Tokens { line_no, toks: line.split_whitespace() };
                let head = toks.next()?;
                if head != tag {
                    return Err(err(format!("line {line_no}: expected `{tag}`, found `{head}`")));
                }
                Ok(toks)
            }
        }
        let mut lines = LineReader { inner: text.lines().enumerate() };

        let (_, magic) = lines.inner.next().ok_or_else(|| err("empty checkpoint"))?;
        let magic = magic.trim();
        if magic != MAGIC {
            // The one version check: any other format — older or newer —
            // announces itself through the shared magic prefix and is a
            // version problem, not a parse error, so the caller can tell
            // the user to delete and re-sweep.
            if magic.starts_with(MAGIC_PREFIX) {
                return Err(CheckpointError::IncompatibleVersion { found: magic.to_string() });
            }
            return Err(err(format!("bad magic line `{magic}`")));
        }
        // Every byte before the `checksum` line is covered; its digits are
        // compared as written, so not even their case may change.
        let at = text.rfind("\nchecksum ").ok_or_else(|| err("missing checksum line"))? + 1;
        let (written, want) = (text[at..].split_whitespace().nth(1), fnv1a(&text.as_bytes()[..at]));
        if written != Some(format!("{want:016x}").as_str()) {
            return Err(err("checksum mismatch: the checkpoint is corrupt"));
        }

        let mut t = lines.expect("fingerprint")?;
        let nf = t.usize()?;
        let fingerprint = (0..nf).map(|_| t.u64()).collect::<Result<Vec<_>, _>>()?;

        let mut t = lines.expect("grid")?;
        let ng = t.usize()?;
        let energies = (0..ng).map(|_| t.f64()).collect::<Result<Vec<_>, _>>()?;

        let mut t = lines.expect("records")?;
        let nr = t.usize()?;
        // No count read from the file sizes an allocation up front: a
        // corrupt count must end in `Malformed` when the entries run out,
        // not in a capacity overflow.
        let mut records = Vec::new();
        for _ in 0..nr {
            let mut t = lines.expect("record")?;
            let energy = t.f64()?;
            let stats = EnergyStats {
                bicg_iterations: t.usize()?,
                matvecs: t.usize()?,
                operator_traversals: t.usize()?,
                solves: t.usize()?,
                unconverged: t.usize()?,
                accepted: t.usize()?,
                discarded: t.usize()?,
                numerical_rank: t.usize()?,
            };
            let npoints = t.usize()?;
            let mut points = Vec::new();
            for _ in 0..npoints {
                let mut t = lines.expect("point")?;
                points.push(CbsPoint {
                    energy: t.f64()?,
                    energy_index: 0,
                    lambda: c64(t.f64()?, t.f64()?),
                    k_re: t.f64()?,
                    k_im: t.f64()?,
                    propagating: t.bool()?,
                    residual: t.f64()?,
                });
            }
            records.push(EnergyRecord { energy, stats, points });
        }
        lines.expect("checksum")?;
        lines.expect("end")?;

        Ok(Self { fingerprint, energies, records })
    }

    /// Write atomically (temp file + rename) so a kill mid-save leaves the
    /// previous checkpoint intact.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let tmp = temp_path(path);
        std::fs::write(&tmp, self.serialize_to_string())?;
        std::fs::rename(&tmp, path)
    }

    /// Load and parse a checkpoint file.  A file that cannot be read is
    /// [`CheckpointError::Io`]; one that does not parse, `Malformed`.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CheckpointError::Io(format!("cannot read {}: {e}", path.display())))?;
        Self::parse(&text)
    }
}

/// The file [`SweepCheckpoint::save`] writes before renaming it over
/// `path`: `path` with `.tmp` appended to its file name, so it is never
/// `path` itself, even for a `.tmp` path, and `a.cp` and `a.json` never
/// share one.
fn temp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepCheckpoint {
        let p = CbsPoint {
            energy: 0.125,
            energy_index: 0,
            lambda: c64(0.5, -0.25),
            k_re: 1.5,
            k_im: -0.75,
            propagating: true,
            residual: 1e-9,
        };
        let rec = EnergyRecord {
            energy: 0.125,
            stats: EnergyStats {
                bicg_iterations: 10,
                matvecs: 22,
                operator_traversals: 6,
                solves: 4,
                unconverged: 2,
                accepted: 1,
                discarded: 3,
                numerical_rank: 5,
            },
            points: vec![p],
        };
        let rec2 =
            EnergyRecord { energy: 0.475, stats: EnergyStats::default(), points: Vec::new() };
        SweepCheckpoint {
            fingerprint: vec![1, 2, 0xdeadbeef],
            energies: vec![-0.5, 0.125, 0.475],
            records: vec![rec, rec2],
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let cp = sample();
        let text = cp.serialize_to_string();
        let back = SweepCheckpoint::parse(&text).expect("parse");
        assert_eq!(back.fingerprint, cp.fingerprint);
        assert_eq!(back.energies.len(), cp.energies.len());
        for (a, b) in back.energies.iter().zip(&cp.energies) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.records.len(), 2);
        let (r0, c0) = (&back.records[0], &cp.records[0]);
        assert_eq!(r0.energy.to_bits(), c0.energy.to_bits());
        assert_eq!(r0.stats, c0.stats);
        assert_eq!(r0.points.len(), 1);
        let (p, q) = (&r0.points[0], &c0.points[0]);
        assert_eq!(p.lambda.re.to_bits(), q.lambda.re.to_bits());
        assert_eq!(p.lambda.im.to_bits(), q.lambda.im.to_bits());
        assert_eq!(p.k_im.to_bits(), q.k_im.to_bits());
        assert_eq!(p.propagating, q.propagating);
        assert_eq!(back.records[1].energy.to_bits(), (0.475f64).to_bits());
        assert!(back.records[1].points.is_empty());
        assert_eq!(back.serialize_to_string(), text);
    }

    #[test]
    fn save_and_load_via_file() {
        let cp = sample();
        let dir = std::env::temp_dir().join("cbs_sweep_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.txt");
        cp.save(&path).unwrap();
        let back = SweepCheckpoint::load(&path).unwrap();
        assert_eq!(back.records.len(), cp.records.len());
        assert!(!temp_path(&path).exists(), "the temporary file is renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn temporary_file_is_never_the_checkpoint_or_shared() {
        let tmp = |p: &str| temp_path(Path::new(p));
        for p in ["sweep_checkpoint.tmp", "dir/a.cp", "a", "a.tmp.tmp"] {
            assert_ne!(tmp(p), Path::new(p), "{p}");
            assert_eq!(tmp(p).parent(), Path::new(p).parent(), "{p}");
        }
        assert_ne!(tmp("a.cp"), tmp("a.json"));
    }

    #[test]
    fn unreadable_file_is_an_io_error() {
        let missing = std::env::temp_dir().join("cbs_no_such_dir_q7").join("cp.txt");
        match SweepCheckpoint::load(&missing) {
            Err(CheckpointError::Io(_)) => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(SweepCheckpoint::parse("").is_err());
        assert!(SweepCheckpoint::parse("not a checkpoint\n").is_err());
        let text = sample().serialize_to_string();
        // Truncation (drop the trailing `end`) must be detected.
        let truncated = text.trim_end().trim_end_matches("end").to_string();
        assert!(SweepCheckpoint::parse(&truncated).is_err());
        // Corrupt a hex token.
        let corrupt = text.replacen("record", "rekord", 1);
        assert!(SweepCheckpoint::parse(&corrupt).is_err());
        // An arbitrary bad first line is malformed, not a version problem.
        match SweepCheckpoint::parse("garbage v2\nrest\n") {
            Err(CheckpointError::Malformed(_)) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    /// A syntactically current checkpoint relabelled as format `version`.
    fn relabelled(version: &str) -> String {
        let current = MAGIC.strip_prefix(MAGIC_PREFIX).expect("magic carries the prefix");
        sample().serialize_to_string().replacen(&format!("v{current}"), version, 1)
    }

    #[test]
    fn old_checkpoint_versions_are_reported_as_incompatible() {
        // A v1 checkpoint (pre-`operator_traversals`): the body does not
        // matter — the magic line alone must produce the dedicated
        // incompatible-version error, not a generic parse failure.
        let v1 = "cbs-sweep-checkpoint v1\nfingerprint 0\ngrid 0\nrecords 0\nseeds 0\nend\n";
        match SweepCheckpoint::parse(v1) {
            Err(CheckpointError::IncompatibleVersion { found }) => {
                assert_eq!(found, "cbs-sweep-checkpoint v1");
            }
            other => panic!("expected IncompatibleVersion, got {other:?}"),
        }
        // The v2 layout (pre-`operator_assemblies`) is likewise refused up
        // front instead of being parsed with misaligned counters.
        let err = SweepCheckpoint::parse(&relabelled("v2")).unwrap_err();
        assert!(matches!(err, CheckpointError::IncompatibleVersion { .. }));
        // And v3, whose fingerprint layout predates every later change.
        let err = SweepCheckpoint::parse(&relabelled("v3")).unwrap_err();
        assert!(matches!(err, CheckpointError::IncompatibleVersion { .. }));
        // v17 records carry `operator_assemblies` and its fingerprints the
        // two assembled-pattern slots: refused by version, not misparsed.
        let v17 = SweepCheckpoint::parse(&relabelled("v17")).unwrap_err();
        assert!(matches!(v17, CheckpointError::IncompatibleVersion { ref found }
            if found == "cbs-sweep-checkpoint v17"));
        // v18 records carry a capped-solve count and its fingerprints the
        // majority-stop slot: refused by version, not misparsed.
        let v18 = SweepCheckpoint::parse(&relabelled("v18")).unwrap_err();
        assert!(matches!(v18, CheckpointError::IncompatibleVersion { ref found }
            if found == "cbs-sweep-checkpoint v18"));
        // The message tells the operator what to do.
        let msg = err.to_string();
        assert!(msg.contains("incompatible checkpoint version"), "{msg}");
        assert!(msg.contains("delete the checkpoint and re-sweep"), "{msg}");
    }

    #[test]
    fn v4_to_v14_checkpoints_are_refused_and_the_message_names_both_versions() {
        // Every version but the current one, older or newer, hits the one
        // incompatible-version check, and the message names the version
        // found *and* the one expected.
        let old = [
            "v4", "v5", "v6", "v7", "v8", "v9", "v10", "v11", "v12", "v13", "v14", "v15", "v16",
            "v17", "v18", "v19", "v20", "v21", "v22",
        ];
        for version in old.into_iter().chain(["v24"]) {
            let stale = format!("cbs-sweep-checkpoint {version}");
            match SweepCheckpoint::parse(&relabelled(version)) {
                Err(CheckpointError::IncompatibleVersion { ref found }) => {
                    assert_eq!(found, &stale);
                    let msg =
                        CheckpointError::IncompatibleVersion { found: found.clone() }.to_string();
                    assert!(msg.contains(&stale), "{msg}");
                    assert!(msg.contains(MAGIC), "{msg}");
                }
                other => panic!("{version}: expected IncompatibleVersion, got {other:?}"),
            }
        }
        assert!(SweepCheckpoint::parse(&relabelled("v23")).is_ok(), "v23 is the current format");
    }

    /// The body of a serialized checkpoint: everything before its
    /// `checksum` line.
    fn body(text: &str) -> &str {
        &text[..text.rfind("\nchecksum ").unwrap() + 1]
    }

    /// A bit-flipped count or a file cut short is a malformed checkpoint,
    /// never a panic: each count set to `u64::MAX` in turn, and the text
    /// truncated after every line, all parse to `Malformed` — also when the
    /// corrupt body is sealed with its own valid checksum, so the parser
    /// itself meets the bad count.
    #[test]
    fn corrupt_counts_and_truncations_are_malformed() {
        let text = sample().serialize_to_string();
        let lines: Vec<&str> = body(&text).lines().collect();
        let mut cases = Vec::new();
        for (at, line) in lines.iter().enumerate() {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            // The count fields of each line kind.
            let counts: Vec<usize> = match tokens[0] {
                "fingerprint" | "grid" | "records" => vec![1],
                "record" => vec![tokens.len() - 1],
                _ => vec![],
            };
            for k in counts {
                let mut flipped = tokens.clone();
                flipped[k] = "ffffffffffffffff";
                let mut corrupt = lines.clone();
                let joined = flipped.join(" ");
                corrupt[at] = &joined;
                cases.push((format!("line {at} token {k}"), corrupt.join("\n") + "\n"));
            }
        }
        assert_eq!(cases.len(), 5, "every count of the sample is flipped once");
        for cut in 0..lines.len() {
            cases.push((format!("cut after {cut} lines"), lines[..cut].join("\n") + "\n"));
        }
        for (what, corrupt) in cases {
            for (how, text) in [("unsealed", corrupt.clone()), ("sealed", sealed(corrupt))] {
                match SweepCheckpoint::parse(&text) {
                    Err(CheckpointError::Malformed(_)) => {}
                    other => panic!("{what} ({how}): expected Malformed, got {other:?}"),
                }
            }
        }
    }

    /// Every single-bit flip of a serialized checkpoint that leaves valid
    /// UTF-8 is refused — `Malformed`, or `IncompatibleVersion` for a flip
    /// in the magic line — or parses to the very same checkpoint, and only
    /// a flip in the whitespace after `end` can do that.  None panics.
    #[test]
    fn every_bit_flip_is_refused_or_changes_nothing() {
        let text = sample().serialize_to_string();
        let after_end = text.rfind("end").unwrap() + "end".len();
        let mut refused = 0;
        for byte in 0..text.len() {
            for bit in 0..8 {
                let mut bytes = text.clone().into_bytes();
                bytes[byte] ^= 1 << bit;
                let Ok(flipped) = String::from_utf8(bytes) else { continue };
                match SweepCheckpoint::parse(&flipped) {
                    Err(
                        CheckpointError::Malformed(_) | CheckpointError::IncompatibleVersion { .. },
                    ) => {
                        refused += 1;
                    }
                    Ok(cp) => {
                        assert_eq!(cp.serialize_to_string(), text, "byte {byte} bit {bit}");
                        assert!(byte >= after_end, "byte {byte} bit {bit} went unnoticed");
                    }
                    Err(other) => panic!("byte {byte} bit {bit}: {other:?}"),
                }
            }
        }
        // Seven of a byte's eight flips keep ASCII valid UTF-8; one of the
        // final newline's turns it into another whitespace.
        assert_eq!(refused, 7 * text.len() - 1);
    }
}
