//! CI bench smoke gate: diff a freshly produced `BENCH_sweep.json` against
//! the committed copy and fail on wall-clock **ratio** regressions.
//!
//! Absolute wall times are machine-dependent, so the check normalises every
//! policy row by the matrix-free reference row of its own file
//! (`cold_8_energies`): `ratio = wall(row) / wall(reference)`.  Machine
//! speed cancels and what remains is the relative cost of each policy —
//! exactly the quantity the assembled/ILU perf work moves.  A row fails
//! when its candidate ratio exceeds the baseline ratio by more than 25%.
//!
//! ```sh
//! bench_check <baseline.json> <candidate.json>
//! ```
//!
//! When the candidate rows carry the traced wall-ns attribution columns
//! (`kernel_wall_ns` / `precond_wall_ns` / `extraction_wall_ns`, filled only
//! for runs recorded under `CBS_TRACE`), the check also enforces
//! **attribution sanity**: the span-merged stage wall time of a row must not
//! exceed the row's total wall clock by more than 5% — a cheap structural
//! invariant that catches double-counted or mis-clipped spans the moment
//! they appear.  Untraced rows (all wall columns zero) skip this gate.
//!
//! Traced ILU rows (`*ilu0*`) additionally pass a **preconditioner-share**
//! gate: the fraction of the row's wall clock attributed to ILU
//! factorization + triangular sweeps (`precond_wall_ns / wall`) must not
//! grow by more than 25% over the committed baseline — the quantity the
//! blocked/parallel sweep work moves.  Rows untraced on either side skip
//! the gate.
//!
//! The parser is a deliberate hand-rolled scanner (the workspace vendors no
//! JSON reader) that understands exactly the flat row format
//! `emit_bench_json` writes: one object per line with `"name"` and
//! `"wall_seconds"` fields.

use std::process::ExitCode;

/// Maximum tolerated relative growth of a policy row's wall-clock ratio.
const TOLERANCE: f64 = 0.25;

/// Headroom on the attribution gate: stage wall-ns may exceed the measured
/// wall clock by at most this fraction (clock-read jitter on short stages).
const ATTRIBUTION_SLACK: f64 = 0.05;

/// The row every other row is normalised against: cold matrix-free per-node.
const REFERENCE: &str = "cold_8_energies";

/// One parsed `BENCH_sweep.json` row.
struct Row {
    name: String,
    wall_seconds: f64,
    /// Sum of the traced stage wall-ns columns; zero on untraced rows and on
    /// baseline files written before those columns existed.
    attributed_wall_ns: u64,
    /// The traced preconditioner stage alone (ILU factorization +
    /// triangular sweeps), for the share gate on the ILU rows.
    precond_wall_ns: u64,
}

/// Extract a `u64` field from one row's text; missing fields read as zero so
/// pre-tracing baseline files stay parsable.
fn field_u64(row: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let Some(at) = row.find(&pat) else { return 0 };
    let rest = &row[at + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().unwrap_or(0)
}

/// Extract the policy rows from the `BENCH_sweep.json` format.
fn parse_rows(text: &str) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find("\"name\": \"") {
        rest = &rest[start + "\"name\": \"".len()..];
        let Some(name_end) = rest.find('"') else { break };
        let name = rest[..name_end].to_string();
        let row_end = rest.find('\n').unwrap_or(rest.len());
        let row_text = &rest[..row_end];
        let Some(ws) = row_text.find("\"wall_seconds\": ") else { break };
        let num = &row_text[ws + "\"wall_seconds\": ".len()..];
        let num_end = num.find([',', '}']).unwrap_or(num.len());
        match num[..num_end].trim().parse::<f64>() {
            Ok(wall) if wall.is_finite() && wall > 0.0 => rows.push(Row {
                name,
                wall_seconds: wall,
                attributed_wall_ns: field_u64(row_text, "kernel_wall_ns")
                    + field_u64(row_text, "precond_wall_ns")
                    + field_u64(row_text, "extraction_wall_ns"),
                precond_wall_ns: field_u64(row_text, "precond_wall_ns"),
            }),
            _ => eprintln!("bench_check: skipping row {name:?} with unparsable wall_seconds"),
        }
    }
    rows
}

fn reference_wall(rows: &[Row], label: &str) -> Option<f64> {
    let wall = rows.iter().find(|r| r.name == REFERENCE).map(|r| r.wall_seconds);
    if wall.is_none() {
        eprintln!("bench_check: {label} file has no reference row {REFERENCE:?}");
    }
    wall
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_path, candidate_path] = &args[..] else {
        eprintln!("usage: bench_check <baseline.json> <candidate.json>");
        return ExitCode::from(2);
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => Some(text),
        Err(e) => {
            eprintln!("bench_check: cannot read {path}: {e}");
            None
        }
    };
    let (Some(baseline), Some(candidate)) = (read(baseline_path), read(candidate_path)) else {
        return ExitCode::from(2);
    };

    let base_rows = parse_rows(&baseline);
    let cand_rows = parse_rows(&candidate);
    let (Some(base_ref), Some(cand_ref)) =
        (reference_wall(&base_rows, "baseline"), reference_wall(&cand_rows, "candidate"))
    else {
        return ExitCode::from(2);
    };

    let mut failed = false;
    let mut compared = 0usize;
    for row in &cand_rows {
        let name = &row.name;
        let Some(base_wall) = base_rows.iter().find(|r| &r.name == name).map(|r| r.wall_seconds)
        else {
            println!("  new   {name}: no baseline row, skipping");
            continue;
        };
        compared += 1;
        let base_ratio = base_wall / base_ref;
        let cand_ratio = row.wall_seconds / cand_ref;
        let growth = cand_ratio / base_ratio - 1.0;
        let verdict = if growth > TOLERANCE {
            failed = true;
            "FAIL "
        } else {
            "ok   "
        };
        println!(
            "  {verdict}{name}: ratio {base_ratio:.3} -> {cand_ratio:.3} ({:+.1}%)",
            100.0 * growth
        );
    }
    if compared == 0 {
        eprintln!("bench_check: no comparable rows between the two files");
        return ExitCode::from(2);
    }

    // Attribution sanity on traced candidate rows: span-merged stage wall
    // time must fit inside the measured wall clock (plus slack).  Stage
    // spans run on disjoint code paths of the same solve, so a sum that
    // overshoots the wall clock means spans were double-counted or clipped
    // to the wrong window.
    for row in &cand_rows {
        if row.attributed_wall_ns == 0 {
            continue; // untraced run — nothing to check
        }
        let budget_ns = row.wall_seconds * 1e9 * (1.0 + ATTRIBUTION_SLACK);
        let share = row.attributed_wall_ns as f64 / (row.wall_seconds * 1e9);
        if row.attributed_wall_ns as f64 > budget_ns {
            failed = true;
            println!(
                "  FAIL {}: attributed stage wall {} ns is {:.1}% of the {:.6}s wall clock",
                row.name,
                row.attributed_wall_ns,
                100.0 * share,
                row.wall_seconds
            );
        } else {
            println!(
                "  ok   {}: stage attribution covers {:.1}% of wall clock",
                row.name,
                100.0 * share
            );
        }
    }
    // Preconditioner-share gate on the traced ILU rows: the blocked and
    // parallel triangular sweeps exist to shrink the share of wall clock
    // the ILU apply path consumes, so a candidate whose share grows more
    // than TOLERANCE over the committed baseline regresses exactly the
    // quantity this perf work tracks.  Untraced rows on either side (zero
    // precond_wall_ns) skip the gate.
    for row in cand_rows.iter().filter(|r| r.name.contains("ilu0")) {
        let Some(base) = base_rows.iter().find(|r| r.name == row.name) else { continue };
        if row.precond_wall_ns == 0 || base.precond_wall_ns == 0 {
            continue;
        }
        let base_share = base.precond_wall_ns as f64 / (base.wall_seconds * 1e9);
        let cand_share = row.precond_wall_ns as f64 / (row.wall_seconds * 1e9);
        let growth = cand_share / base_share - 1.0;
        let verdict = if growth > TOLERANCE {
            failed = true;
            "FAIL "
        } else {
            "ok   "
        };
        println!(
            "  {verdict}{}: precond share {:.1}% -> {:.1}% ({:+.1}%)",
            row.name,
            100.0 * base_share,
            100.0 * cand_share,
            100.0 * growth
        );
    }

    if failed {
        eprintln!(
            "bench_check: ratio regression beyond {:.0}% or stage attribution beyond the wall \
             clock",
            100.0 * TOLERANCE
        );
        ExitCode::FAILURE
    } else {
        println!("bench_check: all {compared} policy rows within {:.0}%", 100.0 * TOLERANCE);
        ExitCode::SUCCESS
    }
}
