//! CI well-formedness gate for the Chrome trace-event JSON that the sweep
//! bench exports under `CBS_TRACE` (see `cbs-trace`'s hand-rolled writer).
//!
//! ```sh
//! trace_check <trace.json> [BENCH_sweep.json]
//! ```
//!
//! The first pass checks the structural contract of the writer: one
//! `traceEvents` array of flat objects, every event phase in `{M, X, i}`,
//! every event name drawn from the known stage / metadata / iteration set,
//! `ts`/`dur` parsable and non-negative, and timestamps monotone
//! non-decreasing in file order (the writer pre-sorts).  With the optional
//! second argument, a second pass re-aggregates the `X` spans into
//! per-stage merged-interval wall-ns and cross-checks them against the
//! `kernel_wall_ns` / `precond_wall_ns` / `extraction_wall_ns` columns of
//! the `cold_8_energies` row — the trace file and the stats table are two
//! exports of the same session, so they must agree (within 5%, with an
//! absolute floor for sub-millisecond stages).
//!
//! Like `bench_check`, the parser is a deliberate hand-rolled scanner: the
//! workspace vendors no JSON reader, and the event stream is flat enough
//! that a brace-depth splitter is exact.

use std::process::ExitCode;

/// Event names the `cbs-trace` Chrome writer may emit.
const KNOWN_NAMES: [&str; 9] = [
    "assemble",
    "ilu_factor",
    "tri_sweep",
    "kernel",
    "solve",
    "extraction",
    "bicg_iter",
    "process_name",
    "thread_name",
];

/// Stage names valid for `"ph": "X"` (complete span) events.
const SPAN_NAMES: [&str; 6] =
    ["assemble", "ilu_factor", "tri_sweep", "kernel", "solve", "extraction"];

/// Relative tolerance for the trace-vs-stats cross-check.
const CROSS_TOLERANCE: f64 = 0.05;

/// Absolute floor (ns) below which the relative cross-check is skipped —
/// sub-millisecond stages are dominated by clock-read granularity.
const CROSS_FLOOR_NS: f64 = 1e6;

/// Per-span-name interval lists (ns), the cross-check pass's input.
type StageIntervals = Vec<(String, Vec<(u64, u64)>)>;

/// Split the contents of a JSON array into its top-level `{...}` objects by
/// brace depth (string-aware, so names containing braces cannot confuse it).
fn split_events(array_body: &str) -> Vec<&str> {
    let mut events = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in array_body.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(s) = start.take() {
                        events.push(&array_body[s..=i]);
                    }
                }
            }
            _ => {}
        }
    }
    events
}

/// Extract a `"key": "value"` string member from one event's text.
fn field_str<'a>(event: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let at = event.find(&pat)?;
    let rest = &event[at + pat.len()..];
    rest.find('"').map(|end| &rest[..end])
}

/// Extract a numeric member from one event's text.
fn field_f64(event: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let at = event.find(&pat)?;
    let rest = &event[at + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Length of the union of `[start, end)` intervals, in ns.
fn merged_length_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Validate the trace file; on success return the per-span-name interval
/// lists (ns) for the cross-check pass.
fn check_trace(text: &str) -> Result<StageIntervals, String> {
    let array_start =
        text.find("\"traceEvents\": [").ok_or_else(|| "no \"traceEvents\" array".to_string())?;
    let body_start = array_start + "\"traceEvents\": [".len();
    let body_end = text.rfind(']').ok_or_else(|| "unterminated traceEvents array".to_string())?;
    if body_end < body_start {
        return Err("malformed traceEvents array".to_string());
    }
    let events = split_events(&text[body_start..body_end]);
    if events.is_empty() {
        return Err("traceEvents array holds no events".to_string());
    }

    let mut spans: StageIntervals = Vec::new();
    let mut last_ts = f64::NEG_INFINITY;
    let mut n_spans = 0usize;
    for (i, event) in events.iter().enumerate() {
        let ph = field_str(event, "ph").ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        let name = field_str(event, "name").ok_or_else(|| format!("event {i}: missing name"))?;
        if !KNOWN_NAMES.contains(&name) {
            return Err(format!("event {i}: unknown event name {name:?}"));
        }
        match ph {
            "M" => {
                if name != "process_name" && name != "thread_name" {
                    return Err(format!("event {i}: metadata event named {name:?}"));
                }
                continue; // metadata carries no timestamp
            }
            "X" | "i" => {}
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
        let ts = field_f64(event, "ts")
            .filter(|t| t.is_finite() && *t >= 0.0)
            .ok_or_else(|| format!("event {i}: missing or negative \"ts\""))?;
        if ts < last_ts {
            return Err(format!("event {i}: timestamp {ts} us regresses below {last_ts} us"));
        }
        last_ts = ts;
        if ph == "i" {
            if name != "bicg_iter" {
                return Err(format!("event {i}: instant event named {name:?}"));
            }
            field_f64(event, "residual")
                .ok_or_else(|| format!("event {i}: bicg_iter without residual"))?;
            continue;
        }
        if !SPAN_NAMES.contains(&name) {
            return Err(format!("event {i}: span event named {name:?}"));
        }
        let dur = field_f64(event, "dur")
            .filter(|d| d.is_finite() && *d >= 0.0)
            .ok_or_else(|| format!("event {i}: missing or negative \"dur\""))?;
        n_spans += 1;
        let start = (ts * 1000.0).round() as u64;
        let end = start + (dur * 1000.0).round() as u64;
        match spans.iter_mut().find(|(n, _)| n == name) {
            Some((_, list)) => list.push((start, end)),
            None => spans.push((name.to_string(), vec![(start, end)])),
        }
    }
    if n_spans == 0 {
        return Err("trace holds no span (ph=X) events".to_string());
    }
    println!("trace_check: {} events ({n_spans} spans) well-formed", events.len());
    Ok(spans)
}

/// Pull a `u64` column of the `cold_8_energies` row out of
/// `BENCH_sweep.json` (same flat row scan as `bench_check`).
fn bench_column(text: &str, column: &str) -> Option<u64> {
    let row_at = text.find("\"name\": \"cold_8_energies\"")?;
    let row = &text[row_at..];
    let row = &row[..row.find('\n').unwrap_or(row.len())];
    let pat = format!("\"{column}\": ");
    let at = row.find(&pat)?;
    let rest = &row[at + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Cross-check trace-derived per-stage wall-ns against the stats columns.
fn cross_check(spans: &[(String, Vec<(u64, u64)>)], bench_text: &str) -> Result<(), String> {
    let wall = |stage: &str| {
        spans.iter().find(|(n, _)| n == stage).map_or(0, |(_, list)| merged_length_ns(list.clone()))
    };
    // `precond_wall_ns` is the *sum* of the two per-stage unions (the stats
    // layer sums `wall(IluFactor) + wall(TriSweep)`), not a joint union.
    let pairs = [
        ("kernel_wall_ns", wall("kernel")),
        ("precond_wall_ns", wall("ilu_factor") + wall("tri_sweep")),
        ("extraction_wall_ns", wall("extraction")),
    ];
    let traced = bench_column(bench_text, "kernel_wall_ns").is_some_and(|v| v > 0);
    if !traced {
        println!("trace_check: bench row carries no traced wall columns; skipping cross-check");
        return Ok(());
    }
    for (column, from_trace) in pairs {
        let from_bench = bench_column(bench_text, column)
            .ok_or_else(|| format!("bench row lacks column {column:?}"))?;
        let hi = from_trace.max(from_bench) as f64;
        let lo = from_trace.min(from_bench) as f64;
        if hi < CROSS_FLOOR_NS {
            println!("  ok   {column}: {from_bench} ns vs {from_trace} ns (below floor)");
            continue;
        }
        let gap = (hi - lo) / hi;
        if gap > CROSS_TOLERANCE {
            return Err(format!(
                "{column}: bench reports {from_bench} ns but the trace aggregates to \
                 {from_trace} ns ({:.1}% apart)",
                100.0 * gap
            ));
        }
        println!("  ok   {column}: {from_bench} ns vs {from_trace} ns ({:.1}%)", 100.0 * gap);
    }
    println!("trace_check: trace aggregation matches bench stage columns");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (trace_path, bench_path) = match &args[..] {
        [_, trace] => (trace, None),
        [_, trace, bench] => (trace, Some(bench)),
        _ => {
            eprintln!("usage: trace_check <trace.json> [BENCH_sweep.json]");
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(trace_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("trace_check: cannot read {trace_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let spans = match check_trace(&text) {
        Ok(spans) => spans,
        Err(e) => {
            eprintln!("trace_check: {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(bench_path) = bench_path {
        let bench_text = match std::fs::read_to_string(bench_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("trace_check: cannot read {bench_path}: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = cross_check(&spans, &bench_text) {
            eprintln!("trace_check: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
