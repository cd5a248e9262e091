//! Hand-rolled Chrome trace-event JSON writer (the workspace vendors no
//! JSON library).
//!
//! The format is the ["Trace Event Format"] consumed by `chrome://tracing`
//! and Perfetto: one `"X"` (complete) event per span with microsecond
//! `ts`/`dur`, its context keys (`energy`, `node`) as `args`, and `"M"`
//! metadata events naming the process and threads.  Timestamps are relative
//! to the session start and written with nanosecond precision
//! (`123.456` µs), so a reader parsing them as `f64` recovers the exact
//! nanosecond values.
//!
//! ["Trace Event Format"]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::io::{self, Write};

use crate::{Span, TraceReport, CTX_UNSET};

/// Nanoseconds → exact decimal microseconds.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn span_line(span: &Span, t0_ns: u64) -> String {
    let args: Vec<String> = [("energy", span.ctx.energy), ("node", span.ctx.node)]
        .into_iter()
        .filter(|&(_, v)| v != CTX_UNSET)
        .map(|(key, v)| format!("\"{key}\": {v}"))
        .collect();
    let args = if args.is_empty() {
        String::new()
    } else {
        format!(", \"args\": {{{}}}", args.join(", "))
    };
    format!(
        "{{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"cbs\", \"pid\": 1, \"tid\": {}, \
         \"ts\": {}, \"dur\": {}{args}}}",
        span.stage.name(),
        span.thread,
        us(span.start_ns - t0_ns),
        us(span.end_ns - span.start_ns),
    )
}

/// Write `report` as Chrome trace-event JSON.
pub(crate) fn write_chrome_trace(report: &TraceReport, w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
    let mut first = true;
    let mut emit = |w: &mut dyn Write, line: &str| -> io::Result<()> {
        if first {
            first = false;
            writeln!(w, "{line}")
        } else {
            writeln!(w, ",{line}")
        }
    };
    emit(
        w,
        "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": 0, \
         \"args\": {\"name\": \"cbs\"}}",
    )?;
    let mut threads = report.threads.clone();
    threads.sort_unstable();
    for (tid, label) in &threads {
        emit(
            w,
            &format!(
                "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"{label}-{tid}\"}}}}"
            ),
        )?;
    }
    // Spans sorted by start time (ties in recording order), so readers see
    // monotone `ts` without sorting themselves.
    let mut order: Vec<&Span> = report.spans.iter().collect();
    order.sort_by_key(|s| s.start_ns);
    for span in order {
        emit(w, &span_line(span, report.t0_ns))?;
    }
    writeln!(w, "]}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpanCtx, Stage};

    #[test]
    fn writer_emits_sorted_balanced_json() {
        let ctx = SpanCtx::NONE.with_energy(2).with_node(1);
        let report = TraceReport {
            spans: vec![
                Span { stage: Stage::Solve, start_ns: 1000, end_ns: 9000, thread: 1, ctx },
                Span { stage: Stage::Kernel, start_ns: 2000, end_ns: 3500, thread: 1, ctx },
            ],
            threads: vec![(1, "main")],
            t0_ns: 1000,
            t1_ns: 10_000,
        };
        let mut buf = Vec::new();
        report.write_chrome_trace(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"name\": \"solve\""));
        assert!(text.contains("\"name\": \"kernel\""));
        assert!(text.contains("\"args\": {\"energy\": 2, \"node\": 1}}"));
        assert!(text.contains("\"ts\": 0.000, \"dur\": 8.000"));
        // Balanced braces/brackets overall.
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(text.matches('[').count(), text.matches(']').count());
        // Solve (earlier start) precedes kernel.
        let solve = text.find("\"solve\"").unwrap();
        let kernel = text.find("\"kernel\"").unwrap();
        assert!(solve < kernel);
    }
}
