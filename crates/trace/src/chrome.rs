//! Hand-rolled Chrome trace-event JSON writer (the workspace vendors no
//! JSON library).
//!
//! The format is the ["Trace Event Format"] consumed by `chrome://tracing`
//! and Perfetto: one `"X"` (complete) event per span with microsecond
//! `ts`/`dur`, `"M"` metadata events naming the process and threads, and —
//! at [`TraceLevel::Iter`](crate::TraceLevel::Iter) — one `"i"` (instant)
//! event per BiCG iteration carrying the residual.  Timestamps are relative
//! to the session start and written with nanosecond precision
//! (`123.456` µs), so a reader parsing them as `f64` recovers the exact
//! nanosecond values.
//!
//! ["Trace Event Format"]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::io::{self, Write};

use crate::{policy_name, IterEvent, Span, SpanCtx, TraceReport, CTX_UNSET, POLICY_UNSET};

/// Nanoseconds → exact decimal microseconds.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Append the context keys of `ctx` as JSON object members (no leading
/// comma; returns whether anything was written).
fn push_ctx_args(out: &mut String, ctx: &SpanCtx) -> bool {
    let mut any = false;
    let sep = |out: &mut String, any: &mut bool| {
        if *any {
            out.push_str(", ");
        }
        *any = true;
    };
    if ctx.energy != CTX_UNSET {
        sep(out, &mut any);
        out.push_str(&format!("\"energy\": {}", ctx.energy));
    }
    if ctx.node != CTX_UNSET {
        sep(out, &mut any);
        out.push_str(&format!("\"node\": {}", ctx.node));
    }
    if ctx.policy != POLICY_UNSET {
        sep(out, &mut any);
        match policy_name(ctx.policy) {
            Some(name) => out.push_str(&format!("\"policy\": \"{name}\"")),
            None => out.push_str(&format!("\"policy\": {}", ctx.policy)),
        }
    }
    any
}

fn span_line(span: &Span, t0_ns: u64) -> String {
    let mut line = format!(
        "{{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"cbs\", \"pid\": 1, \"tid\": {}, \
         \"ts\": {}, \"dur\": {}",
        span.stage.name(),
        span.thread,
        us(span.start_ns - t0_ns),
        us(span.end_ns - span.start_ns),
    );
    let mut args = String::new();
    if push_ctx_args(&mut args, &span.ctx) {
        line.push_str(", \"args\": {");
        line.push_str(&args);
        line.push('}');
    }
    line.push('}');
    line
}

fn iter_line(ev: &IterEvent, t0_ns: u64) -> String {
    // JSON has no NaN/Infinity literals; clamp pathological residuals.
    let residual = if ev.residual.is_finite() { ev.residual } else { -1.0 };
    let mut line = format!(
        "{{\"ph\": \"i\", \"name\": \"bicg_iter\", \"cat\": \"cbs\", \"pid\": 1, \
         \"tid\": {}, \"ts\": {}, \"s\": \"t\", \"args\": {{",
        ev.thread,
        us(ev.t_ns - t0_ns),
    );
    let mut any = push_ctx_args(&mut line, &ev.ctx);
    let sep = |line: &mut String, any: &mut bool| {
        if *any {
            line.push_str(", ");
        }
        *any = true;
    };
    if ev.rhs != CTX_UNSET {
        sep(&mut line, &mut any);
        line.push_str(&format!("\"rhs\": {}", ev.rhs));
    }
    sep(&mut line, &mut any);
    line.push_str(&format!("\"iteration\": {}, \"residual\": {:e}}}}}", ev.iteration, residual));
    line
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
    // Merge spans and iteration events into one stream sorted by timestamp
    // (ties: spans first, then file-stable order), so readers see monotone
    // `ts` without sorting themselves.
    let mut order: Vec<(u64, u8, usize)> = report
        .spans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.start_ns, 0u8, i))
        .chain(report.iters.iter().enumerate().map(|(i, e)| (e.t_ns, 1u8, i)))
        .collect();
    order.sort_unstable();
    for (_, kind, i) in order {
        let line = if kind == 0 {
            span_line(&report.spans[i], report.t0_ns)
        } else {
            iter_line(&report.iters[i], report.t0_ns)
        };
        emit(w, &line)?;
    }
    writeln!(w, "]}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stage;

    #[test]
    fn writer_emits_sorted_balanced_json() {
        let ctx = SpanCtx::NONE.with_energy(2).with_node(1).with_policy(0);
        let report = TraceReport {
            spans: vec![
                Span { stage: Stage::Solve, start_ns: 1000, end_ns: 9000, thread: 1, ctx },
                Span { stage: Stage::Kernel, start_ns: 2000, end_ns: 3500, thread: 1, ctx },
            ],
            iters: vec![IterEvent {
                t_ns: 2500,
                thread: 1,
                ctx,
                rhs: 0,
                iteration: 1,
                residual: 1e-4,
            }],
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
        assert!(text.contains("\"name\": \"bicg_iter\""));
        assert!(text.contains("\"policy\": \"matrix-free\""));
        assert!(text.contains("\"ts\": 0.000, \"dur\": 8.000"));
        // Balanced braces/brackets overall.
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(text.matches('[').count(), text.matches(']').count());
        // Solve (earlier start) precedes kernel precedes the instant event.
        let solve = text.find("\"solve\"").unwrap();
        let kernel = text.find("\"kernel\"").unwrap();
        let iter = text.find("\"bicg_iter\"").unwrap();
        assert!(solve < kernel && kernel < iter);
    }
}
