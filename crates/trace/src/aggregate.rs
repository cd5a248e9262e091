//! Span aggregation: per-stage totals (CPU-ns vs merged wall-ns) and the
//! per-stage × per-context cost table.

use crate::{Span, SpanCtx, Stage, STAGE_COUNT};

/// Per-stage totals over a time window.
///
/// * `cpu_ns` — span durations summed across threads (equals the always-on
///   counter deltas when the window covers the same scopes).
/// * `wall_ns` — the measure of the *union* of the stage's span intervals
///   across all threads: how long at least one thread was inside the stage.
///   Under a serial executor `wall_ns == cpu_ns`; under a parallel executor
///   `wall_ns <= cpu_ns` with the ratio measuring the stage's effective
///   parallelism.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageAgg {
    /// Summed span durations per stage (CPU-ns).
    pub cpu_ns: [u64; STAGE_COUNT],
    /// Merged span-interval length per stage (wall-ns).
    pub wall_ns: [u64; STAGE_COUNT],
    /// Number of spans per stage.
    pub count: [u64; STAGE_COUNT],
}

impl StageAgg {
    /// CPU-ns of one stage.
    pub fn cpu(&self, stage: Stage) -> u64 {
        self.cpu_ns[stage as usize]
    }

    /// Merged wall-ns of one stage.
    pub fn wall(&self, stage: Stage) -> u64 {
        self.wall_ns[stage as usize]
    }

    /// Span count of one stage.
    pub fn spans(&self, stage: Stage) -> u64 {
        self.count[stage as usize]
    }
}

/// One row of the per-context aggregation table.
#[derive(Clone, Copy, Debug)]
pub struct AggRow {
    /// The stage.
    pub stage: Stage,
    /// The context all aggregated spans share.
    pub ctx: SpanCtx,
    /// Number of spans.
    pub count: u64,
    /// Summed durations (CPU-ns).
    pub cpu_ns: u64,
    /// Merged interval length (wall-ns).
    pub wall_ns: u64,
}

/// Length of the union of `intervals` (each `(start, end)`), destructively
/// sorting the scratch slice.
fn merged_length(intervals: &mut [(u64, u64)]) -> u64 {
    if intervals.is_empty() {
        return 0;
    }
    intervals.sort_unstable();
    let mut total = 0u64;
    let (mut cur_s, mut cur_e) = intervals[0];
    for &(s, e) in intervals.iter().skip(1) {
        if s > cur_e {
            total += cur_e - cur_s;
            (cur_s, cur_e) = (s, e);
        } else if e > cur_e {
            cur_e = e;
        }
    }
    total + (cur_e - cur_s)
}

/// Aggregate spans intersecting `[t0_ns, t1_ns]` per stage, clipping each
/// span to the window.
pub(crate) fn aggregate_spans<'a>(
    spans: impl Iterator<Item = &'a Span>,
    t0_ns: u64,
    t1_ns: u64,
) -> StageAgg {
    let mut agg = StageAgg::default();
    let mut intervals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); STAGE_COUNT];
    for span in spans {
        let s = span.start_ns.max(t0_ns);
        let e = span.end_ns.min(t1_ns);
        if e <= s {
            continue;
        }
        let i = span.stage as usize;
        agg.cpu_ns[i] += e - s;
        agg.count[i] += 1;
        intervals[i].push((s, e));
    }
    for (i, iv) in intervals.iter_mut().enumerate() {
        agg.wall_ns[i] = merged_length(iv);
    }
    agg
}

/// Group spans by `(stage, context)`, producing one [`AggRow`] per group,
/// sorted by stage then context.
pub(crate) fn aggregate_by_context(spans: &[Span]) -> Vec<AggRow> {
    let mut keyed: Vec<(Stage, SpanCtx, u64, u64)> =
        spans.iter().map(|s| (s.stage, s.ctx, s.start_ns, s.end_ns)).collect();
    keyed.sort_unstable_by_key(|&(stage, ctx, start, _)| (stage, ctx, start));
    let mut rows: Vec<AggRow> = Vec::new();
    let mut intervals: Vec<(u64, u64)> = Vec::new();
    let flush = |rows: &mut Vec<AggRow>, intervals: &mut Vec<(u64, u64)>| {
        if let Some(row) = rows.last_mut() {
            row.wall_ns = merged_length(intervals);
        }
        intervals.clear();
    };
    for (stage, ctx, start, end) in keyed {
        match rows.last_mut() {
            Some(row) if row.stage == stage && row.ctx == ctx => {
                row.count += 1;
                row.cpu_ns += end - start;
            }
            _ => {
                flush(&mut rows, &mut intervals);
                rows.push(AggRow { stage, ctx, count: 1, cpu_ns: end - start, wall_ns: 0 });
            }
        }
        intervals.push((start, end));
    }
    flush(&mut rows, &mut intervals);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: Stage, start: u64, end: u64, ctx: SpanCtx) -> Span {
        Span { stage, start_ns: start, end_ns: end, thread: 0, ctx }
    }

    #[test]
    fn window_clips_and_merges() {
        let c = SpanCtx::NONE;
        let spans = [
            span(Stage::Kernel, 0, 100, c),
            span(Stage::Kernel, 50, 150, c),  // overlaps the first
            span(Stage::Kernel, 300, 400, c), // disjoint
            span(Stage::Extraction, 120, 130, c),
        ];
        let agg = aggregate_spans(spans.iter(), 0, 1000);
        assert_eq!(agg.cpu(Stage::Kernel), 100 + 100 + 100);
        assert_eq!(agg.wall(Stage::Kernel), 150 + 100);
        assert_eq!(agg.spans(Stage::Kernel), 3);
        assert_eq!(agg.cpu(Stage::Extraction), 10);
        // Clipped window: only the tail of the last kernel span survives.
        let clipped = aggregate_spans(spans.iter(), 350, 1000);
        assert_eq!(clipped.cpu(Stage::Kernel), 50);
        assert_eq!(clipped.wall(Stage::Kernel), 50);
        assert_eq!(clipped.spans(Stage::Kernel), 1);
    }

    #[test]
    fn context_table_groups_and_orders() {
        let a = SpanCtx::NONE.with_energy(0).with_node(1);
        let b = SpanCtx::NONE.with_energy(1).with_node(1);
        let spans = vec![
            span(Stage::Kernel, 0, 10, b),
            span(Stage::Kernel, 20, 30, a),
            span(Stage::Kernel, 25, 40, a),
            span(Stage::Solve, 0, 50, a),
        ];
        let rows = aggregate_by_context(&spans);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].stage, Stage::Kernel);
        assert_eq!(rows[0].ctx, a);
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].cpu_ns, 10 + 15);
        assert_eq!(rows[0].wall_ns, 20); // [20,30] ∪ [25,40]
        assert_eq!(rows[1].ctx, b);
        assert_eq!(rows[2].stage, Stage::Solve);
        assert_eq!(rows[2].wall_ns, 50);
    }
}
