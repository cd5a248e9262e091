//! Span aggregation: per-stage totals, CPU-ns against merged wall-ns.

use crate::{Span, Stage, STAGE_COUNT};

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
        intervals[i].push((s, e));
    }
    for (i, iv) in intervals.iter_mut().enumerate() {
        agg.wall_ns[i] = merged_length(iv);
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: Stage, start: u64, end: u64) -> Span {
        Span { stage, start_ns: start, end_ns: end, thread: 0, ctx: crate::SpanCtx::NONE }
    }

    #[test]
    fn window_clips_and_merges() {
        let spans = [
            span(Stage::Kernel, 0, 100),
            span(Stage::Kernel, 50, 150),  // overlaps the first
            span(Stage::Kernel, 300, 400), // disjoint
            span(Stage::Extraction, 120, 130),
        ];
        let agg = aggregate_spans(spans.iter(), 0, 1000);
        assert_eq!(agg.cpu(Stage::Kernel), 100 + 100 + 100);
        assert_eq!(agg.wall(Stage::Kernel), 150 + 100);
        assert_eq!(agg.cpu(Stage::Extraction), 10);
        // Clipped window: only the tail of the last kernel span survives.
        let clipped = aggregate_spans(spans.iter(), 350, 1000);
        assert_eq!(clipped.cpu(Stage::Kernel), 50);
        assert_eq!(clipped.wall(Stage::Kernel), 50);
    }
}
