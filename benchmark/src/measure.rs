//! Clocks, process counters, order statistics and the benchmark-side span
//! recorder.  Nothing here calls the library.

use std::time::Instant;

/// Median of a non-empty sample (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// `f`'s result and its wall seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

pub fn min_max(values: &[f64]) -> (f64, f64) {
    values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// User + system CPU seconds of this process, all threads, exited ones
/// included (`/proc/self/stat` fields 14 and 15).
pub fn cpu_seconds() -> f64 {
    // USER_HZ: the unit of those fields is fixed at 1/100 s on Linux,
    // whatever the kernel's internal tick.
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let after_comm = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let ticks: f64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<f64>().expect("utime/stime are integers"))
        .sum();
    ticks / TICKS_PER_SECOND
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM is reported");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM is a number of kB");
    kib / 1024.0
}

/// Size in bytes of the largest cache `cpu0` reports, if sysfs exposes it.
pub fn last_level_cache_bytes() -> Option<u64> {
    let mut largest = None;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else { continue };
        let text = text.trim();
        let (digits, unit) = text.split_at(text.trim_end_matches(char::is_alphabetic).len());
        let scale = match unit {
            "K" => 1 << 10,
            "M" => 1 << 20,
            "G" => 1 << 30,
            _ => 1,
        };
        if let Ok(n) = digits.parse::<u64>() {
            largest = largest.max(Some(n * scale));
        }
    }
    largest
}

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One benchmark-side span; `parent` indexes the enclosing span.
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span recorder of the traced pass: spans are recorded around the
/// benchmark's own calls into each layer and written out once, at the end.
pub struct Tracer {
    origin: Instant,
    workload: &'static str,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Self { origin: Instant::now(), workload, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; returns its result and the span's
    /// duration in seconds.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        (result, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Seconds per call of `f`, as one span: `prepare` (untimed) makes each
    /// call's input, and calls repeat until the timed total reaches 50 ms so
    /// that no reported interval is shorter than that.
    pub fn unit_cost<T>(
        &mut self,
        name: &str,
        mut prepare: impl FnMut() -> T,
        mut f: impl FnMut(T),
    ) -> f64 {
        const MIN_TIMED_SECONDS: f64 = 0.05;
        self.span(name, |_| {
            let (mut timed, mut calls) = (0.0, 0u32);
            while timed < MIN_TIMED_SECONDS {
                let input = prepare();
                let t = Instant::now();
                f(input);
                timed += t.elapsed().as_secs_f64();
                calls += 1;
            }
            timed / f64::from(calls)
        })
        .0
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// ("X") event per span, timestamps in microseconds.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"workload\":\"{}\"}}}}{}\n",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                self.workload,
                if i + 1 < self.spans.len() { "," } else { "" },
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn process_counters_are_positive() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }

    #[test]
    fn spans_nest_and_export() {
        let mut tracer = Tracer::new("w");
        tracer.span("outer", |t| {
            t.span("inner", |_| ());
        });
        assert_eq!(tracer.spans[1].parent, Some(0));
        assert!(tracer.spans[0].end_ns >= tracer.spans[1].end_ns);
        let doc = crate::json::parse(&tracer.chrome_trace()).expect("trace is valid JSON");
        assert_eq!(doc.get("traceEvents").and_then(|e| e.as_array()).map(<[_]>::len), Some(2));
    }
}
