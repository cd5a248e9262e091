//! `cbs-trace`: lock-free, thread-local span tracing and per-solve cost
//! attribution for the CBS workspace.
//!
//! # Span model
//!
//! Every instrumented scope of the pipeline — diagonal-ILU pivots
//! ([`Stage::IluFactor`]), triangular sweeps ([`Stage::TriSweep`]),
//! sparse/low-rank operator application ([`Stage::Kernel`]), one dual-BiCG
//! solve ([`Stage::Solve`]) and eigenpair extraction
//! ([`Stage::Extraction`]) — records
//! `(stage, start_ns, end_ns, thread, context)` where the context
//! ([`SpanCtx`]) carries the scan-energy index and quadrature node of the
//! enclosing solve.
//!
//! A stage is timed only while a [`TraceSession`] records: outside one,
//! [`timed`] runs its closure after one relaxed atomic load and reads no
//! clock.  Spans are buffered per thread, lock-free on the hot path, and
//! drain into the global session store when a buffer fills, when its
//! thread exits, and when the session finishes.  A span carries its thread
//! and its `{energy, node}` context, so concurrent work on other threads is
//! never charged to a solve.
//!
//! A finished session yields a [`TraceReport`]: its spans, per-stage
//! totals ([`TraceReport::stage_totals`]) with both CPU-ns (summed span
//! durations) and wall-ns (span intervals merged per stage across threads),
//! and a Chrome trace-event JSON export (hand-rolled writer, no JSON
//! dependency) viewable in `chrome://tracing` /
//! [Perfetto](https://ui.perfetto.dev).  Per-iteration BiCG residuals are
//! not traced: `SsResult::solve_histories` holds them per solved node and
//! right-hand side, one record per dual-BiCG pair.
//!
//! # Determinism
//!
//! Nothing in this crate feeds back into the numerical pipeline: spans are
//! pure observations, so tracing on/off is bitwise neutral on results
//! (locked by `tests/trace.rs` at the workspace root).
//!
//! # Exporting a trace
//!
//! Tracing reads no environment variable: a caller begins a session, runs
//! the work and exports the report.
//!
//! ```no_run
//! use cbs_trace::{TraceLevel, TraceSession};
//!
//! let session = TraceSession::begin(TraceLevel::Stage).expect("no other session is live");
//! // ... run solves ...
//! let report = session.finish();
//! report.save_chrome_trace(std::path::Path::new("trace.json")).unwrap();
//! ```

#![allow(clippy::disallowed_types, reason = "the timing crate: its spans read the wall clock")]

mod aggregate;
mod chrome;

pub use aggregate::StageAgg;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One instrumented pipeline stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// The diagonal ILU's pivots, one pass over the stencil's rows.
    IluFactor = 0,
    /// Diagonal-ILU triangular sweeps (forward/backward, and the maps into
    /// and out of the split system).
    TriSweep = 1,
    /// Sparse / low-rank operator application (CSR gather-scatter, block
    /// SpMM tiles, projector terms).
    Kernel = 2,
    /// One dual-BiCG solve (a `(node, rhs)` job or a fused per-node block
    /// job).
    Solve = 3,
    /// Eigenpair extraction from accumulated moments (Hankel SVD, projected
    /// eigenproblem, residual filtering).
    Extraction = 4,
}

/// Number of [`Stage`] variants (array-table size).
pub const STAGE_COUNT: usize = 5;

impl Stage {
    /// Every stage, in `repr` order.
    pub const ALL: [Stage; STAGE_COUNT] =
        [Stage::IluFactor, Stage::TriSweep, Stage::Kernel, Stage::Solve, Stage::Extraction];

    /// Stable name (the Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            Stage::IluFactor => "ilu_factor",
            Stage::TriSweep => "tri_sweep",
            Stage::Kernel => "kernel",
            Stage::Solve => "solve",
            Stage::Extraction => "extraction",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.iter().copied().find(|s| s.name() == name)
    }
}

/// Unset marker for the context keys.
pub const CTX_UNSET: u32 = u32::MAX;

/// The attribution context of a span: which solve it belongs to.
///
/// Fields are [`CTX_UNSET`] when unknown (e.g. spans recorded outside any
/// solve).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanCtx {
    /// Scan-energy index within the sweep grid.
    pub energy: u32,
    /// Quadrature-node index on the contour.
    pub node: u32,
}

impl SpanCtx {
    /// The empty context.
    pub const NONE: SpanCtx = SpanCtx { energy: CTX_UNSET, node: CTX_UNSET };

    /// Set the scan-energy index.
    pub fn with_energy(mut self, e: usize) -> Self {
        self.energy = e as u32;
        self
    }

    /// Set the quadrature-node index.
    pub fn with_node(mut self, n: usize) -> Self {
        self.node = n as u32;
        self
    }
}

impl Default for SpanCtx {
    fn default() -> Self {
        SpanCtx::NONE
    }
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The instrumented stage.
    pub stage: Stage,
    /// Start, nanoseconds on the process-global monotonic clock
    /// ([`now_ns`]).
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Recording thread (trace-local id, see [`TraceReport::threads`]).
    pub thread: u32,
    /// Attribution context.
    pub ctx: SpanCtx,
}

/// **Vestigial:** a session records stage spans and nothing else, so this
/// argument of [`TraceSession::begin`] selects nothing.  It survives only
/// because the repo benchmark (`benchmark/src/layers.rs`) passes
/// `TraceLevel::Stage`; released by ROADMAP 1(a).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceLevel {
    /// Stage spans.
    Stage,
}

// ---------------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds on the process-global monotonic clock shared by every span
/// (first call pins the epoch).
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Seconds between two [`now_ns`] readings, `t0_ns` then `t1_ns`.
#[inline]
pub fn seconds_between(t0_ns: u64, t1_ns: u64) -> f64 {
    t1_ns.saturating_sub(t0_ns) as f64 * 1e-9
}

static SESSION_ACTIVE: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

/// The global session store thread buffers drain into.
#[derive(Default)]
struct SessionStore {
    spans: Vec<Span>,
    threads: Vec<(u32, &'static str)>,
}

static STORE: Mutex<SessionStore> =
    Mutex::new(SessionStore { spans: Vec::new(), threads: Vec::new() });

fn store() -> std::sync::MutexGuard<'static, SessionStore> {
    STORE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `true` while a [`TraceSession`] is recording.
#[inline]
pub fn session_active() -> bool {
    SESSION_ACTIVE.load(Ordering::Relaxed) // source-rule: allow(D003) reason="a stale read only records or drops one span; begin and finish swap the flag with SeqCst"
}

// ---------------------------------------------------------------------------
// Thread-local recording
// ---------------------------------------------------------------------------

/// Spans buffered per thread before an incremental drain.
const SPAN_FLUSH_THRESHOLD: usize = 16 * 1024;

struct ThreadBuf {
    tid: u32,
    label: &'static str,
    registered: bool,
    spans: Vec<Span>,
    ctx: SpanCtx,
}

impl ThreadBuf {
    fn new() -> Self {
        ThreadBuf {
            tid: NEXT_THREAD.fetch_add(1, Ordering::Relaxed), // source-rule: allow(D003) reason="a unique trace-local thread id; no other memory is ordered by it"
            label: "thread",
            registered: false,
            spans: Vec::new(),
            ctx: SpanCtx::NONE,
        }
    }

    /// Buffer one span of the active session, draining when full.
    fn push_span(&mut self, stage: Stage, start_ns: u64, end_ns: u64) {
        let span = Span { stage, start_ns, end_ns, thread: self.tid, ctx: self.ctx };
        self.spans.push(span);
        if self.spans.len() >= SPAN_FLUSH_THRESHOLD {
            self.flush_spans();
        }
    }

    /// Drain the session-gated span buffer into the global store.
    fn flush_spans(&mut self) {
        if self.spans.is_empty() {
            return;
        }
        let mut s = store();
        if !self.registered {
            s.threads.push((self.tid, self.label));
            self.registered = true;
        }
        s.spans.append(&mut self.spans);
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush_spans();
    }
}

thread_local! {
    static TLS: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

/// Label the current thread for trace exports (`"main"`, `"rayon"`, …).
/// Idempotent and cheap; executors call it from inside dispatched tasks so
/// short-lived workers name themselves before their buffers drain.
pub fn label_thread(label: &'static str) {
    let _ = TLS.try_with(|b| b.borrow_mut().label = label);
}

/// Buffer a completed `[start_ns, end_ns]` scope of `stage` as a [`Span`]
/// (with the thread's current [`SpanCtx`]) when a session is active;
/// otherwise do nothing.
#[inline]
pub fn record_span(stage: Stage, start_ns: u64, end_ns: u64) {
    if session_active() {
        let _ = TLS.try_with(|b| b.borrow_mut().push_span(stage, start_ns, end_ns));
    }
}

/// Run `f` as one span of `stage` (see [`record_span`]).  Without an active
/// session `f` just runs: no clock is read.
#[inline]
pub fn timed<R>(stage: Stage, f: impl FnOnce() -> R) -> R {
    let t0 = session_active().then(now_ns);
    let out = f();
    if let Some(t0) = t0 {
        record_span(stage, t0, now_ns());
    }
    out
}

// ---------------------------------------------------------------------------
// Context scopes and the plumbed handle
// ---------------------------------------------------------------------------

/// Install `ctx` as the calling thread's span context and return the one it
/// replaces.
fn swap_ctx(ctx: SpanCtx) -> SpanCtx {
    TLS.try_with(|b| std::mem::replace(&mut b.borrow_mut().ctx, ctx)).unwrap_or(SpanCtx::NONE)
}

/// RAII guard restoring the thread's previous [`SpanCtx`]
/// ([`TraceHandle::enter`]).
pub struct CtxScope {
    prev: Option<SpanCtx>,
}

impl Drop for CtxScope {
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            swap_ctx(prev);
        }
    }
}

/// The tracing capability plumbed through the pooled round of
/// `cbs_core::solve_qeps_with`: a `Copy` context carrier that is a no-op
/// when tracing is disabled.
///
/// A handle is resolved once per solve ([`TraceHandle::resolve`]) on the
/// dispatching thread and then moved into job closures, where
/// [`solve_scope`](TraceHandle::solve_scope) installs the per-job context
/// on whichever worker thread runs the job.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceHandle {
    enabled: bool,
    base: SpanCtx,
}

impl TraceHandle {
    /// The no-op handle (also what [`resolve`](Self::resolve) returns when
    /// no session is active).
    pub const fn disabled() -> Self {
        TraceHandle { enabled: false, base: SpanCtx::NONE }
    }

    /// Resolve the effective handle for one solve: disabled when no session
    /// is active.  The base context inherits the calling thread's current
    /// [`SpanCtx`], so a driver that set an energy scope hands it down to
    /// every worker automatically.
    pub fn resolve() -> Self {
        if !session_active() {
            return Self::disabled();
        }
        let base = TLS.try_with(|b| b.borrow().ctx).unwrap_or(SpanCtx::NONE);
        TraceHandle { enabled: true, base }
    }

    /// `true` when this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Override the scan-energy index of the base context.
    pub fn with_energy(mut self, e: usize) -> Self {
        self.base = self.base.with_energy(e);
        self
    }

    /// The handle of the `i`-th of consecutive scan energies: the base
    /// context's energy index plus `i`, and still none when the base has
    /// none.
    pub fn energy_offset(mut self, i: usize) -> Self {
        if self.base.energy != CTX_UNSET {
            self.base = self.base.with_energy(self.base.energy as usize + i);
        }
        self
    }

    /// Install this handle's context on the calling thread (for scopes that
    /// are not solves: extraction).
    pub fn enter(&self) -> CtxScope {
        CtxScope { prev: self.enabled.then(|| swap_ctx(self.base)) }
    }

    /// Open the span of one dual-BiCG solve at quadrature node `node`: sets
    /// the worker thread's context to the handle's base plus the node and
    /// records a [`Stage::Solve`] span when the guard drops.  No-op (and
    /// allocation-free) when the handle is disabled.
    pub fn solve_scope(&self, node: usize) -> SolveScope {
        let prev = self.enabled.then(|| swap_ctx(self.base.with_node(node)));
        SolveScope { start_ns: if prev.is_some() { now_ns() } else { 0 }, prev }
    }
}

/// RAII guard of one solve span (see [`TraceHandle::solve_scope`]).
pub struct SolveScope {
    start_ns: u64,
    /// The context to restore; `None` when the handle was disabled.
    prev: Option<SpanCtx>,
}

impl Drop for SolveScope {
    fn drop(&mut self) {
        let Some(prev) = self.prev else { return };
        let end = now_ns();
        let _ = TLS.try_with(|b| {
            let mut b = b.borrow_mut();
            b.push_span(Stage::Solve, self.start_ns, end);
            b.ctx = prev;
        });
    }
}

// ---------------------------------------------------------------------------
// Sessions and reports
// ---------------------------------------------------------------------------

/// An exclusive process-wide recording session.  At most one can be active;
/// [`begin`](Self::begin) returns `None` while another runs.
pub struct TraceSession {
    t0_ns: u64,
}

impl TraceSession {
    /// Start recording stage spans.  The [`TraceLevel`] argument is
    /// vestigial: it has one value and selects nothing.
    pub fn begin(_level: TraceLevel) -> Option<TraceSession> {
        if SESSION_ACTIVE.compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst).is_err()
        {
            return None;
        }
        // Discard anything still buffered from before this session (stale
        // spans of long-lived threads are filtered by start time at finish;
        // the store itself starts empty).
        let _ = TLS.try_with(|b| b.borrow_mut().flush_spans());
        {
            let mut s = store();
            s.spans.clear();
            s.threads.clear();
        }
        Some(TraceSession { t0_ns: now_ns() })
    }

    /// Stop recording and drain every flushed buffer into a report.
    /// (`cbs-parallel`'s threaded executor joins each of its workers by its
    /// handle, which returns only after the worker's thread-local buffer
    /// has flushed, before its dispatch returns; the calling thread flushes
    /// here.)
    pub fn finish(self) -> TraceReport {
        let t1 = now_ns();
        let _ = TLS.try_with(|b| b.borrow_mut().flush_spans());
        let (mut spans, threads) = {
            let mut s = store();
            (std::mem::take(&mut s.spans), std::mem::take(&mut s.threads))
        };
        SESSION_ACTIVE.store(false, Ordering::SeqCst);
        // Long-lived foreign threads (test harness peers) may have flushed
        // spans that predate this session; keep the report self-consistent.
        spans.retain(|s| s.start_ns >= self.t0_ns);
        TraceReport { spans, threads, t0_ns: self.t0_ns, t1_ns: t1 }
    }
}

/// Everything a finished session recorded.
pub struct TraceReport {
    /// All spans, unsorted (export sorts by start time).
    pub spans: Vec<Span>,
    /// `(thread id, label)` of every thread that recorded spans.
    pub threads: Vec<(u32, &'static str)>,
    /// Session start on the [`now_ns`] clock.
    pub t0_ns: u64,
    /// Session end.
    pub t1_ns: u64,
}

impl TraceReport {
    /// Per-stage totals over the whole session window.
    pub fn stage_totals(&self) -> StageAgg {
        aggregate::aggregate_spans(self.spans.iter(), self.t0_ns, self.t1_ns)
    }

    /// Write the Chrome trace-event JSON (viewable in `chrome://tracing` /
    /// Perfetto).
    pub fn write_chrome_trace(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        chrome::write_chrome_trace(self, w)
    }

    /// [`write_chrome_trace`](Self::write_chrome_trace) to a file.
    pub fn save_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        self.write_chrome_trace(&mut w)?;
        use std::io::Write as _;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sessions are process-global; serialize the tests that use one.
    static SESSION_GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn timed_without_a_session_runs_f_and_records_nothing() {
        let _gate = SESSION_GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let sum = timed(Stage::Kernel, || std::hint::black_box((0..4096).sum::<u64>()));
        assert_eq!(sum, 4096 * 4095 / 2);
        let session = TraceSession::begin(TraceLevel::Stage).expect("no concurrent session");
        let report = session.finish();
        assert!(report.spans.is_empty(), "a span timed before the session was recorded");
    }

    #[test]
    fn session_records_spans_with_context() {
        let _gate = SESSION_GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let session = TraceSession::begin(TraceLevel::Stage).expect("no concurrent session");
        let handle = TraceHandle::resolve().with_energy(3);
        {
            let _solve = handle.solve_scope(5);
            timed(Stage::Kernel, || std::hint::black_box((0..512).product::<u64>()));
        }
        let report = session.finish();
        let kernel: Vec<_> = report.spans.iter().filter(|s| s.stage == Stage::Kernel).collect();
        assert!(!kernel.is_empty());
        assert_eq!(kernel[0].ctx.energy, 3);
        assert_eq!(kernel[0].ctx.node, 5);
        let solve: Vec<_> = report.spans.iter().filter(|s| s.stage == Stage::Solve).collect();
        assert_eq!(solve.len(), 1);
        assert!(solve[0].start_ns <= kernel[0].start_ns);
        assert!(solve[0].end_ns >= kernel[0].end_ns);
    }

    #[test]
    fn energy_offset_shifts_an_installed_energy_only() {
        let _gate = SESSION_GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let session = TraceSession::begin(TraceLevel::Stage).expect("no concurrent session");
        let handle = TraceHandle::resolve();
        drop(handle.with_energy(3).energy_offset(2).solve_scope(0));
        drop(handle.energy_offset(2).solve_scope(1));
        let report = session.finish();
        let energies: Vec<u32> = report.spans.iter().map(|s| s.ctx.energy).collect();
        assert_eq!(energies, [5, CTX_UNSET]);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let _gate = SESSION_GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let handle = TraceHandle::disabled();
        assert!(!handle.is_enabled());
        let _scope = handle.solve_scope(0);
        // No session: `timed` must not buffer anything observable.
        timed(Stage::Extraction, || ());
        assert!(!session_active());
    }

    #[test]
    fn stage_names_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_name(s.name()), Some(s));
        }
        assert_eq!(Stage::from_name("nope"), None);
    }
}
