//! `cbs-trace`: lock-free, thread-local span tracing and per-solve cost
//! attribution for the CBS workspace.
//!
//! # Span model
//!
//! Every instrumented scope of the pipeline — numeric pattern refill
//! ([`Stage::Assemble`]), ILU(0) factorization ([`Stage::IluFactor`]),
//! triangular sweeps ([`Stage::TriSweep`]), sparse/low-rank operator
//! application ([`Stage::Kernel`]), one dual-BiCG solve ([`Stage::Solve`])
//! and eigenpair extraction ([`Stage::Extraction`]) — records
//! `(stage, start_ns, end_ns, thread, context)` where the context
//! ([`SpanCtx`]) carries the scan-energy index, quadrature node and operator
//! policy of the enclosing solve.
//!
//! Recording is two-tier:
//!
//! * **Always on** — per-stage CPU-nanosecond counters accumulate in plain
//!   thread-local cells and drain into process-global atomics when the
//!   thread exits (the vendored rayon shim joins its scoped workers before
//!   each dispatch returns, so a caller reading [`cpu_totals`] after a
//!   parallel region sees every worker's contribution).  These counters
//!   are the source of `CbsStatistics::{kernel_ns, precond_ns}` — CPU-ns
//!   summed across threads, **not** wall time, under a parallel executor.
//! * **Session-gated** — full span buffers are recorded only while a
//!   [`TraceSession`] is active; the disabled hot path pays one relaxed
//!   atomic load per instrumented scope.  Buffers are thread-local and
//!   lock-free on the hot path; they drain into the global session store
//!   when they fill, when the thread exits, and when the session finishes.
//!
//! A finished session yields a [`TraceReport`] exporting (a) Chrome
//! trace-event JSON (hand-rolled writer, no JSON dependency) viewable in
//! `chrome://tracing` / [Perfetto](https://ui.perfetto.dev), and (b) an
//! aggregated per-stage × per-context table ([`TraceReport::aggregate`])
//! with both CPU-ns (summed span durations) and wall-ns (span intervals
//! merged per stage across threads) — the `(stage, context) → cost` table
//! that says where a run's time went, sweep energy by quadrature node.
//!
//! # Determinism
//!
//! Nothing in this crate feeds back into the numerical pipeline: spans and
//! iteration events are pure observations, so tracing on/off is bitwise
//! neutral on results (locked by `tests/trace.rs` at the workspace root).
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

#![allow(
    clippy::disallowed_types,
    reason = "the timing crate: its spans and counters read the wall clock"
)]

mod aggregate;
mod chrome;
pub mod knob;

pub use aggregate::{AggRow, StageAgg};
pub use knob::{knob, Knob};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One instrumented pipeline stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Numeric refill of the assembled `P(z)` pattern.
    Assemble = 0,
    /// ILU(0) factorization of an assembled operator.
    IluFactor = 1,
    /// ILU(0) triangular solves (forward/backward sweeps).
    TriSweep = 2,
    /// Sparse / low-rank operator application (CSR gather-scatter, block
    /// SpMM tiles, projector terms).
    Kernel = 3,
    /// One dual-BiCG solve (a `(node, rhs)` job or a fused per-node block
    /// job).
    Solve = 4,
    /// Eigenpair extraction from accumulated moments (Hankel SVD, projected
    /// eigenproblem, residual filtering).
    Extraction = 5,
}

/// Number of [`Stage`] variants (array-table size).
pub const STAGE_COUNT: usize = 6;

impl Stage {
    /// Every stage, in `repr` order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Assemble,
        Stage::IluFactor,
        Stage::TriSweep,
        Stage::Kernel,
        Stage::Solve,
        Stage::Extraction,
    ];

    /// Stable name (the Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Assemble => "assemble",
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

/// Unset marker for the `u32` context keys.
pub const CTX_UNSET: u32 = u32::MAX;
/// Unset marker for the policy context key.
pub const POLICY_UNSET: u8 = u8::MAX;

/// The attribution context of a span: which solve it belongs to.
///
/// Fields are set to [`CTX_UNSET`] / [`POLICY_UNSET`] when unknown (e.g.
/// spans recorded outside any solve).  The policy byte uses the encoding of
/// `cbs_core::PrecondPolicy::trace_code` (0 = matrix-free,
/// 2 = assembled-ilu0; 1 and 3 are retired).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanCtx {
    /// Scan-energy index within the sweep grid.
    pub energy: u32,
    /// Quadrature-node index on the contour.
    pub node: u32,
    /// Operator/preconditioner policy code.
    pub policy: u8,
}

impl SpanCtx {
    /// The empty context.
    pub const NONE: SpanCtx = SpanCtx { energy: CTX_UNSET, node: CTX_UNSET, policy: POLICY_UNSET };

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

    /// Set the policy code.
    pub fn with_policy(mut self, p: u8) -> Self {
        self.policy = p;
        self
    }
}

impl Default for SpanCtx {
    fn default() -> Self {
        SpanCtx::NONE
    }
}

/// Known policy codes (the contract with `cbs_core::PrecondPolicy`).
pub fn policy_name(code: u8) -> Option<&'static str> {
    match code {
        0 => Some("matrix-free"),
        2 => Some("assembled-ilu0"),
        _ => None,
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

/// One per-iteration BiCG residual event ([`TraceLevel::Iter`]).
#[derive(Clone, Copy, Debug)]
pub struct IterEvent {
    /// Event time on the [`now_ns`] clock.
    pub t_ns: u64,
    /// Recording thread.
    pub thread: u32,
    /// Context of the enclosing solve.
    pub ctx: SpanCtx,
    /// Right-hand-side (column) index within the solve, [`CTX_UNSET`] for a
    /// single-vector solve whose rhs index the solver does not know.
    pub rhs: u32,
    /// Iteration number (0 = initial residual).
    pub iteration: u32,
    /// Relative residual of the primal recurrence after this iteration.
    pub residual: f64,
}

/// How much a session records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceLevel {
    /// No span recording (the always-on CPU counters still accumulate).
    #[default]
    Off = 0,
    /// Stage spans only.
    Stage = 1,
    /// Stage spans plus per-iteration BiCG residual events.
    Iter = 2,
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

static SESSION_ACTIVE: AtomicBool = AtomicBool::new(false);
static SESSION_LEVEL: AtomicU8 = AtomicU8::new(0);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

static CPU_TOTALS: [AtomicU64; STAGE_COUNT] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// The global session store thread buffers drain into.
#[derive(Default)]
struct SessionStore {
    spans: Vec<Span>,
    iters: Vec<IterEvent>,
    threads: Vec<(u32, &'static str)>,
}

static STORE: Mutex<SessionStore> =
    Mutex::new(SessionStore { spans: Vec::new(), iters: Vec::new(), threads: Vec::new() });

fn store() -> std::sync::MutexGuard<'static, SessionStore> {
    STORE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `true` while a [`TraceSession`] is recording.
#[inline]
pub fn session_active() -> bool {
    SESSION_ACTIVE.load(Ordering::Relaxed)
}

/// The active session's level ([`TraceLevel::Off`] when no session runs).
pub fn session_level() -> TraceLevel {
    if !session_active() {
        return TraceLevel::Off;
    }
    match SESSION_LEVEL.load(Ordering::Relaxed) {
        2 => TraceLevel::Iter,
        1 => TraceLevel::Stage,
        _ => TraceLevel::Off,
    }
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
    cpu: [u64; STAGE_COUNT],
    spans: Vec<Span>,
    iters: Vec<IterEvent>,
    ctx: SpanCtx,
    iter_events: bool,
}

impl ThreadBuf {
    fn new() -> Self {
        ThreadBuf {
            tid: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            label: "thread",
            registered: false,
            cpu: [0; STAGE_COUNT],
            spans: Vec::new(),
            iters: Vec::new(),
            ctx: SpanCtx::NONE,
            iter_events: false,
        }
    }

    /// Drain the session-gated event buffers into the global store.
    fn flush_events(&mut self) {
        if self.spans.is_empty() && self.iters.is_empty() {
            return;
        }
        let mut s = store();
        if !self.registered {
            s.threads.push((self.tid, self.label));
            self.registered = true;
        }
        s.spans.append(&mut self.spans);
        s.iters.append(&mut self.iters);
    }

    /// Drain the always-on CPU counters into the global atomics.
    fn flush_cpu(&mut self) {
        for (total, cell) in CPU_TOTALS.iter().zip(self.cpu.iter_mut()) {
            if *cell > 0 {
                total.fetch_add(*cell, Ordering::Relaxed);
                *cell = 0;
            }
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush_events();
        self.flush_cpu();
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

/// Record a completed `[start_ns, end_ns]` scope of `stage`: always adds to
/// the CPU counters, and buffers a full [`Span`] (with the thread's current
/// [`SpanCtx`]) when a session is active.
#[inline]
pub fn record_span(stage: Stage, start_ns: u64, end_ns: u64) {
    let _ = TLS.try_with(|b| {
        let mut b = b.borrow_mut();
        b.cpu[stage as usize] += end_ns.saturating_sub(start_ns);
        if SESSION_ACTIVE.load(Ordering::Relaxed) {
            let span = Span { stage, start_ns, end_ns, thread: b.tid, ctx: b.ctx };
            b.spans.push(span);
            if b.spans.len() >= SPAN_FLUSH_THRESHOLD {
                b.flush_events();
            }
        }
    });
}

/// Run `f` as one span of `stage` (see [`record_span`]).
#[inline]
pub fn timed<R>(stage: Stage, f: impl FnOnce() -> R) -> R {
    let t0 = now_ns();
    let out = f();
    let t1 = now_ns();
    record_span(stage, t0, t1);
    out
}

/// Record one BiCG iteration of the enclosing solve.  No-op unless the
/// enclosing [`SolveScope`] enabled iteration events
/// ([`TraceLevel::Iter`]); solvers call this
/// unconditionally wherever they record their residual history.
#[inline]
pub fn record_iteration(rhs: Option<usize>, iteration: usize, residual: f64) {
    let _ = TLS.try_with(|b| {
        let mut b = b.borrow_mut();
        if b.iter_events {
            let ev = IterEvent {
                t_ns: now_ns(),
                thread: b.tid,
                ctx: b.ctx,
                rhs: rhs.map_or(CTX_UNSET, |r| r as u32),
                iteration: iteration as u32,
                residual,
            };
            b.iters.push(ev);
            if b.iters.len() >= SPAN_FLUSH_THRESHOLD {
                b.flush_events();
            }
        }
    });
}

/// The always-on per-stage CPU-nanosecond totals: global (flushed) counters
/// plus the calling thread's unflushed cells.  Under a parallel executor
/// these are CPU seconds summed across workers, not wall time; workers of
/// the vendored rayon shim are joined (and therefore flushed) before any
/// dispatch returns, so post-dispatch reads are complete.
pub fn cpu_totals() -> [u64; STAGE_COUNT] {
    let mut t = [0u64; STAGE_COUNT];
    for (out, total) in t.iter_mut().zip(CPU_TOTALS.iter()) {
        *out = total.load(Ordering::Relaxed);
    }
    let _ = TLS.try_with(|b| {
        let b = b.borrow();
        for (out, cell) in t.iter_mut().zip(b.cpu.iter()) {
            *out += cell;
        }
    });
    t
}

// ---------------------------------------------------------------------------
// Context scopes and the plumbed handle
// ---------------------------------------------------------------------------

/// RAII guard restoring the thread's previous [`SpanCtx`].
pub struct CtxScope {
    prev: SpanCtx,
}

/// Set the calling thread's span context, restoring the previous one when
/// the guard drops ([`TraceHandle::enter`]).
fn ctx_scope(ctx: SpanCtx) -> CtxScope {
    let prev = TLS.try_with(|b| {
        let mut b = b.borrow_mut();
        let prev = b.ctx;
        b.ctx = ctx;
        prev
    });
    CtxScope { prev: prev.unwrap_or(SpanCtx::NONE) }
}

impl Drop for CtxScope {
    fn drop(&mut self) {
        let _ = TLS.try_with(|b| b.borrow_mut().ctx = self.prev);
    }
}

/// The tracing capability plumbed through `solve_pool` and
/// `EnergySweep`: a `Copy` context carrier that is a
/// no-op when tracing is disabled.
///
/// A handle is resolved once per solve ([`TraceHandle::resolve`]) on the
/// dispatching thread and then moved into job closures, where
/// [`solve_scope`](TraceHandle::solve_scope) installs the per-job context
/// on whichever worker thread runs the job.
#[derive(Clone, Copy, Debug)]
pub struct TraceHandle {
    level: TraceLevel,
    base: SpanCtx,
}

impl TraceHandle {
    /// The no-op handle (also what [`resolve`](Self::resolve) returns when
    /// no session is active).
    pub const fn disabled() -> Self {
        TraceHandle { level: TraceLevel::Off, base: SpanCtx::NONE }
    }

    /// Resolve the effective handle for one solve: disabled when no session
    /// is active, otherwise the stronger of the session level and
    /// `requested` (a config can raise a stage-level session to
    /// per-iteration detail for its own solves, but cannot start recording
    /// on its own).  The base context inherits the calling thread's current
    /// [`SpanCtx`], so a driver that set an energy scope hands it down to
    /// every worker automatically.
    pub fn resolve(requested: TraceLevel) -> Self {
        let session = session_level();
        if session == TraceLevel::Off {
            return Self::disabled();
        }
        let base = TLS.try_with(|b| b.borrow().ctx).unwrap_or(SpanCtx::NONE);
        TraceHandle { level: session.max(requested), base }
    }

    /// `true` when this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.level != TraceLevel::Off
    }

    /// The base context jobs inherit.
    pub fn ctx(&self) -> SpanCtx {
        self.base
    }

    /// Override the scan-energy index of the base context.
    pub fn with_energy(mut self, e: usize) -> Self {
        self.base = self.base.with_energy(e);
        self
    }

    /// Override the policy code of the base context.
    pub fn with_policy(mut self, p: u8) -> Self {
        self.base = self.base.with_policy(p);
        self
    }

    /// Install this handle's context on the calling thread (for scopes that
    /// are not solves: extraction).
    pub fn enter(&self) -> CtxScope {
        if self.is_enabled() {
            ctx_scope(self.base)
        } else {
            CtxScope { prev: TLS.try_with(|b| b.borrow().ctx).unwrap_or(SpanCtx::NONE) }
        }
    }

    /// Open the span of one dual-BiCG solve at quadrature node `node`: sets
    /// the worker thread's context to the handle's base plus the node,
    /// arms per-iteration events when the level asks for them, and records
    /// a [`Stage::Solve`] span when the guard drops.  No-op (and
    /// allocation-free) when the handle is disabled.
    pub fn solve_scope(&self, node: usize) -> SolveScope {
        if !self.is_enabled() {
            return SolveScope {
                enabled: false,
                start_ns: 0,
                prev: SpanCtx::NONE,
                prev_iter: false,
            };
        }
        let ctx = self.base.with_node(node);
        let iter = self.level >= TraceLevel::Iter;
        let prev = TLS.try_with(|b| {
            let mut b = b.borrow_mut();
            let prev = (b.ctx, b.iter_events);
            b.ctx = ctx;
            b.iter_events = iter;
            prev
        });
        let (prev, prev_iter) = prev.unwrap_or((SpanCtx::NONE, false));
        SolveScope { enabled: true, start_ns: now_ns(), prev, prev_iter }
    }
}

impl Default for TraceHandle {
    fn default() -> Self {
        Self::disabled()
    }
}

/// RAII guard of one solve span (see [`TraceHandle::solve_scope`]).
pub struct SolveScope {
    enabled: bool,
    start_ns: u64,
    prev: SpanCtx,
    prev_iter: bool,
}

impl Drop for SolveScope {
    fn drop(&mut self) {
        if !self.enabled {
            return;
        }
        let end = now_ns();
        let _ = TLS.try_with(|b| {
            let mut b = b.borrow_mut();
            let span = Span {
                stage: Stage::Solve,
                start_ns: self.start_ns,
                end_ns: end,
                thread: b.tid,
                ctx: b.ctx,
            };
            b.cpu[Stage::Solve as usize] += end.saturating_sub(self.start_ns);
            b.spans.push(span);
            b.ctx = self.prev;
            b.iter_events = self.prev_iter;
            if b.spans.len() >= SPAN_FLUSH_THRESHOLD {
                b.flush_events();
            }
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
    /// Start recording at `level` ([`TraceLevel::Off`] is promoted to
    /// [`TraceLevel::Stage`] — beginning a session means recording spans).
    pub fn begin(level: TraceLevel) -> Option<TraceSession> {
        if SESSION_ACTIVE.compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst).is_err()
        {
            return None;
        }
        // Discard anything still buffered from before this session (stale
        // spans of long-lived threads are filtered by start time at finish;
        // the store itself starts empty).
        let _ = TLS.try_with(|b| b.borrow_mut().flush_events());
        {
            let mut s = store();
            s.spans.clear();
            s.iters.clear();
            s.threads.clear();
        }
        SESSION_LEVEL.store(level.max(TraceLevel::Stage) as u8, Ordering::Relaxed);
        Some(TraceSession { t0_ns: now_ns() })
    }

    /// The session's start time on the [`now_ns`] clock.
    pub fn t0_ns(&self) -> u64 {
        self.t0_ns
    }

    /// Stop recording and drain every flushed buffer into a report.
    /// (Worker threads of the vendored rayon shim are scoped, hence joined
    /// — and flushed — before their dispatch returned; the calling thread
    /// flushes here.)
    pub fn finish(self) -> TraceReport {
        let t1 = now_ns();
        let _ = TLS.try_with(|b| b.borrow_mut().flush_events());
        let (mut spans, mut iters, threads) = {
            let mut s = store();
            (
                std::mem::take(&mut s.spans),
                std::mem::take(&mut s.iters),
                std::mem::take(&mut s.threads),
            )
        };
        SESSION_ACTIVE.store(false, Ordering::SeqCst);
        // Long-lived foreign threads (test harness peers) may have flushed
        // spans that predate this session; keep the report self-consistent.
        spans.retain(|s| s.start_ns >= self.t0_ns);
        iters.retain(|e| e.t_ns >= self.t0_ns);
        TraceReport { spans, iters, threads, t0_ns: self.t0_ns, t1_ns: t1 }
    }
}

/// Windowed per-stage aggregation over the *live* session: CPU-ns and
/// merged wall-ns of every span intersecting `[t0_ns, t1_ns]`, clipped to
/// the window.  `None` when no session is active.  Callers use this to
/// attribute one solve's window without finishing the session (e.g.
/// `CbsStatistics`' wall-ns fields).
pub fn aggregate_window(t0_ns: u64, t1_ns: u64) -> Option<StageAgg> {
    if !session_active() {
        return None;
    }
    let _ = TLS.try_with(|b| b.borrow_mut().flush_events());
    let s = store();
    Some(aggregate::aggregate_spans(s.spans.iter(), t0_ns, t1_ns))
}

/// Everything a finished session recorded.
pub struct TraceReport {
    /// All spans, unsorted (export sorts by start time).
    pub spans: Vec<Span>,
    /// Per-iteration events (empty below [`TraceLevel::Iter`]).
    pub iters: Vec<IterEvent>,
    /// `(thread id, label)` of every thread that recorded events.
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

    /// The per-stage × per-context aggregation table, sorted by stage then
    /// context.
    pub fn aggregate(&self) -> Vec<AggRow> {
        aggregate::aggregate_by_context(&self.spans)
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
    fn cpu_totals_accumulate_without_a_session() {
        let before = cpu_totals();
        timed(Stage::Kernel, || std::hint::black_box((0..4096).sum::<u64>()));
        let after = cpu_totals();
        assert!(after[Stage::Kernel as usize] > before[Stage::Kernel as usize]);
    }

    #[test]
    fn session_records_spans_with_context() {
        let _gate = SESSION_GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let session = TraceSession::begin(TraceLevel::Stage).expect("no concurrent session");
        let handle = TraceHandle::resolve(TraceLevel::Off).with_energy(3).with_policy(2);
        {
            let _solve = handle.solve_scope(5);
            timed(Stage::Kernel, || std::hint::black_box((0..512).product::<u64>()));
        }
        let report = session.finish();
        let kernel: Vec<_> = report.spans.iter().filter(|s| s.stage == Stage::Kernel).collect();
        assert!(!kernel.is_empty());
        assert_eq!(kernel[0].ctx.energy, 3);
        assert_eq!(kernel[0].ctx.node, 5);
        assert_eq!(kernel[0].ctx.policy, 2);
        let solve: Vec<_> = report.spans.iter().filter(|s| s.stage == Stage::Solve).collect();
        assert_eq!(solve.len(), 1);
        assert!(solve[0].start_ns <= kernel[0].start_ns);
        assert!(solve[0].end_ns >= kernel[0].end_ns);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let handle = TraceHandle::disabled();
        assert!(!handle.is_enabled());
        let _scope = handle.solve_scope(0);
        // No session: record_span must not buffer anything observable.
        timed(Stage::Extraction, || ());
        assert!(!session_active());
    }

    #[test]
    fn iteration_events_only_inside_armed_scopes() {
        let _gate = SESSION_GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let session = TraceSession::begin(TraceLevel::Iter).expect("no concurrent session");
        record_iteration(None, 0, 1.0); // outside any solve scope: dropped
        let handle = TraceHandle::resolve(TraceLevel::Off);
        {
            let _solve = handle.solve_scope(1);
            record_iteration(Some(2), 7, 1e-3);
        }
        let report = session.finish();
        assert_eq!(report.iters.len(), 1);
        assert_eq!(report.iters[0].iteration, 7);
        assert_eq!(report.iters[0].rhs, 2);
        assert_eq!(report.iters[0].ctx.node, 1);
    }

    #[test]
    fn stage_names_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_name(s.name()), Some(s));
        }
        assert_eq!(Stage::from_name("nope"), None);
    }
}
