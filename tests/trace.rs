//! Trace-neutrality and attribution tests of the `cbs-trace` span layer:
//!
//! * recording a session changes **nothing** — the fig6-style Al(100) solve
//!   is bitwise identical with tracing off and on, and the sweep's
//!   checkpoint kill/resume cycle stays bit-identical while a session
//!   records;
//! * the serial and rayon executors agree bit-for-bit under a live
//!   session (the spans do not perturb the solves they observe);
//! * the session's extraction time is `extraction_seconds` to rounding (one
//!   pair of clock readings gives both), and the attributed stage wall time
//!   fits inside the run's wall clock;
//! * the Chrome trace-event export is well-formed.

use std::collections::BTreeSet;
use std::sync::Mutex;

use cbs::core::SsConfig;
use cbs::dft::{bulk_al_100, grid_for_structure, BlockHamiltonian, HamiltonianParams};
use cbs::parallel::{RayonExecutor, SerialExecutor};
use cbs::sparse::DenseOp;
use cbs::sweep::{EnergySweep, RunOptions, SweepCheckpoint, SweepConfig, SweepResult};
use cbs::trace::{now_ns, Stage, TraceLevel, TraceReport, TraceSession, CTX_UNSET};

/// `cbs_trace` sessions are process-global and exclusive; every test here
/// needs sole ownership of the recorder — including the untraced control
/// runs, which must not record into a neighbour's live session.
static SESSION_GATE: Mutex<()> = Mutex::new(());

fn al100() -> BlockHamiltonian {
    let s = bulk_al_100(1);
    let grid = grid_for_structure(&s, 1.1);
    BlockHamiltonian::build(grid, &s, HamiltonianParams::default())
}

mod common;

fn al_ss() -> SsConfig {
    common::fig6_config()
}

fn assert_same_points(
    a: &cbs::core::ComplexBandStructure,
    b: &cbs::core::ComplexBandStructure,
    what: &str,
) {
    assert_eq!(a.points.len(), b.points.len(), "{what}: point count differs");
    for (p, q) in a.points.iter().zip(&b.points) {
        assert_eq!(p.energy_index, q.energy_index, "{what}");
        assert_eq!(p.lambda.re.to_bits(), q.lambda.re.to_bits(), "{what}");
        assert_eq!(p.lambda.im.to_bits(), q.lambda.im.to_bits(), "{what}");
        assert_eq!(p.k_re.to_bits(), q.k_re.to_bits(), "{what}");
        assert_eq!(p.k_im.to_bits(), q.k_im.to_bits(), "{what}");
        assert_eq!(p.propagating, q.propagating, "{what}");
        assert_eq!(p.residual.to_bits(), q.residual.to_bits(), "{what}");
    }
}

/// The scan-energy indices the spans of `stage` carry.
fn span_energies(report: &TraceReport, stage: Stage) -> BTreeSet<u32> {
    report.spans.iter().filter(|s| s.stage == stage).map(|s| s.ctx.energy).collect()
}

fn assert_same_sweep(a: &SweepResult, b: &SweepResult) {
    assert_same_points(&a.cbs, &b.cbs, "sweep");
    assert_eq!(a.stats.total_bicg_iterations, b.stats.total_bicg_iterations);
    assert_eq!(a.stats.total_matvecs, b.stats.total_matvecs);
}

/// Tracing the fig6-style Al(100) solve changes nothing: results are
/// bitwise identical with the recorder off and on, and the session
/// actually captured the solve's spans.
#[test]
fn al100_solve_is_bitwise_identical_with_tracing_on_and_off() {
    let _gate = SESSION_GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let h = al100();
    let (h00, h01) = (h.h00(), h.h01());
    let energies = [0.05, 0.11];
    let sweep = EnergySweep::new(&h00, &h01, h.period(), SweepConfig::new(al_ss()));

    let off = sweep.run(&energies, &SerialExecutor);
    assert!(!off.cbs.points.is_empty(), "Al(100) test solve found no CBS points");

    let session = TraceSession::begin(TraceLevel::Stage).expect("another session is live");
    let on = sweep.run(&energies, &SerialExecutor);
    let report = session.finish();

    assert_same_points(&off.cbs, &on.cbs, "traced vs untraced");
    assert_eq!(off.stats.total_bicg_iterations, on.stats.total_bicg_iterations);
    assert_eq!(off.stats.total_matvecs, on.stats.total_matvecs);

    assert!(!report.spans.is_empty(), "session recorded no spans");
    for stage in [Stage::Solve, Stage::Kernel, Stage::Extraction] {
        assert!(report.spans.iter().any(|s| s.stage == stage), "no {} span", stage.name());
    }
}

/// Serial and rayon executors agree bit-for-bit while a session records —
/// the spans observe the solves without perturbing them, on either
/// executor, and both executors' threads deliver spans into the same
/// session, each solve span tagged with its energy and node, and every span
/// with one of the grid's two energy indices.
#[test]
fn serial_and_rayon_agree_under_stage_level_session() {
    let _gate = SESSION_GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let h = al100();
    let (h00, h01) = (h.h00(), h.h01());
    let energies = [0.05, 0.11];
    // The session may not change results.
    let config = SweepConfig::new(al_ss());
    let sweep = EnergySweep::new(&h00, &h01, h.period(), config);

    let session = TraceSession::begin(TraceLevel::Stage).expect("another session is live");
    let serial = sweep.run(&energies, &SerialExecutor);
    let rayon = sweep.run(&energies, &RayonExecutor);
    let report = session.finish();

    assert_same_sweep(&serial, &rayon);
    let solves: Vec<_> = report.spans.iter().filter(|s| s.stage == Stage::Solve).collect();
    assert!(!solves.is_empty(), "session recorded no solve spans");
    assert!(solves.iter().all(|s| s.ctx.energy != CTX_UNSET && s.ctx.node != CTX_UNSET));
    let tagged: BTreeSet<u32> = report.spans.iter().map(|s| s.ctx.energy).collect();
    assert_eq!(tagged, BTreeSet::from([0, 1]), "energy indices of the spans");
    let labels: Vec<&str> = report.threads.iter().map(|&(_, l)| l).collect();
    assert!(labels.contains(&"serial"), "serial executor thread missing from {labels:?}");
    // The vendored rayon shim spawns scoped workers only when the machine
    // has more than one hardware thread; the calling thread, which keeps
    // its "serial" label, maps the first chunk, and on a single-CPU host
    // every chunk.
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if hw > 1 {
        assert!(labels.contains(&"rayon"), "rayon worker threads missing from {labels:?}");
    }
}

/// A checkpointed sweep killed partway and resumed while a session records
/// is bit-identical to an uninterrupted untraced run: tracing is invisible
/// to the checkpoint fingerprint and the resume path.  The resumed energies
/// keep their grid indices in the spans.
#[test]
fn kill_resume_with_tracing_is_bit_identical() {
    let _gate = SESSION_GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let (h00, h01) = common::random_blocks(10, 77);
    let op00 = DenseOp::new(h00);
    let op01 = DenseOp::new(h01);
    let energies: Vec<f64> = (0..12).map(|i| -0.25 + 0.05 * i as f64).collect();
    let ss = SsConfig {
        n_int: 16,
        n_mm: 4,
        n_rh: 6,
        bicg_tolerance: 1e-11,
        residual_cutoff: 1e-6,
        ..SsConfig::small()
    };
    let sweep = EnergySweep::new(&op00, &op01, 1.5, SweepConfig::new(ss));

    let dir = std::env::temp_dir().join(format!("cbs_trace_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.cp");
    let options = RunOptions { checkpoint_path: Some(&path), ..RunOptions::default() };
    let uninterrupted = sweep.run_with(&energies, &SerialExecutor, options).unwrap();
    let killed = common::killed_after(&SweepCheckpoint::load(&path).unwrap(), 5);

    let session = TraceSession::begin(TraceLevel::Stage).expect("another session is live");
    let resume = RunOptions { resume: Some(killed), ..RunOptions::default() };
    let resumed = sweep.run_with(&energies, &SerialExecutor, resume).unwrap();
    let report = session.finish();

    assert_same_sweep(&uninterrupted, &resumed);
    assert!(report.spans.iter().any(|s| s.stage == Stage::Solve), "no solve spans recorded");
    // Extraction, not Kernel: the dense test operator bypasses the sparse
    // kernel paths, but every energy runs the instrumented extraction.
    assert!(
        report.spans.iter().any(|s| s.stage == Stage::Extraction),
        "no extraction spans recorded"
    );
    let resumed_indices: BTreeSet<u32> = (5..=11).collect();
    assert_eq!(span_energies(&report, Stage::Solve), resumed_indices, "solve spans");
    assert_eq!(span_energies(&report, Stage::Extraction), resumed_indices, "extraction spans");
    std::fs::remove_dir_all(&dir).ok();
}

/// The session's Extraction CPU-ns is `CbsStatistics::extraction_seconds`
/// to rounding, since one pair of clock readings gives both, and the
/// attributed stage wall time fits inside the run's wall clock.  The
/// Chrome export of the same session is well-formed event by event.
#[test]
fn aggregation_matches_stats_and_chrome_export_is_well_formed() {
    let _gate = SESSION_GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let h = al100();
    let (h00, h01) = (h.h00(), h.h01());
    let energies = [0.05, 0.11];
    let sweep = EnergySweep::new(&h00, &h01, h.period(), SweepConfig::new(al_ss()));

    let session = TraceSession::begin(TraceLevel::Stage).expect("another session is live");
    let t0 = now_ns();
    let run = sweep.run(&energies, &SerialExecutor);
    let wall_ns = now_ns() - t0;
    let report = session.finish();
    let agg = report.stage_totals();

    // The stages run on disjoint code paths of one solve (only the kernels
    // of the extraction's residual checks nest inside its span, which can
    // only overcount), so their merged wall time fits inside the run's wall
    // clock (5% for clock jitter); an overshoot means double-counted or
    // mis-clipped spans.
    let attributed: u64 = [Stage::Kernel, Stage::IluFactor, Stage::TriSweep, Stage::Extraction]
        .into_iter()
        .map(|stage| agg.wall(stage))
        .sum();
    assert!(
        attributed as f64 <= 1.05 * wall_ns as f64,
        "attributed stage wall {attributed} ns exceeds the {wall_ns} ns run"
    );

    // Each extraction's span and seconds come from the same two readings,
    // so the sums differ only by the rounding of the ns → s conversions.
    let extraction_ns = agg.cpu(Stage::Extraction) as f64;
    let stats_ns = run.stats.extraction_seconds * 1e9;
    assert!(extraction_ns > 0.0, "no extraction time recorded");
    assert!(
        (extraction_ns - stats_ns).abs() <= 1e-9 * extraction_ns,
        "session extraction {extraction_ns} ns vs extraction_seconds {stats_ns} ns"
    );
    // Serial run: wall == cpu per stage (no overlap to merge away).
    assert!(agg.wall(Stage::Kernel) <= agg.cpu(Stage::Kernel));

    let mut buf = Vec::new();
    report.write_chrome_trace(&mut buf).unwrap();
    let text = String::from_utf8(buf).expect("chrome trace must be UTF-8");
    assert!(text.contains("\"traceEvents\""));
    assert!(text.contains("\"name\": \"solve\""));
    assert!(text.contains("\"name\": \"kernel\""));
    assert!(text.contains("\"name\": \"extraction\""));
    assert_eq!(text.matches('{').count(), text.matches('}').count(), "unbalanced braces");
    assert_eq!(text.matches('[').count(), text.matches(']').count(), "unbalanced brackets");

    // Event by event (the writer puts one per line): phases are metadata
    // or complete spans named after a stage, and
    // timestamps are non-negative and non-decreasing in file order.
    let str_field = |event: &str, key: &str| {
        let pat = format!("\"{key}\": \"");
        let rest = &event[event.find(&pat)? + pat.len()..];
        rest.find('"').map(|end| rest[..end].to_string())
    };
    let num_field = |event: &str, key: &str| {
        let pat = format!("\"{key}\": ");
        let rest = &event[event.find(&pat)? + pat.len()..];
        rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim().parse::<f64>().ok()
    };
    let mut last_ts = 0.0f64;
    let mut n_spans = 0usize;
    for event in text.lines().filter(|l| l.trim_start_matches(',').starts_with("{\"ph\"")) {
        let ph = str_field(event, "ph").expect("event without a phase");
        let name = str_field(event, "name").expect("event without a name");
        match ph.as_str() {
            "M" => continue,
            "X" => {
                assert!(Stage::from_name(&name).is_some(), "span named {name:?}");
                let dur = num_field(event, "dur").expect("span without a duration");
                assert!(dur >= 0.0, "negative duration in {event}");
                n_spans += 1;
            }
            other => panic!("unexpected phase {other:?}"),
        }
        let ts = num_field(event, "ts").expect("event without a timestamp");
        assert!(ts >= last_ts, "timestamp {ts} regresses below {last_ts}");
        last_ts = ts;
    }
    assert_eq!(n_spans, report.spans.len(), "every recorded span is exported once");
}
