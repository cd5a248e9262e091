//! Policy-regression tier for calibrated auto-tuning (`SsConfig::auto()` /
//! `CBS_AUTO=1`):
//!
//! * an auto-tuned sweep on the fig6 Al(100) system is **bitwise** the
//!   fixed configuration its probe selects — the probe solves are
//!   throwaway (no warm-start contamination) and the committed cell is the
//!   only thing that feeds back;
//! * the probe→commit decision is deterministic across the serial and
//!   rayon executors (the probe itself always runs serially) and replays
//!   bit-identically on kill/resume (the decision is recorded in the
//!   checkpoint, never re-probed);
//! * at bench scale the cost model never selects `S > 1` — the known
//!   crossover fact from `BENCH_sweep.json` (a 2-sector partition costs
//!   ~2.9x wall because the solve volume at least doubles while extraction
//!   is a fraction of a percent of the sweep).

use cbs::core::{PrecondPolicy, SsConfig};
use cbs::dft::BlockHamiltonian;
use cbs::parallel::{
    CalibrationSample, CellId, CostModel, RayonExecutor, SerialExecutor, TaskExecutor, WorkloadSpec,
};
use cbs::sweep::{EnergySweep, RunOptions, RunOutcome, SweepConfig, SweepResult};

mod common;
use common::fig6_hamiltonian;

/// A sweep-affordable configuration with auto-tuning on.
fn auto_ss() -> SsConfig {
    SsConfig {
        bicg_max_iterations: 2_000,
        residual_cutoff: 1e-6,
        auto: true,
        ..common::fig6_config()
    }
}

fn fig6_energies() -> Vec<f64> {
    (0..4).map(|i| 0.05 + 0.04 * i as f64).collect()
}

fn run_auto<E: TaskExecutor>(
    h: &BlockHamiltonian,
    config: SweepConfig,
    executor: &E,
    opts: RunOptions<'_>,
) -> Result<RunOutcome, cbs::sweep::CheckpointError> {
    let h00 = h.h00();
    let h01 = h.h01();
    let (pattern, projector) = h.qep_factored();
    EnergySweep::new(&h00, &h01, h.period(), config)
        .with_pattern(pattern)
        .with_projector(projector)
        .run_with(&fig6_energies(), executor, opts)
}

fn assert_same_cbs(a: &SweepResult, b: &SweepResult, what: &str) {
    assert_eq!(a.cbs.energies.len(), b.cbs.energies.len(), "{what}: energy count");
    for (x, y) in a.cbs.energies.iter().zip(&b.cbs.energies) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: energy differs");
    }
    assert_eq!(a.cbs.points.len(), b.cbs.points.len(), "{what}: point count");
    for (p, q) in a.cbs.points.iter().zip(&b.cbs.points) {
        assert_eq!(p.energy_index, q.energy_index, "{what}: energy_index");
        assert_eq!(p.lambda.re.to_bits(), q.lambda.re.to_bits(), "{what}: Re λ");
        assert_eq!(p.lambda.im.to_bits(), q.lambda.im.to_bits(), "{what}: Im λ");
        assert_eq!(p.k_re.to_bits(), q.k_re.to_bits(), "{what}: Re k");
        assert_eq!(p.k_im.to_bits(), q.k_im.to_bits(), "{what}: Im k");
        assert_eq!(p.propagating, q.propagating, "{what}: propagating");
        assert_eq!(p.residual.to_bits(), q.residual.to_bits(), "{what}: residual");
    }
    assert_eq!(a.stats.total_bicg_iterations, b.stats.total_bicg_iterations, "{what}: iters");
    assert_eq!(a.stats.operator_traversals, b.stats.operator_traversals, "{what}: traversals");
    assert_eq!(a.stats.operator_assemblies, b.stats.operator_assemblies, "{what}: assemblies");
}

/// (a) `SsConfig::auto()` on fig6 Al(100) is bit-identical to the fixed
/// configuration its probe selects: the probe decides, then gets out of the
/// way.
#[test]
fn auto_sweep_is_bitwise_the_fixed_cell_it_selects() {
    let h = fig6_hamiltonian();
    let config = SweepConfig { initial_round: 2, ..SweepConfig::new(auto_ss()) };

    let auto_run = run_auto(&h, config, &SerialExecutor, RunOptions::default())
        .expect("no checkpoint I/O")
        .expect_complete("no budget set");
    let decision = auto_run.auto.clone().expect("auto sweep must commit a decision");
    let ladder: Vec<PrecondPolicy> = decision.probe.iter().map(|s| s.precond).collect();
    assert_eq!(
        ladder,
        [PrecondPolicy::MatrixFree, PrecondPolicy::AssembledIlu0],
        "with a pattern attached the probe measures the two-cell ladder"
    );
    // Probe counters are the deterministic leg of every sample.
    for s in &decision.probe {
        assert!(s.iterations > 0, "probe sample with zero iterations");
        assert!(s.wall_ns > 0, "probe sample with zero wall");
    }

    // The fixed configuration the decision resolves to, run without any
    // probing, must reproduce the auto sweep bit for bit.
    let fixed_ss = auto_ss().resolve_auto(Some(decision.cell()));
    assert!(!fixed_ss.auto, "resolved configuration must have auto cleared");
    let fixed_config = SweepConfig { initial_round: 2, ..SweepConfig::new(fixed_ss) };
    let fixed_run = run_auto(&h, fixed_config, &SerialExecutor, RunOptions::default())
        .expect("no checkpoint I/O")
        .expect_complete("no budget set");
    assert!(fixed_run.auto.is_none(), "fixed sweep must not probe");
    assert_same_cbs(&auto_run, &fixed_run, "auto vs selected fixed cell");
}

/// (b) The probe→commit decision is deterministic across executors, and a
/// killed auto sweep resumes from its checkpoint bit-identically —
/// replaying the recorded decision instead of re-probing.
#[test]
fn auto_decision_is_deterministic_across_executors_and_kill_resume() {
    let h = fig6_hamiltonian();
    let config = SweepConfig { initial_round: 2, ..SweepConfig::new(auto_ss()) };

    let serial = run_auto(&h, config, &SerialExecutor, RunOptions::default())
        .expect("no checkpoint I/O")
        .expect_complete("no budget set");
    let rayon = run_auto(&h, config, &RayonExecutor, RunOptions::default())
        .expect("no checkpoint I/O")
        .expect_complete("no budget set");
    let cell_serial = serial.auto.as_ref().expect("serial decision").cell();
    let cell_rayon = rayon.auto.as_ref().expect("rayon decision").cell();
    assert_eq!(cell_serial, cell_rayon, "probe decision differs across executors");
    assert_same_cbs(&serial, &rayon, "serial vs rayon auto sweep");

    // Kill after two energies, resume from the checkpoint: the resumed run
    // must not re-probe (same committed cell bit for bit) and the final
    // result must equal the uninterrupted one exactly.
    let dir = std::env::temp_dir().join("cbs_auto_tune_resume_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("auto.ckpt");
    let outcome = run_auto(
        &h,
        config,
        &SerialExecutor,
        RunOptions {
            checkpoint_path: Some(&path),
            max_new_energies: Some(2),
            ..RunOptions::default()
        },
    )
    .expect("checkpoint I/O");
    let cp = match outcome {
        RunOutcome::Interrupted(cp) => cp,
        RunOutcome::Complete(_) => panic!("budget of 2 on a 4-energy grid must interrupt"),
    };
    let recorded = cp.auto.clone().expect("interrupted auto sweep must checkpoint its decision");
    let resumed = run_auto(
        &h,
        config,
        &SerialExecutor,
        RunOptions { resume: Some(cp), checkpoint_path: Some(&path), ..RunOptions::default() },
    )
    .expect("checkpoint I/O")
    .expect_complete("resume must finish the grid");
    // Replay, not re-probe: probe samples (wall-ns included) carry over
    // unchanged, which only a replay can guarantee.
    assert_eq!(resumed.auto.as_ref(), Some(&recorded), "resume must replay the recorded decision");
    assert_eq!(recorded.cell(), cell_serial, "kill/resume decision differs from uninterrupted");
    assert_same_cbs(&serial, &resumed, "uninterrupted vs kill/resume auto sweep");

    // A fixed-policy checkpoint cannot be resumed into an auto sweep.
    let fixed_ss = auto_ss().resolve_auto(Some(cell_serial));
    let fixed_config = SweepConfig { initial_round: 2, ..SweepConfig::new(fixed_ss) };
    let fixed_path = dir.join("fixed.ckpt");
    let fixed_outcome = run_auto(
        &h,
        fixed_config,
        &SerialExecutor,
        RunOptions {
            checkpoint_path: Some(&fixed_path),
            max_new_energies: Some(2),
            ..RunOptions::default()
        },
    )
    .expect("checkpoint I/O");
    let fixed_cp = match fixed_outcome {
        RunOutcome::Interrupted(cp) => cp,
        RunOutcome::Complete(_) => panic!("budget of 2 on a 4-energy grid must interrupt"),
    };
    assert!(fixed_cp.auto.is_none());
    let refused = run_auto(
        &h,
        config,
        &SerialExecutor,
        RunOptions { resume: Some(fixed_cp), ..RunOptions::default() },
    );
    assert!(
        matches!(refused, Err(cbs::sweep::CheckpointError::Mismatch(_))),
        "fixed checkpoint resumed into an auto sweep must be refused"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Two sweeps that reach the probe of one memo key at the same moment share
/// one measurement: the memo is a get-or-measure under one lock, so the
/// second waits for the first one's samples (wall-ns included) rather than
/// committing its own.  The seed is this test's alone, so no other test has
/// filled the key; the barrier releases both sweeps together, and both miss
/// the memo unless the lookup and the measurement are one critical section.
#[test]
fn concurrent_probes_of_one_key_share_one_measurement() {
    let h = fig6_hamiltonian();
    let ss = SsConfig { seed: 0x00c0_ffee_0012, ..auto_ss() };
    let config = SweepConfig { initial_round: 2, ..SweepConfig::new(ss) };
    let start = std::sync::Barrier::new(2);
    let probe = || {
        start.wait();
        run_auto(&h, config, &SerialExecutor, RunOptions::default())
            .expect("no checkpoint I/O")
            .expect_complete("no budget set")
            .auto
            .expect("auto sweep must commit a decision")
    };
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(probe);
        (probe(), other.join().expect("concurrent sweep panicked"))
    });
    assert_eq!(a, b, "concurrent sweeps of one key must commit one set of probe samples");
}

/// The `CBS_AUTO=1` env knob drives a sweep whose `SsConfig` never set
/// `auto` programmatically: the sweep probes, commits a cell, and the
/// decision matches what `SsConfig::auto()` would have picked (same
/// memoized probe).  Exercised by the CI policy-matrix `auto` cell, which
/// runs exactly this test with the knob exported; without the knob the
/// test is a no-op so the default tiers stay knob-free.
#[test]
fn cbs_auto_env_knob_drives_the_sweep() {
    if cbs::trace::knob::<u64>("CBS_AUTO").is_none_or(|v| v == 0) {
        return; // the CI auto cell sets CBS_AUTO=1; nothing to check here
    }
    let h = fig6_hamiltonian();
    let knob_ss = SsConfig { auto: false, ..auto_ss() };
    assert!(knob_ss.auto_enabled(), "CBS_AUTO=1 must enable auto-tuning");
    let config = SweepConfig { initial_round: 2, ..SweepConfig::new(knob_ss) };
    let run = run_auto(&h, config, &SerialExecutor, RunOptions::default())
        .expect("no checkpoint I/O")
        .expect_complete("no budget set");
    let knob_cell = run.auto.expect("knob-driven sweep must commit a decision").cell();

    let explicit = SweepConfig { initial_round: 2, ..SweepConfig::new(auto_ss()) };
    let explicit_run = run_auto(&h, explicit, &SerialExecutor, RunOptions::default())
        .expect("no checkpoint I/O")
        .expect_complete("no budget set");
    assert_eq!(
        explicit_run.auto.expect("explicit auto sweep must commit a decision").cell(),
        knob_cell,
        "env knob and SsConfig::auto() must commit the same cell"
    );
}

/// (c) At bench scale the model never selects `S > 1`: fed the measured
/// shape of `BENCH_sweep.json` (ILU(0) cold sweep 0.28 s wall of which
/// extraction is ~2.1 ms — 0.8%), slicing's doubled solve volume — doubled
/// again because slices cannot use the mirrored half ring — can never be
/// paid for by cubic extraction shrinkage.
#[test]
fn bench_scale_model_never_selects_slices() {
    // The tracked bench numbers: Al(100) 8-energy cold ILU(0) sweep.
    let cell = CellId { precond: 2, slices: 1 };
    let sample = CalibrationSample {
        cell,
        dimension: 1620,
        nnz: 37 * 1620,
        n_rh: 4,
        energies: 8,
        iterations: 6123,
        traversals: 3158,
        assemblies: 48,
        wall_ns: 278_000_000,
        kernel_wall_ns: 135_000_000,
        precond_wall_ns: 107_000_000,
        extraction_wall_ns: 2_100_000,
    };
    let model = CostModel::fit(&[sample]).expect("valid sample must fit");
    let w = WorkloadSpec { dimension: 1620, nnz: 37 * 1620, n_rh: 4, energies: 8, mirrored: true };
    for max_s in [2, 4, 8] {
        assert_eq!(
            model.tune_slices(cell, &w, max_s, 0.10),
            1,
            "bench-scale workload must never slice (max_s = {max_s})"
        );
    }
    // And end-to-end: the committed decision of a real auto sweep on the
    // fig6 system stays single-contour.
    let h = fig6_hamiltonian();
    let config = SweepConfig { initial_round: 2, ..SweepConfig::new(auto_ss()) };
    let run = run_auto(&h, config, &SerialExecutor, RunOptions::default())
        .expect("no checkpoint I/O")
        .expect_complete("no budget set");
    assert_eq!(run.auto.expect("decision").slices, 1, "auto sweep must not slice at this scale");
}
