//! Determinism and acceptance tests of the `cbs-sweep` orchestrator:
//!
//! * a cold sweep is bit-identical to the per-energy `compute_cbs` loop,
//!   on the serial *and* rayon executors;
//! * a warm-started sweep is bit-identical across executors and uses
//!   strictly fewer BiCG iterations than the cold loop on a fig6-style
//!   (≥ 32 energies) scan;
//! * a checkpointed sweep killed partway through resumes to a result
//!   bit-identical to an uninterrupted run, older checkpoint formats are
//!   refused by version, and seed tables of another problem by shape;
//! * adaptive refinement inserts midpoints only where the channel count
//!   changes, within budget, deterministically;
//! * the vestigial `SsConfig::auto` flag changes nothing.

use rand::SeedableRng;

use cbs::core::{compute_cbs, SsConfig};
use cbs::dft::{bulk_al_100, grid_for_structure, BlockHamiltonian, HamiltonianParams};
use cbs::grid::Grid3;
use cbs::linalg::{c64, CMatrix, CVector};
use cbs::parallel::{RayonExecutor, SerialExecutor};
use cbs::sparse::DenseOp;
use cbs::sweep::{
    sweep_cbs, CheckpointError, EnergyOrigin, EnergySweep, RunOptions, RunOutcome, SweepCheckpoint,
    SweepConfig, SweepResult,
};

mod common;

fn random_blocks(n: usize, seed: u64) -> (CMatrix, CMatrix) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let a = CMatrix::random(n, n, &mut rng);
    let h00 = (&a + &a.adjoint()).scale(c64(0.5, 0.0));
    let h01 = CMatrix::random(n, n, &mut rng).scale(c64(0.35, 0.0));
    (h00, h01)
}

fn test_ss() -> SsConfig {
    SsConfig {
        n_int: 16,
        n_mm: 4,
        n_rh: 6,
        bicg_tolerance: 1e-11,
        residual_cutoff: 1e-6,
        ..SsConfig::small()
    }
}

fn assert_same_cbs(a: &SweepResult, b: &SweepResult) {
    assert_eq!(a.cbs.energies.len(), b.cbs.energies.len());
    for (x, y) in a.cbs.energies.iter().zip(&b.cbs.energies) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.cbs.points.len(), b.cbs.points.len());
    for (p, q) in a.cbs.points.iter().zip(&b.cbs.points) {
        assert_eq!(p.energy_index, q.energy_index);
        assert_eq!(p.lambda.re.to_bits(), q.lambda.re.to_bits());
        assert_eq!(p.lambda.im.to_bits(), q.lambda.im.to_bits());
        assert_eq!(p.k_re.to_bits(), q.k_re.to_bits());
        assert_eq!(p.k_im.to_bits(), q.k_im.to_bits());
        assert_eq!(p.propagating, q.propagating);
        assert_eq!(p.residual.to_bits(), q.residual.to_bits());
    }
    assert_eq!(a.stats.total_bicg_iterations, b.stats.total_bicg_iterations);
    assert_eq!(a.stats.total_matvecs, b.stats.total_matvecs);
    assert_eq!(a.stats.warm_bicg_iterations, b.stats.warm_bicg_iterations);
    assert_eq!(a.stats.cold_bicg_iterations, b.stats.cold_bicg_iterations);
    assert_eq!(a.stats.refined_energies, b.stats.refined_energies);
}

/// Cold flattened sweep == per-energy loop, bit for bit, on both executors.
#[test]
fn cold_sweep_reproduces_per_energy_loop_on_both_executors() {
    let (h00, h01) = random_blocks(10, 71);
    let op00 = DenseOp::new(h00);
    let op01 = DenseOp::new(h01);
    let energies = [-0.3, -0.1, 0.1, 0.3];
    let cold = SweepConfig::cold(test_ss());

    let loop_run = compute_cbs(&op00, &op01, 1.6, &energies, &test_ss());
    assert!(!loop_run.cbs.points.is_empty(), "test problem found no CBS points");

    let serial = sweep_cbs(&op00, &op01, 1.6, &energies, &cold, &SerialExecutor);
    let rayon = sweep_cbs(&op00, &op01, 1.6, &energies, &cold, &RayonExecutor);
    assert_same_cbs(&serial, &rayon);

    assert_eq!(serial.cbs.points.len(), loop_run.cbs.points.len());
    for (p, q) in serial.cbs.points.iter().zip(&loop_run.cbs.points) {
        assert_eq!(p.energy_index, q.energy_index);
        assert_eq!(p.lambda.re.to_bits(), q.lambda.re.to_bits());
        assert_eq!(p.lambda.im.to_bits(), q.lambda.im.to_bits());
        assert_eq!(p.k_re.to_bits(), q.k_re.to_bits());
        assert_eq!(p.k_im.to_bits(), q.k_im.to_bits());
    }
    assert_eq!(serial.stats.total_bicg_iterations, loop_run.stats.total_bicg_iterations);
}

/// Fig6-style acceptance: on a ≥ 32-energy scan, the warm-started sweep
/// reports fewer total BiCG iterations than the cold loop, stays
/// executor-independent, and finds the same physics (same per-energy point
/// counts, matching eigenvalues within the solver tolerance).
#[test]
fn warm_sweep_beats_cold_loop_on_fig6_style_scan() {
    let (h00, h01) = random_blocks(12, 72);
    let op00 = DenseOp::new(h00);
    let op01 = DenseOp::new(h01);
    let n_energies = 32;
    let energies: Vec<f64> =
        (0..n_energies).map(|i| -0.3 + 0.6 * i as f64 / (n_energies - 1) as f64).collect();
    let ss = test_ss();

    let cold = sweep_cbs(&op00, &op01, 1.6, &energies, &SweepConfig::cold(ss), &SerialExecutor);
    let warm_cfg = SweepConfig { initial_round: 4, ..SweepConfig::new(ss) };
    let warm = sweep_cbs(&op00, &op01, 1.6, &energies, &warm_cfg, &SerialExecutor);

    // Fewer iterations in total, with the split recorded in CbsStatistics.
    assert!(
        warm.stats.total_bicg_iterations < cold.stats.total_bicg_iterations,
        "warm {} >= cold {}",
        warm.stats.total_bicg_iterations,
        cold.stats.total_bicg_iterations
    );
    assert!(warm.stats.warm_started_solves > 0);
    assert_eq!(
        warm.stats.warm_bicg_iterations + warm.stats.cold_bicg_iterations,
        warm.stats.total_bicg_iterations
    );
    // The warm-started solves are cheaper per solve than the cold ones.
    let warm_rate = warm.stats.warm_bicg_iterations as f64 / warm.stats.warm_started_solves as f64;
    let cold_rate = cold.stats.total_bicg_iterations as f64 / cold.stats.cold_solves as f64;
    assert!(warm_rate < cold_rate, "warm {warm_rate:.1} it/solve vs cold {cold_rate:.1}");

    // Same physics: identical point counts per energy, eigenvalues within
    // the solver tolerance of the cold run's.
    assert_eq!(warm.cbs.points.len(), cold.cbs.points.len());
    for (i, _) in energies.iter().enumerate() {
        let wp: Vec<_> = warm.cbs.at_energy(i).collect();
        let cp: Vec<_> = cold.cbs.at_energy(i).collect();
        assert_eq!(wp.len(), cp.len(), "point count differs at energy {i}");
        // Matched one to one: the points are ordered by (|λ|, arg λ), and
        // two propagating states both have |λ| = 1 up to solver noise, so
        // their relative order is not comparable across trajectories.  Each
        // warm point consumes its nearest remaining cold point.
        let mut cp = cp;
        for w in &wp {
            let nearest = (0..cp.len())
                .min_by(|&a, &b| {
                    (cp[a].lambda - w.lambda).abs().total_cmp(&(cp[b].lambda - w.lambda).abs())
                })
                .expect("same point count");
            let c = cp.swap_remove(nearest);
            assert!(
                (w.lambda - c.lambda).abs() < 1e-6,
                "λ drifted: {:?} vs {:?}",
                w.lambda,
                c.lambda
            );
            assert_eq!(w.propagating, c.propagating);
        }
    }

    // Executor independence of the warm-started sweep.
    let warm_rayon = sweep_cbs(&op00, &op01, 1.6, &energies, &warm_cfg, &RayonExecutor);
    assert_same_cbs(&warm, &warm_rayon);
}

/// Kill a checkpointed sweep partway, resume it, and get bit-identical
/// results — including when the interruption lands mid-round.
#[test]
fn checkpointed_sweep_resumes_bit_identically() {
    let (h00, h01) = random_blocks(10, 73);
    let op00 = DenseOp::new(h00);
    let op01 = DenseOp::new(h01);
    let energies: Vec<f64> = (0..12).map(|i| -0.25 + 0.05 * i as f64).collect();
    let config = SweepConfig { initial_round: 4, ..SweepConfig::new(test_ss()) };
    let sweep = cbs::sweep::EnergySweep::new(&op00, &op01, 1.5, config);

    let uninterrupted = sweep.run(&energies, &SerialExecutor);

    let dir = std::env::temp_dir().join(format!("cbs_sweep_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.cp");

    for kill_after in [3usize, 7] {
        // Run until the kill point, checkpointing each energy.
        let outcome = sweep
            .run_with(
                &energies,
                &SerialExecutor,
                RunOptions {
                    checkpoint_path: Some(&path),
                    max_new_energies: Some(kill_after),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        let cp = match outcome {
            RunOutcome::Interrupted(cp) => cp,
            RunOutcome::Complete(_) => panic!("budget of {kill_after} should interrupt"),
        };
        assert_eq!(cp.records.len(), kill_after);

        // The on-disk checkpoint equals the returned one.
        let from_disk = SweepCheckpoint::load(&path).unwrap();
        assert_eq!(from_disk.records.len(), cp.records.len());
        assert_eq!(from_disk.fingerprint, cp.fingerprint);

        // Resume from disk and compare against the uninterrupted run.
        let resumed = sweep
            .run_with(
                &energies,
                &SerialExecutor,
                RunOptions { resume: Some(from_disk), ..RunOptions::default() },
            )
            .unwrap()
            .expect_complete("resume must finish");
        assert_same_cbs(&uninterrupted, &resumed);
    }

    // The checkpoint on disk is v14; older formats — v3, v11 with its
    // slice-policy fingerprint slots, v12 whose ILU sweeps ran full ILU(0),
    // and v13 whose ILU sweeps preconditioned instead of splitting — are
    // refused with the dedicated error naming the version, not parsed into
    // a mismatched fingerprint or resumed into another trajectory.
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.starts_with("cbs-sweep-checkpoint v14"), "unexpected magic in {path:?}");
    for old in ["v3", "v11", "v12", "v13"].map(|v| format!("cbs-sweep-checkpoint {v}")) {
        match SweepCheckpoint::parse(&text.replacen("cbs-sweep-checkpoint v14", &old, 1)) {
            Err(CheckpointError::IncompatibleVersion { found }) => assert_eq!(found, old),
            other => panic!("{old} checkpoint accepted or misclassified: {other:?}"),
        }
    }

    // Resuming under a different configuration is refused.
    let other = cbs::sweep::EnergySweep::new(
        &op00,
        &op01,
        1.5,
        SweepConfig { initial_round: 2, ..*sweep.config() },
    );
    let cp = SweepCheckpoint::load(&path).unwrap();
    assert!(other
        .run_with(
            &energies,
            &SerialExecutor,
            RunOptions { resume: Some(cp), ..RunOptions::default() }
        )
        .is_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint resumes only the problem it was written for.  The fig6 cell
/// at another grid spacing has the same period and configuration — before
/// the dimension joined the fingerprint its seed vectors were adopted and
/// the first seeded solve panicked — and is refused; so is a seed table of
/// the wrong shape under a matching fingerprint.  The checkpoint itself
/// resumes the ILU policy's split route bit-identically.
#[test]
fn resume_refuses_seed_tables_of_another_problem() {
    let fig6 = common::fig6_hamiltonian();
    // fig6's cell with one more point across each transverse axis: the
    // `z` grid, and so the period, is fig6's bit for bit.
    let cell = bulk_al_100(1);
    let g = grid_for_structure(&cell, 1.5);
    let (nx, ny) = (g.nx + 1, g.ny + 1);
    let (hx, hy) = (cell.lateral.0 / nx as f64, cell.lateral.1 / ny as f64);
    let params = HamiltonianParams { fd: cbs::grid::FdOrder::new(1), include_nonlocal: true };
    let finer = BlockHamiltonian::build(Grid3::new(nx, ny, g.nz, hx, hy, g.hz), &cell, params);
    assert_ne!(finer.dim(), fig6.dim());
    assert_eq!(finer.period().to_bits(), fig6.period().to_bits());

    let energies = [0.05, 0.09, 0.13];
    let config = SweepConfig { initial_round: 2, ..SweepConfig::new(common::fig6_config()) };
    let run = |h: &BlockHamiltonian, resume: Option<SweepCheckpoint>, budget: Option<usize>| {
        let (h00, h01) = (h.h00(), h.h01());
        let sweep = EnergySweep::new(&h00, &h01, h.period(), config).with_pattern(h.qep_pattern());
        let options = RunOptions { resume, max_new_energies: budget, ..RunOptions::default() };
        sweep.run_with(&energies, &SerialExecutor, options)
    };
    let Ok(RunOutcome::Interrupted(cp)) = run(&fig6, None, Some(2)) else {
        panic!("a budget of 2 interrupts a 3-energy sweep")
    };
    assert!(!cp.seed_bank.is_empty(), "the first round donated its solutions");
    let refused = |outcome| matches!(outcome, Err(CheckpointError::Mismatch(_)));

    // The same cell at another spacing: same period, same configuration.
    assert!(refused(run(&finer, Some(cp.clone()), None)), "another spacing resumed");
    // The same problem with a table one pair short, or one vector short.
    let mut short = cp.clone();
    short.seed_bank[0].1.pop();
    let mut narrow = cp.clone();
    narrow.pending_donations = std::mem::take(&mut narrow.seed_bank);
    narrow.pending_donations[0].1[0].0 = CVector::zeros(fig6.dim() - 1);
    assert!(refused(run(&fig6, Some(short), None)), "a short table resumed");
    assert!(refused(run(&fig6, Some(narrow), None)), "a short pending seed vector resumed");
    // The checkpoint itself resumes — the split route, warm — to the
    // uninterrupted sweep, bit for bit.
    let Ok(RunOutcome::Complete(resumed)) = run(&fig6, Some(cp), None) else {
        panic!("the checkpoint resumes")
    };
    let Ok(RunOutcome::Complete(whole)) = run(&fig6, None, None) else { panic!("no budget") };
    assert!(whole.stats.warm_started_solves > 0);
    assert_same_cbs(&whole, &resumed);
}

/// `SsConfig::auto` is a vestigial declaration (the calibrated tuner is
/// gone): a sweep that sets it is the sweep that does not — same result
/// bits, same checkpoint bytes, and either one resumes the other's file.
#[test]
fn vestigial_auto_flag_is_inert() {
    let (h00, h01) = random_blocks(10, 73);
    let op00 = DenseOp::new(h00);
    let op01 = DenseOp::new(h01);
    let energies: Vec<f64> = (0..6).map(|i| -0.25 + 0.1 * i as f64).collect();
    let sweep_with = |auto: bool| {
        let ss = SsConfig { auto, ..test_ss() };
        let config = SweepConfig { initial_round: 4, ..SweepConfig::new(ss) };
        cbs::sweep::EnergySweep::new(&op00, &op01, 1.5, config)
    };
    let (plain, flagged) = (sweep_with(false), sweep_with(true));

    let full_plain = plain.run(&energies, &SerialExecutor);
    let full_flagged = flagged.run(&energies, &SerialExecutor);
    assert!(!full_plain.cbs.points.is_empty(), "test problem found no CBS points");
    assert_same_cbs(&full_plain, &full_flagged);
    for (a, b) in full_plain.records.iter().zip(&full_flagged.records) {
        assert_eq!(a.stats, b.stats, "per-energy counters differ at E = {}", a.energy);
    }
    assert!(full_plain.auto.is_none() && full_flagged.auto.is_none());

    let dir = std::env::temp_dir().join(format!("cbs_sweep_auto_inert_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let killed = |sweep: &cbs::sweep::EnergySweep<'_>, name: &str| {
        let path = dir.join(name);
        let options = RunOptions {
            checkpoint_path: Some(&path),
            max_new_energies: Some(3),
            ..RunOptions::default()
        };
        let outcome = sweep.run_with(&energies, &SerialExecutor, options).unwrap();
        assert!(matches!(outcome, RunOutcome::Interrupted(_)), "budget of 3 should interrupt");
        path
    };
    let (plain_path, flagged_path) = (killed(&plain, "plain.cp"), killed(&flagged, "flagged.cp"));
    assert_eq!(std::fs::read(&plain_path).unwrap(), std::fs::read(&flagged_path).unwrap());

    for (sweep, path) in [(&flagged, &plain_path), (&plain, &flagged_path)] {
        let resume = Some(SweepCheckpoint::load(path).unwrap());
        let resumed = sweep
            .run_with(&energies, &SerialExecutor, RunOptions { resume, ..RunOptions::default() })
            .expect("a checkpoint written under the other flag value resumes")
            .expect_complete("resume must finish");
        assert_same_cbs(&full_plain, &resumed);
        assert!(resumed.auto.is_none());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Resume stays bit-identical even once the seed bank's capacity eviction
/// kicks in: donors are chosen from completed batches only, and a mid-batch
/// kill must not let the killed batch's own donations evict the donors its
/// remaining members would have used.
#[test]
fn resume_is_bit_identical_under_seed_bank_eviction() {
    let (h00, h01) = random_blocks(10, 75);
    let op00 = DenseOp::new(h00);
    let op01 = DenseOp::new(h01);
    let energies: Vec<f64> = (0..16).map(|i| -0.3 + 0.04 * i as f64).collect();
    // Tiny bank: every completion evicts, so any donor-selection dependence
    // on where a previous run was killed would show up bitwise.
    let config =
        SweepConfig { initial_round: 4, seed_bank_capacity: 2, ..SweepConfig::new(test_ss()) };
    let sweep = cbs::sweep::EnergySweep::new(&op00, &op01, 1.5, config);
    let uninterrupted = sweep.run(&energies, &SerialExecutor);
    assert!(uninterrupted.stats.warm_started_solves > 0);

    let dir = std::env::temp_dir().join(format!("cbs_sweep_evict_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.cp");
    // Kill points chosen to land mid-round of the 4/4/8 wavefront rounds.
    for kill_after in [2usize, 6, 11, 15] {
        let outcome = sweep
            .run_with(
                &energies,
                &SerialExecutor,
                RunOptions {
                    checkpoint_path: Some(&path),
                    max_new_energies: Some(kill_after),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        let RunOutcome::Interrupted(_) = outcome else { panic!("should interrupt") };
        let resumed = sweep
            .run_with(
                &energies,
                &SerialExecutor,
                RunOptions {
                    resume: Some(SweepCheckpoint::load(&path).unwrap()),
                    ..RunOptions::default()
                },
            )
            .unwrap()
            .expect_complete("resume must finish");
        assert_same_cbs(&uninterrupted, &resumed);
        // The donor choices themselves must match, not just the physics.
        for (a, b) in uninterrupted.records.iter().zip(&resumed.records) {
            assert_eq!(
                a.seeded_from.map(f64::to_bits),
                b.seeded_from.map(f64::to_bits),
                "donor differs at E = {} after kill at {kill_after}",
                a.energy
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Adaptive refinement bisects exactly the intervals where the propagating
/// channel count changes, respects its budget, and stays deterministic.
#[test]
fn refinement_bisects_channel_count_changes_within_budget() {
    let (h00, h01) = random_blocks(12, 74);
    let op00 = DenseOp::new(h00);
    let op01 = DenseOp::new(h01);
    let energies: Vec<f64> = (0..9).map(|i| -0.4 + 0.1 * i as f64).collect();
    let budget = 6;
    let config = SweepConfig {
        initial_round: 4,
        min_refine_spacing: 1e-3,
        ..SweepConfig::new(test_ss()).with_refinement(budget)
    };
    let run = sweep_cbs(&op00, &op01, 1.6, &energies, &config, &SerialExecutor);

    let refined: Vec<_> =
        run.records.iter().filter(|r| matches!(r.origin, EnergyOrigin::Refined { .. })).collect();
    assert_eq!(run.stats.refined_energies, refined.len());
    assert!(refined.len() <= budget);
    // The base grid had at least one channel-count change, so something was
    // refined (otherwise this test exercises nothing).
    assert!(!refined.is_empty(), "no interval triggered refinement");
    for r in &refined {
        match r.origin {
            EnergyOrigin::Refined { lo, hi } => {
                assert!((r.energy - 0.5 * (lo + hi)).abs() < 1e-14, "not a midpoint");
                assert!(hi - lo > config.min_refine_spacing);
            }
            _ => unreachable!(),
        }
    }
    // Energies stay sorted with the refined points merged in, and every
    // point's energy_index is consistent.
    for w in run.cbs.energies.windows(2) {
        assert!(w[0] < w[1]);
    }
    for p in &run.cbs.points {
        assert_eq!(run.cbs.energies[p.energy_index].to_bits(), p.energy.to_bits());
    }
    // Determinism: an identical run makes identical refinement decisions.
    let again = sweep_cbs(&op00, &op01, 1.6, &energies, &config, &RayonExecutor);
    assert_same_cbs(&run, &again);
}
