//! Determinism and acceptance tests of the `cbs-sweep` orchestrator:
//!
//! * a sweep is bit-identical to the per-energy loop of
//!   `solve_qep_with(&sweep.problem_at(e), …)`, on the serial *and* rayon
//!   executors: on dense complex blocks (full ring), and on the ILU
//!   policy's split route over the fig6 cell's real stencil (mirrored
//!   ring);
//! * a checkpointed sweep killed partway through resumes to a result
//!   bit-identical to an uninterrupted run, older checkpoint formats are
//!   refused by version, and a checkpoint of another problem by its
//!   fingerprint;
//! * adaptive refinement inserts midpoints only where the channel count
//!   changes, within budget, deterministically;
//! * the vestigial `SsConfig::auto` flag and `SweepConfig::initial_round`
//!   change nothing.

use rand::SeedableRng;

use cbs::core::{classify_point, solve_qep_with, PrecondPolicy, SsConfig};
use cbs::dft::{bulk_al_100, grid_for_structure, BlockHamiltonian, HamiltonianParams};
use cbs::grid::Grid3;
use cbs::linalg::{c64, CMatrix};
use cbs::parallel::{RayonExecutor, SerialExecutor};
use cbs::sparse::DenseOp;
use cbs::sweep::{
    CheckpointError, EnergyOrigin, EnergySweep, RunOptions, RunOutcome, SweepCheckpoint,
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
    assert_eq!(a.stats.refined_energies, b.stats.refined_energies);
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.stats, y.stats, "per-energy counters differ at E = {}", x.energy);
    }
}

/// Each energy of a cold sweep over dense complex blocks (the full ring) is
/// the per-energy `solve_qep_with(&sweep.problem_at(e), …)` classified by
/// `classify_point`, bit for bit: eigenvalues, residuals and every counter,
/// on both executors.
#[test]
fn cold_sweep_reproduces_per_energy_loop_on_both_executors() {
    let (h00, h01) = random_blocks(10, 71);
    let (op00, op01) = (DenseOp::new(h00), DenseOp::new(h01));
    let dense = EnergySweep::new(&op00, &op01, 1.6, SweepConfig::new(test_ss()));
    assert!(!dense.problem_at(0.0).is_conjugate_symmetric(), "complex blocks: the full ring");
    assert_sweep_is_the_per_energy_loop(&dense, &[-0.3, -0.1, 0.1, 0.3]);
}

/// The same check on the path every Al(100) sweep takes — the ILU policy on
/// the fig6 cell's real stencil, each node split by its diagonal ILU — on
/// the mirrored ring.
#[test]
fn ilu_split_sweep_is_the_per_energy_solve_on_both_executors() {
    let h = common::fig6_hamiltonian();
    let (h00, h01) = (h.h00(), h.h01());
    let ss = SsConfig { precond: PrecondPolicy::AssembledIlu0, ..common::fig6_config() };
    let fig6 = EnergySweep::new(&h00, &h01, h.period(), SweepConfig::new(ss))
        .with_pattern(h.qep_pattern());
    assert!(fig6.problem_at(0.0).is_conjugate_symmetric(), "real blocks: the mirrored ring");
    assert_sweep_is_the_per_energy_loop(&fig6, &[0.05, 0.09, 0.13]);
    assert!(fig6.problem_at(0.05).real_stencil().is_some(), "the stencil converts");
}

/// `sweep` on the ascending grid `energies`, serial and rayon, against the
/// per-energy solves of the sweep's own problems.
fn assert_sweep_is_the_per_energy_loop(sweep: &EnergySweep<'_>, energies: &[f64]) {
    let ss = sweep.config().ss;
    let serial = sweep.run(energies, &SerialExecutor);
    let rayon = sweep.run(energies, &RayonExecutor);
    assert_same_cbs(&serial, &rayon);
    for run in [&serial, &rayon] {
        assert_eq!(run.records.len(), energies.len());
        for (index, (record, &energy)) in run.records.iter().zip(energies).enumerate() {
            assert_eq!(record.energy.to_bits(), energy.to_bits());
            let problem = sweep.problem_at(energy);
            let alone = solve_qep_with(&problem, &ss, &SerialExecutor);
            assert!(!alone.eigenpairs.is_empty(), "no eigenpairs at E = {energy}");
            let s = &record.stats;
            assert_eq!(
                [s.bicg_iterations, s.matvecs, s.operator_traversals, s.operator_assemblies],
                [
                    alone.total_bicg_iterations,
                    alone.total_matvecs,
                    alone.total_traversals,
                    alone.operator_assemblies
                ],
                "counters at E = {energy}"
            );
            assert_eq!(
                [s.solves, s.accepted, s.discarded, s.numerical_rank],
                [
                    alone.shifted_solves,
                    alone.eigenpairs.len(),
                    alone.discarded,
                    alone.numerical_rank
                ],
                "extraction at E = {energy}"
            );
            assert_eq!(record.points.len(), alone.eigenpairs.len());
            for (p, pair) in record.points.iter().zip(&alone.eigenpairs) {
                let q = classify_point(&problem, index, pair);
                assert_eq!(p.energy_index, q.energy_index, "E = {energy}");
                assert_eq!(p.lambda.re.to_bits(), q.lambda.re.to_bits(), "E = {energy}");
                assert_eq!(p.lambda.im.to_bits(), q.lambda.im.to_bits(), "E = {energy}");
                assert_eq!(p.k_re.to_bits(), q.k_re.to_bits(), "E = {energy}");
                assert_eq!(p.k_im.to_bits(), q.k_im.to_bits(), "E = {energy}");
                assert_eq!(p.propagating, q.propagating, "E = {energy}");
                assert_eq!(p.residual.to_bits(), q.residual.to_bits(), "E = {energy}");
            }
        }
    }
}

/// Kill a checkpointed sweep partway, resume it, and get bit-identical
/// results — including when the interruption lands mid-round.
#[test]
fn checkpointed_sweep_resumes_bit_identically() {
    let (h00, h01) = random_blocks(10, 73);
    let op00 = DenseOp::new(h00);
    let op01 = DenseOp::new(h01);
    let energies: Vec<f64> = (0..12).map(|i| -0.25 + 0.05 * i as f64).collect();
    let sweep = cbs::sweep::EnergySweep::new(&op00, &op01, 1.5, SweepConfig::new(test_ss()));

    let uninterrupted = sweep.run(&energies, &SerialExecutor);

    let dir = std::env::temp_dir().join(format!("cbs_sweep_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.cp");

    for kill_after in [1usize, 3, 7, 11] {
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

    // The checkpoint on disk is v17; older formats — v3, v11 with its
    // slice-policy fingerprint slots, v12 whose ILU sweeps ran full ILU(0),
    // v13 whose ILU sweeps preconditioned instead of splitting, v14 whose
    // sweeps warm-started, v15 whose split nodes stopped on another rule,
    // and v16 whose moments were summed before they were projected — are
    // refused with the dedicated error
    // naming the version, not parsed into a mismatched fingerprint or
    // resumed into another trajectory.
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.starts_with("cbs-sweep-checkpoint v17"), "unexpected magic in {path:?}");
    let old = ["v3", "v11", "v12", "v13", "v14", "v15", "v16"];
    for old in old.map(|v| format!("cbs-sweep-checkpoint {v}")) {
        match SweepCheckpoint::parse(&text.replacen("cbs-sweep-checkpoint v17", &old, 1)) {
            Err(CheckpointError::IncompatibleVersion { found }) => assert_eq!(found, old),
            other => panic!("{old} checkpoint accepted or misclassified: {other:?}"),
        }
    }

    // Resuming under a different configuration is refused.
    let other = cbs::sweep::EnergySweep::new(
        &op00,
        &op01,
        1.5,
        SweepConfig { min_refine_spacing: 1e-3, ..*sweep.config() },
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
/// at another grid spacing has the same period and configuration, and is
/// refused by the dimension in the fingerprint.  The checkpoint itself
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
    let config = SweepConfig::new(common::fig6_config());
    let run = |h: &BlockHamiltonian, resume: Option<SweepCheckpoint>, budget: Option<usize>| {
        let (h00, h01) = (h.h00(), h.h01());
        let sweep = EnergySweep::new(&h00, &h01, h.period(), config).with_pattern(h.qep_pattern());
        let options = RunOptions { resume, max_new_energies: budget, ..RunOptions::default() };
        sweep.run_with(&energies, &SerialExecutor, options)
    };
    let Ok(RunOutcome::Interrupted(cp)) = run(&fig6, None, Some(2)) else {
        panic!("a budget of 2 interrupts a 3-energy sweep")
    };
    assert_eq!(cp.records.len(), 2);

    // The same cell at another spacing: same period, same configuration.
    let refused = run(&finer, Some(cp.clone()), None);
    assert!(matches!(refused, Err(CheckpointError::Mismatch(_))), "another spacing resumed");
    // The checkpoint itself resumes the split route to the uninterrupted
    // sweep, bit for bit.
    let Ok(RunOutcome::Complete(resumed)) = run(&fig6, Some(cp), None) else {
        panic!("the checkpoint resumes")
    };
    let Ok(RunOutcome::Complete(whole)) = run(&fig6, None, None) else { panic!("no budget") };
    assert_same_cbs(&whole, &resumed);
}

/// `SsConfig::auto` and `SweepConfig::initial_round` are vestigial
/// declarations (the calibrated tuner and the release rounds are gone): a
/// sweep that sets them is the sweep that does not — same result bits, same
/// checkpoint bytes, and each one resumes another's file.
#[test]
fn vestigial_auto_flag_is_inert() {
    let (h00, h01) = random_blocks(10, 73);
    let op00 = DenseOp::new(h00);
    let op01 = DenseOp::new(h01);
    let energies: Vec<f64> = (0..6).map(|i| -0.25 + 0.1 * i as f64).collect();
    let variants = [(false, 0), (true, 0), (false, 4), (true, 2)];
    let sweeps: Vec<_> = variants
        .iter()
        .map(|&(auto, initial_round)| {
            let ss = SsConfig { auto, ..test_ss() };
            let config = SweepConfig { initial_round, ..SweepConfig::new(ss) };
            cbs::sweep::EnergySweep::new(&op00, &op01, 1.5, config)
        })
        .collect();

    let full = sweeps[0].run(&energies, &SerialExecutor);
    assert!(!full.cbs.points.is_empty(), "test problem found no CBS points");
    assert!(full.auto.is_none());
    for sweep in &sweeps[1..] {
        let run = sweep.run(&energies, &SerialExecutor);
        assert_same_cbs(&full, &run);
        assert!(run.auto.is_none());
    }

    let dir = std::env::temp_dir().join(format!("cbs_sweep_auto_inert_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<_> = sweeps
        .iter()
        .enumerate()
        .map(|(i, sweep)| {
            let path = dir.join(format!("variant{i}.cp"));
            let options = RunOptions {
                checkpoint_path: Some(&path),
                max_new_energies: Some(3),
                ..RunOptions::default()
            };
            let outcome = sweep.run_with(&energies, &SerialExecutor, options).unwrap();
            assert!(matches!(outcome, RunOutcome::Interrupted(_)), "budget of 3 should interrupt");
            path
        })
        .collect();
    let bytes = std::fs::read(&paths[0]).unwrap();
    for path in &paths[1..] {
        assert_eq!(std::fs::read(path).unwrap(), bytes, "{path:?}");
    }

    // Variant `i` resumes variant `i + 1`'s file, the last the first's.
    for (i, sweep) in sweeps.iter().enumerate() {
        let resume = Some(SweepCheckpoint::load(&paths[(i + 1) % paths.len()]).unwrap());
        let resumed = sweep
            .run_with(&energies, &SerialExecutor, RunOptions { resume, ..RunOptions::default() })
            .expect("a checkpoint written under other vestige values resumes")
            .expect_complete("resume must finish");
        assert_same_cbs(&full, &resumed);
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
        min_refine_spacing: 1e-3,
        ..SweepConfig::new(test_ss()).with_refinement(budget)
    };
    let sweep = EnergySweep::new(&op00, &op01, 1.6, config);
    let run = sweep.run(&energies, &SerialExecutor);

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
    let again = sweep.run(&energies, &RayonExecutor);
    assert_same_cbs(&run, &again);
}
