//! Determinism and acceptance tests of the `cbs-sweep` orchestrator:
//!
//! * a sweep is bit-identical to the per-energy loop of
//!   `solve_qep_with(&sweep.problem_at(e), …)`, on the serial *and* rayon
//!   executors: on dense complex blocks (full ring), and on the ILU
//!   policy's split route over the fig6 cell's real stencil (mirrored
//!   ring);
//! * a checkpointed sweep killed after any number of energies (a prefix of
//!   the grid) resumes to a result bit-identical to an uninterrupted run,
//!   older checkpoint formats are refused by version, a checkpoint of
//!   another problem by its fingerprint, and one whose records are not a
//!   prefix of the grid as a mismatch;
//! * the vestigial `SsConfig::auto` flag and `SweepConfig::initial_round`
//!   change nothing.

use cbs::core::{classify_point, solve_qep_with, PrecondPolicy, SsConfig};
use cbs::dft::{bulk_al_100, grid_for_structure, BlockHamiltonian, HamiltonianParams};
use cbs::grid::Grid3;
use cbs::parallel::{RayonExecutor, SerialExecutor};
use cbs::sparse::DenseOp;
use cbs::sweep::{
    CheckpointError, EnergyRecord, EnergySweep, RunOptions, SweepCheckpoint, SweepConfig,
    SweepError, SweepResult,
};

mod common;

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
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.energy.to_bits(), y.energy.to_bits());
        assert_eq!(x.stats, y.stats, "per-energy counters differ at E = {}", x.energy);
    }
}

/// Each energy of a cold sweep over dense complex blocks (the full ring) is
/// the per-energy `solve_qep_with(&sweep.problem_at(e), …)` classified by
/// `classify_point`, bit for bit: eigenvalues, residuals and every counter,
/// on both executors.
#[test]
fn cold_sweep_reproduces_per_energy_loop_on_both_executors() {
    let (h00, h01) = common::random_blocks(10, 71);
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
    let fig6 = EnergySweep::new(&h00, &h01, h.period(), SweepConfig::new(ss));
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
                [s.bicg_iterations, s.matvecs, s.operator_traversals],
                [alone.total_bicg_iterations, alone.total_matvecs, alone.total_traversals],
                "counters at E = {energy}"
            );
            let unconverged = alone.solve_histories.iter().filter(|h| !h.converged()).count();
            assert_eq!(
                [s.solves, s.unconverged, s.accepted, s.discarded, s.numerical_rank],
                [
                    alone.solve_histories.len(),
                    unconverged,
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

/// Kill a checkpointed sweep after every number of energies in turn and
/// resume it: each resume reproduces the uninterrupted sweep bit for bit —
/// points, records, counters, and the checkpoint it leaves behind.
#[test]
fn checkpointed_sweep_resumes_bit_identically() {
    let (h00, h01) = common::random_blocks(10, 73);
    let op00 = DenseOp::new(h00);
    let op01 = DenseOp::new(h01);
    let energies: Vec<f64> = (0..12).map(|i| -0.25 + 0.05 * i as f64).collect();
    let sweep = cbs::sweep::EnergySweep::new(&op00, &op01, 1.5, SweepConfig::new(test_ss()));

    let dir = std::env::temp_dir().join(format!("cbs_sweep_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (path, resumed_path) = (dir.join("sweep.cp"), dir.join("resumed.cp"));
    let options = RunOptions { checkpoint_path: Some(&path), ..RunOptions::default() };
    let uninterrupted = sweep.run_with(&energies, &SerialExecutor, options).unwrap();
    let finished_bytes = std::fs::read(&path).unwrap();
    let finished = SweepCheckpoint::load(&path).unwrap();
    assert_eq!(finished.records.len(), energies.len());

    for k in 0..=energies.len() {
        // The killed run's checkpoint, through the file like a real resume.
        common::killed_after(&finished, k).save(&resumed_path).unwrap();
        let from_disk = SweepCheckpoint::load(&resumed_path).unwrap();
        assert_eq!(from_disk.records.len(), k);
        let options = RunOptions { checkpoint_path: Some(&resumed_path), resume: Some(from_disk) };
        let resumed = sweep.run_with(&energies, &SerialExecutor, options).unwrap();
        assert_same_cbs(&uninterrupted, &resumed);
        let bytes = std::fs::read(&resumed_path).unwrap();
        assert!(bytes == finished_bytes, "killed after {k}: another checkpoint");
    }

    // Every format change bumps the version, and any other version is
    // refused with the dedicated error naming it.
    let text = String::from_utf8(finished_bytes).unwrap();
    assert!(text.starts_with("cbs-sweep-checkpoint v23"), "unexpected magic in {path:?}");
    let old =
        ["v3", "v11", "v12", "v13", "v14", "v15", "v16", "v17", "v18", "v19", "v20", "v21", "v22"];
    for old in old.map(|v| format!("cbs-sweep-checkpoint {v}")) {
        match SweepCheckpoint::parse(&text.replacen("cbs-sweep-checkpoint v23", &old, 1)) {
            Err(CheckpointError::IncompatibleVersion { found }) => assert_eq!(found, old),
            other => panic!("{old} checkpoint accepted or misclassified: {other:?}"),
        }
    }

    // Resuming under a different configuration is refused.
    let ss = SsConfig { seed: test_ss().seed + 1, ..test_ss() };
    let other = cbs::sweep::EnergySweep::new(&op00, &op01, 1.5, SweepConfig::new(ss));
    let resume = RunOptions { resume: Some(finished), ..RunOptions::default() };
    let refused = other.run_with(&energies, &SerialExecutor, resume);
    assert!(
        matches!(refused, Err(SweepError::Checkpoint(CheckpointError::Mismatch(_)))),
        "another seed resumed"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A resume accepts only records that are a prefix of the grid.  A finished
/// checkpoint with one record moved off the grid, two records swapped, or a
/// 13th record appended — each re-saved, so its checksum is valid — is a
/// mismatch, never merged into the returned band structure.
#[test]
fn resume_refuses_records_that_are_not_a_grid_prefix() {
    let (h00, h01) = common::random_blocks(10, 73);
    let (op00, op01) = (DenseOp::new(h00), DenseOp::new(h01));
    let energies: Vec<f64> = (0..12).map(|i| -0.25 + 0.05 * i as f64).collect();
    let sweep = EnergySweep::new(&op00, &op01, 1.5, SweepConfig::new(test_ss()));

    let dir = std::env::temp_dir().join(format!("cbs_sweep_prefix_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.cp");
    let options = RunOptions { checkpoint_path: Some(&path), ..RunOptions::default() };
    sweep.run_with(&energies, &SerialExecutor, options).unwrap();
    let finished = SweepCheckpoint::load(&path).unwrap();
    assert_eq!(finished.records.len(), energies.len());

    let midpoint = 0.5 * (energies[4] + energies[5]);
    let mut off_grid = finished.clone();
    off_grid.records[4].energy = midpoint;
    let mut swapped = finished.clone();
    swapped.records.swap(3, 4);
    let mut appended = finished.clone();
    appended.records.push(EnergyRecord { energy: midpoint, ..finished.records[4].clone() });
    for (what, broken) in [("off-grid", off_grid), ("swapped", swapped), ("appended", appended)] {
        broken.save(&path).unwrap();
        let resume = Some(SweepCheckpoint::load(&path).unwrap());
        let options = RunOptions { resume, ..RunOptions::default() };
        let refused = sweep.run_with(&energies, &SerialExecutor, options);
        assert!(
            matches!(refused, Err(SweepError::Checkpoint(CheckpointError::Mismatch(_)))),
            "{what} records resumed"
        );
    }
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
    let ss = SsConfig { precond: PrecondPolicy::AssembledIlu0, ..common::fig6_config() };
    let config = SweepConfig::new(ss);
    let dir = std::env::temp_dir().join(format!("cbs_sweep_another_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.cp");
    let run = |h: &BlockHamiltonian, resume: Option<SweepCheckpoint>, save: bool| {
        let (h00, h01) = (h.h00(), h.h01());
        let sweep = EnergySweep::new(&h00, &h01, h.period(), config);
        let checkpoint_path = save.then_some(path.as_path());
        let options = RunOptions { resume, checkpoint_path };
        sweep.run_with(&energies, &SerialExecutor, options)
    };
    let whole = run(&fig6, None, true).expect("the sweep runs");
    let cp = common::killed_after(&SweepCheckpoint::load(&path).unwrap(), 2);
    std::fs::remove_dir_all(&dir).ok();

    // The same cell at another spacing: same period, same configuration.
    let refused = run(&finer, Some(cp.clone()), false);
    assert!(
        matches!(refused, Err(SweepError::Checkpoint(CheckpointError::Mismatch(_)))),
        "another spacing resumed"
    );
    // The checkpoint itself resumes the split route to the uninterrupted
    // sweep, bit for bit.
    let resumed = run(&fig6, Some(cp), false).expect("the checkpoint resumes");
    assert_same_cbs(&whole, &resumed);
}

/// `SsConfig::auto` and `SweepConfig::initial_round` are vestigial
/// declarations (the calibrated tuner and the release rounds are gone): a
/// sweep that sets them is the sweep that does not — same result bits, same
/// checkpoint bytes, and each one resumes another's file.
#[test]
fn vestigial_auto_flag_is_inert() {
    let (h00, h01) = common::random_blocks(10, 73);
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

    let dir = std::env::temp_dir().join(format!("cbs_sweep_auto_inert_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let runs: Vec<_> = sweeps
        .iter()
        .enumerate()
        .map(|(i, sweep)| {
            let path = dir.join(format!("variant{i}.cp"));
            let options = RunOptions { checkpoint_path: Some(&path), ..RunOptions::default() };
            (sweep.run_with(&energies, &SerialExecutor, options).unwrap(), path)
        })
        .collect();
    let (full, first_path) = &runs[0];
    assert!(!full.cbs.points.is_empty(), "test problem found no CBS points");
    let bytes = std::fs::read(first_path).unwrap();
    for (run, path) in &runs {
        assert_same_cbs(full, run);
        assert!(run.auto.is_none());
        assert_eq!(std::fs::read(path).unwrap(), bytes, "{path:?}");
    }

    // Variant `i` resumes variant `i + 1`'s file killed after three
    // energies, the last the first's.
    for (i, sweep) in sweeps.iter().enumerate() {
        let finished = SweepCheckpoint::load(&runs[(i + 1) % runs.len()].1).unwrap();
        let resume = Some(common::killed_after(&finished, 3));
        let resumed = sweep
            .run_with(&energies, &SerialExecutor, RunOptions { resume, ..RunOptions::default() })
            .expect("a checkpoint written under other vestige values resumes");
        assert_same_cbs(full, &resumed);
    }
    std::fs::remove_dir_all(&dir).ok();
}
