//! Acceptance tests of the preconditioning policy (`PrecondPolicy`), which
//! alone selects the diagonal-ILU split of the stencil nodes:
//!
//! * counter-locked: on the fig6 Al(100) system every policy, split
//!   stencil, matrix-free stencil or generic composition, performs one
//!   traversal per block apply, and blocks that do not convert run the ILU
//!   policy matrix-free;
//! * the diagonal ILU reduces the total BiCG iteration count at equal
//!   tolerance while finding the same physics;
//! * serial and rayon executors stay bit-identical within every policy;
//! * an attached pattern or projector changes no bit under either policy,
//!   and the default policy is matrix-free;
//! * an ILU sweep checkpoints and resumes bit-identically, and the precond
//!   policy is part of the resume fingerprint;
//! * on a scan slice through the chain pencil's zero D-ILU pivots, the ILU
//!   policy loses no pair: each split solve that fails is solved again on
//!   `P(z)`, bit for bit matrix-free's.

use rand::SeedableRng;

use cbs::core::{solve_qep_with, solve_qeps_with, PrecondPolicy, QepProblem, SsConfig, SsResult};
use cbs::linalg::{c64, CMatrix, Complex64};
use cbs::parallel::{RayonExecutor, SerialExecutor};
use cbs::solver::ConvergenceHistory;
use cbs::sparse::{CooBuilder, DenseOp, LowRankOp, RealStencil};
use cbs::sweep::{EnergySweep, RunOptions, SweepCheckpoint, SweepConfig, SweepResult};

mod common;
use common::fig6_hamiltonian;

fn fig6_config(precond: PrecondPolicy) -> SsConfig {
    SsConfig { precond, ..common::fig6_config() }
}

/// Counter-locked traversal ratio: with the iteration count pinned (a
/// tolerance no solve can reach), every policy performs exactly one
/// solve-phase traversal per block apply (`1 / n_rh` per matvec) — the
/// ILU policy's split stencil (`BlockOp`s are the views of the
/// Hamiltonian's stencil), the matrix-free stencil, and the generic
/// composition over the same blocks as plain CSR, which the ILU policy,
/// having no stencil to split, runs matrix-free, bit for bit.
#[test]
fn fig6_every_policy_is_one_traversal_per_block_apply() {
    let h = fig6_hamiltonian();
    let h00 = h.h00();
    let h01 = h.h01();
    let (csr00, csr01) = (h.h00_csr(), h.h01_csr());
    let pinned = |precond| SsConfig {
        bicg_tolerance: 1e-300,
        bicg_max_iterations: 12,
        ..fig6_config(precond)
    };
    let ilu = pinned(PrecondPolicy::AssembledIlu0);
    let n_rh = ilu.n_rh;

    // Solve-phase `traversals / matvecs`, in units of `1 / n_rh`: one block
    // apply is `n_rh` matvecs and one traversal.  (Each extraction residual
    // check is one matvec and one traversal, so they are subtracted.)
    let per_matvec = |r: &SsResult| {
        let traversals = r.total_traversals - r.extraction_matvecs;
        let matvecs = r.total_matvecs - r.extraction_matvecs;
        assert!(matvecs > 0);
        assert_eq!((traversals * n_rh) % matvecs, 0, "a block apply is whole traversals");
        traversals * n_rh / matvecs
    };

    let stencil_problem = QepProblem::new(&h00, &h01, 0.15, h.period());
    let generic_problem = QepProblem::new(&csr00, &csr01, 0.15, h.period());
    let split = solve_qep_with(&stencil_problem, &ilu, &SerialExecutor);
    assert!(stencil_problem.real_stencil().is_some(), "stencil views: the node splits");
    assert!(generic_problem.real_stencil().is_none(), "plain CSR: the generic composition");
    assert_eq!(per_matvec(&split), 1);

    for mf_problem in [&stencil_problem, &generic_problem] {
        let mf = solve_qep_with(mf_problem, &pinned(PrecondPolicy::MatrixFree), &SerialExecutor);
        // Identical iteration structure and traversals per matvec.
        assert!(mf.total_bicg_iterations > 0);
        assert_eq!(mf.total_bicg_iterations, split.total_bicg_iterations);
        assert_eq!(per_matvec(&mf), 1);
    }
    // Plain CSR blocks do not convert: the ILU policy runs them matrix-free.
    let csr_ilu = solve_qep_with(&generic_problem, &ilu, &SerialExecutor);
    let csr_mf =
        solve_qep_with(&generic_problem, &pinned(PrecondPolicy::MatrixFree), &SerialExecutor);
    assert_same_trajectory(&csr_ilu, &csr_mf, n_rh);
    assert_eq!(per_matvec(&csr_ilu), 1);
}

/// Physics parity and the iteration-count lever: the diagonal-ILU policy
/// finds the matrix-free eigenpairs, and its split reduces the total BiCG
/// iteration count at equal tolerance.
#[test]
fn fig6_ilu_cuts_iterations_and_policies_agree_on_the_physics() {
    let h = fig6_hamiltonian();
    let h00 = h.h00();
    let h01 = h.h01();
    let solve = |precond| {
        let problem = QepProblem::new(&h00, &h01, 0.15, h.period());
        solve_qep_with(&problem, &fig6_config(precond), &SerialExecutor)
    };
    let mf = solve(PrecondPolicy::MatrixFree);
    let ilu = solve(PrecondPolicy::AssembledIlu0);

    assert!(!mf.eigenpairs.is_empty(), "fig6 config found no eigenpairs");
    assert_eq!(mf.eigenpairs.len(), ilu.eigenpairs.len());
    for (a, b) in mf.eigenpairs.iter().zip(&ilu.eigenpairs) {
        assert!(
            (a.lambda - b.lambda).abs() <= 1e-8 * (1.0 + a.lambda.abs()),
            "eigenvalue drifted across policies: {:?} vs {:?}",
            a.lambda,
            b.lambda
        );
    }
    // The iteration-count lever, at equal tolerance.
    eprintln!(
        "fig6 BiCG iterations: matrix-free {} / split diagonal ILU {}",
        mf.total_bicg_iterations, ilu.total_bicg_iterations
    );
    assert!(
        ilu.total_bicg_iterations < mf.total_bicg_iterations,
        "the diagonal ILU did not reduce iterations: {} vs unpreconditioned {}",
        ilu.total_bicg_iterations,
        mf.total_bicg_iterations
    );
}

/// Serial and rayon executors are bit-identical within every policy.
#[test]
fn fig6_every_policy_is_executor_independent_bitwise() {
    let h = fig6_hamiltonian();
    let h00 = h.h00();
    let h01 = h.h01();
    for precond in [PrecondPolicy::MatrixFree, PrecondPolicy::AssembledIlu0] {
        let config = fig6_config(precond);
        let problem = QepProblem::new(&h00, &h01, 0.15, h.period());
        let serial = solve_qep_with(&problem, &config, &SerialExecutor);
        let rayon = solve_qep_with(&problem, &config, &RayonExecutor);
        for (ms, mr) in serial.projected_moments.iter().zip(&rayon.projected_moments) {
            for r in 0..config.n_rh {
                for c in 0..config.n_rh {
                    assert_eq!(ms[(r, c)].re.to_bits(), mr[(r, c)].re.to_bits(), "{precond:?}");
                    assert_eq!(ms[(r, c)].im.to_bits(), mr[(r, c)].im.to_bits(), "{precond:?}");
                }
            }
        }
        assert_eq!(serial.eigenpairs.len(), rayon.eigenpairs.len());
        for (a, b) in serial.eigenpairs.iter().zip(&rayon.eigenpairs) {
            assert_eq!(a.lambda.re.to_bits(), b.lambda.re.to_bits(), "{precond:?}");
            assert_eq!(a.lambda.im.to_bits(), b.lambda.im.to_bits(), "{precond:?}");
        }
        assert_eq!(serial.total_traversals, rayon.total_traversals, "{precond:?}");
    }
}

/// The pattern is not a selector: under either policy, attaching a
/// pattern and a projector changes not a single bit — of `solve_qep_with`'s
/// result or of `EnergySweep::run`'s.  And a dense complex pencil, which
/// has no stencil to split, runs the ILU policy as its `MatrixFree` run.
#[test]
fn matrix_free_policy_is_bitwise_unchanged_by_pattern_attachment() {
    let h = fig6_hamiltonian();
    let (pattern, projector) = h.qep_factored();
    let h00 = h.h00();
    let h01 = h.h01();
    let energies = [0.09, 0.15];
    for precond in [PrecondPolicy::MatrixFree, PrecondPolicy::AssembledIlu0] {
        let config = fig6_config(precond);
        let bare = QepProblem::new(&h00, &h01, 0.15, h.period());
        let attached = QepProblem::new(&h00, &h01, 0.15, h.period())
            .with_pattern(&pattern)
            .with_projector(&projector);
        let with = solve_qep_with(&attached, &config, &SerialExecutor);
        assert_same_trajectory(
            &solve_qep_with(&bare, &config, &SerialExecutor),
            &with,
            config.n_rh,
        );

        let sweep = |attach: bool| {
            let sweep = EnergySweep::new(&h00, &h01, h.period(), SweepConfig::new(config));
            let sweep = if attach {
                sweep.with_pattern(pattern.clone()).with_projector(projector.clone())
            } else {
                sweep
            };
            sweep.run(&energies, &SerialExecutor)
        };
        assert_same_sweep(&sweep(false), &sweep(true));
    }

    // The degradation: nothing converts, nothing splits.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(92);
    let a = CMatrix::random(12, 12, &mut rng);
    let d00 = DenseOp::new((&a + &a.adjoint()).scale(c64(0.5, 0.0)));
    let d01 = DenseOp::new(CMatrix::random(12, 12, &mut rng).scale(c64(0.35, 0.0)));
    let problem = QepProblem::new(&d00, &d01, 0.1, 1.0);
    let config = |precond| SsConfig { n_rh: 6, n_mm: 4, precond, ..SsConfig::small() };
    let ilu = solve_qep_with(&problem, &config(PrecondPolicy::AssembledIlu0), &SerialExecutor);
    assert!(!ilu.eigenpairs.is_empty() && problem.real_stencil().is_none());
    let mf = solve_qep_with(&problem, &config(PrecondPolicy::MatrixFree), &SerialExecutor);
    assert_same_trajectory(&ilu, &mf, 6);
}

/// Two solves that took the same floating-point trajectory: eigenpairs,
/// projected moments and residual histories bit for bit, and the same
/// operator counters.
fn assert_same_trajectory(a: &SsResult, b: &SsResult, n_rh: usize) {
    assert_eq!(a.eigenpairs.len(), b.eigenpairs.len());
    for (p, q) in a.eigenpairs.iter().zip(&b.eigenpairs) {
        assert_eq!(p.lambda.re.to_bits(), q.lambda.re.to_bits());
        assert_eq!(p.lambda.im.to_bits(), q.lambda.im.to_bits());
        assert_eq!(p.residual.to_bits(), q.residual.to_bits());
        assert_eq!(p.psi, q.psi);
    }
    for (ma, mb) in a.projected_moments.iter().zip(&b.projected_moments) {
        for r in 0..n_rh {
            for c in 0..n_rh {
                assert_eq!(ma[(r, c)].re.to_bits(), mb[(r, c)].re.to_bits());
                assert_eq!(ma[(r, c)].im.to_bits(), mb[(r, c)].im.to_bits());
            }
        }
    }
    assert_eq!(a.solve_histories.len(), b.solve_histories.len());
    for (ha, hb) in a.solve_histories.iter().zip(&b.solve_histories) {
        assert_eq!(ha.residuals, hb.residuals);
        assert_eq!(ha.stop_reason, hb.stop_reason);
    }
    assert_eq!(a.total_bicg_iterations, b.total_bicg_iterations);
    assert_eq!(a.total_matvecs, b.total_matvecs);
    assert_eq!(a.total_traversals, b.total_traversals);
    assert_eq!(a.numerical_rank, b.numerical_rank);
}

/// Two sweeps that took the same floating-point trajectory: every point bit
/// for bit, and the same per-energy counters.
fn assert_same_sweep(a: &SweepResult, b: &SweepResult) {
    assert_eq!(a.cbs.points.len(), b.cbs.points.len());
    for (p, q) in a.cbs.points.iter().zip(&b.cbs.points) {
        assert_eq!(p.lambda.re.to_bits(), q.lambda.re.to_bits());
        assert_eq!(p.lambda.im.to_bits(), q.lambda.im.to_bits());
        assert_eq!(p.residual.to_bits(), q.residual.to_bits());
    }
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.stats, y.stats, "per-energy counters differ at E = {}", x.energy);
    }
    assert_eq!(a.stats.operator_traversals, b.stats.operator_traversals);
}

/// The one default policy, `SsConfig::paper()`'s, is the paper's
/// matrix-free solve: bitwise the explicit `MatrixFree` run, pattern
/// attached or not, and a different trajectory from the ILU policy's.
#[test]
fn fig6_default_policy_is_matrix_free_with_or_without_a_pattern() {
    let h = fig6_hamiltonian();
    let pattern = h.qep_factored().0;
    let h00 = h.h00();
    let h01 = h.h01();
    let default = common::fig6_config();
    assert_eq!(default.precond, SsConfig::paper().precond);
    assert_eq!(default.precond, PrecondPolicy::MatrixFree);
    let solve = |config: &SsConfig, attach: bool| {
        let problem = QepProblem::new(&h00, &h01, 0.15, h.period());
        let problem = if attach { problem.with_pattern(&pattern) } else { problem };
        solve_qep_with(&problem, config, &SerialExecutor)
    };

    let mf = solve(&fig6_config(PrecondPolicy::MatrixFree), false);
    assert_same_trajectory(&solve(&default, true), &mf, default.n_rh);
    assert_same_trajectory(&solve(&default, false), &mf, default.n_rh);
    // Only the ILU policy splits (by the stencil's diagonal ILU, which
    // refills no pattern).
    let ilu = solve(&fig6_config(PrecondPolicy::AssembledIlu0), false);
    assert_eq!(ilu.operator_assemblies, 0);
    assert!(ilu.total_bicg_iterations < mf.total_bicg_iterations);
}

/// An ILU sweep — every node split by its diagonal ILU — checkpoints and
/// resumes bit-identically, and switching the precond policy is refused on
/// resume (it is part of the fingerprint: it changes the results).
#[test]
fn assembled_warm_sweep_resumes_bit_identically_and_fingerprints_the_policy() {
    let h = fig6_hamiltonian();
    let (h00, h01, period) = (h.h00(), h.h01(), h.period());
    let energies = [0.05, 0.09, 0.13, 0.17];
    let ss = fig6_config(PrecondPolicy::AssembledIlu0);
    let sweep = EnergySweep::new(&h00, &h01, period, SweepConfig::new(ss));

    let dir = std::env::temp_dir().join(format!("cbs_precond_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.cp");
    let options = RunOptions { checkpoint_path: Some(&path), ..RunOptions::default() };
    let uninterrupted = sweep.run_with(&energies, &SerialExecutor, options).unwrap();
    assert!(!uninterrupted.cbs.points.is_empty());
    assert!(sweep.problem_at(energies[0]).real_stencil().is_some(), "the nodes split");

    // Kill after two energies, resume, compare bit-for-bit.
    let killed = common::killed_after(&SweepCheckpoint::load(&path).unwrap(), 2);
    killed.save(&path).unwrap();
    let resume = RunOptions { resume: Some(killed), ..RunOptions::default() };
    let resumed = sweep.run_with(&energies, &SerialExecutor, resume).unwrap();
    assert_same_sweep(&uninterrupted, &resumed);

    // The precond policy is fingerprinted: resuming under a different one
    // is refused instead of silently changing the results.
    let other_config = SweepConfig {
        ss: SsConfig { precond: PrecondPolicy::MatrixFree, ..ss },
        ..*sweep.config()
    };
    assert_ne!(sweep.config().fingerprint(period), other_config.fingerprint(period));
    let other = EnergySweep::new(&h00, &h01, period, other_config);
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

/// The real chain pencil of `cbs-core`'s pool tests: `H₀₀` tridiagonal, 2.5
/// on the diagonal and −1 beside it, and `H₀₁` one 0.4 per row, seven
/// columns on.  Its first D-ILU pivots, `d̃₀ = E − 2.5` and
/// `d̃₁ = d̃₀ − 1/d̃₀`, are exactly zero at every node at `E = 2.5` and at
/// `E = 1.5, 3.5`.
fn chain_pencil(n: usize) -> RealStencil {
    let (mut a, mut b) = (CooBuilder::new(n, n), CooBuilder::new(n, n));
    for i in 0..n {
        a.push(i, i, c64(2.5, 0.0));
        if i + 1 < n {
            a.push(i, i + 1, c64(-1.0, 0.0));
            a.push(i + 1, i, c64(-1.0, 0.0));
        }
        b.push(i, (i + 7) % n, c64(0.4, 0.0));
    }
    let none = LowRankOp::new(n, n);
    RealStencil::try_new((&a.build(), &none), (&b.build(), &none)).expect("a real pencil")
}

/// The policy slice of the differential energy scan, on a grid fixed here:
/// the chain pencil's three singular energies and their neighbours at
/// ±0.05.  At every energy both policies find the same pairs (the same
/// count, each eigenvalue within 1e-8 of one of the other's) and every
/// solve converges.  At the singular energies all 48 split solves break
/// down and fall back to `P(z)`, so the ILU policy's eigenpairs are
/// matrix-free's bit for bit, and its serial and rayon results are equal
/// bit for bit; at the neighbours none falls back.
#[test]
fn chain_policy_scan_slice_loses_no_pair_to_a_zero_pivot() {
    const GRID: [f64; 9] = [1.45, 1.5, 1.55, 2.45, 2.5, 2.55, 3.45, 3.5, 3.55];
    const SINGULAR: [f64; 3] = [1.5, 2.5, 3.5];
    let pencil = chain_pencil(12);
    let (h00, h01) = (pencil.h00(), pencil.h01());
    let problems: Vec<QepProblem<'_>> =
        GRID.iter().map(|&e| QepProblem::new(&h00, &h01, e, 1.0)).collect();
    let config = |precond| SsConfig {
        n_int: 16,
        n_mm: 4,
        n_rh: 6,
        bicg_tolerance: 1e-10,
        precond,
        ..SsConfig::paper()
    };
    let (matrix_free, split) =
        (config(PrecondPolicy::MatrixFree), config(PrecondPolicy::AssembledIlu0));
    let mf: Vec<SsResult> =
        solve_qeps_with(&problems, &matrix_free, &SerialExecutor).unwrap().collect();
    let ilu: Vec<SsResult> = solve_qeps_with(&problems, &split, &SerialExecutor).unwrap().collect();
    let rayon: Vec<SsResult> =
        solve_qeps_with(&problems, &split, &RayonExecutor).unwrap().collect();

    let near = |l: Complex64, of: &SsResult| of.lambdas().iter().any(|&m| (l - m).abs() <= 1e-8);
    for (((e, m), i), r) in GRID.into_iter().zip(&mf).zip(&ilu).zip(&rayon) {
        assert!(!m.eigenpairs.is_empty(), "E {e}: matrix-free found no pair");
        assert_eq!(i.eigenpairs.len(), m.eigenpairs.len(), "E {e}: the pair counts differ");
        assert!(i.lambdas().into_iter().all(|l| near(l, m)), "E {e}: ILU has a pair MF lacks");
        assert!(m.lambdas().into_iter().all(|l| near(l, i)), "E {e}: MF has a pair ILU lacks");
        for result in [m, i] {
            assert!(result.solve_histories.iter().all(ConvergenceHistory::converged), "E {e}");
        }
        if !SINGULAR.contains(&e) {
            assert_eq!(i.split_fallbacks, 0, "E {e}");
            continue;
        }
        assert_eq!((i.split_fallbacks, i.solve_histories.len()), (48, 48), "E {e}");
        for (p, q) in i.eigenpairs.iter().zip(&m.eigenpairs) {
            assert_eq!((p.lambda, &p.psi), (q.lambda, &q.psi), "E {e}");
            assert_eq!(p.residual.to_bits(), q.residual.to_bits(), "E {e}");
        }
        assert_same_trajectory(i, r, 6);
    }
}
