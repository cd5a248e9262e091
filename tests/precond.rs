//! Acceptance tests of the assembled-shifted-operator fast path and the
//! ILU(0)-preconditioned dual BiCG (`PrecondPolicy`):
//!
//! * counter-locked: on the fig6 Al(100) system the assembled operator
//!   performs exactly 1/3 of the generic matrix-free composition's storage
//!   traversals per matvec (one CSR walk instead of H₀₀ + H₀₁ + H₀₁†), and
//!   exactly as many as the real stencil's one row pass;
//! * ILU(0) preconditioning reduces the total BiCG iteration count at equal
//!   tolerance while finding the same physics;
//! * serial and rayon executors stay bit-identical within every policy;
//! * the `MatrixFree` path is bitwise the same, pattern attached or not,
//!   and the default policy is ILU(0) with a pattern, matrix-free without;
//! * an assembled sweep checkpoints and resumes bit-identically, and
//!   the precond policy is part of the resume fingerprint.

use rand::SeedableRng;

use cbs::core::{solve_qep_with, PrecondPolicy, QepProblem, SsConfig, SsResult};
use cbs::linalg::{c64, CMatrix};
use cbs::parallel::{RayonExecutor, SerialExecutor};
use cbs::sparse::{AssembledPattern, CsrMatrix};
use cbs::sweep::{EnergySweep, RunOptions, RunOutcome, SweepCheckpoint, SweepConfig};

mod common;
use common::{fig6_hamiltonian, FIG6_SOLVED_NODES};

fn fig6_config(precond: PrecondPolicy) -> SsConfig {
    SsConfig { precond, ..common::fig6_config() }
}

/// Counter-locked traversal ratio: with the iteration count pinned (a
/// tolerance no solve can reach), the assembled operator — what the ILU
/// policy applies on blocks that expose no parts (plain CSR operators) —
/// must perform *exactly* one solve-phase storage traversal per block apply
/// (`1 / n_rh` per matvec), and the matrix-free operator `w`: 3 for the
/// generic composition over those same CSR blocks, 1 for the real stencil
/// (`BlockOp` exposes its parts), under the ILU policy as much as
/// matrix-free.
#[test]
fn fig6_assembled_traversals_per_iteration_are_one_third_of_matrix_free() {
    let h = fig6_hamiltonian();
    let pattern = h.qep_pattern();
    let h00 = h.h00();
    let h01 = h.h01();
    let (csr00, csr01) = (h.h00_csr(), h.h01_csr());
    let pinned = |precond| SsConfig {
        bicg_tolerance: 1e-300,
        bicg_max_iterations: 12,
        majority_stop: false,
        ..fig6_config(precond)
    };
    let ilu = pinned(PrecondPolicy::AssembledIlu0);
    let n_rh = ilu.n_rh;

    // Solve-phase `traversals / matvecs`, in units of `1 / n_rh`: one block
    // apply is `n_rh` matvecs through `weight` passes over the operator's
    // storage.  (Extraction residual checks run matrix-free under every
    // policy, so they are subtracted.)
    let per_matvec = |r: &SsResult| {
        let traversals = r.total_traversals - r.extraction_traversals;
        let matvecs = r.total_matvecs - r.extraction_matvecs;
        assert!(matvecs > 0);
        assert_eq!((traversals * n_rh) % matvecs, 0, "a block apply is whole storage passes");
        traversals * n_rh / matvecs
    };

    let asm_problem = QepProblem::new(&csr00, &csr01, 0.15, h.period()).with_pattern(&pattern);
    let asm = solve_qep_with(&asm_problem, &ilu, &SerialExecutor);
    assert!(asm_problem.real_stencil().is_none(), "CSR blocks keep the assembled operator");
    assert_eq!(per_matvec(&asm), 1);

    let stencil_problem = QepProblem::new(&h00, &h01, 0.15, h.period());
    let generic_problem = QepProblem::new(&csr00, &csr01, 0.15, h.period());
    for (mf_problem, weight) in [(&stencil_problem, 1), (&generic_problem, 3)] {
        let mf = solve_qep_with(mf_problem, &pinned(PrecondPolicy::MatrixFree), &SerialExecutor);
        assert_eq!(mf_problem.traversal_weight(), weight);

        // Identical iteration structure...
        assert!(mf.total_bicg_iterations > 0);
        assert_eq!(mf.total_bicg_iterations, asm.total_bicg_iterations);
        // ... and exactly `weight`x the assembled operator's traversals per
        // matvec.
        eprintln!(
            "fig6 solve traversals per matvec: matrix-free {} (weight {weight}) vs assembled {}",
            per_matvec(&mf),
            per_matvec(&asm)
        );
        assert_eq!(per_matvec(&mf), weight * per_matvec(&asm));
        // Extraction charges the same weight per residual check.
        assert_eq!(mf.extraction_traversals, weight * mf.extraction_matvecs);
        assert_eq!(mf.operator_assemblies, 0);
    }
    // The ILU policy on blocks that convert applies the stencil: 1x, too.
    let stencil_ilu_problem = QepProblem::new(&h00, &h01, 0.15, h.period()).with_pattern(&pattern);
    let stencil_ilu = solve_qep_with(&stencil_ilu_problem, &ilu, &SerialExecutor);
    assert!(stencil_ilu_problem.real_stencil().is_some());
    assert_eq!(per_matvec(&stencil_ilu), 1);
    // Assembly accounting: one refill per node that applies the assembled
    // CSR; the stencil's diagonal ILU refills nothing.
    assert_eq!(asm.operator_assemblies, FIG6_SOLVED_NODES);
    assert_eq!(stencil_ilu.operator_assemblies, 0);
}

/// Physics parity and the iteration-count lever: the ILU(0)-preconditioned
/// policy finds the matrix-free eigenpairs, and the preconditioner reduces
/// the total BiCG iteration count at equal tolerance.
#[test]
fn fig6_ilu_cuts_iterations_and_policies_agree_on_the_physics() {
    let h = fig6_hamiltonian();
    let pattern = h.qep_pattern();
    let h00 = h.h00();
    let h01 = h.h01();
    let solve = |precond| {
        let problem = QepProblem::new(&h00, &h01, 0.15, h.period()).with_pattern(&pattern);
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
        "fig6 BiCG iterations: matrix-free {} / assembled-ilu0 {}",
        mf.total_bicg_iterations, ilu.total_bicg_iterations
    );
    assert!(
        ilu.total_bicg_iterations < mf.total_bicg_iterations,
        "ILU(0) did not reduce iterations: {} vs unpreconditioned {}",
        ilu.total_bicg_iterations,
        mf.total_bicg_iterations
    );
}

/// Serial and rayon executors are bit-identical within every policy.
#[test]
fn fig6_every_policy_is_executor_independent_bitwise() {
    let h = fig6_hamiltonian();
    let pattern = h.qep_pattern();
    let h00 = h.h00();
    let h01 = h.h01();
    for precond in [PrecondPolicy::MatrixFree, PrecondPolicy::AssembledIlu0] {
        let config = fig6_config(precond);
        let problem = QepProblem::new(&h00, &h01, 0.15, h.period()).with_pattern(&pattern);
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
        assert_eq!(serial.operator_assemblies, rayon.operator_assemblies, "{precond:?}");
    }
}

/// The default `MatrixFree` policy is bitwise unchanged: attaching a
/// pattern (or not) must not perturb a single bit of its results.
#[test]
fn matrix_free_policy_is_bitwise_unchanged_by_pattern_attachment() {
    let h = fig6_hamiltonian();
    let pattern = h.qep_pattern();
    let h00 = h.h00();
    let h01 = h.h01();
    let config = fig6_config(PrecondPolicy::MatrixFree);

    let bare_problem = QepProblem::new(&h00, &h01, 0.15, h.period());
    let bare = solve_qep_with(&bare_problem, &config, &SerialExecutor);
    let with_problem = QepProblem::new(&h00, &h01, 0.15, h.period()).with_pattern(&pattern);
    let with = solve_qep_with(&with_problem, &config, &SerialExecutor);

    assert_same_trajectory(&bare, &with, config.n_rh);
    assert_eq!(bare.operator_assemblies, 0);
    assert_eq!(with.operator_assemblies, 0);
}

/// Two solves that took the same floating-point trajectory: eigenpairs and
/// projected moments bit for bit, and the same operator counters.
fn assert_same_trajectory(a: &SsResult, b: &SsResult, n_rh: usize) {
    assert_eq!(a.eigenpairs.len(), b.eigenpairs.len());
    for (p, q) in a.eigenpairs.iter().zip(&b.eigenpairs) {
        assert_eq!(p.lambda.re.to_bits(), q.lambda.re.to_bits());
        assert_eq!(p.lambda.im.to_bits(), q.lambda.im.to_bits());
        assert_eq!(p.residual.to_bits(), q.residual.to_bits());
    }
    for (ma, mb) in a.projected_moments.iter().zip(&b.projected_moments) {
        for r in 0..n_rh {
            for c in 0..n_rh {
                assert_eq!(ma[(r, c)].re.to_bits(), mb[(r, c)].re.to_bits());
                assert_eq!(ma[(r, c)].im.to_bits(), mb[(r, c)].im.to_bits());
            }
        }
    }
    assert_eq!(a.total_matvecs, b.total_matvecs);
    assert_eq!(a.total_traversals, b.total_traversals);
    assert_eq!(a.operator_assemblies, b.operator_assemblies);
}

/// The one default policy, `SsConfig::paper()`'s, is "ILU(0) if a pattern is
/// attached, else matrix-free": with a pattern it is the explicit
/// `AssembledIlu0` run, without one the explicit `MatrixFree` run, bitwise.
#[test]
fn fig6_default_policy_is_ilu0_with_a_pattern_and_matrix_free_without() {
    let h = fig6_hamiltonian();
    let pattern = h.qep_pattern();
    let h00 = h.h00();
    let h01 = h.h01();
    let default = common::fig6_config();
    assert_eq!(default.precond, SsConfig::paper().precond);
    let solve = |config: &SsConfig, attach: bool| {
        let problem = QepProblem::new(&h00, &h01, 0.15, h.period());
        let problem = if attach { problem.with_pattern(&pattern) } else { problem };
        solve_qep_with(&problem, config, &SerialExecutor)
    };

    let ilu = solve(&fig6_config(PrecondPolicy::AssembledIlu0), true);
    assert_same_trajectory(&solve(&default, true), &ilu, default.n_rh);
    let mf = solve(&fig6_config(PrecondPolicy::MatrixFree), false);
    assert_eq!(mf.operator_assemblies, 0);
    assert_same_trajectory(&solve(&default, false), &mf, default.n_rh);
    // The two are different trajectories: only the first is preconditioned
    // (by the stencil's diagonal ILU, which refills no pattern).
    assert_eq!(ilu.operator_assemblies, 0);
    assert!(ilu.total_bicg_iterations < mf.total_bicg_iterations);
}

/// The factored-projector assembled path (sparse-only pattern + low-rank
/// tail) finds the same physics as the dense-expansion pattern on fig6
/// Al(100) — while carrying strictly fewer stored entries through every
/// refill and factored sweep.  The blocks are plain CSR, so both sides
/// apply and factor what they refill (`BlockOp`s would run the stencil and
/// read neither pattern).
#[test]
fn fig6_factored_projector_agrees_with_dense_expansion() {
    let h = fig6_hamiltonian();
    let pattern_full = h.qep_pattern();
    let (pattern_sparse, projector) = h.qep_factored();
    assert!(!projector.is_empty(), "fig6 must carry non-local projectors");
    assert!(
        pattern_sparse.nnz() < pattern_full.nnz(),
        "sparse-only pattern must be smaller than the projector-expanded one \
         ({} vs {})",
        pattern_sparse.nnz(),
        pattern_full.nnz()
    );
    let (h00, h01) = (h.h00_csr(), h.h01_csr());
    let config = fig6_config(PrecondPolicy::AssembledIlu0);
    let full_problem = QepProblem::new(&h00, &h01, 0.15, h.period()).with_pattern(&pattern_full);
    let full = solve_qep_with(&full_problem, &config, &SerialExecutor);
    let fact_problem = QepProblem::new(&h00, &h01, 0.15, h.period())
        .with_pattern(&pattern_sparse)
        .with_projector(&projector);
    let fact = solve_qep_with(&fact_problem, &config, &SerialExecutor);
    assert!(!full.eigenpairs.is_empty(), "expansion found no eigenpairs");
    assert_eq!(
        full.eigenpairs.len(),
        fact.eigenpairs.len(),
        "factored path changed the accepted set"
    );
    for (a, b) in full.eigenpairs.iter().zip(&fact.eigenpairs) {
        assert!(
            (a.lambda - b.lambda).abs() <= 1e-8 * (1.0 + a.lambda.abs()),
            "eigenvalue drifted: {:?} vs {:?}",
            a.lambda,
            b.lambda
        );
    }
    // Both are assembled runs: one refill per quadrature node.
    assert!(fact_problem.real_stencil().is_none());
    assert_eq!(fact.operator_assemblies, FIG6_SOLVED_NODES);
    assert_eq!(fact.operator_assemblies, full.operator_assemblies);
}

fn random_csr_blocks(n: usize, seed: u64) -> (CsrMatrix, CsrMatrix) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let a = CMatrix::random(n, n, &mut rng);
    let h00 = (&a + &a.adjoint()).scale(c64(0.5, 0.0));
    let h01 = CMatrix::random(n, n, &mut rng).scale(c64(0.35, 0.0));
    (CsrMatrix::from_dense(&h00, 0.0), CsrMatrix::from_dense(&h01, 0.0))
}

/// An ILU-preconditioned sweep checkpoints and resumes bit-identically,
/// and switching the precond policy is refused on resume (it is part of the
/// fingerprint: it changes the results).
#[test]
fn assembled_warm_sweep_resumes_bit_identically_and_fingerprints_the_policy() {
    let (h00, h01) = random_csr_blocks(10, 91);
    let pattern = AssembledPattern::build(&h00, &h01);
    let energies: Vec<f64> = (0..10).map(|i| -0.25 + 0.05 * i as f64).collect();
    let ss = SsConfig {
        n_int: 16,
        n_mm: 4,
        n_rh: 6,
        bicg_tolerance: 1e-11,
        residual_cutoff: 1e-6,
        precond: PrecondPolicy::AssembledIlu0,
        ..SsConfig::small()
    };
    let sweep =
        EnergySweep::new(&h00, &h01, 1.5, SweepConfig::new(ss)).with_pattern(pattern.clone());

    let uninterrupted = sweep.run(&energies, &SerialExecutor);
    assert!(!uninterrupted.cbs.points.is_empty());
    assert!(uninterrupted.stats.operator_assemblies > 0);

    let dir = std::env::temp_dir().join(format!("cbs_precond_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.cp");
    let outcome = sweep
        .run_with(
            &energies,
            &SerialExecutor,
            RunOptions {
                checkpoint_path: Some(&path),
                max_new_energies: Some(5),
                ..RunOptions::default()
            },
        )
        .unwrap();
    let RunOutcome::Interrupted(_) = outcome else { panic!("budget of 5 should interrupt") };
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
    assert_eq!(uninterrupted.cbs.points.len(), resumed.cbs.points.len());
    for (a, b) in uninterrupted.cbs.points.iter().zip(&resumed.cbs.points) {
        assert_eq!(a.lambda.re.to_bits(), b.lambda.re.to_bits());
        assert_eq!(a.lambda.im.to_bits(), b.lambda.im.to_bits());
        assert_eq!(a.residual.to_bits(), b.residual.to_bits());
    }
    assert_eq!(uninterrupted.stats.total_bicg_iterations, resumed.stats.total_bicg_iterations);
    assert_eq!(uninterrupted.stats.operator_traversals, resumed.stats.operator_traversals);
    assert_eq!(uninterrupted.stats.operator_assemblies, resumed.stats.operator_assemblies);
    for (a, b) in uninterrupted.records.iter().zip(&resumed.records) {
        assert_eq!(a.stats, b.stats, "per-energy counters differ after resume at E = {}", a.energy);
    }

    // The precond policy is fingerprinted: resuming under a different one
    // is refused instead of silently changing the results.
    let other_config = SweepConfig {
        ss: SsConfig { precond: PrecondPolicy::MatrixFree, ..ss },
        ..*sweep.config()
    };
    assert_ne!(sweep.config().fingerprint(1.5), other_config.fingerprint(1.5));
    let other = EnergySweep::new(&h00, &h01, 1.5, other_config);
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
