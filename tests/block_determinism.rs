//! Regression tests of the block (multi-vector) data path: one job per
//! quadrature node must cut the operator traversal count by ≈ N_rh× and
//! preserve every determinism guarantee (serial ≡ rayon bitwise, sweep
//! kill/resume bit-identity).

use rand::SeedableRng;

use cbs::core::{solve_qep_with, QepProblem, SsConfig};
use cbs::linalg::{c64, CMatrix};
use cbs::parallel::{RayonExecutor, SerialExecutor};
use cbs::sparse::{DenseOp, LinearOperator};
use cbs::sweep::{sweep_cbs, RunOptions, RunOutcome, SweepCheckpoint, SweepConfig};

mod common;
use common::{fig6_config, fig6_hamiltonian};

fn random_blocks(n: usize, seed: u64) -> (CMatrix, CMatrix) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let a = CMatrix::random(n, n, &mut rng);
    let h00 = (&a + &a.adjoint()).scale(c64(0.5, 0.0));
    let h01 = CMatrix::random(n, n, &mut rng).scale(c64(0.35, 0.0));
    (h00, h01)
}

/// The block path on the fig6 Al(100) system cuts the operator-traversal
/// count by ≈ N_rh× against solving each node's `N_rh` right-hand sides
/// one vector at a time — whose traversal count needs no second
/// implementation: it is one storage walk per matvec.
#[test]
fn fig6_block_path_matches_per_rhs_path_and_cuts_traversals() {
    let h = fig6_hamiltonian();
    let h00 = h.h00();
    let h01 = h.h01();
    let problem = QepProblem::new(&h00, &h01, 0.15, h.period());
    let per_node = solve_qep_with(&problem, &fig6_config(), &SerialExecutor);
    assert!(!per_node.eigenpairs.is_empty(), "fig6 config found no eigenpairs");

    // One walk per matvec (times the weight the matrix-free P(z) reports:
    // 1 through the real stencil these blocks convert to) versus each
    // iteration's N_rh matvecs fused into one weighted traversal (deflation
    // means slow columns can push the ratio slightly below N_rh, never
    // below N_rh - 1 on this system).
    let n_rh = 4;
    let per_rhs_traversals = problem.traversal_weight() * per_node.total_matvecs;
    eprintln!(
        "fig6 traversals: one-per-matvec {} vs per-node {} ({:.2}x reduction)",
        per_rhs_traversals,
        per_node.total_traversals,
        per_rhs_traversals as f64 / per_node.total_traversals as f64
    );
    assert!(
        per_rhs_traversals >= (n_rh - 1) * per_node.total_traversals,
        "traversal reduction below (N_rh - 1)x: per-node {} vs one-per-matvec {}",
        per_node.total_traversals,
        per_rhs_traversals
    );
}

/// Serial and rayon executors stay bitwise identical on the fig6 system.
#[test]
fn fig6_per_node_policy_is_executor_independent() {
    let h = fig6_hamiltonian();
    let h00 = h.h00();
    let h01 = h.h01();
    let problem = QepProblem::new(&h00, &h01, 0.15, h.period());
    let config = fig6_config();

    let serial = solve_qep_with(&problem, &config, &SerialExecutor);
    let rayon = solve_qep_with(&problem, &config, &RayonExecutor);

    for (ms, mr) in serial.projected_moments.iter().zip(&rayon.projected_moments) {
        for r in 0..config.n_rh {
            for c in 0..config.n_rh {
                assert_eq!(ms[(r, c)].re.to_bits(), mr[(r, c)].re.to_bits());
                assert_eq!(ms[(r, c)].im.to_bits(), mr[(r, c)].im.to_bits());
            }
        }
    }
    assert_eq!(serial.eigenpairs.len(), rayon.eigenpairs.len());
    for (a, b) in serial.eigenpairs.iter().zip(&rayon.eigenpairs) {
        assert_eq!(a.lambda.re.to_bits(), b.lambda.re.to_bits());
        assert_eq!(a.lambda.im.to_bits(), b.lambda.im.to_bits());
    }
    assert_eq!(serial.total_traversals, rayon.total_traversals);
}

/// A killed block sweep resumes bit-identically — including its traversal
/// counters.
#[test]
fn warm_block_sweep_is_policy_invariant_and_resumes_bit_identically() {
    let (h00, h01) = random_blocks(10, 82);
    let op00 = DenseOp::new(h00);
    let op01 = DenseOp::new(h01);
    let energies: Vec<f64> = (0..10).map(|i| -0.25 + 0.05 * i as f64).collect();
    let ss = SsConfig {
        n_int: 16,
        n_mm: 4,
        n_rh: 6,
        bicg_tolerance: 1e-11,
        residual_cutoff: 1e-6,
        ..SsConfig::small()
    };
    let config = SweepConfig::new(ss);

    let per_node = sweep_cbs(&op00, &op01, 1.5, &energies, &config, &SerialExecutor);
    // Fused applies: well under one weighted walk per matvec (dense pencils
    // expose no parts, so this is the generic composition's weight).
    let weight =
        QepProblem::new(&op00, &op01, energies[0], 1.5).operator(c64(1.0, 0.0)).traversal_weight();
    assert!(per_node.stats.operator_traversals * 2 < weight * per_node.stats.total_matvecs);

    // Kill the per-node sweep partway, resume, compare bit-for-bit.
    let sweep = cbs::sweep::EnergySweep::new(&op00, &op01, 1.5, config);
    let dir = std::env::temp_dir().join(format!("cbs_block_resume_{}", std::process::id()));
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
    assert_eq!(per_node.cbs.points.len(), resumed.cbs.points.len());
    for (a, b) in per_node.cbs.points.iter().zip(&resumed.cbs.points) {
        assert_eq!(a.lambda.re.to_bits(), b.lambda.re.to_bits());
        assert_eq!(a.lambda.im.to_bits(), b.lambda.im.to_bits());
        assert_eq!(a.residual.to_bits(), b.residual.to_bits());
    }
    assert_eq!(per_node.stats.total_bicg_iterations, resumed.stats.total_bicg_iterations);
    assert_eq!(per_node.stats.operator_traversals, resumed.stats.operator_traversals);
    for (a, b) in per_node.records.iter().zip(&resumed.records) {
        assert_eq!(a.stats, b.stats, "per-energy counters differ after resume at E = {}", a.energy);
    }
    std::fs::remove_dir_all(&dir).ok();
}
