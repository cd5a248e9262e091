//! Regression tests of the block (multi-vector) data path: one job per
//! quadrature node must cut the operator traversal count by ≈ N_rh× and
//! preserve every determinism guarantee (serial ≡ rayon bitwise, sweep
//! kill/resume bit-identity).

use rand::SeedableRng;

use cbs::core::{solve_qep_with, QepProblem, SsConfig};
use cbs::linalg::{c64, CMatrix};
use cbs::parallel::{RayonExecutor, SerialExecutor};
use cbs::sparse::DenseOp;
use cbs::sweep::{EnergySweep, RunOptions, SweepCheckpoint, SweepConfig};

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
fn fig6_block_path_cuts_traversals_by_n_rh() {
    let h = fig6_hamiltonian();
    let h00 = h.h00();
    let h01 = h.h01();
    let problem = QepProblem::new(&h00, &h01, 0.15, h.period());
    let per_node = solve_qep_with(&problem, &fig6_config(), &SerialExecutor);
    assert!(!per_node.eigenpairs.is_empty(), "fig6 config found no eigenpairs");

    // One walk per matvec versus each iteration's N_rh matvecs fused into
    // one traversal (deflation means slow columns can push the ratio
    // slightly below N_rh, never below N_rh - 1 on this system).
    let n_rh = 4;
    let per_rhs_traversals = per_node.total_matvecs;
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
fn block_sweep_fuses_applies_and_resumes_bit_identically() {
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
    let sweep = EnergySweep::new(&op00, &op01, 1.5, SweepConfig::new(ss));

    let dir = std::env::temp_dir().join(format!("cbs_block_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.cp");
    let options = RunOptions { checkpoint_path: Some(&path), ..RunOptions::default() };
    let per_node = sweep.run_with(&energies, &SerialExecutor, options).unwrap();
    // Fused applies: well under one traversal per two matvecs.
    assert!(per_node.stats.operator_traversals * 2 < per_node.stats.total_matvecs);

    // Kill the per-node sweep after five energies, resume, compare
    // bit-for-bit.
    let killed = common::killed_after(&SweepCheckpoint::load(&path).unwrap(), 5);
    let resume = RunOptions { resume: Some(killed), ..RunOptions::default() };
    let resumed = sweep.run_with(&energies, &SerialExecutor, resume).unwrap();
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
