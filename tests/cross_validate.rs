//! Cross-validation harness of the Sakurai-Sugiura ring on Al(100):
//!
//! * the `{PrecondPolicy} x {serial, rayon}` matrix — serial ≡ rayon
//!   **bitwise** within each policy, and the two policies' spectra agree to
//!   ≤ 1e-10;
//! * every interior eigenvalue the ring returns is one the OBM
//!   transfer-matrix baseline finds too.

use cbs::core::{solve_qep_with, PrecondPolicy, QepProblem, SsConfig, SsResult};
use cbs::dft::{bulk_al_100, grid_for_structure, BlockHamiltonian, HamiltonianParams};
use cbs::linalg::Complex64;
use cbs::obm::{obm_solve, ObmConfig};
use cbs::parallel::{RayonExecutor, SerialExecutor};

mod common;

/// Solver parameters well beyond the defaults (`n_int` 24, BiCG to 1e-14),
/// so the ≤ 1e-10 cross-policy bound and the comparison with the direct OBM
/// solver measure the quadrature, not the iterative solves.
fn fig6_config() -> SsConfig {
    SsConfig {
        n_int: 24,
        n_mm: 6,
        n_rh: 6,
        delta: 1e-13,
        bicg_tolerance: 1e-14,
        bicg_max_iterations: 3_000,
        residual_cutoff: 1e-6,
        seed: 1,
        ..SsConfig::small()
    }
}

fn interior(l: Complex64) -> bool {
    l.abs() > 0.55 && l.abs() < 1.8
}

/// Every interior eigenvalue of `a` is matched by one of `b` within `tol`.
fn assert_interior_sets_match(a: &SsResult, b: &SsResult, tol: f64, what: &str) {
    let mut compared = 0;
    for p in a.eigenpairs.iter().filter(|p| interior(p.lambda)) {
        let best =
            b.eigenpairs.iter().map(|q| (q.lambda - p.lambda).abs()).fold(f64::INFINITY, f64::min);
        assert!(best <= tol, "{what}: λ = {:?} unmatched (best distance {best:.2e})", p.lambda);
        compared += 1;
    }
    assert!(compared > 0, "{what}: nothing to compare");
}

fn assert_bitwise_eigenpairs(a: &SsResult, b: &SsResult, what: &str) {
    assert_eq!(a.eigenpairs.len(), b.eigenpairs.len(), "{what}: pair count differs");
    for (p, q) in a.eigenpairs.iter().zip(&b.eigenpairs) {
        assert_eq!(p.lambda.re.to_bits(), q.lambda.re.to_bits(), "{what}: Re λ differs");
        assert_eq!(p.lambda.im.to_bits(), q.lambda.im.to_bits(), "{what}: Im λ differs");
        assert_eq!(p.residual.to_bits(), q.residual.to_bits(), "{what}: residual differs");
    }
}

/// The policy matrix: `{matrix-free, assembled-ilu0} x {serial, rayon}` on
/// fig6.  Within each policy both executors must be **bitwise identical**
/// (executors do not change results), and the two policies — different
/// floating-point trajectories — find the same interior spectrum to
/// ≤ 1e-10 in both directions.
#[test]
fn fig6_policy_matrix_cross_validation() {
    let h = common::fig6_hamiltonian();
    let h00 = h.h00();
    let h01 = h.h01();
    // A cheaper spectrum (2 propagating states) keeps the 4-run matrix
    // affordable.
    let config = SsConfig { n_mm: 4, n_rh: 4, ..fig6_config() };
    let problem = QepProblem::new(&h00, &h01, 0.15, h.period());

    let [mf, ilu] = [PrecondPolicy::MatrixFree, PrecondPolicy::AssembledIlu0].map(|precond| {
        let cfg = SsConfig { precond, ..config };
        let serial = solve_qep_with(&problem, &cfg, &SerialExecutor);
        assert!(!serial.eigenpairs.is_empty(), "{}: found nothing", precond.name());
        let rayon = solve_qep_with(&problem, &cfg, &RayonExecutor);
        assert_bitwise_eigenpairs(&serial, &rayon, &format!("{}/rayon", precond.name()));
        serial
    });
    assert_interior_sets_match(&mf, &ilu, 1e-10, "matrix-free → ilu0");
    assert_interior_sets_match(&ilu, &mf, 1e-10, "ilu0 → matrix-free");
}

/// The single ring's spectrum lands on the OBM baseline — the paper's
/// Figure 4 correctness premise.  (The name predates the removal of contour
/// slicing; it is kept so the test keeps its id.)
#[test]
fn fig6_sliced_and_single_agree_with_obm() {
    let s = bulk_al_100(1);
    let grid = grid_for_structure(&s, 1.45);
    let h = BlockHamiltonian::build(
        grid,
        &s,
        HamiltonianParams { fd: cbs::grid::FdOrder::new(1), include_nonlocal: true },
    );
    let energy = 0.15;
    let config = fig6_config();
    let h00 = h.h00();
    let h01 = h.h01();
    let problem = QepProblem::new(&h00, &h01, energy, h.period());

    let single = solve_qep_with(&problem, &config, &SerialExecutor);
    let obm = obm_solve(&h.h00_csr(), &h.h01_csr(), energy, &ObmConfig::default());

    let close = |a: Complex64, b: Complex64| (a - b).abs() < 2e-5 * (1.0 + b.abs());
    let mut compared = 0;
    for p in single.eigenpairs.iter().filter(|p| interior(p.lambda)) {
        assert!(
            obm.lambdas.iter().any(|&l| close(l, p.lambda)),
            "single found {:?} which OBM missed",
            p.lambda
        );
        compared += 1;
    }
    assert!(compared > 0, "nothing to compare against OBM");
}
