//! Cross-crate integration tests: structure → grid → Hamiltonian → QEP →
//! Sakurai-Sugiura CBS, cross-checked against the conventional band
//! structure and the OBM baseline.  These exercise the full pipeline the
//! paper's experiments rely on, at a resolution small enough for CI.

use cbs::core::{solve_qep_with, QepProblem, SsConfig, PROPAGATING_TOLERANCE};
use cbs::dft::{
    band_structure, bulk_al_100, fermi_energy, grid_for_structure, BlockHamiltonian,
    HamiltonianParams,
};
use cbs::grid::FdOrder;
use cbs::linalg::Complex64;
use cbs::obm::{obm_solve, ObmConfig};
use cbs::parallel::SerialExecutor;
use cbs::sparse::LinearOperator;
use cbs::sweep::{EnergySweep, SweepConfig};

fn al_hamiltonian(spacing: f64, nf: usize) -> BlockHamiltonian {
    let s = bulk_al_100(1);
    let grid = grid_for_structure(&s, spacing);
    BlockHamiltonian::build(
        grid,
        &s,
        HamiltonianParams { fd: FdOrder::new(nf), include_nonlocal: true },
    )
}

/// The real-k solutions of the CBS must land on the conventional band
/// structure (the paper's Figure 6 accuracy statement).
#[test]
fn cbs_real_branch_agrees_with_conventional_bands() {
    let h = al_hamiltonian(1.3, 2);
    let s = bulk_al_100(1);
    let ef = fermi_energy(&h, s.valence_electrons(), 3);
    let config = SsConfig {
        n_int: 24,
        n_mm: 6,
        n_rh: 8,
        bicg_tolerance: 1e-11,
        residual_cutoff: 1e-5,
        ..SsConfig::paper()
    };
    let energies = [ef - 0.05, ef, ef + 0.05];
    let (h00, h01) = (h.h00(), h.h01());
    let run = EnergySweep::new(&h00, &h01, h.period(), SweepConfig::new(config))
        .run(&energies, &SerialExecutor);
    assert!(!run.cbs.points.is_empty(), "no CBS solutions found near EF");

    // Coarse sanity curve (plotting reference) ...
    let bands = band_structure(&h, 25, 30.min(h.dim()));
    assert!(bands.min_energy() < ef && bands.max_energy() > ef);
    // ... and an exact check: every propagating CBS state (E, k) must be an
    // eigenvalue of the Bloch Hamiltonian evaluated at that exact k.
    let mut checked = 0;
    for p in run.cbs.propagating() {
        let hk = h.bloch_hamiltonian_dense(p.k_re);
        let evals = cbs::linalg::eigenvalues(&hk).expect("Bloch diagonalization failed");
        let d = evals.iter().map(|e| (e.re - p.energy).abs()).fold(f64::INFINITY, f64::min);
        assert!(
            d < 1e-4,
            "propagating state at E={} k={} is {d} Ha away from the exact band energy",
            p.energy,
            p.k_re
        );
        checked += 1;
    }
    // Metallic aluminium must have propagating states at the Fermi energy.
    assert!(checked > 0, "no propagating states found for a metal at EF");
    // Every solution is classified one way or the other.
    assert_eq!(run.cbs.points.len(), run.cbs.propagating().count() + run.cbs.evanescent().count());
}

/// The Sakurai-Sugiura solver and the OBM baseline must agree on the
/// eigenvalues inside the annulus (the correctness premise of Figure 4).
#[test]
fn ss_and_obm_agree_on_the_annulus_spectrum() {
    let h = al_hamiltonian(1.45, 1);
    let energy = 0.15;
    let config = SsConfig {
        n_int: 24,
        n_mm: 6,
        n_rh: 8,
        bicg_tolerance: 1e-11,
        residual_cutoff: 1e-5,
        ..SsConfig::paper()
    };
    let h00 = h.h00();
    let h01 = h.h01();
    let problem = QepProblem::new(&h00, &h01, energy, h.period());
    let ss = solve_qep_with(&problem, &config, &SerialExecutor);
    let obm = obm_solve(&h.h00_csr(), &h.h01_csr(), energy, &ObmConfig::default());

    let close = |a: Complex64, b: Complex64| (a - b).abs() < 2e-5 * (1.0 + b.abs());
    let mut compared = 0;
    for p in &ss.eigenpairs {
        if p.lambda.abs() < 0.55 || p.lambda.abs() > 1.8 {
            continue;
        }
        assert!(
            obm.lambdas.iter().any(|&l| close(l, p.lambda)),
            "SS found {:?} which OBM missed ({:?})",
            p.lambda,
            obm.lambdas
        );
        compared += 1;
    }
    assert!(compared > 0, "nothing to compare between SS and OBM");
}

/// Eigenpairs returned by the full pipeline satisfy the QEP to the
/// advertised residual and respect the λ ↔ 1/λ̄ symmetry.
#[test]
fn full_pipeline_eigenpairs_are_consistent() {
    let h = al_hamiltonian(1.35, 2);
    let energy = 0.1;
    let config =
        SsConfig { n_int: 24, n_mm: 6, n_rh: 8, residual_cutoff: 1e-5, ..SsConfig::paper() };
    let h00 = h.h00();
    let h01 = h.h01();
    let problem = QepProblem::new(&h00, &h01, energy, h.period());
    let ss = solve_qep_with(&problem, &config, &SerialExecutor);
    assert!(!ss.eigenpairs.is_empty());
    for p in &ss.eigenpairs {
        assert!(p.residual < 1e-5);
        // Propagating ⇔ |λ| = 1 within tolerance.
        let prop = (p.lambda.abs() - 1.0).abs() < PROPAGATING_TOLERANCE;
        let (k_re, k_im) = problem.lambda_to_k(p.lambda);
        if prop {
            assert!(k_im.abs() < 1e-5);
        } else {
            assert!(k_im.abs() > 0.0);
        }
        assert!(k_re.is_finite());
    }
    // One history per solve run: every (listed quadrature point, rhs) pair
    // of the real Hamiltonian's mirrored half ring.
    assert!(problem.is_conjugate_symmetric());
    assert_eq!(ss.solve_histories.len(), config.n_int.div_ceil(2) * config.n_rh);
    // Memory of the matrix-free operator is far below dense storage.
    let dense = h.dim() * h.dim() * std::mem::size_of::<Complex64>();
    assert!(h.h00().memory_bytes() * 5 < dense);
}
