//! Deterministic-parallelism regression tests: the Sakurai-Sugiura solver
//! must produce **bit-identical** results whichever `TaskExecutor` runs the
//! shifted solves.  This is the contract that makes the threaded fan-out
//! freely substitutable for the serial path (and, later, distributed
//! backends for the threaded one) without revalidating any physics.  The
//! multi-energy driver's serial ≡ rayon check lives in
//! `tests/sweep_determinism.rs`.

use cbs::core::{solve_qep_with, QepProblem, SsConfig};
use cbs::parallel::{RayonExecutor, SerialExecutor};
use cbs::sparse::DenseOp;

mod common;

/// `SsConfig::small()` on a full ring (complex blocks):
/// serial and rayon executors must agree on every projected moment bit and
/// every recovered eigenvalue.
#[test]
fn rayon_executor_reproduces_serial_solve_exactly() {
    let n = 14;
    let (h00, h01) = common::random_blocks(n, 91);
    let op00 = DenseOp::new(h00);
    let op01 = DenseOp::new(h01);
    let qep = QepProblem::new(&op00, &op01, 0.1, 1.0);
    let config = SsConfig::small();

    let serial = solve_qep_with(&qep, &config, &SerialExecutor);
    let rayon = solve_qep_with(&qep, &config, &RayonExecutor);

    // Bit-identical projected moments µ̂_k.
    assert_eq!(serial.projected_moments.len(), 2 * config.n_mm);
    assert_eq!(serial.projected_moments.len(), rayon.projected_moments.len());
    for (k, (ms, mr)) in serial.projected_moments.iter().zip(&rayon.projected_moments).enumerate() {
        for r in 0..config.n_rh {
            for c in 0..config.n_rh {
                let (a, b) = (ms[(r, c)], mr[(r, c)]);
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "µ̂_{k}[{r},{c}] differs between executors: {a:?} vs {b:?}"
                );
            }
        }
    }

    // Identical recovered eigenvalues (and everything derived from them).
    assert!(!serial.eigenpairs.is_empty(), "test problem found no eigenpairs");
    assert_eq!(serial.eigenpairs.len(), rayon.eigenpairs.len());
    for (ps, pr) in serial.eigenpairs.iter().zip(&rayon.eigenpairs) {
        assert!(
            ps.lambda.re.to_bits() == pr.lambda.re.to_bits()
                && ps.lambda.im.to_bits() == pr.lambda.im.to_bits(),
            "eigenvalue differs between executors: {:?} vs {:?}",
            ps.lambda,
            pr.lambda
        );
        assert_eq!(ps.residual.to_bits(), pr.residual.to_bits());
    }
    assert_eq!(serial.numerical_rank, rayon.numerical_rank);
    assert_eq!(serial.total_bicg_iterations, rayon.total_bicg_iterations);
    assert_eq!(serial.total_matvecs, rayon.total_matvecs);

    // Histories survive the fan-out in job order.
    assert_eq!(serial.solve_histories.len(), config.n_int * config.n_rh);
    for (hs, hr) in serial.solve_histories.iter().zip(&rayon.solve_histories) {
        assert_eq!(hs.residuals, hr.residuals);
        assert_eq!(hs.stop_reason, hr.stop_reason);
    }
}
