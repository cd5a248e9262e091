//! Single-system entry points of the dual BiCG: the width-1 case of the
//! block kernel in [`crate::block`].
//!
//! BiCG is the workhorse of the paper: the shifted QEP systems
//! `P(z_j) Y = V` at the outer-circle quadrature points are solved with it,
//! and because `P(z)† = P(1/z̄)`, the *dual* solution produced by the same
//! iteration is exactly the solution needed at the corresponding
//! inner-circle point — halving the number of linear solves (paper §3.2).

use cbs_linalg::CVector;
use cbs_sparse::{LinearOperator, Preconditioner};

use crate::block::bicg_dual_block_precond;
use crate::history::{ConvergenceHistory, SolverOptions};

/// Result of a dual BiCG solve.
#[derive(Clone, Debug)]
pub struct BicgResult {
    /// Solution of the primal system `A x = b`.
    pub x: CVector,
    /// Solution of the dual system `A† x̃ = b_dual`.
    pub dual_x: CVector,
    /// Convergence history of the primal residual.
    pub history: ConvergenceHistory,
    /// Convergence history of the dual residual.
    pub dual_history: ConvergenceHistory,
}

impl BicgResult {
    /// `true` when both the primal and dual systems reached the tolerance.
    pub fn both_converged(&self) -> bool {
        self.history.converged() && self.dual_history.converged()
    }
}

/// Solve `A x = b` and `A† x̃ = b_dual` simultaneously with BiCG — the
/// unpreconditioned, unseeded width-1 call of
/// [`bicg_dual_block_precond`], which documents `external_stop`.
pub fn bicg_dual<A: LinearOperator + ?Sized>(
    a: &A,
    b: &CVector,
    b_dual: &CVector,
    opts: &SolverOptions,
    external_stop: Option<&(dyn Fn(usize) -> bool + Sync)>,
) -> BicgResult {
    let (b, b_dual) = (std::slice::from_ref(b), std::slice::from_ref(b_dual));
    bicg_dual_block_precond(a, None::<&dyn Preconditioner>, b, b_dual, None, opts, external_stop)
        .columns
        .pop()
        .expect("a width-1 block has one column")
}

/// Solve a single system `A x = b` with BiCG (the dual right-hand side is
/// taken equal to `b`, as in the paper where both systems share `V`).
pub fn bicg<A: LinearOperator + ?Sized>(
    a: &A,
    b: &CVector,
    opts: &SolverOptions,
) -> (CVector, ConvergenceHistory) {
    let res = bicg_dual(a, b, b, opts, None);
    (res.x, res.history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::StopReason;
    use cbs_linalg::{c64, CMatrix};
    use cbs_sparse::{CsrMatrix, DenseOp};
    use rand::SeedableRng;

    fn random_diag_dominant(n: usize, seed: u64) -> CMatrix {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut a = CMatrix::random(n, n, &mut rng);
        for i in 0..n {
            a[(i, i)] += c64(n as f64, 0.5);
        }
        a
    }

    #[test]
    fn bicg_solves_primal_and_dual() {
        let n = 40;
        let a = random_diag_dominant(n, 201);
        let op = DenseOp::new(a.clone());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(202);
        let x_true = CVector::random(n, &mut rng);
        let b = a.matvec(&x_true);
        let xd_true = CVector::random(n, &mut rng);
        let bd = a.adjoint().matvec(&xd_true);

        let opts = SolverOptions::default().with_tolerance(1e-12);
        let res = bicg_dual(&op, &b, &bd, &opts, None);
        assert!(
            res.both_converged(),
            "primal {:?} dual {:?}",
            res.history.stop_reason,
            res.dual_history.stop_reason
        );
        assert!((&res.x - &x_true).norm() / x_true.norm() < 1e-8);
        assert!((&res.dual_x - &xd_true).norm() / xd_true.norm() < 1e-8);
        // Residual history is monotone-ish and ends tiny.
        assert!(res.history.final_residual() < 1e-12);
        assert!(res.history.iterations() <= n + 2);
    }

    #[test]
    fn bicg_on_sparse_shifted_laplacian() {
        // 1-D periodic Laplacian shifted by 0.5 + 0.8i into the complex
        // plane (the shift folded into the diagonal): a simple stand-in
        // for P(z).
        let n = 60;
        let mut b = cbs_sparse::CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, c64(2.0, 0.0) - c64(0.5, 0.8));
            b.push(i, (i + 1) % n, c64(-1.0, 0.0));
            b.push(i, (i + n - 1) % n, c64(-1.0, 0.0));
        }
        let shifted: CsrMatrix = b.build();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(203);
        let x_true = CVector::random(n, &mut rng);
        let rhs = shifted.apply_vec(&x_true);
        let (x, hist) = bicg(&shifted, &rhs, &SolverOptions::default());
        assert!(hist.converged());
        assert!((&x - &x_true).norm() / x_true.norm() < 1e-7);
    }

    #[test]
    fn external_stop_is_honoured() {
        let a = random_diag_dominant(30, 204);
        let op = DenseOp::new(a);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(205);
        let b = CVector::random(30, &mut rng);
        let opts = SolverOptions::default().with_tolerance(1e-14);
        let res = bicg_dual(&op, &b, &b, &opts, Some(&|iter| iter >= 3));
        assert_eq!(res.history.stop_reason, StopReason::ExternalStop);
        assert!(res.history.iterations() <= 4);
    }

    #[test]
    fn max_iterations_reported() {
        let a = random_diag_dominant(30, 206);
        let op = DenseOp::new(a);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(207);
        let b = CVector::random(30, &mut rng);
        let opts = SolverOptions { tolerance: 1e-30, max_iterations: 2, record_history: true };
        let (_, hist) = bicg(&op, &b, &opts);
        assert_eq!(hist.stop_reason, StopReason::MaxIterations);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = random_diag_dominant(10, 211);
        let op = DenseOp::new(a);
        let b = CVector::zeros(10);
        let (x, hist) = bicg(&op, &b, &SolverOptions::default());
        assert!(hist.converged());
        assert!(x.norm() < 1e-14);
        assert_eq!(hist.iterations(), 0);
    }
}
