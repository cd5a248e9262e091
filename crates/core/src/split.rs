//! The ILU policy's stencil nodes: BiCG on the split-preconditioned system.
//!
//! Where the blocks are a real stencil's views, a node's diagonal ILU
//! `M = M_L·M_R` (`M_L = D̃+L`, `M_R = I+D̃⁻¹U`) is not applied as a
//! preconditioner.  It splits the system instead: the unpreconditioned block
//! dual BiCG runs on `Â = M_L⁻¹P(z)M_R⁻¹` ([`StencilDilu::split`]), whose
//! apply is one pass over the stencil's rows where `P(z)` and `M⁻¹` were
//! two (Eisenstat's trick).  In exact arithmetic the iterates are those of
//! BiCG on `P(z)` preconditioned by `M`; the vectors cross over as
//!
//! ```text
//! right-hand sides   b̂ = M_L⁻¹b          dual: M_R⁻†b
//! solutions          x = M_R⁻¹x̂           dual: x̃ = M_L⁻†ŷ
//! residuals          r = M_L r̂            dual: r̃ = M_R†r̂̃
//! ```
//!
//! The stopping contract of [`SolverOptions::tolerance`] is the true
//! relative residual:
//!
//! * BiCG stops a column on the mapped true residual: its split residuals,
//!   the residuals of `P(z)` they stand for, `‖M_L r̂‖/‖b‖` and
//!   `‖M_R†r̂̃‖/‖b‖` (one pass over the rows' strict lower triangles,
//!   [`LinearOperator::unsplit_residual_norm`]), and then the same maps of
//!   the true split residuals `b̂ − Âx̂`, `b̂̃ − Â†ŷ` (one split apply per
//!   side) must all meet `tol`;
//! * one certificate per node: a fused check recomputes the true residuals
//!   `‖b − P(z)x‖/‖b‖` and `‖b − P(z)†x̃‖/‖b‖` of every column from the
//!   returned solutions (one block apply of `P(z)` and one of `P(z)†`,
//!   counted in the matvecs and the traversals);
//! * a side reports [`StopReason::Converged`] exactly when its recomputed
//!   true residual meets `tol`, and [`StopReason::MaxIterations`] if BiCG
//!   stopped it as converged but the certificate fails.
//!
//! The last entry of each residual history is the true residual of the
//! returned solution; the entries before it are the split system's.

use cbs_linalg::{CVector, Complex64};
use cbs_solver::{
    bicg_dual_block_precond, BicgResult, BlockBicgResult, ConvergenceHistory, SolverOptions,
    StopReason,
};
use cbs_sparse::{LinearOperator, Preconditioner, StencilDilu};

/// Solve `P(z)x_c = b_c` and `P(z)†x̃_c = b_c` for every column `c` on the
/// split system of `m`, the diagonal ILU of `p = P(z)` (module docs), from
/// a zero initial guess.  The arguments are those of
/// `bicg_dual_block_precond` with `m` in place of the preconditioner and one
/// right-hand side per column for both sides.
///
/// Returns the per-column results in the original system, with the
/// traversals of every apply — split and true.
pub(crate) fn solve_split(
    m: &StencilDilu<'_>,
    p: &dyn LinearOperator,
    b: &[CVector],
    opts: &SolverOptions,
) -> BlockBicgResult {
    let (n, k) = (p.dim(), b.len());
    let b_hat = |dual| -> Vec<CVector> {
        let mut b = b.to_vec();
        b.iter_mut().for_each(|v| m.split_rhs(dual, v.as_mut_slice(), 1));
        b
    };
    let (split, none) = (m.split(), None::<&dyn Preconditioner>);
    let (b_hat, b_hat_dual) = (b_hat(false), b_hat(true));
    let mut solved = bicg_dual_block_precond(&split, none, &b_hat, &b_hat_dual, None, opts, None);
    for col in &mut solved.columns {
        m.unsplit(false, col.x.as_mut_slice(), 1);
        m.unsplit(true, col.dual_x.as_mut_slice(), 1);
    }

    // The certificate: one fused apply of `P(z)` and one of `P(z)†`.
    let slab = |pick: fn(&BicgResult) -> &CVector| -> Vec<Complex64> {
        solved.columns.iter().flat_map(|col| pick(col).iter().copied()).collect()
    };
    let (mut px, mut pxt) = (vec![Complex64::ZERO; n * k], vec![Complex64::ZERO; n * k]);
    p.apply_block(&slab(|col| &col.x), &mut px, k);
    p.apply_adjoint_block(&slab(|col| &col.dual_x), &mut pxt, k);
    let settle = |history: &mut ConvergenceHistory, c: usize, y: &[Complex64]| {
        let b = b[c].as_slice();
        let r: f64 = b.iter().zip(&y[c * n..]).map(|(&bi, &yi)| (bi - yi).norm_sqr()).sum();
        let truth = r.sqrt() / b.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt().max(1e-300);
        history.matvecs += 2;
        if truth <= opts.tolerance {
            history.stop_reason = StopReason::Converged;
        } else if history.stop_reason == StopReason::Converged {
            history.stop_reason = StopReason::MaxIterations;
        }
        *history.residuals.last_mut().expect("a history holds its final residual") = truth;
    };
    for (c, col) in solved.columns.iter_mut().enumerate() {
        settle(&mut col.history, c, &px);
        settle(&mut col.dual_history, c, &pxt);
    }
    BlockBicgResult { traversals: solved.traversals + 2 * p.traversal_weight(), ..solved }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::policy::PrecondPolicy;
    use crate::pool::{solve_pool, PoolGroup, PoolOutcome};
    use crate::qep::QepProblem;
    use crate::ss::{extract_from_moments, RingPlan, SsConfig};
    use cbs_linalg::c64;
    use cbs_parallel::{RayonExecutor, SerialExecutor, TaskExecutor};
    use cbs_sparse::{CooBuilder, LowRankOp, RealStencil};
    use cbs_trace::TraceHandle;

    /// A real chain pencil whose scan energy sits just below the spectrum
    /// of `H₀₀`: `P(z)` is nearly singular there, its diagonal ILU has small
    /// pivots, and `M_L⁻¹` concentrates `b̂` on their rows — so the split
    /// residual, normalized by `‖b̂‖`, passes before the true one.  As a
    /// stencil, so the ILU policy's nodes run on its split system.
    pub(crate) fn chain_pencil(n: usize) -> RealStencil {
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

    fn config() -> SsConfig {
        SsConfig {
            n_int: 8,
            n_mm: 2,
            n_rh: 3,
            bicg_tolerance: 1e-10,
            precond: PrecondPolicy::AssembledIlu0,
            ..SsConfig::paper()
        }
    }

    fn pool<E: TaskExecutor>(qep: &QepProblem<'_>, plan: &RingPlan, executor: &E) -> PoolOutcome {
        let group =
            PoolGroup { problem: qep, v_cols: &plan.v_cols, trace: TraceHandle::disabled() };
        solve_pool(&[group], vec![plan.accumulator()], &config(), executor)
            .pop()
            .expect("one outcome per group")
    }

    #[test]
    fn a_split_residual_that_passes_early_keeps_iterating_to_the_true_tolerance() {
        let pencil = chain_pencil(60);
        let (h00, h01) = (pencil.h00(), pencil.h01());
        let qep = QepProblem::new(&h00, &h01, 0.3, 1.0);
        let plan = RingPlan::build(&qep, &config()).expect("valid contour");
        let serial = pool(&qep, &plan, &SerialExecutor);
        assert!(qep.real_stencil().is_some(), "stencil views: the split route runs");

        // Every node, solved on its own as the pool solves it, converges and
        // meets the tolerance in the true residual, recomputed here with the
        // problem's own operator — some of its columns past an iteration
        // where both split residuals already met it ...
        let tol = config().bicg_tolerance;
        let mut per_node = Vec::new();
        let mut early = 0;
        for j in 0..serial.acc.n_nodes() {
            let z = serial.acc.node_shift(j);
            let (op, prec) = qep.node_solve(config().precond, z);
            let Some(m) = &prec else { panic!("node {j} does not split") };
            let solved = solve_split(m, &op, &plan.v_cols, &config().solver_options());
            let truth = qep.operator(z);
            for (r, col) in solved.columns.into_iter().enumerate() {
                let b = &plan.v_cols[r];
                let primal = (&truth.apply_vec(&col.x) - b).norm() / b.norm();
                let dual = (&truth.apply_adjoint_vec(&col.dual_x) - b).norm() / b.norm();
                assert!(col.both_converged(), "node {j} rhs {r}");
                assert!(
                    primal <= tol && dual <= tol,
                    "node {j} rhs {r}: {primal:.2e} / {dual:.2e}"
                );
                let (split, split_dual) = (&col.history.residuals, &col.dual_history.residuals);
                let last = split.len() - 1;
                early += usize::from((0..last).any(|i| split[i] <= tol && split_dual[i] <= tol));
                per_node.push(col.history);
            }
        }
        assert!(early > 0, "no split residual passed before the true one");

        // ... and is the solve the pool ran, bit for bit, with its history
        // ending on that residual.
        let counters = |o: &PoolOutcome| [o.iterations, o.matvecs, o.traversals];
        let (cold, moments) = (counters(&serial), serial.acc.stored());
        let result = extract_from_moments(&qep, &config(), &plan.v_cols, serial, 0.0);
        assert!(result.solve_histories.iter().all(|h| h.converged() && h.final_residual() <= tol));
        // The mirrored ring reports each solved node's histories twice.
        let half = per_node.len();
        for (pooled, alone) in result.solve_histories.iter().zip(&per_node).take(half) {
            assert_eq!(pooled.residuals, alone.residuals);
        }

        // Serial ≡ rayon, bitwise.
        let rayon = pool(&qep, &plan, &RayonExecutor);
        assert_eq!((counters(&rayon), rayon.acc.stored()), (cold, moments));
    }
}
