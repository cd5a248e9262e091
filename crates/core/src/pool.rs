//! Step 1 of the method: the flattened multi-group shifted-solve pool —
//! the **one** road from a solve entry point to the BiCG kernel.
//!
//! The contour quadrature needs the solutions of `N_int x N_rh` independent
//! linear systems `P(z_j) y = v_r` (plus their duals, which serve the inner
//! circle for free).  One "group" is such a set sharing a [`QepProblem`], a
//! node set and a source block: the ring of
//! [`solve_qep_with`](crate::ss::solve_qep_with), or one scan energy of a
//! sweep.  Instead of running the groups one after another (each
//! dispatching its own small batch), [`solve_pool`] concatenates the jobs
//! of **all** groups and dispatches them in **one** batch through the
//! [`TaskExecutor`] seam.
//!
//! A job is one quadrature node of one group: it builds that node's
//! operator (and, under the ILU policy on blocks that are a real
//! stencil's views, its diagonal ILU) through [`QepProblem::node_solve`] under the
//! configuration's [`PrecondPolicy`](crate::PrecondPolicy), and advances
//! all of the group's right-hand sides in lockstep through one call of
//! `cbs_solver::bicg_dual_block_precond`'s fused block matvecs, to the
//! configured tolerance or iteration cap.  With a diagonal ILU that call
//! runs BiCG on the system it splits (one row pass per apply, a stop on the
//! mapped true residual, then one true-residual certificate per node);
//! without one, on `P(z)` itself.  A job drops its node's operator when it
//! returns — so at most one per worker is alive, and the pivots are
//! computed once per solved node, never per right-hand side.  The dispatch therefore holds *solved nodes x groups* jobs; an
//! executor wider than that idles (the remedy, should a wide-machine
//! workload ever show it, is column tiles chosen from `executor.threads()`
//! inside this one job runner).
//!
//! Determinism contract: jobs are listed group-major in node order, a job
//! unpacks its outcomes in rhs order (overall `j * N_rh + rhs`), executors
//! return results in input order, and each group's [`MomentAccumulator`]
//! folds only its own outcomes in that order on the calling thread — so the
//! accumulated moments (and everything extracted from them) are
//! bit-identical to running each group alone, on every executor.
//!
//! There is no load-balancing stop: the paper's majority-stop rule (cap the
//! slow nodes once more than half have converged) is not implemented.  It
//! capped nothing on the mirrored half ring every real Hamiltonian runs on,
//! and rarely anything on a full ring.

use cbs_linalg::{CVector, Complex64};
use cbs_parallel::TaskExecutor;
use cbs_solver::{bicg_dual_block_precond, ConvergenceHistory};
use cbs_trace::TraceHandle;

use crate::qep::QepProblem;
use crate::ss::{MomentAccumulator, SsConfig};

/// The solution of one shifted system and its dual.
#[derive(Clone, Debug)]
pub struct ShiftedSolveOutcome {
    /// Index `j` of the outer-circle quadrature point.
    pub point_index: usize,
    /// Index of the right-hand side.
    pub rhs_index: usize,
    /// Solution of `P(z_j^(1)) x = v` (outer circle).
    pub x: CVector,
    /// Solution of `P(z_j^(1))† x̃ = v`, i.e. the system at the paired
    /// inner-circle node `z_j^(2) = 1/conj(z_j^(1))`.
    pub dual_x: CVector,
    /// Convergence history of the primal solve.
    pub history: ConvergenceHistory,
    /// Convergence history of the dual solve.
    pub dual_history: ConvergenceHistory,
}

/// One group entering the pool.  The group's node set travels with its
/// [`MomentAccumulator`] (passed alongside to [`solve_pool`]).
pub struct PoolGroup<'p, 'a> {
    /// The QEP this group's shifts act on.
    pub problem: &'p QepProblem<'a>,
    /// The group's source block (its right-hand sides).
    pub v_cols: &'p [CVector],
    /// Trace handle for the group's solves: each job opens a `solve` span
    /// under this handle's context (energy set by the driver, node filled
    /// per job).  [`TraceHandle::disabled`] for untraced runs.
    pub trace: TraceHandle,
}

/// Everything the pool produces for one group.
pub struct PoolOutcome {
    /// The group's accumulated moments and histories.
    pub acc: MomentAccumulator,
    /// Primal BiCG iterations summed over the group's solves.
    pub iterations: usize,
    /// Operator applications (matvec-equivalents) summed over the group.
    pub matvecs: usize,
    /// Operator traversals performed for the group, one per fused block
    /// apply.
    pub traversals: usize,
    /// Number of solves (each = one primal+dual pair).
    pub solves: usize,
}

/// What one job hands back to the fold.
struct JobOutcome {
    group: usize,
    traversals: usize,
    outcomes: Vec<ShiftedSolveOutcome>,
}

/// Solve all groups through a single flattened task pool; `accs[g]` is
/// group `g`'s accumulator and node set.  Every node is solved to the
/// tolerance (or the iteration cap) of `config`'s
/// [`solver_options`](SsConfig::solver_options), under its
/// [`precond`](SsConfig::precond) policy.
///
/// Returns one [`PoolOutcome`] per group, in group order.
pub fn solve_pool<E: TaskExecutor>(
    groups: &[PoolGroup<'_, '_>],
    accs: Vec<MomentAccumulator>,
    config: &SsConfig,
    executor: &E,
) -> Vec<PoolOutcome> {
    assert_eq!(groups.len(), accs.len(), "one accumulator per pool group expected");
    let (options, precond) = (config.solver_options(), config.precond);
    // One job per `(group, node)`, group-major in node order.
    let jobs: Vec<(usize, Complex64, usize)> = accs
        .iter()
        .enumerate()
        .flat_map(|(g, a)| (0..a.n_nodes()).map(move |j| (g, a.node_shift(j), j)))
        .collect();

    let run_job = |(g, z, point_index): (usize, Complex64, usize)| -> JobOutcome {
        let group = &groups[g];
        let _solve_span = group.trace.solve_scope(point_index);
        let (op, prec) = group.problem.node_solve(precond, z);
        let v = group.v_cols;
        let res = bicg_dual_block_precond(&op, prec.as_ref(), v, v, None, &options, None);
        let outcomes = res
            .columns
            .into_iter()
            .enumerate()
            .map(|(rhs_index, col)| ShiftedSolveOutcome {
                point_index,
                rhs_index,
                x: col.x,
                dual_x: col.dual_x,
                history: col.history,
                dual_history: col.dual_history,
            })
            .collect();
        JobOutcome { group: g, traversals: res.traversals, outcomes }
    };

    let init: Vec<PoolOutcome> = accs
        .into_iter()
        .map(|acc| PoolOutcome { acc, iterations: 0, matvecs: 0, traversals: 0, solves: 0 })
        .collect();
    // The fold runs on the calling thread in input (= job) order on every
    // executor.
    executor.execute_fold(jobs, run_job, init, |mut pooled, job| {
        let o = &mut pooled[job.group];
        o.traversals += job.traversals;
        for outcome in job.outcomes {
            o.iterations += outcome.history.iterations();
            o.matvecs += outcome.history.matvecs;
            o.solves += 1;
            o.acc.record(outcome, groups[job.group].v_cols);
        }
        pooled
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::policy::PrecondPolicy;
    use crate::ss::{extract_from_moments, RingPlan, SsResult};
    use cbs_linalg::{c64, CMatrix};
    use cbs_parallel::{RayonExecutor, SerialExecutor};
    use cbs_solver::StopReason;
    use cbs_sparse::{
        CooBuilder, CsrMatrix, DenseOp, LinearOperator, LowRankOp, Preconditioner, RealStencil,
    };
    use rand::SeedableRng;

    /// Well-conditioned complex (so: never mirrored) dense blocks.
    fn dense_blocks(n: usize, seed: u64) -> (DenseOp, DenseOp) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let a = CMatrix::random(n, n, &mut rng);
        let mut h00 = (&a + &a.adjoint()).scale(c64(0.5, 0.0));
        for i in 0..n {
            h00[(i, i)] += c64(3.0 * n as f64, 0.0);
        }
        (DenseOp::new(h00), DenseOp::new(CMatrix::random(n, n, &mut rng)))
    }

    /// Sparse complex blocks; the phase of `coupling` decides where on the
    /// ring the hard nodes sit.
    fn sparse_blocks(n: usize, coupling: Complex64) -> (CsrMatrix, CsrMatrix) {
        let (mut b00, mut b01) = (CooBuilder::new(n, n), CooBuilder::new(n, n));
        for i in 0..n {
            b00.push(i, i, c64(-4.0, 0.0));
            if i + 1 < n {
                b00.push(i, i + 1, c64(1.0, 0.2));
                b00.push(i + 1, i, c64(1.0, -0.2));
            }
            b01.push(i, (i + 2) % n, coupling);
        }
        (b00.build(), b01.build())
    }

    fn config(n_int: usize, n_rh: usize) -> SsConfig {
        SsConfig {
            n_int,
            n_rh,
            n_mm: 2,
            bicg_tolerance: 1e-11,
            precond: PrecondPolicy::MatrixFree,
            ..SsConfig::paper()
        }
    }

    /// What one single-ring group produced: the pool's counters and
    /// accumulated moments, and the extraction of those moments (for the
    /// per-solve histories and the projected moments).
    struct Ring {
        moments: (Vec<CVector>, Vec<CMatrix>),
        iterations: usize,
        matvecs: usize,
        traversals: usize,
        solves: usize,
        result: SsResult,
    }

    impl Ring {
        fn counters(&self) -> [usize; 4] {
            [self.iterations, self.matvecs, self.traversals, self.solves]
        }
    }

    /// A pool outcome, its moments read off before the extraction takes the
    /// accumulator.
    fn ring_of(qep: &QepProblem<'_>, config: &SsConfig, plan: &RingPlan, o: PoolOutcome) -> Ring {
        let moments = o.acc.stored();
        let (iterations, matvecs, traversals, solves) =
            (o.iterations, o.matvecs, o.traversals, o.solves);
        let result = extract_from_moments(qep, config, &plan.v_cols, o, 0.0);
        Ring { moments, iterations, matvecs, traversals, solves, result }
    }

    /// The pool's outcome for the one group `plan` makes of `qep`.
    fn pool_one<E: TaskExecutor>(
        qep: &QepProblem<'_>,
        config: &SsConfig,
        plan: &RingPlan,
        executor: &E,
    ) -> PoolOutcome {
        let group =
            PoolGroup { problem: qep, v_cols: &plan.v_cols, trace: TraceHandle::disabled() };
        solve_pool(&[group], vec![plan.accumulator()], config, executor)
            .pop()
            .expect("one outcome per group")
    }

    /// One single-ring group through the pool.
    fn run_ring<E: TaskExecutor>(qep: &QepProblem<'_>, config: &SsConfig, executor: &E) -> Ring {
        let plan = RingPlan::build(qep, config).unwrap();
        assert!(!plan.is_mirrored(), "these tests solve every node of the ring");
        ring_of(qep, config, &plan, pool_one(qep, config, &plan, executor))
    }

    fn assert_bitwise_eq(a: &Ring, b: &Ring) {
        assert_eq!(a.moments, b.moments, "moments must be bit-identical");
        assert_eq!(a.result.projected_moments, b.result.projected_moments);
        for (ha, hb) in a.result.solve_histories.iter().zip(&b.result.solve_histories) {
            assert_eq!(ha.residuals, hb.residuals);
            assert_eq!(ha.stop_reason, hb.stop_reason);
        }
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn outcomes_fold_in_job_order() {
        let (h00, h01) = dense_blocks(12, 31);
        let qep = QepProblem::new(&h00, &h01, 0.1, 1.0);
        let cfg = config(6, 3);
        let ring = run_ring(&qep, &cfg, &SerialExecutor);
        let Ring { iterations, matvecs, traversals, .. } = ring;
        assert_eq!(ring.solves, 6 * 3);
        assert_eq!(ring.result.solve_histories.len(), 6 * 3);
        // The pool's moments are the fold, in job order `j * N_rh + r`, of
        // each node's own block solve: node `j`, right-hand side `r` solves
        // `P(z_j) x = v_r`, and its dual the adjoint system.
        let plan = RingPlan::build(&qep, &cfg).unwrap();
        let mut acc = plan.accumulator();
        for j in 0..acc.n_nodes() {
            let op = qep.operator(acc.node_shift(j));
            let v = &plan.v_cols;
            let opts = cfg.solver_options();
            let none = None::<&dyn Preconditioner>;
            let solved = bicg_dual_block_precond(&op, none, v, v, None, &opts, None);
            for (r, col) in solved.columns.into_iter().enumerate() {
                let rhs = &v[r];
                assert!((&op.apply_vec(&col.x) - rhs).norm() <= 1e-9 * rhs.norm(), "node {j}");
                assert!((&op.apply_adjoint_vec(&col.dual_x) - rhs).norm() <= 1e-9 * rhs.norm());
                let outcome = ShiftedSolveOutcome {
                    point_index: j,
                    rhs_index: r,
                    x: col.x,
                    dual_x: col.dual_x,
                    history: col.history,
                    dual_history: col.dual_history,
                };
                acc.record(outcome, v);
            }
        }
        assert_eq!(acc.stored(), ring.moments, "moments differ from the per-node fold");
        let histories = &ring.result.solve_histories;
        assert_eq!(iterations, histories.iter().map(ConvergenceHistory::iterations).sum::<usize>());
        assert!(matvecs >= 2 * iterations);
        // Fused applies: far fewer traversals than per-column matvecs.
        assert!(traversals < matvecs / 2);
    }

    #[test]
    fn serial_and_rayon_executors_agree_bitwise() {
        let (h00, h01) = dense_blocks(16, 33);
        let qep = QepProblem::new(&h00, &h01, 0.1, 1.0);
        let cfg = config(8, 4);
        let serial = run_ring(&qep, &cfg, &SerialExecutor);
        let rayon = run_ring(&qep, &cfg, &RayonExecutor);
        assert_bitwise_eq(&serial, &rayon);
    }

    /// The hard nodes of this ring sit past its first half: every one of
    /// them runs to the tolerance, in the one dispatch, on every executor.
    #[test]
    fn every_node_of_a_full_ring_runs_to_tolerance() {
        let (h00, h01) = sparse_blocks(40, c64(-0.1, 0.25));
        let qep = QepProblem::new(&h00, &h01, 0.2, 1.0);
        let cfg = config(8, 2);
        let serial = run_ring(&qep, &cfg, &SerialExecutor);
        let histories = &serial.result.solve_histories;
        assert_eq!(histories.len(), 8 * 2);
        for (idx, h) in histories.iter().enumerate() {
            assert_eq!(h.stop_reason, StopReason::Converged, "job {idx}");
        }
        assert_bitwise_eq(&serial, &run_ring(&qep, &cfg, &RayonExecutor));
    }

    /// Complex blocks are no real stencil's views, so the ILU policy
    /// has nothing to split them by: it runs the matrix-free trajectory, bit
    /// for bit.
    #[test]
    fn ilu_policy_on_blocks_that_do_not_convert_runs_matrix_free() {
        let (h00, h01) = sparse_blocks(40, c64(0.25, -0.1));
        let qep = QepProblem::new(&h00, &h01, 0.2, 1.0);
        let cfg = |precond| SsConfig { precond, bicg_tolerance: 1e-10, ..config(6, 3) };
        let mf = run_ring(&qep, &cfg(PrecondPolicy::MatrixFree), &SerialExecutor);
        assert!(mf.result.solve_histories.iter().all(ConvergenceHistory::converged));
        let ilu = cfg(PrecondPolicy::AssembledIlu0);
        assert_bitwise_eq(&mf, &run_ring(&qep, &ilu, &SerialExecutor));
        assert_bitwise_eq(&mf, &run_ring(&qep, &ilu, &RayonExecutor));
        assert!(qep.real_stencil().is_none());
    }

    #[test]
    fn groups_are_independent_of_their_pool_mates() {
        // Two groups (two "scan energies") through one pool: each comes out
        // bit-identical to running alone.
        let (h00, h01) = dense_blocks(16, 46);
        let cfg = config(8, 3);
        let problems =
            [QepProblem::new(&h00, &h01, 0.1, 1.0), QepProblem::new(&h00, &h01, 0.4, 1.0)];
        let plan = RingPlan::build(&problems[0], &cfg).unwrap();
        let groups: Vec<PoolGroup<'_, '_>> = problems
            .iter()
            .map(|problem| PoolGroup {
                problem,
                v_cols: &plan.v_cols,
                trace: TraceHandle::disabled(),
            })
            .collect();
        let accs = problems.iter().map(|_| plan.accumulator()).collect();
        let pooled = solve_pool(&groups, accs, &cfg, &RayonExecutor);
        for (qep, together) in problems.iter().zip(pooled) {
            let alone = run_ring(qep, &cfg, &SerialExecutor);
            assert_bitwise_eq(&alone, &ring_of(qep, &cfg, &plan, together));
        }
    }

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

    #[test]
    fn a_split_residual_that_passes_early_keeps_iterating_to_the_true_tolerance() {
        let pencil = chain_pencil(60);
        let (h00, h01) = (pencil.h00(), pencil.h01());
        let qep = QepProblem::new(&h00, &h01, 0.3, 1.0);
        let config = SsConfig {
            bicg_tolerance: 1e-10,
            precond: PrecondPolicy::AssembledIlu0,
            ..config(8, 3)
        };
        let plan = RingPlan::build(&qep, &config).expect("valid contour");
        let serial = pool_one(&qep, &config, &plan, &SerialExecutor);
        assert!(qep.real_stencil().is_some(), "stencil views: the split route runs");

        // Every node, solved on its own as the pool solves it, converges and
        // meets the tolerance in the true residual, recomputed here with the
        // problem's own operator — some of its columns past an iteration
        // where both split residuals already met it ...
        let (tol, opts, v) = (config.bicg_tolerance, config.solver_options(), &plan.v_cols);
        let mut per_node = Vec::new();
        let mut early = 0;
        for j in 0..serial.acc.n_nodes() {
            let z = serial.acc.node_shift(j);
            let (op, prec) = qep.node_solve(config.precond, z);
            let Some(m) = &prec else { panic!("node {j} does not split") };
            let solved = bicg_dual_block_precond(&op, Some(m), v, v, None, &opts, None);
            let truth = qep.operator(z);
            for (r, col) in solved.columns.into_iter().enumerate() {
                let b = &v[r];
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
        let result = extract_from_moments(&qep, &config, v, serial, 0.0);
        assert!(result.solve_histories.iter().all(|h| h.converged() && h.final_residual() <= tol));
        // The mirrored ring reports each solved node's histories twice.
        let half = per_node.len();
        for (pooled, alone) in result.solve_histories.iter().zip(&per_node).take(half) {
            assert_eq!(pooled.residuals, alone.residuals);
        }

        // Serial ≡ rayon, bitwise.
        let rayon = pool_one(&qep, &config, &plan, &RayonExecutor);
        assert_eq!((counters(&rayon), rayon.acc.stored()), (cold, moments));
    }
}
