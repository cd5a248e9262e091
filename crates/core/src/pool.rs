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
//! of **all** groups into a single batch per majority-stop stage and
//! dispatches that through the [`TaskExecutor`] seam.
//!
//! A job is one quadrature node of one group: it builds that node's
//! operator (and preconditioner) through [`QepProblem::node_solve`] under
//! the pool's [`PrecondPolicy`], advances all of the group's right-hand
//! sides in lockstep through `cbs_solver::bicg_dual_block_precond`'s fused
//! block matvecs — on the system the diagonal ILU splits, for a stencil node
//! of the ILU policy (the `split` module: one row pass per apply, a stop on
//! the mapped true residual, then one true-residual certificate per node) —
//! and drops the `(P(z), M)` pair when it returns — so at
//! most one pair per worker is alive, and the preconditioner set-up (the
//! stencil-form pivots, or a pattern refill and its factorization) is paid
//! once per solved node, never per right-hand side (`assemblies` counts the
//! pattern refills: one per node that applies the assembled CSR, none for
//! a stencil node).  A stage therefore
//! dispatches *solved nodes x groups* jobs; an executor wider than that
//! idles (the remedy, should a wide-machine workload ever show it, is
//! column tiles chosen from `executor.threads()` inside this one job
//! runner).
//!
//! Determinism contract: jobs are listed group-major in node order, a job
//! unpacks its outcomes in rhs order (overall `j * N_rh + rhs`), executors
//! return results in input order, and each group's [`MomentAccumulator`]
//! folds only its own outcomes in that order on the calling thread — so the
//! accumulated moments (and everything extracted from them) are
//! bit-identical to running each group alone, on every executor.
//!
//! The paper's majority-stop load-balancing rule runs in a deterministic
//! two-stage form, **per group**: the group's first
//! [`MomentAccumulator::majority_stage_nodes`] nodes (strictly more than
//! half of its ring — all of a mirrored half ring's) are always solved to
//! convergence; if they all converge, the remaining nodes run with their
//! iteration count capped at the worst converged count of the first stage.
//! The cap is a pure function of the group's completed first-stage results,
//! independent of scheduling.

use cbs_linalg::{CVector, Complex64};
use cbs_parallel::TaskExecutor;
use cbs_solver::{bicg_dual_block_precond, ConvergenceHistory, SolverOptions};
use cbs_trace::TraceHandle;

use crate::policy::PrecondPolicy;
use crate::qep::{NodePrecond, QepProblem};
use crate::split::solve_split;
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
    /// Operator-storage traversals actually performed for the group (fused
    /// block applies count the operator's `traversal_weight`).
    pub traversals: usize,
    /// Numeric refills of the assembled pattern performed for the group:
    /// one per solved quadrature node whose operator is the assembled CSR.
    /// Zero under `PrecondPolicy::MatrixFree`, and zero under the ILU policy
    /// on blocks that convert to the real stencil, whose diagonal ILU
    /// refills nothing.
    pub assemblies: usize,
    /// Solves that ran under the majority-stop cap.
    pub capped_solves: usize,
    /// Number of solves (each = one primal+dual pair).
    pub solves: usize,
}

/// The dispatch knobs shared by every group of a pool run.
#[derive(Clone, Copy, Debug)]
pub struct PoolPolicy {
    /// BiCG options (tolerance, iteration cap, history recording).
    pub options: SolverOptions,
    /// Enable the deterministic per-group majority-stop rule.
    pub majority_stop: bool,
    /// Operator representation / preconditioning.
    pub precond: PrecondPolicy,
}

impl PoolPolicy {
    /// The pool knobs implied by a solver configuration.
    pub fn from_config(config: &SsConfig) -> Self {
        Self {
            options: config.solver_options(),
            majority_stop: config.majority_stop,
            precond: config.precond,
        }
    }
}

/// Majority-stop bookkeeping for one group.
struct GroupTracking {
    point_converged: Vec<bool>,
    converged_iter_max: usize,
}

impl GroupTracking {
    fn new(n_nodes: usize) -> Self {
        Self { point_converged: vec![true; n_nodes], converged_iter_max: 0 }
    }

    fn record(&mut self, o: &ShiftedSolveOutcome) {
        self.point_converged[o.point_index] &= o.history.converged() && o.dual_history.converged();
        if o.history.converged() {
            self.converged_iter_max = self.converged_iter_max.max(o.history.iterations());
        }
    }

    fn converged_among(&self, n_points: usize) -> usize {
        self.point_converged[..n_points].iter().filter(|&&c| c).count()
    }
}

/// Per-group mutable counters (assembled into [`PoolOutcome`] at the end).
#[derive(Default)]
struct GroupCounters {
    iterations: usize,
    matvecs: usize,
    traversals: usize,
    assemblies: usize,
    capped_solves: usize,
    solves: usize,
}

/// What one job hands back to the fold.
struct JobOutcome {
    group: usize,
    traversals: usize,
    assemblies: usize,
    outcomes: Vec<ShiftedSolveOutcome>,
}

/// One job of the flattened pool: a whole quadrature node of one group
/// (all of that group's right-hand sides).
#[derive(Clone, Copy)]
struct NodeJob {
    group: usize,
    point_index: usize,
    cap: Option<usize>,
}

/// Solve all groups through a single flattened task pool; `accs[g]` is
/// group `g`'s accumulator and node set.
///
/// Returns one [`PoolOutcome`] per group, in group order.
pub fn solve_pool<E: TaskExecutor>(
    groups: &[PoolGroup<'_, '_>],
    accs: Vec<MomentAccumulator>,
    policy: &PoolPolicy,
    executor: &E,
) -> Vec<PoolOutcome> {
    assert_eq!(groups.len(), accs.len(), "one accumulator per pool group expected");
    let shifts: Vec<Vec<Complex64>> =
        accs.iter().map(|a| (0..a.n_nodes()).map(|j| a.node_shift(j)).collect()).collect();
    let n_rh: Vec<usize> = groups.iter().map(|g| g.v_cols.len()).collect();
    let options = policy.options;

    let run_job = |job: NodeJob| -> JobOutcome {
        let group = &groups[job.group];
        let _solve_span = group.trace.solve_scope(job.point_index);
        let (op, prec) =
            group.problem.node_solve(policy.precond, shifts[job.group][job.point_index]);
        let assemblies = usize::from(op.is_assembled());
        let stop_at = job.cap.map(|c| c.max(1));
        let stop_cb = move |iter: usize| stop_at.is_some_and(|c| iter >= c);
        let external: Option<&(dyn Fn(usize) -> bool + Sync)> =
            if stop_at.is_some() { Some(&stop_cb) } else { None };
        // A stencil node of the ILU policy runs BiCG on its split system;
        // every other node on `P(z)`, preconditioned or not.
        let v = group.v_cols;
        let res = match &prec {
            Some(NodePrecond::Stencil(m)) => solve_split(m, &op, v, &options, external),
            _ => bicg_dual_block_precond(&op, prec.as_ref(), v, v, None, &options, external),
        };
        let outcomes = res
            .columns
            .into_iter()
            .enumerate()
            .map(|(rhs_index, col)| ShiftedSolveOutcome {
                point_index: job.point_index,
                rhs_index,
                x: col.x,
                dual_x: col.dual_x,
                history: col.history,
                dual_history: col.dual_history,
            })
            .collect();
        JobOutcome { group: job.group, traversals: res.traversals, assemblies, outcomes }
    };

    // Per-group stage-1 size: strictly more than half of the group's ring
    // nodes — all of a mirrored half ring's.
    let stage1_points: Vec<usize> =
        accs.iter().map(MomentAccumulator::majority_stage_nodes).collect();

    let mut accs = accs;
    let mut counters: Vec<GroupCounters> =
        groups.iter().map(|_| GroupCounters::default()).collect();
    let mut tracking: Vec<GroupTracking> =
        shifts.iter().map(|s| GroupTracking::new(s.len())).collect();

    // Fold step shared by both stages: runs on the calling thread in input
    // (= group-major job) order on every executor.  Takes its mutable state
    // explicitly so the borrows end with each stage.
    let record = |tracking: &mut [GroupTracking],
                  accs: &mut [MomentAccumulator],
                  counters: &mut [GroupCounters],
                  job: JobOutcome| {
        let g = job.group;
        counters[g].traversals += job.traversals;
        counters[g].assemblies += job.assemblies;
        for outcome in job.outcomes {
            tracking[g].record(&outcome);
            let c = &mut counters[g];
            c.iterations += outcome.history.iterations();
            c.matvecs += outcome.history.matvecs;
            c.solves += 1;
            accs[g].record(outcome, groups[g].v_cols);
        }
    };

    // Dispatch one stage over each group's `stage`-range of nodes.
    // 0 = full node list (no majority stop), 1 = first stage, 2 = second.
    let run_stage = |stage: u8,
                     caps: &[Option<usize>],
                     tracking: &mut Vec<GroupTracking>,
                     accs: &mut Vec<MomentAccumulator>,
                     counters: &mut Vec<GroupCounters>| {
        let range = |g: usize| match stage {
            0 => 0..shifts[g].len(),
            1 => 0..stage1_points[g],
            _ => stage1_points[g]..shifts[g].len(),
        };
        let jobs: Vec<NodeJob> = caps
            .iter()
            .enumerate()
            .flat_map(|(group, &cap)| {
                range(group).map(move |point_index| NodeJob { group, point_index, cap })
            })
            .collect();
        executor.execute_fold(jobs, run_job, (), |(), o| record(tracking, accs, counters, o));
    };

    if !policy.majority_stop {
        let caps = vec![None; groups.len()];
        run_stage(0, &caps, &mut tracking, &mut accs, &mut counters);
    } else {
        // Stage 1: strictly more than half of each group's quadrature
        // points run to convergence, uncapped.
        let caps = vec![None; groups.len()];
        run_stage(1, &caps, &mut tracking, &mut accs, &mut counters);

        // Per-group cap, from the group's own stage-1 results only: the rule
        // fires once more than half of the group's points have converged
        // (the paper's condition), and caps at the worst iteration count
        // among the converged stage-1 solves.
        let caps: Vec<Option<usize>> = tracking
            .iter()
            .enumerate()
            .map(|(g, t)| {
                let converged = t.converged_among(stage1_points[g]);
                if converged * 2 > shifts[g].len() && t.converged_iter_max > 0 {
                    Some(t.converged_iter_max)
                } else {
                    None
                }
            })
            .collect();
        for (g, cap) in caps.iter().enumerate() {
            if cap.is_some() {
                counters[g].capped_solves = (shifts[g].len() - stage1_points[g]) * n_rh[g];
            }
        }
        run_stage(2, &caps, &mut tracking, &mut accs, &mut counters);
    }

    accs.into_iter()
        .zip(counters)
        .map(|(acc, c)| PoolOutcome {
            acc,
            iterations: c.iterations,
            matvecs: c.matvecs,
            traversals: c.traversals,
            assemblies: c.assemblies,
            capped_solves: c.capped_solves,
            solves: c.solves,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ss::{extract_from_moments, RingPlan, SsResult};
    use cbs_linalg::{c64, CMatrix};
    use cbs_parallel::{RayonExecutor, SerialExecutor};
    use cbs_solver::StopReason;
    use cbs_sparse::{
        AssembledPattern, CooBuilder, CsrMatrix, DenseOp, LinearOperator, Preconditioner,
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

    /// Sparse complex blocks an assembled pattern can be built from; the
    /// phase of `coupling` decides where on the ring the hard nodes sit.
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

    fn config(n_int: usize, n_rh: usize, majority_stop: bool) -> SsConfig {
        SsConfig {
            n_int,
            n_rh,
            n_mm: 2,
            bicg_tolerance: 1e-11,
            majority_stop,
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
        assemblies: usize,
        capped_solves: usize,
        solves: usize,
        result: SsResult,
    }

    impl Ring {
        fn counters(&self) -> [usize; 6] {
            let r = self;
            [r.iterations, r.matvecs, r.traversals, r.assemblies, r.capped_solves, r.solves]
        }
    }

    /// A pool outcome, its moments read off before the extraction takes the
    /// accumulator.
    fn ring_of(qep: &QepProblem<'_>, config: &SsConfig, plan: &RingPlan, o: PoolOutcome) -> Ring {
        let moments = o.acc.stored();
        let result = extract_from_moments(
            qep,
            config,
            &plan.v_cols,
            o.acc,
            o.iterations,
            o.matvecs,
            o.traversals,
            o.assemblies,
            0.0,
        );
        Ring {
            moments,
            iterations: o.iterations,
            matvecs: o.matvecs,
            traversals: o.traversals,
            assemblies: o.assemblies,
            capped_solves: o.capped_solves,
            solves: o.solves,
            result,
        }
    }

    /// One single-ring group through the pool.
    fn run_ring<E: TaskExecutor>(qep: &QepProblem<'_>, config: &SsConfig, executor: &E) -> Ring {
        let plan = RingPlan::build(qep, config).unwrap();
        assert!(!plan.is_mirrored(), "these tests solve every node of the ring");
        let group =
            PoolGroup { problem: qep, v_cols: &plan.v_cols, trace: TraceHandle::disabled() };
        let policy = PoolPolicy::from_config(config);
        let o = solve_pool(&[group], vec![plan.accumulator()], &policy, executor)
            .pop()
            .expect("one outcome per group");
        ring_of(qep, config, &plan, o)
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
        let cfg = config(6, 3, false);
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
            let solved =
                bicg_dual_block_precond(&op, None::<&dyn Preconditioner>, v, v, None, &opts, None);
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
        // Fused applies: far fewer storage walks than per-column matvecs
        // (weight 3 per generic matrix-free apply: dense pencils).
        assert!(traversals < 3 * matvecs / 2);
    }

    #[test]
    fn serial_and_rayon_executors_agree_bitwise() {
        let (h00, h01) = dense_blocks(16, 33);
        let qep = QepProblem::new(&h00, &h01, 0.1, 1.0);
        for majority in [false, true] {
            let cfg = config(8, 4, majority);
            let serial = run_ring(&qep, &cfg, &SerialExecutor);
            let rayon = run_ring(&qep, &cfg, &RayonExecutor);
            assert_bitwise_eq(&serial, &rayon);
        }
    }

    #[test]
    fn majority_stop_caps_exactly_the_second_stage() {
        let (h00, h01) = sparse_blocks(40, c64(-0.1, 0.25));
        let qep = QepProblem::new(&h00, &h01, 0.2, 1.0);
        let (n_int, n_rh) = (8, 2);
        let stage1 = n_int / 2 + 1;
        let free = run_ring(&qep, &config(n_int, n_rh, false), &SerialExecutor);
        let capped = run_ring(&qep, &config(n_int, n_rh, true), &SerialExecutor);
        assert_eq!(free.capped_solves, 0);
        // Every first-stage solve converges, so the rule fires.
        assert_eq!(capped.capped_solves, (n_int - stage1) * n_rh);
        // The first stage is untouched by the rule, and its worst converged
        // iteration count is the cap of the rest.
        let split = stage1 * n_rh;
        let h = &capped.result.solve_histories;
        let cap = h[..split].iter().map(ConvergenceHistory::iterations).max().unwrap();
        let mut stopped = 0;
        for (idx, (hist, uncapped)) in h.iter().zip(&free.result.solve_histories).enumerate() {
            if idx < split || uncapped.iterations() <= cap {
                assert_eq!(hist.residuals, uncapped.residuals, "job {idx}");
            } else {
                assert_eq!(hist.iterations(), cap, "job {idx} ran past the cap");
                assert_eq!(hist.stop_reason, StopReason::ExternalStop);
                stopped += 1;
            }
        }
        assert!(stopped > 0, "the hard nodes of this system sit in the second stage");
    }

    #[test]
    fn every_solved_assembled_node_refills_once_and_ilu_cuts_iterations() {
        let (h00, h01) = sparse_blocks(40, c64(0.25, -0.1));
        let pattern = AssembledPattern::build(&h00, &h01);
        let qep = QepProblem::new(&h00, &h01, 0.2, 1.0).with_pattern(&pattern);
        let run = |precond, majority| {
            let cfg = SsConfig { precond, bicg_tolerance: 1e-10, ..config(6, 3, majority) };
            (run_ring(&qep, &cfg, &SerialExecutor), run_ring(&qep, &cfg, &RayonExecutor))
        };
        for majority in [false, true] {
            let (mf, _) = run(PrecondPolicy::MatrixFree, majority);
            let (ilu, ilu_rayon) = run(PrecondPolicy::AssembledIlu0, majority);
            assert_bitwise_eq(&ilu, &ilu_rayon);
            // One `node_solve` per solved node — shared by its 3 right-hand
            // sides, in one stage or two; complex blocks never convert, so
            // each refills the pattern.
            assert_eq!((mf.assemblies, ilu.assemblies), (0, 6));
            assert!(ilu.result.solve_histories.iter().all(ConvergenceHistory::converged));
            assert!(
                ilu.iterations < mf.iterations,
                "ILU(0) did not cut iterations: {} vs {}",
                ilu.iterations,
                mf.iterations
            );
        }
    }

    #[test]
    fn groups_are_independent_of_their_pool_mates() {
        // Two groups (two "scan energies") through one pool: each comes out
        // bit-identical to running alone, with its own majority-stop cap.
        let (h00, h01) = dense_blocks(16, 46);
        let cfg = config(8, 3, true);
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
        let pooled = solve_pool(&groups, accs, &PoolPolicy::from_config(&cfg), &RayonExecutor);
        for (qep, together) in problems.iter().zip(pooled) {
            let alone = run_ring(qep, &cfg, &SerialExecutor);
            assert_bitwise_eq(&alone, &ring_of(qep, &cfg, &plan, together));
        }
    }
}
