//! The flattened multi-group shifted-solve pool.
//!
//! One "group" is an independent set of shifted dual-BiCG systems sharing a
//! [`QepProblem`], a node set and a source block: a scan energy of a sweep,
//! one [`ContourSlice`](crate::partition::ContourSlice) of a sliced solve,
//! or a `(scan energy x slice)` cell of a sliced sweep.  Instead of running
//! the groups one after another (each dispatching its own small batch),
//! this module concatenates the jobs of **all** groups into a single batch
//! per majority-stop stage and dispatches that through the
//! [`TaskExecutor`] seam — so a wide executor stays saturated even when a
//! single group's grid is smaller than the machine.  It is the shared
//! engine room of `cbs_sweep`'s cross-energy round pool and of
//! [`solve_qep_sliced_with`](crate::ss::solve_qep_sliced_with)'s
//! cross-slice pool.
//!
//! The job granularity follows [`BlockPolicy`]: under `PerRhs` the pool
//! flattens `(group x node x rhs)` single-vector solves, under the default
//! `PerNode` it flattens `(group x node)` **block** jobs — each advancing
//! all of the group's right-hand sides in lockstep through
//! `cbs_solver::bicg_dual_block`'s fused block matvecs.  The operator
//! representation follows [`PrecondPolicy`] through
//! [`QepProblem::node_solve`].
//!
//! Determinism contract (inherited verbatim from the former `cbs-sweep`
//! round pool, which this module generalizes): jobs are listed group-major
//! in engine job order (`j * N_rh + rhs`; a block job unpacks its outcomes
//! in rhs order), executors return results in input order, and each
//! group's [`MomentAccumulator`] folds only its own outcomes in that order
//! — so the accumulated moments (and everything extracted from them) are
//! bit-identical to running each group alone through
//! [`ShiftedSolveEngine`](crate::ShiftedSolveEngine), on every executor and
//! under either block policy.  The majority-stop rule is the engine's
//! two-stage form evaluated **per group** over that group's own node list
//! (first stage: `ContourSlice::majority_stage_nodes`): the cap is a pure
//! function of the group's first-stage results.

use cbs_linalg::{CVector, Complex64};
use cbs_parallel::TaskExecutor;
use cbs_solver::{bicg_dual_block_precond, bicg_dual_precond_seeded, SolverOptions};
use cbs_sparse::LinearOperator;
use cbs_trace::TraceHandle;

use crate::engine::{BlockPolicy, PrecondPolicy, ShiftedSolveOutcome};
use crate::qep::QepProblem;
use crate::ss::{MomentAccumulator, SsConfig};

/// One group entering the pool.  The group's node set travels with its
/// [`MomentAccumulator`] (passed alongside to [`solve_pool`]).
pub struct PoolGroup<'p, 'a> {
    /// The QEP this group's shifts act on.
    pub problem: &'p QepProblem<'a>,
    /// The group's source block (its right-hand sides).
    pub v_cols: &'p [CVector],
    /// Full job-order warm-start table (`n_nodes * n_rh` pairs), or `None`
    /// for a cold group.
    pub seeds: Option<&'p [(CVector, CVector)]>,
    /// Retain the group's solutions as a donor table.  `false` drops each
    /// solution after its moment contribution, keeping the footprint at
    /// the accumulated moments.
    pub keep_solutions: bool,
    /// Trace handle for the group's solves: each job opens a `solve` span
    /// under this handle's context (energy/slice set by the driver, node
    /// filled per job).  [`TraceHandle::disabled`] for untraced runs.
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
    /// Numeric refills of the assembled pattern (ILU factorizations
    /// included) performed for the group; zero under
    /// `PrecondPolicy::MatrixFree`.  Under `BlockPolicy::PerNode` this is
    /// one per quadrature node; the legacy `PerRhs` flattening assembles
    /// per job because the pool shares no per-node cell — the counter
    /// reports what actually happened.
    pub assemblies: usize,
    /// Solves that ran under the majority-stop cap.
    pub capped_solves: usize,
    /// Number of solves (each = one primal+dual pair).
    pub solves: usize,
    /// `(x, x̃)` solutions in job order — the group's donor table.
    pub solutions: Vec<(CVector, CVector)>,
}

/// The dispatch knobs shared by every group of a pool run.
#[derive(Clone, Copy, Debug)]
pub struct PoolPolicy {
    /// BiCG options (tolerance, iteration cap, history recording).
    pub options: SolverOptions,
    /// Enable the deterministic per-group majority-stop rule.
    pub majority_stop: bool,
    /// Job granularity.
    pub block: BlockPolicy,
    /// Operator representation / preconditioning.
    pub precond: PrecondPolicy,
}

impl PoolPolicy {
    /// The pool knobs implied by a solver configuration.
    pub fn from_config(config: &SsConfig) -> Self {
        Self {
            options: config.solver_options(),
            majority_stop: config.majority_stop,
            block: config.block,
            precond: config.precond,
        }
    }
}

/// Majority-stop bookkeeping for one group (the engine's rule, per group).
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
    solutions: Vec<(CVector, CVector)>,
}

/// One single-vector job of the flattened `PerRhs` pool.
#[derive(Clone, Copy)]
struct FlatJob {
    group: usize,
    point_index: usize,
    rhs_index: usize,
    cap: Option<usize>,
}

/// One block job of the flattened `PerNode` pool: a whole quadrature node
/// of one group (all of that group's right-hand sides).
#[derive(Clone, Copy)]
struct FlatNodeJob {
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

    let run_job = |job: FlatJob| -> (usize, usize, usize, Vec<ShiftedSolveOutcome>) {
        let group = &groups[job.group];
        let _solve_span = group.trace.solve_scope(job.point_index);
        let (op, prec) =
            group.problem.node_solve(policy.precond, shifts[job.group][job.point_index]);
        let assemblies = op.is_assembled() as usize;
        let v = &group.v_cols[job.rhs_index];
        let stop_at = job.cap.map(|c| c.max(1));
        let stop_cb = move |iter: usize| stop_at.is_some_and(|c| iter >= c);
        let external: Option<&(dyn Fn(usize) -> bool + Sync)> =
            if stop_at.is_some() { Some(&stop_cb) } else { None };
        let seed = group
            .seeds
            .map(|t| &t[job.point_index * n_rh[job.group] + job.rhs_index])
            .map(|(x, xt)| (x, xt));
        let res = bicg_dual_precond_seeded(&op, prec.as_ref(), v, v, seed, &options, external);
        let traversals = res.history.matvecs * op.traversal_weight();
        (
            job.group,
            traversals,
            assemblies,
            vec![ShiftedSolveOutcome {
                point_index: job.point_index,
                rhs_index: job.rhs_index,
                x: res.x,
                dual_x: res.dual_x,
                history: res.history,
                dual_history: res.dual_history,
            }],
        )
    };

    let run_node_job = |job: FlatNodeJob| -> (usize, usize, usize, Vec<ShiftedSolveOutcome>) {
        let group = &groups[job.group];
        let _solve_span = group.trace.solve_scope(job.point_index);
        let (op, prec) =
            group.problem.node_solve(policy.precond, shifts[job.group][job.point_index]);
        let assemblies = op.is_assembled() as usize;
        let stop_at = job.cap.map(|c| c.max(1));
        let stop_cb = move |iter: usize| stop_at.is_some_and(|c| iter >= c);
        let external: Option<&(dyn Fn(usize) -> bool + Sync)> =
            if stop_at.is_some() { Some(&stop_cb) } else { None };
        let seed_vec: Vec<Option<(&CVector, &CVector)>> = (0..n_rh[job.group])
            .map(|r| {
                group
                    .seeds
                    .map(|t| &t[job.point_index * n_rh[job.group] + r])
                    .map(|(x, xt)| (x, xt))
            })
            .collect();
        let res = bicg_dual_block_precond(
            &op,
            prec.as_ref(),
            group.v_cols,
            group.v_cols,
            Some(&seed_vec),
            &options,
            external,
        );
        let traversals = res.traversals;
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
        (job.group, traversals, assemblies, outcomes)
    };

    // Per-group stage-1 size: strictly more than half of the group's
    // contour nodes — all of a mirrored half ring's.
    let stage1_points: Vec<usize> =
        accs.iter().map(MomentAccumulator::majority_stage_nodes).collect();

    let mut accs = accs;
    let mut counters: Vec<GroupCounters> =
        groups.iter().map(|_| GroupCounters::default()).collect();
    for (g, c) in counters.iter_mut().enumerate() {
        if groups[g].keep_solutions {
            c.solutions.reserve(shifts[g].len() * n_rh[g]);
        }
    }
    let mut tracking: Vec<GroupTracking> =
        shifts.iter().map(|s| GroupTracking::new(s.len())).collect();

    // Fold step shared by both stages and both policies: runs on the
    // calling thread in input (= group-major job) order on every executor.
    // Takes its mutable state explicitly so the borrows end with each
    // stage.
    let record = |tracking: &mut [GroupTracking],
                  accs: &mut [MomentAccumulator],
                  counters: &mut [GroupCounters],
                  (g, traversals, assemblies, job_outcomes): (
        usize,
        usize,
        usize,
        Vec<ShiftedSolveOutcome>,
    )| {
        counters[g].traversals += traversals;
        counters[g].assemblies += assemblies;
        for outcome in job_outcomes {
            tracking[g].record(&outcome);
            let c = &mut counters[g];
            c.iterations += outcome.history.iterations();
            c.matvecs += outcome.history.matvecs;
            c.solves += 1;
            let pair = accs[g].record(outcome);
            if groups[g].keep_solutions {
                c.solutions.push(pair);
            }
        }
    };

    // Dispatch one stage over each group's `stage`-range of nodes, at the
    // configured granularity.  0 = full node list (no majority stop),
    // 1 = first stage, 2 = second stage.
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
        match policy.block {
            BlockPolicy::PerRhs => {
                let mut jobs = Vec::new();
                for (g, &cap) in caps.iter().enumerate() {
                    for point_index in range(g) {
                        for rhs_index in 0..n_rh[g] {
                            jobs.push(FlatJob { group: g, point_index, rhs_index, cap });
                        }
                    }
                }
                executor
                    .execute_fold(jobs, run_job, (), |(), o| record(tracking, accs, counters, o));
            }
            BlockPolicy::PerNode => {
                let mut jobs = Vec::new();
                for (g, &cap) in caps.iter().enumerate() {
                    for point_index in range(g) {
                        jobs.push(FlatNodeJob { group: g, point_index, cap });
                    }
                }
                executor.execute_fold(jobs, run_node_job, (), |(), o| {
                    record(tracking, accs, counters, o);
                });
            }
        }
    };

    if !policy.majority_stop {
        let caps = vec![None; groups.len()];
        run_stage(0, &caps, &mut tracking, &mut accs, &mut counters);
    } else {
        // Stage 1: strictly more than half of each group's quadrature
        // points run to convergence, uncapped.
        let caps = vec![None; groups.len()];
        run_stage(1, &caps, &mut tracking, &mut accs, &mut counters);

        // Per-group cap: the engine's rule, from the group's own stage-1
        // results only.
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
            solutions: c.solutions,
        })
        .collect()
}
