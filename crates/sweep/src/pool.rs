//! The flattened cross-energy (and cross-slice) task pool.
//!
//! One round of a sweep holds several per-energy solve groups; under a
//! partitioned contour ([`SlicePolicy`](cbs_core::SlicePolicy)) each energy
//! further splits into per-slice sub-groups with their own node sets and
//! source blocks.  This module flattens the whole
//! `(energy x slice x node)` grid of one round into a single batch
//! per majority-stop stage through the **shared multi-group pool of
//! `cbs-core`** (`cbs_core::solve_pool`, which this crate's round pool
//! originally pioneered and which now also powers
//! `cbs_core::solve_qep_sliced_with`) — so a wide executor stays saturated
//! even when a single energy's grid is smaller than the machine.
//!
//! Determinism contract: `solve_pool`'s — jobs are listed group-major
//! (energy-major, then slice, then node order), executors return results
//! in input order, and each `(energy, slice)` accumulator folds only its
//! own outcomes in that order, so the accumulated moments are bit-identical
//! to running each group alone, on every executor.  The majority-stop cap
//! is evaluated per `(energy, slice)` group from that group's own
//! first-stage results.
//!
//! Warm-start seed tables are stored **concatenated slice-major** per
//! energy (slice 0's `n_nodes x n_rh` job-order table, then slice 1's, …),
//! which is exactly the layout [`GroupOutcome::solutions`] comes back in —
//! one energy's donor table seeds another energy's solves slice by slice.

use cbs_core::{solve_pool, PoolGroup, PoolOutcome, PoolPolicy, QepProblem, SlicedPlan, SsConfig};
use cbs_parallel::TaskExecutor;
use cbs_trace::TraceHandle;

use crate::sweep::SeedTable;

/// One per-energy solve group entering a round.
pub(crate) struct SolveGroup<'a, 'p> {
    /// The QEP at this group's scan energy.
    pub problem: &'p QepProblem<'a>,
    /// Full slice-major job-order warm-start table
    /// (`Σ_s n_nodes(s) * n_rh(s)` pairs), or `None` for a cold group.
    pub seeds: Option<&'p SeedTable>,
    /// Retain the group's solutions as a donor table.  `false` (cold
    /// sweeps, or a bank that will not be consulted) drops each solution
    /// after its moment contribution, keeping the cold sweep's footprint at
    /// the per-energy loop's level.
    pub keep_solutions: bool,
    /// Trace handle carrying the group's scan-energy context; the pool adds
    /// the slice (for partitioned contours) and node per job.
    pub trace: TraceHandle,
}

/// Everything the round solve produces for one energy.
pub(crate) struct GroupOutcome {
    /// Per-slice pool outcomes (accumulated moments, counters), in slice
    /// order; a single entry under the single-contour policy.
    pub slices: Vec<PoolOutcome>,
    /// Primal BiCG iterations summed over the energy's solves.
    pub iterations: usize,
    /// Operator applications (matvec-equivalents) summed over the energy.
    pub matvecs: usize,
    /// Operator-storage traversals actually performed for the energy.
    pub traversals: usize,
    /// Numeric refills of the assembled pattern performed for the energy.
    pub assemblies: usize,
    /// Solves that ran under the majority-stop cap.
    pub capped_solves: usize,
    /// Number of solves (each = one primal+dual pair).
    pub solves: usize,
    /// `(x, x̃)` solutions, slice-major in job order — the energy's donor
    /// table (empty unless `keep_solutions`).
    pub solutions: SeedTable,
}

/// Solve all groups of one round through a single flattened task pool.
///
/// Returns one [`GroupOutcome`] per group, in group order.
pub(crate) fn solve_round<E: TaskExecutor>(
    groups: &[SolveGroup<'_, '_>],
    plan: &SlicedPlan,
    config: &SsConfig,
    executor: &E,
) -> Vec<GroupOutcome> {
    let n_slices = plan.len();
    // Slice-major offsets into a concatenated per-energy seed table.
    let mut offsets = Vec::with_capacity(n_slices + 1);
    offsets.push(0usize);
    for s in 0..n_slices {
        offsets.push(offsets[s] + plan.seed_table_len(s));
    }

    let n = groups.first().map_or(0, |g| g.problem.dim());
    let mut pool_groups = Vec::with_capacity(groups.len() * n_slices);
    let mut accs = Vec::with_capacity(groups.len() * n_slices);
    for g in groups {
        for (s, acc) in plan.accumulators(n).into_iter().enumerate() {
            pool_groups.push(PoolGroup {
                problem: g.problem,
                v_cols: &plan.v_cols[s],
                seeds: g.seeds.map(|t| &t[offsets[s]..offsets[s + 1]]),
                keep_solutions: g.keep_solutions,
                // The slice index only means something on a partitioned
                // contour; single-contour spans stay slice-less.
                trace: if n_slices > 1 { g.trace.with_slice(s) } else { g.trace },
            });
            accs.push(acc);
        }
    }

    let outcomes = solve_pool(&pool_groups, accs, &PoolPolicy::from_config(config), executor);

    // Regroup (energy-major) pool outcomes into per-energy bundles.
    let mut out = Vec::with_capacity(groups.len());
    let mut iter = outcomes.into_iter();
    for _ in groups {
        let mut bundle = GroupOutcome {
            slices: Vec::with_capacity(n_slices),
            iterations: 0,
            matvecs: 0,
            traversals: 0,
            assemblies: 0,
            capped_solves: 0,
            solves: 0,
            solutions: Vec::new(),
        };
        for _ in 0..n_slices {
            let mut o = iter.next().expect("pool returns one outcome per group");
            bundle.iterations += o.iterations;
            bundle.matvecs += o.matvecs;
            bundle.traversals += o.traversals;
            bundle.assemblies += o.assemblies;
            bundle.capped_solves += o.capped_solves;
            bundle.solves += o.solves;
            bundle.solutions.append(&mut o.solutions);
            bundle.slices.push(o);
        }
        out.push(bundle);
    }
    out
}
