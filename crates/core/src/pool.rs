//! Step 1 of the method: the pooled round — the **one** road from a solve
//! entry point to the BiCG kernel.
//!
//! The contour quadrature of one [`QepProblem`] needs the solutions of
//! `N_int x N_rh` independent linear systems `P(z_j) y = v_r` (plus their
//! duals, which serve the inner circle for free).  [`solve_qeps_with`]
//! takes several problems at once — the scan energies of a sweep, or the
//! one problem of [`solve_qep_with`](crate::ss::solve_qep_with) — and,
//! instead of running them one after another (each dispatching its own
//! small batch), concatenates the jobs of **all** of them and dispatches
//! them in **one** batch through the [`TaskExecutor`] seam.  The returned
//! [`SsResults`] then extracts each problem's eigenpairs (steps 2–4) when
//! the caller takes its [`SsResult`], in problem order, so a driver that
//! saves after each problem holds the moments of the untaken ones only.
//!
//! A job is one quadrature node of one problem: it builds that node's
//! operator (and, under the ILU policy on blocks that are a real
//! stencil's views, its diagonal ILU) through [`QepProblem::node_solve`] under the
//! configuration's [`PrecondPolicy`], and advances
//! all of the problem's right-hand sides in lockstep through one call of
//! `cbs_solver::bicg_dual_block_precond`'s fused block matvecs, to the
//! configured tolerance or iteration cap.  With a diagonal ILU that call
//! runs BiCG on the system it splits (one row pass per apply, a stop on the
//! mapped true residual, then one true-residual certificate per node);
//! without one, on `P(z)` itself.  The columns whose split solve fails its
//! certificate (a zero pivot breaks them down at once, an unstable split
//! runs them to the cap) are solved again on `P(z)` alone, by a second call
//! over those columns of `V`: by the solver's column parity, bit for bit
//! the matrix-free policy's solves ([`SsResult::split_fallbacks`] counts
//! them).  A job drops its node's operator when it
//! returns — so at most one per worker is alive, and the pivots are
//! computed once per solved node, never per right-hand side.  The dispatch
//! therefore holds *solved nodes x problems* jobs; an executor wider than
//! that idles (the remedy, should a wide-machine workload ever show it, is
//! column tiles chosen from the executor's width inside this one job
//! runner, ROADMAP item 7(a)).
//!
//! Memory bound: a job's result is its node's `2·N_rh` solutions `x`, `x̃`
//! of length `n`, and the fold adds them into the moments and drops them.
//! Both executors stream the round, so the solutions alive at once are one
//! node's on the serial executor and at most `2·threads` nodes' on the
//! threaded one (`cbs_parallel`'s executor docs), never the round's
//! *solved nodes x problems*.
//!
//! Determinism contract: jobs are listed problem-major in node order,
//! executors fold results in input order, and each problem's moment
//! accumulator folds only its own nodes in that order, each node's columns
//! in rhs order (overall `j * N_rh + rhs`), on the calling thread — so the
//! accumulated moments (and everything extracted from them) are
//! bit-identical to solving each problem alone, on every executor.
//!
//! There is no load-balancing stop: the paper's majority-stop rule (cap the
//! slow nodes once more than half have converged) is not implemented.  It
//! capped nothing on the mirrored half ring every real Hamiltonian runs on,
//! and rarely anything on a full ring.

use cbs_linalg::{CVector, Complex64};
use cbs_parallel::TaskExecutor;
use cbs_solver::{bicg_dual_block_precond, BlockBicgResult, SolverOptions};
use cbs_sparse::StencilDilu;
use cbs_trace::TraceHandle;

use crate::contour::ContourError;
use crate::policy::PrecondPolicy;
use crate::qep::QepProblem;
use crate::ss::{extract_from_moments, MomentAccumulator, RingPlan, SsConfig, SsResult};

/// Solve the rings of all `problems` through a single flattened task pool,
/// each over `plan`'s nodes and source block; problem `i`'s solve spans
/// carry `trace`'s scan-energy index plus `i`
/// ([`TraceHandle::energy_offset`]).  Every node is solved to the tolerance
/// (or the iteration cap) of `config`'s
/// [`solver_options`](SsConfig::solver_options), under its
/// [`precond`](SsConfig::precond) policy.
///
/// Returns each problem's moments, in problem order.
pub(crate) fn solve_pool<E: TaskExecutor>(
    problems: &[QepProblem<'_>],
    plan: &RingPlan,
    trace: TraceHandle,
    config: &SsConfig,
    executor: &E,
) -> Vec<MomentAccumulator> {
    let (options, precond, v) = (config.solver_options(), config.precond, &plan.v_cols);
    let accs: Vec<MomentAccumulator> = problems.iter().map(|_| plan.accumulator()).collect();
    // One job per `(problem, node)`, problem-major in node order.
    let jobs: Vec<(usize, usize)> =
        (0..problems.len()).flat_map(|p| (0..plan.n_nodes()).map(move |j| (p, j))).collect();

    let run_job = |(p, j): (usize, usize)| {
        let _solve_span = trace.energy_offset(p).solve_scope(j);
        (p, j, solve_node(&problems[p], precond, plan.node_shift(j), v, &options))
    };

    // The fold runs on the calling thread in input (= job) order on every
    // executor.
    executor.execute_fold(jobs, run_job, accs, |mut accs, (p, j, (node, fallbacks))| {
        accs[p].split_fallbacks += fallbacks;
        accs[p].record(j, node, v);
        accs
    })
}

/// One job's solve: node `z` of `problem` for the source block `v` under
/// `precond`, by one call of the block dual BiCG (through the node's split
/// system when the policy splits it) and, for the columns that call did not
/// solve, one more on `P(z)` alone, spliced in (module docs).  Returns the
/// node's result and how many of its columns fell back.
pub(crate) fn solve_node(
    problem: &QepProblem<'_>,
    precond: PrecondPolicy,
    z: Complex64,
    v: &[CVector],
    options: &SolverOptions,
) -> (BlockBicgResult, usize) {
    let (op, prec) = problem.node_solve(precond, z);
    let mut node = bicg_dual_block_precond(&op, prec.as_ref(), v, v, None, options, None);
    let failed: Vec<usize> =
        (0..v.len()).filter(|&c| prec.is_some() && !node.columns[c].history.converged()).collect();
    if !failed.is_empty() {
        let rhs: Vec<CVector> = failed.iter().map(|&c| v[c].clone()).collect();
        let none = None::<&StencilDilu<'_>>;
        let again = bicg_dual_block_precond(&op, none, &rhs, &rhs, None, options, None);
        node.traversals += again.traversals;
        for (&c, mut col) in failed.iter().zip(again.columns) {
            col.history.matvecs += node.columns[c].history.matvecs;
            node.columns[c] = col;
        }
    }
    (node, failed.len())
}

/// Solve several QEPs — typically the scan energies of one Hamiltonian —
/// with the Sakurai-Sugiura method in one pooled round: step 1 of every
/// problem in a single dispatch through `executor`, then steps 2–4 of each
/// when its [`SsResult`] is taken from the returned [`SsResults`], in
/// problem order.
///
/// Problem `i`'s result is bit for bit its
/// [`solve_qep_with`](crate::ss::solve_qep_with), which is this function's
/// one-problem call, on every executor.  Its stage spans carry the calling
/// thread's scan-energy index plus `i`, and no energy index when the thread
/// has none installed.  An empty `problems` solves nothing.
///
/// # Errors
///
/// [`ContourError`] for invalid contour parameters in `config`; nothing is
/// solved then.
///
/// # Panics
///
/// When the problems do not all share one dimension and one
/// [`is_conjugate_symmetric`](QepProblem::is_conjugate_symmetric): one
/// source block and one node list serve the whole round.
pub fn solve_qeps_with<'p, 'a, E: TaskExecutor>(
    problems: &'p [QepProblem<'a>],
    config: &SsConfig,
    executor: &E,
) -> Result<SsResults<'p, 'a>, ContourError> {
    let plan = RingPlan::build(problems, config)?;
    // Resolved against the active session (a no-op handle when none is
    // recording), inheriting the calling thread's context.
    let trace = TraceHandle::resolve();
    let t_solve = cbs_trace::now_ns();
    let moments = solve_pool(problems, &plan, trace, config, executor);
    let linear_solve_seconds = cbs_trace::seconds_between(t_solve, cbs_trace::now_ns());
    Ok(SsResults {
        problems,
        config: *config,
        moments: moments.into_iter(),
        trace,
        linear_solve_seconds,
    })
}

/// The results of one [`solve_qeps_with`] round, one [`SsResult`] per
/// problem in problem order.  Each is extracted when it is taken, and the
/// problem's moments are dropped with it: the untaken problems' moments
/// are all the round still holds.
pub struct SsResults<'p, 'a> {
    problems: &'p [QepProblem<'a>],
    config: SsConfig,
    moments: std::vec::IntoIter<MomentAccumulator>,
    trace: TraceHandle,
    linear_solve_seconds: f64,
}

impl SsResults<'_, '_> {
    /// Wall seconds of the round's one pool dispatch, step 1 of every
    /// problem at once.  Every result's
    /// [`linear_solve_seconds`](crate::ss::SsTimings::linear_solve_seconds)
    /// is this same figure.
    pub fn linear_solve_seconds(&self) -> f64 {
        self.linear_solve_seconds
    }
}

impl Iterator for SsResults<'_, '_> {
    type Item = SsResult;

    fn next(&mut self) -> Option<SsResult> {
        let i = self.problems.len() - self.moments.len();
        let acc = self.moments.next()?;
        let _trace_ctx = self.trace.energy_offset(i).enter();
        let (problem, seconds) = (&self.problems[i], self.linear_solve_seconds);
        Some(extract_from_moments(problem, &self.config, acc, seconds))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::policy::PrecondPolicy;
    use crate::ss::solve_qep_with;
    use cbs_linalg::{c64, CMatrix, CVector, Complex64};
    use cbs_parallel::{RayonExecutor, SerialExecutor};
    use cbs_solver::ConvergenceHistory;
    use cbs_solver::StopReason;
    use cbs_sparse::{CooBuilder, CsrMatrix, DenseOp, LinearOperator, LowRankOp, RealStencil};
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
            n_mm: 2,
            n_rh,
            bicg_tolerance: 1e-11,
            precond: PrecondPolicy::MatrixFree,
            ..SsConfig::paper()
        }
    }

    /// What one single-ring problem produced: the pool's accumulated
    /// moments, and their extraction (for the per-solve histories, the
    /// projected moments and the work counters).
    struct Ring {
        moments: (Vec<CVector>, Vec<CMatrix>),
        result: SsResult,
    }

    /// A pool's moments, read off before the extraction takes them.
    fn ring_of(qep: &QepProblem<'_>, config: &SsConfig, acc: MomentAccumulator) -> Ring {
        let moments = acc.stored();
        Ring { moments, result: extract_from_moments(qep, config, acc, 0.0) }
    }

    /// The pool's moments for the one problem `qep` over `plan`.
    fn pool_one<E: TaskExecutor>(
        qep: &QepProblem<'_>,
        config: &SsConfig,
        plan: &RingPlan,
        executor: &E,
    ) -> MomentAccumulator {
        let qeps = std::slice::from_ref(qep);
        solve_pool(qeps, plan, TraceHandle::disabled(), config, executor)
            .pop()
            .expect("one outcome per problem")
    }

    /// One single-ring problem through the pool.
    fn run_ring<E: TaskExecutor>(qep: &QepProblem<'_>, config: &SsConfig, executor: &E) -> Ring {
        let plan = RingPlan::build(std::slice::from_ref(qep), config).unwrap();
        assert!(!qep.is_conjugate_symmetric(), "these tests solve every node of the ring");
        ring_of(qep, config, pool_one(qep, config, &plan, executor))
    }

    fn assert_bitwise_eq(a: &Ring, b: &Ring) {
        assert_eq!(a.moments, b.moments, "moments must be bit-identical");
        assert_same_result(&a.result, &b.result);
    }

    /// Two results of one problem are the same bit for bit: moments,
    /// eigenpairs, histories and work counters.
    fn assert_same_result(a: &SsResult, b: &SsResult) {
        assert_eq!(a.projected_moments, b.projected_moments);
        assert_eq!(a.eigenpairs.len(), b.eigenpairs.len());
        for (p, q) in a.eigenpairs.iter().zip(&b.eigenpairs) {
            assert_eq!((p.lambda, &p.psi), (q.lambda, &q.psi));
            assert_eq!(p.residual.to_bits(), q.residual.to_bits());
        }
        assert_eq!(a.solve_histories.len(), b.solve_histories.len());
        for (ha, hb) in a.solve_histories.iter().zip(&b.solve_histories) {
            assert_eq!(ha.residuals, hb.residuals);
            assert_eq!((ha.stop_reason, ha.matvecs), (hb.stop_reason, hb.matvecs));
        }
        let counters = |r: &SsResult| {
            [r.total_bicg_iterations, r.total_matvecs, r.total_traversals, r.split_fallbacks]
        };
        assert_eq!(counters(a), counters(b));
    }

    /// The node `j` of `plan` solved by one call of the block dual BiCG,
    /// with the node's diagonal ILU under the ILU policy.
    pub(crate) fn one_node(
        qep: &QepProblem<'_>,
        config: &SsConfig,
        plan: &RingPlan,
        j: usize,
    ) -> BlockBicgResult {
        let (v, opts) = (&plan.v_cols, config.solver_options());
        let (op, prec) = qep.node_solve(config.precond, plan.node_shift(j));
        bicg_dual_block_precond(&op, prec.as_ref(), v, v, None, &opts, None)
    }

    #[test]
    fn outcomes_fold_in_job_order() {
        let (h00, h01) = dense_blocks(12, 31);
        let qep = QepProblem::new(&h00, &h01, 0.1, 1.0);
        let cfg = config(6, 3);
        let ring = run_ring(&qep, &cfg, &SerialExecutor);
        let r = &ring.result;
        let (iterations, matvecs) = (r.total_bicg_iterations, r.total_matvecs);
        let traversals = r.total_traversals - r.extraction_matvecs;
        assert_eq!(ring.result.solve_histories.len(), 6 * 3);
        // The pool's moments are the fold, in job order `j * N_rh + r`, of
        // each node's own block solve: node `j`, right-hand side `r` solves
        // `P(z_j) x = v_r`, and its dual the adjoint system.
        let plan = RingPlan::build(std::slice::from_ref(&qep), &cfg).unwrap();
        let mut acc = plan.accumulator();
        for j in 0..plan.n_nodes() {
            let op = qep.operator(plan.node_shift(j));
            let node = one_node(&qep, &cfg, &plan, j);
            for (col, rhs) in node.columns.iter().zip(&plan.v_cols) {
                let (x, dual_x) = (&col.x, &col.dual_x);
                assert!((&op.apply_vec(x) - rhs).norm() <= 1e-9 * rhs.norm(), "node {j}");
                assert!((&op.apply_adjoint_vec(dual_x) - rhs).norm() <= 1e-9 * rhs.norm());
            }
            acc.record(j, node, &plan.v_cols);
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

    /// Two problems (two "scan energies") through one round: each comes out
    /// bit-identical to its own `solve_qep_with`, and the results are
    /// taken in problem order.
    #[test]
    fn problems_are_independent_of_their_round_mates() {
        let (h00, h01) = dense_blocks(16, 46);
        let cfg = config(8, 3);
        let problems =
            [QepProblem::new(&h00, &h01, 0.1, 1.0), QepProblem::new(&h00, &h01, 0.4, 1.0)];
        let round = solve_qeps_with(&problems, &cfg, &RayonExecutor).unwrap();
        assert!(round.linear_solve_seconds() >= 0.0);
        let results: Vec<SsResult> = round.collect();
        assert_eq!(results.len(), 2);
        for (qep, together) in problems.iter().zip(&results) {
            assert_same_result(&solve_qep_with(qep, &cfg, &SerialExecutor), together);
        }
        assert_eq!(solve_qeps_with(&[], &cfg, &SerialExecutor).unwrap().count(), 0);
        let bad = SsConfig { n_int: 0, ..cfg };
        assert!(solve_qeps_with(&problems, &bad, &SerialExecutor).is_err());
    }

    /// One source block and one node list serve a round, so its problems
    /// must agree on both.
    #[test]
    #[should_panic(expected = "share dimension and conjugate symmetry")]
    fn a_round_refuses_problems_of_another_symmetry() {
        let (h00, h01) = dense_blocks(8, 47);
        let pencil = chain_pencil(8);
        let (s00, s01) = (pencil.h00(), pencil.h01());
        let problems =
            [QepProblem::new(&h00, &h01, 0.1, 1.0), QepProblem::new(&s00, &s01, 0.1, 1.0)];
        let _ = solve_qeps_with(&problems, &config(4, 2), &SerialExecutor);
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

    /// One road under the ILU policy: per node, one [`solve_node`] folded as
    /// the pool folds them is the pool's solve bit for bit (moments,
    /// eigenpairs, histories, matvecs, traversals and fallbacks) on both
    /// executors.  Each of its columns is the split's solve where that
    /// converged, and otherwise that column's matrix-free solve, bit for bit
    /// (column parity), with the split attempt's matvecs added; each such
    /// column is one fallback.  At `E = 1.0` every split solve converges,
    /// and under a cap of 14 iterations only some do.  At `E = 1.5` the
    /// chain's second D-ILU pivot, `(E − 2.5) − 1/(E − 2.5)`, is exactly
    /// zero at every node, and it is kept: the split of every right-hand
    /// side is not finite, so each split column breaks down before its
    /// first iteration (the certificate's 2 matvecs) and all 48 fall back.
    #[test]
    fn every_failed_split_solve_is_solved_again_matrix_free() {
        let pencil = chain_pencil(12);
        let (h00, h01) = (pencil.h00(), pencil.h01());
        for (energy, cap, fallbacks) in
            [(1.0, 20_000, Some(0)), (1.0, 14, None), (1.5, 300, Some(48))]
        {
            let qep = QepProblem::new(&h00, &h01, energy, 1.0);
            let config = |precond| SsConfig {
                n_mm: 4,
                bicg_tolerance: 1e-10,
                bicg_max_iterations: cap,
                precond,
                ..config(16, 6)
            };
            let (ilu, mf) =
                (config(PrecondPolicy::AssembledIlu0), config(PrecondPolicy::MatrixFree));
            let plan = RingPlan::build(std::slice::from_ref(&qep), &ilu).unwrap();
            let (v, opts) = (&plan.v_cols, ilu.solver_options());
            let mut by_node = plan.accumulator();
            for j in 0..plan.n_nodes() {
                let (node, fell_back) = solve_node(&qep, ilu.precond, plan.node_shift(j), v, &opts);
                let (split, alone) =
                    (one_node(&qep, &ilu, &plan, j), one_node(&qep, &mf, &plan, j));
                let mut failed = 0;
                for ((col, s), m) in node.columns.iter().zip(&split.columns).zip(&alone.columns) {
                    let h = &s.history;
                    let broke =
                        (h.stop_reason, h.iterations(), h.matvecs) == (StopReason::Breakdown, 0, 2);
                    assert!(broke || energy != 1.5, "node {j}: the split ran");
                    let (record, attempt) = if h.converged() { (s, 0) } else { (m, h.matvecs) };
                    failed += usize::from(!h.converged());
                    assert_eq!((&col.x, &col.dual_x), (&record.x, &record.dual_x), "node {j}");
                    assert_eq!(col.history.residuals, record.history.residuals, "node {j}");
                    assert_eq!(col.history.matvecs, record.history.matvecs + attempt, "node {j}");
                }
                assert_eq!(fell_back, failed, "E {energy} node {j}");
                by_node.split_fallbacks += fell_back;
                by_node.record(j, node, v);
            }
            let by_node = ring_of(&qep, &ilu, by_node);
            let (count, result) = (by_node.result.split_fallbacks, &by_node.result);
            let expected = fallbacks.map_or(0 < count && count < 48, |k| count == k);
            assert!(expected, "E {energy}, cap {cap}: {count} of 48 fell back");
            assert!(result.solve_histories.iter().all(ConvergenceHistory::converged) || cap == 14);
            assert!(!result.eigenpairs.is_empty(), "E {energy}: no eigenpairs");
            let serial = ring_of(&qep, &ilu, pool_one(&qep, &ilu, &plan, &SerialExecutor));
            assert_bitwise_eq(&by_node, &serial);
            let rayon = ring_of(&qep, &ilu, pool_one(&qep, &ilu, &plan, &RayonExecutor));
            assert_bitwise_eq(&by_node, &rayon);
            assert_same_result(&by_node.result, &solve_qep_with(&qep, &ilu, &RayonExecutor));
        }
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
        let plan = RingPlan::build(std::slice::from_ref(&qep), &config).expect("valid contour");
        let serial = ring_of(&qep, &config, pool_one(&qep, &config, &plan, &SerialExecutor));
        assert!(qep.real_stencil().is_some(), "stencil views: the split route runs");

        // Every node, solved on its own as the pool solves it, converges and
        // meets the tolerance in the true residual, recomputed here with the
        // problem's own operator — some of its columns past an iteration
        // where both split residuals already met it ...
        let (tol, opts, v) = (config.bicg_tolerance, config.solver_options(), &plan.v_cols);
        let mut per_node = Vec::new();
        let mut early = 0;
        for j in 0..plan.n_nodes() {
            let z = plan.node_shift(j);
            let (op, prec) = qep.node_solve(config.precond, z);
            let Some(m) = &prec else { panic!("node {j} does not split") };
            let solved = bicg_dual_block_precond(&op, Some(m), v, v, None, &opts, None);
            let truth = qep.operator(z);
            for (r, col) in solved.columns.into_iter().enumerate() {
                let b = &v[r];
                let primal = (&truth.apply_vec(&col.x) - b).norm() / b.norm();
                let dual = (&truth.apply_adjoint_vec(&col.dual_x) - b).norm() / b.norm();
                assert!(col.history.converged(), "node {j} rhs {r}");
                assert!(
                    primal <= tol && dual <= tol,
                    "node {j} rhs {r}: {primal:.2e} / {dual:.2e}"
                );
                let split = &col.history.residuals;
                early += usize::from(split[..split.len() - 1].iter().any(|&res| res <= tol));
                per_node.push(col.history);
            }
        }
        assert!(early > 0, "no split residual passed before the true one");

        // ... and is the solve the pool ran, bit for bit, with its history
        // ending on that residual.
        let result = &serial.result;
        assert!(result.solve_histories.iter().all(|h| h.converged() && h.final_residual() <= tol));
        assert_eq!(result.solve_histories.len(), per_node.len(), "one record per solve run");
        for (pooled, alone) in result.solve_histories.iter().zip(&per_node) {
            assert_eq!(pooled.residuals, alone.residuals);
        }

        // Serial ≡ rayon, bitwise.
        let rayon = ring_of(&qep, &config, pool_one(&qep, &config, &plan, &RayonExecutor));
        assert_bitwise_eq(&serial, &rayon);
    }
}
