//! The operator-generic shifted-solve engine: step 1 of the Sakurai-Sugiura
//! method as a reusable, execution-agnostic component.
//!
//! The contour quadrature needs the solutions of `N_int x N_rh` independent
//! linear systems `P(z_j) y = v_r` (plus their duals, which serve the inner
//! circle for free) — or of half as many when the caller hands the engine
//! only the upper half-plane nodes of a conjugate-symmetric problem; the
//! engine solves the node list it is given and knows nothing of the
//! symmetry.  Those solves are the dominant cost of the whole method
//! and are embarrassingly parallel — the paper's top two parallel layers.
//! This module factors them out of the eigensolver:
//!
//! * [`ShiftedSolveEngine`] is generic over **what** is solved (any family
//!   of [`LinearOperator`]s indexed by the complex shift, built on demand by
//!   a factory closure — dense blocks, CSR, matrix-free stencils,
//!   domain-decomposed operators) and over **how** it is executed (any
//!   [`TaskExecutor`] from `cbs-parallel`: [`SerialExecutor`],
//!   [`cbs_parallel::RayonExecutor`], or future distributed backends).
//! * The paper's majority-stop load-balancing rule is preserved in a
//!   **deterministic two-stage form**: the first `N_int/2 + 1` quadrature
//!   points are always solved to convergence; if they all converge (the
//!   "majority converged" condition), the remaining points run with their
//!   iteration count capped at the worst converged count of the first
//!   stage.  Because the cap is derived only from completed first-stage
//!   results, the outcome is independent of scheduling — every executor
//!   produces bit-identical solutions, which
//!   `tests/determinism.rs` locks in.
//! * Per-solve [`ConvergenceHistory`] records survive the fan-out in job
//!   order `j * N_rh + r` (outer point `j`, right-hand side `r`), exactly
//!   the layout the Figure 5 reporting expects.

use std::sync::OnceLock;

use cbs_linalg::{CVector, Complex64};
use cbs_parallel::{SerialExecutor, TaskExecutor};
use cbs_solver::{
    bicg_dual_block_precond, bicg_dual_precond_seeded, ConvergenceHistory, SolverOptions,
};
use cbs_sparse::{LinearOperator, Preconditioner};
use cbs_trace::TraceHandle;
use serde::{Deserialize, Serialize};

use crate::contour::QuadraturePoint;

/// Crate-private type-level placeholder instantiating the unpreconditioned
/// [`ShiftedSolveEngine::solve_fold`] path through
/// [`solve_fold_precond`](ShiftedSolveEngine::solve_fold_precond).  Only
/// ever passed as `None`, so the methods are genuinely unreachable — and it
/// is deliberately *not* exported, so no caller can hand the solvers a
/// `Some(&NoPrecond)` expecting identity behaviour.
struct NoPrecond;

impl Preconditioner for NoPrecond {
    fn dim(&self) -> usize {
        unreachable!("NoPrecond is never instantiated")
    }
    fn solve(&self, _r: &[Complex64], _z: &mut [Complex64]) {
        unreachable!("NoPrecond is never instantiated")
    }
    fn solve_adjoint(&self, _r: &[Complex64], _z: &mut [Complex64]) {
        unreachable!("NoPrecond is never instantiated")
    }
}

/// Granularity of the shifted-solve jobs the engine hands to its
/// [`TaskExecutor`].
///
/// Both policies produce **bit-identical results** (solutions, residual
/// histories, iteration and matvec counts): the per-node block solver
/// advances one independent BiCG recurrence per right-hand side whose
/// per-column arithmetic exactly matches the per-rhs solver, fused matvecs
/// included.  What changes is the work shape — [`PerNode`](Self::PerNode)
/// reads the operator storage once per iteration for all right-hand sides
/// (roughly an `N_rh`-fold cut in operator traversals, reported via
/// [`ShiftedSolveStats::total_traversals`]) at the price of coarser jobs
/// for the executor (`N_int` instead of `N_int x N_rh`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockPolicy {
    /// One job per `(quadrature node, right-hand side)` pair: each job is a
    /// single-vector dual-BiCG solve.  Maximum executor parallelism,
    /// `N_rh` operator traversals per iteration set.
    PerRhs,
    /// One job per quadrature node: all `N_rh` right-hand sides advance in
    /// lockstep through `cbs_solver::bicg_dual_block` with fused block
    /// matvecs (converged columns deflate but keep their slots).
    #[default]
    PerNode,
}

impl BlockPolicy {
    /// Read the policy from an environment variable (mirrors
    /// `cbs_parallel::ExecutorChoice::from_env`): `"per-rhs"` / `"perrhs"`
    /// / `"rhs"` select [`PerRhs`](Self::PerRhs), `"per-node"` selects
    /// [`PerNode`](Self::PerNode); unset keeps the default and a malformed
    /// value warns once and does the same (via [`cbs_trace::knob()`]).
    pub fn from_env(var: &str) -> Self {
        cbs_trace::knob(var).unwrap_or_default()
    }

    /// Strictly parse a policy name (the `from_env` value syntax); `None`
    /// for unrecognized names.
    pub fn try_from_name(name: &str) -> Option<Self> {
        if name.eq_ignore_ascii_case("per-rhs")
            || name.eq_ignore_ascii_case("perrhs")
            || name.eq_ignore_ascii_case("rhs")
        {
            Some(Self::PerRhs)
        } else if name.eq_ignore_ascii_case("per-node")
            || name.eq_ignore_ascii_case("pernode")
            || name.eq_ignore_ascii_case("node")
        {
            Some(Self::PerNode)
        } else {
            None
        }
    }

    /// Parse a policy name (the `from_env` value syntax); unrecognized
    /// names fall back to the default [`PerNode`](Self::PerNode).
    pub fn from_name(name: &str) -> Self {
        Self::try_from_name(name).unwrap_or_default()
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::PerRhs => "per-rhs",
            Self::PerNode => "per-node",
        }
    }

    /// Decode the serialized discriminant (checkpoint format): 0 =
    /// per-rhs, 1 = per-node; `None` otherwise.
    pub fn from_index(index: u64) -> Option<Self> {
        match index {
            0 => Some(Self::PerRhs),
            1 => Some(Self::PerNode),
            _ => None,
        }
    }
}

impl cbs_trace::Knob for BlockPolicy {
    fn parse_knob(value: &str) -> Option<Self> {
        Self::try_from_name(value)
    }
}

/// How the shifted operator `P(z)` is represented — and whether its solves
/// are preconditioned.
///
/// Unlike [`BlockPolicy`], the policies are **not** bitwise-interchangeable:
/// the assembled operator sums the three Hamiltonian contributions per entry
/// (instead of per application) and ILU(0) changes the Krylov trajectory
/// entirely.  What every policy preserves is the solution contract (relative
/// residual ≤ tolerance) and serial ≡ rayon bit-identity *within* the
/// policy; the [`MatrixFree`](Self::MatrixFree) path is bitwise unchanged
/// from before this knob existed.
///
/// `PrecondPolicy::default()` (and the `CBS_PRECOND` fallback) stays
/// [`MatrixFree`](Self::MatrixFree) — the historical baseline that old
/// checkpoints and unset env knobs resolve to.  `SsConfig::default()`
/// however selects [`Assembled`](Self::Assembled): every assembled row of
/// the tracked sweep bench beats matrix-free wall-clock (see
/// `BENCH_sweep.json`), and problems without an attached pattern fall back
/// to matrix-free bitwise-unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrecondPolicy {
    /// Apply `P(z)` matrix-free (three storage traversals per application:
    /// `H₀₀`, `H₀₁`, `H₀₁†`), unpreconditioned.  The historical default.
    #[default]
    MatrixFree,
    /// Materialize `P(z)` once per quadrature node as a single CSR by
    /// numeric refill of the shared `cbs_sparse::AssembledPattern` — one
    /// storage traversal per application — still unpreconditioned.
    Assembled,
    /// The assembled operator plus a complex ILU(0) factorization per node,
    /// applied as a preconditioner on both the primal (`M⁻¹`) and dual
    /// (`M⁻†`, i.e. the `P(1/z̄)` side) recurrences — the iteration-count
    /// lever on top of the traversal lever.
    AssembledIlu0,
    /// [`AssembledIlu0`](Self::AssembledIlu0) completed by a
    /// Sherman-Morrison-Woodbury correction for the factored low-rank
    /// projector tail (`cbs_sparse::SmwPrecond`): the preconditioner
    /// approximates the *full* `P(z)` instead of only its assembled CSR
    /// part.  Falls back to plain [`AssembledIlu0`](Self::AssembledIlu0)
    /// bitwise when no projector is attached (rank 0) or the capacitance
    /// matrix is singular.  Appended last so existing checkpoint
    /// fingerprints (which fold in the discriminant) are unchanged.
    AssembledIlu0Smw,
}

impl PrecondPolicy {
    /// Read the policy from an environment variable (mirrors
    /// [`BlockPolicy::from_env`]): `"assembled"` / `"asm"` select
    /// [`Assembled`](Self::Assembled), `"assembled-ilu0"` / `"ilu0"` /
    /// `"ilu"` select [`AssembledIlu0`](Self::AssembledIlu0); unset keeps
    /// the [`MatrixFree`](Self::MatrixFree) env fallback and a malformed
    /// value warns once and does the same (via [`cbs_trace::knob()`]).
    pub fn from_env(var: &str) -> Self {
        cbs_trace::knob(var).unwrap_or(Self::MatrixFree)
    }

    /// Strictly parse a policy name (the `from_env` value syntax); `None`
    /// for unrecognized names.
    pub fn try_from_name(name: &str) -> Option<Self> {
        if name.eq_ignore_ascii_case("assembled-ilu0-smw")
            || name.eq_ignore_ascii_case("assembled_ilu0_smw")
            || name.eq_ignore_ascii_case("ilu0-smw")
            || name.eq_ignore_ascii_case("ilu0_smw")
            || name.eq_ignore_ascii_case("smw")
        {
            Some(Self::AssembledIlu0Smw)
        } else if name.eq_ignore_ascii_case("assembled-ilu0")
            || name.eq_ignore_ascii_case("assembled_ilu0")
            || name.eq_ignore_ascii_case("ilu0")
            || name.eq_ignore_ascii_case("ilu")
        {
            Some(Self::AssembledIlu0)
        } else if name.eq_ignore_ascii_case("assembled") || name.eq_ignore_ascii_case("asm") {
            Some(Self::Assembled)
        } else if name.eq_ignore_ascii_case("matrix-free")
            || name.eq_ignore_ascii_case("matrixfree")
            || name.eq_ignore_ascii_case("mf")
        {
            Some(Self::MatrixFree)
        } else {
            None
        }
    }

    /// Parse a policy name (the `from_env` value syntax); unrecognized
    /// names fall back to the default [`MatrixFree`](Self::MatrixFree).
    pub fn from_name(name: &str) -> Self {
        Self::try_from_name(name).unwrap_or(Self::MatrixFree)
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::MatrixFree => "matrix-free",
            Self::Assembled => "assembled",
            Self::AssembledIlu0 => "assembled-ilu0",
            Self::AssembledIlu0Smw => "assembled-ilu0-smw",
        }
    }

    /// `true` for the policies that materialize the assembled CSR.
    pub fn is_assembled(self) -> bool {
        !matches!(self, Self::MatrixFree)
    }

    /// The policy's code in trace span contexts — the
    /// [`cbs_trace::policy_name`] contract: 0 = matrix-free, 1 = assembled,
    /// 2 = assembled-ilu0, 3 = assembled-ilu0-smw.
    pub fn trace_code(self) -> u8 {
        match self {
            Self::MatrixFree => 0,
            Self::Assembled => 1,
            Self::AssembledIlu0 => 2,
            Self::AssembledIlu0Smw => 3,
        }
    }

    /// Decode the serialized discriminant (checkpoint format; same codes
    /// as [`trace_code`](Self::trace_code)); `None` for unknown values.
    pub fn from_index(index: u64) -> Option<Self> {
        match index {
            0 => Some(Self::MatrixFree),
            1 => Some(Self::Assembled),
            2 => Some(Self::AssembledIlu0),
            3 => Some(Self::AssembledIlu0Smw),
            _ => None,
        }
    }
}

impl cbs_trace::Knob for PrecondPolicy {
    fn parse_knob(value: &str) -> Option<Self> {
        Self::try_from_name(value)
    }
}

/// Supplies warm-start initial guesses for the shifted solves — the
/// engine-side half of the energy-sweep cross-energy reuse seam (the solver
/// half is `cbs_solver::bicg_dual_seeded`).
///
/// A provider returns, for the job at quadrature point `point_index` and
/// right-hand side `rhs_index`, an optional `(x₀, x̃₀)` pair: typically the
/// primal/dual solutions of the *same* job at a neighbouring scan energy,
/// whose operator differs only by `(E' - E) I`.  Returning `None` runs the
/// solve cold.  Providers must be pure functions of the job index so that
/// every [`TaskExecutor`] sees the same seeds (determinism).
pub trait SeedProvider: Sync {
    /// The initial guess for job `(point_index, rhs_index)`, if any.
    fn seed(&self, point_index: usize, rhs_index: usize) -> Option<(&CVector, &CVector)>;
}

/// A [`SeedProvider`] backed by a dense `N_int x N_rh` table of solution
/// pairs stored in job order (`point_index * n_rh + rhs_index`) — the layout
/// [`ShiftedSolveReport::outcomes`] comes back in, so one contour sweep's
/// solutions can directly seed the next.
pub struct StoredSeeds {
    n_rh: usize,
    pairs: Vec<Option<(CVector, CVector)>>,
}

impl StoredSeeds {
    /// An empty table (all solves run cold) for `n_int * n_rh` jobs.
    pub fn empty(n_int: usize, n_rh: usize) -> Self {
        let mut pairs = Vec::new();
        pairs.resize_with(n_int * n_rh, || None);
        Self { n_rh, pairs }
    }

    /// Build the table from a previous sweep's outcomes.
    pub fn from_outcomes(n_int: usize, n_rh: usize, outcomes: &[ShiftedSolveOutcome]) -> Self {
        let mut seeds = Self::empty(n_int, n_rh);
        for o in outcomes {
            seeds.set(o.point_index, o.rhs_index, o.x.clone(), o.dual_x.clone());
        }
        seeds
    }

    /// Store the seed pair for one job.
    pub fn set(&mut self, point_index: usize, rhs_index: usize, x: CVector, dual_x: CVector) {
        self.pairs[point_index * self.n_rh + rhs_index] = Some((x, dual_x));
    }
}

impl SeedProvider for StoredSeeds {
    fn seed(&self, point_index: usize, rhs_index: usize) -> Option<(&CVector, &CVector)> {
        self.pairs
            .get(point_index * self.n_rh + rhs_index)
            .and_then(|p| p.as_ref())
            .map(|(x, xt)| (x, xt))
    }
}

/// One shifted-solve job: outer-circle quadrature point x right-hand side.
#[derive(Clone, Copy, Debug)]
pub struct ShiftedSolveJob {
    /// The outer-circle quadrature point `z_j^(1)`.
    pub point: QuadraturePoint,
    /// Index of the right-hand side column of `V`.
    pub rhs_index: usize,
}

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

/// Everything produced by one contour sweep of the engine.
#[derive(Clone, Debug)]
pub struct ShiftedSolveReport {
    /// One outcome per job, ordered `j * N_rh + rhs_index`.
    pub outcomes: Vec<ShiftedSolveOutcome>,
    /// Quadrature points whose primal *and* dual systems all converged.
    pub converged_points: usize,
    /// Number of solves that ran under the majority-stop iteration cap.
    pub capped_solves: usize,
    /// The iteration cap applied to the second stage, when the rule fired.
    pub iteration_cap: Option<usize>,
    /// Operator-storage traversals actually performed (each fused block
    /// apply counts one); see [`ShiftedSolveStats::total_traversals`].
    pub operator_traversals: usize,
}

impl ShiftedSolveReport {
    /// Total BiCG iterations over all solves.
    pub fn total_iterations(&self) -> usize {
        self.outcomes.iter().map(|o| o.history.iterations()).sum()
    }

    /// Total operator applications over all solves.
    pub fn total_matvecs(&self) -> usize {
        self.outcomes.iter().map(|o| o.history.matvecs).sum()
    }
}

/// Aggregate convergence statistics of one contour sweep, returned by
/// [`ShiftedSolveEngine::solve_fold`] alongside the caller's accumulator.
#[derive(Clone, Copy, Debug)]
pub struct ShiftedSolveStats {
    /// Quadrature points whose primal *and* dual systems all converged.
    pub converged_points: usize,
    /// Number of solves that ran under the majority-stop iteration cap.
    pub capped_solves: usize,
    /// The iteration cap applied to the second stage, when the rule fired.
    pub iteration_cap: Option<usize>,
    /// Total BiCG iterations over all solves.
    pub total_iterations: usize,
    /// Total operator applications over all solves (matvec-equivalents: the
    /// per-column work performed, identical under every [`BlockPolicy`]).
    pub total_matvecs: usize,
    /// Operator-storage traversals actually performed, each apply counting
    /// the operator's `traversal_weight` (3 for the matrix-free QEP
    /// operator, 1 for its assembled CSR form).  Under
    /// [`BlockPolicy::PerRhs`] every matvec is its own weighted traversal,
    /// so this equals [`total_matvecs`](Self::total_matvecs) x weight;
    /// under [`BlockPolicy::PerNode`] a fused block apply over any number
    /// of active columns counts one weighted traversal, cutting the figure
    /// by up to a further `N_rh`x.
    pub total_traversals: usize,
}

/// The engine: solves the shifted systems of a list of quadrature nodes —
/// the outer circle of a [`RingContour`](crate::RingContour), or the part of
/// it a `ContourSlice` lists — for a block of right-hand sides, through a
/// pluggable [`TaskExecutor`].
///
/// ```
/// use cbs_core::{RingContour, ShiftedSolveEngine};
/// use cbs_linalg::{c64, CMatrix, CVector};
/// use cbs_parallel::SerialExecutor;
/// use cbs_solver::SolverOptions;
/// use cbs_sparse::{DenseOp, ShiftedOp};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let mut a = CMatrix::random(8, 8, &mut rng);
/// for i in 0..8 {
///     a[(i, i)] += c64(8.0, 0.0);
/// }
/// let op = DenseOp::new(a);
/// let rhs = vec![CVector::random(8, &mut rng)];
/// let engine = ShiftedSolveEngine::new(&SerialExecutor, SolverOptions::default());
/// let nodes = RingContour::new(0.5, 8).outer_points();
/// let report = engine.solve(&nodes, &rhs, |z| ShiftedOp::new(&op, z));
/// assert_eq!(report.outcomes.len(), 8);
/// ```
pub struct ShiftedSolveEngine<'e, E: TaskExecutor> {
    executor: &'e E,
    options: SolverOptions,
    majority_stop: bool,
    block: BlockPolicy,
    seeds: Option<&'e dyn SeedProvider>,
    trace: TraceHandle,
}

impl Default for ShiftedSolveEngine<'static, SerialExecutor> {
    fn default() -> Self {
        ShiftedSolveEngine::new(&SerialExecutor, SolverOptions::default())
    }
}

impl<'e, E: TaskExecutor> ShiftedSolveEngine<'e, E> {
    /// Build an engine running on `executor` with the given solver options.
    pub fn new(executor: &'e E, options: SolverOptions) -> Self {
        Self {
            executor,
            options,
            majority_stop: false,
            block: BlockPolicy::default(),
            seeds: None,
            trace: TraceHandle::disabled(),
        }
    }

    /// Enable or disable the deterministic majority-stop rule: the first
    /// `n/2 + 1` nodes of the list run uncapped, the rest under the cap they
    /// set.  That split is the rule for a list of independent nodes; a
    /// caller whose list is the mirrored half of a ring — where every node
    /// belongs to the first stage, see
    /// `ContourSlice::majority_stage_nodes` — leaves the rule off.
    pub fn with_majority_stop(mut self, enabled: bool) -> Self {
        self.majority_stop = enabled;
        self
    }

    /// Select the job granularity (see [`BlockPolicy`]).  Results are
    /// bit-identical under both policies; only the work shape and the
    /// traversal count change.
    pub fn with_block_policy(mut self, policy: BlockPolicy) -> Self {
        self.block = policy;
        self
    }

    /// Warm-start the solves from the given [`SeedProvider`].
    ///
    /// Seeding changes the Krylov iterates (the solutions still satisfy the
    /// same tolerance) but not the execution contract: providers are pure
    /// functions of the job index, so serial and parallel executors remain
    /// bit-identical *to each other* for a fixed seed table.
    pub fn with_seed_hook(mut self, seeds: &'e dyn SeedProvider) -> Self {
        self.seeds = Some(seeds);
        self
    }

    /// Attach a [`TraceHandle`]: every solve opens a `solve` span tagged
    /// with its quadrature-node index (plus the handle's base context), and
    /// — at `TraceLevel::Iter` — per-iteration residual events.  Tracing
    /// never changes results: spans observe the solves, nothing reads them.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Name of the underlying executor (for reports).
    pub fn executor_name(&self) -> &'static str {
        self.executor.name()
    }

    /// Solve the `points.len() x N_rh` systems of the node list `points`
    /// (`points[i].index == i`) for the right-hand-side block `rhs`,
    /// retaining every solution.
    ///
    /// This materializes two solution vectors per system; callers that only
    /// reduce over the solutions (like the moment accumulation of
    /// `solve_qep`) should use [`solve_fold`](Self::solve_fold), which
    /// streams on the serial executor.
    pub fn solve<Op, F>(
        &self,
        points: &[QuadraturePoint],
        rhs: &[CVector],
        operator_at: F,
    ) -> ShiftedSolveReport
    where
        Op: LinearOperator + Send,
        F: Fn(Complex64) -> Op + Sync,
    {
        let (outcomes, stats) =
            self.solve_fold(points, rhs, operator_at, Vec::new(), |mut acc, outcome| {
                acc.push(outcome);
                acc
            });
        ShiftedSolveReport {
            outcomes,
            converged_points: stats.converged_points,
            capped_solves: stats.capped_solves,
            iteration_cap: stats.iteration_cap,
            operator_traversals: stats.total_traversals,
        }
    }

    /// Solve the systems of the node list and fold each
    /// [`ShiftedSolveOutcome`] into an accumulator **in job order**
    /// (`j * N_rh + rhs`), on the calling thread.
    ///
    /// `operator_at` builds the shifted operator `P(z)` for a quadrature
    /// node `z`; it is invoked **once per node** (the operator is cached
    /// and shared across that node's right-hand sides), so per-shift
    /// assemblies heavier than a view are not repeated per job.
    ///
    /// On the serial executor at most one outcome is alive at a time, so a
    /// reduction that keeps only the moments runs in the moments' memory —
    /// parallel executors buffer a stage of outcomes to restore the input
    /// order (space traded for concurrency).
    pub fn solve_fold<Op, F, A, G>(
        &self,
        points: &[QuadraturePoint],
        rhs: &[CVector],
        operator_at: F,
        init: A,
        fold: G,
    ) -> (A, ShiftedSolveStats)
    where
        Op: LinearOperator + Send,
        F: Fn(Complex64) -> Op + Sync,
        G: FnMut(A, ShiftedSolveOutcome) -> A,
    {
        self.solve_fold_precond(points, rhs, |z| (operator_at(z), None::<NoPrecond>), init, fold)
    }

    /// [`solve_fold`](Self::solve_fold) with a per-node preconditioner: the
    /// factory returns `(P(z), Option<M>)` per quadrature node, and every
    /// solve of that node runs the preconditioned dual BiCG
    /// (`cbs_solver::bicg_dual_precond_seeded` /
    /// `cbs_solver::bicg_dual_block_precond`).  A factory that always
    /// returns `None` is bit-identical to [`solve_fold`](Self::solve_fold)
    /// — which is in fact implemented as exactly that.
    ///
    /// Like the operator, the preconditioner is built **once per node** and
    /// shared across that node's right-hand sides, so an ILU(0)
    /// factorization is paid once per solved node, not once per
    /// `(node, rhs)` job.
    ///
    /// The node list (`points[i].index == i`) is the outer circle of a
    /// ring (`RingContour::outer_points`), or whatever
    /// `ContourSlice::primal_points` lists — for a conjugate-symmetric
    /// problem only the upper half-plane nodes.  The engine solves what it
    /// is given; it does not know about the symmetry.
    pub fn solve_fold_precond<Op, M, F, A, G>(
        &self,
        points: &[QuadraturePoint],
        rhs: &[CVector],
        operator_at: F,
        init: A,
        mut fold: G,
    ) -> (A, ShiftedSolveStats)
    where
        Op: LinearOperator + Send,
        M: Preconditioner + Send + Sync,
        F: Fn(Complex64) -> (Op, Option<M>) + Sync,
        G: FnMut(A, ShiftedSolveOutcome) -> A,
    {
        let n_int = points.len();
        let n_rh = rhs.len();

        // One operator (+ optional preconditioner) per quadrature node.
        // Under `PerRhs` the node's jobs share a cell, filled by whichever
        // of them runs first (`LinearOperator: Sync`) and alive until the
        // contour is folded.  Under `PerNode` the node *is* the job: the
        // pair is built inside it and dropped when it returns, so at most
        // one `(P(z), ILU)` per worker is alive — not `N_int` of them.
        let op_cells: Vec<OnceLock<(Op, Option<M>)>> = match self.block {
            BlockPolicy::PerRhs => (0..n_int).map(|_| OnceLock::new()).collect(),
            BlockPolicy::PerNode => Vec::new(),
        };

        let run_job = |job: ShiftedSolveJob, cap: Option<usize>| -> (ShiftedSolveOutcome, usize) {
            let _solve_span = self.trace.solve_scope(job.point.index);
            let (op, prec) = op_cells[job.point.index].get_or_init(|| operator_at(job.point.z));
            let v = &rhs[job.rhs_index];
            let stop_at = cap.map(|c| c.max(1));
            let stop_cb = move |iter: usize| stop_at.is_some_and(|c| iter >= c);
            let external: Option<&(dyn Fn(usize) -> bool + Sync)> =
                if stop_at.is_some() { Some(&stop_cb) } else { None };
            let seed = self.seeds.and_then(|s| s.seed(job.point.index, job.rhs_index));
            let res =
                bicg_dual_precond_seeded(op, prec.as_ref(), v, v, seed, &self.options, external);
            let traversals = res.history.matvecs * op.traversal_weight();
            (
                ShiftedSolveOutcome {
                    point_index: job.point.index,
                    rhs_index: job.rhs_index,
                    x: res.x,
                    dual_x: res.dual_x,
                    history: res.history,
                    dual_history: res.dual_history,
                },
                traversals,
            )
        };

        // One *block* job per quadrature node: all right-hand sides advance
        // in lockstep through fused block matvecs; outcomes come back in
        // rhs order, so the overall fold order (`j * N_rh + rhs`) is the
        // same as under `PerRhs`.
        let run_node =
            |point: QuadraturePoint, cap: Option<usize>| -> (Vec<ShiftedSolveOutcome>, usize) {
                let _solve_span = self.trace.solve_scope(point.index);
                let (op, prec) = &operator_at(point.z);
                let stop_at = cap.map(|c| c.max(1));
                let stop_cb = move |iter: usize| stop_at.is_some_and(|c| iter >= c);
                let external: Option<&(dyn Fn(usize) -> bool + Sync)> =
                    if stop_at.is_some() { Some(&stop_cb) } else { None };
                let seed_vec: Vec<Option<(&CVector, &CVector)>> =
                    (0..n_rh).map(|r| self.seeds.and_then(|s| s.seed(point.index, r))).collect();
                let res = bicg_dual_block_precond(
                    op,
                    prec.as_ref(),
                    rhs,
                    rhs,
                    Some(&seed_vec),
                    &self.options,
                    external,
                );
                let traversals = res.traversals;
                let outcomes = res
                    .columns
                    .into_iter()
                    .enumerate()
                    .map(|(rhs_index, col)| ShiftedSolveOutcome {
                        point_index: point.index,
                        rhs_index,
                        x: col.x,
                        dual_x: col.dual_x,
                        history: col.history,
                        dual_history: col.dual_history,
                    })
                    .collect();
                (outcomes, traversals)
            };

        // Convergence bookkeeping, updated inside the fold wrapper (which
        // runs on the calling thread, in job order, for every executor).
        let mut tracking = ConvergenceTracking::new(n_int);

        // One majority-stop stage over `points` with a fixed cap, at the
        // configured job granularity.  Takes its mutable state explicitly
        // so the borrows end with each stage.
        let run_stage = |points: &[QuadraturePoint],
                         cap: Option<usize>,
                         acc: A,
                         tracking: &mut ConvergenceTracking,
                         fold: &mut G|
         -> A {
            match self.block {
                BlockPolicy::PerRhs => {
                    let jobs: Vec<ShiftedSolveJob> = points
                        .iter()
                        .flat_map(|&point| {
                            (0..n_rh).map(move |rhs_index| ShiftedSolveJob { point, rhs_index })
                        })
                        .collect();
                    self.executor.execute_fold(
                        jobs,
                        |job| run_job(job, cap),
                        acc,
                        |acc, (o, traversals)| {
                            tracking.total_traversals += traversals;
                            tracking.record(&o);
                            fold(acc, o)
                        },
                    )
                }
                BlockPolicy::PerNode => self.executor.execute_fold(
                    points.to_vec(),
                    |point| run_node(point, cap),
                    acc,
                    |acc, (outcomes, traversals)| {
                        tracking.total_traversals += traversals;
                        outcomes.into_iter().fold(acc, |acc, o| {
                            tracking.record(&o);
                            fold(acc, o)
                        })
                    },
                ),
            }
        };

        let (acc, cap, capped_solves) = if !self.majority_stop {
            (run_stage(points, None, init, &mut tracking, &mut fold), None, 0)
        } else {
            // Deterministic majority stop, stage 1: strictly more than half
            // of the quadrature points always run to convergence.
            let stage1_points = (n_int / 2 + 1).min(n_int);
            let acc = run_stage(&points[..stage1_points], None, init, &mut tracking, &mut fold);

            // The rule may fire only if the whole first stage converged
            // (then `converged * 2 > n_int` holds by construction, as in
            // the paper's "more than half of the points have converged"
            // condition).  The cap is the worst iteration count among the
            // converged stage-1 solves — a pure function of stage-1
            // results, independent of scheduling and of the job
            // granularity (both policies record identical histories).
            let stage1_converged = tracking.converged_among(stage1_points);
            let cap = if stage1_converged * 2 > n_int && tracking.converged_iter_max > 0 {
                Some(tracking.converged_iter_max)
            } else {
                None
            };

            let capped_solves = if cap.is_some() { (n_int - stage1_points) * n_rh } else { 0 };
            let acc = run_stage(&points[stage1_points..], cap, acc, &mut tracking, &mut fold);
            (acc, cap, capped_solves)
        };

        let stats = ShiftedSolveStats {
            converged_points: tracking.converged_among(n_int),
            capped_solves,
            iteration_cap: cap,
            total_iterations: tracking.total_iterations,
            total_matvecs: tracking.total_matvecs,
            total_traversals: tracking.total_traversals,
        };
        (acc, stats)
    }
}

/// Per-sweep convergence bookkeeping shared by the fold wrappers.
struct ConvergenceTracking {
    /// `true` while every solve of the point converged (primal and dual).
    point_converged: Vec<bool>,
    /// Worst iteration count among converged primal solves so far.
    converged_iter_max: usize,
    total_iterations: usize,
    total_matvecs: usize,
    /// Operator traversals, accumulated per job by the stage wrappers (per
    /// outcome under `PerRhs`, per block solve under `PerNode`).
    total_traversals: usize,
}

impl ConvergenceTracking {
    fn new(n_int: usize) -> Self {
        Self {
            point_converged: vec![true; n_int],
            converged_iter_max: 0,
            total_iterations: 0,
            total_matvecs: 0,
            total_traversals: 0,
        }
    }

    fn record(&mut self, o: &ShiftedSolveOutcome) {
        self.point_converged[o.point_index] &= o.history.converged() && o.dual_history.converged();
        if o.history.converged() {
            self.converged_iter_max = self.converged_iter_max.max(o.history.iterations());
        }
        self.total_iterations += o.history.iterations();
        self.total_matvecs += o.history.matvecs;
    }

    fn converged_among(&self, n_points: usize) -> usize {
        self.point_converged[..n_points].iter().filter(|&&c| c).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contour::RingContour;
    use cbs_linalg::{c64, CMatrix};
    use cbs_parallel::RayonExecutor;
    use cbs_sparse::{DenseOp, ShiftedOp};
    use rand::SeedableRng;

    fn diag_dominant(n: usize, seed: u64) -> CMatrix {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut a = CMatrix::random(n, n, &mut rng);
        for i in 0..n {
            a[(i, i)] += c64(2.0 * n as f64, 0.4);
        }
        a
    }

    fn rhs_block(n: usize, n_rh: usize, seed: u64) -> Vec<CVector> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n_rh).map(|_| CVector::random(n, &mut rng)).collect()
    }

    #[test]
    fn outcomes_are_ordered_by_job_index() {
        let a = diag_dominant(12, 31);
        let op = DenseOp::new(a);
        let rhs = rhs_block(12, 3, 32);
        let points = RingContour::new(0.5, 6).outer_points();
        let engine = ShiftedSolveEngine::new(&SerialExecutor, SolverOptions::default());
        let report = engine.solve(&points, &rhs, |z| ShiftedOp::new(&op, z));
        assert_eq!(report.outcomes.len(), 6 * 3);
        for (idx, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.point_index, idx / 3);
            assert_eq!(o.rhs_index, idx % 3);
        }
        assert_eq!(report.converged_points, 6);
        assert!(report.total_iterations() > 0);
        assert!(report.total_matvecs() >= 2 * report.total_iterations());
    }

    #[test]
    fn serial_and_rayon_executors_agree_bitwise() {
        let a = diag_dominant(16, 33);
        let op = DenseOp::new(a);
        let rhs = rhs_block(16, 4, 34);
        let points = RingContour::new(0.5, 8).outer_points();
        let opts = SolverOptions::default().with_tolerance(1e-11);
        for majority in [false, true] {
            let serial = ShiftedSolveEngine::new(&SerialExecutor, opts)
                .with_majority_stop(majority)
                .solve(&points, &rhs, |z| ShiftedOp::new(&op, z));
            let rayon = ShiftedSolveEngine::new(&RayonExecutor, opts)
                .with_majority_stop(majority)
                .solve(&points, &rhs, |z| ShiftedOp::new(&op, z));
            assert_eq!(serial.outcomes.len(), rayon.outcomes.len());
            for (s, r) in serial.outcomes.iter().zip(&rayon.outcomes) {
                assert_eq!(s.x, r.x, "primal solutions must be bit-identical");
                assert_eq!(s.dual_x, r.dual_x, "dual solutions must be bit-identical");
                assert_eq!(s.history.residuals, r.history.residuals);
            }
            assert_eq!(serial.converged_points, rayon.converged_points);
            assert_eq!(serial.iteration_cap, rayon.iteration_cap);
        }
    }

    #[test]
    fn majority_stop_caps_second_stage() {
        let a = diag_dominant(20, 35);
        let op = DenseOp::new(a);
        let rhs = rhs_block(20, 2, 36);
        let points = RingContour::new(0.5, 8).outer_points();
        let engine = ShiftedSolveEngine::new(&SerialExecutor, SolverOptions::default())
            .with_majority_stop(true);
        let report = engine.solve(&points, &rhs, |z| ShiftedOp::new(&op, z));
        // A well-conditioned system converges everywhere, so the rule fires.
        assert!(report.iteration_cap.is_some());
        assert_eq!(report.capped_solves, (8 - (8 / 2 + 1)) * 2);
        let cap = report.iteration_cap.unwrap();
        for o in &report.outcomes[(8 / 2 + 1) * 2..] {
            assert!(
                o.history.iterations() <= cap,
                "stage-2 solve ran {} iterations past the cap {cap}",
                o.history.iterations()
            );
        }
    }

    #[test]
    fn operator_factory_is_called_once_per_quadrature_point() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let a = diag_dominant(10, 38);
        let op = DenseOp::new(a);
        let rhs = rhs_block(10, 4, 39);
        let points = RingContour::new(0.5, 6).outer_points();
        for majority in [false, true] {
            let calls = AtomicUsize::new(0);
            let engine = ShiftedSolveEngine::new(&SerialExecutor, SolverOptions::default())
                .with_majority_stop(majority);
            let report = engine.solve(&points, &rhs, |z| {
                calls.fetch_add(1, Ordering::Relaxed);
                ShiftedOp::new(&op, z)
            });
            assert_eq!(report.outcomes.len(), 6 * 4);
            // The per-point cache shares one operator across the 4 rhs jobs.
            assert_eq!(calls.load(Ordering::Relaxed), 6);
        }
    }

    /// An operator that tracks how many of its kind are alive.
    struct Tracked<'a> {
        inner: ShiftedOp<&'a DenseOp>,
        live: &'a std::sync::atomic::AtomicUsize,
    }

    impl<'a> Tracked<'a> {
        fn new(
            op: &'a DenseOp,
            z: Complex64,
            live: &'a std::sync::atomic::AtomicUsize,
            peak: &std::sync::atomic::AtomicUsize,
        ) -> Self {
            use std::sync::atomic::Ordering::SeqCst;
            peak.fetch_max(live.fetch_add(1, SeqCst) + 1, SeqCst);
            Self { inner: ShiftedOp::new(op, z), live }
        }
    }

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            self.live.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    impl LinearOperator for Tracked<'_> {
        fn nrows(&self) -> usize {
            self.inner.nrows()
        }
        fn ncols(&self) -> usize {
            self.inner.ncols()
        }
        fn apply(&self, x: &[Complex64], y: &mut [Complex64]) {
            self.inner.apply(x, y);
        }
        fn apply_adjoint(&self, x: &[Complex64], y: &mut [Complex64]) {
            self.inner.apply_adjoint(x, y);
        }
    }

    #[test]
    fn per_node_jobs_drop_their_operator_on_return() {
        // The peak-memory contract: under `PerNode` the node is the job, so
        // its operator (+ preconditioner) lives only as long as the job —
        // one alive at a time on the serial executor — instead of being
        // parked until the whole contour is folded.  `PerRhs` shares one
        // cell per node across that node's jobs and keeps them all.
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        let a = diag_dominant(10, 48);
        let op = DenseOp::new(a);
        let rhs = rhs_block(10, 3, 49);
        let points = RingContour::new(0.5, 6).outer_points();
        for (policy, expected_peak) in [(BlockPolicy::PerNode, 1), (BlockPolicy::PerRhs, 6)] {
            let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let report = ShiftedSolveEngine::new(&SerialExecutor, SolverOptions::default())
                .with_majority_stop(true)
                .with_block_policy(policy)
                .solve(&points, &rhs, |z| Tracked::new(&op, z, &live, &peak));
            assert_eq!(report.outcomes.len(), 6 * 3);
            assert_eq!(peak.load(SeqCst), expected_peak, "{policy:?}");
            assert_eq!(live.load(SeqCst), 0, "{policy:?}: operators leaked");
        }
    }

    #[test]
    fn solve_fold_matches_solve() {
        let a = diag_dominant(12, 40);
        let op = DenseOp::new(a);
        let rhs = rhs_block(12, 3, 41);
        let points = RingContour::new(0.5, 8).outer_points();
        let engine = ShiftedSolveEngine::new(&SerialExecutor, SolverOptions::default())
            .with_majority_stop(true);
        let report = engine.solve(&points, &rhs, |z| ShiftedOp::new(&op, z));
        let (collected, stats) = engine.solve_fold(
            &points,
            &rhs,
            |z| ShiftedOp::new(&op, z),
            Vec::new(),
            |mut v: Vec<ShiftedSolveOutcome>, o| {
                v.push(o);
                v
            },
        );
        assert_eq!(collected.len(), report.outcomes.len());
        for (a, b) in collected.iter().zip(&report.outcomes) {
            assert_eq!(a.point_index, b.point_index);
            assert_eq!(a.rhs_index, b.rhs_index);
            assert_eq!(a.x, b.x);
            assert_eq!(a.dual_x, b.dual_x);
        }
        assert_eq!(stats.converged_points, report.converged_points);
        assert_eq!(stats.iteration_cap, report.iteration_cap);
        assert_eq!(stats.capped_solves, report.capped_solves);
        assert_eq!(stats.total_iterations, report.total_iterations());
        assert_eq!(stats.total_matvecs, report.total_matvecs());
    }

    #[test]
    fn seed_hook_cuts_iterations_and_stays_executor_deterministic() {
        let a = diag_dominant(14, 42);
        let op = DenseOp::new(a);
        let rhs = rhs_block(14, 3, 43);
        let points = RingContour::new(0.5, 6).outer_points();
        let opts = SolverOptions::default().with_tolerance(1e-11);

        // Cold sweep, then reuse its own solutions as seeds: every solve now
        // starts at the exact answer and converges without iterating.
        let cold = ShiftedSolveEngine::new(&SerialExecutor, opts)
            .solve(&points, &rhs, |z| ShiftedOp::new(&op, z));
        let seeds = StoredSeeds::from_outcomes(6, 3, &cold.outcomes);
        let warm = ShiftedSolveEngine::new(&SerialExecutor, opts).with_seed_hook(&seeds).solve(
            &points,
            &rhs,
            |z| ShiftedOp::new(&op, z),
        );
        assert!(cold.total_iterations() > 0);
        assert!(
            warm.total_iterations() < cold.total_iterations() / 4,
            "warm {} vs cold {}",
            warm.total_iterations(),
            cold.total_iterations()
        );
        for o in &warm.outcomes {
            assert!(o.history.converged() && o.dual_history.converged());
        }

        // Seeded runs stay bit-identical across executors.
        let warm_rayon = ShiftedSolveEngine::new(&RayonExecutor, opts)
            .with_seed_hook(&seeds)
            .solve(&points, &rhs, |z| ShiftedOp::new(&op, z));
        for (s, r) in warm.outcomes.iter().zip(&warm_rayon.outcomes) {
            assert_eq!(s.x, r.x);
            assert_eq!(s.dual_x, r.dual_x);
        }

        // An empty table is a no-op seed hook.
        let none = StoredSeeds::empty(6, 3);
        let cold2 = ShiftedSolveEngine::new(&SerialExecutor, opts).with_seed_hook(&none).solve(
            &points,
            &rhs,
            |z| ShiftedOp::new(&op, z),
        );
        for (a, b) in cold.outcomes.iter().zip(&cold2.outcomes) {
            assert_eq!(a.x, b.x);
            assert_eq!(a.history.residuals, b.history.residuals);
        }
    }

    #[test]
    fn block_policies_are_bitwise_identical_and_cut_traversals() {
        let a = diag_dominant(18, 44);
        let op = DenseOp::new(a);
        let n_rh = 4;
        let rhs = rhs_block(18, n_rh, 45);
        let points = RingContour::new(0.5, 6).outer_points();
        let opts = SolverOptions::default().with_tolerance(1e-11);
        for majority in [false, true] {
            let per_rhs = ShiftedSolveEngine::new(&SerialExecutor, opts)
                .with_majority_stop(majority)
                .with_block_policy(BlockPolicy::PerRhs)
                .solve(&points, &rhs, |z| ShiftedOp::new(&op, z));
            let per_node = ShiftedSolveEngine::new(&SerialExecutor, opts)
                .with_majority_stop(majority)
                .with_block_policy(BlockPolicy::PerNode)
                .solve(&points, &rhs, |z| ShiftedOp::new(&op, z));
            assert_eq!(per_rhs.outcomes.len(), per_node.outcomes.len());
            for (a, b) in per_rhs.outcomes.iter().zip(&per_node.outcomes) {
                assert_eq!((a.point_index, a.rhs_index), (b.point_index, b.rhs_index));
                assert_eq!(a.x, b.x, "block path drifted from the per-rhs path");
                assert_eq!(a.dual_x, b.dual_x);
                assert_eq!(a.history.residuals, b.history.residuals);
                assert_eq!(a.history.matvecs, b.history.matvecs);
                assert_eq!(a.history.stop_reason, b.history.stop_reason);
            }
            assert_eq!(per_rhs.converged_points, per_node.converged_points);
            assert_eq!(per_rhs.iteration_cap, per_node.iteration_cap);
            assert_eq!(per_rhs.capped_solves, per_node.capped_solves);
            // Identical per-column work, far fewer operator traversals.
            assert_eq!(per_rhs.total_matvecs(), per_node.total_matvecs());
            assert_eq!(per_rhs.operator_traversals, per_rhs.total_matvecs());
            assert!(
                per_node.operator_traversals * 2 < per_rhs.operator_traversals,
                "per-node {} vs per-rhs {} traversals",
                per_node.operator_traversals,
                per_rhs.operator_traversals
            );
        }
    }

    #[test]
    fn per_node_policy_is_executor_independent() {
        let a = diag_dominant(16, 46);
        let op = DenseOp::new(a);
        let rhs = rhs_block(16, 3, 47);
        let points = RingContour::new(0.5, 8).outer_points();
        let opts = SolverOptions::default().with_tolerance(1e-11);
        for majority in [false, true] {
            let serial = ShiftedSolveEngine::new(&SerialExecutor, opts)
                .with_majority_stop(majority)
                .with_block_policy(BlockPolicy::PerNode)
                .solve(&points, &rhs, |z| ShiftedOp::new(&op, z));
            let rayon = ShiftedSolveEngine::new(&RayonExecutor, opts)
                .with_majority_stop(majority)
                .with_block_policy(BlockPolicy::PerNode)
                .solve(&points, &rhs, |z| ShiftedOp::new(&op, z));
            for (s, r) in serial.outcomes.iter().zip(&rayon.outcomes) {
                assert_eq!(s.x, r.x);
                assert_eq!(s.dual_x, r.dual_x);
                assert_eq!(s.history.residuals, r.history.residuals);
            }
            assert_eq!(serial.iteration_cap, rayon.iteration_cap);
            assert_eq!(serial.operator_traversals, rayon.operator_traversals);
        }
    }

    #[test]
    fn block_policy_env_knob_parses_like_the_executor_knob() {
        // Unset variable → default (read-only env access; the value syntax
        // is covered through `from_name` to avoid mutating process-global
        // state from a threaded test harness).
        assert_eq!(BlockPolicy::from_env("CBS_BLOCK_TEST_UNSET_VAR"), BlockPolicy::PerNode);
        assert_eq!(BlockPolicy::from_name("per-rhs"), BlockPolicy::PerRhs);
        assert_eq!(BlockPolicy::from_name("PerRhs"), BlockPolicy::PerRhs);
        assert_eq!(BlockPolicy::from_name("rhs"), BlockPolicy::PerRhs);
        assert_eq!(BlockPolicy::from_name("per-node"), BlockPolicy::PerNode);
        assert_eq!(BlockPolicy::from_name("anything-else"), BlockPolicy::PerNode);
        assert_eq!(BlockPolicy::PerNode.name(), "per-node");
        assert_eq!(BlockPolicy::PerRhs.name(), "per-rhs");
    }

    #[test]
    fn precond_policy_env_knob_parses_like_the_other_knobs() {
        assert_eq!(
            PrecondPolicy::from_env("CBS_PRECOND_TEST_UNSET_VAR"),
            PrecondPolicy::MatrixFree
        );
        assert_eq!(PrecondPolicy::from_name("assembled"), PrecondPolicy::Assembled);
        assert_eq!(PrecondPolicy::from_name("ASM"), PrecondPolicy::Assembled);
        assert_eq!(PrecondPolicy::from_name("assembled-ilu0"), PrecondPolicy::AssembledIlu0);
        assert_eq!(PrecondPolicy::from_name("assembled_ilu0"), PrecondPolicy::AssembledIlu0);
        assert_eq!(PrecondPolicy::from_name("ilu"), PrecondPolicy::AssembledIlu0);
        assert_eq!(PrecondPolicy::from_name("ILU0"), PrecondPolicy::AssembledIlu0);
        assert_eq!(PrecondPolicy::from_name("assembled-ilu0-smw"), PrecondPolicy::AssembledIlu0Smw);
        assert_eq!(PrecondPolicy::from_name("assembled_ilu0_smw"), PrecondPolicy::AssembledIlu0Smw);
        assert_eq!(PrecondPolicy::from_name("ilu0-smw"), PrecondPolicy::AssembledIlu0Smw);
        assert_eq!(PrecondPolicy::from_name("SMW"), PrecondPolicy::AssembledIlu0Smw);
        assert_eq!(PrecondPolicy::from_name("anything-else"), PrecondPolicy::MatrixFree);
        assert_eq!(PrecondPolicy::MatrixFree.name(), "matrix-free");
        assert_eq!(PrecondPolicy::Assembled.name(), "assembled");
        assert_eq!(PrecondPolicy::AssembledIlu0.name(), "assembled-ilu0");
        assert_eq!(PrecondPolicy::AssembledIlu0Smw.name(), "assembled-ilu0-smw");
        assert!(!PrecondPolicy::MatrixFree.is_assembled());
        assert!(PrecondPolicy::Assembled.is_assembled());
        assert!(PrecondPolicy::AssembledIlu0.is_assembled());
        assert!(PrecondPolicy::AssembledIlu0Smw.is_assembled());
        assert_eq!(PrecondPolicy::AssembledIlu0Smw.trace_code(), 3);
        assert_eq!(PrecondPolicy::default(), PrecondPolicy::MatrixFree);
    }

    #[test]
    fn preconditioned_engine_cuts_iterations_and_stays_executor_independent() {
        use cbs_sparse::{AssembledPattern, CooBuilder};
        let n = 40;
        let mut b00 = CooBuilder::new(n, n);
        let mut b01 = CooBuilder::new(n, n);
        for i in 0..n {
            b00.push(i, i, c64(-4.0, 0.0));
            if i + 1 < n {
                b00.push(i, i + 1, c64(1.0, 0.2));
                b00.push(i + 1, i, c64(1.0, -0.2));
            }
            b01.push(i, (i + 2) % n, c64(0.25, -0.1));
        }
        let (h00, h01) = (b00.build(), b01.build());
        let pattern = AssembledPattern::build(&h00, &h01);
        let energy = 0.2;
        let rhs = rhs_block(n, 3, 48);
        let points = RingContour::new(0.5, 6).outer_points();
        let opts = SolverOptions::default().with_tolerance(1e-10);
        let engine = ShiftedSolveEngine::new(&SerialExecutor, opts);

        let collect = |mut v: Vec<ShiftedSolveOutcome>, o: ShiftedSolveOutcome| {
            v.push(o);
            v
        };
        let (plain, plain_stats) = engine.solve_fold_precond(
            &points,
            &rhs,
            |z| (pattern.assemble(energy, z), None::<NoPrecond>),
            Vec::new(),
            collect,
        );
        let precond_factory = |z| {
            let op = pattern.assemble(energy, z);
            let ilu = op.ilu0();
            (op, Some(ilu))
        };
        let (pre, pre_stats) =
            engine.solve_fold_precond(&points, &rhs, precond_factory, Vec::new(), collect);
        assert_eq!(plain.len(), pre.len());
        for o in &pre {
            assert!(o.history.converged() && o.dual_history.converged());
        }
        assert!(
            pre_stats.total_iterations < plain_stats.total_iterations,
            "ILU(0) did not cut engine iterations: {} vs {}",
            pre_stats.total_iterations,
            plain_stats.total_iterations
        );

        // Preconditioned runs stay bit-identical across executors.
        let rayon_engine = ShiftedSolveEngine::new(&RayonExecutor, opts);
        let (pre_rayon, pre_rayon_stats) =
            rayon_engine.solve_fold_precond(&points, &rhs, precond_factory, Vec::new(), collect);
        for (s, r) in pre.iter().zip(&pre_rayon) {
            assert_eq!(s.x, r.x);
            assert_eq!(s.dual_x, r.dual_x);
            assert_eq!(s.history.residuals, r.history.residuals);
        }
        assert_eq!(pre_stats.total_traversals, pre_rayon_stats.total_traversals);
    }

    #[test]
    fn engine_is_operator_generic() {
        // The same engine drives a CSR-backed operator without changes.
        let mut b = cbs_sparse::CooBuilder::new(10, 10);
        for i in 0..10 {
            b.push(i, i, c64(6.0, 0.2));
            b.push(i, (i + 1) % 10, c64(-1.0, 0.0));
            b.push(i, (i + 9) % 10, c64(-1.0, 0.0));
        }
        let m = b.build();
        let rhs = rhs_block(10, 2, 37);
        let points = RingContour::new(0.5, 4).outer_points();
        let engine = ShiftedSolveEngine::new(&SerialExecutor, SolverOptions::default());
        let report = engine.solve(&points, &rhs, |z| ShiftedOp::new(&m, z));
        assert_eq!(report.converged_points, 4);
        for o in &report.outcomes {
            // Verify the primal solution truly solves (A - zI) x = b.
            let z = points[o.point_index].z;
            let shifted = ShiftedOp::new(&m, z);
            let residual = &shifted.apply_vec(&o.x) - &rhs[o.rhs_index];
            assert!(residual.norm() <= 1e-8 * rhs[o.rhs_index].norm());
        }
    }
}
