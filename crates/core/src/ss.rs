//! The Sakurai-Sugiura (block-Hankel) eigensolver for the CBS quadratic
//! eigenvalue problem — Algorithm 1 of the paper.
//!
//! Steps (for one scan energy `E`):
//!
//! 1. Solve the `N_int` shifted systems `P(z_j^(1)) Y_j^(1) = V` with BiCG,
//!    every one to the BiCG tolerance in one pool dispatch
//!    ([`solve_qeps_with`]); the dual solutions of the same iterations
//!    solve `P(z_j^(1))† Y_j^(2) = V`, i.e. the systems at the inner-circle nodes
//!    `z_j^(2) = 1/conj(z_j^(1))` (paper §3.2).
//! 2. Accumulate the complex moments `Ŝ_k = Σ_j ω_j z_j^k Y_j` over both
//!    circles for the `2 N_mm` powers `k = −s … N_mm`, `s = N_mm − 1`
//!    (Laurent-centred on `k = 0`) — as vectors only for `k ≤ 0`, the basis
//!    of step 3's eigenvectors — and the projected moments `µ̂_k = V† Ŝ_k`
//!    for every `k`, each solution projected onto `V` as it is folded in.
//! 3. Build the block Hankel matrices `T̂ = [µ̂_{i+j−s}]`,
//!    `T̂^< = [µ̂_{i+j+1−s}]`, filter with an SVD at threshold `δ`, solve the
//!    reduced `m̂ × m̂` eigenproblem and recover the eigenvectors as
//!    `Ŝ W₁ Σ₁⁻¹ φ`.
//! 4. Keep only eigenpairs inside the annulus whose explicit QEP residual is
//!    small.
//!
//! # Why the moments are centred
//!
//! An eigenvalue's share of `µ̂_k` scales as `|λ|^k`, and the annulus
//! `λ_min < |λ| < 1/λ_min` spans a factor `λ_min^{−2}` in modulus: the
//! textbook powers `k = 0 … 2N_mm − 1` mix scales up to
//! `λ_min^{−2(2N_mm−1)}` in one Hankel pair, and the trapezoid rule aliases
//! the high powers first.  Centring the powers on `k = 0` halves the
//! largest exponent.  In exact arithmetic the shift multiplies each
//! eigenvalue's term by `λ^{−s}`, so the Hankel pencil keeps its
//! eigenvalues; zero lies outside the annulus, so the negative powers are
//! safe, and the node solves do not change at all.  Since
//! `z̄^{−s} = conj z^{−s}`, the mirrored half ring below stays exact.  On
//! the 343-point Al(100) cell at `N_int` 8 (`N_mm` 4, `N_rh` 4) it is the
//! difference between losing 18 of 320 reference pairs over 32 source-block
//! seeds and finding all of them (`tests/centred_moments.rs`).
//!
//! # Symmetries that cut the solve count
//!
//! Three identities keep the `2 N_int N_rh` systems of step 1 down to a
//! quarter of that for the Hamiltonians this repository builds:
//!
//! * `P(z)† = P(1/z̄)` (Hermitian `H₀₀`, `H₁₀ = H₀₁†`; always holds): the
//!   dual BiCG solutions are the inner-circle solutions — only the outer
//!   circle is iterated.
//! * `P(z̄) = conj P(z)` (real blocks, real `E`;
//!   [`QepProblem::is_conjugate_symmetric`]): the lower half-plane nodes
//!   of the ring mirror the upper ones — only the `Im z > 0` nodes are
//!   listed and step 2 closes with
//!   `Ŝ_k ← Ŝ_k + conj Ŝ_k = 2 Re Ŝ_k`: the accumulator stores only the
//!   real parts of the vectors, and the extraction takes `2 Re µ̂_k`.
//! * a **real** source block `V` ([`source_block`]), which is what turns
//!   the operator identity into `Y(z̄) = conj Y(z)`.
//!
//! The second shortcut engages by itself whenever the problem reports it;
//! it silently does not for complex blocks and for operator types that do
//! not implement `LinearOperator::is_real` — those run the full node list
//! through the same code.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use cbs_linalg::{svd, CMatrix, CVector, Complex64, Eigen, Svd};
use cbs_parallel::TaskExecutor;
use cbs_solver::{BlockBicgResult, ConvergenceHistory, SolverOptions};
use cbs_trace::Stage;

use crate::contour::{ContourError, QuadraturePoint, RingContour};
use crate::policy::PrecondPolicy;
use crate::pool::solve_qeps_with;
use crate::qep::QepProblem;

/// Parameters of the Sakurai-Sugiura solve (paper notation).
///
/// Every shifted solve runs to [`bicg_tolerance`](Self::bicg_tolerance)
/// or [`bicg_max_iterations`](Self::bicg_max_iterations): the paper's
/// majority-stop load-balancing rule is not implemented (the pool module
/// says why).  Stage spans are recorded while a `cbs_trace::TraceSession`
/// is active; no field here selects them.
#[derive(Clone, Copy, Debug)]
pub struct SsConfig {
    /// Number of quadrature points per circle (`N_int`).
    pub n_int: usize,
    /// Number of complex moments (`N_mm`).  With 0 nothing is extracted:
    /// the result has no eigenpairs and `numerical_rank` 0.
    pub n_mm: usize,
    /// Number of random right-hand sides / source vectors (`N_rh`).  With 0
    /// nothing is solved or extracted: the same empty result as `N_mm` 0.
    pub n_rh: usize,
    /// Relative singular-value threshold `δ` for the low-rank filtering.
    pub delta: f64,
    /// Inner radius `λ_min` of the target annulus.
    pub lambda_min: f64,
    /// Relative residual tolerance of the BiCG solves.
    pub bicg_tolerance: f64,
    /// Iteration cap of the BiCG solves.
    pub bicg_max_iterations: usize,
    /// Residual threshold above which recovered eigenpairs are discarded as
    /// spurious.
    pub residual_cutoff: f64,
    /// Seed of the random source block `V`.
    pub seed: u64,
    /// Preconditioning of the shifted solves, and the only input that
    /// selects it: [`AssembledIlu0`](PrecondPolicy::AssembledIlu0) hands
    /// every node's diagonal ILU to the solver, which runs BiCG on the
    /// system it splits, where the blocks are a real stencil's views (every
    /// Hamiltonian `cbs-dft` builds), and runs matrix-free where they do not
    /// and for every column the split does not solve
    /// ([`SsResult::split_fallbacks`]).  [`MatrixFree`](PrecondPolicy::MatrixFree),
    /// the [`paper`](Self::paper) default, never preconditions.  It changes
    /// the trajectory, so it **is** part of the sweep checkpoint fingerprint.
    pub precond: PrecondPolicy,
    /// **Vestigial:** read by nothing.  It survives only because the repo
    /// benchmark (`benchmark/src/workloads.rs`, out of bounds for library
    /// PRs) writes it in a struct literal; released by ROADMAP 1(a).
    pub auto: bool,
}

impl Default for SsConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl SsConfig {
    /// The parameter set used throughout the paper's serial experiments:
    /// `N_int = 32, N_mm = 8, N_rh = 16, δ = 1e-10, λ_min = 0.5`, BiCG
    /// tolerance `1e-10`.
    ///
    /// The policy is the paper's, [`MatrixFree`](PrecondPolicy::MatrixFree):
    /// the shifted systems are solved by unpreconditioned dual BiCG on the
    /// real-space grid operator.  [`precond`](Self::precond) alone opts into
    /// the diagonal ILU split, and whether it pays depends on the system.
    /// One serial solve each (2-core x86-64 host, both policies returning
    /// the same pairs), matrix-free against split:
    ///
    /// | system | points | E (Ha) | matrix-free | split |
    /// |---|---|---|---|---|
    /// | Al(100) `al343` | 343 | 0.11 | 0.045 s | 0.018 s |
    /// | (8,0) CNT `cnt80` | 2 527 | 0.2 | 1.95 s | 2.22 s |
    /// | Al(100) `al12k` | 12 167 | 0.1 | 3.99 s | 1.71 s |
    ///
    /// The paper-figure examples set it for every system.
    pub fn paper() -> Self {
        Self {
            n_int: 32,
            n_mm: 8,
            n_rh: 16,
            delta: 1e-10,
            lambda_min: 0.5,
            bicg_tolerance: 1e-10,
            bicg_max_iterations: 20_000,
            residual_cutoff: 1e-5,
            seed: 0x5a5a_5a5a,
            precond: PrecondPolicy::MatrixFree,
            auto: false,
        }
    }

    /// A cheaper configuration for unit tests and examples on small systems.
    pub fn small() -> Self {
        Self { n_int: 16, n_mm: 4, n_rh: 8, ..Self::paper() }
    }

    /// Maximum number of eigenvalues the projected problem can represent.
    pub fn subspace_size(&self) -> usize {
        self.n_mm * self.n_rh
    }

    /// The contour implied by this configuration.
    pub fn contour(&self) -> RingContour {
        RingContour::new(self.lambda_min, self.n_int)
    }

    /// Solver options handed to BiCG.
    pub fn solver_options(&self) -> SolverOptions {
        SolverOptions {
            tolerance: self.bicg_tolerance,
            max_iterations: self.bicg_max_iterations,
            ..SolverOptions::default()
        }
    }
}

/// One converged eigenpair of the QEP.
#[derive(Clone, Debug)]
pub struct QepEigenpair {
    /// The Bloch factor `λ = exp(i k a)`.
    pub lambda: Complex64,
    /// The periodic part of the wave function on the unit-cell grid.
    pub psi: CVector,
    /// Relative residual of the pair.
    pub residual: f64,
}

/// Timing breakdown of one Sakurai-Sugiura solve (the rows of the paper's
/// Table 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct SsTimings {
    /// Seconds spent solving the shifted linear systems (step 1).
    pub linear_solve_seconds: f64,
    /// Seconds spent extracting eigenpairs (steps 2-4).
    pub extraction_seconds: f64,
}

/// Everything produced by one Sakurai-Sugiura solve.
#[derive(Clone, Debug)]
pub struct SsResult {
    /// Eigenpairs inside the annulus that passed the residual filter.
    pub eigenpairs: Vec<QepEigenpair>,
    /// Numerical rank `m̂` selected by the SVD threshold.
    pub numerical_rank: usize,
    /// Singular values of the block Hankel matrix (diagnostics).
    pub hankel_singular_values: Vec<f64>,
    /// One record per shifted (primal + dual) BiCG solve run, in job order
    /// `j * N_rh + rhs` over the listed nodes — the curves of the paper's
    /// Figure 5.  Each is its pair's
    /// ([`BicgResult::history`](cbs_solver::BicgResult::history)): the
    /// larger of the two residuals after each iteration, converged only
    /// when the outer node's system and its inner-circle twin's both are.
    ///
    /// Its length is the number of solves run: `n_int x n_rh` on a full
    /// ring, and only the upper half's `⌈n_int/2⌉ x n_rh` on a mirrored
    /// one, whose lower half is never solved.
    pub solve_histories: Vec<ConvergenceHistory>,
    /// The projected complex moments `µ̂_k = V† Ŝ_k`, `k = −s … N_mm` with
    /// `s = N_mm − 1` (`2 N_mm` matrices of shape `N_rh x N_rh`).
    /// Diagnostics, and the quantity the deterministic-parallelism
    /// regression test compares bit-for-bit across executors.
    pub projected_moments: Vec<CMatrix>,
    /// Total number of BiCG iterations summed over
    /// [`solve_histories`](Self::solve_histories) (mirrored nodes cost
    /// nothing and count nothing — likewise for the matvec and traversal
    /// counters below).
    pub total_bicg_iterations: usize,
    /// Total number of operator applications (matvec-equivalents: the
    /// per-column work, however the applies were fused), including the
    /// [`extraction_matvecs`](Self::extraction_matvecs).
    pub total_matvecs: usize,
    /// Operator traversals performed: one per fused block apply of `P(z)`
    /// (split or not) — one per side per iteration per node, serving all
    /// `N_rh` columns — plus one per residual check
    /// ([`extraction_matvecs`](Self::extraction_matvecs)).
    pub total_traversals: usize,
    /// Operator applications spent in the extraction-phase residual checks
    /// (one `P(λ)` apply per checked candidate; the once-per-problem cached
    /// scale estimate is excluded to keep the counters deterministic);
    /// already included in [`total_matvecs`](Self::total_matvecs) and
    /// [`total_traversals`](Self::total_traversals).
    pub extraction_matvecs: usize,
    /// **Vestigial:** always 0 — no solve refills an assembled pattern.  It
    /// survives only because the repo benchmark (`benchmark/src/layers.rs`)
    /// reads it; released by ROADMAP 1(a).
    pub operator_assemblies: usize,
    /// Solves that the ILU policy's split system did not solve and the
    /// pool solved again matrix-free on `P(z)`.  Their records are the
    /// matrix-free solves', with the split attempts' matvecs added; the
    /// attempts' traversals are counted too, their iterations are not.
    pub split_fallbacks: usize,
    /// Timing breakdown.
    pub timings: SsTimings,
    /// Eigenpairs discarded by the residual filter (diagnostics).
    pub discarded: usize,
    /// Bytes of the moment store the solve accumulated into: `N_mm N_rh N`
    /// reals on a mirrored ring (complex numbers on a full one) plus the
    /// `2 N_mm` complex `N_rh × N_rh` projections.  The histories are not
    /// counted.
    pub moment_store_bytes: usize,
}

impl SsResult {
    /// The eigenvalues only.
    pub fn lambdas(&self) -> Vec<Complex64> {
        self.eigenpairs.iter().map(|p| p.lambda).collect()
    }
}

/// The deterministic random source block `V` (`N_rh` columns of length `n`)
/// implied by a configuration.  Depends only on `n`, `config.n_rh` and
/// `config.seed`, so every scan energy of a sweep shares the same block.
///
/// The entries are **real** (uniform in `[-1, 1)`), always: a real block is
/// as generic as a complex one for the method, and it is what lets a real
/// Hamiltonian's lower half-plane solutions be read off as conjugates (see
/// the module docs).  One path for `V`, whatever the problem.
pub fn source_block(n: usize, config: &SsConfig) -> Vec<CVector> {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    (0..config.n_rh)
        .map(|_| (0..n).map(|_| Complex64::real(rng.gen_range(-1.0..1.0))).collect())
        .collect()
}

/// Streaming accumulator for step 2 of the method: folds each node's block
/// solve **in job order** into exactly what the extraction reads of the
/// moments `Ŝ_k = Σ_j ω_j z_j^k Y_j`, `k = −s … N_mm` with `s = N_mm − 1`
/// (primal + paired dual nodes; the module docs say why the powers are
/// centred), and retains each solve's history and the work counters:
///
/// * the vectors `Ŝ_{−s} … Ŝ_0` (`N_rh` columns of length `N` each), the
///   basis the eigenvectors `ψ = Ŝ W₁Σ₁⁻¹φ` are recovered from.  On a
///   mirrored ring only their real parts are kept — the extraction closes
///   the ring with `Ŝ_k + conj Ŝ_k = 2 Re Ŝ_k` — accumulated with the real
///   half of the complex axpy, so they are bitwise the real parts of the
///   complex sum;
/// * the projections `µ̂_k = V†Ŝ_k` (`N_rh × N_rh`) for every `k`, the
///   entries of the block Hankel pair, summed from each solution's `V†x`
///   and `V†x̃`.
///
/// That is a quarter of `2 N_mm N_rh` complex length-`N` vectors on a
/// mirrored ring and half of it on a full one
/// ([`SsResult::moment_store_bytes`]).  The pooled round runs one per
/// problem; [`RingPlan::accumulator`] builds it.
pub(crate) struct MomentAccumulator {
    /// The listed `(outer, paired inner)` nodes of the ring.
    nodes: Vec<(QuadraturePoint, QuadraturePoint)>,
    /// The node list is the upper half of a conjugate-symmetric ring: the
    /// extraction completes the moments with their conjugates.
    mirrored: bool,
    /// Length `N` of one moment column.
    n: usize,
    /// `Re Ŝ_{i−s}[:, rhs]` for `i < N_mm`, column `i·N_rh + rhs` at
    /// `[col·N .. (col+1)·N]`.
    re: Vec<f64>,
    /// `Im Ŝ_{i−s}[:, rhs]` in the same layout; empty on a mirrored ring.
    im: Vec<f64>,
    /// `µ̂_{i−s} = V†Ŝ_{i−s}` at index `i < 2 N_mm`, over the listed nodes
    /// only (the extraction takes `2 Re` of them on a mirrored ring).
    mu: Vec<CMatrix>,
    /// One history per solved column, in job order.
    histories: Vec<ConvergenceHistory>,
    /// Operator traversals of the folded solves, one per fused block apply.
    traversals: usize,
    /// [`SsResult::split_fallbacks`] of the folded solves.
    pub(crate) split_fallbacks: usize,
}

impl MomentAccumulator {
    /// Bytes held by the moment store ([`SsResult::moment_store_bytes`]).
    fn memory_bytes(&self) -> usize {
        (self.re.len() + self.im.len()) * std::mem::size_of::<f64>()
            + self.mu.iter().map(CMatrix::memory_bytes).sum::<usize>()
    }

    /// Fold listed node `j`'s block solve of the source block `v_cols` into
    /// the moments, its columns in rhs order; each solution pair is dropped
    /// once it has contributed.  Must be called in node order (overall job
    /// order `j * N_rh + rhs`) for executor-independent results.
    pub(crate) fn record(&mut self, j: usize, node: BlockBicgResult, v_cols: &[CVector]) {
        let (outer, inner) = self.nodes[j];
        let (n, n_mm) = (self.n, self.n_mm());
        self.traversals += node.traversals;
        for (rhs, col) in node.columns.into_iter().enumerate() {
            // The column's share of every µ̂_k, projected once: V†x and V†x̃.
            let projected: Vec<(Complex64, Complex64)> =
                v_cols.iter().map(|v| (v.dot(&col.x), v.dot(&col.dual_x))).collect();
            // Accumulate the moments for this (j, rhs) pair, k = −s … N_mm:
            //   primal:  + ω_j z_j^k  Y^(1)
            //   dual:    + ω'_j z'^k  Y^(2)   (orientation sign in the weight)
            let mut zk_primal = centred_weight(outer, n_mm);
            let mut zk_dual = centred_weight(inner, n_mm);
            for (k, mu_k) in self.mu.iter_mut().enumerate() {
                if k < n_mm {
                    let start = (k * v_cols.len() + rhs) * n;
                    let (re, mut im) =
                        (&mut self.re[start..start + n], self.im.get_mut(start..start + n));
                    // `CVector::axpy`'s `y += a·x`, one half at a time.
                    for (a, x) in [(zk_primal, &col.x), (zk_dual, &col.dual_x)] {
                        for (y, x) in re.iter_mut().zip(x.iter()) {
                            *y += a.re * x.re - a.im * x.im;
                        }
                        if let Some(im) = im.as_deref_mut() {
                            for (y, x) in im.iter_mut().zip(x.iter()) {
                                *y += a.re * x.im + a.im * x.re;
                            }
                        }
                    }
                }
                for (r, &(p, p_dual)) in projected.iter().enumerate() {
                    mu_k[(r, rhs)] += zk_primal * p;
                    mu_k[(r, rhs)] += zk_dual * p_dual;
                }
                zk_primal *= outer.z;
                zk_dual *= inner.z;
            }
            self.histories.push(col.history);
        }
    }

    /// `N_mm`: the number of stored moment vectors per right-hand side.
    fn n_mm(&self) -> usize {
        self.mu.len() / 2
    }

    /// `N_rh`: the width of the source block.
    fn n_rh(&self) -> usize {
        self.mu.first().map_or(0, CMatrix::nrows)
    }

    /// Widen stored column `col` (`i·N_rh + rhs`, `i < N_mm`) into `out`:
    /// `Ŝ_{i−s}[:, rhs]`, or its real part on a mirrored ring.
    fn widen_column(&self, col: usize, out: &mut CVector) {
        let range = col * self.n..(col + 1) * self.n;
        let (out, re) = (out.as_mut_slice(), &self.re[range.clone()]);
        match self.im.get(range) {
            Some(im) => {
                for ((o, &re), &im) in out.iter_mut().zip(re).zip(im) {
                    *o = Complex64::new(re, im);
                }
            }
            None => {
                for (o, &re) in out.iter_mut().zip(re) {
                    *o = Complex64::real(re);
                }
            }
        }
    }

    /// The stored vectors, widened column by column (`k·N_rh + rhs`), and
    /// the accumulated projections — for bitwise comparisons.
    #[cfg(test)]
    pub(crate) fn stored(&self) -> (Vec<CVector>, Vec<CMatrix>) {
        let columns = (0..self.n_mm() * self.n_rh())
            .map(|col| {
                let mut out = CVector::zeros(self.n);
                self.widen_column(col, &mut out);
                out
            })
            .collect();
        (columns, self.mu.clone())
    }
}

/// The weight of node `p` in the lowest moment, `ω z^{−s}` with
/// `s = N_mm − 1`; each further moment multiplies it by `z`.
pub(crate) fn centred_weight(p: QuadraturePoint, n_mm: usize) -> Complex64 {
    p.weight * p.z.powi(1 - n_mm as i32)
}

/// Solve the QEP for all eigenvalues in the annulus with the Sakurai-Sugiura
/// method, the shifted systems dispatched through the given
/// [`TaskExecutor`] (`SerialExecutor` for a serial solve): the one-problem
/// round of [`solve_qeps_with`].
///
/// All executors produce bit-identical results: the pool's moment
/// accumulation always walks the solve outcomes in job order, independent
/// of how they were scheduled.
///
/// # Panics
///
/// On invalid contour parameters in `config` (the [`ContourError`]).
pub fn solve_qep_with<E: TaskExecutor>(
    problem: &QepProblem<'_>,
    config: &SsConfig,
    executor: &E,
) -> SsResult {
    let mut round = solve_qeps_with(std::slice::from_ref(problem), config, executor)
        .unwrap_or_else(|e| panic!("{e}"));
    round.next().expect("one result per problem")
}

/// Steps 3-4 of the method: build the block Hankel matrices from the
/// centred projected moments `µ̂_k`, `k = −s … N_mm` (`s = N_mm − 1`), of
/// the pool's accumulator `acc`, filter with the SVD, solve the reduced
/// eigenproblem, recover the eigenvectors from its stored `Ŝ_{−s} … Ŝ_0`
/// and residual-check the eigenpairs; the accumulator's work counters are
/// carried into the result.  `N_mm` and `N_rh` are the
/// accumulator's ([`RingPlan::build`] took them from the configuration).
///
/// Moments that carry nothing to extract — all zero (a zero source block)
/// or non-finite, so the block Hankel matrix has no finite positive `σ₁` —
/// and a failed SVD or reduced eigensolve are not errors of the caller's:
/// the result then has no eigenpairs and `numerical_rank` 0 (and no
/// `hankel_singular_values` when the SVD itself failed).
pub(crate) fn extract_from_moments(
    problem: &QepProblem<'_>,
    config: &SsConfig,
    mut acc: MomentAccumulator,
    linear_solve_seconds: f64,
) -> SsResult {
    let moment_store_bytes = acc.memory_bytes();
    let n = problem.dim();
    let contour = config.contour();
    let (m, n_rh, mirrored) = (acc.n_mm(), acc.n_rh(), acc.mirrored);
    let histories = std::mem::take(&mut acc.histories);
    let iterations = histories.iter().map(ConvergenceHistory::iterations).sum();
    let matvecs: usize = histories.iter().map(|h| h.matvecs).sum();

    let t_extract = cbs_trace::now_ns();
    let mut mu = std::mem::take(&mut acc.mu);
    if mirrored {
        // Close the quadrature sum over the lower half-plane nodes that
        // were never solved: node `N-1-j` contributes the conjugate of node
        // `j`'s term, so µ̂_k ← µ̂_k + conj µ̂_k = 2 Re µ̂_k (V is real).  The
        // stored vectors already are `Re Ŝ_k`; their factor 2 is left out,
        // since every recovered ψ is normalised.
        for v in mu.iter_mut().flat_map(CMatrix::as_mut_slice) {
            *v = Complex64::real(2.0 * v.re);
        }
    }
    let dim = m * n_rh;
    // Block Hankel matrices: T̂[i][j] = µ̂_{i+j−s},  T̂^<[i][j] = µ̂_{i+j+1−s}
    // (`mu[i]` holds µ̂_{i−s}, s = N_mm − 1).
    let mut t_hankel = CMatrix::zeros(dim, dim);
    let mut t_shift = CMatrix::zeros(dim, dim);
    for bi in 0..m {
        for bj in 0..m {
            t_hankel.set_block(bi * n_rh, bj * n_rh, &mu[bi + bj]);
            t_shift.set_block(bi * n_rh, bj * n_rh, &mu[bi + bj + 1]);
        }
    }

    // Low-rank filtering and the reduced eigenproblem.
    let decomposition = svd(&t_hankel).ok();
    let Reduced { rank, w1, sigma_inv, eig } = decomposition
        .as_ref()
        .and_then(|d| Reduced::filter(d, &t_shift, config.delta))
        .unwrap_or_else(|| Reduced::empty(dim));

    // Eigenvector recovery: ψ = Ŝ W₁ Σ₁⁻¹ φ with Ŝ = [Ŝ_{−s} … Ŝ_0].
    // Compute  c = W₁ Σ₁⁻¹ φ  (dim x 1) per eigenpair and combine columns.
    let mut eigenpairs = Vec::new();
    let mut discarded = 0usize;
    // One `P(λ)` apply per `problem.residual` call below.
    let mut extraction_matvecs = 0usize;
    let mut column = CVector::zeros(n);
    for (idx, &lambda) in eig.values.iter().enumerate() {
        // On a mirrored ring the moments are real, so the spectrum is closed
        // under conjugation: the candidates with `Im λ ≥ 0` are recovered and
        // residual-checked, each accepted complex one also emits its
        // conjugate, and the `Im λ < 0` ones are their computed twins.
        let (lambda, copies) = if !mirrored {
            (lambda, 1)
        } else if lambda.im.abs() <= REAL_AXIS_ROUNDING * lambda.abs() {
            (Complex64::real(lambda.re), 1)
        } else if lambda.im > 0.0 {
            (lambda, 2)
        } else {
            continue;
        };
        if !contour.contains(lambda, 0.0) {
            discarded += copies;
            continue;
        }
        let phi = eig.vectors.column(idx);
        // c = W1 * (Σ⁻¹ φ)
        let mut scaled_phi = CVector::zeros(rank);
        for r in 0..rank {
            scaled_phi[r] = phi[r] * sigma_inv[r];
        }
        let mut coeff = CVector::zeros(dim);
        for r in 0..dim {
            let mut acc = Complex64::ZERO;
            for c in 0..rank {
                acc += w1[(r, c)] * scaled_phi[c];
            }
            coeff[r] = acc;
        }
        // ψ = Σ_{i, rhs} coeff[i*N_rh + rhs] * Ŝ_{i−s}[:, rhs]
        let mut psi = CVector::zeros(n);
        for (col, &c) in coeff.iter().enumerate() {
            if c.abs() > 0.0 {
                acc.widen_column(col, &mut column);
                psi.axpy(c, &column);
            }
        }
        let (psi, norm) = psi.normalized();
        if norm == 0.0 {
            discarded += copies;
            continue;
        }
        let residual = problem.residual(lambda, &psi);
        extraction_matvecs += 1;
        if residual <= config.residual_cutoff {
            if copies == 2 {
                // `P(λ̄) ψ̄ = conj(P(λ) ψ)` for a real Hamiltonian: the
                // conjugate of an accepted pair is an eigenpair with the
                // same residual.
                eigenpairs.push(QepEigenpair { lambda: lambda.conj(), psi: psi.conj(), residual });
            }
            eigenpairs.push(QepEigenpair { lambda, psi, residual });
        } else {
            discarded += copies;
        }
    }
    // Deterministic ordering: by |λ| then phase.
    eigenpairs.sort_by(|a, b| {
        (a.lambda.abs(), a.lambda.arg())
            .partial_cmp(&(b.lambda.abs(), b.lambda.arg()))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    // One pair of clock readings gives both the Extraction span and
    // `extraction_seconds`.
    let t_end = cbs_trace::now_ns();
    cbs_trace::record_span(Stage::Extraction, t_extract, t_end);
    let extraction_seconds = cbs_trace::seconds_between(t_extract, t_end);

    SsResult {
        eigenpairs,
        numerical_rank: rank,
        hankel_singular_values: decomposition.map_or_else(Vec::new, |d| d.singular_values),
        solve_histories: histories,
        projected_moments: mu,
        total_bicg_iterations: iterations,
        total_matvecs: matvecs + extraction_matvecs,
        total_traversals: acc.traversals + extraction_matvecs,
        extraction_matvecs,
        operator_assemblies: 0,
        split_fallbacks: acc.split_fallbacks,
        timings: SsTimings { linear_solve_seconds, extraction_seconds },
        discarded,
        moment_store_bytes,
    }
}

/// Step 3's filtered problem: the numerical rank `m̂`, `W₁`, `Σ₁⁻¹` and the
/// eigenpairs of the reduced matrix `U₁† T̂^< W₁ Σ₁⁻¹`.
struct Reduced {
    rank: usize,
    w1: CMatrix,
    sigma_inv: Vec<f64>,
    eig: Eigen,
}

impl Reduced {
    /// Filter the block Hankel pair through `hankel`, the SVD
    /// `T̂ = U Σ W†`.  `None` when `σ₁` is not finite and positive —
    /// all-zero or non-finite moments leave nothing to filter by, and `1/σ`
    /// would fill the reduced matrix with NaN — or when the reduced
    /// eigensolver fails.
    fn filter(hankel: &Svd, t_shift: &CMatrix, delta: f64) -> Option<Self> {
        let sigma = &hankel.singular_values;
        if !sigma.first().is_some_and(|&s| s.is_finite() && s > 0.0) {
            return None;
        }
        let rank = hankel.numerical_rank(delta).max(1).min(sigma.len());
        let u1 = hankel.u.take_columns(rank);
        let w1 = hankel.v.take_columns(rank);
        let sigma_inv: Vec<f64> = sigma.iter().take(rank).map(|&s| 1.0 / s).collect();
        let mut reduced = u1.adjoint_mul(&t_shift.matmul(&w1));
        for r in 0..rank {
            for c in 0..rank {
                reduced[(r, c)] *= sigma_inv[c];
            }
        }
        let eig = cbs_linalg::eigen(&reduced).ok()?;
        Some(Self { rank, w1, sigma_inv, eig })
    }

    /// Nothing to extract: rank 0, no eigenpairs.
    fn empty(dim: usize) -> Self {
        let eig = Eigen { values: Vec::new(), vectors: CMatrix::zeros(0, 0) };
        Self { rank: 0, w1: CMatrix::zeros(dim, 0), sigma_inv: Vec::new(), eig }
    }
}

/// Relative `|Im λ|` under which a computed eigenvalue of the real reduced
/// matrix of a mirrored ring is taken for a real one carrying the complex
/// eigensolver's rounding noise (1e-16 times the eigenvalue's condition
/// number) and put back on the real axis.  No larger than the default BiCG
/// tolerance, so it never moves an eigenvalue by more than the solves
/// already have.
const REAL_AXIS_ROUNDING: f64 = 1e-10;

/// Everything a pooled round precomputes once for all of its problems:
/// the source block, whether the ring is mirrored, and the node list its
/// [`MomentAccumulator`]s integrate.  Only the problems' dimension and
/// conjugate symmetry enter, and neither varies with the scan energy.
pub(crate) struct RingPlan {
    /// The source block `V` ([`source_block`]).
    pub v_cols: Vec<CVector>,
    /// The listed `(outer, paired inner)` nodes.
    nodes: Vec<(QuadraturePoint, QuadraturePoint)>,
    /// `true` when the nodes are only the `Im z > 0` half of the ring of
    /// conjugate-symmetric problems: each also stands for its mirror image
    /// `(z̄, ω̄)`, whose solutions are the conjugates of the node's own and
    /// are folded in by the extraction, never solved.
    mirrored: bool,
    n_mm: usize,
}

impl RingPlan {
    /// The plan shared by `problems` under `config`, rejecting invalid
    /// contour parameters.  Conjugate-symmetric problems get the mirrored
    /// half ring.
    ///
    /// # Panics
    ///
    /// When the problems do not all share one dimension and one conjugate
    /// symmetry.
    pub(crate) fn build(
        problems: &[QepProblem<'_>],
        config: &SsConfig,
    ) -> Result<Self, ContourError> {
        let contour = RingContour::try_new(config.lambda_min, config.n_int)?;
        let shape = |p: &QepProblem<'_>| (p.dim(), p.is_conjugate_symmetric());
        let (n, mirrored) = problems.first().map_or((0, false), shape);
        assert!(
            problems.iter().all(|p| shape(p) == (n, mirrored)),
            "the problems of one round must share dimension and conjugate symmetry"
        );
        Ok(Self {
            v_cols: source_block(n, config),
            nodes: contour.solved_nodes(mirrored),
            mirrored,
            n_mm: config.n_mm,
        })
    }

    /// Number of listed quadrature nodes, the jobs of one problem.
    pub(crate) fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The primal shift of listed node `j`, the one its job solves.
    pub(crate) fn node_shift(&self, j: usize) -> Complex64 {
        self.nodes[j].0.z
    }

    /// Fresh zeroed moments over the plan's node list.
    pub(crate) fn accumulator(&self) -> MomentAccumulator {
        let n = self.v_cols.first().map_or(0, CVector::len);
        let n_rh = self.v_cols.len();
        let vectors = self.n_mm * n_rh * n;
        MomentAccumulator {
            nodes: self.nodes.clone(),
            mirrored: self.mirrored,
            n,
            re: vec![0.0; vectors],
            im: if self.mirrored { Vec::new() } else { vec![0.0; vectors] },
            mu: vec![CMatrix::zeros(n_rh, n_rh); 2 * self.n_mm],
            histories: Vec::with_capacity(self.nodes.len() * n_rh),
            traversals: 0,
            split_fallbacks: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_linalg::{c64, generalized_eigen};
    use cbs_parallel::SerialExecutor;
    use cbs_solver::BicgResult;
    use cbs_sparse::DenseOp;
    use rand::SeedableRng;

    /// Reference: all QEP eigenvalues by dense linearization
    ///   λ² H01 ψ - λ (E - H00) ψ + H10 ψ = 0.
    fn qep_eigenvalues_dense(h00: &CMatrix, h01: &CMatrix, energy: f64) -> Vec<Complex64> {
        let n = h00.nrows();
        let h10 = h01.adjoint();
        let e_minus = &CMatrix::identity(n).scale(c64(energy, 0.0)) - h00;
        let mut a = CMatrix::zeros(2 * n, 2 * n);
        a.set_block(0, n, &CMatrix::identity(n));
        a.set_block(n, 0, &h10.scale(c64(-1.0, 0.0)));
        a.set_block(n, n, &e_minus);
        let mut b = CMatrix::zeros(2 * n, 2 * n);
        b.set_block(0, 0, &CMatrix::identity(n));
        b.set_block(n, n, h01);
        generalized_eigen(&a, &b).unwrap().finite_pairs().map(|(v, _)| v).collect()
    }

    fn random_qep(n: usize, seed: u64) -> (CMatrix, CMatrix) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let a = CMatrix::random(n, n, &mut rng);
        // Hermitian on-cell block with a definite scale.
        let h00 = (&a + &a.adjoint()).scale(c64(0.5, 0.0));
        // Coupling block, moderately small so the spectrum has a mix of
        // propagating and evanescent solutions.
        let h01 = CMatrix::random(n, n, &mut rng).scale(c64(0.35, 0.0));
        (h00, h01)
    }

    #[test]
    fn ss_finds_all_annulus_eigenvalues_of_a_small_dense_qep() {
        let n = 16;
        let (h00, h01) = random_qep(n, 501);
        let energy = 0.2;
        let reference: Vec<Complex64> = qep_eigenvalues_dense(&h00, &h01, energy)
            .into_iter()
            .filter(|l| {
                let r = l.abs();
                r > 0.5 && r < 2.0
            })
            .collect();
        assert!(!reference.is_empty(), "reference spectrum in the annulus is empty");
        assert!(reference.len() <= 32, "too many target eigenvalues for the test subspace");

        let op00 = DenseOp::new(h00.clone());
        let op01 = DenseOp::new(h01.clone());
        let qep = QepProblem::new(&op00, &op01, energy, 1.0);
        let config = SsConfig {
            n_int: 32,
            n_mm: 8,
            n_rh: 8,
            delta: 1e-12,
            lambda_min: 0.5,
            bicg_tolerance: 1e-12,
            bicg_max_iterations: 5_000,
            residual_cutoff: 1e-6,
            seed: 7,
            ..SsConfig::paper()
        };
        let result = solve_qep_with(&qep, &config, &SerialExecutor);

        // Every reference eigenvalue (away from the contour, where quadrature
        // filtering degrades) must be found to good accuracy.
        let mut matched = 0;
        for r in &reference {
            let rad = r.abs();
            if !(0.55..=1.8).contains(&rad) {
                continue; // too close to the contour for a strict test
            }
            let best = result
                .eigenpairs
                .iter()
                .map(|p| (p.lambda - *r).abs())
                .fold(f64::INFINITY, f64::min);
            assert!(best < 1e-6, "reference λ = {r:?} missed (best distance {best:.2e})");
            matched += 1;
        }
        assert!(matched > 0, "no reference eigenvalue was strictly inside the annulus");

        // And every accepted pair must genuinely solve the QEP.
        for p in &result.eigenpairs {
            assert!(p.residual < 1e-6, "residual {}", p.residual);
            assert!(config.contour().contains(p.lambda, 0.0));
        }
        assert!(result.numerical_rank >= matched);
        assert!(result.total_bicg_iterations > 0);
    }

    #[test]
    fn eigenvalues_come_in_reciprocal_conjugate_pairs() {
        // For Hermitian blocks and real E, if λ is an eigenvalue then so is
        // 1/conj(λ) (time-reversal-like symmetry of the CBS).  The solver
        // must reproduce the pairing.
        let n = 12;
        let (h00, h01) = random_qep(n, 502);
        let op00 = DenseOp::new(h00);
        let op01 = DenseOp::new(h01);
        let qep = QepProblem::new(&op00, &op01, 0.05, 1.0);
        let config = SsConfig {
            n_rh: 8,
            n_mm: 6,
            bicg_tolerance: 1e-12,
            residual_cutoff: 1e-6,
            ..SsConfig::small()
        };
        let result = solve_qep_with(&qep, &config, &SerialExecutor);
        assert!(!result.eigenpairs.is_empty());
        for p in &result.eigenpairs {
            let partner = Complex64::ONE / p.lambda.conj();
            if !config.contour().contains(partner, 0.02) {
                continue;
            }
            let best = result
                .eigenpairs
                .iter()
                .map(|q| (q.lambda - partner).abs())
                .fold(f64::INFINITY, f64::min);
            assert!(
                best < 1e-5 * (1.0 + partner.abs()),
                "partner of {:?} not found (distance {best:.2e})",
                p.lambda
            );
        }
    }

    #[test]
    fn empty_annulus_yields_no_eigenpairs() {
        // With E far outside the spectrum of the band, the QEP has no
        // solutions near the unit circle: all |λ| are either tiny or huge.
        let n = 10;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(503);
        let a = CMatrix::random(n, n, &mut rng);
        let h00 = (&a + &a.adjoint()).scale(c64(0.1, 0.0));
        let h01 = CMatrix::random(n, n, &mut rng).scale(c64(0.01, 0.0));
        let op00 = DenseOp::new(h00);
        let op01 = DenseOp::new(h01);
        // Energy far above the narrow band.
        let qep = QepProblem::new(&op00, &op01, 50.0, 1.0);
        let config = SsConfig::small();
        let result = solve_qep_with(&qep, &config, &SerialExecutor);
        assert!(result.eigenpairs.is_empty(), "unexpected eigenpairs: {:?}", result.lambdas());
    }

    #[test]
    fn moments_without_a_finite_leading_singular_value_extract_nothing() {
        // A zero source block makes every solution and projected moment
        // zero, so the Hankel SVD returns σ₁ = 0; one NaN solution makes
        // σ₁ NaN.  Either way `1/σ` would fill the reduced matrix with
        // non-finite values.  The contract: no eigenpairs, rank 0.
        let (h00, h01) = random_qep(8, 507);
        let (op00, op01) = (DenseOp::new(h00), DenseOp::new(h01));
        let qep = QepProblem::new(&op00, &op01, 0.1, 1.0);
        let config = SsConfig::small();
        let qeps = std::slice::from_ref(&qep);
        let solve = |v_cols: Vec<CVector>| {
            let mut plan = RingPlan::build(qeps, &config).unwrap();
            plan.v_cols = v_cols;
            let trace = cbs_trace::TraceHandle::disabled();
            let outcome = crate::pool::solve_pool(qeps, &plan, trace, &config, &SerialExecutor);
            (outcome.into_iter().next().unwrap(), plan)
        };

        let (zeros, _) = solve(vec![CVector::zeros(qep.dim()); config.n_rh]);
        let result = extract_from_moments(&qep, &config, zeros, 0.0);
        assert!(result.eigenpairs.is_empty());
        assert_eq!(result.numerical_rank, 0);
        assert!(result.hankel_singular_values.iter().all(|&s| s == 0.0));
        assert_eq!(result.total_bicg_iterations, 0);

        let (mut poisoned, plan) = solve(source_block(qep.dim(), &config));
        let nan = CVector::from_vec(vec![c64(f64::NAN, 0.0); qep.dim()]);
        let history = poisoned.histories[0].clone();
        let column = BicgResult { x: nan.clone(), dual_x: nan, history };
        let node = BlockBicgResult { columns: vec![column], traversals: 0 };
        poisoned.record(0, node, &plan.v_cols);
        let result = extract_from_moments(&qep, &config, poisoned, 0.0);
        assert!(result.eigenpairs.is_empty());
        assert_eq!(result.numerical_rank, 0);
    }

    /// The fold the compact store replaced: every centred `Ŝ_k`,
    /// `k = −s … N_mm`, as `N_rh` complex vectors, from the same
    /// `centred_weight` the store starts at.
    fn full_fold(plan: &RingPlan, solved: &[BlockBicgResult]) -> Vec<Vec<CVector>> {
        let n = plan.v_cols[0].len();
        let mut s_moments = vec![vec![CVector::zeros(n); plan.v_cols.len()]; 2 * plan.n_mm];
        for (j, node) in solved.iter().enumerate() {
            let (outer, inner) = plan.nodes[j];
            for (rhs, o) in node.columns.iter().enumerate() {
                let (mut zk_primal, mut zk_dual) =
                    (centred_weight(outer, plan.n_mm), centred_weight(inner, plan.n_mm));
                for s_k in s_moments.iter_mut() {
                    s_k[rhs].axpy(zk_primal, &o.x);
                    s_k[rhs].axpy(zk_dual, &o.dual_x);
                    zk_primal *= outer.z;
                    zk_dual *= inner.z;
                }
            }
        }
        s_moments
    }

    /// The compact store against the full complex fold, on a mirrored ring
    /// (a real pencil applied through the real stencil) and a full one (a
    /// dense complex pencil): its size is what `moment_store_bytes` reports, the
    /// stored `Ŝ_k`, `k ≤ 0`, are the full fold's (its real parts on the
    /// mirrored ring) bit for bit, and every `µ̂_k` is `V†Ŝ_k` to rounding.
    #[test]
    fn the_compact_store_is_the_full_fold_it_replaced() {
        let (h00, h01) = random_qep(12, 509);
        let (d00, d01) = (DenseOp::new(h00), DenseOp::new(h01));
        let pencil = crate::pool::tests::chain_pencil(40);
        let (s00, s01) = (pencil.h00(), pencil.h01());
        let config = SsConfig {
            n_int: 8,
            n_mm: 3,
            n_rh: 3,
            bicg_tolerance: 1e-12,
            precond: PrecondPolicy::MatrixFree,
            ..SsConfig::paper()
        };
        let stencil = QepProblem::new(&s00, &s01, 1.5, 1.0);
        for (qep, mirrored) in [(stencil, true), (QepProblem::new(&d00, &d01, 0.1, 1.0), false)] {
            let plan = RingPlan::build(std::slice::from_ref(&qep), &config).unwrap();
            assert_eq!(plan.mirrored, mirrored);
            // `N_mm N_rh` columns of reals (mirrored) or complex numbers,
            // plus `2 N_mm` complex `N_rh × N_rh` projections.
            let (n_mm, n_rh, scalar) = (config.n_mm, config.n_rh, if mirrored { 8 } else { 16 });
            let bytes = n_mm * n_rh * qep.dim() * scalar + 2 * n_mm * n_rh * n_rh * 16;
            assert_eq!(plan.accumulator().memory_bytes(), bytes);
            let solved: Vec<BlockBicgResult> = (0..plan.n_nodes())
                .map(|j| crate::pool::tests::one_node(&qep, &config, &plan, j))
                .collect();
            assert_eq!(qep.real_stencil().is_some(), mirrored, "the solves ran on the stencil");
            let reference = full_fold(&plan, &solved);
            let mut acc = plan.accumulator();
            for (j, node) in solved.into_iter().enumerate() {
                acc.record(j, node, &plan.v_cols);
            }

            let (columns, mu) = acc.stored();
            assert_eq!(columns.len(), config.n_mm * config.n_rh);
            for (col, stored) in columns.iter().enumerate() {
                let full = &reference[col / config.n_rh][col % config.n_rh];
                let want: CVector = if mirrored {
                    full.iter().map(|z| Complex64::real(z.re)).collect()
                } else {
                    full.clone()
                };
                assert_eq!(stored, &want, "column {col}, mirrored {mirrored}");
            }
            assert_eq!(mu.len(), 2 * config.n_mm);
            for (k, (mu_k, s_k)) in mu.iter().zip(&reference).enumerate() {
                let v = &plan.v_cols;
                let exact = CMatrix::from_fn(config.n_rh, config.n_rh, |r, c| v[r].dot(&s_k[c]));
                let error = (mu_k - &exact).fro_norm();
                assert!(error <= 1e-13 * exact.fro_norm(), "µ̂_{k}: {error:.2e}, {mirrored}");
            }

            let result = extract_from_moments(&qep, &config, acc, 0.0);
            assert_eq!(result.moment_store_bytes, bytes);
            let real = result.projected_moments.iter().flat_map(CMatrix::as_slice);
            assert_eq!(real.clone().all(|z| z.im == 0.0), mirrored);
        }
    }

    #[test]
    fn subspace_size_is_the_moment_times_rhs_product() {
        assert_eq!(SsConfig::paper().subspace_size(), 8 * 16);
        assert_eq!(SsConfig::small().subspace_size(), 4 * 8);
        let tiny = SsConfig { n_mm: 1, n_rh: 1, ..SsConfig::paper() };
        assert_eq!(tiny.subspace_size(), 1);
    }

    #[test]
    fn subspace_larger_than_problem_dimension_is_harmless() {
        // The QEP of an n x n block pencil has at most 2n finite
        // eigenvalues; an N_mm x N_rh subspace far beyond that must not
        // break the solver — the SVD filter simply truncates the rank.
        let n = 4;
        let (h00, h01) = random_qep(n, 505);
        let op00 = DenseOp::new(h00.clone());
        let op01 = DenseOp::new(h01.clone());
        let qep = QepProblem::new(&op00, &op01, 0.1, 1.0);
        let config = SsConfig {
            n_int: 16,
            n_mm: 4,
            n_rh: 4, // subspace 16 > 2n = 8
            delta: 1e-10,
            bicg_tolerance: 1e-12,
            residual_cutoff: 1e-6,
            ..SsConfig::paper()
        };
        assert!(config.subspace_size() > 2 * n);
        let result = solve_qep_with(&qep, &config, &SerialExecutor);
        assert!(
            result.numerical_rank <= 2 * n,
            "rank {} exceeds the QEP's eigenvalue count",
            result.numerical_rank
        );
        assert_eq!(result.hankel_singular_values.len(), config.subspace_size());
        assert_eq!(result.projected_moments.len(), 2 * config.n_mm);
        // Everything it returns still genuinely solves the QEP.
        for p in &result.eigenpairs {
            assert!(p.residual < 1e-6);
        }
        // And it still finds the interior reference eigenvalues.
        let reference: Vec<Complex64> = qep_eigenvalues_dense(&h00, &h01, 0.1)
            .into_iter()
            .filter(|l| l.abs() > 0.55 && l.abs() < 1.8)
            .collect();
        for r in &reference {
            let best = result
                .eigenpairs
                .iter()
                .map(|p| (p.lambda - *r).abs())
                .fold(f64::INFINITY, f64::min);
            assert!(best < 1e-6, "reference λ = {r:?} missed (best {best:.2e})");
        }
    }

    #[test]
    fn subspace_smaller_than_spectrum_still_returns_valid_pairs() {
        // With N_mm * N_rh below the eigenvalue count the projected problem
        // cannot represent the full annulus spectrum; whatever comes back
        // must still be a genuine eigenpair (no spurious solutions).
        let n = 12;
        let (h00, h01) = random_qep(n, 506);
        let op00 = DenseOp::new(h00);
        let op01 = DenseOp::new(h01);
        let qep = QepProblem::new(&op00, &op01, 0.05, 1.0);
        let config = SsConfig {
            n_int: 24,
            n_mm: 2,
            n_rh: 2, // subspace 4, far below the annulus count
            bicg_tolerance: 1e-12,
            residual_cutoff: 1e-6,
            ..SsConfig::paper()
        };
        let result = solve_qep_with(&qep, &config, &SerialExecutor);
        assert!(result.eigenpairs.len() <= config.subspace_size());
        assert!(result.numerical_rank <= config.subspace_size());
        for p in &result.eigenpairs {
            assert!(p.residual < 1e-6);
            assert!(config.contour().contains(p.lambda, 0.0));
        }
    }

    #[test]
    fn timings_and_histories_are_populated() {
        let n = 8;
        let (h00, h01) = random_qep(n, 504);
        let op00 = DenseOp::new(h00);
        let op01 = DenseOp::new(h01);
        let qep = QepProblem::new(&op00, &op01, 0.0, 1.0);
        let config = SsConfig { n_int: 8, n_mm: 4, n_rh: 4, ..SsConfig::small() };
        let result = solve_qep_with(&qep, &config, &SerialExecutor);
        assert_eq!(result.solve_histories.len(), config.n_int * config.n_rh);
        assert!(result.timings.linear_solve_seconds >= 0.0);
        assert!(result.timings.extraction_seconds >= 0.0);
        assert!(result.total_matvecs >= result.total_bicg_iterations);
        assert_eq!(result.hankel_singular_values.len(), config.subspace_size());
    }
}
