//! The complex-band-structure driver: sweep the scan energy, solve the QEP
//! at each energy with the Sakurai-Sugiura method, and convert the Bloch
//! factors into complex wave numbers.
//!
//! This is the user-facing entry point that reproduces the paper's Figures 6
//! and 11: `k(E)` curves with a real branch (propagating states, `|λ| = 1`)
//! and imaginary branches (evanescent states).

use serde::{Deserialize, Serialize};

use cbs_linalg::Complex64;
use cbs_parallel::{SerialExecutor, TaskExecutor};
use cbs_sparse::LinearOperator;
use cbs_trace::Stage;

use crate::qep::QepProblem;
use crate::ss::{solve_qep_with, SsConfig, SsResult};

/// Tolerance on `| |λ| - 1 |` below which a state is classified as
/// propagating (a real-k Bloch state).
pub const PROPAGATING_TOLERANCE: f64 = 1e-6;

/// One solution of the CBS at one energy.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CbsPoint {
    /// Scan energy (hartree).
    pub energy: f64,
    /// Index of the scan energy in [`ComplexBandStructure::energies`].
    /// Grouping by index (rather than comparing `energy` for float
    /// equality) is what the per-energy helpers rely on.
    pub energy_index: usize,
    /// The Bloch factor `λ`.
    pub lambda: Complex64,
    /// Real part of the wave number `k` (1/bohr), folded into `(-π/a, π/a]`.
    pub k_re: f64,
    /// Imaginary part of the wave number (1/bohr); zero for propagating
    /// states, positive for states decaying in the `+z` direction.
    pub k_im: f64,
    /// `true` when `|λ| = 1` within [`PROPAGATING_TOLERANCE`].
    pub propagating: bool,
    /// QEP residual of the eigenpair.
    pub residual: f64,
}

/// Complex band structure over a set of scan energies.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ComplexBandStructure {
    /// All solutions found, grouped by nothing in particular; filter by
    /// energy or use the helper methods.
    pub points: Vec<CbsPoint>,
    /// The scan energies, in the order they were processed.
    pub energies: Vec<f64>,
}

impl ComplexBandStructure {
    /// Solutions at a particular energy (by index into `energies`).
    pub fn at_energy(&self, index: usize) -> impl Iterator<Item = &CbsPoint> {
        self.points.iter().filter(move |p| p.energy_index == index)
    }

    /// Only the propagating (real-k) states.
    pub fn propagating(&self) -> impl Iterator<Item = &CbsPoint> {
        self.points.iter().filter(|p| p.propagating)
    }

    /// Only the evanescent states.
    pub fn evanescent(&self) -> impl Iterator<Item = &CbsPoint> {
        self.points.iter().filter(|p| !p.propagating)
    }

    /// Number of propagating modes at each scan energy — the "number of
    /// conducting channels" curve used in transport analyses.  One pass over
    /// the points, grouped by `energy_index`.
    pub fn channel_counts(&self) -> Vec<(f64, usize)> {
        let mut counts = vec![0usize; self.energies.len()];
        for p in &self.points {
            if p.propagating {
                counts[p.energy_index] += 1;
            }
        }
        self.energies.iter().copied().zip(counts).collect()
    }
}

/// Aggregated statistics of a CBS sweep (feeds the benchmark reports).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct CbsStatistics {
    /// Total BiCG iterations over the whole sweep.
    pub total_bicg_iterations: usize,
    /// Total operator applications (matvec-equivalents: the per-column
    /// work, however the applies were fused).
    pub total_matvecs: usize,
    /// Operator-storage traversals actually performed (weighted by the
    /// operator's `traversal_weight`) — the figure the per-node block data
    /// path shrinks by up to `N_rh`x relative to
    /// [`total_matvecs`](Self::total_matvecs), and the assembled operator
    /// shrinks by a further 3x per apply.
    pub operator_traversals: usize,
    /// Numeric refills of the assembled `P(z)` pattern: one per solved node
    /// whose operator is the assembled CSR; zero under
    /// `PrecondPolicy::MatrixFree` and on blocks that convert to the real
    /// stencil, whose diagonal ILU refills nothing.
    pub operator_assemblies: usize,
    /// Equal to [`total_bicg_iterations`](Self::total_bicg_iterations):
    /// every solve starts cold.  Vestige, released by ROADMAP 1(a).
    pub cold_bicg_iterations: usize,
    /// Always 0.  Vestige, released by ROADMAP 1(a).
    pub warm_bicg_iterations: usize,
    /// Number of shifted solves (primal + dual pairs), all cold.  Vestige,
    /// released by ROADMAP 1(a).
    pub cold_solves: usize,
    /// Always 0.  Vestige, released by ROADMAP 1(a).
    pub warm_started_solves: usize,
    /// Scan energies added by adaptive grid refinement (zero for the fixed
    /// grid of [`compute_cbs`]).
    pub refined_energies: usize,
    /// Seconds in linear solves.
    pub linear_solve_seconds: f64,
    /// Seconds in eigenpair extraction.
    pub extraction_seconds: f64,
    /// **CPU** nanoseconds spent inside the sparse operator kernels (CSR
    /// and low-rank matvec/adjoint applications), from the `cbs-trace`
    /// stage counters: span durations summed **across threads**.  Under
    /// `SerialExecutor` this equals wall time; under `RayonExecutor` it can
    /// exceed the wall clock (up to `threads ×`).  A subset of the
    /// linear-solve cost; the remainder is vector algebra and solver
    /// bookkeeping.
    #[serde(default)]
    pub kernel_ns: u64,
    /// **CPU** nanoseconds spent in preconditioner work (ILU(0)
    /// factorizations and triangular solves), summed across threads like
    /// [`kernel_ns`](Self::kernel_ns).
    #[serde(default)]
    pub precond_ns: u64,
    /// **CPU** nanoseconds in eigenpair extraction (the `cbs-trace`
    /// `extraction` stage counter; extraction runs on the calling thread,
    /// so this also mirrors
    /// [`extraction_seconds`](Self::extraction_seconds)).
    #[serde(default)]
    pub extraction_ns: u64,
    /// **Wall** nanoseconds during which at least one thread was inside an
    /// operator kernel — the span-merged (interval-union) counterpart of
    /// [`kernel_ns`](Self::kernel_ns).  Only filled while a
    /// `cbs_trace::TraceSession` is recording; zero otherwise.
    #[serde(default)]
    pub kernel_wall_ns: u64,
    /// **Wall** nanoseconds of preconditioner work (span-merged); zero
    /// without an active trace session.
    #[serde(default)]
    pub precond_wall_ns: u64,
    /// **Wall** nanoseconds of eigenpair extraction (span-merged); zero
    /// without an active trace session.
    #[serde(default)]
    pub extraction_wall_ns: u64,
    /// Total eigenpairs accepted.
    pub accepted: usize,
    /// Total candidates discarded by the residual filter.
    pub discarded: usize,
}

/// Result of [`compute_cbs`].
#[derive(Clone, Debug)]
pub struct CbsRun {
    /// The band structure itself.
    pub cbs: ComplexBandStructure,
    /// Aggregated solver statistics.
    pub stats: CbsStatistics,
    /// The per-energy Sakurai-Sugiura results (histories, ranks, …).
    pub per_energy: Vec<SsResult>,
}

/// Fold a real wave number into the first Brillouin zone `(-π/a, π/a]`.
fn fold_k(k: f64, a: f64) -> f64 {
    let g = 2.0 * std::f64::consts::PI / a;
    let mut kk = k % g;
    if kk > g / 2.0 {
        kk -= g;
    }
    if kk <= -g / 2.0 {
        kk += g;
    }
    kk
}

/// Compute the complex band structure of the block Hamiltonian described by
/// `h00`/`h01` over the given scan energies, solving serially.
///
/// `period` is the lattice constant along the transport direction (bohr).
/// The blocks are arbitrary [`LinearOperator`]s — dense matrices enter
/// through `cbs_sparse::DenseOp`, sparse and matrix-free operators come as
/// they are.
pub fn compute_cbs(
    h00: &dyn LinearOperator,
    h01: &dyn LinearOperator,
    period: f64,
    energies: &[f64],
    config: &SsConfig,
) -> CbsRun {
    compute_cbs_with(h00, h01, period, energies, config, &SerialExecutor)
}

/// Compute the complex band structure with the shifted solves of every
/// energy dispatched through the given [`TaskExecutor`].
///
/// Executors do not change the result (see `tests/determinism.rs`), only
/// how the `N_int x N_rh` independent solves per energy are scheduled.
pub fn compute_cbs_with<E: TaskExecutor>(
    h00: &dyn LinearOperator,
    h01: &dyn LinearOperator,
    period: f64,
    energies: &[f64],
    config: &SsConfig,
    executor: &E,
) -> CbsRun {
    let mut cbs = ComplexBandStructure { points: Vec::new(), energies: energies.to_vec() };
    let mut stats = CbsStatistics::default();
    let mut per_energy = Vec::with_capacity(energies.len());
    let cpu_start = cbs_trace::cpu_totals();
    let trace_t0 = cbs_trace::now_ns();

    for (energy_index, &energy) in energies.iter().enumerate() {
        // Tag every span of this energy's solves (and the extraction on
        // this thread) with the scan-energy index; the solvers inherit the
        // context through `TraceHandle::resolve`.
        let _energy_ctx = cbs_trace::ctx_scope(cbs_trace::SpanCtx::NONE.with_energy(energy_index));
        let problem = QepProblem::new(h00, h01, energy, period);
        let result = solve_qep_with(&problem, config, executor);
        stats.total_bicg_iterations += result.total_bicg_iterations;
        stats.total_matvecs += result.total_matvecs;
        stats.operator_traversals += result.total_traversals;
        stats.operator_assemblies += result.operator_assemblies;
        stats.cold_bicg_iterations += result.total_bicg_iterations;
        stats.cold_solves += result.shifted_solves;
        stats.linear_solve_seconds += result.timings.linear_solve_seconds;
        stats.extraction_seconds += result.timings.extraction_seconds;
        stats.accepted += result.eigenpairs.len();
        stats.discarded += result.discarded;

        for pair in &result.eigenpairs {
            cbs.points.push(classify_point(&problem, energy_index, pair));
        }
        per_energy.push(result);
    }
    // CPU nanoseconds per stage over this run (summed across threads).
    let cpu_end = cbs_trace::cpu_totals();
    let cpu = |stage: Stage| cpu_end[stage as usize].wrapping_sub(cpu_start[stage as usize]);
    stats.kernel_ns = cpu(Stage::Kernel);
    stats.precond_ns = cpu(Stage::IluFactor) + cpu(Stage::TriSweep);
    stats.extraction_ns = cpu(Stage::Extraction);
    // Wall-clock attribution (span-merged across threads) is only available
    // while a session records spans; the fields stay zero otherwise.
    if let Some(agg) = cbs_trace::aggregate_window(trace_t0, cbs_trace::now_ns()) {
        stats.kernel_wall_ns = agg.wall(Stage::Kernel);
        stats.precond_wall_ns = agg.wall(Stage::IluFactor) + agg.wall(Stage::TriSweep);
        stats.extraction_wall_ns = agg.wall(Stage::Extraction);
    }
    CbsRun { cbs, stats, per_energy }
}

/// Convert one accepted QEP eigenpair into a classified [`CbsPoint`].
///
/// Shared by the per-energy loop above and the `cbs-sweep` orchestrator so
/// both produce bit-identical points from the same eigenpair.
pub fn classify_point(
    problem: &QepProblem<'_>,
    energy_index: usize,
    pair: &crate::ss::QepEigenpair,
) -> CbsPoint {
    let (k_re, k_im) = problem.lambda_to_k(pair.lambda);
    CbsPoint {
        energy: problem.energy,
        energy_index,
        lambda: pair.lambda,
        k_re: fold_k(k_re, problem.period),
        k_im,
        propagating: (pair.lambda.abs() - 1.0).abs() < PROPAGATING_TOLERANCE,
        residual: pair.residual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_linalg::{c64, CMatrix};
    use cbs_sparse::DenseOp;
    use rand::SeedableRng;

    #[test]
    fn fold_k_maps_into_first_zone() {
        let a = 2.0;
        let g = std::f64::consts::PI / a;
        assert!((fold_k(0.3, a) - 0.3).abs() < 1e-14);
        assert!(fold_k(2.0 * g + 0.1, a) - 0.1 < 1e-12);
        assert!(fold_k(1.7, a).abs() <= g + 1e-12);
        assert!(fold_k(-1.7, a).abs() <= g + 1e-12);
    }

    #[test]
    fn cbs_sweep_produces_classified_points() {
        let n = 10;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(601);
        let a = CMatrix::random(n, n, &mut rng);
        let h00 = (&a + &a.adjoint()).scale(c64(0.5, 0.0));
        let h01 = CMatrix::random(n, n, &mut rng).scale(c64(0.3, 0.0));
        let op00 = DenseOp::new(h00);
        let op01 = DenseOp::new(h01);
        let energies = [-0.3, 0.0, 0.3];
        let config = SsConfig {
            n_rh: 6,
            n_mm: 6,
            bicg_tolerance: 1e-11,
            residual_cutoff: 1e-6,
            majority_stop: false,
            ..SsConfig::small()
        };
        let run = compute_cbs(&op00, &op01, 1.7, &energies, &config);
        assert_eq!(run.cbs.energies.len(), 3);
        assert_eq!(run.per_energy.len(), 3);
        assert!(run.stats.total_bicg_iterations > 0);
        assert_eq!(
            run.stats.accepted,
            run.cbs.points.len(),
            "every accepted eigenpair becomes a CBS point"
        );
        let g_half = std::f64::consts::PI / 1.7;
        for p in &run.cbs.points {
            // k_re folded into the first Brillouin zone.
            assert!(p.k_re.abs() <= g_half + 1e-9);
            // Classification consistent with |λ|.
            assert_eq!(p.propagating, (p.lambda.abs() - 1.0).abs() < PROPAGATING_TOLERANCE);
            // λ and k are consistent: |λ| = exp(-k_im * a).
            assert!(((-p.k_im * 1.7).exp() - p.lambda.abs()).abs() < 1e-9);
            assert!(p.residual <= config.residual_cutoff);
        }
        // Per-energy grouping goes through `energy_index`, not float
        // comparison: every point carries a valid index and `at_energy`
        // partitions the point set.
        let mut grouped = 0;
        for (i, &e) in run.cbs.energies.iter().enumerate() {
            for p in run.cbs.at_energy(i) {
                assert_eq!(p.energy_index, i);
                assert_eq!(p.energy, e);
                grouped += 1;
            }
        }
        assert_eq!(grouped, run.cbs.points.len());
        // Channel counts cover every energy.
        let counts = run.cbs.channel_counts();
        assert_eq!(counts.len(), 3);
        let total_prop: usize = counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total_prop, run.cbs.propagating().count());
        assert_eq!(
            run.cbs.points.len(),
            run.cbs.propagating().count() + run.cbs.evanescent().count()
        );
    }
}
