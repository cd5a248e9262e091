//! The real stencil as the whole node of the ILU policy: when the blocks
//! convert, `AssembledIlu0` splits `P(z)` by the diagonal ILU of its sparse
//! part in stencil form (`RealStencil::dilu`: `n` pivots, no pattern refill)
//! and runs BiCG on `M_L⁻¹P(z)M_R⁻¹`, one row pass per apply.
//!
//! The oracle is the textbook preconditioned dual BiCG of `tests/common`:
//! per solved node and right-hand side, BiCG on `P(z)` of the same blocks
//! with their stencil hidden ([`Hidden`] forwards every operator method but
//! `stencil_block`, so the generic composition applies them),
//! preconditioned by the same diagonal ILU's sweeps (`M⁻¹` on the primal
//! residuals, `M⁻†` on the dual).
//!
//! * the stencil's diagonal ILU is the textbook one (`tests/common`) to
//!   rounding (`M⁻¹`, `M⁻†`), on fig6 and on the nanotube;
//! * one road: per node, one call of `bicg_dual_block_precond` with the
//!   node's diagonal ILU is bitwise the pool's solve of that node, as
//!   `solve_qep_with` reports it — histories with their certified last
//!   entry, stop reasons, matvecs and traversals — on both executors (the
//!   fold of its solutions into the moments is `cbs-core`'s
//!   `pool::tests::one_call_per_node_is_the_pool_under_the_ilu_policy`);
//! * node by node, those solutions are the oracle's to the BiCG tolerance,
//!   in as many iterations to within 3% — the two stop on different
//!   residuals — with every solve converged in the true residual, on fig6
//!   and on the 605-point (8,0) nanotube;
//! * problems and sweeps over `h.h00()` / `h.h01()` read the Hamiltonian's
//!   own stencil, at every energy, and blocks that are not stencil views
//!   run the ILU policy matrix-free.

use rand::SeedableRng;

use cbs::core::{solve_qep_with, source_block, PrecondPolicy, QepProblem, SsConfig, SsResult};
use cbs::dft::BlockHamiltonian;
use cbs::linalg::{c64, CVector, Complex64};
use cbs::parallel::{RayonExecutor, SerialExecutor};
use cbs::solver::{bicg_dual_block_precond, BlockBicgResult, ConvergenceHistory};
use cbs::sparse::LinearOperator;
use cbs::sweep::{EnergySweep, SweepConfig};

mod common;

/// The oracle's blocks: a forwarding wrapper that keeps the stencil the
/// wrapped view belongs to hidden.
struct Hidden<Op>(Op);

impl<Op: LinearOperator> LinearOperator for Hidden<Op> {
    fn nrows(&self) -> usize {
        self.0.nrows()
    }
    fn ncols(&self) -> usize {
        self.0.ncols()
    }
    fn apply(&self, x: &[Complex64], y: &mut [Complex64]) {
        self.0.apply(x, y);
    }
    fn apply_adjoint(&self, x: &[Complex64], y: &mut [Complex64]) {
        self.0.apply_adjoint(x, y);
    }
    fn apply_block(&self, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
        self.0.apply_block(x, y, nvecs);
    }
    fn apply_adjoint_block(&self, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
        self.0.apply_adjoint_block(x, y, nvecs);
    }
    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }
    fn is_real(&self) -> bool {
        self.0.is_real()
    }
}

fn assert_bitwise(what: &str, a: &SsResult, b: &SsResult) {
    assert_eq!(a.eigenpairs.len(), b.eigenpairs.len(), "{what}: pair count");
    for (p, q) in a.eigenpairs.iter().zip(&b.eigenpairs) {
        assert_eq!(p.lambda.re.to_bits(), q.lambda.re.to_bits(), "{what}");
        assert_eq!(p.lambda.im.to_bits(), q.lambda.im.to_bits(), "{what}");
        assert_eq!(p.residual.to_bits(), q.residual.to_bits(), "{what}");
        assert_eq!(p.psi, q.psi, "{what}");
    }
    assert_eq!(a.projected_moments, b.projected_moments, "{what}: projected moments");
    assert_eq!(a.solve_histories.len(), b.solve_histories.len(), "{what}: history count");
    for (ha, hb) in a.solve_histories.iter().zip(&b.solve_histories) {
        assert_eq!(ha.residuals, hb.residuals, "{what}: histories");
        assert_eq!((ha.stop_reason, ha.matvecs), (hb.stop_reason, hb.matvecs), "{what}");
    }
    assert_eq!(a.total_bicg_iterations, b.total_bicg_iterations, "{what}");
    assert_eq!(a.total_matvecs, b.total_matvecs, "{what}");
    assert_eq!(a.total_traversals, b.total_traversals, "{what}");
}

/// `‖P(x − y)‖ / ‖b‖`: how far apart two solutions of `P x = b` are, in
/// the residual the BiCG tolerance bounds.
fn residual_distance(p: &dyn LinearOperator, x: &CVector, y: &CVector, b: &CVector) -> f64 {
    p.apply_vec(&(x - y)).norm() / b.norm()
}

/// The ILU policy on `config`, the source block of `problem` under it,
/// and each node the pool solves (the upper half of the ring: the blocks
/// are real), in the pool's order, solved by one call with the node's
/// diagonal ILU: `(z, result)`.
fn one_call_per_node(
    problem: &QepProblem<'_>,
    config: &SsConfig,
) -> (SsConfig, Vec<CVector>, Vec<(Complex64, BlockBicgResult)>) {
    let config = SsConfig { precond: PrecondPolicy::AssembledIlu0, ..*config };
    assert!(problem.is_conjugate_symmetric(), "the pool solves the upper half ring");
    let (v, opts) = (source_block(problem.dim(), &config), config.solver_options());
    let nodes = config.contour().outer_points();
    let solved = nodes[..config.n_int.div_ceil(2)]
        .iter()
        .map(|node| {
            let (op, m) = problem.node_solve(config.precond, node.z);
            let m = m.expect("stencil views: the node splits");
            (node.z, bicg_dual_block_precond(&op, Some(&m), &v, &v, None, &opts, None))
        })
        .collect();
    (config, v, solved)
}

/// The (8,0) nanotube's configuration.
fn cnt80_config() -> SsConfig {
    SsConfig {
        n_int: 16,
        n_mm: 6,
        n_rh: 8,
        // As in `tests/conjugate_symmetry.rs`: the two runs differ by the
        // BiCG error, which the eigenvalues hugging the contour (|λ| ≈ 0.57
        // against the 0.5 circle) amplify past 1e-8 at the default 1e-10.
        bicg_tolerance: 1e-12,
        bicg_max_iterations: 2_000,
        residual_cutoff: 1e-4,
        ..SsConfig::paper()
    }
}

/// One road: per node, one call of `bicg_dual_block_precond` with the
/// node's diagonal ILU is the pool's solve bit for bit, as `solve_qep_with`
/// reports it — histories with their certified last entry, stop reasons,
/// matvecs, iterations and traversals — on both executors.
fn assert_one_call_per_node_is_the_pool(
    what: &str,
    h: &BlockHamiltonian,
    energy: f64,
    config: &SsConfig,
) {
    let (h00, h01) = (h.h00(), h.h01());
    let problem = QepProblem::new(&h00, &h01, energy, h.period());
    let (config, _, solved) = one_call_per_node(&problem, config);
    let pooled = solve_qep_with(&problem, &config, &SerialExecutor);
    assert!(problem.real_stencil().is_some_and(|s| std::ptr::eq(s, h.stencil())), "{what}");
    assert!(!pooled.eigenpairs.is_empty(), "{what}: the split route found no eigenpairs");
    assert!(pooled.solve_histories.iter().all(ConvergenceHistory::converged), "{what}");

    // The pool reports node `j`'s histories at `j * N_rh + rhs`, once: its
    // mirror image is not solved.
    let [mut iterations, mut matvecs, mut traversals] = [0; 3];
    let mut histories = pooled.solve_histories.iter();
    for (j, (_, node)) in solved.iter().enumerate() {
        traversals += node.traversals;
        for (r, col) in node.columns.iter().enumerate() {
            let h = histories.next().expect("one history per solve");
            assert_eq!(h.residuals, col.history.residuals, "{what}: node {j} rhs {r}");
            assert_eq!(h.stop_reason, col.history.stop_reason, "{what}: node {j} rhs {r}");
            assert_eq!(h.matvecs, col.history.matvecs, "{what}: node {j} rhs {r}");
            iterations += col.history.iterations();
            matvecs += col.history.matvecs;
        }
    }
    assert_eq!(pooled.solve_histories.len(), solved.len() * config.n_rh, "{what}");
    assert_eq!(pooled.total_bicg_iterations, iterations, "{what}");
    let extraction = pooled.extraction_matvecs;
    assert_eq!(pooled.total_matvecs, matvecs + extraction, "{what}");
    assert_eq!(pooled.total_traversals, traversals + extraction, "{what}");
    let rayon = solve_qep_with(&problem, &config, &RayonExecutor);
    assert_bitwise(&format!("{what} rayon"), &pooled, &rayon);
}

#[test]
fn fig6_and_cnt80_one_call_per_node_is_the_pool() {
    let fig6 = common::fig6_hamiltonian();
    assert_one_call_per_node_is_the_pool("fig6", &fig6, 0.15, &common::fig6_config());
    let cnt80 = common::cnt80_hamiltonian();
    assert_one_call_per_node_is_the_pool("cnt80", &cnt80, 0.2, &cnt80_config());
}

/// The split stencil route against the preconditioned oracle on one system,
/// node by node.
fn assert_split_route_matches_preconditioned_bicg(
    what: &str,
    h: &BlockHamiltonian,
    energy: f64,
    config: &SsConfig,
) {
    assert!(h.h00().projectors().rank() > 0, "{what}: the system must carry projectors");
    let (h00, h01) = (h.h00(), h.h01());
    let (o00, o01) = (Hidden(h.h00()), Hidden(h.h01()));
    let stencil = QepProblem::new(&h00, &h01, energy, h.period());
    let hidden = QepProblem::new(&o00, &o01, energy, h.period());

    // Every solved node, as the pool solves it, against the oracle.  In
    // exact arithmetic the two build the same iterates, but they stop on
    // different residuals: the oracle on its recurrence's, the split route
    // on the split and the mapped ones, confirmed on the true residual.
    let (config, v, solved) = one_call_per_node(&stencil, config);
    let (opts, tol) = (config.solver_options(), config.bicg_tolerance);
    let (mut it, mut it_ref, mut worst) = (0, 0, 0.0f64);
    for (j, (z, node)) in solved.iter().enumerate() {
        let (op, dual_op) = (stencil.operator(*z), stencil.operator(Complex64::ONE / z.conj()));
        let (oracle_op, m) = (hidden.operator(*z), h.stencil().dilu(energy, *z));
        for (r, s) in node.columns.iter().enumerate() {
            let o = common::preconditioned_bicg(&oracle_op, &m, &v[r], &opts);
            assert!(
                s.history.converged(),
                "{what} node {j} rhs {r}: the split route did not converge"
            );
            assert!(o.history.converged(), "{what} node {j} rhs {r}: the oracle did not converge");
            it += s.history.iterations();
            it_ref += o.history.iterations();
            worst = worst
                .max(residual_distance(&op, &s.x, &o.x, &v[r]))
                .max(residual_distance(&dual_op, &s.dual_x, &o.dual_x, &v[r]));
        }
    }
    // Each solution's true residual meets `tol` (the split route certifies
    // its own), so two solutions of one system lie within `2·tol` of each
    // other in the residual.  Measured: fig6 9.5e-11 at `tol` 1e-10, cnt80
    // 1.4e-12 at 1e-12; iterations fig6 1 502 vs 1 508, cnt80 36 139 vs
    // 35 516 (+1.8%), hence 3%.
    eprintln!("{what}: iterations split {it} / oracle {it_ref}, worst distance {worst:.2e}");
    assert!(worst <= 2.0 * tol, "{what}: the solutions are {worst:.2e} apart");
    assert!(it.abs_diff(it_ref) * 100 <= 3 * it_ref, "{what}: {it} vs {it_ref} iterations");
}

// The two tests' names predate the oracle, which preconditioned with the
// factored ILU of the assembled `P(z)`: the policy is still called
// `AssembledIlu0`.
#[test]
fn fig6_stencil_ilu_matches_assembled_ilu() {
    let h = common::fig6_hamiltonian();
    assert_split_route_matches_preconditioned_bicg("fig6", &h, 0.15, &common::fig6_config());
}

#[test]
fn cnt80_stencil_ilu_matches_assembled_ilu() {
    let h = common::cnt80_hamiltonian();
    assert_eq!(h.dim(), 605);
    assert_split_route_matches_preconditioned_bicg("cnt80", &h, 0.2, &cnt80_config());
}

/// On the two physical fixtures, the diagonal ILU swept over the stencil's
/// rows is the textbook D-ILU of the dense sparse part of `P(z)` (the name
/// predates the oracle: it was the factored ILU of the assembled `P(z)`):
/// `M⁻¹` and `M⁻†` agree within 1e-12 relative, at ring nodes on both
/// circles.
#[test]
fn fig6_and_cnt80_stencil_dilu_is_the_assembled_dilu() {
    for (what, h, energy) in
        [("fig6", common::fig6_hamiltonian(), 0.15), ("cnt80", common::cnt80_hamiltonian(), 0.2)]
    {
        let stencil = h.stencil();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1701);
        let r = CVector::random(h.dim() * 3, &mut rng).into_vec();
        let nodes = common::fig6_config().contour().outer_points();
        for z in [nodes[0].z, nodes[1].z, Complex64::ONE / nodes[1].z.conj(), c64(-0.3, 0.5)] {
            let oracle = common::TextbookDilu::new(stencil, energy, z);
            let err = oracle.distance(&stencil.dilu(energy, z), &r, 3);
            assert!(err <= 1e-12, "{what} z {z:?}: {err:.2e}");
        }
    }
}

/// The stencil is the Hamiltonian's only stored operator and holds no scan
/// energy: problems at two energies and every energy of a sweep, all over
/// `h.h00()` / `h.h01()`, read that one instance in place.  Blocks that are
/// not stencil views run either policy matrix-free.
#[test]
fn problems_and_sweeps_read_the_hamiltonians_own_stencil() {
    let h = common::fig6_hamiltonian();
    let own = |problem: &QepProblem<'_>| {
        problem.real_stencil().is_some_and(|s| std::ptr::eq(s, h.stencil()))
    };
    let (h00, h01) = (h.h00(), h.h01());
    let at = |e| QepProblem::new(&h00, &h01, e, h.period());
    assert!(own(&at(0.05)) && own(&at(0.17)));

    let energies = [0.05, 0.09, 0.13, 0.17];
    let mut hidden_iterations = Vec::new();
    for precond in [PrecondPolicy::MatrixFree, PrecondPolicy::AssembledIlu0] {
        let config = SweepConfig::new(SsConfig { precond, ..common::fig6_config() });
        let sweep = EnergySweep::new(&h00, &h01, h.period(), config);
        assert!(energies.iter().all(|&e| own(&sweep.problem_at(e))), "{precond:?}");

        let (o00, o01) = (Hidden(h.h00()), Hidden(h.h01()));
        let hidden = EnergySweep::new(&o00, &o01, h.period(), config);
        assert!(energies.iter().all(|&e| hidden.problem_at(e).real_stencil().is_none()));
        let run = hidden.run(&energies, &SerialExecutor);
        assert!(!run.cbs.points.is_empty(), "{precond:?}");
        hidden_iterations.push(run.stats.total_bicg_iterations);
    }
    // Blocks that are not stencil views run the ILU policy matrix-free.
    assert_eq!(hidden_iterations[0], hidden_iterations[1]);
}
