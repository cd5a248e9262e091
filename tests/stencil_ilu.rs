//! The real stencil as the whole node of the ILU policy: when the blocks
//! convert, `AssembledIlu0` splits `P(z)` by the diagonal ILU of its sparse
//! part in stencil form (`RealStencil::dilu`: `n` pivots, no pattern refill)
//! and runs BiCG on `M_L⁻¹P(z)M_R⁻¹`, one row pass per apply.
//!
//! The oracle is the preconditioned route the benchmark's per-layer replay
//! times: per solved node, BiCG on `P(z)` of the same blocks with their
//! stencil hidden ([`Hidden`] forwards every operator method but
//! `stencil_block`, so the generic composition applies them),
//! preconditioned by the factored diagonal ILU of the refilled sparse-only
//! pattern (`qep_factored().0.assemble(E, z).ilu0()`).
//!
//! * the stencil form is the factored form to rounding (`M⁻¹`, `M⁻†`), on
//!   fig6 and on the nanotube;
//! * node by node, the split route's solutions are the oracle's to the BiCG
//!   tolerance, in as many iterations to within 3% — the two stop on
//!   different residuals — with every solve converged in the true residual
//!   and serial ≡ rayon bitwise, on fig6 and on the 605-point (8,0)
//!   nanotube;
//! * problems and sweeps over `h.h00()` / `h.h01()` read the Hamiltonian's
//!   own stencil, at every energy, and blocks that are not stencil views
//!   run the ILU policy matrix-free.

use rand::SeedableRng;

use cbs::core::{solve_qep_with, source_block, PrecondPolicy, QepProblem, SsConfig, SsResult};
use cbs::dft::BlockHamiltonian;
use cbs::linalg::{c64, CVector, Complex64};
use cbs::parallel::{RayonExecutor, SerialExecutor};
use cbs::solver::{bicg_dual_block_precond, BlockBicgResult, ConvergenceHistory, SolverOptions};
use cbs::sparse::{LinearOperator, Preconditioner, StencilDilu};
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
    for (ha, hb) in a.solve_histories.iter().zip(&b.solve_histories) {
        assert_eq!(ha.residuals, hb.residuals, "{what}: histories");
    }
    assert_eq!(a.total_bicg_iterations, b.total_bicg_iterations, "{what}");
    assert_eq!(a.total_matvecs, b.total_matvecs, "{what}");
    assert_eq!(a.total_traversals, b.total_traversals, "{what}");
}

/// One node as the pool's split route solves it: BiCG on `M_L⁻¹P(z)M_R⁻¹`
/// from the split right-hand sides, the solutions mapped back.  (The pool
/// then certifies the true residuals, which ends each history on that
/// residual and changes no iterate.)
fn split_solve(m: &StencilDilu<'_>, v: &[CVector], opts: &SolverOptions) -> BlockBicgResult {
    let rhs = |dual| -> Vec<CVector> {
        let mut b = v.to_vec();
        b.iter_mut().for_each(|b| m.split_rhs(dual, b.as_mut_slice(), 1));
        b
    };
    let none = None::<&dyn Preconditioner>;
    let mut solved =
        bicg_dual_block_precond(&m.split(), none, &rhs(false), &rhs(true), None, opts, None);
    for col in &mut solved.columns {
        m.unsplit(false, col.x.as_mut_slice(), 1);
        m.unsplit(true, col.dual_x.as_mut_slice(), 1);
    }
    solved
}

/// `‖P(x − y)‖ / ‖b‖`: how far apart two solutions of `P x = b` are, in
/// the residual the BiCG tolerance bounds.
fn residual_distance(p: &dyn LinearOperator, x: &CVector, y: &CVector, b: &CVector) -> f64 {
    p.apply_vec(&(x - y)).norm() / b.norm()
}

/// The split stencil route against the preconditioned oracle on one system,
/// node by node.
fn assert_stencil_ilu_matches_assembled_ilu(
    what: &str,
    h: &BlockHamiltonian,
    energy: f64,
    config: &SsConfig,
) {
    let (pattern, projector) = h.qep_factored();
    assert!(!projector.is_empty(), "{what}: the system must carry projectors");
    let config = SsConfig { precond: PrecondPolicy::AssembledIlu0, ..*config };
    let (h00, h01) = (h.h00(), h.h01());
    let (o00, o01) = (Hidden(h.h00()), Hidden(h.h01()));
    let stencil = QepProblem::new(&h00, &h01, energy, h.period());
    let hidden = QepProblem::new(&o00, &o01, energy, h.period());

    let fused = solve_qep_with(&stencil, &config, &SerialExecutor);
    assert!(stencil.real_stencil().is_some_and(|s| std::ptr::eq(s, h.stencil())), "{what}");
    assert!(!fused.eigenpairs.is_empty(), "{what}: the split route found no eigenpairs");
    assert!(fused.solve_histories.iter().all(ConvergenceHistory::converged), "{what}");

    // Every solved node: the split route, which is the pool's (same
    // histories up to the certified last entry), against the oracle.  In
    // exact arithmetic the two build the same iterates, but they stop on
    // different residuals: the oracle on its recurrence's, the split route
    // on the split and the mapped ones, confirmed on the true residual.
    let (v, opts) = (source_block(h.dim(), &config), config.solver_options());
    let tol = config.bicg_tolerance;
    let (mut it, mut it_ref, mut worst) = (0, 0, 0.0f64);
    let n_rh = config.n_rh;
    for (j, node) in
        config.contour().outer_points().iter().take(config.n_int.div_ceil(2)).enumerate()
    {
        let (op, m) = stencil.node_solve(config.precond, node.z);
        let dual_op = stencil.operator(Complex64::ONE / node.z.conj());
        let split = split_solve(&m.expect("stencil views: the node splits"), &v, &opts);
        let ilu = pattern.assemble(energy, node.z).ilu0();
        let oracle = bicg_dual_block_precond(
            &hidden.operator(node.z),
            Some(&ilu),
            &v,
            &v,
            None,
            &opts,
            None,
        );
        for (r, (s, o)) in split.columns.iter().zip(&oracle.columns).enumerate() {
            let pooled = &fused.solve_histories[j * n_rh + r].residuals;
            let own = &s.history.residuals;
            assert_eq!(pooled[..pooled.len() - 1], own[..own.len() - 1], "{what} node {j} rhs {r}");
            assert!(o.both_converged(), "{what} node {j} rhs {r}: the oracle did not converge");
            it += s.history.iterations();
            it_ref += o.history.iterations();
            worst = worst
                .max(residual_distance(&op, &s.x, &o.x, &v[r]))
                .max(residual_distance(&dual_op, &s.dual_x, &o.dual_x, &v[r]));
        }
    }
    // Each solution's true residual meets `tol` (the split route certifies
    // its own), so two solutions of one system lie within `2·tol` of each
    // other in the residual.  Measured: fig6 9.1e-11 at `tol` 1e-10, cnt80
    // 1.7e-12 at 1e-12; iterations fig6 1 502 vs 1 506, cnt80 36 139 vs
    // 35 560 (+1.6%), hence 3%.
    eprintln!("{what}: iterations split {it} / oracle {it_ref}, worst distance {worst:.2e}");
    assert!(worst <= 2.0 * tol, "{what}: the solutions are {worst:.2e} apart");
    assert!(it.abs_diff(it_ref) * 100 <= 3 * it_ref, "{what}: {it} vs {it_ref} iterations");

    // The determinism contract holds on the split route.
    let rayon = solve_qep_with(&stencil, &config, &RayonExecutor);
    assert_bitwise(&format!("{what} rayon"), &fused, &rayon);
}

#[test]
fn fig6_stencil_ilu_matches_assembled_ilu() {
    let h = common::fig6_hamiltonian();
    assert_stencil_ilu_matches_assembled_ilu("fig6", &h, 0.15, &common::fig6_config());
}

#[test]
fn cnt80_stencil_ilu_matches_assembled_ilu() {
    let h = common::cnt80_hamiltonian();
    assert_eq!(h.dim(), 605);
    let config = SsConfig {
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
    };
    assert_stencil_ilu_matches_assembled_ilu("cnt80", &h, 0.2, &config);
}

/// On the two physical fixtures, the diagonal ILU swept over the stencil's
/// rows is the factored one over the sparse-only pattern: `M⁻¹` and `M⁻†`
/// agree within 1e-12 relative, at ring nodes on both circles.
#[test]
fn fig6_and_cnt80_stencil_dilu_is_the_assembled_dilu() {
    for (what, h, energy) in
        [("fig6", common::fig6_hamiltonian(), 0.15), ("cnt80", common::cnt80_hamiltonian(), 0.2)]
    {
        let (pattern, _) = h.qep_factored();
        let stencil = h.stencil();
        let n = h.dim();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1701);
        let nvecs = 3;
        let r = CVector::random(n * nvecs, &mut rng).into_vec();
        let solves = |m: &dyn Preconditioner| {
            let (mut z, mut zt) = (r.clone(), r.clone());
            m.solve_block(&r, &mut z, nvecs);
            m.solve_adjoint_block(&r, &mut zt, nvecs);
            [z, zt]
        };
        let nodes = common::fig6_config().contour().outer_points();
        for z in [nodes[0].z, nodes[1].z, Complex64::ONE / nodes[1].z.conj(), c64(-0.3, 0.5)] {
            let got = solves(&stencil.dilu(energy, z));
            let want = solves(&pattern.assemble(energy, z).ilu0());
            for (side, (g, w)) in got.iter().zip(&want).enumerate() {
                let diff: f64 = g.iter().zip(w).map(|(a, b)| (*a - *b).norm_sqr()).sum();
                let norm: f64 = w.iter().map(|v| v.norm_sqr()).sum();
                let err = (diff / norm).sqrt();
                assert!(err <= 1e-12, "{what} z {z:?} side {side}: {err:.2e}");
            }
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
