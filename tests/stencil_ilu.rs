//! The real stencil as the whole node of the ILU policy: when the blocks
//! convert, `AssembledIlu0` splits `P(z)` by the diagonal ILU of its sparse
//! part in stencil form (`RealStencil::dilu`: `n` pivots, no pattern refill)
//! and runs BiCG on `M_L⁻¹P(z)M_R⁻¹`, one row pass per apply.
//!
//! There is no knob to switch that off, so the oracle is a wrapper:
//! [`Parts::hidden`] forwards every operator method — `is_real` included, so
//! both sides run the mirrored half ring — but not `sparse_lowrank_parts`,
//! which leaves the ILU policy on the assembled CSR and its factored
//! diagonal ILU.
//!
//! * the stencil form is the factored form to rounding (`M⁻¹`, `M⁻†`), on
//!   fig6 and on the nanotube;
//! * split stencil + D-ILU finds the preconditioned assembled + D-ILU
//!   spectrum (≤ 1e-8) in as many iterations to within 3% — the two stop on
//!   different residuals — with no pattern refill, every solve converged in
//!   the true residual, serial ≡ rayon bitwise, on fig6 and on the 605-point
//!   (8,0) nanotube;
//! * a sweep converts one stencil for all its energies, and blocks that do
//!   not convert are asked once, not once per energy.

use std::sync::atomic::{AtomicUsize, Ordering};

use rand::SeedableRng;

use cbs::core::{solve_qep_with, PrecondPolicy, QepProblem, SsConfig, SsResult};
use cbs::dft::BlockHamiltonian;
use cbs::linalg::{c64, CVector, Complex64};
use cbs::parallel::{RayonExecutor, SerialExecutor};
use cbs::solver::ConvergenceHistory;
use cbs::sparse::{CsrMatrix, LinearOperator, LowRankOp, Preconditioner, RealStencil};
use cbs::sweep::{EnergySweep, SweepConfig};

mod common;

/// A forwarding wrapper that counts how often it is asked for its
/// `sparse_lowrank_parts` and either passes the answer on or keeps the parts
/// hidden.
struct Parts<Op> {
    inner: Op,
    expose: bool,
    asked: AtomicUsize,
}

impl<Op> Parts<Op> {
    /// Forwards everything; only counts.
    fn counted(inner: Op) -> Self {
        Self { inner, expose: true, asked: AtomicUsize::new(0) }
    }

    /// The oracle: the same operator, parts hidden.
    fn hidden(inner: Op) -> Self {
        Self { expose: false, ..Self::counted(inner) }
    }

    fn asked(&self) -> usize {
        self.asked.load(Ordering::Relaxed)
    }
}

impl<Op: LinearOperator> LinearOperator for Parts<Op> {
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
    fn apply_block(&self, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
        self.inner.apply_block(x, y, nvecs);
    }
    fn apply_adjoint_block(&self, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
        self.inner.apply_adjoint_block(x, y, nvecs);
    }
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
    fn traversal_weight(&self) -> usize {
        self.inner.traversal_weight()
    }
    fn is_real(&self) -> bool {
        self.inner.is_real()
    }
    fn sparse_lowrank_parts(&self) -> Option<(&CsrMatrix, &LowRankOp)> {
        self.asked.fetch_add(1, Ordering::Relaxed);
        self.inner.sparse_lowrank_parts().filter(|_| self.expose)
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
    assert_eq!(a.operator_assemblies, b.operator_assemblies, "{what}");
}

/// Stencil + ILU against assembled + ILU on one system, with the factored
/// backend (sparse-only pattern + projector) attached.
fn assert_stencil_ilu_matches_assembled_ilu(
    what: &str,
    h: &BlockHamiltonian,
    energy: f64,
    config: &SsConfig,
) {
    let (pattern, projector) = h.qep_factored();
    assert!(!projector.is_empty(), "{what}: the system must carry projectors");
    let (h00, h01) = (h.h00(), h.h01());
    let (o00, o01) = (Parts::hidden(h.h00()), Parts::hidden(h.h01()));
    let config = SsConfig { precond: PrecondPolicy::AssembledIlu0, ..*config };
    let stencil = QepProblem::new(&h00, &h01, energy, h.period())
        .with_pattern(&pattern)
        .with_projector(&projector);
    let assembled = QepProblem::new(&o00, &o01, energy, h.period())
        .with_pattern(&pattern)
        .with_projector(&projector);
    assert!(stencil.is_conjugate_symmetric() && assembled.is_conjugate_symmetric());

    let fused = solve_qep_with(&stencil, &config, &SerialExecutor);
    let reference = solve_qep_with(&assembled, &config, &SerialExecutor);
    assert_eq!(stencil.real_stencil().map(RealStencil::dim), Some(h.dim()), "{what}");
    assert!(assembled.real_stencil().is_none(), "{what}: the oracle must not convert");

    // Same spectrum ...
    assert!(!reference.eigenpairs.is_empty(), "{what}: the reference found no eigenpairs");
    assert_eq!(fused.eigenpairs.len(), reference.eigenpairs.len(), "{what}: pair count");
    for p in &fused.eigenpairs {
        let best = reference
            .eigenpairs
            .iter()
            .map(|q| (q.lambda - p.lambda).abs())
            .fold(f64::INFINITY, f64::min);
        assert!(best <= 1e-8, "{what}: λ = {:?} is {best:.2e} from the reference", p.lambda);
        assert!(p.residual <= config.residual_cutoff, "{what}");
    }
    // ... from about the same work.  In exact arithmetic the split and the
    // preconditioned recurrence build the same iterates, but they stop on
    // different residuals: the reference on its recurrence's, the split route
    // on the split and the mapped ones, `M_L r̂`, confirmed on the true
    // residual inside BiCG.  Measured: fig6 1 502 vs 1 503 (−0.1%), cnt80
    // 36 139 vs 35 635 (+1.4%), hence 3%.  Only the reference refilled the
    // pattern, once per solved node.
    let (it, it_ref) = (fused.total_bicg_iterations, reference.total_bicg_iterations);
    eprintln!("{what}: iterations stencil {it} / assembled {it_ref}");
    assert!(it.abs_diff(it_ref) * 100 <= 3 * it_ref, "{what}: {it} vs {it_ref} iterations");
    assert!(fused.solve_histories.iter().all(ConvergenceHistory::converged), "{what}");
    assert_eq!(fused.operator_assemblies, 0, "{what}");
    assert_eq!(reference.operator_assemblies, config.n_int.div_ceil(2), "{what}");
    // Residual checks run matrix-free under every policy: one storage
    // traversal each where the stencil exists, three where it does not.
    assert_eq!(fused.extraction_traversals, fused.extraction_matvecs, "{what}");
    assert_eq!(reference.extraction_traversals, 3 * reference.extraction_matvecs, "{what}");

    // The determinism contract holds on the new path.
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
        let (h00, h01) = (h.h00(), h.h01());
        let stencil = RealStencil::try_new(
            h00.sparse_lowrank_parts().expect("BlockOp exposes its parts"),
            h01.sparse_lowrank_parts().expect("BlockOp exposes its parts"),
        )
        .expect("a cbs-dft Hamiltonian converts");
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

/// The stencil does not depend on the scan energy: a sweep converts it once
/// and every energy's problem reads that one instance; blocks that do not
/// convert are asked once for the whole sweep.
#[test]
fn warm_sweep_converts_one_stencil_for_all_energies() {
    let h = common::fig6_hamiltonian();
    let energies = [0.05, 0.09, 0.13, 0.17];
    for precond in [PrecondPolicy::MatrixFree, PrecondPolicy::AssembledIlu0] {
        let ss = SsConfig { precond, ..common::fig6_config() };
        let config = SweepConfig::new(ss);

        let (c00, c01) = (Parts::counted(h.h00()), Parts::counted(h.h01()));
        let sweep = EnergySweep::new(&c00, &c01, h.period(), config).with_pattern(h.qep_pattern());
        // Nothing is converted before the first solve needs it.
        assert!(sweep.problem_at(energies[0]).real_stencil().is_none());
        assert_eq!((c00.asked(), c01.asked()), (0, 0), "{precond:?}");
        let run = sweep.run(&energies, &SerialExecutor);
        assert_eq!((c00.asked(), c01.asked()), (1, 1), "{precond:?}: one conversion per sweep");
        let shared: Vec<*const _> = energies
            .iter()
            .map(|&e| {
                let problem = sweep.problem_at(e);
                let stencil = problem.real_stencil().expect("the sweep's stencil") as *const _;
                assert_eq!(problem.traversal_weight(), 1);
                stencil
            })
            .collect();
        assert!(shared.windows(2).all(|w| w[0] == w[1]), "{precond:?}: one instance");
        // A second run of the same sweep object converts nothing more.
        let again = sweep.run(&energies, &RayonExecutor);
        assert_eq!((c00.asked(), c01.asked()), (1, 1), "{precond:?}");
        assert_eq!(again.stats.total_bicg_iterations, run.stats.total_bicg_iterations);

        let (o00, o01) = (Parts::hidden(h.h00()), Parts::hidden(h.h01()));
        let sweep = EnergySweep::new(&o00, &o01, h.period(), config).with_pattern(h.qep_pattern());
        let hidden = sweep.run(&energies, &SerialExecutor);
        // `H₀₀` said no, once; `H₀₁` was never asked, let alone per energy.
        assert_eq!((o00.asked(), o01.asked()), (1, 0), "{precond:?}: the refusal is remembered");
        assert!(energies.iter().all(|&e| sweep.problem_at(e).real_stencil().is_none()));
        // The stencil sweep refills nothing under either policy; the hidden
        // blocks refill the pattern per solved node under the ILU policy.
        assert_eq!(run.stats.operator_assemblies, 0, "{precond:?}");
        assert_eq!(hidden.stats.operator_assemblies > 0, precond.is_assembled(), "{precond:?}");
        assert_eq!(hidden.cbs.points.len(), run.cbs.points.len(), "{precond:?}");
    }
}
