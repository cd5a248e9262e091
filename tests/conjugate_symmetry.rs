//! The conjugate-symmetric quadrature (`P(z̄) = conj P(z)` for real blocks):
//! equivalence with the full contour, exact work accounting, and the cases
//! where the shortcut must *not* engage.
//!
//! There is no knob to switch the shortcut off, so the oracle is a wrapper:
//! [`NotReal`] delegates every operator method but keeps the trait's default
//! `is_real() == false`, which forces the full node list with the very same
//! real source block.

use proptest::prelude::*;
use rand::SeedableRng;

use cbs::core::{solve_qep_with, PrecondPolicy, QepProblem, SsConfig, SsResult};
use cbs::linalg::{c64, CMatrix, Complex64};
use cbs::parallel::{RayonExecutor, SerialExecutor};
use cbs::solver::ConvergenceHistory;
use cbs::sparse::{
    CooBuilder, CsrMatrix, DenseOp, FactoredProjector, LinearOperator, LowRankOp, SparseVec,
    StencilBlock,
};

mod common;

/// Test-only oracle: the wrapped operator, minus the knowledge that it is
/// real.
struct NotReal<Op>(Op);

impl<Op: LinearOperator> LinearOperator for NotReal<Op> {
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
    fn stencil_block(&self) -> Option<StencilBlock<'_>> {
        self.0.stencil_block()
    }
}

/// Number of nodes a mirrored `n_int`-ring actually solves.
fn solved_nodes(n_int: usize) -> usize {
    n_int.div_ceil(2)
}

/// `mirrored` is the full-contour result up to solver tolerance, with the
/// work of exactly the upper half-plane nodes of `full`, and a spectrum
/// closed under conjugation bit for bit.
fn assert_mirrored_matches_full(what: &str, mirrored: &SsResult, full: &SsResult, c: &SsConfig) {
    let n_solved = solved_nodes(c.n_int);
    assert!(!full.eigenpairs.is_empty(), "{what}: the full contour found no eigenpairs");

    // Half the work: one record per solve run.
    assert_eq!(full.solve_histories.len(), c.n_int * c.n_rh, "{what}");
    assert_eq!(mirrored.solve_histories.len(), n_solved * c.n_rh, "{what}");

    // The solved nodes ran the very same systems as the full run's upper
    // half: identical histories, so identical iteration / matvec totals.
    let upper = &full.solve_histories[..n_solved * c.n_rh];
    for (j, (m, f)) in mirrored.solve_histories.iter().zip(upper).enumerate() {
        assert_eq!(m.residuals, f.residuals, "{what}: history {j} differs from the full run");
        assert_eq!(m.matvecs, f.matvecs, "{what}");
    }
    let upper_iterations: usize = upper.iter().map(ConvergenceHistory::iterations).sum();
    let upper_matvecs: usize = upper.iter().map(|h| h.matvecs).sum();
    assert_eq!(mirrored.total_bicg_iterations, upper_iterations, "{what}");
    assert_eq!(mirrored.total_matvecs - mirrored.extraction_matvecs, upper_matvecs, "{what}");

    // Projected moments agree to 1e-9 relative (the BiCG tolerance: the
    // full run *solves* the lower half-plane systems the mirrored run reads
    // off as conjugates).
    assert_eq!(mirrored.projected_moments.len(), full.projected_moments.len(), "{what}");
    for (k, (mm, mf)) in mirrored.projected_moments.iter().zip(&full.projected_moments).enumerate()
    {
        let scale = mf.fro_norm();
        assert!(
            (mm - mf).fro_norm() <= 1e-9 * scale,
            "{what}: µ̂_{k} differs by {:.2e} relative",
            (mm - mf).fro_norm() / scale
        );
        // ... and the mirrored ones are exactly real.
        for r in 0..c.n_rh {
            for col in 0..c.n_rh {
                assert_eq!(mm[(r, col)].im, 0.0, "{what}: µ̂_{k}[{r},{col}] is not real");
            }
        }
    }

    // Same eigenvalue set to 1e-8.
    assert_eq!(mirrored.eigenpairs.len(), full.eigenpairs.len(), "{what}: pair count");
    for p in &mirrored.eigenpairs {
        let best = full
            .eigenpairs
            .iter()
            .map(|q| (q.lambda - p.lambda).abs())
            .fold(f64::INFINITY, f64::min);
        assert!(
            best <= 1e-8,
            "{what}: mirrored λ = {:?} is {best:.2e} from the full set",
            p.lambda
        );
        assert!(p.residual <= c.residual_cutoff, "{what}");
    }

    // The mirrored spectrum is closed under conjugation, bitwise.
    for p in &mirrored.eigenpairs {
        let twin = mirrored.eigenpairs.iter().find(|q| {
            q.lambda.re.to_bits() == p.lambda.re.to_bits() && q.lambda.im == -p.lambda.im
        });
        let twin = twin.unwrap_or_else(|| panic!("{what}: conj of λ = {:?} is missing", p.lambda));
        assert_eq!(twin.residual.to_bits(), p.residual.to_bits(), "{what}");
    }
}

/// One mirrored-vs-full comparison: `h00`/`h01` report real, the
/// [`NotReal`] twins hide it.
fn compare<A: LinearOperator, B: LinearOperator>(
    what: &str,
    (h00, h01): (A, B),
    energy: f64,
    period: f64,
    config: &SsConfig,
) -> SsResult {
    let real = QepProblem::new(&h00, &h01, energy, period);
    assert!(real.is_conjugate_symmetric(), "{what}: the blocks must report real");
    let mirrored = solve_qep_with(&real, config, &SerialExecutor);
    let (n00, n01) = (NotReal(&h00), NotReal(&h01));
    let oracle = QepProblem::new(&n00, &n01, energy, period);
    assert!(!oracle.is_conjugate_symmetric(), "{what}: the oracle must not");
    let full = solve_qep_with(&oracle, config, &SerialExecutor);
    assert_mirrored_matches_full(what, &mirrored, &full, config);
    mirrored
}

/// fig6 Al(100): matrix-free and ILU(0)-preconditioned, `n_int` even and
/// odd.  The upper-half solves of the two runs are the very same systems.
#[test]
fn fig6_mirrored_ring_is_the_full_contour_at_half_the_work() {
    let h = common::fig6_hamiltonian();
    for n_int in [common::FIG6_N_INT, common::FIG6_N_INT - 1] {
        // BiCG two decades tighter than the default 1e-10: the two runs
        // differ by the solver error of the lower half-plane solves, and the
        // 1e-9 / 1e-8 agreement bounds should not ride on its realization.
        let config = SsConfig {
            n_int,
            bicg_tolerance: 1e-12,
            precond: PrecondPolicy::MatrixFree,
            ..common::fig6_config()
        };
        let what = format!("fig6 mf n_int {n_int}");
        compare(&what, (h.h00(), h.h01()), 0.15, h.period(), &config);

        // The ILU policy splits both rings' nodes by the stencil's diagonal
        // ILU.
        let config = SsConfig { precond: PrecondPolicy::AssembledIlu0, ..config };
        let (h00, h01) = (h.h00(), h.h01());
        let real = QepProblem::new(&h00, &h01, 0.15, h.period());
        let (n00, n01) = (NotReal(h.h00()), NotReal(h.h01()));
        let oracle = QepProblem::new(&n00, &n01, 0.15, h.period());
        assert!(real.is_conjugate_symmetric() && !oracle.is_conjugate_symmetric());
        let mirrored = solve_qep_with(&real, &config, &SerialExecutor);
        let full = solve_qep_with(&oracle, &config, &SerialExecutor);
        let what = format!("fig6 ilu0 n_int {n_int}");
        assert_mirrored_matches_full(&what, &mirrored, &full, &config);
    }
}

/// The (8,0) nanotube, matrix-free as a default user runs it.
#[test]
fn cnt80_mirrored_ring_is_the_full_contour_at_half_the_work() {
    let h = common::cnt80_hamiltonian();
    let config = SsConfig {
        n_int: 16,
        n_mm: 6,
        n_rh: 8,
        // Tighter than the default 1e-10: the two runs differ only by the
        // BiCG error of the lower half-plane solves, which the eigenvalues
        // hugging the contour (|λ| ≈ 0.57 against the 0.5 circle) amplify.
        bicg_tolerance: 1e-12,
        bicg_max_iterations: 2_000,
        residual_cutoff: 1e-4,
        precond: PrecondPolicy::MatrixFree,
        ..SsConfig::paper()
    };
    compare("cnt80", (h.h00(), h.h01()), 0.2, h.period(), &config);
}

fn real_pencil(n: usize, seed: u64) -> (CMatrix, CMatrix) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let re = |m: CMatrix| CMatrix::from_fn(n, n, |i, j| Complex64::real(m[(i, j)].re));
    let a = re(CMatrix::random(n, n, &mut rng));
    let h00 = (&a + &a.adjoint()).scale(c64(0.5, 0.0));
    let h01 = re(CMatrix::random(n, n, &mut rng)).scale(c64(0.35, 0.0));
    (h00, h01)
}

/// A real dense pencil, `n_int` even and odd.
#[test]
fn dense_real_pencil_mirrored_ring_is_the_full_contour() {
    let (h00, h01) = real_pencil(14, 2101);
    for n_int in [16, 15] {
        let config = SsConfig {
            n_int,
            n_mm: 6,
            n_rh: 6,
            bicg_tolerance: 1e-12,
            residual_cutoff: 1e-6,
            ..SsConfig::small()
        };
        compare(
            &format!("dense n_int {n_int}"),
            (DenseOp::new(h00.clone()), DenseOp::new(h01.clone())),
            0.1,
            1.0,
            &config,
        );
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
    for (ma, mb) in a.projected_moments.iter().zip(&b.projected_moments) {
        assert_eq!(ma, mb, "{what}: projected moments");
    }
    assert_eq!(a.solve_histories.len(), b.solve_histories.len(), "{what}");
    assert_eq!(a.total_bicg_iterations, b.total_bicg_iterations, "{what}");
    assert_eq!(a.total_matvecs, b.total_matvecs, "{what}");
}

/// The mirrored path keeps the determinism contract: serial ≡ rayon,
/// bitwise.
#[test]
fn mirrored_ring_is_executor_and_block_policy_invariant() {
    let h = common::fig6_hamiltonian();
    let (h00, h01) = (h.h00(), h.h01());
    let problem = QepProblem::new(&h00, &h01, 0.15, h.period());
    for precond in [PrecondPolicy::MatrixFree, PrecondPolicy::AssembledIlu0] {
        let config = SsConfig { precond, ..common::fig6_config() };
        let reference = solve_qep_with(&problem, &config, &SerialExecutor);
        assert!(!reference.eigenpairs.is_empty());
        let solves = reference.solve_histories.len();
        assert_eq!(solves, common::FIG6_SOLVED_NODES * config.n_rh);
        assert_bitwise(
            &format!("{precond:?} rayon"),
            &reference,
            &solve_qep_with(&problem, &config, &RayonExecutor),
        );
    }
}

/// Complex Hermitian blocks are not conjugate-symmetric: every node of the
/// ring is solved, exactly as before the shortcut existed.
#[test]
fn complex_hermitian_blocks_solve_every_node() {
    let n = 12;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2102);
    let a = CMatrix::random(n, n, &mut rng);
    let h00 = DenseOp::new((&a + &a.adjoint()).scale(c64(0.5, 0.0)));
    let h01 = DenseOp::new(CMatrix::random(n, n, &mut rng).scale(c64(0.35, 0.0)));
    assert!(!h00.is_real() && !h01.is_real());
    let problem = QepProblem::new(&h00, &h01, 0.1, 1.0);
    assert!(!problem.is_conjugate_symmetric());
    let config = SsConfig { n_rh: 6, n_mm: 4, ..SsConfig::small() };
    let result = solve_qep_with(&problem, &config, &SerialExecutor);
    assert!(!result.eigenpairs.is_empty());
    assert_eq!(result.solve_histories.len(), config.n_int * config.n_rh);
    let iterations: usize = result.solve_histories.iter().map(ConvergenceHistory::iterations).sum();
    assert_eq!(result.total_bicg_iterations, iterations);
    // One real block is not enough.
    let (r00, _) = real_pencil(n, 2103);
    let r00 = DenseOp::new(r00);
    assert!(r00.is_real());
    assert!(!QepProblem::new(&r00, &h01, 0.1, 1.0).is_conjugate_symmetric());
}

/// A sweep over real blocks runs on the half ring end to end: its counters
/// count solved nodes.
#[test]
fn sweep_over_real_blocks_counts_solved_nodes() {
    use cbs::sweep::{EnergySweep, SweepConfig};
    let h = common::fig6_hamiltonian();
    let (h00, h01) = (h.h00(), h.h01());
    let ss = SsConfig { precond: PrecondPolicy::AssembledIlu0, ..common::fig6_config() };
    let energies = [0.05, 0.09, 0.13, 0.17];
    let sweep = EnergySweep::new(&h00, &h01, h.period(), SweepConfig::new(ss));
    let run = sweep.run(&energies, &SerialExecutor);
    let per_energy = common::FIG6_SOLVED_NODES * ss.n_rh;
    assert!(run.records.iter().all(|r| r.stats.solves == per_energy));
    assert_eq!(run.stats.cold_solves, energies.len() * per_energy);
    // Every energy's spectrum is closed under conjugation, bitwise.
    for (i, _) in energies.iter().enumerate() {
        let points: Vec<_> = run.cbs.at_energy(i).collect();
        assert!(!points.is_empty(), "no CBS points at energy {i}");
        for p in &points {
            assert!(
                points.iter().any(|q| q.lambda.re.to_bits() == p.lambda.re.to_bits()
                    && q.lambda.im == -p.lambda.im),
                "energy {i}: conj of {:?} is missing",
                p.lambda
            );
        }
    }
}

fn tridiagonal(n: usize) -> CsrMatrix {
    let mut b = CooBuilder::new(n, n);
    for i in 0..n {
        b.push(i, i, c64(-2.0 + 0.1 * i as f64, 0.0));
        if i + 1 < n {
            b.push(i, i + 1, c64(1.0, 0.0));
            b.push(i + 1, i, c64(1.0, 0.0));
        }
    }
    b.build()
}

/// `entries` of a real sparse vector, with entry `hit` (if any) made
/// complex.
fn sparse_vec(entries: &[usize], hit: Option<usize>, im: f64) -> SparseVec {
    SparseVec::new(
        entries
            .iter()
            .enumerate()
            .map(|(k, &i)| (i, c64(0.3 + 0.1 * k as f64, if hit == Some(k) { im } else { 0.0 })))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `is_real` is a scan of the stored data: a single entry with a
    /// non-zero imaginary part — a CSR value, a projector factor entry or a
    /// projector coefficient — flips the operator and everything built from
    /// it.  The problem's conjugate-symmetry decision reads its blocks
    /// alone: an attached projector is not consulted.
    #[test]
    fn one_complex_entry_anywhere_flips_is_real(
        n in 4usize..10,
        site in 0usize..3,
        position in 0usize..64,
        exponent in -300i32..1,
        negative in 0usize..2,
    ) {
        let im = if negative == 1 { -1.0 } else { 1.0 } * 10f64.powi(exponent);
        let base = tridiagonal(n);
        let nnz = base.nnz();

        // The CSR values (site 0 perturbs one of them).
        let mut b = CooBuilder::new(n, n);
        let mut k = 0;
        for i in 0..n {
            for (j, v) in base.row_entries(i) {
                let hit = site == 0 && k == position % nnz;
                b.push(i, j, if hit { c64(v.re, im) } else { v });
                k += 1;
            }
        }
        let csr = b.build();
        prop_assert!(base.is_real());
        prop_assert!(csr.is_real() == (site != 0));

        // The projector: a factor entry (site 1) or the coefficient (site 2).
        let support = [0usize, 2, 3];
        let hit = (site == 1).then_some(position % (2 * support.len()));
        let ket = sparse_vec(&support, hit.filter(|&h| h < 3), im);
        let bra = sparse_vec(&support, hit.and_then(|h| h.checked_sub(3)), im);
        let mut lowrank = LowRankOp::new(n, n);
        lowrank.push(ket, bra, c64(1.2, if site == 2 { im } else { 0.0 }));
        prop_assert!(lowrank.is_real() == (site == 0));
        let projector = FactoredProjector::new(lowrank.clone(), LowRankOp::new(n, n));
        prop_assert!(projector.is_real() == (site == 0));

        let dense = DenseOp::new(csr.to_dense());
        prop_assert!(dense.is_real() == (site != 0));

        // The problem decides from its blocks.
        prop_assert!(QepProblem::new(&base, &base, 0.1, 1.0).is_conjugate_symmetric());
        prop_assert!(QepProblem::new(&csr, &base, 0.1, 1.0).is_conjugate_symmetric() == (site != 0));
        prop_assert!(QepProblem::new(&base, &csr, 0.1, 1.0).is_conjugate_symmetric() == (site != 0));
        prop_assert!(QepProblem::new(&base, &base, 0.1, 1.0)
                .with_projector(&projector)
                .is_conjugate_symmetric());
    }
}
