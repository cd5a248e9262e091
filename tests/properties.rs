//! Property-based tests (proptest) on the cross-crate invariants: operator
//! adjoint consistency of the QEP, contour filtering, well-formed extraction
//! output, the bitwise equivalence of the block apply with its
//! column-by-column reference, and the stencil's diagonal ILU against the
//! textbook one (`tests/common`).

use proptest::prelude::*;

use cbs::core::{QepProblem, RingContour};
use cbs::grid::Grid3;
use cbs::linalg::{c64, CMatrix, CVector, Complex64};
use cbs::sparse::{
    CooBuilder, CsrMatrix, DenseOp, LinearOperator, LowRankOp, RealStencil, SparseVec,
};

mod common;

fn laplacian_like(grid: Grid3, diag: f64) -> CsrMatrix {
    let n = grid.npoints();
    let mut b = CooBuilder::new(n, n);
    for (i, j, k, row) in grid.iter_points() {
        b.push(row, row, c64(diag, 0.0));
        for (di, dj, dk) in [(1isize, 0isize, 0isize), (0, 1, 0), (0, 0, 1)] {
            for sign in [-1isize, 1] {
                let ii = grid.wrap_x(i as isize + sign * di);
                let jj = grid.wrap_y(j as isize + sign * dj);
                let kk = (k as isize + sign * dk).rem_euclid(grid.nz as isize) as usize;
                b.push(row, grid.index(ii, jj, kk), c64(-1.0, 0.0));
            }
        }
    }
    b.build()
}

/// A column-major `n × nvecs` slab of random right-hand sides with exact
/// zeros sprinkled in and, from two columns up, one all-zero column.
fn slab_with_zeros(n: usize, nvecs: usize, rng: &mut rand_chacha::ChaCha8Rng) -> Vec<Complex64> {
    use rand::Rng;
    let mut r: Vec<Complex64> = CVector::random(n * nvecs, rng).into_vec();
    for _ in 0..(n * nvecs).div_ceil(5) {
        r[rng.gen_range(0..n * nvecs)] = Complex64::ZERO;
    }
    if nvecs >= 2 {
        let c = rng.gen_range(0..nvecs);
        r[c * n..(c + 1) * n].fill(Complex64::ZERO);
    }
    r
}

/// A real `sparse + low-rank` block applied as the generic three-pass
/// composition; `RealStencil::try_new` on two of them gives the stencil
/// whose views a `QepProblem` runs fused, on the very same data.
struct RealBlock {
    sparse: CsrMatrix,
    lowrank: LowRankOp,
}

impl LinearOperator for RealBlock {
    fn nrows(&self) -> usize {
        self.sparse.nrows()
    }
    fn ncols(&self) -> usize {
        self.sparse.ncols()
    }
    fn apply(&self, x: &[Complex64], y: &mut [Complex64]) {
        self.sparse.apply(x, y);
        self.lowrank.apply_block_accumulate(Complex64::ONE, x, y, 1);
    }
    fn apply_adjoint(&self, x: &[Complex64], y: &mut [Complex64]) {
        self.sparse.apply_adjoint(x, y);
        self.lowrank.apply_adjoint_block_accumulate(Complex64::ONE, x, y, 1);
    }
}

/// Random real blocks of a QEP: a symmetric `H₀₀` with `per_row` random
/// couplings per row, an `H₀₁` populated on its last `n / 3` rows only, and
/// `rank` random real projector terms on each.  A `coupled` `H₀₁` also
/// stores the diagonal of those rows and the columns `H₀₀` couples them
/// to, so one `(i, j)` sits in two or (through `H₀₁ᵀ`) three blocks.
fn random_real_blocks(
    n: usize,
    per_row: usize,
    rank: usize,
    coupled: bool,
    rng: &mut rand_chacha::ChaCha8Rng,
) -> (RealBlock, RealBlock) {
    use rand::Rng;
    let real = |rng: &mut rand_chacha::ChaCha8Rng| c64(rng.gen_range(-1.0..1.0), 0.0);
    let (mut a, mut b) = (CooBuilder::new(n, n), CooBuilder::new(n, n));
    for row in 0..n {
        a.push(row, row, c64(rng.gen_range(1.0..4.0), 0.0));
        let boundary = row >= n - n / 3;
        if coupled && boundary {
            b.push(row, row, real(rng));
        }
        for _ in 0..per_row {
            let (col, v) = (rng.gen_range(0..n), real(rng));
            a.push(row, col, v);
            a.push(col, row, v);
            if boundary {
                b.push(row, if coupled { col } else { rng.gen_range(0..n) }, real(rng));
            }
        }
    }
    let sparse_vec = |rng: &mut rand_chacha::ChaCha8Rng| {
        SparseVec::new((0..4).map(|_| (rng.gen_range(0..n), real(rng))).collect())
    };
    let (mut v00, mut v01) = (LowRankOp::new(n, n), LowRankOp::new(n, n));
    for _ in 0..rank {
        let p = sparse_vec(rng);
        v00.push(p.clone(), p, real(rng));
        v01.push(sparse_vec(rng), sparse_vec(rng), real(rng));
    }
    (RealBlock { sparse: a.build(), lowrank: v00 }, RealBlock { sparse: b.build(), lowrank: v01 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// ⟨P(z)x, y⟩ = ⟨x, P(1/z̄)y⟩ for random Hermitian H00, arbitrary H01 and
    /// arbitrary shifts: the identity behind the paper's dual-system trick.
    #[test]
    fn qep_adjoint_identity_holds_for_random_blocks(
        seed in 0u64..1000,
        zre in -2.0f64..2.0,
        zim in -2.0f64..2.0,
        energy in -1.0f64..1.0,
    ) {
        prop_assume!(zre * zre + zim * zim > 0.05);
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let n = 8;
        let a = CMatrix::random(n, n, &mut rng);
        let h00 = &a + &a.adjoint();
        let h01 = CMatrix::random(n, n, &mut rng);
        let op00 = DenseOp::new(h00);
        let op01 = DenseOp::new(h01);
        let qep = QepProblem::new(&op00, &op01, energy, 1.0);
        let z = c64(zre, zim);
        let x = CVector::random(n, &mut rng);
        let y = CVector::random(n, &mut rng);
        let op = qep.operator(z);
        let lhs = op.apply_vec(&x).dot(&y);
        let rhs = x.dot(&op.apply_adjoint_vec(&y));
        let scale = 1.0 + lhs.abs().max(rhs.abs());
        prop_assert!((lhs - rhs).abs() < 1e-10 * scale);
    }

    /// The ring-contour quadrature acts as a band-pass filter on moments:
    /// ≈ λ^k inside the annulus, ≈ 0 outside.
    #[test]
    fn contour_filters_poles_correctly(
        radius in 0.05f64..3.0,
        angle in 0.0f64..std::f64::consts::TAU,
        k in 0usize..5,
    ) {
        // Stay away from the contour circles themselves.
        prop_assume!((radius - 0.5).abs() > 0.08 && (radius - 2.0).abs() > 0.25);
        let contour = RingContour::new(0.5, 96);
        let lambda = Complex64::polar(radius, angle);
        let got = contour.filter_value(k, lambda);
        if radius > 0.5 && radius < 2.0 {
            let want = lambda.powi(k as i32);
            prop_assert!((got - want).abs() < 1e-3 * (1.0 + want.abs()),
                "inside: got {got:?} want {want:?}");
        } else {
            prop_assert!(got.abs() < 2e-2, "outside: got {got:?}");
        }
    }

    /// The generic QEP composition's slab path — three block applications
    /// of per-column `CsrMatrix` and `LowRankOp` blocks and the combine
    /// passes — is bit-identical to column-by-column application, the
    /// invariant the block dual-BiCG's determinism guarantees rest on.
    #[test]
    fn apply_block_is_bitwise_column_equivalent(
        seed in 0u64..1000,
        nvecs in 1usize..6,
        zre in -2.0f64..2.0,
        zim in -2.0f64..2.0,
    ) {
        prop_assume!(zre * zre + zim * zim > 0.05);
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let grid = Grid3::isotropic(3, 3, 4, 0.5);
        let n = grid.npoints();
        let csr = laplacian_like(grid, 5.0);
        let mut lr = cbs::sparse::LowRankOp::new(n, n);
        for _ in 0..3 {
            let ket = cbs::sparse::SparseVec::new(vec![
                (rand::Rng::gen_range(&mut rng, 0..n), c64(0.4, -0.6)),
                (rand::Rng::gen_range(&mut rng, 0..n), c64(-0.2, 0.3)),
            ]);
            let bra = cbs::sparse::SparseVec::new(vec![
                (rand::Rng::gen_range(&mut rng, 0..n), c64(0.7, 0.1)),
            ]);
            lr.push(ket, bra, c64(rand::Rng::gen_range(&mut rng, -1.0..1.0), 0.4));
        }
        let z = c64(zre, zim);
        let qep = QepProblem::new(&csr, &lr, 0.2, 1.0);
        let qep_op = qep.operator(z);

        let x: Vec<Complex64> = CVector::random(n * nvecs, &mut rng).into_vec();
        let mut block = vec![Complex64::ZERO; n * nvecs];
        let mut col = vec![Complex64::ZERO; n];
        qep_op.apply_block(&x, &mut block, nvecs);
        for c in 0..nvecs {
            qep_op.apply(&x[c * n..(c + 1) * n], &mut col);
            prop_assert!(block[c * n..(c + 1) * n] == col[..], "column {} differs", c);
        }
        qep_op.apply_adjoint_block(&x, &mut block, nvecs);
        for c in 0..nvecs {
            qep_op.apply_adjoint(&x[c * n..(c + 1) * n], &mut col);
            prop_assert!(block[c * n..(c + 1) * n] == col[..], "adjoint column {} differs", c);
        }
    }

    /// The fused real stencil is the generic three-pass `P(z)` on random
    /// real sparse + low-rank blocks — to rounding, in both apply
    /// directions, at every block width — and keeps the block ≡
    /// column-by-column bitwise contract and the adjoint identity.
    #[test]
    fn real_stencil_is_the_generic_qep_operator(
        seed in 0u64..1000,
        n in 6usize..80,
        per_row in 0usize..5,
        rank in 0usize..4,
        nvecs in 1usize..17,
        zre in -2.0f64..2.0,
        zim in -2.0f64..2.0,
        energy in -1.0f64..1.0,
    ) {
        prop_assume!(zre * zre + zim * zim > 0.05);
        use rand::SeedableRng;
        let z = c64(zre, zim);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let (g00, g01) = random_real_blocks(n, per_row, rank, false, &mut rng);
        let stencil = RealStencil::try_new((&g00.sparse, &g00.lowrank), (&g01.sparse, &g01.lowrank))
            .expect("real blocks convert");
        let (h00, h01) = (stencil.h00(), stencil.h01());
        let fused = QepProblem::new(&h00, &h01, energy, 1.0);
        let generic = QepProblem::new(&g00, &g01, energy, 1.0);
        let (fused_op, generic_op) = (fused.operator(z), generic.operator(z));
        prop_assert!(fused.real_stencil().is_some() && generic.real_stencil().is_none());

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let x = slab_with_zeros(n, nvecs, &mut rng);
        let mut y = vec![Complex64::ZERO; n * nvecs];
        let mut want = vec![Complex64::ZERO; n * nvecs];
        let mut col = vec![Complex64::ZERO; n];
        for adjoint in [false, true] {
            if adjoint {
                fused_op.apply_adjoint_block(&x, &mut y, nvecs);
                generic_op.apply_adjoint_block(&x, &mut want, nvecs);
            } else {
                fused_op.apply_block(&x, &mut y, nvecs);
                generic_op.apply_block(&x, &mut want, nvecs);
            }
            let err: f64 = y.iter().zip(&want).map(|(a, b)| (*a - *b).norm_sqr()).sum();
            let norm: f64 = want.iter().map(|v| v.norm_sqr()).sum();
            prop_assert!(err.sqrt() <= 1e-14 * norm.sqrt(),
                "adjoint {}: stencil is {:.2e} relative from the generic path",
                adjoint, err.sqrt() / norm.sqrt());
            for c in 0..nvecs {
                if adjoint {
                    fused_op.apply_adjoint(&x[c * n..(c + 1) * n], &mut col);
                } else {
                    fused_op.apply(&x[c * n..(c + 1) * n], &mut col);
                }
                prop_assert!(y[c * n..(c + 1) * n] == col[..],
                    "adjoint {}: column {} of the block apply differs", adjoint, c);
            }
        }
        prop_assert!(cbs::sparse::adjoint_defect(&fused_op, 2, &mut rng) < 1e-12);
    }

    /// Adjoint consistency of the block path: `⟨Y, A X⟩ = ⟨A† Y, X⟩`
    /// column-wise for the QEP operator applied through slabs.
    #[test]
    fn block_adjoint_identity_holds(
        seed in 0u64..1000,
        nvecs in 1usize..5,
        zre in -1.5f64..1.5,
        zim in -1.5f64..1.5,
        energy in -1.0f64..1.0,
    ) {
        prop_assume!(zre * zre + zim * zim > 0.05);
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let n = 8;
        let a = CMatrix::random(n, n, &mut rng);
        let h00 = &a + &a.adjoint();
        let h01 = CMatrix::random(n, n, &mut rng);
        let op00 = DenseOp::new(h00);
        let op01 = DenseOp::new(h01);
        let qep = QepProblem::new(&op00, &op01, energy, 1.0);
        let op = qep.operator(c64(zre, zim));
        let x: Vec<Complex64> = CVector::random(n * nvecs, &mut rng).into_vec();
        let y: Vec<Complex64> = CVector::random(n * nvecs, &mut rng).into_vec();
        let mut ax = vec![Complex64::ZERO; n * nvecs];
        op.apply_block(&x, &mut ax, nvecs);
        let mut aty = vec![Complex64::ZERO; n * nvecs];
        op.apply_adjoint_block(&y, &mut aty, nvecs);
        for c in 0..nvecs {
            let r = c * n..(c + 1) * n;
            // ⟨y_c, A x_c⟩ vs ⟨A† y_c, x_c⟩
            let lhs: Complex64 = ax[r.clone()].iter().zip(&y[r.clone()])
                .map(|(axi, yi)| yi.conj() * *axi).sum();
            let rhs: Complex64 = x[r.clone()].iter().zip(&aty[r.clone()])
                .map(|(xi, ayi)| ayi.conj() * *xi).sum();
            let scale = 1.0 + lhs.abs().max(rhs.abs());
            prop_assert!((lhs - rhs).abs() < 1e-10 * scale,
                "column {} adjoint defect: {:?} vs {:?}", c, lhs, rhs);
        }
    }

    /// Extraction robustness: whatever the (n_int, n_mm, n_rh, λ_min,
    /// energy) combination, `extract_from_moments` (via `solve_qep_with`) never
    /// emits a non-finite eigenvalue or residual, every returned pair lies
    /// inside the contour annulus, and the `(|λ|, arg λ)` sort key is a
    /// total order on the returned set — the invariants downstream
    /// consumers (classification, checkpoints) rely on.
    #[test]
    fn extraction_emits_only_finite_ordered_in_annulus_pairs(
        seed in 0u64..500,
        energy in -1.0f64..1.0,
        n_int in 4usize..12,
        n_mm in 1usize..4,
        n_rh in 1usize..4,
        lambda_min in 0.3f64..0.7,
    ) {
        use rand::SeedableRng;
        use cbs::core::{solve_qep_with, SsConfig};
        use cbs::parallel::SerialExecutor;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let n = 6;
        let a = CMatrix::random(n, n, &mut rng);
        let h00 = &a + &a.adjoint();
        let h01 = CMatrix::random(n, n, &mut rng).scale(c64(0.3, 0.0));
        let op00 = DenseOp::new(h00);
        let op01 = DenseOp::new(h01);
        let qep = QepProblem::new(&op00, &op01, energy, 1.0);
        let config = SsConfig {
            n_int,
            n_mm,
            n_rh,
            lambda_min,
            bicg_tolerance: 1e-10,
            bicg_max_iterations: 2_000,
            residual_cutoff: 1e-4,
            ..SsConfig::small()
        };
        let result = solve_qep_with(&qep, &config, &SerialExecutor);
        let contour = config.contour();
        for p in &result.eigenpairs {
            prop_assert!(
                p.lambda.re.is_finite() && p.lambda.im.is_finite(),
                "non-finite eigenvalue {:?}", p.lambda
            );
            prop_assert!(
                p.residual.is_finite() && p.residual >= 0.0,
                "bad residual {}", p.residual
            );
            prop_assert!(
                contour.contains(p.lambda, 0.0),
                "pair outside the annulus: {:?}", p.lambda
            );
        }
        // The sort key is totally ordered over the whole returned set (no
        // NaN keys hiding behind partial_cmp)...
        let keys: Vec<(f64, f64)> =
            result.eigenpairs.iter().map(|p| (p.lambda.abs(), p.lambda.arg())).collect();
        for (i, ka) in keys.iter().enumerate() {
            for kb in &keys[i + 1..] {
                prop_assert!(ka.partial_cmp(kb).is_some(), "incomparable sort keys");
            }
        }
        // ... and the returned order respects it.
        for w in keys.windows(2) {
            prop_assert!(
                w[0].partial_cmp(&w[1]) != Some(std::cmp::Ordering::Greater),
                "sort order violated: {:?} before {:?}", w[0], w[1]
            );
        }
    }

    /// λ → k → λ round-trips through the Brillouin-zone folding.
    #[test]
    fn lambda_k_roundtrip(
        radius in 0.5f64..2.0,
        angle in -std::f64::consts::PI..std::f64::consts::PI,
        period in 0.5f64..10.0,
    ) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let n = 4;
        let a = CMatrix::random(n, n, &mut rng);
        let op00 = DenseOp::new(&a + &a.adjoint());
        let op01 = DenseOp::new(CMatrix::random(n, n, &mut rng));
        let qep = QepProblem::new(&op00, &op01, 0.0, period);
        let lambda = Complex64::polar(radius, angle);
        let (k_re, k_im) = qep.lambda_to_k(lambda);
        let back = Complex64::new(0.0, 1.0) * c64(k_re, k_im) * period;
        let reconstructed = back.exp();
        prop_assert!((reconstructed - lambda).abs() < 1e-10 * (1.0 + lambda.abs()));
    }
}

/// The stencil `try_new` makes of two random real blocks.
fn stencil_of(g00: &RealBlock, g01: &RealBlock) -> RealStencil {
    RealStencil::try_new((&g00.sparse, &g00.lowrank), (&g01.sparse, &g01.lowrank))
        .expect("real blocks convert")
}

/// `RealStencil::dilu` against the textbook D-ILU at a node `z` and at its
/// mirror `1/z̄`: `M⁻¹` and `M⁻†` over an `nvecs`-column slab, within 1e-12
/// relative.
fn assert_dilu_is_the_textbook_dilu(
    s: &RealStencil,
    energy: f64,
    z: Complex64,
    nvecs: usize,
    rng: &mut rand_chacha::ChaCha8Rng,
) {
    for shift in [z, Complex64::ONE / z.conj()] {
        let r = CVector::random(s.dim() * nvecs, rng).into_vec();
        let oracle = common::TextbookDilu::new(s, energy, shift);
        let err = oracle.distance(&s.dilu(energy, shift), &r, nvecs);
        assert!(err <= 1e-12, "n {} E {energy} z {shift:?}: {err:.2e}", s.dim());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The stencil's diagonal ILU is the textbook one on random real
    /// pencils, plain or coupled, at every slab width; the projector terms
    /// take no part in either.
    #[test]
    fn stencil_dilu_is_the_textbook_dilu(
        seed in 0u64..1000,
        n in 6usize..80,
        per_row in 0usize..5,
        rank in 0usize..4,
        coupled in 0u8..2,
        nvecs in 1usize..17,
        zre in 0.3f64..1.6,
        zim in -1.0f64..1.0,
        energy in -12.0f64..-8.0,
    ) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let (g00, g01) = random_real_blocks(n, per_row, rank, coupled == 1, &mut rng);
        let s = stencil_of(&g00, &g01);
        assert_dilu_is_the_textbook_dilu(&s, energy, c64(zre, zim), nvecs, &mut rng);
    }
}

/// The same on coupled pencils of 80 and 600 points (the sweeps' row blocks
/// and column tiles all exercised), and at `E = h₀₀` on a first row the
/// coupling block leaves empty, where the pivot `E − h₀₀` is exactly zero:
/// the oracle floors it, and the stencil agrees only if it floors it at
/// the same value, since that pivot scales the whole solve by ~1e13.
#[test]
fn stencil_dilu_is_the_textbook_dilu_on_coupled_and_floored_pencils() {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1701);
    let z = c64(0.8, 0.45);
    for (n, coupled) in [(80, false), (80, true), (600, true)] {
        let (g00, g01) = random_real_blocks(n, 3, 2, coupled, &mut rng);
        let s = stencil_of(&g00, &g01);
        assert_dilu_is_the_textbook_dilu(&s, -9.0, z, 9, &mut rng);

        let (_, h) = g00.sparse.row_entries(0).find(|&(j, _)| j == 0).expect("a stored h₀₀");
        let oracle = common::TextbookDilu::new(&s, h.re, z);
        assert_eq!(oracle.pivots[0], c64(oracle.floor, 0.0), "n {n}: the pivot is not floored");
        let r = CVector::random(n * 3, &mut rng).into_vec();
        let err = oracle.distance(&s.dilu(h.re, z), &r, 3);
        assert!(err <= 1e-12, "n {n} floored: {err:.2e}");
    }
}
