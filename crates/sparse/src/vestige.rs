//! The names the repo benchmark's frozen per-layer replay still calls
//! (`benchmark/src/{layers,workloads}.rs`, which library changes leave
//! alone), kept as views of the stencil.  Released by ROADMAP 1(a), which
//! deletes this module.
//!
//! No library solve reads them: the ILU policy splits the Hamiltonian's
//! own [`RealStencil`] by its [`StencilDilu`].  The replay builds an
//! [`AssembledPattern`] (`cbs_dft::BlockHamiltonian::qep_factored`), times
//! [`AssembledPattern::assemble`], applies the [`AssembledOp`] it returns
//! and sweeps its [`AssembledOp::ilu0`] — so it times the sparse part of
//! `P(z)` and its diagonal ILU with the kernels the solves run, and the
//! projector tails separately through [`FactoredProjector`].

use cbs_linalg::Complex64;

use crate::lowrank::LowRankOp;
use crate::ops::LinearOperator;
use crate::real_stencil::{RealStencil, StencilDilu};

/// A copy of a stencil's sparse rows — `H₀₀`, `H₀₁` and the explicit
/// `H₀₁ᵀ`, without the projector tails — under the name the benchmark
/// gives the shared pattern of `P(z)`.  Released by ROADMAP 1(a).
#[derive(Clone, Debug)]
pub struct AssembledPattern(RealStencil);

impl AssembledPattern {
    /// The sparse rows of `stencil`; `BlockHamiltonian::qep_factored` is
    /// the one caller.  Released by ROADMAP 1(a).
    pub fn new(stencil: &RealStencil) -> Self {
        Self(stencil.sparse_part())
    }

    /// Dimension of the operator.  Released by ROADMAP 1(a).
    pub fn dim(&self) -> usize {
        self.0.dim()
    }

    /// Stored entries of the rows ([`RealStencil::nnz`]).  Released by
    /// ROADMAP 1(a).
    pub fn nnz(&self) -> usize {
        self.0.nnz()
    }

    /// A no-op: no sweep reads a dependency-level schedule.  Released by
    /// ROADMAP 1(a), with the benchmark's `sparse.tri_schedule_ms` row.
    pub fn tri_schedule(&self) {}

    /// The sparse part of `P(z)` at scan energy `energy`: nothing is
    /// refilled, the operator reads these rows.  Released by ROADMAP 1(a).
    pub fn assemble(&self, energy: f64, z: Complex64) -> AssembledOp<'_> {
        AssembledOp { stencil: &self.0, energy, z }
    }
}

/// The sparse part of `P(z) = E − H₀₀ − z·H₀₁ − z⁻¹·H₀₁ᵀ` at one
/// `(E, z)`, applied by the stencil's fused row kernel; its adjoint is the
/// kernel at `1/z̄`.  Released by ROADMAP 1(a).
pub struct AssembledOp<'p> {
    stencil: &'p RealStencil,
    energy: f64,
    z: Complex64,
}

impl<'p> AssembledOp<'p> {
    /// The diagonal ILU of this operator ([`RealStencil::dilu`]).
    /// Released by ROADMAP 1(a).
    pub fn ilu0(&self) -> StencilDilu<'p> {
        self.stencil.dilu(self.energy, self.z)
    }
}

impl LinearOperator for AssembledOp<'_> {
    fn nrows(&self) -> usize {
        self.stencil.dim()
    }
    fn ncols(&self) -> usize {
        self.stencil.dim()
    }
    fn apply(&self, x: &[Complex64], y: &mut [Complex64]) {
        self.apply_block(x, y, 1);
    }
    fn apply_adjoint(&self, x: &[Complex64], y: &mut [Complex64]) {
        self.apply_adjoint_block(x, y, 1);
    }
    fn apply_block(&self, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
        self.stencil.apply_block(self.energy, self.z, x, y, nvecs);
    }
    fn apply_adjoint_block(&self, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
        self.stencil.apply_block(self.energy, Complex64::ONE / self.z.conj(), x, y, nvecs);
    }
    fn memory_bytes(&self) -> usize {
        self.stencil.memory_bytes()
    }
}

/// The low-rank tail of `P(z)`: `−V₀₀ − z·V₀₁ − z⁻¹·V₀₁†`, with the adjoint
/// factor `V₁₀ = V₀₁†` precomputed in factored form (same rank, same
/// sparsity — see [`LowRankOp::adjoint`]): the projector terms the
/// [`AssembledPattern`] leaves out, which the replay times on their own.
/// Released by ROADMAP 1(a).
#[derive(Clone, Debug)]
pub struct FactoredProjector {
    vnl00: LowRankOp,
    vnl01: LowRankOp,
    /// `V₀₁†`, precomputed so the hot loop never transposes.
    vnl10: LowRankOp,
}

impl FactoredProjector {
    /// Build from the two projector blocks of the Hamiltonian.  Both must
    /// be square and of equal dimension; `V₁₀ = V₀₁†` is formed here, once.
    pub fn new(vnl00: LowRankOp, vnl01: LowRankOp) -> Self {
        assert_eq!(vnl00.nrows(), vnl00.ncols(), "V00 must be square");
        assert_eq!(vnl01.nrows(), vnl01.ncols(), "V01 must be square");
        assert_eq!(vnl00.nrows(), vnl01.nrows(), "V00 and V01 must have the same size");
        let vnl10 = vnl01.adjoint();
        Self { vnl00, vnl01, vnl10 }
    }

    /// Dimension of the (square) projector blocks.
    pub fn dim(&self) -> usize {
        self.vnl00.nrows()
    }

    /// Total rank-one term count across the three factors.
    pub fn rank(&self) -> usize {
        self.vnl00.rank() + self.vnl01.rank() + self.vnl10.rank()
    }

    /// `true` when every factor is empty: the projector contributes
    /// nothing.
    pub fn is_empty(&self) -> bool {
        self.rank() == 0
    }

    /// `true` when both projector blocks are real (see
    /// [`LinearOperator::is_real`]; `V₁₀ = V₀₁†` is then real too).
    pub fn is_real(&self) -> bool {
        self.vnl00.is_real() && self.vnl01.is_real()
    }

    /// Total factor storage in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.vnl00.storage_bytes() + self.vnl01.storage_bytes() + self.vnl10.storage_bytes()
    }

    /// Accumulate the projector part of `P(z)` onto `nvecs` columns:
    /// `y_c += (−V₀₀ − z·V₀₁ − z⁻¹·V₀₁†) x_c`, without zeroing `y`.
    /// Term order (`V₀₀`, then `V₀₁`, then `V₀₁†`) and per-term column
    /// order are fixed, so results are bitwise reproducible run to run.
    pub fn accumulate(&self, z: Complex64, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
        let minus_one = Complex64::real(-1.0);
        self.vnl00.apply_block_accumulate(minus_one, x, y, nvecs);
        self.vnl01.apply_block_accumulate(-z, x, y, nvecs);
        self.vnl10.apply_block_accumulate(-z.inv(), x, y, nvecs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{CooBuilder, CsrMatrix};
    use crate::lowrank::SparseVec;
    use cbs_linalg::{c64, CVector};
    use rand::SeedableRng;

    fn sv(entries: &[(usize, Complex64)]) -> SparseVec {
        SparseVec::new(entries.to_vec())
    }

    /// The pattern is the stencil's sparse part: its operator is the
    /// stencil's `P(z)` without the projector tails, its adjoint that
    /// kernel at `1/z̄`, and its `ilu0` that stencil's D-ILU, bit for bit.
    #[test]
    fn the_pattern_is_the_stencils_sparse_part() {
        let n = 9;
        let (mut a, mut b) = (CooBuilder::new(n, n), CooBuilder::new(n, n));
        for i in 0..n {
            a.push(i, i, c64(2.0 + 0.1 * i as f64, 0.0));
            a.push(i, (i + 1) % n, c64(-0.5, 0.0));
            a.push((i + 1) % n, i, c64(-0.5, 0.0));
            b.push(i, (i + 3) % n, c64(0.3, 0.0));
        }
        let (a, b) = (a.build(), b.build());
        let (p, none) = (sv(&[(1, c64(0.4, 0.0)), (5, c64(-0.2, 0.0))]), LowRankOp::new(n, n));
        let mut tails = LowRankOp::new(n, n);
        tails.push(p.clone(), p, c64(0.7, 0.0));
        let with = RealStencil::try_new((&a, &tails), (&b, &tails)).expect("real");
        let bare = RealStencil::try_new((&a, &none), (&b, &none)).expect("real");
        let pattern = AssembledPattern::new(&with);
        assert_eq!((pattern.dim(), pattern.nnz()), (n, bare.nnz()));
        let (e, z) = (0.3, c64(0.9, 0.4));
        let (op, dual) = (pattern.assemble(e, z), Complex64::ONE / z.conj());
        let x = CVector::random(n * 3, &mut rand_chacha::ChaCha8Rng::seed_from_u64(922)).into_vec();
        let run = |f: &dyn Fn(&mut [Complex64])| {
            let mut y = vec![c64(f64::NAN, 0.0); n * 3];
            f(&mut y);
            y
        };
        assert_eq!(run(&|y| op.apply_block(&x, y, 3)), run(&|y| bare.apply_block(e, z, &x, y, 3)));
        let adjoint = run(&|y| bare.apply_block(e, dual, &x, y, 3));
        assert_eq!(run(&|y| op.apply_adjoint_block(&x, y, 3)), adjoint);
        let (m, want) = (op.ilu0(), bare.dilu(e, z));
        assert_eq!(run(&|y| m.solve_block(&x, y, 3)), run(&|y| want.solve_block(&x, y, 3)));
    }

    /// The two projector blocks `(V₀₀, V₀₁)` of the sample.
    fn sample_blocks(n: usize) -> (LowRankOp, LowRankOp) {
        let mut vnl00 = LowRankOp::new(n, n);
        let p = sv(&[(1, c64(0.3, 0.1)), (4, c64(-0.2, 0.7))]);
        vnl00.push(p.clone(), p, c64(1.4, 0.0));
        let q = sv(&[(0, c64(0.9, -0.3)), (5, c64(0.2, 0.2))]);
        vnl00.push(q.clone(), q, c64(-0.6, 0.0));
        let mut vnl01 = LowRankOp::new(n, n);
        vnl01.push(
            sv(&[(2, c64(0.5, 0.5)), (3, c64(-0.4, 0.1))]),
            sv(&[(1, c64(0.7, -0.2))]),
            c64(0.8, 0.3),
        );
        (vnl00, vnl01)
    }

    /// Dense reference: `−V₀₀ − z·V₀₁ − z⁻¹·V₀₁†` via CSR expansion.
    fn dense_tail((vnl00, vnl01): &(LowRankOp, LowRankOp), z: Complex64) -> CsrMatrix {
        let mut m = vnl00.to_csr().scale(c64(-1.0, 0.0));
        m = m.add_scaled(-z, &vnl01.to_csr());
        m = m.add_scaled(-z.inv(), &vnl01.to_csr().adjoint());
        m
    }

    #[test]
    fn accumulate_matches_dense_expansion() {
        let n = 7;
        let blocks = sample_blocks(n);
        let p = FactoredProjector::new(blocks.0.clone(), blocks.1.clone());
        assert_eq!(p.dim(), n);
        assert!(!p.is_empty());
        assert!(p.rank() >= 3);
        assert!(p.storage_bytes() > 0);
        let z = c64(1.3, 0.7);
        let dense = dense_tail(&blocks, z);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(921);
        for nvecs in [1usize, 2, 4] {
            let x: Vec<Complex64> = CVector::random(n * nvecs, &mut rng).into_vec();
            // Seed y with a nonzero base to check *accumulation*.
            let base: Vec<Complex64> = CVector::random(n * nvecs, &mut rng).into_vec();
            let mut y = base.clone();
            p.accumulate(z, &x, &mut y, nvecs);
            for c in 0..nvecs {
                let mut want = vec![Complex64::ZERO; n];
                dense.matvec_into(&x[c * n..(c + 1) * n], &mut want);
                for i in 0..n {
                    let w = base[c * n + i] + want[i];
                    assert!(
                        (y[c * n + i] - w).abs() < 1e-13,
                        "accumulate mismatch at col {c} row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_projector_is_detected_and_inert() {
        let n = 5;
        let p = FactoredProjector::new(LowRankOp::new(n, n), LowRankOp::new(n, n));
        assert!(p.is_empty());
        let mut y = vec![c64(1.0, -2.0); n];
        let x = vec![c64(0.5, 0.5); n];
        p.accumulate(c64(1.1, 0.2), &x, &mut y, 1);
        assert!(y.iter().all(|&v| v == c64(1.0, -2.0)));
    }
}
