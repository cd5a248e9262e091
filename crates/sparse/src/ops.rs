//! The `LinearOperator` abstraction: everything the iterative solvers and the
//! Sakurai-Sugiura method need from a matrix is "apply it (and its adjoint)
//! to a vector".
//!
//! The paper's central performance claim rests on never forming the
//! Kohn-Sham Hamiltonian densely: the QEP operator `P(z)` is only ever
//! applied matrix-free.  This trait is the seam that makes the eigensolver
//! generic over explicit CSR matrices, low-rank projector sums, the fused
//! real stencil (the one operator storage of a real Hamiltonian) and dense
//! test matrices.  Only the real stencil (and the QEP composition over it)
//! keeps fused multi-column kernels; every other operator is applied one
//! column at a time through the trait defaults.

use cbs_linalg::{CVector, Complex64};

use crate::real_stencil::StencilBlock;

/// A complex linear operator `A : C^ncols -> C^nrows` that can be applied to
/// vectors, together with its Hermitian adjoint.
pub trait LinearOperator: Sync {
    /// Number of rows (length of the output of [`apply`](Self::apply)).
    fn nrows(&self) -> usize;

    /// Number of columns (length of the input of [`apply`](Self::apply)).
    fn ncols(&self) -> usize;

    /// `y = A x`.  `y` is fully overwritten.
    fn apply(&self, x: &[Complex64], y: &mut [Complex64]);

    /// `y = A† x`.  `y` is fully overwritten.
    fn apply_adjoint(&self, x: &[Complex64], y: &mut [Complex64]);

    /// `Y = A X` for a block of `nvecs` vectors stored column-major in
    /// contiguous slabs: column `c` of `X` is `x[c * ncols .. (c+1) * ncols]`
    /// and column `c` of `Y` is `y[c * nrows .. (c+1) * nrows]`.
    ///
    /// The default loops [`apply`](Self::apply) over the columns, so every
    /// implementation gets the block entry point for free; it returns at
    /// once when the output is empty (`nrows() == 0`).  The fused real
    /// stencil (`RealStencil`, its split) and the QEP composition override
    /// it to walk their storage once for all columns; overrides must
    /// produce results **bit-identical** to the per-column default — the
    /// block data path of the solvers relies on that equivalence for its
    /// determinism guarantees (`tests/properties.rs` locks it in).
    fn apply_block(&self, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
        let (nc, nr) = (self.ncols(), self.nrows());
        assert_eq!(x.len(), nc * nvecs, "apply_block: x slab length mismatch");
        assert_eq!(y.len(), nr * nvecs, "apply_block: y slab length mismatch");
        if nr == 0 {
            return;
        }
        for (c, yc) in y.chunks_exact_mut(nr).enumerate() {
            self.apply(&x[c * nc..(c + 1) * nc], yc);
        }
    }

    /// `Y = A† X` over column-major slabs; the adjoint twin of
    /// [`apply_block`](Self::apply_block) (column `c` of `X` has length
    /// `nrows`, column `c` of `Y` has length `ncols`; the default returns at
    /// once when `ncols() == 0`).  Overrides must stay bit-identical to the
    /// per-column default.
    fn apply_adjoint_block(&self, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
        let (nc, nr) = (self.ncols(), self.nrows());
        assert_eq!(x.len(), nr * nvecs, "apply_adjoint_block: x slab length mismatch");
        assert_eq!(y.len(), nc * nvecs, "apply_adjoint_block: y slab length mismatch");
        if nc == 0 {
            return;
        }
        for (c, yc) in y.chunks_exact_mut(nc).enumerate() {
            self.apply_adjoint(&x[c * nr..(c + 1) * nr], yc);
        }
    }

    /// Convenience wrapper allocating the output.
    fn apply_vec(&self, x: &CVector) -> CVector {
        let mut y = CVector::zeros(self.nrows());
        self.apply(x.as_slice(), y.as_mut_slice());
        y
    }

    /// Convenience wrapper allocating the output of the adjoint.
    fn apply_adjoint_vec(&self, x: &CVector) -> CVector {
        let mut y = CVector::zeros(self.ncols());
        self.apply_adjoint(x.as_slice(), y.as_mut_slice());
        y
    }

    /// Dimension of a square operator (panics if not square).
    fn dim(&self) -> usize {
        assert_eq!(self.nrows(), self.ncols(), "operator is not square");
        self.nrows()
    }

    /// Approximate memory footprint of the operator's storage in bytes.
    /// Used for the paper's Figure 4(b) memory comparison.
    fn memory_bytes(&self) -> usize {
        0
    }

    /// `true` when every matrix entry of the operator is known to be real,
    /// i.e. `conj(A x) = A conj(x)`.
    ///
    /// An *observable property of the stored data*, not a configuration:
    /// explicit operators scan their values (O(storage), so callers cache
    /// the answer — `cbs_core::QepProblem` asks once per problem), and
    /// compositions are real when their parts and coefficients are.  The
    /// default `false` is always safe: it only means the Sakurai-Sugiura
    /// quadrature cannot use the `P(z̄) = conj P(z)` shortcut and solves
    /// every contour node.
    fn is_real(&self) -> bool {
        false
    }

    /// The [`RealStencil`](crate::RealStencil) block this operator *is*,
    /// when it is one ([`StencilBlock`]).
    ///
    /// This is how `cbs_core::QepProblem` finds that its two blocks are the
    /// `H₀₀` and `H₀₁` of one stencil, and applies `P(z)` through that
    /// stencil instead of composing three block applications.  The default
    /// `None` is always safe — it keeps the generic path — and wrappers
    /// that delegate `apply*` unchanged may forward it.
    fn stencil_block(&self) -> Option<StencilBlock<'_>> {
        None
    }
}

/// A split preconditioner `M = M_L·M_R ≈ A`, and the split system
/// `Â = M_L⁻¹ A M_R⁻¹` it defines: the seam the block dual BiCG
/// (`cbs_solver::bicg_dual_block_precond`) solves through.  The solver runs
/// its one recurrence on `Â` ([`SplitOperator`]) and the vectors cross as
///
/// ```text
/// right-hand sides   b̂ = M_L⁻¹b          dual: M_R⁻†b̃
/// solutions          x = M_R⁻¹x̂           dual: x̃ = M_L⁻†ŷ
/// residuals          r = M_L r̂            dual: r̃ = M_R†r̂̃
/// ```
///
/// The dual side is what keeps the paper's dual trick intact: with
/// `M ≈ P(z)` (e.g. the diagonal ILU of its sparse part), `M† ≈ P(z)† =
/// P(1/z̄)`, so the same split serves the outer-circle system and its
/// inner-circle dual.
///
/// The maps and the apply work on `nvecs` column-major vectors: column `c`
/// lives at `x[c*n..(c+1)*n]` (the slab convention of
/// [`LinearOperator::apply_block`]), and each column's result must be
/// bitwise that of a width-1 call on the column — the block solver's
/// parity contract rests on it.
pub trait Preconditioner: Sync {
    /// Dimension of the (square) system.
    fn dim(&self) -> usize;

    /// Right-hand sides into the split system, in place: `b̂ = M_L⁻¹b`, or
    /// on the `dual` side `M_R⁻†b̃`.
    fn split_rhs(&self, dual: bool, b: &mut [Complex64], nvecs: usize);

    /// `Y = Â X`, or on the `dual` side `Y = Â† X = M_R⁻† A† M_L⁻† X`.
    fn split_apply(&self, dual: bool, x: &[Complex64], y: &mut [Complex64], nvecs: usize);

    /// Solutions out of the split system, in place: `x = M_R⁻¹x̂`, or on the
    /// `dual` side `x̃ = M_L⁻†ŷ`.
    fn unsplit(&self, dual: bool, x: &mut [Complex64], nvecs: usize);

    /// `‖M_L r̂‖`, the norm of the residual of `A` that a residual `r̂` of
    /// the split system stands for — on the `dual` side `‖M_R† r̂‖`, of `A†`.
    fn unsplit_residual_norm(&self, dual: bool, r: &[Complex64]) -> f64;
}

/// The split system `Â` of a [`Preconditioner`] as a [`LinearOperator`]:
/// every apply is one [`Preconditioner::split_apply`].
pub struct SplitOperator<'a, M: ?Sized>(pub &'a M);

impl<M: Preconditioner + ?Sized> LinearOperator for SplitOperator<'_, M> {
    fn nrows(&self) -> usize {
        self.0.dim()
    }
    fn ncols(&self) -> usize {
        self.0.dim()
    }
    fn apply(&self, x: &[Complex64], y: &mut [Complex64]) {
        self.0.split_apply(false, x, y, 1);
    }
    fn apply_adjoint(&self, x: &[Complex64], y: &mut [Complex64]) {
        self.0.split_apply(true, x, y, 1);
    }
    fn apply_block(&self, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
        self.0.split_apply(false, x, y, nvecs);
    }
    fn apply_adjoint_block(&self, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
        self.0.split_apply(true, x, y, nvecs);
    }
}

impl<T: LinearOperator + ?Sized> LinearOperator for &T {
    fn nrows(&self) -> usize {
        (**self).nrows()
    }
    fn ncols(&self) -> usize {
        (**self).ncols()
    }
    fn apply(&self, x: &[Complex64], y: &mut [Complex64]) {
        (**self).apply(x, y);
    }
    fn apply_adjoint(&self, x: &[Complex64], y: &mut [Complex64]) {
        (**self).apply_adjoint(x, y);
    }
    fn apply_block(&self, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
        (**self).apply_block(x, y, nvecs);
    }
    fn apply_adjoint_block(&self, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
        (**self).apply_adjoint_block(x, y, nvecs);
    }
    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }
    fn is_real(&self) -> bool {
        (**self).is_real()
    }
    fn stencil_block(&self) -> Option<StencilBlock<'_>> {
        (**self).stencil_block()
    }
}

/// Wrap a dense matrix as a `LinearOperator` (used in tests and for the
/// small dense blocks of the OBM baseline).
pub struct DenseOp {
    m: cbs_linalg::CMatrix,
}

impl DenseOp {
    /// Wrap the given dense matrix.
    pub fn new(m: cbs_linalg::CMatrix) -> Self {
        Self { m }
    }

    /// Access the wrapped matrix.
    pub fn matrix(&self) -> &cbs_linalg::CMatrix {
        &self.m
    }
}

impl LinearOperator for DenseOp {
    fn nrows(&self) -> usize {
        self.m.nrows()
    }
    fn ncols(&self) -> usize {
        self.m.ncols()
    }
    fn apply(&self, x: &[Complex64], y: &mut [Complex64]) {
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.m.row(i);
            let mut acc = Complex64::ZERO;
            for (a, b) in row.iter().zip(x) {
                acc += *a * *b;
            }
            *yi = acc;
        }
    }
    fn apply_adjoint(&self, x: &[Complex64], y: &mut [Complex64]) {
        for v in y.iter_mut() {
            *v = Complex64::ZERO;
        }
        for (i, &xi) in x.iter().enumerate() {
            let row = self.m.row(i);
            for (a, yj) in row.iter().zip(y.iter_mut()) {
                *yj += a.conj() * xi;
            }
        }
    }
    fn memory_bytes(&self) -> usize {
        self.m.memory_bytes()
    }
    fn is_real(&self) -> bool {
        (0..self.m.nrows()).all(|i| all_real(self.m.row(i)))
    }
}

/// `true` when no entry of `values` has a non-zero imaginary part — the
/// scan behind every explicit operator's [`LinearOperator::is_real`].
pub(crate) fn all_real(values: &[Complex64]) -> bool {
    values.iter().all(|v| v.im == 0.0)
}

/// Measure the largest relative defect of the adjoint identity
/// `⟨A x, y⟩ = ⟨x, A† y⟩` over `trials` random vector pairs; a cheap sanity
/// check for hand-written operators.
pub fn adjoint_defect<A: LinearOperator, R: rand::Rng + ?Sized>(
    op: &A,
    trials: usize,
    rng: &mut R,
) -> f64 {
    let mut worst = 0.0f64;
    for _ in 0..trials {
        let x = CVector::random(op.ncols(), rng);
        let y = CVector::random(op.nrows(), rng);
        let ax = op.apply_vec(&x);
        let aty = op.apply_adjoint_vec(&y);
        let lhs = ax.dot(&y);
        let rhs = x.dot(&aty);
        let scale = ax.norm() * y.norm() + 1e-300;
        worst = worst.max((lhs - rhs).abs() / scale);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_linalg::CMatrix;
    use rand::SeedableRng;

    #[test]
    fn dense_op_matches_matrix() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(61);
        let m = CMatrix::random(5, 7, &mut rng);
        let op = DenseOp::new(m.clone());
        let x = CVector::random(7, &mut rng);
        assert!((&op.apply_vec(&x) - &m.matvec(&x)).norm() < 1e-13);
        let y = CVector::random(5, &mut rng);
        assert!((&op.apply_adjoint_vec(&y) - &m.adjoint().matvec(&y)).norm() < 1e-13);
    }

    #[test]
    fn block_defaults_accept_empty_dimensions() {
        let empty = DenseOp::new(CMatrix::zeros(0, 0));
        empty.apply_block(&[], &mut [], 3);
        empty.apply_adjoint_block(&[], &mut [], 3);
        // A 2×0 operator maps every column to zero, and its adjoint has
        // nothing to write.
        let wide = DenseOp::new(CMatrix::zeros(2, 0));
        let mut y = vec![Complex64::ONE; 6];
        wide.apply_block(&[], &mut y, 3);
        assert!(y.iter().all(|&v| v == Complex64::ZERO));
        wide.apply_adjoint_block(&y, &mut [], 3);
    }

    #[test]
    fn adjoint_defect_is_small_for_consistent_ops() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(63);
        let a = CMatrix::random(8, 8, &mut rng);
        let op = DenseOp::new(a);
        assert!(adjoint_defect(&op, 10, &mut rng) < 1e-12);
    }
}
