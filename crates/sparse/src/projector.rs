//! The non-local projector part of the shifted operator kept in factored
//! low-rank form.
//!
//! The QEP operator splits as
//!
//! ```text
//! P(z) = -z⁻¹H₀₁† + (E − H₀₀) − zH₀₁,      H₀ₓ = H₀ₓ(sparse) + V₀ₓ(low rank)
//!      = [assembled CSR over the sparse blocks]
//!        + (−V₀₀ − z·V₀₁ − z⁻¹·V₀₁†)                ← this module
//! ```
//!
//! Expanding the separable Kleinman-Bylander projectors `V₀ₓ` into the CSR
//! pattern densifies the rows touched by every projector sphere: the union
//! pattern picks up `nnz(ket)·nnz(bra)` entries per rank-one term, and every
//! per-node refill and every factored ILU sweep then pays for them again.
//! Keeping the projectors factored preserves the O(rank · nnz) application
//! cost and leaves the assembled pattern — and its ILU — on the *sparse* blocks
//! only, where the fill is small and the factorization is cheap.
//!
//! [`FactoredProjector::accumulate`] adds the projector contribution on top
//! of the assembled CSR product (slot-stable scatter kernels, bit-stable
//! column order).

use cbs_linalg::Complex64;

use crate::lowrank::LowRankOp;
use crate::ops::LinearOperator;

/// The low-rank tail of `P(z)`: `−V₀₀ − z·V₀₁ − z⁻¹·V₀₁†`, with the adjoint
/// factor `V₁₀ = V₀₁†` precomputed in factored form (same rank, same
/// sparsity — see [`LowRankOp::adjoint`]).
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

    /// `true` when every factor is empty — the projector contributes
    /// nothing and callers should fall back to the plain assembled path.
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
    use crate::csr::CsrMatrix;
    use crate::lowrank::SparseVec;
    use cbs_linalg::{c64, CVector};
    use rand::SeedableRng;

    fn sv(entries: &[(usize, Complex64)]) -> SparseVec {
        SparseVec::new(entries.to_vec())
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
