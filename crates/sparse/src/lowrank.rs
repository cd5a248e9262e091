//! Low-rank operators `Σ_i c_i |u_i⟩⟨v_i|` with sparsely supported factors.
//!
//! This is the natural representation of the separable (Kleinman-Bylander)
//! non-local pseudopotential: each projector lives on the grid points inside
//! a cutoff sphere around its atom, so both the "ket" and "bra" factors are
//! sparse vectors.  Keeping the operator in factored form preserves the
//! O(N) application cost that the paper's Hamiltonian-times-vector kernel
//! depends on.

use cbs_linalg::Complex64;
use cbs_trace::Stage;

use crate::ops::LinearOperator;

/// A sparse vector: sorted indices with matching values.
#[derive(Clone, Debug, Default)]
pub struct SparseVec {
    indices: Vec<usize>,
    values: Vec<Complex64>,
}

impl SparseVec {
    /// Build from parallel index/value lists (indices need not be sorted;
    /// duplicates are summed).
    pub fn new(mut entries: Vec<(usize, Complex64)>) -> Self {
        entries.sort_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(entries.len());
        let mut values: Vec<Complex64> = Vec::with_capacity(entries.len());
        for (i, v) in entries {
            if v == Complex64::ZERO {
                continue;
            }
            if indices.last() == Some(&i) {
                *values.last_mut().expect("values parallel to indices") += v;
            } else {
                indices.push(i);
                values.push(v);
            }
        }
        Self { indices, values }
    }

    /// Empty sparse vector.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Iterate over `(index, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Complex64)> + '_ {
        self.indices.iter().copied().zip(self.values.iter().copied())
    }

    /// Conjugated dot product with a dense slice: `Σ conj(v_k) x[i_k]`.
    #[inline]
    pub fn dotc_dense(&self, x: &[Complex64]) -> Complex64 {
        let mut acc = Complex64::ZERO;
        for (i, v) in self.iter() {
            acc += v.conj() * x[i];
        }
        acc
    }

    /// Scatter-add `alpha * self` into a dense slice.
    #[inline]
    pub fn axpy_into_dense(&self, alpha: Complex64, y: &mut [Complex64]) {
        for (i, v) in self.iter() {
            y[i] += alpha * v;
        }
    }

    /// Squared 2-norm.
    pub fn norm_sqr(&self) -> f64 {
        self.values.iter().map(|v| v.norm_sqr()).sum()
    }

    /// `true` when every stored value is real.
    pub fn is_real(&self) -> bool {
        crate::ops::all_real(&self.values)
    }

    /// Memory footprint in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.indices.len() * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<Complex64>()
    }
}

/// One rank-one term `c |u⟩⟨v|`.
#[derive(Clone, Debug)]
pub struct RankOneTerm {
    /// The output-side factor `u`.
    pub ket: SparseVec,
    /// The input-side factor `v` (applied conjugated).
    pub bra: SparseVec,
    /// The coupling coefficient `c`.
    pub coeff: Complex64,
}

/// A sum of rank-one terms acting between `C^ncols` and `C^nrows`.
#[derive(Clone, Debug)]
pub struct LowRankOp {
    nrows: usize,
    ncols: usize,
    terms: Vec<RankOneTerm>,
}

impl LowRankOp {
    /// Empty operator of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self { nrows, ncols, terms: Vec::new() }
    }

    /// Add a term `coeff * |ket⟩⟨bra|`.
    pub fn push(&mut self, ket: SparseVec, bra: SparseVec, coeff: Complex64) {
        debug_assert!(ket.indices.iter().all(|&i| i < self.nrows), "ket index out of range");
        debug_assert!(bra.indices.iter().all(|&i| i < self.ncols), "bra index out of range");
        if ket.is_empty() || bra.is_empty() || coeff == Complex64::ZERO {
            return;
        }
        self.terms.push(RankOneTerm { ket, bra, coeff });
    }

    /// Number of rank-one terms.
    pub fn rank(&self) -> usize {
        self.terms.len()
    }

    /// Iterate over the stored terms.
    pub fn terms(&self) -> &[RankOneTerm] {
        &self.terms
    }

    /// The adjoint operator in factored form: `(Σ c |u⟩⟨v|)† =
    /// Σ conj(c) |v⟩⟨u|`.  Rank and factor sparsity are preserved, so the
    /// adjoint applies at the same O(rank · nnz) cost — this is what lets
    /// the dual-system projector stay factored instead of being expanded
    /// into a dense-ish CSR block.
    pub fn adjoint(&self) -> Self {
        Self {
            nrows: self.ncols,
            ncols: self.nrows,
            terms: self
                .terms
                .iter()
                .map(|t| RankOneTerm {
                    ket: t.bra.clone(),
                    bra: t.ket.clone(),
                    coeff: t.coeff.conj(),
                })
                .collect(),
        }
    }

    /// Accumulate `y_c += alpha · (A x_c)` for each of the `nvecs` columns
    /// without zeroing `y` — the kernel the factored projector uses to add
    /// the low-rank part of `P(z)` on top of the assembled CSR part.  Per
    /// column the terms accumulate in the order of [`apply`](LinearOperator::apply)
    /// (terms outer, columns inner, slot-stable scatter).
    pub fn apply_block_accumulate(
        &self,
        alpha: Complex64,
        x: &[Complex64],
        y: &mut [Complex64],
        nvecs: usize,
    ) {
        assert_eq!(x.len(), self.ncols * nvecs, "lowrank accumulate: x slab length mismatch");
        assert_eq!(y.len(), self.nrows * nvecs, "lowrank accumulate: y slab length mismatch");
        if alpha == Complex64::ZERO {
            return;
        }
        cbs_trace::timed(Stage::Kernel, || {
            for t in &self.terms {
                let scaled = alpha * t.coeff;
                for j in 0..nvecs {
                    let amp = scaled * t.bra.dotc_dense(&x[j * self.ncols..(j + 1) * self.ncols]);
                    if amp != Complex64::ZERO {
                        t.ket.axpy_into_dense(amp, &mut y[j * self.nrows..(j + 1) * self.nrows]);
                    }
                }
            }
        });
    }

    /// Accumulate `y_c += alpha · (A† x_c)` per column without zeroing `y`
    /// (the dual-system twin of [`apply_block_accumulate`](Self::apply_block_accumulate)).
    pub fn apply_adjoint_block_accumulate(
        &self,
        alpha: Complex64,
        x: &[Complex64],
        y: &mut [Complex64],
        nvecs: usize,
    ) {
        assert_eq!(x.len(), self.nrows * nvecs, "lowrank adj accumulate: x slab length mismatch");
        assert_eq!(y.len(), self.ncols * nvecs, "lowrank adj accumulate: y slab length mismatch");
        if alpha == Complex64::ZERO {
            return;
        }
        cbs_trace::timed(Stage::Kernel, || {
            for t in &self.terms {
                let scaled = alpha * t.coeff.conj();
                for j in 0..nvecs {
                    let amp = scaled * t.ket.dotc_dense(&x[j * self.nrows..(j + 1) * self.nrows]);
                    if amp != Complex64::ZERO {
                        t.bra.axpy_into_dense(amp, &mut y[j * self.ncols..(j + 1) * self.ncols]);
                    }
                }
            }
        });
    }

    /// Convert to an explicit CSR matrix (used by the OBM baseline and the
    /// dense cross-checks in tests).
    pub fn to_csr(&self) -> crate::csr::CsrMatrix {
        let mut b = crate::csr::CooBuilder::new(self.nrows, self.ncols);
        for t in &self.terms {
            for (i, u) in t.ket.iter() {
                for (j, v) in t.bra.iter() {
                    b.push(i, j, t.coeff * u * v.conj());
                }
            }
        }
        b.build()
    }

    /// Total storage of all factors in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.terms
            .iter()
            .map(|t| {
                t.ket.storage_bytes() + t.bra.storage_bytes() + std::mem::size_of::<Complex64>()
            })
            .sum()
    }
}

impl LinearOperator for LowRankOp {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn apply(&self, x: &[Complex64], y: &mut [Complex64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        cbs_trace::timed(Stage::Kernel, || {
            for v in y.iter_mut() {
                *v = Complex64::ZERO;
            }
            for t in &self.terms {
                let amp = t.coeff * t.bra.dotc_dense(x);
                if amp != Complex64::ZERO {
                    t.ket.axpy_into_dense(amp, y);
                }
            }
        });
    }
    fn apply_adjoint(&self, x: &[Complex64], y: &mut [Complex64]) {
        // (c |u⟩⟨v|)† = conj(c) |v⟩⟨u|
        assert_eq!(x.len(), self.nrows);
        assert_eq!(y.len(), self.ncols);
        cbs_trace::timed(Stage::Kernel, || {
            for v in y.iter_mut() {
                *v = Complex64::ZERO;
            }
            for t in &self.terms {
                let amp = t.coeff.conj() * t.ket.dotc_dense(x);
                if amp != Complex64::ZERO {
                    t.bra.axpy_into_dense(amp, y);
                }
            }
        });
    }
    fn memory_bytes(&self) -> usize {
        self.storage_bytes()
    }
    fn is_real(&self) -> bool {
        // Entry (i, j) of a term is `c · u_i · conj(v_j)`: real factors and
        // a real coefficient are sufficient (and what the Kleinman-Bylander
        // projectors of a real Hamiltonian are made of).
        self.terms.iter().all(|t| t.coeff.im == 0.0 && t.ket.is_real() && t.bra.is_real())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::adjoint_defect;
    use cbs_linalg::{c64, CVector};
    use rand::SeedableRng;

    fn sv(entries: &[(usize, Complex64)]) -> SparseVec {
        SparseVec::new(entries.to_vec())
    }

    #[test]
    fn sparse_vec_dedup_and_dot() {
        let v = sv(&[(3, c64(1.0, 0.0)), (1, c64(0.0, 2.0)), (3, c64(1.0, 1.0))]);
        assert_eq!(v.nnz(), 2);
        let x = vec![Complex64::ZERO, c64(1.0, 0.0), Complex64::ZERO, c64(0.0, 1.0)];
        // conj((2,1)) * x[3] + conj((0,2)) * x[1] = (2-1i)(i) + (-2i)(1) = (1+2i) - 2i = 1
        assert!((v.dotc_dense(&x) - c64(1.0, 0.0)).abs() < 1e-14);
    }

    #[test]
    fn apply_matches_csr_expansion() {
        let mut op = LowRankOp::new(6, 6);
        op.push(
            sv(&[(0, c64(1.0, 0.0)), (2, c64(0.5, -0.5))]),
            sv(&[(1, c64(0.0, 1.0)), (3, c64(2.0, 0.0))]),
            c64(1.5, 0.25),
        );
        op.push(
            sv(&[(4, c64(-1.0, 0.0))]),
            sv(&[(4, c64(1.0, 1.0)), (5, c64(0.0, -1.0))]),
            c64(0.0, 2.0),
        );
        let csr = op.to_csr();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(91);
        let x = CVector::random(6, &mut rng);
        let y_lr = op.apply_vec(&x);
        let y_csr = csr.matvec(&x);
        assert!((&y_lr - &y_csr).norm() < 1e-13);
        let z = CVector::random(6, &mut rng);
        let a_lr = op.apply_adjoint_vec(&z);
        let a_csr = csr.matvec_adjoint(&z);
        assert!((&a_lr - &a_csr).norm() < 1e-13);
    }

    #[test]
    fn adjoint_identity_holds() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(92);
        let mut op = LowRankOp::new(12, 10);
        for _ in 0..5 {
            let ket = sv(&[
                (
                    rand::Rng::gen_range(&mut rng, 0..12),
                    c64(rand::Rng::gen_range(&mut rng, -1.0..1.0), 0.3),
                ),
                (
                    rand::Rng::gen_range(&mut rng, 0..12),
                    c64(0.2, rand::Rng::gen_range(&mut rng, -1.0..1.0)),
                ),
            ]);
            let bra = sv(&[(
                rand::Rng::gen_range(&mut rng, 0..10),
                c64(rand::Rng::gen_range(&mut rng, -1.0..1.0), -0.1),
            )]);
            op.push(ket, bra, c64(rand::Rng::gen_range(&mut rng, -1.0..1.0), 0.5));
        }
        assert!(adjoint_defect(&op, 8, &mut rng) < 1e-13);
    }

    #[test]
    fn empty_terms_are_skipped() {
        let mut op = LowRankOp::new(4, 4);
        op.push(SparseVec::empty(), sv(&[(0, Complex64::ONE)]), Complex64::ONE);
        op.push(sv(&[(0, Complex64::ONE)]), sv(&[(1, Complex64::ONE)]), Complex64::ZERO);
        assert_eq!(op.rank(), 0);
    }

    #[test]
    fn hermitian_when_bra_equals_ket_and_coeff_real() {
        // V = Σ c_i |p_i⟩⟨p_i| with real c_i is Hermitian.
        let mut op = LowRankOp::new(8, 8);
        let p = sv(&[(1, c64(0.3, 0.1)), (5, c64(-0.2, 0.7)), (6, c64(1.0, 0.0))]);
        op.push(p.clone(), p, c64(2.5, 0.0));
        let d = op.to_csr().to_dense();
        assert!(d.hermiticity_defect() < 1e-14);
    }
}
