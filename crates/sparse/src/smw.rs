//! Sherman-Morrison-Woodbury completion of the assembled-ILU(0)
//! preconditioner: fold the [`FactoredProjector`] low-rank tail into the
//! triangular solves so `M` approximates the *full* shifted operator
//! `P(z)`, not just its sparse CSR part.
//!
//! The factored data path keeps `P(z) = A(z) + T(z)` with `A(z)` the
//! assembled CSR over the sparse Hamiltonian blocks and
//! `T(z) = −V₀₀ − z·V₀₁ − z⁻¹·V₀₁†` the rank-`k` projector tail.  The plain
//! `AssembledIlu0` policy factors `A(z)` only, so every Kleinman-Bylander
//! projector the ILU never sees costs BiCG iterations.  Writing the tail as
//! `T = U V†` (each rank-one term `α·c·|u⟩⟨v|` contributes the scaled ket
//! `α·c·u` as a column of `U` and the bra `v` as a column of `V`), the
//! Sherman-Morrison-Woodbury identity gives an exact apply of the completed
//! preconditioner `M = LU + U V†`:
//!
//! ```text
//! M⁻¹ r = A⁻¹r − (A⁻¹U) · C⁻¹ · V†(A⁻¹r),     C = I + V†A⁻¹U  (k×k)
//! ```
//!
//! with `A⁻¹` the ILU(0) sweeps.  `A⁻¹U`, `A⁻†V` and the LU factorization
//! of the capacitance `C` (via [`cbs_linalg::LuDecomposition`]) are computed
//! **once per quadrature node** at factor time — through the *blocked*
//! multi-RHS sweeps ([`Preconditioner::solve_block`]), so the `2k` setup
//! solves re-read each row block of the factors from cache across their
//! column tiles instead of streaming the whole factorization per column.  Each
//! apply then costs the usual triangular sweeps plus the correction:
//! `V†z` / `U†z` accumulate over the **sparse** Kleinman-Bylander bras and
//! kets (`O(nnz(V))`, not `O(nk)`), a `k×k` capacitance solve, and one
//! `O(nk)` dense rank update.  The adjoint apply reuses the *same*
//! capacitance factorization through `(C)† = I + U†A⁻†V` — the paper's
//! dual-circle trick survives the completion just like it survives the ILU
//! itself.
//!
//! Degenerate cases degrade gracefully to the plain ILU(0) apply: an empty
//! projector (rank 0, e.g. the pattern-only attachments of the policy
//! matrix) or a singular capacitance matrix simply drop the correction.

use cbs_linalg::{CMatrix, CVector, Complex64, LuDecomposition};
use cbs_trace::Stage;

use crate::assembled::Ilu0;
use crate::ops::Preconditioner;
use crate::projector::FactoredProjector;

/// The SMW-completed ILU(0) preconditioner `M = LU + U V†` (see the module
/// docs).  Built per quadrature node via
/// [`AssembledOp::ilu0_smw`](crate::AssembledOp::ilu0_smw); applies through
/// the [`Preconditioner`] seam, including the blocked multi-RHS entry points
/// (ILU blocked sweeps plus per-column corrections — bitwise identical to
/// the per-column path).
pub struct SmwPrecond<'p> {
    ilu: Ilu0<'p>,
    tail: Option<SmwTail>,
}

/// The low-rank completion data, owned (nothing borrows the projector
/// after construction).  `U`/`V` keep their projector sparsity (the
/// apply-side `V†z` / `U†z` products walk only the stored entries); the
/// solved factors `A⁻¹U` / `A⁻†V` are dense column-major slabs.
struct SmwTail {
    /// Rank of the folded tail.
    k: usize,
    /// Sparse columns of `U` (the scaled kets of `T(z) = U V†`), ascending
    /// row index per column.
    u_cols: Vec<Vec<(usize, Complex64)>>,
    /// Sparse columns of `V` (the bras), ascending row index per column.
    v_cols: Vec<Vec<(usize, Complex64)>>,
    /// `A⁻¹U` as a column-major `n×k` slab, precomputed with the blocked
    /// ILU sweeps.
    aiu: Vec<Complex64>,
    /// `A⁻†V` as a column-major `n×k` slab, precomputed with the blocked
    /// adjoint ILU sweeps.
    adv: Vec<Complex64>,
    /// LU factorization of the capacitance `C = I + V†A⁻¹U`.
    cap: LuDecomposition,
}

impl<'p> SmwPrecond<'p> {
    /// Fold `projector`'s tail at shift `z` into `ilu`.  Counts toward the
    /// `IluFactor` trace stage (it is per-node factorization work); the `k`
    /// embedded triangular sweeps count toward `TriSweep` as usual.
    pub fn new(ilu: Ilu0<'p>, projector: &FactoredProjector, z: Complex64) -> Self {
        let n = ilu.dim();
        let k = projector.rank();
        if k == 0 {
            return Self { ilu, tail: None };
        }
        assert_eq!(projector.dim(), n, "SMW: projector/ILU dimension mismatch");
        let (u_cols, v_cols, u_slab, v_slab) = cbs_trace::timed(Stage::IluFactor, || {
            // Scatter the rank-one terms into sparse factor columns (the
            // apply-side products walk these) and column-major dense slabs
            // (the blocked setup sweeps consume these), in the same
            // factor-and-term order the hot-loop accumulators stream:
            // V₀₀ (scale −1), V₀₁ (−z), V₀₁† (−z⁻¹).
            let mut u_cols: Vec<Vec<(usize, Complex64)>> = Vec::with_capacity(k); // cbs-audit: allow(A001) reason="SMW factor setup, memoized once per (pattern, z) node"
            let mut v_cols: Vec<Vec<(usize, Complex64)>> = Vec::with_capacity(k); // cbs-audit: allow(A001) reason="SMW factor setup, memoized once per (pattern, z) node"
            let mut u_slab = vec![Complex64::ZERO; n * k]; // cbs-audit: allow(A001) reason="SMW factor setup, memoized once per (pattern, z) node"
            let mut v_slab = vec![Complex64::ZERO; n * k]; // cbs-audit: allow(A001) reason="SMW factor setup, memoized once per (pattern, z) node"
            let mut m = 0;
            let factors = [
                (projector.vnl00(), Complex64::real(-1.0)),
                (projector.vnl01(), -z),
                (projector.vnl10(), -z.inv()),
            ];
            for (op, alpha) in factors {
                for term in op.terms() {
                    let s = alpha * term.coeff;
                    let uc: Vec<(usize, Complex64)> =
                        term.ket.iter().map(|(i, val)| (i, s * val)).collect(); // cbs-audit: allow(A001) reason="SMW factor setup, memoized once per (pattern, z) node"
                    let vc: Vec<(usize, Complex64)> = term.bra.iter().collect(); // cbs-audit: allow(A001) reason="SMW factor setup, memoized once per (pattern, z) node"
                    for &(i, val) in &uc {
                        u_slab[m * n + i] = val;
                    }
                    for &(i, val) in &vc {
                        v_slab[m * n + i] = val;
                    }
                    u_cols.push(uc);
                    v_cols.push(vc);
                    m += 1;
                }
            }
            debug_assert_eq!(m, k, "SMW: term count drifted from projector rank");
            (u_cols, v_cols, u_slab, v_slab)
        });
        // A⁻¹U and A⁻†V through the blocked multi-RHS sweeps: each row block
        // of the factors is read from memory once and reused from cache by
        // all k columns, instead of re-walking the pattern 2k times.
        let mut aiu = vec![Complex64::ZERO; n * k]; // cbs-audit: allow(A001) reason="once per (pattern, z) factorization; k << n dense slabs"
        let mut adv = vec![Complex64::ZERO; n * k]; // cbs-audit: allow(A001) reason="once per (pattern, z) factorization; k << n dense slabs"
        ilu.solve_block(&u_slab, &mut aiu, k);
        ilu.solve_adjoint_block(&v_slab, &mut adv, k);
        let tail = cbs_trace::timed(Stage::IluFactor, || {
            // Capacitance C = I + V†·(A⁻¹U), factored once per node; the
            // V† rows contract over the sparse bra entries only.
            let mut cap = CMatrix::zeros(k, k);
            for (m1, vc) in v_cols.iter().enumerate() {
                let row = cap.row_mut(m1);
                for (m2, ac) in aiu.chunks_exact(n).enumerate() {
                    let mut acc = Complex64::ZERO;
                    for &(i, val) in vc {
                        acc += val.conj() * ac[i];
                    }
                    row[m2] = acc;
                }
                row[m1] += Complex64::real(1.0);
            }
            // A singular capacitance means the completed M is singular at
            // this shift; dropping the correction keeps the (nonsingular)
            // plain ILU apply rather than poisoning the solve.
            LuDecomposition::new(&cap).ok().map(|cap| SmwTail { k, u_cols, v_cols, aiu, adv, cap })
        });
        Self { ilu, tail }
    }

    /// Rank of the folded tail (0 when the correction is inactive).
    pub fn rank(&self) -> usize {
        self.tail.as_ref().map_or(0, |t| t.k)
    }

    /// `true` when the low-rank completion is active (non-empty projector
    /// and nonsingular capacitance); `false` means plain ILU(0) behavior.
    pub fn is_complete(&self) -> bool {
        self.tail.is_some()
    }

    /// Subtract the low-rank correction from an ILU solve result in place:
    /// `z ← z − (A⁻¹U)·C⁻¹·(V†z)`.  `V†z` walks only the sparse bra
    /// entries; the rank update streams the solved slab column by column.
    fn correct(&self, z: &mut [Complex64]) {
        let Some(t) = &self.tail else { return };
        let n = z.len();
        let mut w = CVector::zeros(t.k);
        for (wm, vc) in w.as_mut_slice().iter_mut().zip(&t.v_cols) {
            let mut acc = Complex64::ZERO;
            for &(i, val) in vc {
                acc += val.conj() * z[i];
            }
            *wm = acc;
        }
        let tv = t.cap.solve(&w);
        for (&tm, ac) in tv.as_slice().iter().zip(t.aiu.chunks_exact(n)) {
            if tm != Complex64::ZERO {
                for (zi, &a) in z.iter_mut().zip(ac) {
                    *zi -= a * tm;
                }
            }
        }
    }

    /// The adjoint correction: `z ← z − (A⁻†V)·C⁻†·(U†z)`, with the same
    /// sparse-contraction / slab-streaming shape as
    /// [`correct`](Self::correct).
    fn correct_adjoint(&self, z: &mut [Complex64]) {
        let Some(t) = &self.tail else { return };
        let n = z.len();
        let mut w = CVector::zeros(t.k);
        for (wm, uc) in w.as_mut_slice().iter_mut().zip(&t.u_cols) {
            let mut acc = Complex64::ZERO;
            for &(i, val) in uc {
                acc += val.conj() * z[i];
            }
            *wm = acc;
        }
        let tv = t.cap.solve_adjoint(&w);
        for (&tm, ac) in tv.as_slice().iter().zip(t.adv.chunks_exact(n)) {
            if tm != Complex64::ZERO {
                for (zi, &a) in z.iter_mut().zip(ac) {
                    *zi -= a * tm;
                }
            }
        }
    }
}

impl Preconditioner for SmwPrecond<'_> {
    fn dim(&self) -> usize {
        self.ilu.dim()
    }

    fn solve(&self, r: &[Complex64], z: &mut [Complex64]) {
        self.ilu.solve(r, z);
        self.correct(z);
    }

    fn solve_adjoint(&self, r: &[Complex64], z: &mut [Complex64]) {
        self.ilu.solve_adjoint(r, z);
        self.correct_adjoint(z);
    }

    fn solve_block(&self, r: &[Complex64], z: &mut [Complex64], nvecs: usize) {
        self.ilu.solve_block(r, z, nvecs);
        if self.tail.is_some() {
            let n = self.ilu.dim();
            for zc in z.chunks_exact_mut(n).take(nvecs) {
                self.correct(zc);
            }
        }
    }

    fn solve_adjoint_block(&self, r: &[Complex64], z: &mut [Complex64], nvecs: usize) {
        self.ilu.solve_adjoint_block(r, z, nvecs);
        if self.tail.is_some() {
            let n = self.ilu.dim();
            for zc in z.chunks_exact_mut(n).take(nvecs) {
                self.correct_adjoint(zc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CooBuilder;
    use crate::lowrank::{LowRankOp, SparseVec};
    use cbs_linalg::{c64, inverse, solve};
    use rand::SeedableRng;

    /// A random diagonally-dominant sparse matrix with a full diagonal
    /// (sorted columns), ILU-friendly.
    fn random_csr(n: usize, seed: u64) -> crate::CsrMatrix {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, c64(3.0 + rand::Rng::gen_range(&mut rng, 0.0..1.0), 0.5));
            for _ in 0..3 {
                let j = rand::Rng::gen_range(&mut rng, 0..n);
                if j != i {
                    b.push(
                        i,
                        j,
                        c64(
                            rand::Rng::gen_range(&mut rng, -0.4..0.4),
                            rand::Rng::gen_range(&mut rng, -0.4..0.4),
                        ),
                    );
                }
            }
        }
        b.build()
    }

    fn sample_projector(n: usize, seed: u64) -> FactoredProjector {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut sparse_vec = |nnz: usize| {
            let entries: Vec<(usize, Complex64)> = (0..nnz)
                .map(|_| {
                    (
                        rand::Rng::gen_range(&mut rng, 0..n),
                        c64(
                            rand::Rng::gen_range(&mut rng, -0.5..0.5),
                            rand::Rng::gen_range(&mut rng, -0.5..0.5),
                        ),
                    )
                })
                .collect();
            SparseVec::new(entries)
        };
        let mut vnl00 = LowRankOp::new(n, n);
        let p = sparse_vec(3);
        vnl00.push(p.clone(), p, c64(0.9, 0.0));
        let mut vnl01 = LowRankOp::new(n, n);
        vnl01.push(sparse_vec(2), sparse_vec(3), c64(0.4, -0.2));
        FactoredProjector::new(vnl00, vnl01)
    }

    /// Recover the dense matrix whose inverse action `ilu.solve` applies.
    fn dense_from_inverse_action(ilu: &Ilu0, n: usize) -> CMatrix {
        let mut minv = CMatrix::zeros(n, n);
        let mut e = vec![Complex64::ZERO; n];
        let mut col = vec![Complex64::ZERO; n];
        for j in 0..n {
            e[j] = Complex64::real(1.0);
            ilu.solve(&e, &mut col);
            e[j] = Complex64::ZERO;
            for (i, &ci) in col.iter().enumerate() {
                minv.row_mut(i)[j] = ci;
            }
        }
        inverse(&minv).expect("ILU action must be invertible")
    }

    /// Dense `U V†` tail in the same scale convention as `SmwPrecond`.
    fn dense_tail(p: &FactoredProjector, z: Complex64, n: usize) -> CMatrix {
        let mut t = CMatrix::zeros(n, n);
        let factors = [(p.vnl00(), Complex64::real(-1.0)), (p.vnl01(), -z), (p.vnl10(), -z.inv())];
        for (op, alpha) in factors {
            for term in op.terms() {
                let s = alpha * term.coeff;
                for (i, ui) in term.ket.iter() {
                    for (j, vj) in term.bra.iter() {
                        t.row_mut(i)[j] += s * ui * vj.conj();
                    }
                }
            }
        }
        t
    }

    #[test]
    fn smw_solve_matches_dense_woodbury() {
        let n = 12;
        let a = random_csr(n, 7);
        let proj = sample_projector(n, 11);
        let z = c64(0.8, 0.6);
        let ilu_ref = Ilu0::from_csr(&a);
        let lu_dense = dense_from_inverse_action(&ilu_ref, n);
        let mut m_full = lu_dense.clone();
        let tail = dense_tail(&proj, z, n);
        for i in 0..n {
            for j in 0..n {
                m_full.row_mut(i)[j] += tail.row(i)[j];
            }
        }

        let smw = SmwPrecond::new(Ilu0::from_csr(&a), &proj, z);
        assert!(smw.is_complete());
        assert_eq!(smw.rank(), proj.rank());
        assert_eq!(smw.dim(), n);

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let r = CVector::random(n, &mut rng);
        let mut got = vec![Complex64::ZERO; n];
        smw.solve(r.as_slice(), &mut got);
        let want = solve(&m_full, &r).expect("dense M solve");
        for (i, (&g, &w)) in got.iter().zip(want.as_slice()).enumerate() {
            assert!(
                (g - w).abs() < 1e-9,
                "SMW solve deviates from dense Woodbury at {i}: {g:?} vs {w:?}"
            );
        }

        // Adjoint: x solving M† x = r.
        let m_adj = m_full.adjoint();
        let mut got_adj = vec![Complex64::ZERO; n];
        smw.solve_adjoint(r.as_slice(), &mut got_adj);
        let want_adj = solve(&m_adj, &r).expect("dense M† solve");
        for (i, (&g, &w)) in got_adj.iter().zip(want_adj.as_slice()).enumerate() {
            assert!((g - w).abs() < 1e-9, "SMW adjoint solve deviates from dense Woodbury at {i}");
        }
    }

    #[test]
    fn smw_block_solves_are_bitwise_per_column() {
        let n = 10;
        let a = random_csr(n, 21);
        let proj = sample_projector(n, 5);
        let smw = SmwPrecond::new(Ilu0::from_csr(&a), &proj, c64(1.1, -0.3));
        let nvecs = 3;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        let r: Vec<Complex64> = CVector::random(n * nvecs, &mut rng).into_vec();
        let mut z_block = vec![Complex64::ZERO; n * nvecs];
        smw.solve_block(&r, &mut z_block, nvecs);
        let mut z_adj_block = vec![Complex64::ZERO; n * nvecs];
        smw.solve_adjoint_block(&r, &mut z_adj_block, nvecs);
        for c in 0..nvecs {
            let mut z_col = vec![Complex64::ZERO; n];
            smw.solve(&r[c * n..(c + 1) * n], &mut z_col);
            assert_eq!(&z_block[c * n..(c + 1) * n], &z_col[..], "solve_block col {c}");
            smw.solve_adjoint(&r[c * n..(c + 1) * n], &mut z_col);
            assert_eq!(&z_adj_block[c * n..(c + 1) * n], &z_col[..], "adjoint block col {c}");
        }
    }

    /// The completion over in-place factors is the completion over copied
    /// ones: same factors, same solved slabs, same capacitance, bit for bit.
    #[test]
    fn consuming_smw_is_bitwise_the_borrowing_one() {
        let n = 14;
        let pattern = crate::AssembledPattern::build(&random_csr(n, 41), &random_csr(n, 42));
        let proj = sample_projector(n, 43);
        let (e, z) = (0.2, c64(0.9, -0.5));
        let borrowed = pattern.assemble(e, z).ilu0_smw(&proj);
        let consumed = pattern.assemble(e, z).into_ilu0_smw(&proj);
        assert_eq!(consumed.ilu.lu(), borrowed.ilu.lu());
        let (a, b) = (consumed.tail.expect("rank > 0"), borrowed.tail.expect("rank > 0"));
        assert_eq!((&a.aiu, &a.adv), (&b.aiu, &b.adv));
        assert_eq!(a.cap.inverse(), b.cap.inverse());
        let (da, db) = (a.cap.determinant(), b.cap.determinant());
        assert_eq!((da.re.to_bits(), da.im.to_bits()), (db.re.to_bits(), db.im.to_bits()));
    }

    #[test]
    fn empty_projector_degrades_to_plain_ilu_bitwise() {
        let n = 9;
        let a = random_csr(n, 33);
        let proj = FactoredProjector::new(LowRankOp::new(n, n), LowRankOp::new(n, n));
        let smw = SmwPrecond::new(Ilu0::from_csr(&a), &proj, c64(0.7, 0.4));
        assert!(!smw.is_complete());
        assert_eq!(smw.rank(), 0);
        let plain = Ilu0::from_csr(&a);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let r: Vec<Complex64> = CVector::random(n, &mut rng).into_vec();
        let (mut zs, mut zp) = (vec![Complex64::ZERO; n], vec![Complex64::ZERO; n]);
        smw.solve(&r, &mut zs);
        plain.solve(&r, &mut zp);
        assert_eq!(zs, zp, "rank-0 SMW must be bitwise the plain ILU solve");
        smw.solve_adjoint(&r, &mut zs);
        plain.solve_adjoint(&r, &mut zp);
        assert_eq!(zs, zp, "rank-0 SMW adjoint must be bitwise the plain ILU adjoint");
    }
}
