//! Writing a [`RealStencil`] row by row, and reading its two Hamiltonian
//! blocks back as operators.
//!
//! [`StencilBuilder`] is how a Hamiltonian is stored: its caller hands over
//! each grid row's entries in the order it computes them, and the builder
//! merges them by the rule of [`CooBuilder::build`](crate::CooBuilder::build)
//! (stable sort by column, duplicates summed in push order, exact zeros
//! dropped), so every stored `f64` is bitwise what assembling complex
//! triplets and converting them would store.  [`StencilBlock`] is the
//! matrix-free view of one block, `H₀₀` or `H₀₁`: the operator a
//! `QepProblem` is built from, which hands the problem the stencil itself
//! ([`LinearOperator::stencil_block`]), and whose complex forms
//! ([`sparse_csr`](StencilBlock::sparse_csr),
//! [`projectors`](StencilBlock::projectors)) are built only when asked for.

// Construction and the on-request complex forms, not the per-node path.
#![allow(
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    reason = "building a Hamiltonian and its on-request complex forms, not the per-node path"
)]

use cbs_linalg::Complex64;
use cbs_trace::Stage;

use super::{RealCsr, RealLowRank, RealStencil};
use crate::csr::CsrMatrix;
use crate::lowrank::{LowRankOp, SparseVec};
use crate::ops::LinearOperator;

/// The panic message of an index or entry count beyond `u32`.
const TOO_LARGE: &str = "the real stencil stores u32 indices: more than u32::MAX entries";

impl RealCsr {
    /// No rows yet.
    fn empty() -> Self {
        Self { ptr: vec![0], idx: Vec::new(), val: Vec::new(), split: Vec::new() }
    }

    /// Close the current row; `None` when the entry count passes `u32`.
    fn end_row(&mut self) -> Option<()> {
        self.ptr.push(u32::try_from(self.idx.len()).ok()?);
        Some(())
    }

    /// Append one row from `entries` in push order: stable-sorted by
    /// column, duplicates summed in that order, exact zeros dropped —
    /// before the sum, as [`CooBuilder::push`](crate::CooBuilder::push)
    /// drops them, and after it.
    fn push_merged_row(&mut self, entries: &mut [(usize, f64)]) -> Option<()> {
        entries.sort_by_key(|&(c, _)| c);
        let mut run: Option<(usize, f64)> = None;
        for &(c, v) in entries.iter().filter(|&&(_, v)| v != 0.0) {
            match &mut run {
                Some((col, acc)) if *col == c => *acc += v,
                _ => {
                    if let Some(done) = run.replace((c, v)) {
                        self.push_entry(done)?;
                    }
                }
            }
        }
        if let Some(done) = run {
            self.push_entry(done)?;
        }
        self.end_row()
    }

    fn push_entry(&mut self, (c, v): (usize, f64)) -> Option<()> {
        if v != 0.0 {
            self.idx.push(u32::try_from(c).ok()?);
            self.val.push(v);
        }
        Some(())
    }

    /// Append one row of complex entries; `None` on a value with a
    /// non-zero imaginary part or an index or entry count beyond `u32`.
    fn push_real_row(&mut self, entries: impl Iterator<Item = (usize, Complex64)>) -> Option<()> {
        for (i, v) in entries {
            if v.im != 0.0 {
                return None;
            }
            self.idx.push(u32::try_from(i).ok()?);
            self.val.push(v.re);
        }
        self.end_row()
    }

    /// Convert a complex CSR matrix row by row ([`push_real_row`](Self::push_real_row)).
    pub(super) fn from_csr(m: &CsrMatrix) -> Option<Self> {
        let mut out = Self::empty();
        for i in 0..m.nrows() {
            out.push_real_row(m.row_entries(i))?;
        }
        Some(out)
    }

    /// The rows as complex CSR of `n` columns.
    fn to_csr(&self, n: usize) -> CsrMatrix {
        CsrMatrix::from_sorted_rows(
            self.nrows(),
            n,
            self.ptr.iter().map(|&p| p as usize).collect(),
            self.idx.iter().map(|&c| c as usize).collect(),
            self.val.iter().map(|&v| Complex64::real(v)).collect(),
        )
    }

    /// Row `t` as a complex sparse vector.
    fn factor(&self, t: usize) -> SparseVec {
        let (idx, val) = self.row(t);
        SparseVec::new(
            idx.iter().zip(val).map(|(&c, &v)| (c as usize, Complex64::real(v))).collect(),
        )
    }

    /// `y = A x` for one column, `A` these rows (real×complex, each row
    /// summed from zero in storage order).
    fn gather_into(&self, x: &[Complex64], y: &mut [Complex64]) {
        for (i, yi) in y.iter_mut().enumerate() {
            let [acc] = self.gather(i, &[x]);
            *yi = acc;
        }
    }

    /// `y = Aᵀ x` for one column: a scatter over the rows in storage order,
    /// skipping zero inputs (the order of the complex CSR adjoint kernel).
    fn scatter_into(&self, x: &[Complex64], y: &mut [Complex64]) {
        y.fill(Complex64::ZERO);
        for (i, &xi) in x.iter().enumerate() {
            if xi == Complex64::ZERO {
                continue;
            }
            let (idx, val) = self.row(i);
            for (&c, &v) in idx.iter().zip(val) {
                y[c as usize] += xi.scale(v);
            }
        }
    }
}

impl RealLowRank {
    /// No terms yet.
    pub(super) fn empty() -> Self {
        Self { kets: RealCsr::empty(), bras: RealCsr::empty(), coeff: Vec::new() }
    }

    /// Add `coeff·|ket⟩⟨bra|`, skipping an empty factor or a zero
    /// coefficient as [`LowRankOp::push`] does; `None` on a complex factor
    /// value or an index beyond `u32`.
    pub(super) fn push(&mut self, ket: &SparseVec, bra: &SparseVec, coeff: f64) -> Option<()> {
        if ket.is_empty() || bra.is_empty() || coeff == 0.0 {
            return Some(());
        }
        self.kets.push_real_row(ket.iter())?;
        self.bras.push_real_row(bra.iter())?;
        self.coeff.push(coeff);
        Some(())
    }

    fn rank(&self) -> usize {
        self.coeff.len()
    }

    /// `y = Σ_t c_t |ket_t⟩⟨bra_t|x⟩` for one column (ket and bra
    /// exchanged when `transposed`), accumulated from zero in `y` term by
    /// term: the order of [`LowRankOp`]'s own apply.
    fn apply_into(&self, transposed: bool, x: &[Complex64], y: &mut [Complex64]) {
        let (kets, bras) =
            if transposed { (&self.bras, &self.kets) } else { (&self.kets, &self.bras) };
        y.fill(Complex64::ZERO);
        for (t, &c) in self.coeff.iter().enumerate() {
            let [dot] = bras.gather(t, &[x]);
            let amp = dot.scale(c);
            if amp == Complex64::ZERO {
                continue;
            }
            let (idx, val) = kets.row(t);
            for (&i, &v) in idx.iter().zip(val) {
                y[i as usize] += amp.scale(v);
            }
        }
    }

    /// The terms as a complex [`LowRankOp`] on `n` points.
    fn to_lowrank(&self, n: usize) -> LowRankOp {
        let mut op = LowRankOp::new(n, n);
        for (t, &c) in self.coeff.iter().enumerate() {
            op.push(self.kets.factor(t), self.bras.factor(t), Complex64::real(c));
        }
        op
    }
}

/// One of the two Hamiltonian blocks a [`RealStencil`] stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Block {
    /// `H₀₀`: the cell with itself.
    H00,
    /// `H₀₁`: the cell with the next one.
    H01,
}

/// Writes a [`RealStencil`] row by row: `H₀₀` and `H₀₁` one grid row at a
/// time, then the projector terms (module docs).
///
/// Every index and entry count is stored as `u32`: a push that would pass
/// [`RealStencil::MAX_ENTRIES`] panics, so a caller that can bound its
/// entry count checks it before it starts.
pub struct StencilBuilder {
    n: usize,
    h00: RealCsr,
    h01: RealCsr,
    v00: RealLowRank,
    v01: RealLowRank,
}

impl StencilBuilder {
    /// An empty stencil of dimension `n`, with room for `h00_entries`
    /// entries of `H₀₀`.
    pub fn new(n: usize, h00_entries: usize) -> Self {
        assert!(n <= RealStencil::MAX_ENTRIES, "{TOO_LARGE}: dimension {n}");
        let mut h00 = RealCsr::empty();
        h00.ptr.reserve_exact(n);
        h00.idx.reserve_exact(h00_entries);
        h00.val.reserve_exact(h00_entries);
        Self { n, h00, h01: RealCsr::empty(), v00: RealLowRank::empty(), v01: RealLowRank::empty() }
    }

    /// Append the next row of both blocks from `(column, value)` entries in
    /// the order the caller computed them; they are merged in place
    /// ([`CooBuilder::build`](crate::CooBuilder::build)'s rule).
    pub fn push_row(&mut self, h00: &mut [(usize, f64)], h01: &mut [(usize, f64)]) {
        assert!(self.h00.nrows() < self.n, "stencil builder: more than {} rows", self.n);
        for (rows, entries) in [(&mut self.h00, h00), (&mut self.h01, h01)] {
            debug_assert!(entries.iter().all(|&(c, _)| c < self.n), "column out of range");
            rows.push_merged_row(entries).expect(TOO_LARGE);
        }
    }

    /// Add the projector term `coeff·|ket⟩⟨bra|` to `block` (skipped when
    /// a factor is empty or `coeff` is zero).  Panics on a factor value
    /// with a non-zero imaginary part.
    pub fn push_projector(&mut self, block: Block, ket: &SparseVec, bra: &SparseVec, coeff: f64) {
        let tails = match block {
            Block::H00 => &mut self.v00,
            Block::H01 => &mut self.v01,
        };
        let all_real = |f: &SparseVec| f.iter().all(|(_, v)| v.im == 0.0);
        assert!(all_real(ket) && all_real(bra), "stencil builder: a complex projector factor");
        tails.push(ket, bra, coeff).expect(TOO_LARGE);
    }

    /// The stencil; panics unless all `n` rows were pushed.
    pub fn finish(self) -> RealStencil {
        assert_eq!(self.h00.nrows(), self.n, "stencil builder: rows missing");
        RealStencil::from_blocks(self.n, self.h00, self.h01, self.v00, self.v01)
    }
}

impl std::fmt::Debug for RealStencil {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RealStencil")
            .field("dim", &self.n)
            .field("nnz", &self.nnz())
            .field("projector_terms", &(self.v00.rank(), self.v01.rank()))
            .field("memory_bytes", &self.memory_bytes())
            .finish()
    }
}

impl RealStencil {
    /// The largest index or entry count the stencil's `u32` arrays hold.
    pub const MAX_ENTRIES: usize = u32::MAX as usize;

    /// `H₀₀` as a matrix-free operator over this stencil's storage.
    pub fn h00(&self) -> StencilBlock<'_> {
        StencilBlock { stencil: self, block: Block::H00 }
    }

    /// `H₀₁` as a matrix-free operator over this stencil's storage.
    pub fn h01(&self) -> StencilBlock<'_> {
        StencilBlock { stencil: self, block: Block::H01 }
    }

    /// Stored entries of the sparse parts of `H₀₀` and `H₀₁` (the explicit
    /// `H₀₁ᵀ` and the projector factors not counted).
    pub fn nnz(&self) -> usize {
        self.h00.val.len() + self.h01.val.len()
    }

    /// The stencil `h00` and `h01` are the `H₀₀` and `H₀₁` views of, if
    /// they are the two blocks of one stencil ([`StencilBlock`]).
    pub fn of_pencil<'s>(
        h00: &'s dyn LinearOperator,
        h01: &'s dyn LinearOperator,
    ) -> Option<&'s RealStencil> {
        let (a, b) = (h00.stencil_block()?, h01.stencil_block()?);
        let pair = a.block == Block::H00 && b.block == Block::H01;
        (pair && std::ptr::eq(a.stencil, b.stencil)).then_some(a.stencil)
    }
}

/// One block of a [`RealStencil`] — `H₀₀` or `H₀₁`, sparse part plus
/// projector terms — as a matrix-free [`LinearOperator`].
///
/// Its apply runs the block's real rows (real×complex, each row summed from
/// zero in column order), then adds the projector terms summed through a
/// scratch column: the arithmetic of the complex `CsrMatrix` and
/// `LowRankOp` it replaces, entry for entry.  Its adjoint scatters over the
/// same rows.  A `QepProblem` over the two views of one stencil applies
/// `P(z)` through the stencil itself, in one row pass.
#[derive(Clone, Copy)]
pub struct StencilBlock<'s> {
    stencil: &'s RealStencil,
    block: Block,
}

impl<'s> StencilBlock<'s> {
    fn parts(&self) -> (&'s RealCsr, &'s RealLowRank) {
        let s = self.stencil;
        match self.block {
            Block::H00 => (&s.h00, &s.v00),
            Block::H01 => (&s.h01, &s.v01),
        }
    }

    /// The sparse part (kinetic and local terms) as complex CSR, built on
    /// each call.
    pub fn sparse_csr(&self) -> CsrMatrix {
        self.parts().0.to_csr(self.stencil.n)
    }

    /// The projector terms as a complex [`LowRankOp`], built on each call.
    pub fn projectors(&self) -> LowRankOp {
        self.parts().1.to_lowrank(self.stencil.n)
    }

    /// `y = A x` (`A` this block, or `Aᵀ = A†` when `adjoint`).
    fn apply_column(&self, adjoint: bool, x: &[Complex64], y: &mut [Complex64]) {
        let n = self.stencil.n;
        assert_eq!(x.len(), n, "stencil block: x length mismatch");
        assert_eq!(y.len(), n, "stencil block: y length mismatch");
        let (rows, tails) = self.parts();
        cbs_trace::timed(Stage::Kernel, || {
            if adjoint {
                rows.scatter_into(x, y);
            } else {
                rows.gather_into(x, y);
            }
            if tails.rank() > 0 {
                crate::scratch::with_scratch(n, |tmp| {
                    tails.apply_into(adjoint, x, tmp);
                    for (yi, ti) in y.iter_mut().zip(tmp.iter()) {
                        *yi += *ti;
                    }
                });
            }
        });
    }
}

impl LinearOperator for StencilBlock<'_> {
    fn nrows(&self) -> usize {
        self.stencil.n
    }
    fn ncols(&self) -> usize {
        self.stencil.n
    }
    fn apply(&self, x: &[Complex64], y: &mut [Complex64]) {
        self.apply_column(false, x, y);
    }
    fn apply_adjoint(&self, x: &[Complex64], y: &mut [Complex64]) {
        self.apply_column(true, x, y);
    }
    /// This block's share of the stencil: its rows and projector factors,
    /// and for `H₀₁` the explicit `H₀₁ᵀ` — so the two views of one stencil
    /// add up to [`RealStencil::memory_bytes`].
    fn memory_bytes(&self) -> usize {
        let s = self.stencil;
        match self.block {
            Block::H00 => s.h00.bytes() + s.v00.bytes(),
            Block::H01 => s.h01.bytes() + s.h01t.bytes() + s.v01.bytes(),
        }
    }
    fn is_real(&self) -> bool {
        true
    }
    fn stencil_block(&self) -> Option<StencilBlock<'_>> {
        Some(*self)
    }
}
