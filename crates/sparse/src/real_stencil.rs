//! The shifted QEP operator of a **real** Hamiltonian as one fused stencil.
//!
//! `P(z) = −z⁻¹H₀₁† + (E − H₀₀) − z·H₀₁` carries its only complex numbers
//! in the two scalars `z`, `z⁻¹` whenever the blocks are real — which is
//! every Hamiltonian the real-space discretization produces at `k_⊥ = 0`.
//! [`RealStencil`] stores `H₀₀`, `H₀₁` and an explicit `H₀₁ᵀ` as real CSR
//! (`f64` values, `u32` indices: 12 B per entry against 24 B for the complex
//! CSR) plus the projector tails as real sparse factors, and applies `P(z)`
//! to a column-major block in **one row pass**: per row and column tile it
//! accumulates `Σa·x`, `Σb·x`, `Σbᵀ·x` in real×complex arithmetic (4 flops
//! per entry and column against 8) and writes
//!
//! ```text
//! y = E·x − accA − z·accB − z⁻¹·accBᵀ
//! ```
//!
//! once — no scratch slab, no scatter (the transpose is stored, so `H₀₁†`
//! is a gather too) and no combine pass.  The tiles come from an 8/4/2/1
//! ladder, widest first (15 columns run as 8 + 4 + 2 + 1): an 8-wide tile
//! reads each stored value and index once for eight independent accumulator
//! chains.  The projector tails `−V₀₀`, `−z·V₀₁`, `−z⁻¹·V₀₁ᵀ` follow over
//! the same tiles: per tile and term, one gather over the bra indices (the
//! stencil rows' own `RealCsr::gather`) and one real axpy over the ket
//! indices serve every column of the tile.
//!
//! The stencil is the Hamiltonian's only stored form, not a copy of it:
//! `cbs-dft` writes the rows directly ([`StencilBuilder`]), and the two
//! [`StencilBlock`] views are the block operators a QEP is built from, so a
//! `cbs_core::QepProblem` over them borrows this stencil and converts
//! nothing.  Every index and entry count is a `u32`
//! ([`RealStencil::MAX_ENTRIES`]).  A pencil stored in complex form gets a
//! stencil through [`RealStencil::try_new`], which returns `None` as soon
//! as one stored value has a non-zero imaginary part or a dimension / entry
//! count does not fit `u32`; blocks that are not stencil views keep the
//! problem's generic three-pass path.
//!
//! Bitwise contract: per column the accumulation order does not depend on
//! the tile width or the row block (the tails keep their term order per
//! column too), so a block apply equals the column-by-column loop bit for
//! bit — the contract of [`LinearOperator::apply_block`], whose per-column
//! default serves every other operator of this crate.  These and the
//! diagonal ILU's sweeps below are the crate's only fused multi-column
//! kernels.  Against the generic three-pass expression the
//! stencil agrees to rounding (≤ 1e-14 relative), not bitwise: the sums are
//! associated differently.
//!
//! The same rows precondition `P(z)` ([`RealStencil::dilu`]): the diagonal
//! ILU of its sparse part, `M = (D̃+L)D̃⁻¹(D̃+U)` with `L`, `U` the strict
//! triangles of `P(z)` itself, is `n` complex pivots plus two sweeps over
//! the stored rows split at the diagonal — no per-node matrix.  It is a
//! split [`Preconditioner`]: BiCG runs on `Â = M_L⁻¹P(z)M_R⁻¹`
//! (`M_L = D̃+L`, `M_R = I+D̃⁻¹U`), and Eisenstat's trick folds the apply of
//! `P(z)` into the two sweeps, so one apply of `Â` is one pass over the rows
//! (the upper halves descending, the tails, the lower halves ascending)
//! where `P(z)` and `M⁻¹` were two.  On the 12 167-point Al(100) cell with 4
//! columns (2-core x86-64 host, best of 5 × 20 calls) `Â` costs about
//! 1 040 µs against 710 µs for `P(z)` plus 810 µs for `M⁻¹`.  BiCG on `Â`
//! sees the split residual `M_L⁻¹r`; the solver certifies the true one
//! (`cbs-solver`, one fused check per node).

// A hot per-node module: `clippy.toml`'s allocation rule holds here.
// Setup-time allocations carry an `expect` with the reason.
#![deny(clippy::disallowed_macros, clippy::disallowed_methods)]

use std::ops::{Deref, Range};

use cbs_linalg::Complex64;
use cbs_trace::Stage;

use crate::csr::CsrMatrix;
use crate::lowrank::LowRankOp;
use crate::ops::{LinearOperator, Preconditioner};

mod blocks;
pub use blocks::{Block, StencilBlock, StencilBuilder};

/// Rows per cache block of the fused apply and the diagonal-ILU sweeps.
/// One block's index + value stream (≈ `ROW_BLOCK · nnz/row · 12 B`) fits
/// comfortably in L2, so re-streaming it once per column tile is served
/// from cache.
const ROW_BLOCK: usize = 512;

/// Real compressed-sparse-row storage: `f64` values, `u32` indices and row
/// pointers.  Rows are matrix rows for the Hamiltonian blocks and rank-one
/// terms for the projector factors.
#[derive(Clone)]
struct RealCsr {
    ptr: Vec<u32>,
    idx: Vec<u32>,
    val: Vec<f64>,
    /// Square blocks only (empty for the projector factors): per row `i`,
    /// the positions of its first entry in a column `≥ i` and of its first
    /// in a column `> i` — where its strict lower triangle ends and its
    /// strict upper one starts (they differ by the diagonal entry).
    split: Vec<[u32; 2]>,
}

impl RealCsr {
    /// Record the diagonal split of every row (columns ascending within a
    /// row, as `CsrMatrix` and [`transpose`](Self::transpose) store them).
    fn with_split(mut self) -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "stencil set-up, once per Hamiltonian -- not the per-node path"
        )]
        let split = (0..self.nrows())
            .map(|i| {
                let (lo, hi) = (self.ptr[i] as usize, self.ptr[i + 1] as usize);
                let cols = &self.idx[lo..hi];
                let at = |past: bool| {
                    (lo + cols.partition_point(|&c| c < i as u32 || (past && c == i as u32))) as u32
                };
                [at(false), at(true)]
            })
            .collect();
        self.split = split;
        self
    }

    /// The entry range of row `i`'s strict lower (`j < i`) or `upper`
    /// (`j > i`) triangle.
    #[inline(always)]
    fn triangle(&self, i: usize, upper: bool) -> Range<usize> {
        let [below, above] = self.split[i];
        if upper {
            above as usize..self.ptr[i + 1] as usize
        } else {
            self.ptr[i] as usize..below as usize
        }
    }

    /// The stored value at `(i, i)`, 0 where there is none.
    fn diagonal(&self, i: usize) -> f64 {
        let [below, above] = self.split[i];
        if above > below {
            self.val[below as usize]
        } else {
            0.0
        }
    }

    /// The transpose of an `nrows × ncols` matrix (counting sort: each
    /// transposed row keeps its entries in ascending original-row order).
    fn transpose(&self, ncols: usize) -> Self {
        #[expect(
            clippy::disallowed_macros,
            reason = "stencil set-up, once per Hamiltonian -- not the per-node path"
        )]
        let mut ptr = vec![0u32; ncols + 1];
        for &c in &self.idx {
            ptr[c as usize + 1] += 1;
        }
        for c in 0..ncols {
            ptr[c + 1] += ptr[c];
        }
        let mut next = ptr.clone();
        #[expect(
            clippy::disallowed_macros,
            reason = "stencil set-up, once per Hamiltonian -- not the per-node path"
        )]
        let mut idx = vec![0u32; self.idx.len()];
        #[expect(
            clippy::disallowed_macros,
            reason = "stencil set-up, once per Hamiltonian -- not the per-node path"
        )]
        let mut val = vec![0.0; self.val.len()];
        for i in 0..self.nrows() {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let dst = next[c as usize] as usize;
                idx[dst] = i as u32; // row counts fit u32: `ptr` does
                val[dst] = v;
                next[c as usize] += 1;
            }
        }
        Self { ptr, idx, val, split: Vec::new() }
    }

    fn nrows(&self) -> usize {
        self.ptr.len() - 1
    }

    #[inline(always)]
    fn row_range(&self, i: usize) -> Range<usize> {
        self.ptr[i] as usize..self.ptr[i + 1] as usize
    }

    #[inline(always)]
    fn row_is_empty(&self, i: usize) -> bool {
        self.ptr[i] == self.ptr[i + 1]
    }

    #[inline(always)]
    fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let ks = self.row_range(i);
        (&self.idx[ks.clone()], &self.val[ks])
    }

    /// `Σ_k val_k · x_w[idx_k]` over row `i`, for the `W` columns of a tile.
    #[inline(always)]
    fn gather<const W: usize, X: Deref<Target = [Complex64]>>(
        &self,
        i: usize,
        x: &[X; W],
    ) -> [Complex64; W] {
        self.gather_range(self.row_range(i), x)
    }

    /// [`gather`](Self::gather) over the entries `ks` only (part of a row).
    #[inline(always)]
    fn gather_range<const W: usize, X: Deref<Target = [Complex64]>>(
        &self,
        ks: Range<usize>,
        x: &[X; W],
    ) -> [Complex64; W] {
        let mut acc = [Complex64::ZERO; W];
        for (&c, &v) in self.idx[ks.clone()].iter().zip(&self.val[ks]) {
            for w in 0..W {
                let xv = x[w][c as usize];
                acc[w].re += v * xv.re;
                acc[w].im += v * xv.im;
            }
        }
        acc
    }

    fn bytes(&self) -> usize {
        4 * (self.ptr.len() + self.idx.len() + 2 * self.split.len()) + 8 * self.val.len()
    }
}

/// A real low-rank operator `Σ_t c_t |ket_t⟩⟨bra_t|`: row `t` of `kets` /
/// `bras` is the sparse factor of term `t`.
#[derive(Clone)]
struct RealLowRank {
    kets: RealCsr,
    bras: RealCsr,
    coeff: Vec<f64>,
}

impl RealLowRank {
    /// Convert term by term; `None` on the first complex coefficient or
    /// factor value, or an index beyond `u32`.
    fn from_lowrank(op: &LowRankOp) -> Option<Self> {
        let mut out = Self::empty();
        for t in op.terms() {
            if t.coeff.im != 0.0 {
                return None;
            }
            out.push(&t.ket, &t.bra, t.coeff.re)?;
        }
        Some(out)
    }

    fn bytes(&self) -> usize {
        self.kets.bytes() + self.bras.bytes() + 8 * self.coeff.len()
    }

    /// `y_w −= scale · Σ_t c_t |ket_t⟩⟨bra_t|x_w⟩` for the `W` columns of a
    /// tile (terms outer, columns inner: one pass over each term's indices
    /// per tile, and per column the term order is fixed); `transposed`
    /// exchanges ket and bra.
    #[inline(always)]
    fn subtract<const W: usize>(
        &self,
        transposed: bool,
        scale: Complex64,
        x: &[&[Complex64]; W],
        y: &mut [&mut [Complex64]; W],
    ) {
        let (kets, bras) =
            if transposed { (&self.bras, &self.kets) } else { (&self.kets, &self.bras) };
        for (t, &c) in self.coeff.iter().enumerate() {
            let dot = bras.gather(t, x);
            let amp: [Complex64; W] = std::array::from_fn(|w| scale * dot[w].scale(c));
            let (ket_idx, ket_val) = kets.row(t);
            for (&i, &v) in ket_idx.iter().zip(ket_val) {
                for w in 0..W {
                    let yi = &mut y[w][i as usize];
                    yi.re -= v * amp[w].re;
                    yi.im -= v * amp[w].im;
                }
            }
        }
    }
}

/// Run `$recv.$kernel::<W>($args…, j)` on the column tiles of an
/// `$nvecs`-wide slab, in column order: tile `j .. j + W`, widest first from
/// the 8/4/2/1 ladder, the one place the ladder is written.  Each width is
/// its own monomorphised kernel.
macro_rules! for_each_tile {
    ($nvecs:expr, $recv:expr, $kernel:ident($($arg:expr),*)) => {{
        let (nvecs, mut j) = ($nvecs, 0);
        for_each_tile!(@ladder [8, 4, 2, 1] nvecs, j, $recv, $kernel($($arg),*));
    }};
    (@ladder [] $($rest:tt)*) => {};
    (@ladder [$w:literal $(, $narrower:literal)*] $nvecs:ident, $j:ident, $recv:expr,
        $kernel:ident($($arg:expr),*)) => {
        while $nvecs - $j >= $w {
            $recv.$kernel::<$w>($($arg,)* $j);
            $j += $w;
        }
        for_each_tile!(@ladder [$($narrower),*] $nvecs, $j, $recv, $kernel($($arg),*));
    };
}

/// Columns `j .. j + W` of a column-major slab with `n` rows.
fn columns<const W: usize>(x: &[Complex64], n: usize, j: usize) -> [&[Complex64]; W] {
    std::array::from_fn(|w| &x[(j + w) * n..(j + w + 1) * n])
}

/// Mutable twin of [`columns`].
fn columns_mut<const W: usize>(y: &mut [Complex64], n: usize, j: usize) -> [&mut [Complex64]; W] {
    let mut cols = y[j * n..(j + W) * n].chunks_exact_mut(n);
    std::array::from_fn(|_| cols.next().expect("the slab holds W more columns"))
}

/// The three scalars of one application: `P(z) = E − H₀₀ − z·H₀₁ − z⁻¹·H₀₁ᵀ`.
#[derive(Clone, Copy)]
struct Shift {
    e: f64,
    z: Complex64,
    zinv: Complex64,
}

impl Shift {
    fn new(e: f64, z: Complex64) -> Self {
        Self { e, z, zinv: z.inv() }
    }

    /// The shift `1/z̄` of `P(z)† = P(1/z̄)`, with its two scalars the exact
    /// conjugates of this shift's, so every entry it reads is the exact
    /// conjugate of the transposed entry at `z`.
    fn mirror(self) -> Self {
        Self { e: self.e, z: self.zinv.conj(), zinv: self.z.conj() }
    }

    /// The sparse part of `P(z)` off the diagonal, `−h₀₀ − z·h₀₁ − z⁻¹·h₀₁ᵀ`,
    /// from one column's stored `[h₀₀, h₀₁, h₀₁ᵀ]` (the diagonal adds `E`).
    #[inline(always)]
    fn entry(self, [a, b, bt]: [f64; 3]) -> Complex64 {
        Complex64::real(-a) - self.z.scale(b) - self.zinv.scale(bt)
    }
}

/// `P(z)` of a real Hamiltonian, applied in one row pass (module docs).
#[derive(Clone)]
pub struct RealStencil {
    n: usize,
    h00: RealCsr,
    h01: RealCsr,
    h01t: RealCsr,
    v00: RealLowRank,
    v01: RealLowRank,
}

impl RealStencil {
    /// Convert the `(sparse, low-rank)` parts of `H₀₀` and `H₀₁` — how a
    /// pencil stored in complex form gets a stencil (`cbs-dft` writes its
    /// Hamiltonians with a [`StencilBuilder`] instead).
    ///
    /// `None` unless all four parts are square of one dimension, every
    /// stored value is real (`im == 0.0`), and the dimension and entry
    /// counts fit `u32`.
    pub fn try_new(h00: (&CsrMatrix, &LowRankOp), h01: (&CsrMatrix, &LowRankOp)) -> Option<Self> {
        let n = h00.0.nrows();
        let dims = [
            (h00.0.nrows(), h00.0.ncols()),
            (h01.0.nrows(), h01.0.ncols()),
            (h00.1.nrows(), h00.1.ncols()),
            (h01.1.nrows(), h01.1.ncols()),
        ];
        if dims != [(n, n); 4] {
            return None;
        }
        Some(Self::from_blocks(
            n,
            RealCsr::from_csr(h00.0)?,
            RealCsr::from_csr(h01.0)?,
            RealLowRank::from_lowrank(h00.1)?,
            RealLowRank::from_lowrank(h01.1)?,
        ))
    }

    /// The stencil of the `H₀₀` and `H₀₁` rows and projector terms: the
    /// transpose `H₀₁ᵀ` and every row's diagonal split are derived here, for
    /// a converted pencil and a built one alike.
    fn from_blocks(
        n: usize,
        h00: RealCsr,
        h01: RealCsr,
        v00: RealLowRank,
        v01: RealLowRank,
    ) -> Self {
        Self {
            n,
            h00: h00.with_split(),
            h01t: h01.transpose(n).with_split(),
            h01: h01.with_split(),
            v00,
            v01,
        }
    }

    /// Dimension of the blocks.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Storage of the real arrays in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.h00.bytes()
            + self.h01.bytes()
            + self.h01t.bytes()
            + self.v00.bytes()
            + self.v01.bytes()
    }

    /// A copy of the sparse rows without the projector tails (the
    /// benchmark's `AssembledPattern`, [`crate::vestige`]).
    pub(crate) fn sparse_part(&self) -> Self {
        let (h00, h01, h01t) = (self.h00.clone(), self.h01.clone(), self.h01t.clone());
        Self { n: self.n, h00, h01, h01t, v00: RealLowRank::empty(), v01: RealLowRank::empty() }
    }

    /// `Y = P(z) X` at scan energy `e` over column-major slabs of `nvecs`
    /// columns; `P(z)† = P(1/z̄)` goes through the same kernel.  Recorded
    /// as one `Stage::Kernel` span.
    pub fn apply_block(
        &self,
        e: f64,
        z: Complex64,
        x: &[Complex64],
        y: &mut [Complex64],
        nvecs: usize,
    ) {
        let n = self.n;
        assert_eq!(x.len(), n * nvecs, "stencil apply: x slab length mismatch");
        assert_eq!(y.len(), n * nvecs, "stencil apply: y slab length mismatch");
        if n == 0 {
            return;
        }
        let shift = Shift::new(e, z);
        cbs_trace::timed(Stage::Kernel, || {
            for r0 in (0..n).step_by(ROW_BLOCK) {
                let rows = r0..(r0 + ROW_BLOCK).min(n);
                for_each_tile!(nvecs, self, tile(rows.clone(), shift, x, y));
            }
            for_each_tile!(nvecs, self, tails(shift, x, y));
        });
    }

    /// The projector tails `−V₀₀ − z·V₀₁ − z⁻¹·V₀₁ᵀ` for the `W`-wide column
    /// tile starting at column `j`; `V₀₁ᵀ` is `V₀₁` with ket and bra
    /// exchanged.
    #[inline(always)]
    fn tails<const W: usize>(&self, shift: Shift, x: &[Complex64], y: &mut [Complex64], j: usize) {
        let x: [&[Complex64]; W] = columns(x, self.n, j);
        let mut y: [&mut [Complex64]; W] = columns_mut(y, self.n, j);
        self.v00.subtract(false, Complex64::ONE, &x, &mut y);
        self.v01.subtract(false, shift.z, &x, &mut y);
        self.v01.subtract(true, shift.zinv, &x, &mut y);
    }

    /// The sparse part of `P(z)` on `rows` for the `W`-wide column tile
    /// starting at column `j`.
    #[inline(always)]
    fn tile<const W: usize>(
        &self,
        rows: std::ops::Range<usize>,
        Shift { e, z, zinv }: Shift,
        x: &[Complex64],
        y: &mut [Complex64],
        j: usize,
    ) {
        let x: [&[Complex64]; W] = columns(x, self.n, j);
        let y: [&mut [Complex64]; W] = columns_mut(y, self.n, j);
        for i in rows {
            let a = self.h00.gather(i, &x);
            // Interior rows — all but the boundary planes — couple to no
            // neighbouring cell: skip two complex multiplies per column
            // (measured 5-20% of the apply on the (8,0) nanotube).
            if self.h01.row_is_empty(i) && self.h01t.row_is_empty(i) {
                for w in 0..W {
                    y[w][i] = x[w][i].scale(e) - a[w];
                }
                continue;
            }
            let b = self.h01.gather(i, &x);
            let bt = self.h01t.gather(i, &x);
            for w in 0..W {
                y[w][i] = x[w][i].scale(e) - a[w] - z * b[w] - zinv * bt[w];
            }
        }
    }

    /// The diagonal ILU of the sparse part of `P(z)` at scan energy `e`:
    /// `M = (D̃+L)D̃⁻¹(D̃+U)`, where `L` and `U` are the strict triangles of
    /// `P(z)` itself and only the pivots are eliminated,
    ///
    /// ```text
    /// d̃ᵢ = aᵢᵢ − Σ_{j<i} aᵢⱼ aⱼᵢ / d̃ⱼ,
    /// ```
    ///
    /// stored as `n` complex pivots, not as `nnz` factors, from one O(nnz)
    /// pass over the rows; the projector tails take no part.  A zero pivot
    /// is kept, not replaced: its inverse is not finite, nor is then the
    /// split of any right-hand side, so the solver stops every column as
    /// broken down before its first iteration.  `aⱼᵢ` is read from row `i`,
    /// as `−(h₀₀ + z·h₀₁ᵀ + z⁻¹·h₀₁)ᵢⱼ`: like the adjoint apply, this takes
    /// `H₀₀ = H₀₀ᵀ`.  `tests/common`'s textbook D-ILU is its reference.
    pub fn dilu(&self, e: f64, z: Complex64) -> StencilDilu<'_> {
        let shift = Shift::new(e, z);
        cbs_trace::timed(Stage::IluFactor, || {
            let n = self.n;
            let mut scalars = crate::scratch::take_scratch(3 * n);
            let (inv_pivots, rest) = scalars.split_at_mut(n);
            let (offsets, pivots) = rest.split_at_mut(n);
            for i in 0..n {
                let blocks = [&self.h00, &self.h01, &self.h01t];
                let diagonal = shift.entry(blocks.map(|m| m.diagonal(i))) + e;
                let mut pivot = diagonal;
                self.merged(blocks.map(|m| m.triangle(i, false)), |j, [a, b, bt]| {
                    let (aij, aji) = (shift.entry([a, b, bt]), shift.entry([a, bt, b]));
                    pivot -= aij * inv_pivots[j] * aji;
                });
                inv_pivots[i] = Complex64::ONE / pivot;
                offsets[i] = diagonal - pivot;
                pivots[i] = pivot;
            }
            StencilDilu { stencil: self, shift, scalars }
        })
    }

    /// Walks `rows` of one column tile — descending when `descending` —
    /// handing `f` each row's [`triangle_sum`](Self::triangle_sum) over the
    /// tile's columns `zs` (the strict `upper` or lower triangle), read
    /// before `f` updates the row.
    #[inline(always)]
    fn walk<const W: usize>(
        &self,
        rows: Range<usize>,
        upper: bool,
        descending: bool,
        shift: Shift,
        zs: &mut [&mut [Complex64]; W],
        mut f: impl FnMut(usize, [Complex64; W], &mut [&mut [Complex64]; W]),
    ) {
        let mut row = |i: usize| {
            let acc = self.triangle_sum(i, upper, shift, zs);
            f(i, acc, zs);
        };
        if descending {
            rows.rev().for_each(&mut row);
        } else {
            rows.for_each(&mut row);
        }
    }

    /// Calls `f(j, [h₀₀ᵢⱼ, h₀₁ᵢⱼ, h₀₁ᵀᵢⱼ])` once per column `j` the entry
    /// ranges `ks` (one per block, all of one row) store, ascending in `j`,
    /// with 0 for a block that stores no `(i, j)`.
    #[inline(always)]
    fn merged(&self, ks: [Range<usize>; 3], mut f: impl FnMut(usize, [f64; 3])) {
        let blocks = [&self.h00, &self.h01, &self.h01t];
        if ks[1].is_empty() && ks[2].is_empty() {
            for k in ks[0].clone() {
                f(self.h00.idx[k] as usize, [self.h00.val[k], 0.0, 0.0]);
            }
            return;
        }
        let mut at = ks.clone().map(|r| r.start);
        loop {
            let heads: [Option<u32>; 3] =
                std::array::from_fn(|s| (at[s] < ks[s].end).then(|| blocks[s].idx[at[s]]));
            let Some(&j) = heads.iter().flatten().min() else { return };
            let mut v = [0.0; 3];
            for s in 0..3 {
                if heads[s] == Some(j) {
                    v[s] = blocks[s].val[at[s]];
                    at[s] += 1;
                }
            }
            f(j as usize, v);
        }
    }

    /// `Σ [h₀₀ + z·h₀₁ + z⁻¹·h₀₁ᵀ]ᵢⱼ xⱼ` over the strict lower (`j < i`) or
    /// upper (`j > i`) triangle of row `i`, for the `W` columns of a tile.
    #[inline(always)]
    fn triangle_sum<const W: usize, X: Deref<Target = [Complex64]>>(
        &self,
        i: usize,
        upper: bool,
        Shift { z, zinv, .. }: Shift,
        x: &[X; W],
    ) -> [Complex64; W] {
        let mut acc = self.h00.gather_range(self.h00.triangle(i, upper), x);
        let (kb, kbt) = (self.h01.triangle(i, upper), self.h01t.triangle(i, upper));
        // Interior rows couple to no neighbouring cell, as in `tile`.
        if !(kb.is_empty() && kbt.is_empty()) {
            let b = self.h01.gather_range(kb, x);
            let bt = self.h01t.gather_range(kbt, x);
            for w in 0..W {
                acc[w] += z * b[w] + zinv * bt[w];
            }
        }
        acc
    }
}

/// The diagonal ILU of the sparse part of `P(z)` over a [`RealStencil`]'s
/// rows ([`RealStencil::dilu`]): per row the pivot `d̃ᵢ`, its inverse and the
/// offset `Dᵢ − d̃ᵢ` from the stored diagonal `Dᵢ` of `P(z)` (one `3n` buffer
/// drawn from, and on drop returned to, the thread-local scratch pool), and
/// the stencil itself.
///
/// Write `σᵢ(x) = Σⱼ [h₀₀ + z·h₀₁ + z⁻¹·h₀₁ᵀ]ᵢⱼ xⱼ` over the strict lower
/// (`j < i`) or upper (`j > i`) triangle of row `i` — the triangles of
/// `P(z)` with the sign flipped.  Each factor of `M = M_L·M_R`,
/// `M_L = D̃+L` and `M_R = I+D̃⁻¹U`, is one sweep of the stored rows split
/// at the diagonal, as real×complex gathers over the 8/4/2/1 column tiles of
/// the apply:
///
/// ```text
/// M_L⁻¹, i ascending:   wᵢ = d̃ᵢ⁻¹ (rᵢ + σᵢ(w))
/// M_R⁻¹, i descending:  xᵢ = wᵢ + d̃ᵢ⁻¹ σᵢ(x)
/// ```
///
/// and `M⁻¹` is both ([`solve_block`](Self::solve_block)).  The adjoint
/// side reads the rows at the shift `1/z̄` with every scalar conjugated:
/// `conj(aⱼᵢ)` at `z` is the `(i, j)` entry of `P(1/z̄) = P(z)†`, so it
/// gathers too and scatters nothing, and `M⁻†` is the same two sweeps there.
///
/// The solver does not precondition with `M⁻¹`, though: it splits by it
/// ([`Preconditioner`]).  BiCG then runs on `Â = M_L⁻¹P(z)M_R⁻¹`, whose
/// apply folds `P(z)` into the two sweeps (Eisenstat's trick), and the
/// vectors cross into and out of the split system through
/// [`split_rhs`](Preconditioner::split_rhs) and
/// [`unsplit`](Preconditioner::unsplit).  The two sweeps of `M⁻¹` stay for
/// the textbook references that check them.
///
/// Per column no update depends on the tile width, so every block pass
/// equals the column-by-column loop bit for bit.
pub struct StencilDilu<'s> {
    stencil: &'s RealStencil,
    shift: Shift,
    /// `d̃ᵢ⁻¹`, then `Dᵢ − d̃ᵢ`, then `d̃ᵢ`: `n` of each.
    scalars: Vec<Complex64>,
}

/// One side of a node: the shift its rows are read at and its per-row
/// scalars, conjugated (at the mirrored shift) on the dual side.
struct Side<'a> {
    shift: Shift,
    conj: bool,
    inv_pivots: &'a [Complex64],
    offsets: &'a [Complex64],
    pivots: &'a [Complex64],
}

impl Side<'_> {
    #[inline(always)]
    fn read(&self, v: &[Complex64], i: usize) -> Complex64 {
        if self.conj {
            v[i].conj()
        } else {
            v[i]
        }
    }

    #[inline(always)]
    fn inv_pivot(&self, i: usize) -> Complex64 {
        self.read(self.inv_pivots, i)
    }

    #[inline(always)]
    fn offset(&self, i: usize) -> Complex64 {
        self.read(self.offsets, i)
    }

    #[inline(always)]
    fn pivot(&self, i: usize) -> Complex64 {
        self.read(self.pivots, i)
    }
}

/// An in-place one-slab pass of a [`StencilDilu`] side.  `scaled` folds in
/// the `D̃` by which the dual side's factors differ from the mirrored node's
/// own: `M_L† = D̃*·(I + D̃*⁻¹L†)` and `M_R† = (D̃* + U†)·D̃*⁻¹`, where at the
/// shift `1/z̄` the strict upper triangle is `L†` and the lower `U†`.
#[derive(Clone, Copy)]
enum Pass {
    /// `M_L⁻¹ = (D̃+L)⁻¹`, ascending: `zᵢ ← d̃ᵢ⁻¹(zᵢ + σᵢ)`.
    Lower,
    /// `M_R⁻¹ = (I+D̃⁻¹U)⁻¹`, descending: `zᵢ ← zᵢ + d̃ᵢ⁻¹σᵢ`; scaled,
    /// `M_R⁻¹D̃⁻¹`: `zᵢ ← d̃ᵢ⁻¹(zᵢ + σᵢ)`.
    Upper { scaled: bool },
}

impl StencilDilu<'_> {
    fn side(&self, dual: bool) -> Side<'_> {
        let n = self.stencil.n;
        let (inv_pivots, rest) = self.scalars.split_at(n);
        let (offsets, pivots) = rest.split_at(n);
        let shift = if dual { self.shift.mirror() } else { self.shift };
        Side { shift, conj: dual, inv_pivots, offsets, pivots }
    }

    /// Calls `f` on the `ROW_BLOCK`-row blocks of the stencil, in order or
    /// reversed; a pass runs every column tile of one block before the next.
    fn row_blocks(&self, descending: bool, f: impl FnMut(Range<usize>)) {
        let n = self.stencil.n;
        let blocks = (0..n).step_by(ROW_BLOCK).map(move |r0| r0..(r0 + ROW_BLOCK).min(n));
        if descending {
            blocks.rev().for_each(f);
        } else {
            blocks.for_each(f);
        }
    }

    /// `pass` over a whole column-major slab, in place.
    fn pass(&self, pass: Pass, side: &Side<'_>, z: &mut [Complex64], nvecs: usize) {
        self.row_blocks(matches!(pass, Pass::Upper { .. }), |rows| {
            for_each_tile!(nvecs, self, pass_tile(pass, side, rows.clone(), z));
        });
    }

    #[inline(always)]
    fn pass_tile<const W: usize>(
        &self,
        pass: Pass,
        side: &Side<'_>,
        rows: Range<usize>,
        z: &mut [Complex64],
        j: usize,
    ) {
        let s = self.stencil;
        let mut zs: [&mut [Complex64]; W] = columns_mut(z, s.n, j);
        let upper = matches!(pass, Pass::Upper { .. });
        s.walk(rows, upper, upper, side.shift, &mut zs, |i, acc, zs| {
            let p = side.inv_pivot(i);
            for w in 0..W {
                let zi = zs[w][i];
                zs[w][i] = match pass {
                    Pass::Lower | Pass::Upper { scaled: true } => p * (zi + acc[w]),
                    Pass::Upper { scaled: false } => zi + p * acc[w],
                };
            }
        });
    }

    /// `Z = M⁻¹ R` over the first `nvecs` columns of the slabs: both sweeps.
    pub fn solve_block(&self, r: &[Complex64], z: &mut [Complex64], nvecs: usize) {
        self.solve_slab(false, r, z, nvecs);
    }

    /// `Z = M⁻† R` over the first `nvecs` columns of the slabs: both sweeps
    /// of the dual side.
    pub fn solve_adjoint_block(&self, r: &[Complex64], z: &mut [Complex64], nvecs: usize) {
        self.solve_slab(true, r, z, nvecs);
    }

    /// `z = r`, then both sweeps of `M⁻¹` (or `M⁻†`).
    fn solve_slab(&self, dual: bool, r: &[Complex64], z: &mut [Complex64], nvecs: usize) {
        let n = self.stencil.n;
        assert!(r.len() >= n * nvecs, "diagonal ILU solve: r slab too short");
        assert!(z.len() >= n * nvecs, "diagonal ILU solve: z slab too short");
        if n == 0 {
            return;
        }
        let side = self.side(dual);
        cbs_trace::timed(Stage::TriSweep, || {
            let z = &mut z[..n * nvecs];
            z.copy_from_slice(&r[..n * nvecs]);
            self.pass(Pass::Lower, &side, z, nvecs);
            self.pass(Pass::Upper { scaled: false }, &side, z, nvecs);
        });
    }

    /// `rows` of one tile of `Â`'s upper sweep, descending: `t = M_R⁻¹x̂`
    /// (scaled on the dual side, `M_R⁻¹D̃⁻¹x̂`) and the middle term
    /// `uᵢ = (Dᵢ − d̃ᵢ)tᵢ − σᵢ(t)` from the same row sums.
    #[inline(always)]
    #[allow(
        clippy::too_many_arguments,
        reason = "one tile of a sweep: each slab is its own borrow of the caller's state"
    )]
    fn split_upper_tile<const W: usize>(
        &self,
        side: &Side<'_>,
        scaled: bool,
        rows: Range<usize>,
        x: &[Complex64],
        t: &mut [Complex64],
        u: &mut [Complex64],
        j: usize,
    ) {
        let n = self.stencil.n;
        let xs: [&[Complex64]; W] = columns(x, n, j);
        let mut ts: [&mut [Complex64]; W] = columns_mut(t, n, j);
        let mut us: [&mut [Complex64]; W] = columns_mut(u, n, j);
        self.stencil.walk(rows, true, true, side.shift, &mut ts, |i, acc, ts| {
            let (p, c) = (side.inv_pivot(i), side.offset(i));
            for w in 0..W {
                let ti = if scaled { p * (xs[w][i] + acc[w]) } else { xs[w][i] + p * acc[w] };
                ts[w][i] = ti;
                us[w][i] = c * ti - acc[w];
            }
        });
    }

    /// `rows` of one tile of `Â`'s lower sweep, ascending: `w = M_L⁻¹u` in
    /// place over `u`, and `y ← t + w` (scaled on the dual side, `D̃(t + w)`)
    /// over the `t` in `y`.
    #[inline(always)]
    fn split_lower_tile<const W: usize>(
        &self,
        side: &Side<'_>,
        scaled: bool,
        rows: Range<usize>,
        u: &mut [Complex64],
        y: &mut [Complex64],
        j: usize,
    ) {
        let n = self.stencil.n;
        let mut ws: [&mut [Complex64]; W] = columns_mut(u, n, j);
        let mut ys: [&mut [Complex64]; W] = columns_mut(y, n, j);
        self.stencil.walk(rows, false, false, side.shift, &mut ws, |i, acc, ws| {
            let p = side.inv_pivot(i);
            if scaled {
                let d = side.pivot(i);
                for w in 0..W {
                    ws[w][i] = p * (ws[w][i] + acc[w]);
                    ys[w][i] = d * (ys[w][i] + ws[w][i]);
                }
            } else {
                for w in 0..W {
                    ws[w][i] = p * (ws[w][i] + acc[w]);
                    ys[w][i] += ws[w][i];
                }
            }
        });
    }

    /// Runs one in/out map of the split system over an `nvecs`-column slab
    /// as a `Stage::TriSweep` span.
    fn map(
        &self,
        dual: bool,
        z: &mut [Complex64],
        nvecs: usize,
        f: impl FnOnce(&Side<'_>, &mut [Complex64]),
    ) {
        let n = self.stencil.n;
        assert_eq!(z.len(), n * nvecs, "split map: slab length mismatch");
        if n > 0 {
            cbs_trace::timed(Stage::TriSweep, || f(&self.side(dual), z));
        }
    }
}

impl Drop for StencilDilu<'_> {
    fn drop(&mut self) {
        crate::scratch::recycle_scratch(std::mem::take(&mut self.scalars));
    }
}

impl Preconditioner for StencilDilu<'_> {
    fn dim(&self) -> usize {
        self.stencil.n
    }

    /// Right-hand sides into the split system, in place over an
    /// `nvecs`-column slab: `b̂ = M_L⁻¹b`, or on the dual side
    /// `M_R⁻†b̃ = D̃*·(D̃* + U†)⁻¹b̃`.
    fn split_rhs(&self, dual: bool, b: &mut [Complex64], nvecs: usize) {
        let n = self.stencil.n;
        self.map(dual, b, nvecs, |side, b| {
            self.pass(Pass::Lower, side, b, nvecs);
            if dual {
                for column in b.chunks_exact_mut(n) {
                    for (i, v) in column.iter_mut().enumerate() {
                        *v = side.pivot(i) * *v;
                    }
                }
            }
        });
    }

    /// The split system's apply `Â = M_L⁻¹ P(z) M_R⁻¹`, whose adjoint is
    /// `Â† = M_R⁻† P(z)† M_L⁻†`.  BiCG on `Â` builds the same iterates as
    /// BiCG on `P(z)` preconditioned by `M` (in exact arithmetic: the
    /// preconditioned recurrence does not depend on how `M` is split), but
    /// one apply of `Â` is one pass over the stored rows where `P(z)` and
    /// `M⁻¹` were two — Eisenstat's trick (SIAM J. Sci. Stat. Comput. 2,
    /// 1981).  With `P = D + L + U − V` (`D` the stored diagonal, `V` the
    /// projector tails) and `D+L+U = (D̃+L) + (D̃+U) + (D − 2D̃)`:
    ///
    /// ```text
    /// t = M_R⁻¹ x̂                                  (upper sweep, descending)
    /// u = D̃x̂ + (D − 2D̃)t − V t = (D − D̃)t − σ(t) − V t   (same rows, then tails)
    /// Âx̂ = t + M_L⁻¹ u                             (lower sweep, ascending)
    /// ```
    ///
    /// The dual side is the same kernel at the mirrored node,
    /// `Â(z)† = D̃*·Â(1/z̄)·D̃*⁻¹`, with the two `D̃*` folded into the sweeps.
    /// One `n × nvecs` slab for `u` comes from the scratch pool per apply.
    fn split_apply(&self, dual: bool, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
        let n = self.stencil.n;
        assert_eq!(x.len(), n * nvecs, "split apply: x slab length mismatch");
        assert_eq!(y.len(), n * nvecs, "split apply: y slab length mismatch");
        if n == 0 {
            return;
        }
        let side = self.side(dual);
        let shift = side.shift;
        cbs_trace::timed(Stage::Kernel, || {
            let mut u = crate::scratch::take_scratch_for_overwrite(n * nvecs);
            self.row_blocks(true, |rows| {
                for_each_tile!(
                    nvecs,
                    self,
                    split_upper_tile(&side, dual, rows.clone(), x, y, &mut u)
                );
            });
            for_each_tile!(nvecs, self.stencil, tails(shift, y, &mut u));
            self.row_blocks(false, |rows| {
                for_each_tile!(nvecs, self, split_lower_tile(&side, dual, rows.clone(), &mut u, y));
            });
            crate::scratch::recycle_scratch(u);
        });
    }

    /// Solutions out of the split system, in place: `x = M_R⁻¹x̂`, or on the
    /// dual side `x̃ = M_L⁻†ŷ`.
    fn unsplit(&self, dual: bool, x: &mut [Complex64], nvecs: usize) {
        self.map(dual, x, nvecs, |side, x| {
            self.pass(Pass::Upper { scaled: dual }, side, x, nvecs);
        });
    }

    /// `‖M_L r̂‖`, or on the dual side `‖M_R† r̂‖ = ‖(D̃* + U†)·D̃*⁻¹r̂‖`: the
    /// norm of the residual of `P(z)` (of `P(z)†`) that a residual `r̂` of
    /// the split system stands for.  One pass over the rows' strict lower
    /// triangles at the side's shift, `(M_L r̂)ᵢ = d̃ᵢr̂ᵢ − σᵢ(r̂)`; the dual
    /// side gathers from `s = D̃*⁻¹r̂` (a scratch-pool slab), whose diagonal
    /// term `d̃*ᵢsᵢ` is `r̂ᵢ` itself.  No tails, no solve.
    fn unsplit_residual_norm(&self, dual: bool, r: &[Complex64]) -> f64 {
        assert_eq!(r.len(), self.stencil.n, "unsplit residual: length mismatch");
        let side = self.side(dual);
        cbs_trace::timed(Stage::TriSweep, || {
            let scaled = dual.then(|| {
                let mut s = crate::scratch::take_scratch_for_overwrite(r.len());
                for (i, si) in s.iter_mut().enumerate() {
                    *si = side.inv_pivot(i) * r[i];
                }
                s
            });
            let x = scaled.as_deref().unwrap_or(r);
            let mut sum = 0.0;
            for (i, &ri) in r.iter().enumerate() {
                let [sigma] = self.stencil.triangle_sum(i, false, side.shift, &[x]);
                sum += (if dual { ri } else { side.pivot(i) * ri } - sigma).norm_sqr();
            }
            if let Some(s) = scaled {
                crate::scratch::recycle_scratch(s);
            }
            sum.sqrt()
        })
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    reason = "test fixtures, not the per-node path"
)]
mod tests {
    use super::*;
    use crate::ops::{adjoint_defect, LinearOperator, SplitOperator};
    use crate::{CooBuilder, SparseVec};
    use cbs_linalg::{c64, CVector};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    type Parts = (CsrMatrix, LowRankOp, CsrMatrix, LowRankOp);

    fn real_sparse_vec(n: usize, nnz: usize, rng: &mut ChaCha8Rng) -> SparseVec {
        SparseVec::new(
            (0..nnz).map(|_| (rng.gen_range(0..n), c64(rng.gen_range(-1.0..1.0), 0.0))).collect(),
        )
    }

    /// A real symmetric `H₀₀`, an `H₀₁` whose rows are empty except for the
    /// last `n / 4`, and `rank` real projector terms on each.
    fn real_parts(n: usize, rank: usize, seed: u64) -> Parts {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut a = CooBuilder::new(n, n);
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            a.push(i, i, c64(rng.gen_range(1.0..3.0), 0.0));
            for _ in 0..3 {
                let (j, v) = (rng.gen_range(0..n), c64(rng.gen_range(-1.0..1.0), 0.0));
                a.push(i, j, v);
                a.push(j, i, v);
            }
            if i >= n - n / 4 {
                b.push(i, rng.gen_range(0..n / 4 + 1), c64(rng.gen_range(-1.0..1.0), 0.0));
                b.push(i, rng.gen_range(0..n), c64(rng.gen_range(-1.0..1.0), 0.0));
            }
        }
        let (mut v00, mut v01) = (LowRankOp::new(n, n), LowRankOp::new(n, n));
        for _ in 0..rank {
            let p = real_sparse_vec(n, 5, &mut rng);
            v00.push(p.clone(), p, c64(rng.gen_range(0.5..2.0), 0.0));
            v01.push(
                real_sparse_vec(n, 4, &mut rng),
                real_sparse_vec(n, 3, &mut rng),
                c64(rng.gen_range(-1.0..1.0), 0.0),
            );
        }
        (a.build(), v00, b.build(), v01)
    }

    fn stencil_of(p: &Parts) -> RealStencil {
        RealStencil::try_new((&p.0, &p.1), (&p.2, &p.3)).expect("real parts convert")
    }

    /// The generic composition the stencil replaces: three block applies per
    /// part through a temporary, combined pass by pass.
    fn three_pass(
        p: &Parts,
        e: f64,
        z: Complex64,
        x: &[Complex64],
        nvecs: usize,
    ) -> Vec<Complex64> {
        let mut y: Vec<Complex64> = x.iter().map(|v| v.scale(e)).collect();
        let mut tmp = vec![Complex64::ZERO; x.len()];
        let mut subtract = |scale: Complex64, op: &dyn LinearOperator, adjoint: bool| {
            if adjoint {
                op.apply_adjoint_block(x, &mut tmp, nvecs);
            } else {
                op.apply_block(x, &mut tmp, nvecs);
            }
            for (yi, ti) in y.iter_mut().zip(&tmp) {
                *yi -= scale * *ti;
            }
        };
        subtract(Complex64::ONE, &p.0, false);
        subtract(Complex64::ONE, &p.1, false);
        subtract(z, &p.2, false);
        subtract(z, &p.3, false);
        subtract(z.inv(), &p.2, true);
        subtract(z.inv(), &p.3, true);
        y
    }

    fn relative_error(got: &[Complex64], want: &[Complex64]) -> f64 {
        let diff: f64 = got.iter().zip(want).map(|(a, b)| (*a - *b).norm_sqr()).sum();
        let norm: f64 = want.iter().map(|v| v.norm_sqr()).sum();
        (diff / norm).sqrt()
    }

    fn apply(
        s: &RealStencil,
        e: f64,
        z: Complex64,
        x: &[Complex64],
        nvecs: usize,
    ) -> Vec<Complex64> {
        // Poisoned output: the kernel must overwrite every element.
        let mut y = vec![c64(f64::NAN, f64::NAN); x.len()];
        s.apply_block(e, z, x, &mut y, nvecs);
        y
    }

    /// `P(z)` at a fixed shift as an operator, `P(z)† = P(1/z̄)`.
    struct Shifted<'a>(&'a RealStencil, f64, Complex64);

    impl LinearOperator for Shifted<'_> {
        fn nrows(&self) -> usize {
            self.0.dim()
        }
        fn ncols(&self) -> usize {
            self.0.dim()
        }
        fn apply(&self, x: &[Complex64], y: &mut [Complex64]) {
            self.0.apply_block(self.1, self.2, x, y, 1);
        }
        fn apply_adjoint(&self, x: &[Complex64], y: &mut [Complex64]) {
            self.0.apply_block(self.1, Complex64::ONE / self.2.conj(), x, y, 1);
        }
    }

    #[test]
    fn stencil_matches_the_three_pass_expression() {
        // 600 rows: the second row block is exercised too.
        for (n, rank, seed) in [(37, 4, 71), (600, 6, 72)] {
            let p = real_parts(n, rank, seed);
            let s = stencil_of(&p);
            assert_eq!(s.dim(), n);
            assert!(s.memory_bytes() > 0);
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 100);
            let (e, z) = (0.37, c64(0.8, 0.45));
            for nvecs in [1usize, 2, 3, 4, 5, 8, 9, 12, 15] {
                let x = CVector::random(n * nvecs, &mut rng).into_vec();
                for shift in [z, Complex64::ONE / z.conj()] {
                    let err = relative_error(
                        &apply(&s, e, shift, &x, nvecs),
                        &three_pass(&p, e, shift, &x, nvecs),
                    );
                    assert!(err <= 1e-14, "n {n} nvecs {nvecs} z {shift:?}: {err:.2e}");
                }
            }
        }
    }

    #[test]
    fn block_apply_is_bitwise_column_equivalent() {
        let n = 600;
        let s = stencil_of(&real_parts(n, 5, 73));
        let mut rng = ChaCha8Rng::seed_from_u64(74);
        let (e, z) = (-0.2, c64(1.1, -0.7));
        for nvecs in [1usize, 2, 3, 4, 5, 8, 9, 12, 15] {
            let x = CVector::random(n * nvecs, &mut rng).into_vec();
            let block = apply(&s, e, z, &x, nvecs);
            for c in 0..nvecs {
                let col = apply(&s, e, z, &x[c * n..(c + 1) * n], 1);
                assert_eq!(&block[c * n..(c + 1) * n], &col[..], "nvecs {nvecs} column {c}");
            }
        }
    }

    #[test]
    fn adjoint_is_the_kernel_at_the_inverse_conjugate_shift() {
        let s = stencil_of(&real_parts(50, 4, 75));
        let mut rng = ChaCha8Rng::seed_from_u64(76);
        assert!(adjoint_defect(&Shifted(&s, 0.1, c64(1.7, -0.6)), 8, &mut rng) < 1e-12);
    }

    #[test]
    fn empty_coupling_empty_projector_and_zero_columns() {
        let n = 23;
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let x = CVector::random(n * 3, &mut rng).into_vec();
        let (e, z) = (0.5, c64(0.6, 0.9));

        // No projector at all.
        let bare = real_parts(n, 0, 78);
        let s = stencil_of(&bare);
        assert!(relative_error(&apply(&s, e, z, &x, 3), &three_pass(&bare, e, z, &x, 3)) <= 1e-14);

        // No coupling block at all: P(z) = E − H₀₀ for every z.
        let mut decoupled = real_parts(n, 2, 79);
        decoupled.2 = CsrMatrix::zeros(n, n);
        decoupled.3 = LowRankOp::new(n, n);
        let s = stencil_of(&decoupled);
        assert_eq!(apply(&s, e, z, &x, 3), apply(&s, e, c64(-2.0, 0.1), &x, 3));
        assert!(
            relative_error(&apply(&s, e, z, &x, 3), &three_pass(&decoupled, e, z, &x, 3)) <= 1e-14
        );

        // A zero column maps to a zero column and leaves its neighbours alone.
        let full = real_parts(n, 3, 80);
        let s = stencil_of(&full);
        let mut holed = x.clone();
        holed[n..2 * n].fill(Complex64::ZERO);
        let (y, y_holed) = (apply(&s, e, z, &x, 3), apply(&s, e, z, &holed, 3));
        assert!(y_holed[n..2 * n].iter().all(|v| *v == Complex64::ZERO));
        assert_eq!(y[..n], y_holed[..n]);
        assert_eq!(y[2 * n..], y_holed[2 * n..]);

        // Zero rows, zero columns.
        let none = (CsrMatrix::zeros(0, 0), LowRankOp::new(0, 0));
        let s = RealStencil::try_new((&none.0, &none.1), (&none.0, &none.1)).unwrap();
        s.apply_block(e, z, &[], &mut [], 0);
        s.apply_block(e, z, &[], &mut [], 4);
    }

    #[test]
    fn conversion_refuses_what_is_not_real_and_square() {
        let n = 12;
        let p = real_parts(n, 2, 81);
        let convert = |p: &Parts| RealStencil::try_new((&p.0, &p.1), (&p.2, &p.3));
        assert!(convert(&p).is_some());

        // One complex matrix entry, in either block.
        let mut tweak = CooBuilder::new(n, n);
        tweak.push(3, 5, c64(0.0, 1e-300));
        let tweak = tweak.build();
        let mut q = real_parts(n, 2, 81);
        q.0 = q.0.add_scaled(Complex64::ONE, &tweak);
        assert!(convert(&q).is_none());
        let mut q = real_parts(n, 2, 81);
        q.2 = q.2.add_scaled(Complex64::ONE, &tweak);
        assert!(convert(&q).is_none());

        // A complex projector coefficient, a complex factor value.
        let real = SparseVec::new(vec![(1, c64(0.5, 0.0))]);
        let complex = SparseVec::new(vec![(1, c64(0.5, -0.25))]);
        let mut q = real_parts(n, 2, 81);
        q.1.push(real.clone(), real.clone(), c64(1.0, 0.5));
        assert!(convert(&q).is_none());
        let mut q = real_parts(n, 2, 81);
        q.3.push(real.clone(), complex.clone(), c64(1.0, 0.0));
        assert!(convert(&q).is_none());
        let mut q = real_parts(n, 2, 81);
        q.3.push(complex, real, c64(1.0, 0.0));
        assert!(convert(&q).is_none());

        // Mismatched dimensions.
        let mut q = real_parts(n, 2, 81);
        q.2 = CsrMatrix::zeros(n + 1, n + 1);
        assert!(convert(&q).is_none());
        let mut q = real_parts(n, 2, 81);
        q.1 = LowRankOp::new(n, n + 1);
        assert!(convert(&q).is_none());
    }

    /// The builder merges a row as `CooBuilder::build` does — stable by
    /// column, duplicates summed in push order, exact zeros dropped before
    /// and after the sum — and skips the projector terms `LowRankOp::push`
    /// skips: rows with repeated columns, explicit zeros and a cancelling
    /// pair, pushed in one order into both, store the same bits.
    #[test]
    fn builder_merges_rows_as_the_coo_assembly_does() {
        let n = 40;
        let mut rng = ChaCha8Rng::seed_from_u64(120);
        let mut coo = [CooBuilder::new(n, n), CooBuilder::new(n, n)];
        let mut builder = StencilBuilder::new(n, 0);
        for i in 0..n {
            let mut rows = [Vec::new(), Vec::new()];
            for (block, row) in rows.iter_mut().enumerate() {
                for _ in 0..9 {
                    let v = [0.0, rng.gen_range(-1.0..1.0)][rng.gen_range(0..2)];
                    row.push(((i + block + rng.gen_range(0..4)) % n, v));
                }
                let cancel = (i + 9) % n;
                row.extend([(cancel, 0.3), (cancel, -0.3)]);
            }
            for (b, row) in coo.iter_mut().zip(&rows) {
                for &(j, v) in row {
                    b.push(i, j, c64(v, 0.0));
                }
            }
            let [h00, h01] = &mut rows;
            builder.push_row(h00, h01);
        }
        let p = real_sparse_vec(n, 4, &mut rng);
        let mut lowrank = [LowRankOp::new(n, n), LowRankOp::new(n, n)];
        for (block, op) in [Block::H00, Block::H01].into_iter().zip(&mut lowrank) {
            for (ket, bra, c) in [(&p, &p, 0.7), (&p, &SparseVec::empty(), 0.5), (&p, &p, 0.0)] {
                builder.push_projector(block, ket, bra, c);
                op.push(ket.clone(), bra.clone(), c64(c, 0.0));
            }
        }
        let built = builder.finish();
        let [a, b] = coo.map(CooBuilder::build);
        assert!(a.nnz() < 9 * n, "duplicates were merged");
        let converted = RealStencil::try_new((&a, &lowrank[0]), (&b, &lowrank[1])).unwrap();
        for (view, want) in [(built.h00(), &a), (built.h01(), &b)] {
            let got = view.sparse_csr();
            assert_eq!((got.row_ptr(), got.col_idx()), (want.row_ptr(), want.col_idx()));
            let bits =
                |m: &CsrMatrix| m.values().iter().map(|v| v.re.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(want));
            assert_eq!(view.projectors().rank(), 1);
        }
        assert_eq!(built.memory_bytes(), converted.memory_bytes());
        let x = CVector::random(n * 3, &mut rng).into_vec();
        let (e, z) = (0.3, c64(0.6, -0.8));
        let [got, want] = [&built, &converted].map(|s| apply(s, e, z, &x, 3));
        let bits = |v: &[Complex64]| {
            v.iter().map(|c| [c.re.to_bits(), c.im.to_bits()]).collect::<Vec<_>>()
        };
        assert_eq!(bits(&got), bits(&want));
    }

    /// [`real_parts`] whose coupling block also stores a diagonal entry and
    /// a column `H₀₀` stores, on every coupled row: the same `(i, j)` then
    /// sits in two (or, through `H₀₁ᵀ`, three) blocks.
    fn coupled_parts(n: usize, rank: usize, seed: u64) -> Parts {
        let mut p = real_parts(n, rank, seed);
        let mut extra = CooBuilder::new(n, n);
        for i in n - n / 4..n {
            extra.push(i, i, c64(0.3, 0.0));
            let (j, _) = p.0.row_entries(i).find(|&(j, _)| j != i).expect("H₀₀ couples row i");
            extra.push(i, j, c64(-0.2, 0.0));
        }
        p.2 = p.2.add_scaled(Complex64::ONE, &extra.build());
        p
    }

    /// `(M⁻¹ R, M⁻† R)` over an `nvecs`-column slab.
    fn precondition(m: &StencilDilu<'_>, r: &[Complex64], nvecs: usize) -> [Vec<Complex64>; 2] {
        // Poisoned outputs: the sweeps must overwrite every element.
        let mut out = [vec![c64(f64::NAN, f64::NAN); r.len()], vec![c64(f64::NAN, 0.0); r.len()]];
        m.solve_block(r, &mut out[0], nvecs);
        m.solve_adjoint_block(r, &mut out[1], nvecs);
        out
    }

    fn dot(a: &[Complex64], b: &[Complex64]) -> Complex64 {
        a.iter().zip(b).map(|(x, y)| x.conj() * *y).sum()
    }

    #[test]
    fn dilu_adjoint_solve_is_the_adjoint_of_the_solve() {
        let s = stencil_of(&coupled_parts(120, 3, 94));
        let m = s.dilu(-9.0, c64(1.3, -0.4));
        let mut rng = ChaCha8Rng::seed_from_u64(95);
        for _ in 0..6 {
            let x = CVector::random(120, &mut rng).into_vec();
            let y = CVector::random(120, &mut rng).into_vec();
            let ([mx, _], [_, mty]) = (precondition(&m, &x, 1), precondition(&m, &y, 1));
            let (lhs, rhs) = (dot(&mx, &y), dot(&x, &mty));
            assert!((lhs - rhs).abs() <= 1e-12 * lhs.abs().max(rhs.abs()), "{lhs:?} vs {rhs:?}");
        }
    }

    #[test]
    fn dilu_block_solve_is_bitwise_column_equivalent() {
        let n = 600;
        let s = stencil_of(&coupled_parts(n, 5, 96));
        let m = s.dilu(0.37, c64(1.1, -0.7));
        let mut rng = ChaCha8Rng::seed_from_u64(97);
        for nvecs in [1usize, 2, 3, 4, 5, 8, 9, 12, 15] {
            let r = CVector::random(n * nvecs, &mut rng).into_vec();
            let block = precondition(&m, &r, nvecs);
            for c in 0..nvecs {
                let column = precondition(&m, &r[c * n..(c + 1) * n], 1);
                for (b, col) in block.iter().zip(&column) {
                    assert_eq!(&b[c * n..(c + 1) * n], &col[..], "nvecs {nvecs} column {c}");
                }
            }
        }
    }

    /// A tridiagonal sparse part: the LU updates only the pivots, so the
    /// diagonal ILU is `P(z)` itself — with a coupling block on and above
    /// the diagonal, `P(z)` is not symmetric and `M⁻†` is a different sweep.
    fn tridiagonal(n: usize, a00: f64) -> Parts {
        let (mut a, mut b) = (CooBuilder::new(n, n), CooBuilder::new(n, n));
        for i in 0..n {
            a.push(i, i, c64(if i == 0 { a00 } else { 0.1 * (i % 7) as f64 - 0.3 }, 0.0));
            if i > 0 {
                b.push(i, i, c64(0.2, 0.0));
            }
            if i + 1 < n {
                a.push(i, i + 1, c64(-0.5, 0.0));
                a.push(i + 1, i, c64(-0.5, 0.0));
                b.push(i, i + 1, c64(0.15, 0.0));
            }
        }
        (a.build(), LowRankOp::new(n, n), b.build(), LowRankOp::new(n, n))
    }

    #[test]
    fn dilu_is_exact_on_a_tridiagonal_pencil() {
        let n = 700;
        let s = stencil_of(&tridiagonal(n, 0.4));
        let (e, z) = (2.5, c64(0.9, 0.6));
        let m = s.dilu(e, z);
        let mut rng = ChaCha8Rng::seed_from_u64(98);
        let x = CVector::random(n * 2, &mut rng).into_vec();
        let [solved, _] = precondition(&m, &apply(&s, e, z, &x, 2), 2);
        let [_, dual] = precondition(&m, &apply(&s, e, Complex64::ONE / z.conj(), &x, 2), 2);
        assert!(relative_error(&solved, &x) <= 1e-12, "M⁻¹P(z) is not the identity");
        assert!(relative_error(&dual, &x) <= 1e-12, "M⁻†P(z)† is not the identity");
    }

    /// A node's diagonal ILU holds one `3n` buffer, its per-row scalars, and
    /// a split apply one `n × nvecs` slab; both come from the thread's
    /// scratch pool and go back to it, and a second node reuses them without
    /// growing the pool (a fresh thread starts with an empty pool, so the
    /// pool after the job is what the job held).
    #[test]
    fn dilu_and_split_apply_hold_only_pooled_buffers() {
        let n = 300;
        let s = stencil_of(&coupled_parts(n, 2, 100));
        let mut rng = ChaCha8Rng::seed_from_u64(101);
        let r = CVector::random(n * 4, &mut rng).into_vec();
        let node = |z| {
            let m = s.dilu(0.1, z);
            drop(precondition(&m, &r, 4));
            drop(split_apply(&m, &r, 4));
        };
        let pooled = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    node(c64(0.7, 0.7));
                    let first = crate::scratch::pooled_capacities();
                    node(c64(-0.2, 1.1));
                    (first, crate::scratch::pooled_capacities())
                })
                .join()
                .expect("the node job does not panic")
        });
        assert_eq!(pooled, (vec![4 * n, 3 * n], vec![4 * n, 3 * n]));
        let empty = real_parts(0, 0, 102);
        let s = stencil_of(&empty);
        let m = s.dilu(0.1, c64(0.7, 0.7));
        precondition(&m, &[], 3);
        split_apply(&m, &[], 3);
        for dual in [false, true] {
            m.split_rhs(dual, &mut [], 3);
            m.unsplit(dual, &mut [], 3);
        }
    }

    /// `(Â X, Â† X)` over an `nvecs`-column slab.
    fn split_apply(m: &StencilDilu<'_>, x: &[Complex64], nvecs: usize) -> [Vec<Complex64>; 2] {
        // Poisoned outputs: the split apply must overwrite every element.
        let mut out = [vec![c64(f64::NAN, 0.0); x.len()], vec![c64(0.0, f64::NAN); x.len()]];
        m.split_apply(false, x, &mut out[0], nvecs);
        m.split_apply(true, x, &mut out[1], nvecs);
        out
    }

    /// The split kernel's fixtures: a plain pencil and one whose coupling
    /// block stores diagonal entries and shares columns with `H₀₀`, each at
    /// a node and at a mirrored one.
    fn split_fixtures() -> [(Parts, f64, Complex64, u64); 4] {
        [
            (real_parts(80, 3, 110), -9.0, c64(0.8, 0.45), 111),
            (real_parts(80, 3, 110), 0.37, Complex64::ONE / c64(1.1, 0.7), 112),
            (coupled_parts(600, 4, 113), -9.0, c64(1.1, -0.7), 114),
            (coupled_parts(600, 4, 113), -6.0, Complex64::ONE / c64(0.8, -0.45), 115),
        ]
    }

    /// `v ← f(i)·v` per row `i` of every column of a slab.
    fn scale_rows(v: &mut [Complex64], n: usize, f: impl Fn(usize) -> Complex64) {
        for column in v.chunks_exact_mut(n) {
            for (i, vi) in column.iter_mut().enumerate() {
                *vi = f(i) * *vi;
            }
        }
    }

    /// `Â = M_L⁻¹·P(z)·M_R⁻¹` composed from the stencil apply and single
    /// sweeps, and `Â† = D̃*·M̃_L⁻¹·P(1/z̄)·M̃_R⁻¹·D̃*⁻¹` from the mirrored
    /// node's (`M̃ = M̃_L·M̃_R` the diagonal ILU at `1/z̄`, whose pivots are
    /// `d̃*`): the one-pass kernel agrees with both to rounding.
    #[test]
    fn split_apply_is_the_composed_split_operator() {
        for (p, e, z, seed) in split_fixtures() {
            let s = stencil_of(&p);
            let n = s.dim();
            let m = s.dilu(e, z);
            let (primal, dual) = (m.side(false), m.side(true));
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let x = CVector::random(n * 3, &mut rng).into_vec();
            let [got, got_adj] = split_apply(&m, &x, 3);

            let mut t = x.clone();
            m.pass(Pass::Upper { scaled: false }, &primal, &mut t, 3);
            let mut want = apply(&s, e, z, &t, 3);
            m.pass(Pass::Lower, &primal, &mut want, 3);

            let mut t = x.clone();
            scale_rows(&mut t, n, |i| dual.inv_pivot(i));
            m.pass(Pass::Upper { scaled: false }, &dual, &mut t, 3);
            let mut want_adj = apply(&s, e, Complex64::ONE / z.conj(), &t, 3);
            m.pass(Pass::Lower, &dual, &mut want_adj, 3);
            scale_rows(&mut want_adj, n, |i| dual.pivot(i));

            for (side, (got, want)) in
                [(&got, &want), (&got_adj, &want_adj)].into_iter().enumerate()
            {
                let err = relative_error(got, want);
                assert!(err <= 1e-12, "n {n} z {z:?} side {side}: {err:.2e}");
            }
        }
    }

    #[test]
    fn split_adjoint_is_the_adjoint_of_the_split_apply() {
        for (p, e, z, seed) in split_fixtures() {
            let s = stencil_of(&p);
            let m = s.dilu(e, z);
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 10);
            let defect = adjoint_defect(&SplitOperator(&m), 8, &mut rng);
            assert!(defect <= 1e-12, "n {} z {z:?}: {defect:.2e}", s.dim());
        }
    }

    /// The split apply and the two maps, on both sides: a block pass is
    /// the column-by-column loop bit for bit at every tile mix.
    #[test]
    fn split_passes_are_bitwise_column_equivalent() {
        let n = 600;
        let s = stencil_of(&coupled_parts(n, 5, 116));
        let m = s.dilu(0.37, c64(1.1, -0.7));
        let maps = |x: &[Complex64], nvecs: usize| {
            let mut out = split_apply(&m, x, nvecs).to_vec();
            for dual in [false, true] {
                for map in [StencilDilu::split_rhs, StencilDilu::unsplit] {
                    let mut v = x.to_vec();
                    map(&m, dual, &mut v, nvecs);
                    out.push(v);
                }
            }
            out
        };
        let mut rng = ChaCha8Rng::seed_from_u64(117);
        for nvecs in [1usize, 2, 3, 4, 5, 8, 9, 12, 15] {
            let x = CVector::random(n * nvecs, &mut rng).into_vec();
            let block = maps(&x, nvecs);
            for c in 0..nvecs {
                let column = maps(&x[c * n..(c + 1) * n], 1);
                for (k, (b, col)) in block.iter().zip(&column).enumerate() {
                    assert_eq!(
                        &b[c * n..(c + 1) * n],
                        &col[..],
                        "nvecs {nvecs} column {c} pass {k}"
                    );
                }
            }
        }
    }

    /// The maps into and out of the split system: a system solved in `x̂` is
    /// solved in `x = M_R⁻¹x̂` with the mapped right-hand side,
    /// `Â x̂ = M_L⁻¹·P(z)·M_R⁻¹x̂` and `Â†ŷ = M_R⁻†·P(z)†·M_L⁻†ŷ` — and the
    /// split residual `b̂ − Âx̂` stands for `b − P(z)x`, whose norm the
    /// preconditioner reports.
    #[test]
    fn split_maps_round_trip() {
        for (p, e, z, seed) in split_fixtures() {
            let s = stencil_of(&p);
            let n = s.dim();
            let m = s.dilu(e, z);
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 20);
            let x_hat = CVector::random(n * 2, &mut rng).into_vec();
            let b = CVector::random(n * 2, &mut rng).into_vec();
            let [primal, adjoint] = split_apply(&m, &x_hat, 2);
            for (dual, shift, got) in
                [(false, z, primal), (true, Complex64::ONE / z.conj(), adjoint)]
            {
                let mut x = x_hat.clone();
                m.unsplit(dual, &mut x, 2);
                let px = apply(&s, e, shift, &x, 2);
                let mut want = px.clone();
                m.split_rhs(dual, &mut want, 2);
                let err = relative_error(&got, &want);
                assert!(err <= 1e-12, "n {n} dual {dual}: {err:.2e}");

                let mut r_hat = b.clone();
                m.split_rhs(dual, &mut r_hat, 2);
                for (r, a) in r_hat.iter_mut().zip(&got) {
                    *r -= *a;
                }
                for c in 0..2 {
                    let col = c * n..(c + 1) * n;
                    let mapped = m.unsplit_residual_norm(dual, &r_hat[col.clone()]);
                    let residual: Vec<Complex64> =
                        b[col.clone()].iter().zip(&px[col]).map(|(b, y)| *b - *y).collect();
                    let truth = CVector::from_vec(residual).norm();
                    let err = (mapped - truth).abs() / truth;
                    assert!(err <= 1e-12, "n {n} dual {dual} column {c}: {err:.2e}");
                }
            }
        }
    }
}
