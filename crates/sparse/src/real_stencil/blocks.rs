//! Writing a [`RealStencil`] row by row, and reading its two Hamiltonian
//! blocks back as operators.
//!
//! [`StencilBuilder`] is how a Hamiltonian is stored: its caller hands over
//! each grid row's entries in the order it computes them, and the builder
//! merges them by the rule of [`CooBuilder::build`](crate::CooBuilder::build)
//! (stable sort by column, duplicates summed in push order, exact zeros
//! dropped), so every stored `f64` is bitwise what assembling complex
//! triplets and converting them would store.  Each merged row then takes
//! the template of an earlier row that stores the same column offsets and
//! off-diagonal values bit for bit, or starts a new one ([`RowWriter`]);
//! [`RealStencil::try_new`] writes a converted pencil's rows the same way.
//! [`StencilBlock`] is the
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

use super::{Part, RealCsr, RealLowRank, RealStencil, Template, TemplateRows};
use crate::csr::CsrMatrix;
use crate::lowrank::{LowRankOp, SparseVec};
use crate::ops::LinearOperator;

/// The panic message of an index or entry count beyond `u32`.
const TOO_LARGE: &str = "the real stencil stores u32 indices: more than u32::MAX entries";

impl RealCsr {
    /// No rows yet.
    fn empty() -> Self {
        Self { ptr: vec![0], idx: Vec::new(), val: Vec::new() }
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
        self.ptr.push(u32::try_from(self.idx.len()).ok()?);
        Some(())
    }

    /// Row `t` as a complex sparse vector.
    fn factor(&self, t: usize) -> SparseVec {
        let (idx, val) = self.row(t);
        SparseVec::new(
            idx.iter().zip(val).map(|(&c, &v)| (c as usize, Complex64::real(v))).collect(),
        )
    }
}

/// `entries` in push order, merged into `out`: stable-sorted by column,
/// duplicates summed in that order, exact zeros dropped — before the sum,
/// as [`CooBuilder::push`](crate::CooBuilder::push) drops them, and after it.
fn merge_row(entries: &mut [(usize, f64)], out: &mut Vec<(usize, f64)>) {
    entries.sort_by_key(|&(c, _)| c);
    out.clear();
    for &(c, v) in entries.iter().filter(|&&(_, v)| v != 0.0) {
        match out.last_mut() {
            Some((col, acc)) if *col == c => *acc += v,
            last => {
                if last.is_some_and(|&mut (_, acc)| acc == 0.0) {
                    out.pop();
                }
                out.push((c, v));
            }
        }
    }
    if out.last().is_some_and(|&(_, acc)| acc == 0.0) {
        out.pop();
    }
}

/// Appends rows to a [`TemplateRows`]: a row whose template — its diagonal
/// stored or not, its column offsets and its off-diagonal values, bit for
/// bit — equals an earlier row's shares that row's template.  A row is
/// compared with its predecessor's template first (neighbouring grid
/// points mostly share one), then looked up by its content hash in an
/// open-addressing table of template ids (a fixed hash, never iterated, so
/// the ids depend on the rows alone); nothing is allocated per row.  The
/// table lives until the rows are taken out (`.rows`).
struct RowWriter {
    rows: TemplateRows,
    /// Template ids by content hash, linear probing, `u32::MAX` for an
    /// empty slot; a power of two at most half full.
    slots: Vec<u32>,
    /// Per template, its content hash.
    hashes: Vec<u64>,
}

/// A row split at its diagonal: the entries below it, its diagonal value
/// if it stores one, and the entries above it.
struct SplitRow<'e> {
    lower: &'e [(usize, f64)],
    diagonal: Option<f64>,
    upper: &'e [(usize, f64)],
}

impl SplitRow<'_> {
    /// A fixed hash of the row's template: its diagonal flag and, per
    /// off-diagonal entry, its column offset from row `i` and its bits.
    fn hash(&self, i: usize) -> u64 {
        let h = self
            .lower
            .iter()
            .chain(self.upper)
            .fold(u64::from(self.diagonal.is_some()), |h, &(c, v)| {
                (h.rotate_left(5) ^ c.wrapping_sub(i) as u64).rotate_left(5) ^ v.to_bits()
            });
        (h ^ (h >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9)
    }
}

impl RowWriter {
    /// No rows yet; room for the ids of `rows` of them.
    fn new(rows: usize) -> Self {
        let mut template = Vec::new();
        template.reserve_exact(rows);
        let rows = TemplateRows {
            template,
            diag: Vec::new(),
            templates: Vec::new(),
            off: Vec::new(),
            val: Vec::new(),
            empty: u32::MAX,
            nnz: 0,
        };
        Self { rows, slots: Vec::new(), hashes: Vec::new() }
    }

    /// Whether template `id`, read at row `i`, is `row`, bit for bit.
    fn matches(&self, id: u32, i: usize, row: &SplitRow<'_>) -> bool {
        let t = self.rows.templates[id as usize];
        let (lo, mid, hi) = (t.lo as usize, t.mid as usize, t.hi as usize);
        let low = i.wrapping_add_signed(t.reach);
        let same = |entries: &[(usize, f64)], ks: std::ops::Range<usize>| {
            entries.len() == ks.len()
                && entries.iter().zip(ks).all(|(&(c, v), k)| {
                    c == low + self.rows.off[k] as usize
                        && v.to_bits() == self.rows.val[k].to_bits()
                })
        };
        t.diagonal == row.diagonal.is_some() && same(row.lower, lo..mid) && same(row.upper, mid..hi)
    }

    /// Append the next row, `i`, from `(column, value)` entries strictly
    /// ascending in column (a merged row, a CSR row, a transposed row);
    /// `None` when the templates pass `u32` entries.
    fn push(&mut self, entries: &[(usize, f64)]) -> Option<()> {
        let i = self.rows.nrows();
        debug_assert!(entries.windows(2).all(|p| p[0].0 < p[1].0), "row {i} not ascending");
        let mid = entries.partition_point(|&(c, _)| c < i);
        let diagonal = entries.get(mid).filter(|&&(c, _)| c == i).map(|&(_, v)| v);
        let above = mid + usize::from(diagonal.is_some());
        let row = SplitRow { lower: &entries[..mid], diagonal, upper: &entries[above..] };
        let id = match self.rows.template.last() {
            Some(&id) if self.matches(id, i, &row) => id,
            _ => self.find_or_add(i, &row)?,
        };
        let rows = &mut self.rows;
        rows.template.push(id);
        if let Some(d) = diagonal {
            if rows.diag.is_empty() {
                rows.diag.reserve_exact(rows.template.capacity());
            }
            if rows.diag.len() < i {
                rows.diag.resize(i, 0.0);
            }
            rows.diag.push(d);
        } else if !rows.diag.is_empty() {
            rows.diag.push(0.0);
        }
        rows.nnz += entries.len();
        Some(())
    }

    /// The template of `row` (row `i`): one with its hash that matches it,
    /// or a new one.
    fn find_or_add(&mut self, i: usize, row: &SplitRow<'_>) -> Option<u32> {
        if 2 * (self.hashes.len() + 1) > self.slots.len() {
            self.grow();
        }
        let hash = row.hash(i);
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        while let Some(id) = Some(self.slots[slot]).filter(|&id| id != u32::MAX) {
            if self.hashes[id as usize] == hash && self.matches(id, i, row) {
                return Some(id);
            }
            slot = (slot + 1) & mask;
        }
        let id = self.new_template(i, row)?;
        self.slots[slot] = id;
        self.hashes.push(hash);
        Some(id)
    }

    /// Double the table (64 slots at first) and place every template again.
    fn grow(&mut self) {
        self.slots = vec![u32::MAX; (2 * self.slots.len()).max(64)];
        let mask = self.slots.len() - 1;
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut slot = hash as usize & mask;
            while self.slots[slot] != u32::MAX {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32;
        }
    }

    /// A new template for `row` (row `i`); its id.
    fn new_template(&mut self, i: usize, row: &SplitRow<'_>) -> Option<u32> {
        let rows = &mut self.rows;
        let id = u32::try_from(rows.templates.len()).ok()?;
        let low = row.lower.first().map_or(i, |&(c, _)| c);
        let at = |rows: &TemplateRows| u32::try_from(rows.off.len()).ok();
        let lo = at(rows)?;
        let append = |rows: &mut TemplateRows, entries: &[(usize, f64)]| {
            for &(c, v) in entries {
                rows.off.push(u32::try_from(c - low).ok()?);
                rows.val.push(v);
            }
            at(rows)
        };
        let mid = append(rows, row.lower)?;
        let hi = append(rows, row.upper)?;
        let reach = -isize::try_from(i - low).ok()?;
        let diagonal = row.diagonal.is_some();
        rows.templates.push(Template { reach, lo, mid, hi, diagonal });
        if lo == hi && !diagonal {
            rows.empty = id;
        }
        Some(id)
    }
}

impl<'a> Part<'a> {
    /// The entries as `(column, value)`, ascending in column.
    fn entries(self) -> impl Iterator<Item = (usize, f64)> + 'a {
        let low = self.low;
        self.off.iter().zip(self.val).map(move |(&c, &v)| (low + c as usize, v))
    }
}

impl TemplateRows {
    /// Row `i` as `(column, value)`, ascending in column.
    fn entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let diagonal = self.template_of(i).diagonal.then(|| (i, self.diag[i]));
        self.part(i, false).entries().chain(diagonal).chain(self.part(i, true).entries())
    }

    /// Convert a complex CSR matrix row by row; `None` on a value with a
    /// non-zero imaginary part, or on templates past `u32` entries.
    pub(super) fn from_csr(m: &CsrMatrix) -> Option<Self> {
        let mut writer = RowWriter::new(m.nrows());
        let mut row = Vec::new();
        for i in 0..m.nrows() {
            row.clear();
            for (c, v) in m.row_entries(i) {
                if v.im != 0.0 {
                    return None;
                }
                row.push((c, v.re));
            }
            writer.push(&row)?;
        }
        Some(writer.rows)
    }

    /// The transpose of these rows with `n` columns, written as any rows
    /// are (each transposed row keeps its entries in ascending original-row
    /// order).
    pub(super) fn transpose(&self, n: usize) -> Option<Self> {
        let mut ptr = vec![0usize; n + 1];
        for i in 0..self.nrows() {
            for (c, _) in self.entries(i) {
                ptr[c + 1] += 1;
            }
        }
        for c in 0..n {
            ptr[c + 1] += ptr[c];
        }
        let mut next = ptr.clone();
        let mut columns = vec![(0, 0.0); ptr[n]];
        for i in 0..self.nrows() {
            for (c, v) in self.entries(i) {
                columns[next[c]] = (i, v);
                next[c] += 1;
            }
        }
        let mut writer = RowWriter::new(n);
        for c in 0..n {
            writer.push(&columns[ptr[c]..ptr[c + 1]])?;
        }
        Some(writer.rows)
    }

    /// The rows as complex CSR of `n` columns.
    fn to_csr(&self, n: usize) -> CsrMatrix {
        let (mut ptr, mut idx, mut val) = (vec![0], Vec::new(), Vec::new());
        for i in 0..self.nrows() {
            for (c, v) in self.entries(i) {
                idx.push(c);
                val.push(Complex64::real(v));
            }
            ptr.push(idx.len());
        }
        CsrMatrix::from_sorted_rows(self.nrows(), n, ptr, idx, val)
    }

    /// `y = A x` for one column, `A` these rows (real×complex, each row
    /// summed from zero in column order).
    fn gather_into(&self, x: &[Complex64], y: &mut [Complex64]) {
        for (i, yi) in y.iter_mut().enumerate() {
            let [acc] = self.gather(i, &[x]);
            *yi = acc;
        }
    }

    /// `y = Aᵀ x` for one column: a scatter over the rows in column order,
    /// skipping zero inputs (the order of the complex CSR adjoint kernel).
    fn scatter_into(&self, x: &[Complex64], y: &mut [Complex64]) {
        y.fill(Complex64::ZERO);
        for (i, &xi) in x.iter().enumerate() {
            if xi == Complex64::ZERO {
                continue;
            }
            for (c, v) in self.entries(i) {
                y[c] += xi.scale(v);
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
/// The dimension is at most [`RealStencil::MAX_DIM`] (checked by
/// [`new`](Self::new)), and a block's templates and a projector block's
/// factors hold at most [`RealStencil::MAX_ENTRIES`] entries: a push past
/// that panics.  The templates of a grid Hamiltonian are bounded by its
/// neighbourhoods, not its size (`cbs_grid::FdOrder`).
pub struct StencilBuilder {
    n: usize,
    h00: RowWriter,
    h01: RowWriter,
    v00: RealLowRank,
    v01: RealLowRank,
    /// The row being merged, reused for every row.
    merged: Vec<(usize, f64)>,
}

impl StencilBuilder {
    /// An empty stencil of dimension `n`.
    pub fn new(n: usize) -> Self {
        assert!(n <= RealStencil::MAX_DIM, "{TOO_LARGE}: dimension {n}");
        Self {
            n,
            h00: RowWriter::new(n),
            h01: RowWriter::new(n),
            v00: RealLowRank::empty(),
            v01: RealLowRank::empty(),
            merged: Vec::new(),
        }
    }

    /// Append the next row of both blocks from `(column, value)` entries in
    /// the order the caller computed them; they are merged in place
    /// ([`CooBuilder::build`](crate::CooBuilder::build)'s rule), and each
    /// merged row shares the template of an equal earlier row.
    pub fn push_row(&mut self, h00: &mut [(usize, f64)], h01: &mut [(usize, f64)]) {
        assert!(self.h00.rows.nrows() < self.n, "stencil builder: more than {} rows", self.n);
        for (rows, entries) in [(&mut self.h00, h00), (&mut self.h01, h01)] {
            debug_assert!(entries.iter().all(|&(c, _)| c < self.n), "column out of range");
            merge_row(entries, &mut self.merged);
            rows.push(&self.merged).expect(TOO_LARGE);
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
        assert_eq!(self.h00.rows.nrows(), self.n, "stencil builder: rows missing");
        let (h00, h01) = (self.h00.rows, self.h01.rows);
        RealStencil::from_blocks(self.n, h00, h01, self.v00, self.v01).expect(TOO_LARGE)
    }
}

impl std::fmt::Debug for RealStencil {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RealStencil")
            .field("dim", &self.n)
            .field("nnz", &self.nnz())
            .field("row_templates", &self.row_templates())
            .field("row_bytes", &self.row_bytes())
            .field("projector_terms", &(self.v00.rank(), self.v01.rank()))
            .field("memory_bytes", &self.memory_bytes())
            .finish()
    }
}

impl RealStencil {
    /// The largest dimension the stencil stores: every row and column
    /// index, and every column offset from a template's lowest column, is
    /// a `u32`.
    pub const MAX_DIM: usize = u32::MAX as usize;

    /// The most entries one block's templates, or one projector block's
    /// factors, hold: their offsets into the shared arrays are `u32`.
    pub const MAX_ENTRIES: usize = u32::MAX as usize;

    /// `H₀₀` as a matrix-free operator over this stencil's storage.
    pub fn h00(&self) -> StencilBlock<'_> {
        StencilBlock { stencil: self, block: Block::H00 }
    }

    /// `H₀₁` as a matrix-free operator over this stencil's storage.
    pub fn h01(&self) -> StencilBlock<'_> {
        StencilBlock { stencil: self, block: Block::H01 }
    }

    /// Entries of the sparse parts of `H₀₀` and `H₀₁`, counted per row as a
    /// CSR would store them, however many rows share one template (the
    /// explicit `H₀₁ᵀ` and the projector factors not counted).
    pub fn nnz(&self) -> usize {
        self.h00.nnz + self.h01.nnz
    }

    /// The distinct row templates of `H₀₀`, `H₀₁` and `H₀₁ᵀ`.
    pub fn row_templates(&self) -> [usize; 3] {
        [&self.h00, &self.h01, &self.h01t].map(|m| m.templates.len())
    }

    /// Bytes of the three row blocks (`H₀₀`, `H₀₁`, `H₀₁ᵀ`): the part of
    /// [`memory_bytes`](Self::memory_bytes) that is not projector factors.
    pub fn row_bytes(&self) -> usize {
        self.h00.bytes() + self.h01.bytes() + self.h01t.bytes()
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
    fn parts(&self) -> (&'s TemplateRows, &'s RealLowRank) {
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
