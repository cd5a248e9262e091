//! Compressed sparse row (CSR) storage for complex matrices.
//!
//! The real-space Kohn-Sham blocks `H₀₀` and `H₀₁` are assembled once into
//! CSR and then only ever applied to vectors, which is the O(N) memory /
//! O(nnz) time behaviour the paper's method relies on.

use serde::{Deserialize, Serialize};

use cbs_linalg::{CMatrix, CVector, Complex64};
use cbs_trace::Stage;

use crate::ops::LinearOperator;

/// Triplet (COO) accumulator used while assembling a sparse matrix.
///
/// Duplicate entries are summed when converting to CSR, which makes stencil
/// and projector assembly straightforward.
#[derive(Clone, Debug, Default)]
pub struct CooBuilder {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<Complex64>,
}

impl CooBuilder {
    /// New empty builder for an `nrows x ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self { nrows, ncols, rows: Vec::new(), cols: Vec::new(), vals: Vec::new() }
    }

    /// Reserve space for `n` additional entries.
    pub fn reserve(&mut self, n: usize) {
        self.rows.reserve(n);
        self.cols.reserve(n);
        self.vals.reserve(n);
    }

    /// Add `value` at `(row, col)` (accumulated with any existing entry).
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, value: Complex64) {
        debug_assert!(row < self.nrows && col < self.ncols, "COO entry out of bounds");
        if value == Complex64::ZERO {
            return;
        }
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(value);
    }

    /// Number of raw (pre-deduplication) entries.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// `true` when no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Finalize into CSR, summing duplicates and dropping exact zeros.
    pub fn build(self) -> CsrMatrix {
        let nrows = self.nrows;
        let ncols = self.ncols;
        // Count entries per row.
        let mut counts = vec![0usize; nrows];
        for &r in &self.rows {
            counts[r] += 1;
        }
        let mut row_ptr = vec![0usize; nrows + 1];
        for i in 0..nrows {
            row_ptr[i + 1] = row_ptr[i] + counts[i];
        }
        // Scatter into per-row buckets.
        let mut col_idx = vec![0usize; self.vals.len()];
        let mut values = vec![Complex64::ZERO; self.vals.len()];
        let mut next = row_ptr.clone();
        for ((&r, &c), &v) in self.rows.iter().zip(&self.cols).zip(&self.vals) {
            let dst = next[r];
            col_idx[dst] = c;
            values[dst] = v;
            next[r] += 1;
        }
        // Sort each row by column and merge duplicates in place.
        let mut out_ptr = vec![0usize; nrows + 1];
        let mut out_cols = Vec::with_capacity(col_idx.len());
        let mut out_vals = Vec::with_capacity(values.len());
        for r in 0..nrows {
            let lo = row_ptr[r];
            let hi = row_ptr[r + 1];
            let mut entries: Vec<(usize, Complex64)> =
                col_idx[lo..hi].iter().copied().zip(values[lo..hi].iter().copied()).collect();
            entries.sort_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < entries.len() {
                let c = entries[i].0;
                let mut acc = entries[i].1;
                let mut j = i + 1;
                while j < entries.len() && entries[j].0 == c {
                    acc += entries[j].1;
                    j += 1;
                }
                if acc != Complex64::ZERO {
                    out_cols.push(c);
                    out_vals.push(acc);
                }
                i = j;
            }
            out_ptr[r + 1] = out_cols.len();
        }
        CsrMatrix { nrows, ncols, row_ptr: out_ptr, col_idx: out_cols, values: out_vals }
    }
}

/// A complex sparse matrix in compressed-sparse-row format.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<Complex64>,
}

impl CsrMatrix {
    /// An all-zero sparse matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self { nrows, ncols, row_ptr: vec![0; nrows + 1], col_idx: vec![], values: vec![] }
    }

    /// Sparse identity.
    pub fn identity(n: usize) -> Self {
        Self {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![Complex64::ONE; n],
        }
    }

    /// Convert a dense matrix, dropping entries with modulus below `tol`.
    pub fn from_dense(m: &CMatrix, tol: f64) -> Self {
        let mut b = CooBuilder::new(m.nrows(), m.ncols());
        for i in 0..m.nrows() {
            for j in 0..m.ncols() {
                let v = m[(i, j)];
                if v.abs() > tol {
                    b.push(i, j, v);
                }
            }
        }
        b.build()
    }

    /// Densify (tests / small blocks only).
    pub fn to_dense(&self) -> CMatrix {
        let mut m = CMatrix::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                m[(i, self.col_idx[k])] = self.values[k];
            }
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Storage footprint in bytes (values + column indices + row pointers).
    pub fn storage_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<Complex64>()
            + self.col_idx.len() * std::mem::size_of::<usize>()
            + self.row_ptr.len() * std::mem::size_of::<usize>()
    }

    /// Iterate over the stored entries of one row as `(col, value)` pairs.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, Complex64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }

    /// Look up a single entry (O(row nnz)).
    pub fn get(&self, i: usize, j: usize) -> Complex64 {
        self.row_entries(i).find(|&(c, _)| c == j).map_or(Complex64::ZERO, |(_, v)| v)
    }

    /// Row pointers (length `nrows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices of the stored entries (sorted within each row).
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// The stored entry values, parallel to [`col_idx`](Self::col_idx).
    pub fn values(&self) -> &[Complex64] {
        &self.values
    }

    /// `y = A x` (serial kernel).
    pub fn matvec_into(&self, x: &[Complex64], y: &mut [Complex64]) {
        assert_eq!(x.len(), self.ncols, "matvec: x length mismatch");
        assert_eq!(y.len(), self.nrows, "matvec: y length mismatch");
        cbs_trace::timed(Stage::Kernel, || {
            spmv_into(&self.row_ptr, &self.col_idx, &self.values, x, y);
        });
    }

    /// `y = A† x` (serial kernel).
    pub fn matvec_adjoint_into(&self, x: &[Complex64], y: &mut [Complex64]) {
        assert_eq!(x.len(), self.nrows, "adjoint matvec: x length mismatch");
        assert_eq!(y.len(), self.ncols, "adjoint matvec: y length mismatch");
        cbs_trace::timed(Stage::Kernel, || {
            spmv_adjoint_into(&self.row_ptr, &self.col_idx, &self.values, x, y);
        });
    }

    /// Fused block kernel `Y = A X` over column-major slabs (column `c` of
    /// `X` is `x[c * ncols .. (c+1) * ncols]`): the CSR values and indices
    /// are streamed once per group of up to four columns instead of once
    /// per column, with the per-column accumulators held in registers.  Per
    /// column the accumulation order equals
    /// [`matvec_into`](Self::matvec_into), making the result bit-identical
    /// to the column-by-column loop.
    pub fn matvec_block_into(&self, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
        assert_eq!(x.len(), self.ncols * nvecs, "block matvec: x slab length mismatch");
        assert_eq!(y.len(), self.nrows * nvecs, "block matvec: y slab length mismatch");
        cbs_trace::timed(Stage::Kernel, || {
            spmv_block_into(
                &self.row_ptr,
                &self.col_idx,
                &self.values,
                self.ncols,
                self.nrows,
                x,
                y,
                nvecs,
            );
        });
    }

    /// Fused block kernel `Y = A† X`; the adjoint twin of
    /// [`matvec_block_into`](Self::matvec_block_into), bit-identical to
    /// column-by-column [`matvec_adjoint_into`](Self::matvec_adjoint_into)
    /// (the zero-skip guard is applied per column, so signed zeros
    /// propagate identically).
    pub fn matvec_adjoint_block_into(&self, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
        assert_eq!(x.len(), self.nrows * nvecs, "block adjoint matvec: x slab length mismatch");
        assert_eq!(y.len(), self.ncols * nvecs, "block adjoint matvec: y slab length mismatch");
        cbs_trace::timed(Stage::Kernel, || {
            spmv_adjoint_block_into(
                &self.row_ptr,
                &self.col_idx,
                &self.values,
                self.ncols,
                self.nrows,
                x,
                y,
                nvecs,
            );
        });
    }

    /// Allocating `A x`.
    pub fn matvec(&self, x: &CVector) -> CVector {
        let mut y = CVector::zeros(self.nrows);
        self.matvec_into(x.as_slice(), y.as_mut_slice());
        y
    }

    /// Allocating `A† x`.
    pub fn matvec_adjoint(&self, x: &CVector) -> CVector {
        let mut y = CVector::zeros(self.ncols);
        self.matvec_adjoint_into(x.as_slice(), y.as_mut_slice());
        y
    }

    /// Row-parallel `y = A x` using rayon (bottom-layer threading inside one
    /// domain).  Falls back to the serial kernel for small matrices where the
    /// fork-join overhead dominates.
    pub fn matvec_par_into(&self, x: &[Complex64], y: &mut [Complex64]) {
        use rayon::prelude::*;
        if self.nrows < 4096 {
            self.matvec_into(x, y);
            return;
        }
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        cbs_trace::timed(Stage::Kernel, || {
            y.par_iter_mut().enumerate().for_each(|(i, yi)| {
                let lo = self.row_ptr[i];
                let hi = self.row_ptr[i + 1];
                let mut acc = Complex64::ZERO;
                for k in lo..hi {
                    acc += self.values[k] * x[self.col_idx[k]];
                }
                *yi = acc;
            });
        });
    }

    /// Explicit Hermitian adjoint as a new CSR matrix.
    pub fn adjoint(&self) -> CsrMatrix {
        let mut b = CooBuilder::new(self.ncols, self.nrows);
        b.reserve(self.nnz());
        for i in 0..self.nrows {
            for (j, v) in self.row_entries(i) {
                b.push(j, i, v.conj());
            }
        }
        b.build()
    }

    /// Scale every entry by `alpha`.
    pub fn scale(&self, alpha: Complex64) -> CsrMatrix {
        let mut out = self.clone();
        for v in out.values.iter_mut() {
            *v *= alpha;
        }
        out
    }

    /// Sparse sum `self + alpha * other` (shapes must match).
    pub fn add_scaled(&self, alpha: Complex64, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        let mut b = CooBuilder::new(self.nrows, self.ncols);
        b.reserve(self.nnz() + other.nnz());
        for i in 0..self.nrows {
            for (j, v) in self.row_entries(i) {
                b.push(i, j, v);
            }
            for (j, v) in other.row_entries(i) {
                b.push(i, j, alpha * v);
            }
        }
        b.build()
    }

    /// `||A - A†||_F / ||A||_F`; zero for Hermitian matrices.
    pub fn hermiticity_defect(&self) -> f64 {
        assert_eq!(self.nrows, self.ncols);
        let diff = self.add_scaled(-Complex64::ONE, &self.adjoint());
        let num: f64 = diff.values.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        let den: f64 = self.values.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.values.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// The diagonal entries (length `min(nrows, ncols)`).
    pub fn diagonal(&self) -> Vec<Complex64> {
        (0..self.nrows.min(self.ncols)).map(|i| self.get(i, i)).collect()
    }
}

impl LinearOperator for CsrMatrix {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn apply(&self, x: &[Complex64], y: &mut [Complex64]) {
        self.matvec_into(x, y);
    }
    fn apply_adjoint(&self, x: &[Complex64], y: &mut [Complex64]) {
        self.matvec_adjoint_into(x, y);
    }
    fn apply_block(&self, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
        self.matvec_block_into(x, y, nvecs);
    }
    fn apply_adjoint_block(&self, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
        self.matvec_adjoint_block_into(x, y, nvecs);
    }
    fn memory_bytes(&self) -> usize {
        self.storage_bytes()
    }
    fn is_real(&self) -> bool {
        crate::ops::all_real(&self.values)
    }
}

// --- Shared CSR kernels on raw (row_ptr, col_idx, values) triples. ---------
//
// `CsrMatrix` delegates here, and so does the assembled shifted operator
// (`crate::assembled`), whose many per-node value arrays share one symbolic
// pattern: both run the exact same loops, so the bitwise
// column-equivalence guarantees of the block kernels hold for either.
//
// Bitwise contract: every kernel here reproduces, per output element, the
// exact accumulation order of the original scalar loops (`spmv_into` /
// `spmv_adjoint_into`), so results are bit-identical to the column-by-column
// reference regardless of row blocking or column-group width:
//
// * gather kernels accumulate each row's entries in ascending `k`, so
//   blocking the row loop (`ROW_BLOCK`) only reorders *between* independent
//   output elements;
// * scatter (adjoint) kernels zero the whole output slab once up front and
//   then visit rows in ascending order within and across row blocks, so
//   every `y[c]` receives its updates in the same ascending-row order as
//   the unblocked loop, with the same per-column zero-skip guards.

/// Rows per cache block of the blocked SpMV/SpMM traversals.  One block's
/// index + value stream (≈ `ROW_BLOCK · nnz/row · 24 B`) fits comfortably in
/// L2 for the stencil-dominated operators of this crate, so re-streaming it
/// once per column group is served from cache.
pub(crate) const ROW_BLOCK: usize = 512;

/// `y = A x` over a raw CSR triple (serial kernel).
pub(crate) fn spmv_into(
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[Complex64],
    x: &[Complex64],
    y: &mut [Complex64],
) {
    for (i, yi) in y.iter_mut().enumerate() {
        let lo = row_ptr[i];
        let hi = row_ptr[i + 1];
        let mut acc = Complex64::ZERO;
        for k in lo..hi {
            acc += values[k] * x[col_idx[k]];
        }
        *yi = acc;
    }
}

/// `y = A† x` over a raw CSR triple (serial scatter kernel).
pub(crate) fn spmv_adjoint_into(
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[Complex64],
    x: &[Complex64],
    y: &mut [Complex64],
) {
    for v in y.iter_mut() {
        *v = Complex64::ZERO;
    }
    for (i, &xi) in x.iter().enumerate() {
        if xi == Complex64::ZERO {
            continue;
        }
        for k in row_ptr[i]..row_ptr[i + 1] {
            y[col_idx[k]] += values[k].conj() * xi;
        }
    }
}

/// Fused block kernel `Y = A X` over a raw CSR triple; see
/// [`CsrMatrix::matvec_block_into`] for the layout and bitwise contract.
///
/// Row-blocked traversal: the outer loop walks [`ROW_BLOCK`]
/// rows at a time and re-streams that block's index/value stream across all
/// 4/2/1-wide column groups while it is cache-hot.  Per (row, column) the
/// accumulation order is unchanged, so the blocking is bitwise-invisible.
#[allow(
    clippy::too_many_arguments,
    reason = "a raw CSR triple and the block shape, shared by the CSR and assembled kernels"
)]
pub(crate) fn spmv_block_into(
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[Complex64],
    nc: usize,
    nr: usize,
    x: &[Complex64],
    y: &mut [Complex64],
    nvecs: usize,
) {
    let mut r0 = 0;
    while r0 < nr {
        let r1 = (r0 + ROW_BLOCK).min(nr);
        let mut j = 0;
        while j + 4 <= nvecs {
            let (x0, rest) = x[j * nc..].split_at(nc);
            let (x1, rest) = rest.split_at(nc);
            let (x2, rest) = rest.split_at(nc);
            let x3 = &rest[..nc];
            let (y0, rest) = y[j * nr..].split_at_mut(nr);
            let (y1, rest) = rest.split_at_mut(nr);
            let (y2, rest) = rest.split_at_mut(nr);
            let y3 = &mut rest[..nr];
            for i in r0..r1 {
                let (mut a0, mut a1, mut a2, mut a3) =
                    (Complex64::ZERO, Complex64::ZERO, Complex64::ZERO, Complex64::ZERO);
                for k in row_ptr[i]..row_ptr[i + 1] {
                    let v = values[k];
                    let c = col_idx[k];
                    a0 += v * x0[c];
                    a1 += v * x1[c];
                    a2 += v * x2[c];
                    a3 += v * x3[c];
                }
                y0[i] = a0;
                y1[i] = a1;
                y2[i] = a2;
                y3[i] = a3;
            }
            j += 4;
        }
        if j + 2 <= nvecs {
            let (x0, rest) = x[j * nc..].split_at(nc);
            let x1 = &rest[..nc];
            let (y0, rest) = y[j * nr..].split_at_mut(nr);
            let y1 = &mut rest[..nr];
            for i in r0..r1 {
                let (mut a0, mut a1) = (Complex64::ZERO, Complex64::ZERO);
                for k in row_ptr[i]..row_ptr[i + 1] {
                    let v = values[k];
                    let c = col_idx[k];
                    a0 += v * x0[c];
                    a1 += v * x1[c];
                }
                y0[i] = a0;
                y1[i] = a1;
            }
            j += 2;
        }
        if j < nvecs {
            // 1-wide tail over this row block — the `spmv_into` body.
            let xj = &x[j * nc..(j + 1) * nc];
            let yj = &mut y[j * nr..(j + 1) * nr];
            for i in r0..r1 {
                let mut acc = Complex64::ZERO;
                for k in row_ptr[i]..row_ptr[i + 1] {
                    acc += values[k] * xj[col_idx[k]];
                }
                yj[i] = acc;
            }
        }
        r0 = r1;
    }
}

/// Fused block kernel `Y = A† X` over a raw CSR triple; the adjoint twin of
/// [`spmv_block_into`], bit-identical to column-by-column
/// [`spmv_adjoint_into`].
///
/// Row blocking is bitwise-invisible here too: the output slab is zeroed
/// once up front (same initial state as the per-column zero fill), and each
/// `y[c]` then receives its scatter updates in ascending-row order within
/// and across row blocks — exactly the order of the unblocked loop — with
/// the per-column zero-skip guards applied identically.
#[allow(
    clippy::too_many_arguments,
    reason = "a raw CSR triple and the block shape, shared by the CSR and assembled kernels"
)]
pub(crate) fn spmv_adjoint_block_into(
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[Complex64],
    nc: usize,
    nr: usize,
    x: &[Complex64],
    y: &mut [Complex64],
    nvecs: usize,
) {
    for v in y.iter_mut() {
        *v = Complex64::ZERO;
    }
    let mut r0 = 0;
    while r0 < nr {
        let r1 = (r0 + ROW_BLOCK).min(nr);
        let mut j = 0;
        while j + 4 <= nvecs {
            let (x0, rest) = x[j * nr..].split_at(nr);
            let (x1, rest) = rest.split_at(nr);
            let (x2, rest) = rest.split_at(nr);
            let x3 = &rest[..nr];
            let (y0, rest) = y[j * nc..].split_at_mut(nc);
            let (y1, rest) = rest.split_at_mut(nc);
            let (y2, rest) = rest.split_at_mut(nc);
            let y3 = &mut rest[..nc];
            for i in r0..r1 {
                let (x0i, x1i, x2i, x3i) = (x0[i], x1[i], x2[i], x3[i]);
                let any = x0i != Complex64::ZERO
                    || x1i != Complex64::ZERO
                    || x2i != Complex64::ZERO
                    || x3i != Complex64::ZERO;
                if !any {
                    continue;
                }
                for k in row_ptr[i]..row_ptr[i + 1] {
                    let vc = values[k].conj();
                    let c = col_idx[k];
                    if x0i != Complex64::ZERO {
                        y0[c] += vc * x0i;
                    }
                    if x1i != Complex64::ZERO {
                        y1[c] += vc * x1i;
                    }
                    if x2i != Complex64::ZERO {
                        y2[c] += vc * x2i;
                    }
                    if x3i != Complex64::ZERO {
                        y3[c] += vc * x3i;
                    }
                }
            }
            j += 4;
        }
        while j < nvecs {
            // 1-wide tail over this row block — the `spmv_adjoint_into`
            // scatter body without the zero fill (done once above).
            let xj = &x[j * nr..(j + 1) * nr];
            let yj = &mut y[j * nc..(j + 1) * nc];
            for i in r0..r1 {
                let xi = xj[i];
                if xi == Complex64::ZERO {
                    continue;
                }
                for k in row_ptr[i]..row_ptr[i + 1] {
                    yj[col_idx[k]] += values[k].conj() * xi;
                }
            }
            j += 1;
        }
        r0 = r1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_linalg::c64;
    use rand::SeedableRng;

    fn random_sparse(nrows: usize, ncols: usize, density: f64, seed: u64) -> (CsrMatrix, CMatrix) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut dense = CMatrix::zeros(nrows, ncols);
        let mut b = CooBuilder::new(nrows, ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                if rand::Rng::gen_bool(&mut rng, density) {
                    let v = c64(
                        rand::Rng::gen_range(&mut rng, -1.0..1.0),
                        rand::Rng::gen_range(&mut rng, -1.0..1.0),
                    );
                    dense[(i, j)] += v;
                    b.push(i, j, v);
                }
            }
        }
        (b.build(), dense)
    }

    #[test]
    fn coo_duplicates_are_summed() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, c64(1.0, 0.0));
        b.push(0, 0, c64(2.0, 1.0));
        b.push(1, 1, c64(-1.0, 0.0));
        b.push(1, 1, c64(1.0, 0.0)); // cancels to zero and is dropped
        let m = b.build();
        assert_eq!(m.get(0, 0), c64(3.0, 1.0));
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn matvec_matches_dense() {
        let (s, d) = random_sparse(30, 20, 0.15, 71);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(72);
        let x = CVector::random(20, &mut rng);
        assert!((&s.matvec(&x) - &d.matvec(&x)).norm() < 1e-12);
        let y = CVector::random(30, &mut rng);
        assert!((&s.matvec_adjoint(&y) - &d.adjoint().matvec(&y)).norm() < 1e-12);
    }

    #[test]
    fn dense_roundtrip() {
        let (s, d) = random_sparse(12, 12, 0.3, 73);
        assert!((&s.to_dense() - &d).fro_norm() < 1e-14);
        let s2 = CsrMatrix::from_dense(&d, 0.0);
        assert_eq!(s2.nnz(), s.nnz());
    }

    #[test]
    fn adjoint_and_add_scaled() {
        let (s, d) = random_sparse(10, 14, 0.2, 74);
        assert!((&s.adjoint().to_dense() - &d.adjoint()).fro_norm() < 1e-13);
        let (s2, d2) = random_sparse(10, 14, 0.2, 75);
        let sum = s.add_scaled(c64(0.0, 2.0), &s2);
        let dsum = &d + &d2.scale(c64(0.0, 2.0));
        assert!((&sum.to_dense() - &dsum).fro_norm() < 1e-13);
    }

    #[test]
    fn hermiticity_defect_zero_for_hermitian() {
        let (s, _) = random_sparse(16, 16, 0.2, 76);
        let h = s.add_scaled(Complex64::ONE, &s.adjoint());
        assert!(h.hermiticity_defect() < 1e-14);
        assert!(s.hermiticity_defect() > 1e-2);
    }

    #[test]
    fn identity_matvec() {
        let i = CsrMatrix::identity(5);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        let x = CVector::random(5, &mut rng);
        assert_eq!(i.matvec(&x), x);
        assert_eq!(i.nnz(), 5);
    }

    #[test]
    fn storage_accounting_scales_with_nnz() {
        let (s, _) = random_sparse(40, 40, 0.05, 78);
        let per_entry = std::mem::size_of::<Complex64>() + std::mem::size_of::<usize>();
        assert!(s.storage_bytes() >= s.nnz() * per_entry);
        assert!(
            s.storage_bytes()
                <= s.nnz() * per_entry + (s.nrows() + 1) * std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn parallel_matvec_matches_serial() {
        let (s, _) = random_sparse(50, 50, 0.1, 79);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(80);
        let x = CVector::random(50, &mut rng);
        let mut y1 = vec![Complex64::ZERO; 50];
        let mut y2 = vec![Complex64::ZERO; 50];
        s.matvec_into(x.as_slice(), &mut y1);
        s.matvec_par_into(x.as_slice(), &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((*a - *b).abs() < 1e-14);
        }
    }

    #[test]
    fn block_matvec_is_bitwise_column_equivalent() {
        let (s, _) = random_sparse(23, 17, 0.2, 83);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(84);
        let nvecs = 5;
        let x: Vec<Complex64> = CVector::random(17 * nvecs, &mut rng).into_vec();
        let mut y = vec![Complex64::ZERO; 23 * nvecs];
        s.matvec_block_into(&x, &mut y, nvecs);
        for c in 0..nvecs {
            let mut col = vec![Complex64::ZERO; 23];
            s.matvec_into(&x[c * 17..(c + 1) * 17], &mut col);
            assert_eq!(&y[c * 23..(c + 1) * 23], &col[..], "column {c} differs");
        }

        let mut xa: Vec<Complex64> = CVector::random(23 * nvecs, &mut rng).into_vec();
        xa[3] = Complex64::ZERO; // exercise the zero-skip guard
        let mut ya = vec![Complex64::ZERO; 17 * nvecs];
        s.matvec_adjoint_block_into(&xa, &mut ya, nvecs);
        for c in 0..nvecs {
            let mut col = vec![Complex64::ZERO; 17];
            s.matvec_adjoint_into(&xa[c * 23..(c + 1) * 23], &mut col);
            assert_eq!(&ya[c * 17..(c + 1) * 17], &col[..], "adjoint column {c} differs");
        }
    }

    #[test]
    fn linear_operator_impl() {
        let (s, d) = random_sparse(9, 9, 0.25, 81);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(82);
        let x = CVector::random(9, &mut rng);
        let y = LinearOperator::apply_vec(&s, &x);
        assert!((&y - &d.matvec(&x)).norm() < 1e-13);
        assert!(crate::ops::adjoint_defect(&s, 5, &mut rng) < 1e-13);
    }
}
