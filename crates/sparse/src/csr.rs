//! Compressed sparse row (CSR) storage for complex matrices: the complex
//! forms of a Hamiltonian's blocks, built from its real stencil on request
//! (`StencilBlock::sparse_csr`), and complex test pencils.  Applied to
//! vectors only, in O(nnz) time.

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
#[derive(Clone, Debug)]
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

    /// From raw CSR arrays whose rows are sorted by column, without
    /// duplicates or stored zeros (what [`CooBuilder::build`] produces).
    pub(crate) fn from_sorted_rows(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<Complex64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), nrows + 1);
        debug_assert_eq!(col_idx.len(), values.len());
        Self { nrows, ncols, row_ptr, col_idx, values }
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
    fn memory_bytes(&self) -> usize {
        self.storage_bytes()
    }
    fn is_real(&self) -> bool {
        crate::ops::all_real(&self.values)
    }
}

// --- Shared CSR kernels on raw (row_ptr, col_idx, values) triples. ---------
//
// `CsrMatrix` delegates here.  It applies a block one column at a time
// (the `LinearOperator` defaults): only the real stencil keeps fused
// multi-column kernels.

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
    fn linear_operator_impl() {
        let (s, d) = random_sparse(9, 9, 0.25, 81);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(82);
        let x = CVector::random(9, &mut rng);
        let y = LinearOperator::apply_vec(&s, &x);
        assert!((&y - &d.matvec(&x)).norm() < 1e-13);
        assert!(crate::ops::adjoint_defect(&s, 5, &mut rng) < 1e-13);
    }
}
