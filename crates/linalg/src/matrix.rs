//! Dense complex matrices (row-major) with the operations needed by the
//! Sakurai-Sugiura reduction (small Hankel/moment matrices) and by the dense
//! OBM baseline: products, adjoints, sub-blocks, norms.
//!
//! Dimensions in this workspace are small for the dense path (at most a few
//! thousand), so clarity is favoured over cache blocking; the `matmul` kernel
//! nevertheless uses the i-k-j loop order so the inner loop is a contiguous
//! axpy.

use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::complex::{c64, Complex64};
use crate::vector::CVector;

/// Dense row-major complex matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct CMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Zero matrix of shape `(nrows, ncols)`.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self { nrows, ncols, data: vec![Complex64::ZERO; nrows * ncols] }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Build from a function of the `(row, col)` index.
    pub fn from_fn(
        nrows: usize,
        ncols: usize,
        mut f: impl FnMut(usize, usize) -> Complex64,
    ) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                data.push(f(i, j));
            }
        }
        Self { nrows, ncols, data }
    }

    /// Build from nested row data (each inner slice is a row).
    pub fn from_rows(rows: &[Vec<Complex64>]) -> Self {
        let nrows = rows.len();
        let ncols = if nrows > 0 { rows[0].len() } else { 0 };
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self { nrows, ncols, data }
    }

    /// Build a matrix whose columns are the given vectors.
    pub fn from_columns(cols: &[CVector]) -> Self {
        let ncols = cols.len();
        let nrows = if ncols > 0 { cols[0].len() } else { 0 };
        let mut m = Self::zeros(nrows, ncols);
        for (j, c) in cols.iter().enumerate() {
            assert_eq!(c.len(), nrows, "ragged columns");
            for i in 0..nrows {
                m[(i, j)] = c[i];
            }
        }
        m
    }

    /// Diagonal matrix from a slice.
    pub fn from_diag(d: &[Complex64]) -> Self {
        let n = d.len();
        let mut m = Self::zeros(n, n);
        for (i, &v) in d.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Random matrix with entries uniform in the unit square, for tests and
    /// for the Sakurai-Sugiura source block `V`.
    pub fn random<R: rand::Rng + ?Sized>(nrows: usize, ncols: usize, rng: &mut R) -> Self {
        Self::from_fn(nrows, ncols, |_, _| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
    }

    /// Number of rows.
    #[inline(always)]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `true` if the matrix is square.
    #[inline(always)]
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Raw row-major storage.
    #[inline(always)]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable raw row-major storage.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// A row as a slice.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[Complex64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// A row as a mutable slice.
    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [Complex64] {
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Extract column `j` as a vector.
    pub fn column(&self, j: usize) -> CVector {
        (0..self.nrows).map(|i| self[(i, j)]).collect()
    }

    /// Overwrite column `j` with the entries of `v`.
    pub fn set_column(&mut self, j: usize, v: &CVector) {
        assert_eq!(v.len(), self.nrows);
        for i in 0..self.nrows {
            self[(i, j)] = v[i];
        }
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Conjugate transpose (Hermitian adjoint).
    pub fn adjoint(&self) -> Self {
        Self::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)].conj())
    }

    /// Elementwise conjugate.
    pub fn conj(&self) -> Self {
        Self {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Matrix-vector product `A x`.
    pub fn matvec(&self, x: &CVector) -> CVector {
        assert_eq!(x.len(), self.ncols, "matvec: dimension mismatch");
        let mut y = CVector::zeros(self.nrows);
        for i in 0..self.nrows {
            let row = self.row(i);
            let mut acc = Complex64::ZERO;
            for (a, b) in row.iter().zip(x.as_slice()) {
                acc += *a * *b;
            }
            y[i] = acc;
        }
        y
    }

    /// Adjoint matrix-vector product `A† x`.
    pub fn matvec_adj(&self, x: &CVector) -> CVector {
        assert_eq!(x.len(), self.nrows, "matvec_adj: dimension mismatch");
        let mut y = CVector::zeros(self.ncols);
        for i in 0..self.nrows {
            let xi = x[i].conj();
            let row = self.row(i);
            for (j, a) in row.iter().enumerate() {
                y[j] += (xi * *a).conj();
            }
        }
        y
    }

    /// Matrix product `A * B` with an axpy-style inner loop.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(self.ncols, other.nrows, "matmul: dimension mismatch");
        let mut out = Self::zeros(self.nrows, other.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let aik = self[(i, k)];
                if aik == Complex64::ZERO {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                for (o, b) in orow.iter_mut().zip(brow) {
                    *o += aik * *b;
                }
            }
        }
        out
    }

    /// `A† * B` without forming the adjoint explicitly.
    pub fn adjoint_mul(&self, other: &Self) -> Self {
        assert_eq!(self.nrows, other.nrows, "adjoint_mul: dimension mismatch");
        let mut out = Self::zeros(self.ncols, other.ncols);
        for k in 0..self.nrows {
            let arow = self.row(k);
            let brow = other.row(k);
            for (i, aik) in arow.iter().enumerate() {
                let aki = aik.conj();
                if aki == Complex64::ZERO {
                    continue;
                }
                let orow = out.row_mut(i);
                for (o, b) in orow.iter_mut().zip(brow) {
                    *o += aki * *b;
                }
            }
        }
        out
    }

    /// Scale every entry by `alpha`.
    pub fn scale(&self, alpha: Complex64) -> Self {
        Self {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.iter().map(|z| *z * alpha).collect(),
        }
    }

    /// Contiguous sub-block `[r0..r0+nr, c0..c0+nc]`.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Self {
        assert!(r0 + nr <= self.nrows && c0 + nc <= self.ncols, "block out of bounds");
        Self::from_fn(nr, nc, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Copy `src` into the block with upper-left corner `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, src: &Self) {
        assert!(
            r0 + src.nrows <= self.nrows && c0 + src.ncols <= self.ncols,
            "set_block out of bounds"
        );
        for i in 0..src.nrows {
            for j in 0..src.ncols {
                self[(r0 + i, c0 + j)] = src[(i, j)];
            }
        }
    }

    /// Keep the first `k` columns.
    pub fn take_columns(&self, k: usize) -> Self {
        self.block(0, 0, self.nrows, k)
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn amax(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// `||A - A†||_F`, zero for Hermitian matrices.
    pub fn hermiticity_defect(&self) -> f64 {
        assert!(self.is_square());
        let mut acc = 0.0;
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                acc += (self[(i, j)] - self[(j, i)].conj()).norm_sqr();
            }
        }
        acc.sqrt()
    }

    /// Trace of a square matrix.
    pub fn trace(&self) -> Complex64 {
        assert!(self.is_square());
        (0..self.nrows).map(|i| self[(i, i)]).sum()
    }

    /// Approximate memory footprint of the storage in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<Complex64>()
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i * self.ncols + j]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i * self.ncols + j]
    }
}

impl Add<&CMatrix> for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.nrows, self.ncols), (rhs.nrows, rhs.ncols));
        CMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| *a + *b).collect(),
        }
    }
}

impl Sub<&CMatrix> for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.nrows, self.ncols), (rhs.nrows, rhs.ncols));
        CMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| *a - *b).collect(),
        }
    }
}

impl Mul<&CMatrix> for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        self.matmul(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn approx_eq(a: &CMatrix, b: &CMatrix, tol: f64) -> bool {
        (a - b).fro_norm() <= tol * (1.0 + a.fro_norm().max(b.fro_norm()))
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let a = CMatrix::random(5, 5, &mut rng);
        let i = CMatrix::identity(5);
        assert!(approx_eq(&a.matmul(&i), &a, 1e-14));
        assert!(approx_eq(&i.matmul(&a), &a, 1e-14));
    }

    #[test]
    fn matvec_matches_matmul_with_column() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let a = CMatrix::random(4, 6, &mut rng);
        let x = CVector::random(6, &mut rng);
        let y = a.matvec(&x);
        let xm = CMatrix::from_columns(&[x]);
        let ym = a.matmul(&xm);
        for i in 0..4 {
            assert!((y[i] - ym[(i, 0)]).abs() < 1e-13);
        }
    }

    #[test]
    fn adjoint_consistency() {
        // ⟨A x, y⟩ = ⟨x, A† y⟩
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let a = CMatrix::random(5, 7, &mut rng);
        let x = CVector::random(7, &mut rng);
        let y = CVector::random(5, &mut rng);
        let lhs = a.matvec(&x).dot(&y);
        let rhs = x.dot(&a.matvec_adj(&y));
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn adjoint_mul_matches_explicit() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let a = CMatrix::random(6, 3, &mut rng);
        let b = CMatrix::random(6, 4, &mut rng);
        assert!(approx_eq(&a.adjoint_mul(&b), &a.adjoint().matmul(&b), 1e-13));
    }

    #[test]
    fn block_roundtrip() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let a = CMatrix::random(6, 6, &mut rng);
        let blk = a.block(1, 2, 3, 4);
        let mut b = CMatrix::zeros(6, 6);
        b.set_block(1, 2, &blk);
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(b[(1 + i, 2 + j)], a[(1 + i, 2 + j)]);
            }
        }
    }

    #[test]
    fn hermiticity_defect_detects_structure() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        let a = CMatrix::random(5, 5, &mut rng);
        let h = &a + &a.adjoint();
        assert!(h.hermiticity_defect() < 1e-13);
        assert!(a.hermiticity_defect() > 1e-3);
    }

    #[test]
    fn columns_and_diag() {
        let d = CMatrix::from_diag(&[c64(1.0, 0.0), c64(0.0, 2.0)]);
        assert_eq!(d[(1, 1)], c64(0.0, 2.0));
        assert_eq!(d[(0, 1)], Complex64::ZERO);
        let c = d.column(1);
        assert_eq!(c[0], Complex64::ZERO);
        assert_eq!(c[1], c64(0.0, 2.0));
        assert_eq!(d.trace(), c64(1.0, 2.0));
    }

    #[test]
    fn transpose_and_adjoint_relationship() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let a = CMatrix::random(3, 5, &mut rng);
        assert!(approx_eq(&a.adjoint(), &a.transpose().conj(), 1e-15));
        assert!(approx_eq(&a.adjoint().adjoint(), &a, 1e-15));
    }
}
