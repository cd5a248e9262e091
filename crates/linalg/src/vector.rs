//! Dense complex vectors and the BLAS-1 style kernels used by the iterative
//! solvers (dot products with conjugation, axpy, norms, scaling).
//!
//! Vectors are plain `Vec<Complex64>` wrapped in a newtype so that algebraic
//! operations read naturally at call sites while the raw storage stays
//! available as a slice for the matrix-free operators.

use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::complex::{c64, Complex64};

/// A dense complex vector.
#[derive(Clone, Debug, PartialEq)]
pub struct CVector {
    data: Vec<Complex64>,
}

impl CVector {
    /// A zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Self { data: vec![Complex64::ZERO; n] }
    }

    /// Wrap an existing buffer.
    pub fn from_vec(data: Vec<Complex64>) -> Self {
        Self { data }
    }

    /// Unit basis vector `e_i` of length `n`.
    pub fn unit(n: usize, i: usize) -> Self {
        let mut v = Self::zeros(n);
        v[i] = Complex64::ONE;
        v
    }

    /// Number of entries.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the vector has no entries.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the storage.
    #[inline(always)]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable view of the storage.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Consume and return the underlying buffer.
    pub fn into_vec(self) -> Vec<Complex64> {
        self.data
    }

    /// Iterate over entries.
    pub fn iter(&self) -> std::slice::Iter<'_, Complex64> {
        self.data.iter()
    }

    /// Euclidean (2-)norm.
    pub fn norm(&self) -> f64 {
        nrm2(&self.data)
    }

    /// Conjugated inner product `⟨self, other⟩ = self† · other`.
    pub fn dot(&self, other: &Self) -> Complex64 {
        dotc(&self.data, &other.data)
    }

    /// In-place scaling by a complex scalar.
    pub fn scale(&mut self, alpha: Complex64) {
        scal(alpha, &mut self.data);
    }

    /// `self += alpha * x`.
    pub fn axpy(&mut self, alpha: Complex64, x: &Self) {
        axpy(alpha, &x.data, &mut self.data);
    }

    /// Elementwise complex conjugate.
    pub fn conj(&self) -> Self {
        Self { data: self.data.iter().map(|z| z.conj()).collect() }
    }

    /// Return a normalized copy together with the original norm.
    pub fn normalized(&self) -> (Self, f64) {
        let n = self.norm();
        let mut v = self.clone();
        if n > 0.0 {
            v.scale(Complex64::real(1.0 / n));
        }
        (v, n)
    }

    /// Maximum absolute entry.
    pub fn amax(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Random vector with entries uniform in the unit square `[-1,1]^2`,
    /// using the caller's RNG so results are reproducible.
    pub fn random<R: rand::Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        Self {
            data: (0..n).map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect(),
        }
    }
}

impl Index<usize> for CVector {
    type Output = Complex64;
    #[inline(always)]
    fn index(&self, i: usize) -> &Complex64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for CVector {
    #[inline(always)]
    fn index_mut(&mut self, i: usize) -> &mut Complex64 {
        &mut self.data[i]
    }
}

impl Add<&CVector> for &CVector {
    type Output = CVector;
    fn add(self, rhs: &CVector) -> CVector {
        assert_eq!(self.len(), rhs.len());
        CVector { data: self.data.iter().zip(&rhs.data).map(|(a, b)| *a + *b).collect() }
    }
}

impl Sub<&CVector> for &CVector {
    type Output = CVector;
    fn sub(self, rhs: &CVector) -> CVector {
        assert_eq!(self.len(), rhs.len());
        CVector { data: self.data.iter().zip(&rhs.data).map(|(a, b)| *a - *b).collect() }
    }
}

impl Neg for &CVector {
    type Output = CVector;
    fn neg(self) -> CVector {
        CVector { data: self.data.iter().map(|z| -*z).collect() }
    }
}

impl Mul<Complex64> for &CVector {
    type Output = CVector;
    fn mul(self, rhs: Complex64) -> CVector {
        CVector { data: self.data.iter().map(|z| *z * rhs).collect() }
    }
}

impl AddAssign<&CVector> for CVector {
    fn add_assign(&mut self, rhs: &CVector) {
        assert_eq!(self.len(), rhs.len());
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += *b;
        }
    }
}

impl SubAssign<&CVector> for CVector {
    fn sub_assign(&mut self, rhs: &CVector) {
        assert_eq!(self.len(), rhs.len());
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= *b;
        }
    }
}

impl FromIterator<Complex64> for CVector {
    fn from_iter<I: IntoIterator<Item = Complex64>>(iter: I) -> Self {
        Self { data: iter.into_iter().collect() }
    }
}

// ---------------------------------------------------------------------------
// Slice-level kernels (BLAS-1 analogues) — these are the hot inner loops of
// every Krylov iteration, so they are kept free of bounds checks in the body
// by iterating over zipped slices.
// ---------------------------------------------------------------------------

/// Conjugated dot product `x† · y`.
#[inline]
pub fn dotc(x: &[Complex64], y: &[Complex64]) -> Complex64 {
    assert_eq!(x.len(), y.len(), "dotc: length mismatch");
    let mut acc = Complex64::ZERO;
    for (a, b) in x.iter().zip(y.iter()) {
        acc += a.conj() * *b;
    }
    acc
}

/// Euclidean norm of a complex slice.
#[inline]
pub fn nrm2(x: &[Complex64]) -> f64 {
    let mut acc = 0.0f64;
    for z in x {
        acc += z.norm_sqr();
    }
    acc.sqrt()
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: Complex64, x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * *xi;
    }
}

/// `x *= alpha`.
#[inline]
pub fn scal(alpha: Complex64, x: &mut [Complex64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Copy `x` into `y`.
#[inline]
pub fn copy(x: &[Complex64], y: &mut [Complex64]) {
    y.copy_from_slice(x);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_construction() {
        let v = CVector::zeros(4);
        assert_eq!(v.len(), 4);
        assert_eq!(v.norm(), 0.0);
        let e = CVector::unit(3, 1);
        assert_eq!(e[0], Complex64::ZERO);
        assert_eq!(e[1], Complex64::ONE);
        assert_eq!(e.norm(), 1.0);
    }

    #[test]
    fn dot_products() {
        let x = CVector::from_vec(vec![c64(1.0, 2.0), c64(0.0, -1.0)]);
        let y = CVector::from_vec(vec![c64(3.0, 0.0), c64(1.0, 1.0)]);
        // x† y = (1-2i)(3) + (0+1i)(1+i) = 3 - 6i + i - 1 = 2 - 5i
        assert_eq!(x.dot(&y), c64(2.0, -5.0));
        // ⟨x,x⟩ is real and equals ||x||²
        let xx = x.dot(&x);
        assert!((xx.im).abs() < 1e-15);
        assert!((xx.re - x.norm().powi(2)).abs() < 1e-12);
    }

    #[test]
    fn axpy_and_scale() {
        let x = CVector::from_vec(vec![c64(1.0, 0.0), c64(0.0, 1.0)]);
        let mut y = CVector::from_vec(vec![c64(2.0, 0.0), c64(0.0, 2.0)]);
        y.axpy(c64(0.0, 1.0), &x);
        assert_eq!(y[0], c64(2.0, 1.0));
        assert_eq!(y[1], c64(-1.0, 2.0));
        y.scale(Complex64::real(2.0));
        assert_eq!(y[0], c64(4.0, 2.0));
    }

    #[test]
    fn vector_operators() {
        let a = CVector::from_vec(vec![c64(1.0, 1.0), c64(2.0, 0.0)]);
        let b = CVector::from_vec(vec![c64(0.5, -1.0), c64(1.0, 1.0)]);
        let s = &a + &b;
        assert_eq!(s[0], c64(1.5, 0.0));
        let d = &a - &b;
        assert_eq!(d[1], c64(1.0, -1.0));
        let m = &a * c64(0.0, 1.0);
        assert_eq!(m[0], c64(-1.0, 1.0));
    }

    #[test]
    fn normalized_has_unit_norm() {
        let v = CVector::from_vec(vec![c64(3.0, 0.0), c64(0.0, 4.0)]);
        let (u, n) = v.normalized();
        assert!((n - 5.0).abs() < 1e-15);
        assert!((u.norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn random_is_reproducible() {
        use rand::SeedableRng;
        let mut r1 = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let mut r2 = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let a = CVector::random(16, &mut r1);
        let b = CVector::random(16, &mut r2);
        assert_eq!(a, b);
        // each component lies in [-1,1), so the modulus is at most sqrt(2)
        assert!(a.amax() <= std::f64::consts::SQRT_2 + 1e-12);
    }
}
