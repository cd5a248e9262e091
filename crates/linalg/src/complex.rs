//! Double-precision complex scalar type used throughout the workspace.
//!
//! The whole library is built without external numerical dependencies, so the
//! complex type is implemented here from scratch.  It is a plain `Copy` pair
//! of `f64`s with the usual field operations, the elementary functions needed
//! by the contour quadrature (`exp`, `ln`, `sqrt`, `powi`) and a few
//! convenience constructors (`polar`, `cis`).

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// `#[repr(C)]` guarantees the `(re, im)` field order in memory, so slices
/// of `Complex64` can be reinterpreted as interleaved `f64` pairs — the
/// SIMD tile kernels in `cbs-sparse` rely on this.
#[repr(C)]
#[derive(Clone, Copy, Default, PartialEq)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Shorthand constructor: `c64(re, im)`.
#[inline(always)]
pub const fn c64(re: f64, im: f64) -> Complex64 {
    Complex64 { re, im }
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = c64(0.0, 0.0);
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex64 = c64(1.0, 0.0);
    /// The imaginary unit `i`.
    pub const I: Complex64 = c64(0.0, 1.0);

    /// Create a new complex number from real and imaginary parts.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// A purely real complex number.
    #[inline(always)]
    pub const fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// A purely imaginary complex number.
    #[inline(always)]
    pub const fn imag(im: f64) -> Self {
        Self { re: 0.0, im }
    }

    /// `r * exp(i*theta)`.
    #[inline]
    pub fn polar(r: f64, theta: f64) -> Self {
        Self { re: r * theta.cos(), im: r * theta.sin() }
    }

    /// Unit-modulus complex exponential `exp(i*theta)`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Self { re: self.re, im: -self.im }
    }

    /// Squared modulus `|z|^2`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`, computed with `hypot` for robustness against
    /// overflow/underflow of the squares.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase angle) in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Self { re: self.re / d, im: -self.im / d }
    }

    /// Scale by a real factor.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        Self { re: self.re * s, im: self.im * s }
    }

    /// Complex exponential.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Self { re: r * self.im.cos(), im: r * self.im.sin() }
    }

    /// Principal branch of the natural logarithm.
    #[inline]
    pub fn ln(self) -> Self {
        Self { re: self.abs().ln(), im: self.arg() }
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        // Stable formulation avoiding cancellation (Kahan).
        if self.re == 0.0 && self.im == 0.0 {
            return Self::ZERO;
        }
        let m = self.abs();
        let re = ((m + self.re) * 0.5).sqrt();
        let im_mag = ((m - self.re) * 0.5).sqrt();
        Self { re, im: if self.im >= 0.0 { im_mag } else { -im_mag } }
    }

    /// Integer power by repeated squaring (negative exponents allowed).
    pub fn powi(self, n: i32) -> Self {
        if n == 0 {
            return Self::ONE;
        }
        let mut base = if n > 0 { self } else { self.inv() };
        let mut e = n.unsigned_abs();
        let mut acc = Self::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base *= base;
            e >>= 1;
        }
        acc
    }

    /// `true` if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:e}{:+e}i)", self.re, self.im)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*}{:+.*}i", prec, self.re, prec, self.im)
        } else {
            write!(f, "{}{:+}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex64 {
    #[inline(always)]
    fn from(re: f64) -> Self {
        Self { re, im: 0.0 }
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn neg(self) -> Complex64 {
        c64(-self.re, -self.im)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, rhs: Complex64) -> Complex64 {
        c64(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, rhs: Complex64) -> Complex64 {
        c64(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Complex64) -> Complex64 {
        c64(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Complex64) -> Complex64 {
        // Smith's algorithm for robust complex division.
        if rhs.re.abs() >= rhs.im.abs() {
            let r = rhs.im / rhs.re;
            let d = rhs.re + rhs.im * r;
            c64((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = rhs.re / rhs.im;
            let d = rhs.re * r + rhs.im;
            c64((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

macro_rules! impl_scalar_ops {
    ($($t:ty),*) => {$(
        impl Add<$t> for Complex64 {
            type Output = Complex64;
            #[inline(always)]
            fn add(self, rhs: $t) -> Complex64 { c64(self.re + rhs as f64, self.im) }
        }
        impl Sub<$t> for Complex64 {
            type Output = Complex64;
            #[inline(always)]
            fn sub(self, rhs: $t) -> Complex64 { c64(self.re - rhs as f64, self.im) }
        }
        impl Mul<$t> for Complex64 {
            type Output = Complex64;
            #[inline(always)]
            fn mul(self, rhs: $t) -> Complex64 { c64(self.re * rhs as f64, self.im * rhs as f64) }
        }
        impl Div<$t> for Complex64 {
            type Output = Complex64;
            #[inline(always)]
            fn div(self, rhs: $t) -> Complex64 { c64(self.re / rhs as f64, self.im / rhs as f64) }
        }
        impl Mul<Complex64> for $t {
            type Output = Complex64;
            #[inline(always)]
            fn mul(self, rhs: Complex64) -> Complex64 { c64(self as f64 * rhs.re, self as f64 * rhs.im) }
        }
        impl Add<Complex64> for $t {
            type Output = Complex64;
            #[inline(always)]
            fn add(self, rhs: Complex64) -> Complex64 { c64(self as f64 + rhs.re, rhs.im) }
        }
        impl Sub<Complex64> for $t {
            type Output = Complex64;
            #[inline(always)]
            fn sub(self, rhs: Complex64) -> Complex64 { c64(self as f64 - rhs.re, -rhs.im) }
        }
    )*};
}

impl_scalar_ops!(f64);

impl AddAssign for Complex64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline(always)]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl MulAssign<f64> for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: f64) {
        self.re *= rhs;
        self.im *= rhs;
    }
}

impl DivAssign<f64> for Complex64 {
    #[inline(always)]
    fn div_assign(&mut self, rhs: f64) {
        self.re /= rhs;
        self.im /= rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + *b)
    }
}

impl Product for Complex64 {
    fn product<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ONE, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-13;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).abs() < EPS * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn arithmetic_identities() {
        let z = c64(3.0, -4.0);
        assert!(close(z + Complex64::ZERO, z));
        assert!(close(z * Complex64::ONE, z));
        assert!(close(z - z, Complex64::ZERO));
        assert!(close(z / z, Complex64::ONE));
        assert!(close(z * z.inv(), Complex64::ONE));
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
    }

    #[test]
    fn conjugation_and_modulus() {
        let z = c64(1.5, 2.5);
        assert!(close(z * z.conj(), Complex64::real(z.norm_sqr())));
        assert_eq!(z.conj().conj(), z);
    }

    #[test]
    fn division_matches_multiplication_by_inverse() {
        let a = c64(2.0, -7.0);
        let b = c64(-3.0, 0.25);
        assert!(close(a / b, a * b.inv()));
    }

    #[test]
    fn division_extreme_magnitudes() {
        let a = c64(1e200, 1e200);
        let b = c64(2e200, 0.0);
        let q = a / b;
        assert!((q.re - 0.5).abs() < 1e-12);
        assert!((q.im - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exp_and_ln_roundtrip() {
        let z = c64(0.3, -1.2);
        assert!(close(z.exp().ln(), z));
        // Euler's identity.
        assert!((Complex64::imag(std::f64::consts::PI).exp() + Complex64::ONE).abs() < 1e-15);
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[(4.0, 0.0), (0.0, 2.0), (-1.0, 0.0), (3.0, -4.0), (-5.0, 12.0)] {
            let z = c64(re, im);
            let s = z.sqrt();
            assert!(close(s * s, z), "sqrt({z:?})^2 = {:?}", s * s);
            assert!(s.re >= 0.0, "principal branch has non-negative real part");
        }
    }

    #[test]
    fn powi_matches_repeated_multiplication() {
        let z = c64(0.9, 0.4);
        let mut acc = Complex64::ONE;
        for n in 0..8 {
            assert!(close(z.powi(n), acc));
            acc *= z;
        }
        assert!(close(z.powi(-3), (z * z * z).inv()));
    }

    #[test]
    fn polar_and_cis() {
        let z = Complex64::polar(2.0, 0.75);
        assert!((z.abs() - 2.0).abs() < EPS);
        assert!((z.arg() - 0.75).abs() < EPS);
        assert!(close(Complex64::cis(0.75).scale(2.0), z));
    }

    #[test]
    fn sum_and_product_iterators() {
        let v = [c64(1.0, 1.0), c64(2.0, -1.0), c64(-0.5, 0.25)];
        let s: Complex64 = v.iter().sum();
        assert!(close(s, c64(2.5, 0.25)));
        let p: Complex64 = v.iter().copied().product();
        assert!(close(p, c64(1.0, 1.0) * c64(2.0, -1.0) * c64(-0.5, 0.25)));
    }

    #[test]
    fn display_formatting() {
        let z = c64(1.25, -0.5);
        assert_eq!(format!("{z:.2}"), "1.25-0.50i");
    }
}
