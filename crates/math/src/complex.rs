//! Double-precision complex numbers.
//!
//! A deliberately small implementation covering exactly what gate kernels
//! and unitary algebra need: arithmetic, conjugation, magnitude, polar
//! construction. The struct is `repr(C)` so that a slice of `Complex64`
//! is layout-compatible with interleaved `[re, im, re, im, ...]` storage.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular components.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline(always)]
    pub const fn real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar form `r·e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64::new(r * theta.cos(), r * theta.sin())
    }

    /// `e^{iθ}` — a pure phase. Phase gates are diagonal matrices of these.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex64::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Complex64::new(self.re, -self.im)
    }

    /// Squared magnitude `|z|²` — the measurement probability of an amplitude.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase angle) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse. Returns non-finite components if `self` is zero.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Complex64::new(self.re / d, -self.im / d)
    }

    /// Scales by a real factor.
    #[inline(always)]
    pub fn scale(self, k: f64) -> Self {
        Complex64::new(self.re * k, self.im * k)
    }

    /// Fused multiply-add shape used by gate kernels: `self + a * b`.
    ///
    /// Written out explicitly so the compiler can keep everything in
    /// registers inside the amplitude-pair update loops.
    #[inline(always)]
    pub fn mul_add(self, a: Complex64, b: Complex64) -> Self {
        Complex64::new(
            self.re + a.re * b.re - a.im * b.im,
            self.im + a.re * b.im + a.im * b.re,
        )
    }

    /// True when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    // z / w computed as z * w^{-1}; the multiplication is intentional.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex64) -> Complex64 {
        self * rhs.inv()
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn div(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64::real(re)
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 || self.im.is_nan() {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::assert_close;

    #[test]
    fn constructors() {
        assert_eq!(Complex64::new(1.0, 2.0).re, 1.0);
        assert_eq!(Complex64::new(1.0, 2.0).im, 2.0);
        assert_eq!(Complex64::real(3.0), Complex64::new(3.0, 0.0));
        assert_eq!(Complex64::from(4.5), Complex64::new(4.5, 0.0));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_3);
        assert_close(z.abs(), 2.0, 1e-12);
        assert_close(z.arg(), std::f64::consts::FRAC_PI_3, 1e-12);
    }

    #[test]
    fn cis_unit_circle() {
        for k in 0..16 {
            let theta = k as f64 * 0.5;
            let z = Complex64::cis(theta);
            assert_close(z.norm_sqr(), 1.0, 1e-12);
        }
    }

    #[test]
    fn arithmetic_identities() {
        let a = Complex64::new(1.5, -2.5);
        let b = Complex64::new(-0.5, 3.0);
        assert_eq!(a + b, Complex64::new(1.0, 0.5));
        assert_eq!(a - b, Complex64::new(2.0, -5.5));
        assert_eq!(a + Complex64::ZERO, a);
        assert_eq!(a * Complex64::ONE, a);
        assert_eq!(-a + a, Complex64::ZERO);
    }

    #[test]
    fn multiplication_matches_definition() {
        let a = Complex64::new(2.0, 3.0);
        let b = Complex64::new(-1.0, 4.0);
        // (2+3i)(-1+4i) = -2 + 8i - 3i + 12i² = -14 + 5i
        assert_eq!(a * b, Complex64::new(-14.0, 5.0));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex64::I * Complex64::I, Complex64::new(-1.0, 0.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex64::new(2.0, 3.0);
        let b = Complex64::new(-1.0, 4.0);
        let q = (a * b) / b;
        assert_close(q.re, a.re, 1e-12);
        assert_close(q.im, a.im, 1e-12);
    }

    #[test]
    fn conjugate_properties() {
        let a = Complex64::new(2.0, 3.0);
        assert_eq!(a.conj().conj(), a);
        let p = a * a.conj();
        assert_close(p.re, a.norm_sqr(), 1e-12);
        assert_close(p.im, 0.0, 1e-12);
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let acc = Complex64::new(0.5, -0.25);
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(-3.0, 0.5);
        let expected = acc + a * b;
        let got = acc.mul_add(a, b);
        assert_close(got.re, expected.re, 1e-12);
        assert_close(got.im, expected.im, 1e-12);
    }

    #[test]
    fn scale_and_real_ops() {
        let a = Complex64::new(1.0, -2.0);
        assert_eq!(a.scale(2.0), Complex64::new(2.0, -4.0));
        assert_eq!(a * 2.0, 2.0 * a);
        assert_eq!(a / 2.0, Complex64::new(0.5, -1.0));
    }

    #[test]
    fn sum_over_iterator() {
        let total: Complex64 = (0..4).map(|k| Complex64::new(k as f64, 1.0)).sum();
        assert_eq!(total, Complex64::new(6.0, 4.0));
    }

    #[test]
    fn display_format() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn finite_detection() {
        assert!(Complex64::new(1.0, 2.0).is_finite());
        assert!(!Complex64::new(f64::NAN, 0.0).is_finite());
        assert!(!Complex64::new(0.0, f64::INFINITY).is_finite());
    }
}
