//! Minimal complex-number and dense complex-matrix arithmetic.
//!
//! The circuit IR exposes gate matrices (see [`crate::Gate::matrix`]) so that
//! downstream crates (the simulator, the KAK-based resynthesis passes) can
//! share one numeric foundation without pulling in an external linear-algebra
//! dependency.
//!
//! Matrices are small (`2^k × 2^k` for `k ≤ 3` gate matrices, up to
//! `16 × 16` for joint-support commutation checks), so a simple row-major
//! `Vec<Complex>` representation is both adequate and cache-friendly.
//! One-qubit matrices also live on the stack as [`Mat2`]; the matrix
//! product and the LU determinant are written once, as slice kernels
//! ([`matmul_into`], [`lu_det`]) that [`CMatrix`] and the 2×2 functions
//! share.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Examples
///
/// ```
/// use qrc_circuit::math::Complex;
///
/// let i = Complex::I;
/// assert_eq!(i * i, Complex::new(-1.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Returns `e^{iθ} = cos θ + i sin θ`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `|z|²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase angle) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Principal square root.
    pub fn sqrt(self) -> Self {
        let r = self.abs().sqrt();
        let theta = self.arg() / 2.0;
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// Returns `true` if both components are within `tol` of `other`'s.
    #[inline]
    pub fn approx_eq(self, other: Complex, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `self` is zero.
    #[inline]
    pub fn recip(self) -> Self {
        let n = self.norm_sqr();
        debug_assert!(n > 0.0, "reciprocal of zero complex number");
        Complex {
            re: self.re / n,
            im: -self.im / n,
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    // Division by reciprocal is the standard complex-division identity.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

/// A dense, square, row-major complex matrix.
///
/// Dimensions are small by construction (gate matrices and joint-support
/// products), so all operations are straightforward O(n³) loops.
///
/// # Examples
///
/// ```
/// use qrc_circuit::math::{CMatrix, Complex};
///
/// let x = CMatrix::from_rows(&[
///     [Complex::ZERO, Complex::ONE],
///     [Complex::ONE, Complex::ZERO],
/// ]);
/// assert!(x.matmul(&x).approx_eq(&CMatrix::identity(2), 1e-12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    dim: usize,
    data: Vec<Complex>,
}

impl CMatrix {
    /// Creates a zero matrix of dimension `dim × dim`.
    pub fn zeros(dim: usize) -> Self {
        CMatrix {
            dim,
            data: vec![Complex::ZERO; dim * dim],
        }
    }

    /// Creates the identity matrix of dimension `dim × dim`.
    pub fn identity(dim: usize) -> Self {
        let mut m = CMatrix::zeros(dim);
        for i in 0..dim {
            m[(i, i)] = Complex::ONE;
        }
        m
    }

    /// Builds a matrix from an array of rows (fixed-size, for literals).
    pub fn from_rows<const N: usize>(rows: &[[Complex; N]; N]) -> Self {
        let mut m = CMatrix::zeros(N);
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Matrix dimension (number of rows = number of columns).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow the row-major backing storage.
    #[inline]
    pub fn as_slice(&self) -> &[Complex] {
        &self.data
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn matmul(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.dim, rhs.dim, "matmul dimension mismatch");
        let mut out = CMatrix::zeros(self.dim);
        matmul_into(&self.data, &rhs.data, &mut out.data, self.dim);
        out
    }

    /// Conjugate transpose `self†`.
    pub fn dagger(&self) -> CMatrix {
        let n = self.dim;
        let mut out = CMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> CMatrix {
        let n = self.dim;
        let mut out = CMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Kronecker (tensor) product `self ⊗ rhs`.
    pub fn kron(&self, rhs: &CMatrix) -> CMatrix {
        let n = self.dim;
        let m = rhs.dim;
        let mut out = CMatrix::zeros(n * m);
        for i in 0..n {
            for j in 0..n {
                let a = self[(i, j)];
                for k in 0..m {
                    for l in 0..m {
                        out[(i * m + k, j * m + l)] = a * rhs[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Scales every entry by `s`.
    pub fn scale(&self, s: Complex) -> CMatrix {
        CMatrix {
            dim: self.dim,
            data: self.data.iter().map(|&v| v * s).collect(),
        }
    }

    /// Matrix trace.
    pub fn trace(&self) -> Complex {
        (0..self.dim).fold(Complex::ZERO, |acc, i| acc + self[(i, i)])
    }

    /// Determinant via LU decomposition with partial pivoting
    /// ([`lu_det`] on a copy).
    pub fn det(&self) -> Complex {
        lu_det(&mut self.data.clone(), self.dim)
    }

    /// Returns `true` if every entry is within `tol` of `other`'s.
    pub fn approx_eq(&self, other: &CMatrix, tol: f64) -> bool {
        self.dim == other.dim
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Returns `true` if `self† · self ≈ I` within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.dagger()
            .matmul(self)
            .approx_eq(&CMatrix::identity(self.dim), tol)
    }

    /// Checks equality with `other` up to a global phase factor.
    ///
    /// Finds the first entry of non-negligible modulus and uses the ratio of
    /// the corresponding entries as the candidate phase.
    pub fn approx_eq_up_to_phase(&self, other: &CMatrix, tol: f64) -> bool {
        if self.dim != other.dim {
            return false;
        }
        let mut phase = None;
        for (a, b) in self.data.iter().zip(other.data.iter()) {
            if a.abs() > 1e-9 || b.abs() > 1e-9 {
                if a.abs() <= 1e-9 || b.abs() <= 1e-9 {
                    return false;
                }
                phase = Some(*b / *a);
                break;
            }
        }
        let phase = match phase {
            Some(p) => p,
            // Both matrices are (numerically) zero.
            None => return true,
        };
        if (phase.abs() - 1.0).abs() > 1e-6 {
            return false;
        }
        self.data
            .iter()
            .zip(other.data.iter())
            .all(|(a, b)| (*a * phase).approx_eq(*b, tol))
    }
}

impl std::ops::Index<(usize, usize)> for CMatrix {
    type Output = Complex;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex {
        &self.data[i * self.dim + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex {
        &mut self.data[i * self.dim + j]
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.dim {
            for j in 0..self.dim {
                write!(f, "{:>24}", format!("{}", self[(i, j)]))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A 2×2 complex matrix on the stack, row-major: `[m00, m01, m10, m11]`.
/// Every one-qubit gate's matrix is declared as one
/// ([`crate::Gate::matrix_1q`]).
pub type Mat2 = [Complex; 4];

/// The 2×2 identity.
pub const IDENTITY_2X2: Mat2 = [Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::ONE];

/// Writes the product `a · b` of two row-major `n × n` matrices to `out`.
///
/// An exactly zero entry of `a` skips its row of `b`. [`CMatrix::matmul`]
/// and [`matmul_2x2`] both run this loop, so they round alike.
#[inline]
pub fn matmul_into(a: &[Complex], b: &[Complex], out: &mut [Complex], n: usize) {
    out.fill(Complex::ZERO);
    for i in 0..n {
        for k in 0..n {
            let x = a[i * n + k];
            if x.re == 0.0 && x.im == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += x * b[k * n + j];
            }
        }
    }
}

/// Determinant of the row-major `n × n` matrix in `a` by LU
/// decomposition with partial pivoting; `a` is left eliminated.
///
/// The pivot is the first entry of largest modulus at or below the
/// diagonal, and an exactly zero elimination factor skips its row.
/// [`CMatrix::det`] and [`det_2x2`] both run this loop, so they round
/// alike.
#[inline]
pub fn lu_det(a: &mut [Complex], n: usize) -> Complex {
    let mut det = Complex::ONE;
    for col in 0..n {
        let mut pivot = col;
        let mut best = a[col * n + col].norm_sqr();
        for row in (col + 1)..n {
            let v = a[row * n + col].norm_sqr();
            if v > best {
                best = v;
                pivot = row;
            }
        }
        if best == 0.0 {
            return Complex::ZERO;
        }
        if pivot != col {
            for j in 0..n {
                a.swap(col * n + j, pivot * n + j);
            }
            det = -det;
        }
        let d = a[col * n + col];
        det *= d;
        let inv = d.recip();
        for row in (col + 1)..n {
            let factor = a[row * n + col] * inv;
            if factor.re == 0.0 && factor.im == 0.0 {
                continue;
            }
            for j in col..n {
                let v = a[col * n + j];
                a[row * n + j] -= factor * v;
            }
        }
    }
    det
}

/// The product `a · b` of two 2×2 matrices ([`matmul_into`]).
#[inline]
pub fn matmul_2x2(a: &Mat2, b: &Mat2) -> Mat2 {
    let mut out = [Complex::ZERO; 4];
    matmul_into(a, b, &mut out, 2);
    out
}

/// The determinant of a 2×2 matrix ([`lu_det`] on a copy).
#[inline]
pub fn det_2x2(m: &Mat2) -> Complex {
    let mut a = *m;
    lu_det(&mut a, 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert!((a / b * b).approx_eq(a, TOL));
    }

    #[test]
    fn complex_conj_and_norm() {
        let z = Complex::new(3.0, 4.0);
        assert_eq!(z.conj(), Complex::new(3.0, -4.0));
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.abs(), 5.0);
    }

    #[test]
    fn complex_cis_and_arg() {
        let z = Complex::cis(std::f64::consts::FRAC_PI_3);
        assert!((z.arg() - std::f64::consts::FRAC_PI_3).abs() < TOL);
        assert!((z.abs() - 1.0).abs() < TOL);
    }

    #[test]
    fn complex_sqrt_squares_back() {
        let z = Complex::new(-3.0, 4.0);
        let r = z.sqrt();
        assert!((r * r).approx_eq(z, 1e-10));
    }

    #[test]
    fn matrix_identity_is_multiplicative_unit() {
        let x = CMatrix::from_rows(&[[Complex::ZERO, Complex::ONE], [Complex::ONE, Complex::ZERO]]);
        let id = CMatrix::identity(2);
        assert!(x.matmul(&id).approx_eq(&x, TOL));
        assert!(id.matmul(&x).approx_eq(&x, TOL));
    }

    #[test]
    fn matrix_dagger_of_unitary_is_inverse() {
        let h = CMatrix::from_rows(&[
            [Complex::real(1.0), Complex::real(1.0)],
            [Complex::real(1.0), Complex::real(-1.0)],
        ])
        .scale(Complex::real(1.0 / 2.0_f64.sqrt()));
        assert!(h.is_unitary(TOL));
        assert!(h.matmul(&h.dagger()).approx_eq(&CMatrix::identity(2), TOL));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let id = CMatrix::identity(2);
        let x = CMatrix::from_rows(&[[Complex::ZERO, Complex::ONE], [Complex::ONE, Complex::ZERO]]);
        let ix = id.kron(&x);
        assert_eq!(ix.dim(), 4);
        // I ⊗ X swaps within the lower qubit (column index parity).
        assert_eq!(ix[(0, 1)], Complex::ONE);
        assert_eq!(ix[(1, 0)], Complex::ONE);
        assert_eq!(ix[(2, 3)], Complex::ONE);
        assert_eq!(ix[(3, 2)], Complex::ONE);
    }

    #[test]
    fn det_of_diagonal() {
        let mut m = CMatrix::identity(3);
        m[(0, 0)] = Complex::new(2.0, 0.0);
        m[(1, 1)] = Complex::new(0.0, 1.0);
        m[(2, 2)] = Complex::new(1.0, 1.0);
        let d = m.det();
        assert!(d.approx_eq(
            Complex::new(2.0, 0.0) * Complex::I * Complex::new(1.0, 1.0),
            1e-10
        ));
    }

    #[test]
    fn det_of_singular_is_zero() {
        let m = CMatrix::from_rows(&[[Complex::ONE, Complex::ONE], [Complex::ONE, Complex::ONE]]);
        assert!(m.det().approx_eq(Complex::ZERO, TOL));
    }

    #[test]
    fn equality_up_to_phase() {
        let x = CMatrix::from_rows(&[[Complex::ZERO, Complex::ONE], [Complex::ONE, Complex::ZERO]]);
        let phased = x.scale(Complex::cis(0.7));
        assert!(x.approx_eq_up_to_phase(&phased, 1e-10));
        assert!(!x.approx_eq(&phased, 1e-10));
        let id = CMatrix::identity(2);
        assert!(!x.approx_eq_up_to_phase(&id, 1e-10));
    }

    #[test]
    fn trace_of_identity() {
        assert!(CMatrix::identity(4)
            .trace()
            .approx_eq(Complex::real(4.0), TOL));
    }
}
