//! Univariate polynomials over an [`Algebra`].
//!
//! These are the masking polynomials of the protocols: the trainer's
//! `h(u)` with `h(0) = 0` and the client's cover polynomials `g_i(v)` with
//! `g_i(0) = t̃_i`.

use rand::Rng;

use crate::algebra::Algebra;
use crate::fp256::Fp256;

/// A dense univariate polynomial `c_0 + c_1 x + ... + c_d x^d`.
///
/// # Examples
///
/// ```
/// use ppcs_math::{Fp256, FixedFpAlgebra, Polynomial};
///
/// let alg = FixedFpAlgebra::new(16);
/// // 1 + 2x + 3x^2 at x = 2 is 17.
/// let p = Polynomial::new([1, 2, 3].map(Fp256::from_u64).to_vec());
/// assert_eq!(p.eval(&alg, &Fp256::from_u64(2)), Fp256::from_u64(17));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Polynomial {
    coeffs: Vec<Fp256>,
}

impl Polynomial {
    /// Builds a polynomial from coefficients in ascending-degree order.
    ///
    /// An empty coefficient list denotes the zero polynomial.
    pub fn new(coeffs: Vec<Fp256>) -> Self {
        Self { coeffs }
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Self { coeffs: Vec::new() }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: Fp256) -> Self {
        Self { coeffs: vec![c] }
    }

    /// Draws a uniformly random polynomial of exactly the given degree with
    /// the prescribed constant term.
    ///
    /// This is the primitive behind both masking constructions: the paper's
    /// `h(u)` is `random_with_constant(q, 0)` and the client's `g_i(v)` is
    /// `random_with_constant(q, t̃_i)`.
    pub fn random_with_constant<R: Rng + ?Sized>(
        alg: &impl Algebra,
        degree: usize,
        constant: Fp256,
        rng: &mut R,
    ) -> Self {
        let mut p = Self::zero();
        p.refresh_random_with_constant(alg, degree, constant, rng);
        p
    }

    /// Redraws this polynomial in place as a fresh uniformly random one
    /// of exactly `degree` with the prescribed constant term, reusing the
    /// coefficient allocation.
    ///
    /// Batch protocols set up the masking-polynomial storage once per
    /// session and refresh it here for every round.
    pub fn refresh_random_with_constant<R: Rng + ?Sized>(
        &mut self,
        alg: &impl Algebra,
        degree: usize,
        constant: Fp256,
        rng: &mut R,
    ) {
        self.coeffs.clear();
        self.coeffs.reserve(degree + 1);
        self.coeffs.push(constant);
        for i in 1..=degree {
            let c = if i == degree {
                // A zero leading coefficient would silently reduce the
                // masking degree and weaken the hiding argument.
                loop {
                    let c = alg.random_mask(rng);
                    if !alg.is_zero(&c) {
                        break c;
                    }
                }
            } else {
                alg.random_mask(rng)
            };
            self.coeffs.push(c);
        }
    }

    /// The degree (0 for constants and for the zero polynomial).
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// The coefficients, ascending by degree.
    pub fn coeffs(&self) -> &[Fp256] {
        &self.coeffs
    }

    /// Evaluates at `x` using Horner's rule.
    pub fn eval(&self, alg: &impl Algebra, x: &Fp256) -> Fp256 {
        let mut acc = alg.zero();
        for c in self.coeffs.iter().rev() {
            acc = alg.add(&alg.mul(&acc, x), c);
        }
        acc
    }

    /// Evaluates at every point of `xs` at once ([`eval_cloud_many`]),
    /// identical point for point to [`eval`](Polynomial::eval).
    pub fn eval_many(&self, xs: &[Fp256]) -> Vec<Fp256> {
        let mut out = vec![Fp256::ZERO; xs.len()];
        eval_cloud_many(&self.coeffs, xs, &mut out);
        out
    }

    /// The constant term `p(0)`.
    pub fn constant_term(&self, alg: &impl Algebra) -> Fp256 {
        self.coeffs.first().cloned().unwrap_or_else(|| alg.zero())
    }

    /// Pointwise sum.
    pub fn add(&self, alg: &impl Algebra, other: &Self) -> Self {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut coeffs = Vec::with_capacity(n);
        for i in 0..n {
            let a = self.coeffs.get(i).cloned().unwrap_or_else(|| alg.zero());
            let b = other.coeffs.get(i).cloned().unwrap_or_else(|| alg.zero());
            coeffs.push(alg.add(&a, &b));
        }
        Self { coeffs }
    }

    /// Scales every coefficient by `k`.
    pub fn scale(&self, alg: &impl Algebra, k: &Fp256) -> Self {
        Self {
            coeffs: self.coeffs.iter().map(|c| alg.mul(c, k)).collect(),
        }
    }

    /// Full polynomial product (schoolbook; degrees here are tiny).
    pub fn mul(&self, alg: &impl Algebra, other: &Self) -> Self {
        if self.coeffs.is_empty() || other.coeffs.is_empty() {
            return Self::zero();
        }
        let mut coeffs = vec![alg.zero(); self.coeffs.len() + other.coeffs.len() - 1];
        for (i, a) in self.coeffs.iter().enumerate() {
            for (j, b) in other.coeffs.iter().enumerate() {
                let prod = alg.mul(a, b);
                coeffs[i + j] = alg.add(&coeffs[i + j], &prod);
            }
        }
        Self { coeffs }
    }
}

/// Evaluates one polynomial (coefficients ascending by degree) at every
/// point of a cloud, writing `out[i] = poly(xs[i])` with the Horner
/// recurrence of [`Polynomial::eval`].
///
/// Public with this signature only because the benchmark's
/// `math.eval_cloud_ns_per_point` rung calls it; the next change to the
/// benchmark package can move that rung onto [`Polynomial::eval_many`].
///
/// # Panics
///
/// Panics if `out` and `xs` differ in length.
pub fn eval_cloud_many(coeffs: &[Fp256], xs: &[Fp256], out: &mut [Fp256]) {
    assert_eq!(
        xs.len(),
        out.len(),
        "eval_cloud_many output length mismatch"
    );
    for (x, o) in xs.iter().zip(out.iter_mut()) {
        *o = coeffs
            .iter()
            .rev()
            .fold(Fp256::ZERO, |acc, c| acc * *x + *c);
    }
}

/// The instruction-set path of the field kernels. There is one, so
/// [`simd_backend`] always answers [`SimdBackend::Scalar`].
///
/// Kept only because the benchmark's `math.simd_backend` row names it;
/// the next change to the benchmark package removes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdBackend {
    /// Portable 4×64-bit limb CIOS, the one implementation.
    Scalar,
    /// Never returned.
    Avx2,
}

/// Always [`SimdBackend::Scalar`].
///
/// Kept only because the benchmark's `math.simd_backend` row calls it;
/// the next change to the benchmark package removes it.
pub fn simd_backend() -> SimdBackend {
    SimdBackend::Scalar
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::FixedFpAlgebra;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn horner_matches_naive() {
        let alg = FixedFpAlgebra::new(16);
        let mut rng = StdRng::seed_from_u64(4);
        let p = Polynomial::random_with_constant(&alg, 3, alg.encode(4.0, 1), &mut rng);
        let c = p.coeffs();
        let x = alg.random_point(&mut rng);
        let naive = c[0] + c[1] * x + c[2] * x * x + c[3] * x * x * x;
        assert_eq!(p.eval(&alg, &x), naive);
    }

    #[test]
    fn random_with_constant_pins_constant_and_degree() {
        let alg = FixedFpAlgebra::new(16);
        let mut rng = StdRng::seed_from_u64(42);
        let c = alg.encode(0.75, 1);
        for degree in 1..10 {
            let p = Polynomial::random_with_constant(&alg, degree, c, &mut rng);
            assert_eq!(p.degree(), degree);
            assert_eq!(p.constant_term(&alg), c);
            assert!(!alg.is_zero(&p.coeffs()[degree]));
        }
    }

    #[test]
    fn add_scale_mul_are_consistent_with_eval() {
        let alg = FixedFpAlgebra::new(16);
        let mut rng = StdRng::seed_from_u64(3);
        let p = Polynomial::random_with_constant(&alg, 4, alg.encode(1.0, 1), &mut rng);
        let q = Polynomial::random_with_constant(&alg, 3, alg.encode(-2.0, 1), &mut rng);
        let x = alg.random_point(&mut rng);
        let sum = p.add(&alg, &q);
        assert_eq!(sum.eval(&alg, &x), p.eval(&alg, &x) + q.eval(&alg, &x));
        let three = alg.encode_int(3);
        let scaled = p.scale(&alg, &three);
        assert_eq!(scaled.eval(&alg, &x), three * p.eval(&alg, &x));
        let prod = p.mul(&alg, &q);
        assert_eq!(prod.eval(&alg, &x), p.eval(&alg, &x) * q.eval(&alg, &x));
        assert_eq!(prod.degree(), 7);
    }

    #[test]
    fn eval_many_matches_pointwise_eval() {
        let alg = FixedFpAlgebra::new(16);
        let mut rng = StdRng::seed_from_u64(21);
        let p = Polynomial::random_with_constant(&alg, 7, alg.encode(0.5, 1), &mut rng);
        let xs: Vec<_> = (0..11).map(|_| alg.random_point(&mut rng)).collect();
        let batch = p.eval_many(&xs);
        for (x, y) in xs.iter().zip(&batch) {
            assert_eq!(p.eval(&alg, x), *y);
        }
    }

    #[test]
    fn eval_cloud_matches_horner() {
        let alg = FixedFpAlgebra::new(16);
        let mut rng = StdRng::seed_from_u64(42);
        for (deg, npts) in [(0usize, 7usize), (1, 4), (4, 9), (9, 16), (20, 3)] {
            let coeffs: Vec<Fp256> = (0..=deg).map(|_| Fp256::random(&mut rng)).collect();
            let xs: Vec<Fp256> = (0..npts).map(|_| Fp256::random(&mut rng)).collect();
            let p = Polynomial::new(coeffs.clone());
            let expect: Vec<Fp256> = xs.iter().map(|x| p.eval(&alg, x)).collect();
            let mut out = vec![Fp256::ZERO; npts];
            eval_cloud_many(&coeffs, &xs, &mut out);
            assert_eq!(out, expect, "deg {deg}, {npts} pts");
        }
        // Empty coefficient list is the zero polynomial.
        let xs: Vec<Fp256> = (0..5).map(|_| Fp256::random(&mut rng)).collect();
        let mut out = vec![Fp256::ONE; 5];
        eval_cloud_many(&[], &xs, &mut out);
        assert!(out.iter().all(|o| o.is_zero()));
    }

    #[test]
    fn zero_polynomial_evaluates_to_zero() {
        let alg = FixedFpAlgebra::new(16);
        let z = Polynomial::zero();
        assert_eq!(z.eval(&alg, &Fp256::from_u64(5)), Fp256::ZERO);
        assert_eq!(z.constant_term(&alg), Fp256::ZERO);
    }
}
