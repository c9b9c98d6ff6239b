//! The [`Algebra`] every ppcs protocol computes in.
//!
//! The ICDCS'16 paper describes the protocols over the reals, but its
//! hiding argument — masking polynomials that perfectly hide their
//! payload, stripped by Lagrange interpolation — holds only over a
//! finite field. The one implementation, [`FixedFpAlgebra`], embeds
//! fixed-point values in the 256-bit prime field [`Fp256`]; floats
//! remain only as the plaintext oracles the protocols are checked
//! against.
//!
//! Fixed-point scale bookkeeping: encoding at *scale power* `k` stores
//! `round(x · 2^{k·FRAC_BITS})`. A product of elements at scales `j` and
//! `k` sits at scale `j + k`; the protocols track the scale of the final
//! output analytically and decode with [`Algebra::decode`].

use core::fmt::Debug;
use rand::Rng;

use crate::fp256::Fp256;

/// The field, and the fixed-point encoding into it, in which the ppcs
/// polynomials live. [`FixedFpAlgebra`] is the implementation.
pub trait Algebra: Clone + Debug + Send + Sync + 'static {
    /// The additive identity.
    fn zero(&self) -> Fp256;
    /// The multiplicative identity.
    fn one(&self) -> Fp256;
    /// `a + b`.
    fn add(&self, a: &Fp256, b: &Fp256) -> Fp256;
    /// `a - b`.
    fn sub(&self, a: &Fp256, b: &Fp256) -> Fp256;
    /// `a · b`.
    fn mul(&self, a: &Fp256, b: &Fp256) -> Fp256;
    /// `-a`.
    fn neg(&self, a: &Fp256) -> Fp256;
    /// Multiplicative inverse, `None` for zero.
    fn inv(&self, a: &Fp256) -> Option<Fp256>;

    /// Inverts a whole batch at once with Montgomery's batch trick (one
    /// inversion plus ~3 multiplications per element); `None` if any
    /// element is zero.
    fn batch_inv(&self, elems: &[Fp256]) -> Option<Vec<Fp256>>;
    /// `true` iff `a` is the additive identity.
    fn is_zero(&self, a: &Fp256) -> bool;

    /// Pairwise in-place product `a[i] <- a[i] * b[i]` through the SIMD
    /// batch kernels.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn mul_many(&self, a: &mut [Fp256], b: &[Fp256]);

    /// Evaluates the polynomial with coefficients `coeffs` (ascending by
    /// degree) at every point in `xs`, four points at a time, with the
    /// same Horner recurrence as `Polynomial::eval`.
    fn eval_poly_many(&self, coeffs: &[Fp256], xs: &[Fp256]) -> Vec<Fp256>;

    /// `Σ a_k · b_k`, the operands paired as [`Iterator::zip`] pairs them
    /// and reduced once per sum ([`Fp256::dot`]). `b` is an iterator so
    /// that a caller computing its terms one at a time needs no buffer
    /// for them.
    fn dot(&self, a: &[Fp256], b: impl IntoIterator<Item = Fp256>) -> Fp256;

    /// `Σ c_k · y_k` for signed fixed-point coefficients
    /// ([`Fp256::dot_narrow`]). `y_sum` must be `Σ y_k`: the kernel
    /// stores the coefficients with a bias and removes it with one
    /// product by that sum, and a caller walking suffixes of one point
    /// keeps the sum with a subtraction per step.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn dot_coeffs(&self, coeffs: &[i64], y: &[Fp256], y_sum: &Fp256) -> Fp256;

    /// Encodes a real value at fixed-point scale power `scale_pow`, or
    /// `None` if it is not finite or too large for the field.
    fn try_encode(&self, x: f64, scale_pow: u32) -> Option<Fp256>;

    /// [`try_encode`](Algebra::try_encode) for values the caller knows to
    /// be encodable.
    ///
    /// # Panics
    ///
    /// Panics where `try_encode` returns `None`.
    fn encode(&self, x: f64, scale_pow: u32) -> Fp256 {
        self.try_encode(x, scale_pow)
            .unwrap_or_else(|| panic!("cannot encode {x} at scale power {scale_pow}"))
    }

    /// Encodes a model coefficient at scale power `scale_pow` as the
    /// fixed-point integer [`dot_coeffs`](Algebra::dot_coeffs) takes, or
    /// `None` if it is not finite or does not fit 63 bits and a sign.
    fn encode_coeff(&self, x: f64, scale_pow: u32) -> Option<i64>;

    /// Decodes an element known to sit at scale power `scale_pow` back to a
    /// real value.
    fn decode(&self, e: &Fp256, scale_pow: u32) -> f64;

    /// Fractional bits per scale power: with the field's size, this bounds
    /// the scale power a protocol may reach.
    fn fixed_point_bits(&self) -> u32;

    /// Encodes an exact small integer (scale power 0); integers survive
    /// multiplication without scale drift, which is what the protocols use
    /// for random amplifiers such as `r_a`.
    fn encode_int(&self, v: i64) -> Fp256;

    /// Draws an evaluation point: a uniform nonzero element.
    fn random_point<R: Rng + ?Sized>(&self, rng: &mut R) -> Fp256;

    /// Draws a masking coefficient, or a disguise value for the decoy
    /// positions of an OMPE point cloud: a uniform element, so the
    /// hiding is information-theoretic.
    fn random_mask<R: Rng + ?Sized>(&self, rng: &mut R) -> Fp256;
}

/// Fixed-point values in the 256-bit prime field.
///
/// `frac_bits` is the number of fractional bits per scale power; 16 is a
/// good default (similarity evaluation multiplies up to scale power 12,
/// i.e. 192 bits, comfortably inside the 255-bit balanced range).
///
/// # Examples
///
/// ```
/// use ppcs_math::{Algebra, FixedFpAlgebra};
///
/// let alg = FixedFpAlgebra::new(16);
/// let a = alg.encode(1.5, 1);
/// let b = alg.encode(-2.25, 1);
/// let prod = alg.mul(&a, &b); // now at scale power 2
/// assert!((alg.decode(&prod, 2) - (-3.375)).abs() < 1e-4);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FixedFpAlgebra {
    frac_bits: u32,
}

impl FixedFpAlgebra {
    /// Creates the algebra with `frac_bits` fractional bits per scale
    /// power.
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits` is 0 or greater than 20 (beyond which the
    /// degree-4 similarity polynomial would overflow the balanced range).
    pub fn new(frac_bits: u32) -> Self {
        assert!(
            (1..=20).contains(&frac_bits),
            "frac_bits must be in 1..=20, got {frac_bits}"
        );
        Self { frac_bits }
    }

    /// The number of fractional bits per scale power.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Bits of the balanced range `|v| < p/2` a decoded value must stay
    /// inside.
    pub const BALANCED_BITS: u32 = 255;

    /// The largest scale, in bits, [`encode`](Algebra::encode) accepts:
    /// the 55 bits it leaves below the balanced range are the headroom
    /// for the value's own magnitude and an integer amplifier.
    pub const MAX_SCALE_BITS: u32 = 200;
}

impl Default for FixedFpAlgebra {
    fn default() -> Self {
        Self::new(16)
    }
}

impl Algebra for FixedFpAlgebra {
    #[inline]
    fn zero(&self) -> Fp256 {
        Fp256::ZERO
    }
    #[inline]
    fn one(&self) -> Fp256 {
        Fp256::ONE
    }
    #[inline]
    fn add(&self, a: &Fp256, b: &Fp256) -> Fp256 {
        *a + *b
    }
    #[inline]
    fn sub(&self, a: &Fp256, b: &Fp256) -> Fp256 {
        *a - *b
    }
    #[inline]
    fn mul(&self, a: &Fp256, b: &Fp256) -> Fp256 {
        *a * *b
    }
    #[inline]
    fn neg(&self, a: &Fp256) -> Fp256 {
        -*a
    }
    #[inline]
    fn inv(&self, a: &Fp256) -> Option<Fp256> {
        a.inv()
    }

    fn batch_inv(&self, elems: &[Fp256]) -> Option<Vec<Fp256>> {
        let mut out = elems.to_vec();
        if Fp256::batch_inv(&mut out) {
            Some(out)
        } else {
            None
        }
    }
    #[inline]
    fn is_zero(&self, a: &Fp256) -> bool {
        a.is_zero()
    }

    fn mul_many(&self, a: &mut [Fp256], b: &[Fp256]) {
        crate::simd::mul_many(a, b);
    }

    fn eval_poly_many(&self, coeffs: &[Fp256], xs: &[Fp256]) -> Vec<Fp256> {
        let mut out = vec![Fp256::ZERO; xs.len()];
        crate::simd::eval_cloud_many(coeffs, xs, &mut out);
        out
    }

    fn dot(&self, a: &[Fp256], b: impl IntoIterator<Item = Fp256>) -> Fp256 {
        Fp256::dot(a, b)
    }

    fn dot_coeffs(&self, coeffs: &[i64], y: &[Fp256], y_sum: &Fp256) -> Fp256 {
        Fp256::dot_narrow(coeffs, y, *y_sum)
    }

    fn try_encode(&self, x: f64, scale_pow: u32) -> Option<Fp256> {
        let scale = self.frac_bits * scale_pow;
        assert!(
            scale <= Self::MAX_SCALE_BITS,
            "fixed-point scale 2^{scale} leaves no headroom below the modulus"
        );
        // An f64 mantissa carries 53 bits; shifting by more than ~60 bits
        // adds no precision, so do the rounding at a safe shift and move
        // the rest into the field as an exact power of two.
        let safe_shift = scale.min(60);
        let scaled = x * 2f64.powi(safe_shift as i32);
        // False for a NaN or an infinity too.
        (scaled.abs() < 1.6e38).then(|| {
            let mut e = Fp256::from_i128(scaled.round() as i128);
            for _ in safe_shift..scale {
                e = e.double();
            }
            e
        })
    }

    fn encode_coeff(&self, x: f64, scale_pow: u32) -> Option<i64> {
        let scaled = x * 2f64.powi((self.frac_bits * scale_pow) as i32);
        // False for a NaN too; below 2^63 the rounded cast is exact.
        (scaled.abs() < 2f64.powi(63)).then(|| scaled.round() as i64)
    }

    fn decode(&self, e: &Fp256, scale_pow: u32) -> f64 {
        let scale = (self.frac_bits * scale_pow) as i32;
        match e.to_i128() {
            Some(v) => v as f64 / 2f64.powi(scale),
            None => e.to_f64_approx() / 2f64.powi(scale),
        }
    }

    fn fixed_point_bits(&self) -> u32 {
        self.frac_bits
    }

    fn encode_int(&self, v: i64) -> Fp256 {
        Fp256::from_i64(v)
    }

    fn random_point<R: Rng + ?Sized>(&self, rng: &mut R) -> Fp256 {
        Fp256::random_nonzero(rng)
    }

    fn random_mask<R: Rng + ?Sized>(&self, rng: &mut R) -> Fp256 {
        Fp256::random(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_encode_decode_roundtrip() {
        let alg = FixedFpAlgebra::new(16);
        for &x in &[0.0, 1.0, -1.0, 0.5, -std::f64::consts::PI, 123.456] {
            let e = alg.encode(x, 1);
            assert!((alg.decode(&e, 1) - x).abs() < 1e-4, "x = {x}");
        }
    }

    #[test]
    fn fixed_encode_roundtrips_at_high_scales() {
        // Scale powers past the i128 range (f·k > 127 bits) must still
        // round-trip — the similarity polynomial encodes constants at
        // scale 8 and decodes products at scale 12.
        let alg = FixedFpAlgebra::new(16);
        for scale_pow in [7u32, 8, 10, 12] {
            for &x in &[1.0, -1.0, 0.001218, 512.75, -3.25e4] {
                let e = alg.encode(x, scale_pow);
                let back = alg.decode(&e, scale_pow);
                assert!(
                    (back - x).abs() < 1e-4 * x.abs().max(1.0),
                    "x = {x} at scale {scale_pow}: got {back}"
                );
            }
        }
        // Mixed-scale product: encode(a, 8)·encode(b, 4) decodes at 12.
        let a = alg.encode(3.5, 8);
        let b = alg.encode(-2.0, 4);
        let prod = alg.mul(&a, &b);
        assert!((alg.decode(&prod, 12) + 7.0).abs() < 1e-3);
    }

    #[test]
    fn fixed_products_accumulate_scale() {
        let alg = FixedFpAlgebra::new(16);
        let a = alg.encode(1.5, 1);
        let b = alg.encode(2.5, 1);
        let c = alg.encode(-0.75, 1);
        let abc = alg.mul(&alg.mul(&a, &b), &c);
        assert!((alg.decode(&abc, 3) - (1.5 * 2.5 * -0.75)).abs() < 1e-3);
    }

    #[test]
    fn fixed_integer_amplifier_is_exactly_invertible() {
        let alg = FixedFpAlgebra::new(16);
        let ra = alg.encode_int(918273);
        let x = alg.encode(-0.3321, 2);
        let amplified = alg.mul(&ra, &x);
        let recovered = alg.mul(&alg.inv(&ra).unwrap(), &amplified);
        assert_eq!(recovered, x);
    }

    #[test]
    fn random_points_are_nonzero() {
        let alg = FixedFpAlgebra::new(16);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(!alg.is_zero(&alg.random_point(&mut rng)));
        }
    }

    #[test]
    #[should_panic(expected = "frac_bits")]
    fn fixed_rejects_oversized_frac_bits() {
        let _ = FixedFpAlgebra::new(32);
    }

    #[test]
    fn batch_kernels_agree_with_scalar_ops_on_both_backends() {
        let mut rng = StdRng::seed_from_u64(8);
        let fixed = FixedFpAlgebra::new(16);
        let a: Vec<Fp256> = (0..13).map(|_| fixed.random_mask(&mut rng)).collect();
        let b: Vec<Fp256> = (0..13).map(|_| fixed.random_mask(&mut rng)).collect();
        let mut prod = a.clone();
        fixed.mul_many(&mut prod, &b);
        for ((x, y), p) in a.iter().zip(&b).zip(&prod) {
            assert_eq!(fixed.mul(x, y), *p);
        }
        let coeffs: Vec<Fp256> = (0..6).map(|_| fixed.random_mask(&mut rng)).collect();
        let evals = fixed.eval_poly_many(&coeffs, &a);
        for (x, e) in a.iter().zip(&evals) {
            let mut acc = fixed.zero();
            for c in coeffs.iter().rev() {
                acc = fixed.add(&fixed.mul(&acc, x), c);
            }
            assert_eq!(acc, *e);
        }
    }

    #[test]
    fn batch_inv_agrees_with_inv_on_both_backends() {
        let mut rng = StdRng::seed_from_u64(3);
        let fixed = FixedFpAlgebra::new(16);
        let elems: Vec<Fp256> = (0..25).map(|_| fixed.random_point(&mut rng)).collect();
        let batched = fixed.batch_inv(&elems).unwrap();
        for (e, b) in elems.iter().zip(&batched) {
            assert_eq!(fixed.inv(e).unwrap(), *b);
        }
        assert!(fixed
            .batch_inv(&[Fp256::from_u64(2), Fp256::ZERO])
            .is_none());
    }
}
