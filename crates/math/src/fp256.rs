//! A 256-bit prime field over 4 limbs, stored in canonical form.
//!
//! The modulus is the secp256k1 base-field prime
//! `p = 2^256 - 2^32 - 977`, chosen because it is large enough to hold the
//! fixed-point dynamic range of every polynomial the ppcs protocols
//! evaluate (degree-4 similarity polynomials at 16 fractional bits stay
//! far below `p/2`) and because its special form makes the implementation
//! easy to cross-check against well-known test vectors.
//!
//! An element is stored as its value in `[0, p)`. The sparse form of `p`
//! gives every wide value a cheap reduction, `fold`: `2^256 ≡ 2^32 +
//! 977`, so the top half of a product is worth a 33-bit multiple of
//! itself in the bottom half. A product is a 4×4-limb schoolbook sum
//! followed by one `fold`, and encoding, decoding and drawing an element
//! cost no product at all. Inversion is Fermat's, through an addition
//! chain; the `num-bigint` crate is used only in tests as a reference
//! implementation.

use core::fmt;
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use rand::Rng;

/// The secp256k1 prime `p = 2^256 - 2^32 - 977`, little-endian limbs.
pub const MODULUS: [u64; 4] = [
    0xFFFF_FFFE_FFFF_FC2F,
    0xFFFF_FFFF_FFFF_FFFF,
    0xFFFF_FFFF_FFFF_FFFF,
    0xFFFF_FFFF_FFFF_FFFF,
];

/// `2^256 mod p = 2^32 + 977`: what one unit of a fifth limb is worth.
const FOLD: u64 = (1 << 32) + 977;

/// `(p - 1) / 2`, the canonical boundary between "positive" and "negative"
/// residues in the balanced (signed) interpretation of the field.
const HALF_MODULUS: [u64; 4] = [
    0xFFFF_FFFF_7FFF_FE17,
    0xFFFF_FFFF_FFFF_FFFF,
    0xFFFF_FFFF_FFFF_FFFF,
    0x7FFF_FFFF_FFFF_FFFF,
];

const fn const_sub(a: [u64; 4], b: [u64; 4]) -> [u64; 4] {
    let mut r = [0u64; 4];
    let mut borrow = 0u64;
    let mut i = 0;
    while i < 4 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        r[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
        i += 1;
    }
    r
}

#[inline(always)]
fn mac(acc: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = (acc as u128) + (a as u128) * (b as u128) + (carry as u128);
    (t as u64, (t >> 64) as u64)
}

#[inline(always)]
fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = (a as u128) + (b as u128) + (carry as u128);
    (t as u64, (t >> 64) as u64)
}

#[inline(always)]
fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128)
        .wrapping_sub(b as u128)
        .wrapping_sub(borrow as u128);
    (t as u64, ((t >> 64) as u64) & 1)
}

#[inline]
fn geq(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// `r += v` over four limbs; returns the carry out of the top one.
#[inline(always)]
fn add_limbs(r: &mut [u64; 4], v: [u64; 4]) -> u64 {
    let mut carry = 0u64;
    for (ri, vi) in r.iter_mut().zip(v) {
        (*ri, carry) = adc(*ri, vi, carry);
    }
    carry
}

/// `t += m · row · 2^{64i}`, the carry rippling up to the ninth limb.
#[inline(always)]
fn add_row(t: &mut [u64; 9], i: usize, m: u64, row: &[u64; 4]) {
    let mut carry = 0u64;
    for (j, r) in row.iter().enumerate() {
        (t[i + j], carry) = mac(t[i + j], m, *r, carry);
    }
    for limb in &mut t[i + 4..] {
        (*limb, carry) = adc(*limb, carry, 0);
    }
}

/// `lo + hi · 2^256 mod p`, by the sparse-prime fold `2^256 ≡ 2^32 + 977`,
/// for any `hi < 2^288`: the top half of a product, or the top of either
/// dot product's sum.
///
/// The first pass adds `hi · FOLD` into `lo`; what it carries past
/// `2^256`, with the fifth limb's share, is `over < 2^66`. The second adds
/// `over · FOLD < 2^99`, which carries at most one unit of `2^256` out,
/// worth `FOLD` again — and a sum that carried has wrapped to below
/// `2^99`, so adding that cannot carry; one compare-and-subtract then
/// lands in `[0, p)`. The only data-dependent branch is that last one.
#[inline(always)]
fn fold(mut lo: [u64; 4], hi: [u64; 5]) -> Fp256 {
    let mut carry = 0u64;
    for (l, h) in lo.iter_mut().zip(hi) {
        (*l, carry) = mac(*l, h, FOLD, carry);
    }
    let over = (hi[4] as u128) * (FOLD as u128) + carry as u128;
    let w = over * FOLD as u128;
    let wrapped = add_limbs(&mut lo, [w as u64, (w >> 64) as u64, 0, 0]);
    add_limbs(&mut lo, [wrapped * FOLD, 0, 0, 0]);
    if geq(&lo, &MODULUS) {
        lo = const_sub(lo, MODULUS);
    }
    Fp256 { limbs: lo }
}

/// An element of the prime field `GF(p)` with `p = 2^256 - 2^32 - 977`,
/// stored as its canonical value in `[0, p)`.
///
/// # Examples
///
/// ```
/// use ppcs_math::Fp256;
///
/// let a = Fp256::from_u64(7);
/// let b = Fp256::from_i64(-3);
/// assert_eq!(a + b, Fp256::from_u64(4));
/// assert_eq!((a * b).to_i128(), Some(-21));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp256 {
    /// The value in `[0, p)`, little-endian limbs.
    limbs: [u64; 4],
}

impl Fp256 {
    /// The additive identity.
    pub const ZERO: Fp256 = Fp256 { limbs: [0; 4] };

    /// The multiplicative identity.
    pub const ONE: Fp256 = Fp256 {
        limbs: [1, 0, 0, 0],
    };

    /// The most terms [`Fp256::dot_narrow`] and [`Fp256::dot`] accept:
    /// up to it the top limb of either sum — the sixth of the narrow one,
    /// the ninth of the lazy one — stays below `2^32` and cannot overflow.
    pub const MAX_DOT_TERMS: usize = u32::MAX as usize;

    /// Builds a field element from a non-negative integer.
    #[inline]
    pub fn from_u64(v: u64) -> Self {
        Self::from_raw([v, 0, 0, 0])
    }

    /// Builds a field element from a signed integer, mapping negative
    /// values to `p - |v|`.
    #[inline]
    pub fn from_i64(v: i64) -> Self {
        if v >= 0 {
            Self::from_u64(v as u64)
        } else {
            -Self::from_u64(v.unsigned_abs())
        }
    }

    /// Builds a field element from a signed 128-bit integer.
    pub fn from_i128(v: i128) -> Self {
        let mag = v.unsigned_abs();
        let raw = [mag as u64, (mag >> 64) as u64, 0, 0];
        let e = Self::from_raw(raw);
        if v < 0 {
            -e
        } else {
            e
        }
    }

    /// Builds a field element from canonical little-endian limbs.
    ///
    /// Values `>= p` are reduced.
    pub fn from_raw(mut limbs: [u64; 4]) -> Self {
        if geq(&limbs, &MODULUS) {
            limbs = const_sub(limbs, MODULUS);
        }
        Fp256 { limbs }
    }

    /// Returns the canonical little-endian limbs, in `[0, p)`.
    #[inline]
    pub fn to_raw(self) -> [u64; 4] {
        self.limbs
    }

    /// Serializes to 32 little-endian bytes (canonical form).
    pub fn to_bytes(self) -> [u8; 32] {
        let raw = self.to_raw();
        let mut out = [0u8; 32];
        for (i, limb) in raw.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// Deserializes from 32 little-endian bytes, reducing mod `p`.
    pub fn from_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            *limb = u64::from_le_bytes(b);
        }
        Self::from_raw(limbs)
    }

    /// Deserializes from 32 little-endian bytes, rejecting non-canonical
    /// encodings: returns `None` for values `>= p` instead of silently
    /// reducing them.
    ///
    /// Wire-level decoding must use this form — a malleable encoding
    /// (`x` and `x + p` decoding to the same element) would let two
    /// byte-distinct transcripts replay to identical sessions, breaking
    /// transcript byte-comparison.
    pub fn from_bytes_canonical(bytes: &[u8; 32]) -> Option<Self> {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            *limb = u64::from_le_bytes(b);
        }
        if geq(&limbs, &MODULUS) {
            return None;
        }
        Some(Fp256 { limbs })
    }

    /// Interprets the element as a signed integer in the balanced range
    /// `(-p/2, p/2]` and returns it if it fits in an `i128`.
    ///
    /// This is how fixed-point decoding recovers signed real values.
    pub fn to_i128(self) -> Option<i128> {
        let raw = self.to_raw();
        if geq(&HALF_MODULUS, &raw) {
            // Non-negative branch: fits iff the top limbs are zero and
            // bit 127 is clear.
            if raw[2] == 0 && raw[3] == 0 && raw[1] >> 63 == 0 {
                Some(((raw[1] as u128) << 64 | raw[0] as u128) as i128)
            } else {
                None
            }
        } else {
            let neg = const_sub(MODULUS, raw);
            if neg[2] == 0 && neg[3] == 0 && neg[1] >> 63 == 0 {
                Some(-(((neg[1] as u128) << 64 | neg[0] as u128) as i128))
            } else {
                None
            }
        }
    }

    /// Returns the balanced-signed magnitude as an `f64` approximation,
    /// even when the value does not fit in an `i128`.
    pub fn to_f64_approx(self) -> f64 {
        let raw = self.to_raw();
        let (sign, mag) = if geq(&HALF_MODULUS, &raw) {
            (1.0, raw)
        } else {
            (-1.0, const_sub(MODULUS, raw))
        };
        let mut acc = 0.0f64;
        for i in (0..4).rev() {
            acc = acc * 1.8446744073709552e19 + mag[i] as f64;
        }
        sign * acc
    }

    /// Returns `true` if this is the additive identity.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.limbs == [0; 4]
    }

    /// Draws a uniformly random field element.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Rejection sampling keeps the distribution exactly uniform; the
        // gap between 2^256 and p is ~2^-224 so a retry is essentially
        // impossible in practice.
        loop {
            let limbs = [rng.gen(), rng.gen(), rng.gen(), rng.gen()];
            if !geq(&limbs, &MODULUS) {
                return Fp256 { limbs };
            }
        }
    }

    /// Fills a slice with uniformly random field elements: one
    /// [`Fp256::random`] draw per slot, so a seeded fill consumes the
    /// same RNG stream as the equivalent sequence of draws.
    pub fn random_fill<R: Rng + ?Sized>(rng: &mut R, out: &mut [Fp256]) {
        for slot in out.iter_mut() {
            *slot = Self::random(rng);
        }
    }

    /// Draws a uniformly random *nonzero* field element.
    pub fn random_nonzero<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let e = Self::random(rng);
            if !e.is_zero() {
                return e;
            }
        }
    }

    /// Squares the element: the six cross products `a_i · a_j` (`i < j`)
    /// once, doubled by a one-bit shift, plus the four squares on the
    /// diagonal — ten word products where a product takes sixteen.
    #[inline]
    pub fn square(self) -> Self {
        let a = self.limbs;
        let mut t = [0u64; 8];
        for i in 0..3 {
            let mut carry = 0u64;
            for j in i + 1..4 {
                (t[i + j], carry) = mac(t[i + j], a[i], a[j], carry);
            }
            t[i + 4] = carry;
        }
        let mut shifted_out = 0u64;
        for limb in &mut t {
            (*limb, shifted_out) = (*limb << 1 | shifted_out, *limb >> 63);
        }
        let mut carry = 0u64;
        for (i, ai) in a.into_iter().enumerate() {
            let (lo, hi) = mac(0, ai, ai, 0);
            (t[2 * i], carry) = adc(t[2 * i], lo, carry);
            (t[2 * i + 1], carry) = adc(t[2 * i + 1], hi, carry);
        }
        let [t0, t1, t2, t3, t4, t5, t6, t7] = t;
        fold([t0, t1, t2, t3], [t4, t5, t6, t7, 0])
    }

    /// The product by a machine word: four word products into five limbs,
    /// then one `fold` — a quarter of the word products of a full
    /// product. Horner's rule at a public abscissa `x ≤ N` runs on it.
    #[inline]
    pub fn mul_u64(self, k: u64) -> Self {
        let mut lo = [0u64; 4];
        let mut carry = 0u64;
        for (l, a) in lo.iter_mut().zip(self.limbs) {
            (*l, carry) = mac(0, a, k, carry);
        }
        fold(lo, [carry, 0, 0, 0, 0])
    }

    /// `(⌊p / k⌋, p mod k)` for `k ≥ 2`, by long division of the
    /// modulus' limbs: the two halves of the inverse-table recurrence.
    pub(crate) fn modulus_div_rem(k: u64) -> (Self, u64) {
        let mut quotient = [0u64; 4];
        let mut rem = 0u128;
        for (q, limb) in quotient.iter_mut().zip(MODULUS).rev() {
            let cur = rem << 64 | limb as u128;
            *q = (cur / k as u128) as u64;
            rem = cur % k as u128;
        }
        (Self::from_raw(quotient), rem as u64)
    }

    /// Raises the element to a 256-bit little-endian exponent.
    pub fn pow(self, exp: &[u64; 4]) -> Self {
        let mut result = Fp256::ONE;
        let mut base = self;
        for &limb in exp.iter() {
            let mut l = limb;
            for _ in 0..64 {
                if l & 1 == 1 {
                    result *= base;
                }
                base = base.square();
                l >>= 1;
            }
        }
        result
    }

    /// Computes the multiplicative inverse, or `None` for zero.
    ///
    /// Uses Fermat's little theorem, `a^{p-2} = a^{-1} (mod p)`, through
    /// a fixed addition chain for this `p − 2`: 255 squarings and 15
    /// products, where square-and-multiply over `p − 2` takes about 505
    /// products. The operation sequence does not depend on the element.
    pub fn inv(self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        // `p − 2` in binary is 223 ones, a zero, 22 ones, then
        // `0000101101`. `xk` is `a^(2^k − 1)`, the exponent of `k` ones;
        // `append(x, n, y) = x^(2^n) · y` shifts `x`'s exponent left by
        // `n` bits and adds `y`'s into them.
        let a = self;
        let append = |x: Fp256, n: u32, y: Fp256| {
            let mut x = x;
            for _ in 0..n {
                x = x.square();
            }
            x * y
        };
        let x2 = append(a, 1, a);
        let x3 = append(x2, 1, a);
        let x6 = append(x3, 3, x3);
        let x9 = append(x6, 3, x3);
        let x11 = append(x9, 2, x2);
        let x22 = append(x11, 11, x11);
        let x44 = append(x22, 22, x22);
        let x88 = append(x44, 44, x44);
        let x176 = append(x88, 88, x88);
        let x220 = append(x176, 44, x44);
        let x223 = append(x220, 3, x3);
        let t = append(x223, 23, x22);
        let t = append(t, 5, a);
        let t = append(t, 3, x2);
        Some(append(t, 2, a))
    }

    /// Doubles the element.
    #[inline]
    pub fn double(self) -> Self {
        self + self
    }

    /// `Σ c_k · y_k` for signed 64-bit integers `c_k` — the narrow dot
    /// product a fixed-point model coefficient needs: four word multiplies
    /// per term, where a field product takes sixteen. `y_sum` must be
    /// `Σ y_k`, which a caller walking suffixes of one point keeps with a
    /// subtraction per step.
    ///
    /// Each `c` is biased to the unsigned `c + 2^63` and the 1×4-limb
    /// products are summed into six limbs; the result is
    /// `fold(p · 2^64 + Σ (c_k + 2^63) · y_k − 2^63 · y_sum)`. With at
    /// most [`MAX_DOT_TERMS`](Fp256::MAX_DOT_TERMS) terms the sum stays
    /// below `2^320 + 2^352`, so the sixth limb cannot overflow, and
    /// `2^63 · y_sum < 2^319 < p · 2^64`, so the difference cannot
    /// borrow.
    ///
    /// The sign and value of a coefficient reach no branch and no index:
    /// the bias is an XOR, everything after it is multiply-and-add (the
    /// closing `fold` compares the *sum* with `p`, as a product does).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn dot_narrow(coeffs: &[i64], y: &[Fp256], y_sum: Fp256) -> Fp256 {
        assert_eq!(coeffs.len(), y.len(), "dot product operand length mismatch");
        debug_assert!(y.len() <= Self::MAX_DOT_TERMS, "dot product too long");
        debug_assert_eq!(y.iter().fold(Fp256::ZERO, |s, e| s + *e), y_sum);
        // p · 2^64 ≡ 0 keeps the subtraction below from borrowing.
        let [p0, p1, p2, p3] = MODULUS;
        let mut acc = [0, p0, p1, p2, p3, 0];
        for (c, e) in coeffs.iter().zip(y) {
            let biased = (*c as u64) ^ (1 << 63);
            let mut carry = 0u64;
            for (limb, y_i) in acc.iter_mut().zip(e.limbs) {
                (*limb, carry) = mac(*limb, biased, y_i, carry);
            }
            (acc[4], carry) = adc(acc[4], carry, 0);
            acc[5] += carry;
        }
        // Minus 2^63 · y_sum: its four limbs, one limb up and one bit down.
        let s = y_sum.limbs;
        let mut borrow = 0u64;
        (acc[0], borrow) = sbb(acc[0], s[0] << 63, borrow);
        for i in 1..4 {
            (acc[i], borrow) = sbb(acc[i], s[i] << 63 | s[i - 1] >> 1, borrow);
        }
        (acc[4], borrow) = sbb(acc[4], s[3] >> 1, borrow);
        acc[5] -= borrow;
        let [a0, a1, a2, a3, a4, a5] = acc;
        fold([a0, a1, a2, a3], [a4, a5, 0, 0, 0])
    }

    /// `Σ a_k · b_k` with one reduction for the whole sum: each 4×4-limb
    /// schoolbook product is added into nine limbs, then one `fold`
    /// brings the top five down. `p` has no headroom below `2^256`, so a
    /// sum of even two products can pass `2^512`: the ninth limb is
    /// required. With at most [`MAX_DOT_TERMS`](Fp256::MAX_DOT_TERMS)
    /// terms the sum stays below `2^544`, so the ninth limb stays below
    /// `2^32`.
    ///
    /// The operands are paired as [`Iterator::zip`] pairs them; `b` is an
    /// iterator so that a caller computing its terms one at a time needs
    /// no buffer for them.
    pub fn dot(a: &[Fp256], b: impl IntoIterator<Item = Fp256>) -> Fp256 {
        debug_assert!(a.len() <= Self::MAX_DOT_TERMS, "dot product too long");
        let mut t = [0u64; 9];
        for (x, y) in a.iter().zip(b) {
            for i in 0..4 {
                add_row(&mut t, i, x.limbs[i], &y.limbs);
            }
        }
        let [t0, t1, t2, t3, t4, t5, t6, t7, t8] = t;
        fold([t0, t1, t2, t3], [t4, t5, t6, t7, t8])
    }

    /// Inverts every element in place with Montgomery's batch trick:
    /// one Fermat inversion plus three multiplications per element,
    /// instead of one ~256-squaring inversion per element.
    ///
    /// Returns `false` and leaves `elems` untouched if any element is
    /// zero (a batch containing zero has no well-defined inverse).
    pub fn batch_inv(elems: &mut [Fp256]) -> bool {
        let mut scratch = Vec::new();
        Self::batch_inv_with_scratch(elems, &mut scratch)
    }

    /// [`batch_inv`](Fp256::batch_inv) with a caller-owned scratch buffer,
    /// so hot loops that invert round after round pay the prefix-product
    /// allocation once per session instead of once per call.
    ///
    /// `scratch` is cleared and refilled; its contents on return are an
    /// implementation detail.
    pub fn batch_inv_with_scratch(elems: &mut [Fp256], scratch: &mut Vec<Fp256>) -> bool {
        if elems.iter().any(|e| e.is_zero()) {
            return false;
        }
        // scratch[i] = e_0 · e_1 · … · e_i
        scratch.clear();
        scratch.reserve(elems.len());
        let mut acc = Fp256::ONE;
        for e in elems.iter() {
            acc *= *e;
            scratch.push(acc);
        }
        let Some(mut suffix_inv) = acc.inv() else {
            return false;
        };
        // Walking backwards, suffix_inv = (e_0 · … · e_i)^{-1}; peeling
        // off scratch[i-1] isolates e_i^{-1}.
        for i in (0..elems.len()).rev() {
            let inv_i = if i == 0 {
                suffix_inv
            } else {
                suffix_inv * scratch[i - 1]
            };
            suffix_inv *= elems[i];
            elems[i] = inv_i;
        }
        true
    }
}

impl Add for Fp256 {
    type Output = Fp256;
    #[inline]
    #[allow(clippy::needless_range_loop)] // parallel limb walk with carry
    fn add(self, rhs: Fp256) -> Fp256 {
        let mut r = [0u64; 4];
        let mut carry = 0u64;
        for i in 0..4 {
            let (lo, c) = adc(self.limbs[i], rhs.limbs[i], carry);
            r[i] = lo;
            carry = c;
        }
        if carry != 0 || geq(&r, &MODULUS) {
            r = const_sub(r, MODULUS);
        }
        Fp256 { limbs: r }
    }
}

impl Sub for Fp256 {
    type Output = Fp256;
    #[inline]
    #[allow(clippy::needless_range_loop)] // parallel limb walk with borrow
    fn sub(self, rhs: Fp256) -> Fp256 {
        let mut r = [0u64; 4];
        let mut borrow = 0u64;
        for i in 0..4 {
            let (lo, b) = sbb(self.limbs[i], rhs.limbs[i], borrow);
            r[i] = lo;
            borrow = b;
        }
        if borrow != 0 {
            let mut carry = 0u64;
            for i in 0..4 {
                let (lo, c) = adc(r[i], MODULUS[i], carry);
                r[i] = lo;
                carry = c;
            }
        }
        Fp256 { limbs: r }
    }
}

impl Mul for Fp256 {
    type Output = Fp256;
    /// The 4×4-limb schoolbook product, reduced by one `fold`.
    #[inline]
    fn mul(self, rhs: Fp256) -> Fp256 {
        let mut t = [0u64; 8];
        for (i, a) in self.limbs.into_iter().enumerate() {
            let mut carry = 0u64;
            for (j, b) in rhs.limbs.into_iter().enumerate() {
                (t[i + j], carry) = mac(t[i + j], a, b, carry);
            }
            t[i + 4] = carry;
        }
        let [t0, t1, t2, t3, t4, t5, t6, t7] = t;
        fold([t0, t1, t2, t3], [t4, t5, t6, t7, 0])
    }
}

impl Neg for Fp256 {
    type Output = Fp256;
    #[inline]
    fn neg(self) -> Fp256 {
        Fp256::ZERO - self
    }
}

impl AddAssign for Fp256 {
    #[inline]
    fn add_assign(&mut self, rhs: Fp256) {
        *self = *self + rhs;
    }
}

impl SubAssign for Fp256 {
    #[inline]
    fn sub_assign(&mut self, rhs: Fp256) {
        *self = *self - rhs;
    }
}

impl MulAssign for Fp256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Fp256) {
        *self = *self * rhs;
    }
}

impl fmt::Debug for Fp256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let raw = self.to_raw();
        write!(
            f,
            "Fp256(0x{:016x}{:016x}{:016x}{:016x})",
            raw[3], raw[2], raw[1], raw[0]
        )
    }
}

impl fmt::Display for Fp256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.to_i128() {
            Some(v) => write!(f, "{v}"),
            None => fmt::Debug::fmt(self, f),
        }
    }
}

impl From<u64> for Fp256 {
    fn from(v: u64) -> Self {
        Fp256::from_u64(v)
    }
}

impl From<i64> for Fp256 {
    fn from(v: i64) -> Self {
        Fp256::from_i64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_bigint::BigUint;
    use num_traits::Zero;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn big(limbs: &[u64]) -> BigUint {
        let bytes: Vec<u8> = limbs.iter().flat_map(|l| l.to_le_bytes()).collect();
        BigUint::from_bytes_le(&bytes)
    }

    /// Both dot products of `y` — with `coeffs` and with `b` — against
    /// `num-bigint` and against the term-by-term sum of products.
    fn check_dots(coeffs: &[i64], y: &[Fp256], b: &[Fp256]) {
        let p = big(&MODULUS);
        let val = |e: &Fp256| big(&e.to_raw());
        let y_sum = y.iter().fold(Fp256::ZERO, |s, e| s + *e);

        let narrow = Fp256::dot_narrow(coeffs, y, y_sum);
        let want = coeffs.iter().zip(y).fold(BigUint::zero(), |acc, (c, e)| {
            let c_mod_p = if *c < 0 {
                &p - BigUint::from(c.unsigned_abs())
            } else {
                BigUint::from(c.unsigned_abs())
            };
            (acc + c_mod_p * val(e)) % &p
        });
        assert_eq!(val(&narrow), want);
        let by_terms = coeffs.iter().zip(y).map(|(c, e)| Fp256::from_i64(*c) * *e);
        assert_eq!(narrow, by_terms.fold(Fp256::ZERO, |s, t| s + t));

        let lazy = Fp256::dot(y, b.iter().copied());
        let want = y
            .iter()
            .zip(b)
            .fold(BigUint::zero(), |acc, (u, v)| acc + val(u) * val(v));
        assert_eq!(val(&lazy), want % &p);
        let by_terms = y.iter().zip(b).map(|(u, v)| *u * *v);
        assert_eq!(lazy, by_terms.fold(Fp256::ZERO, |s, t| s + t));
    }

    fn from_big(v: &BigUint) -> Fp256 {
        let mut bytes = v.to_bytes_le();
        bytes.resize(32, 0);
        Fp256::from_bytes_canonical(&bytes.try_into().expect("32 bytes")).expect("below p")
    }

    /// `2^255` and an odd `b` whose product is `2^256·k + 2^255` with
    /// `hi · FOLD` landing just below `2^256 + 2^255`: the first pass of
    /// the fold leaves `2^256 − δ` with `0 < δ < FOLD`, so the second
    /// pass carries out of the fourth limb.
    fn second_fold_factors() -> (Fp256, Fp256) {
        let hi = (BigUint::from(3u8) << 255u32) / BigUint::from(FOLD);
        let b = hi * BigUint::from(2u8) + BigUint::from(1u8);
        (Fp256::from_raw([0, 0, 0, 1 << 63]), from_big(&b))
    }

    /// A field element for the edge properties: from limbs biased to 0,
    /// 1 and `u64::MAX` (reduced mod `p`), or one of `p − 1`, `2^255` and
    /// the two factors whose product's second fold carries.
    fn edge_elem(raw: [u64; 4], kinds: [u8; 4], shape: u8) -> Fp256 {
        let (a, b) = second_fold_factors();
        match shape {
            0 => -Fp256::ONE,
            1 => a,
            2 => b,
            _ => Fp256::from_raw(edge_limbs(raw, kinds)),
        }
    }

    /// Each limb is 0, 1, `u64::MAX` or the drawn one, by its kind.
    fn edge_limbs(raw: [u64; 4], kinds: [u8; 4]) -> [u64; 4] {
        std::array::from_fn(|i| match kinds[i] {
            0 => 0,
            1 => 1,
            2 => u64::MAX,
            _ => raw[i],
        })
    }

    /// `len` elements: uniform, every one `p − 1`, or all equal.
    fn elems(shape: u8, len: usize, rng: &mut StdRng) -> Vec<Fp256> {
        let one = match shape {
            0 => return (0..len).map(|_| Fp256::random(rng)).collect(),
            1 => -Fp256::ONE,
            _ => Fp256::random(rng),
        };
        vec![one; len]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 6 } else { 512 }))]

        #[test]
        fn dot_kernels_match_bigint_and_the_term_by_term_sum(
            len in 0usize..=64,
            y_shape in 0u8..3,
            b_shape in 0u8..3,
            c_shape in 0u8..6,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let y = elems(y_shape, len, &mut rng);
            let b = elems(b_shape, len, &mut rng);
            let coeffs: Vec<i64> = (0..len)
                .map(|k| match c_shape {
                    0 => rng.gen(),
                    1 => i64::MAX,
                    2 => -i64::MAX,
                    3 => [i64::MAX, -i64::MAX][k % 2],
                    4 => i64::MIN,
                    _ => 0,
                })
                .collect();
            check_dots(&coeffs, &y, &b);
        }

        #[test]
        fn edge_products_squares_and_inverses_match_bigint(
            raw in prop::array::uniform4(any::<u64>()),
            kinds in prop::array::uniform4(0u8..4),
            shape in 0u8..6,
            raw_b in prop::array::uniform4(any::<u64>()),
            kinds_b in prop::array::uniform4(0u8..4),
            shape_b in 0u8..6,
        ) {
            let p = big(&MODULUS);
            let a = edge_elem(raw, kinds, shape);
            let b = edge_elem(raw_b, kinds_b, shape_b);
            let (va, vb) = (big(&a.limbs), big(&b.limbs));
            prop_assert_eq!(big(&(a * b).limbs), &va * &vb % &p);
            prop_assert_eq!(big(&a.square().limbs), &va * &va % &p);
            match a.inv() {
                Some(inv) => {
                    let fermat = va.modpow(&(&p - BigUint::from(2u8)), &p);
                    prop_assert_eq!(big(&inv.limbs), fermat);
                    prop_assert_eq!(a * inv, Fp256::ONE);
                }
                None => prop_assert!(a.is_zero()),
            }
        }

        #[test]
        fn canonical_decode_of_edge_limbs_matches_bigint(
            raw in prop::array::uniform4(any::<u64>()),
            kinds in prop::array::uniform4(0u8..4),
        ) {
            let limbs = edge_limbs(raw, kinds);
            let bytes: Vec<u8> = limbs.iter().flat_map(|l| l.to_le_bytes()).collect();
            let got = Fp256::from_bytes_canonical(&bytes.clone().try_into().expect("32 bytes"));
            let value = BigUint::from_bytes_le(&bytes);
            if value < big(&MODULUS) {
                prop_assert_eq!(got.map(|e| big(&e.limbs)), Some(value));
                prop_assert_eq!(got.map(Fp256::to_bytes).map(Vec::from), Some(bytes));
            } else {
                prop_assert!(got.is_none());
            }
        }

        #[test]
        fn fold_matches_bigint(
            lo in prop::array::uniform4(any::<u64>()),
            hi in prop::array::uniform4(any::<u64>()),
            top in 0..1u64 << 32,
        ) {
            let hi = [hi[0], hi[1], hi[2], hi[3], top];
            let p = big(&MODULUS);
            let want = (big(&lo) + (big(&hi) << 256u32)) % &p;
            prop_assert_eq!(big(&fold(lo, hi).limbs), want);
        }
    }

    #[test]
    fn word_products_equal_the_full_product() {
        let mut rng = StdRng::seed_from_u64(23);
        let (a, b) = second_fold_factors();
        let ys = [
            Fp256::ZERO,
            Fp256::ONE,
            -Fp256::ONE,
            a,
            b,
            Fp256::random(&mut rng),
        ];
        for y in ys {
            for k in [0, 1, 2, 977, 1 << 32, u64::MAX, rng.gen()] {
                assert_eq!(y.mul_u64(k), y * Fp256::from_u64(k), "{y:?} · {k}");
            }
        }
    }

    #[test]
    fn the_modulus_divides_into_quotient_and_remainder() {
        let p = big(&MODULUS);
        for k in [2u64, 3, 977, 65_535, 1 << 32, u64::MAX] {
            let (quotient, rem) = Fp256::modulus_div_rem(k);
            assert_eq!(big(&quotient.limbs), &p / BigUint::from(k), "⌊p/{k}⌋");
            assert_eq!(BigUint::from(rem), &p % BigUint::from(k), "p mod {k}");
        }
    }

    #[test]
    fn dot_kernels_carry_into_their_top_limbs() {
        // 4 096 maximal terms: the sixth limb of the narrow sum reaches
        // 2^11, the ninth of the lazy one 2^12 − 1.
        let len = if cfg!(miri) { 64 } else { 4096 };
        let y = vec![-Fp256::ONE; len];
        check_dots(&vec![i64::MAX; len], &y, &y);
        check_dots(&vec![i64::MIN; len], &y, &y);
    }

    #[test]
    fn fold_carries_out_of_the_fourth_limb_once() {
        // The second pass wraps past 2^256; the sum lands below 2^99 and
        // adding the wrapped unit's FOLD cannot wrap again.
        let p = big(&MODULUS);
        let top = u64::from(u32::MAX);
        for hi in [
            [1, 0, 0, 0, 0],
            [u64::MAX, 0, 0, 0, 0],
            [u64::MAX, u64::MAX, u64::MAX, u64::MAX, 0],
            [u64::MAX, u64::MAX, u64::MAX, u64::MAX, top],
        ] {
            let want = (big(&[u64::MAX; 4]) + (big(&hi) << 256u32)) % &p;
            assert_eq!(big(&fold([u64::MAX; 4], hi).limbs), want);
        }
        // And a sum in [p, 2^256) takes the compare-and-subtract.
        assert_eq!(fold(MODULUS, [0; 5]), Fp256::ZERO);
    }

    #[test]
    fn the_edge_factors_carry_in_the_second_fold() {
        let (a, b) = second_fold_factors();
        let p = big(&MODULUS);
        let two_256 = BigUint::from(1u8) << 256u32;
        let wide = big(&a.limbs) * big(&b.limbs);
        let first = &wide % &two_256 + (&wide >> 256u32) * BigUint::from(FOLD);
        let over = &first >> 256u32;
        assert!(over > BigUint::zero());
        assert!(&first % &two_256 + over * BigUint::from(FOLD) >= two_256);
        assert_eq!(big(&(a * b).limbs), wide % &p);
    }

    /// The 32-byte wire encodings (big-endian hex) of fixed elements, as
    /// the Montgomery representation produced them: the canonical form
    /// must encode, draw and compute the same bytes.
    #[test]
    fn wire_bytes_of_fixed_elements_are_pinned() {
        let hex = |e: Fp256| -> String {
            e.to_bytes()
                .iter()
                .rev()
                .map(|b| format!("{b:02x}"))
                .collect()
        };
        let mut rng = StdRng::seed_from_u64(41);
        let drawn = Fp256::random(&mut rng);
        let after = Fp256::random(&mut rng);
        let (a, b) = second_fold_factors();
        let cases = [
            ("one", Fp256::ONE),
            ("p - 1", -Fp256::ONE),
            ("-2^100", Fp256::from_i128(-(1i128 << 100))),
            ("1 / 65537", Fp256::from_u64(65537).inv().expect("nonzero")),
            ("draw", drawn),
            ("second draw", after),
            ("draw^2 * 3", drawn.square() * Fp256::from_u64(3)),
            ("2^255 * b", a * b),
            ("dot", Fp256::dot(&[drawn, after], [after, -Fp256::ONE])),
        ];
        let got: Vec<(&str, String)> = cases.iter().map(|(name, e)| (*name, hex(*e))).collect();
        let want = [
            (
                "one",
                "0000000000000000000000000000000000000000000000000000000000000001",
            ),
            (
                "p - 1",
                "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2e",
            ),
            (
                "-2^100",
                "ffffffffffffffffffffffffffffffffffffffeffffffffffffffffefffffc2f",
            ),
            (
                "1 / 65537",
                "c1a33e5cc1a33e5cc1a33e5cc1a33e5cc1a33e5cc1a33e5cc1a33e5bfffffd1d",
            ),
            (
                "draw",
                "380775ce140e343afc3169a1c64fea32f9e50e372d7e96e4878c377a9393efe4",
            ),
            (
                "second draw",
                "d91325c182cc86f120ef46bde4bdcbd2d574e24a3f78db07d1458562da538c44",
            ),
            (
                "draw^2 * 3",
                "01877d12ad8b175fd6ee217b6989d5fba23b2b939fb84614a3a1ad3629202650",
            ),
            (
                "2^255 * b",
                "0000000000000000000000000000000000000000000000000000000177ec8119",
            ),
            (
                "dot",
                "3cb4a7f620cb31984e895b964d854f74ef9612c880b097bc04af3a1ee208c247",
            ),
        ];
        assert_eq!(got.len(), want.len());
        for ((name, got), (want_name, want)) in got.iter().zip(want) {
            assert_eq!((*name, got.as_str()), (want_name, want));
        }
    }

    #[test]
    fn constants_are_consistent() {
        // FOLD is 2^256 − p.
        assert_eq!(const_sub([0; 4], MODULUS), [FOLD, 0, 0, 0]);
        // ONE round-trips
        assert_eq!(Fp256::ONE.to_raw(), [1, 0, 0, 0]);
        assert_eq!(Fp256::ZERO.to_raw(), [0, 0, 0, 0]);
    }

    #[test]
    fn small_arithmetic() {
        let a = Fp256::from_u64(1234);
        let b = Fp256::from_u64(5678);
        assert_eq!((a + b).to_i128(), Some(1234 + 5678));
        assert_eq!((a * b).to_i128(), Some(1234 * 5678));
        assert_eq!((a - b).to_i128(), Some(1234 - 5678));
        assert_eq!((-a).to_i128(), Some(-1234));
    }

    #[test]
    fn from_i128_roundtrip() {
        for v in [0i128, 1, -1, i64::MAX as i128 * 3, -(1i128 << 100)] {
            assert_eq!(Fp256::from_i128(v).to_i128(), Some(v));
        }
    }

    #[test]
    fn canonical_decode_rejects_values_at_or_above_p() {
        let limbs_to_bytes = |limbs: [u64; 4]| {
            let mut out = [0u8; 32];
            for (i, limb) in limbs.iter().enumerate() {
                out[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
            }
            out
        };
        // p itself and p + 1 are non-canonical encodings of 0 and 1.
        let p_bytes = limbs_to_bytes(MODULUS);
        assert!(Fp256::from_bytes_canonical(&p_bytes).is_none());
        let mut p_plus_one = MODULUS;
        p_plus_one[0] += 1;
        assert!(Fp256::from_bytes_canonical(&limbs_to_bytes(p_plus_one)).is_none());
        // ...but the permissive decoder silently reduces them.
        assert_eq!(Fp256::from_bytes(&p_bytes), Fp256::ZERO);
        // All-ones (2^256 - 1 >= p) is rejected too.
        assert!(Fp256::from_bytes_canonical(&[0xFF; 32]).is_none());
    }

    #[test]
    fn canonical_decode_round_trips_canonical_bytes() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..64 {
            let e = Fp256::random(&mut rng);
            let bytes = e.to_bytes();
            let back = Fp256::from_bytes_canonical(&bytes).expect("canonical bytes accepted");
            assert_eq!(back, e);
        }
        assert_eq!(
            Fp256::from_bytes_canonical(&Fp256::ONE.to_bytes()),
            Some(Fp256::ONE)
        );
    }

    #[test]
    fn inverse_small() {
        let a = Fp256::from_u64(65537);
        let inv = a.inv().unwrap();
        assert_eq!(a * inv, Fp256::ONE);
        assert!(Fp256::ZERO.inv().is_none());
    }

    #[test]
    fn inverse_chain_matches_fermat() {
        let fermat = |a: Fp256| a.pow(&const_sub(MODULUS, [2, 0, 0, 0]));
        let minus_one = -Fp256::ONE;
        let mut rng = StdRng::seed_from_u64(2000);
        let elems = (0..2000).map(|_| Fp256::random_nonzero(&mut rng));
        for a in [Fp256::ONE, Fp256::from_u64(2), minus_one]
            .into_iter()
            .chain(elems)
        {
            let inv = a.inv().expect("nonzero");
            assert_eq!(inv, fermat(a), "{a:?}");
            assert_eq!(a * inv, Fp256::ONE);
        }
        assert_eq!(minus_one.inv(), Some(minus_one));
        assert_eq!(Fp256::ZERO.inv(), None);
    }

    #[test]
    fn balanced_sign_boundary() {
        // p is odd, so (p-1)/2 is the largest "positive" value.
        let half_plus_one = Fp256::from_raw(HALF_MODULUS) + Fp256::ONE;
        // One past the boundary must decode as negative.
        assert!(half_plus_one.to_f64_approx() < 0.0);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let a = Fp256::random(&mut rng);
            assert_eq!(Fp256::from_bytes(&a.to_bytes()), a);
        }
    }

    #[test]
    fn batch_inv_matches_per_element() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [0usize, 1, 2, 3, 17, 64] {
            let elems: Vec<Fp256> = (0..n).map(|_| Fp256::random_nonzero(&mut rng)).collect();
            let mut batched = elems.clone();
            assert!(Fp256::batch_inv(&mut batched));
            for (e, b) in elems.iter().zip(&batched) {
                assert_eq!(e.inv().unwrap(), *b);
                assert_eq!(*e * *b, Fp256::ONE);
            }
        }
    }

    #[test]
    fn batch_inv_rejects_zero_and_leaves_input_untouched() {
        let mut elems = [Fp256::from_u64(3), Fp256::ZERO, Fp256::from_u64(7)];
        let before = elems;
        assert!(!Fp256::batch_inv(&mut elems));
        assert_eq!(elems, before);
    }

    #[test]
    fn random_fill_matches_sequential_random_draws() {
        // The batch sampler must consume the identical RNG stream as
        // repeated `random()` calls, or seeded protocol transcripts would
        // change shape under the batch path.
        for n in [0usize, 1, 3, 4, 5, 9, 32] {
            let mut seq_rng = StdRng::seed_from_u64(123);
            let sequential: Vec<Fp256> = (0..n).map(|_| Fp256::random(&mut seq_rng)).collect();
            let mut fill_rng = StdRng::seed_from_u64(123);
            let mut filled = vec![Fp256::ZERO; n];
            Fp256::random_fill(&mut fill_rng, &mut filled);
            assert_eq!(sequential, filled, "n = {n}");
            // And the RNGs must end in the same state.
            assert_eq!(seq_rng.gen::<u64>(), fill_rng.gen::<u64>());
        }
    }

    #[test]
    fn batch_inv_with_scratch_matches_batch_inv() {
        let mut rng = StdRng::seed_from_u64(19);
        let mut scratch = Vec::new();
        for n in [0usize, 1, 2, 13, 40] {
            let elems: Vec<Fp256> = (0..n).map(|_| Fp256::random_nonzero(&mut rng)).collect();
            let mut plain = elems.clone();
            let mut scratched = elems.clone();
            assert!(Fp256::batch_inv(&mut plain));
            assert!(Fp256::batch_inv_with_scratch(&mut scratched, &mut scratch));
            assert_eq!(plain, scratched);
        }
        // Zero still rejects and leaves the input untouched.
        let mut with_zero = [Fp256::ONE, Fp256::ZERO];
        assert!(!Fp256::batch_inv_with_scratch(&mut with_zero, &mut scratch));
        assert_eq!(with_zero, [Fp256::ONE, Fp256::ZERO]);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let a = Fp256::from_u64(3);
        let mut acc = Fp256::ONE;
        for _ in 0..77 {
            acc *= a;
        }
        assert_eq!(a.pow(&[77, 0, 0, 0]), acc);
    }
}
