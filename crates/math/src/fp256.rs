//! A 256-bit prime field with 4-limb Montgomery arithmetic.
//!
//! The modulus is the secp256k1 base-field prime
//! `p = 2^256 - 2^32 - 977`, chosen because it is large enough to hold the
//! fixed-point dynamic range of every polynomial the ppcs protocols
//! evaluate (degree-4 similarity polynomials at 16 fractional bits stay
//! far below `p/2`) and because its special form makes the implementation
//! easy to cross-check against well-known test vectors.
//!
//! All arithmetic is implemented in-tree (CIOS Montgomery multiplication,
//! Fermat inversion); the `num-bigint` crate is used only in tests as a
//! reference implementation.

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

/// `-p^{-1} mod 2^64`, the Montgomery reduction constant.
const N0_INV: u64 = const_n0_inv();

/// `R mod p` where `R = 2^256`; this is the Montgomery form of 1.
const R_MOD_P: [u64; 4] = const_r_mod_p();

/// `R^2 mod p`, used to convert into Montgomery form.
const R2_MOD_P: [u64; 4] = const_r2_mod_p();

/// `2^256 mod p = 2^32 + 977`: what one unit of a fifth limb is worth.
const FOLD: u64 = R_MOD_P[0];

/// `(p - 1) / 2`, the canonical boundary between "positive" and "negative"
/// residues in the balanced (signed) interpretation of the field.
const HALF_MODULUS: [u64; 4] = [
    0xFFFF_FFFF_7FFF_FE17,
    0xFFFF_FFFF_FFFF_FFFF,
    0xFFFF_FFFF_FFFF_FFFF,
    0x7FFF_FFFF_FFFF_FFFF,
];

const fn const_n0_inv() -> u64 {
    // Newton iteration: x_{k+1} = x_k * (2 - p0 * x_k) doubles the number
    // of correct low bits each step; 6 steps suffice for 64 bits.
    let p0 = MODULUS[0];
    let mut x: u64 = 1;
    let mut i = 0;
    while i < 6 {
        x = x.wrapping_mul(2u64.wrapping_sub(p0.wrapping_mul(x)));
        i += 1;
    }
    x.wrapping_neg()
}

const fn const_geq(a: [u64; 4], b: [u64; 4]) -> bool {
    let mut i = 3usize;
    loop {
        if a[i] > b[i] {
            return true;
        }
        if a[i] < b[i] {
            return false;
        }
        if i == 0 {
            return true;
        }
        i -= 1;
    }
}

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

const fn const_mod_double(a: [u64; 4]) -> [u64; 4] {
    let mut r = [0u64; 4];
    let mut carry = 0u64;
    let mut i = 0;
    while i < 4 {
        r[i] = (a[i] << 1) | carry;
        carry = a[i] >> 63;
        i += 1;
    }
    if carry == 1 || const_geq(r, MODULUS) {
        const_sub(r, MODULUS)
    } else {
        r
    }
}

const fn const_r_mod_p() -> [u64; 4] {
    // 2^256 mod p = 2^256 - p because p > 2^255.
    const_sub([0, 0, 0, 0], MODULUS)
}

const fn const_r2_mod_p() -> [u64; 4] {
    // Double R mod p 256 times: R * 2^256 = R^2 (mod p).
    let mut x = const_r_mod_p();
    let mut i = 0;
    while i < 256 {
        x = const_mod_double(x);
        i += 1;
    }
    x
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

/// `lo + hi · 2^256 mod p`, by the sparse-prime fold `2^256 ≡ 2^32 + 977`.
///
/// `hi · FOLD` is below `2^161`, so adding it to `lo` carries at most one
/// unit of `2^256` out, worth `FOLD` again — and a sum that carried has
/// wrapped to below `2^161`, so adding that cannot carry; one
/// compare-and-subtract (as in `mont_mul`) then lands in `[0, p)`. The
/// only data-dependent branch is that last one.
#[inline]
fn fold(mut lo: [u64; 4], hi: [u64; 2]) -> Fp256 {
    let (h0, carry) = mac(0, hi[0], FOLD, 0);
    let (h1, h2) = mac(0, hi[1], FOLD, carry);
    let over = add_limbs(&mut lo, [h0, h1, h2, 0]);
    add_limbs(&mut lo, [over * FOLD, 0, 0, 0]);
    if geq(&lo, &MODULUS) {
        lo = const_sub(lo, MODULUS);
    }
    Fp256 { mont: lo }
}

/// An element of the prime field `GF(p)` with `p = 2^256 - 2^32 - 977`,
/// stored in Montgomery form.
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
    /// Montgomery representation `a * R mod p`, little-endian limbs.
    mont: [u64; 4],
}

impl Fp256 {
    /// The additive identity.
    pub const ZERO: Fp256 = Fp256 { mont: [0; 4] };

    /// The multiplicative identity.
    pub const ONE: Fp256 = Fp256 { mont: R_MOD_P };

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
        let mut e = Fp256 { mont: limbs };
        e = e.mont_mul(&Fp256 { mont: R2_MOD_P });
        e
    }

    /// Returns the canonical (non-Montgomery) little-endian limbs in `[0, p)`.
    pub fn to_raw(self) -> [u64; 4] {
        // Multiplying by 1 (non-Montgomery) performs one Montgomery
        // reduction, which divides by R.
        self.mont_mul(&Fp256 { mont: [1, 0, 0, 0] }).mont
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
        let e = Fp256 { mont: limbs };
        Some(e.mont_mul(&Fp256 { mont: R2_MOD_P }))
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
        self.mont == [0; 4]
    }

    /// Draws a uniformly random field element.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Rejection sampling keeps the distribution exactly uniform; the
        // gap between 2^256 and p is ~2^-224 so a retry is essentially
        // impossible in practice.
        loop {
            let limbs = [rng.gen(), rng.gen(), rng.gen(), rng.gen()];
            if !geq(&limbs, &MODULUS) {
                // Already canonical: build the Montgomery form directly.
                let e = Fp256 { mont: limbs };
                return e.mont_mul(&Fp256 { mont: R2_MOD_P });
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

    /// Montgomery product (CIOS method).
    #[inline]
    fn mont_mul(&self, other: &Self) -> Self {
        let a = &self.mont;
        let b = &other.mont;
        let mut t = [0u64; 4];
        let mut t4 = 0u64;
        let mut t5 = 0u64;
        for &ai in a.iter() {
            // t += ai * b
            let mut carry = 0u64;
            for j in 0..4 {
                let (lo, hi) = mac(t[j], ai, b[j], carry);
                t[j] = lo;
                carry = hi;
            }
            let (lo, hi) = adc(t4, carry, 0);
            t4 = lo;
            t5 = t5.wrapping_add(hi);

            // Reduce: t += m * p, then shift one limb.
            let m = t[0].wrapping_mul(N0_INV);
            let (_, mut carry) = mac(t[0], m, MODULUS[0], 0);
            for j in 1..4 {
                let (lo, hi) = mac(t[j], m, MODULUS[j], carry);
                t[j - 1] = lo;
                carry = hi;
            }
            let (lo, hi) = adc(t4, carry, 0);
            t[3] = lo;
            t4 = t5.wrapping_add(hi);
            t5 = 0;
        }
        // Final conditional subtraction: the intermediate can exceed p by
        // at most one multiple.
        if t4 != 0 || geq(&t, &MODULUS) {
            t = const_sub(t, MODULUS);
        }
        Fp256 { mont: t }
    }

    /// Squares the element.
    #[inline]
    pub fn square(self) -> Self {
        self.mont_mul(&self)
    }

    /// Raises the element to a 256-bit little-endian exponent.
    pub fn pow(self, exp: &[u64; 4]) -> Self {
        let mut result = Fp256::ONE;
        let mut base = self;
        for &limb in exp.iter() {
            let mut l = limb;
            for _ in 0..64 {
                if l & 1 == 1 {
                    result = result.mont_mul(&base);
                }
                base = base.square();
                l >>= 1;
            }
        }
        result
    }

    /// Computes the multiplicative inverse, or `None` for zero.
    ///
    /// Uses Fermat's little theorem: `a^{p-2} = a^{-1} (mod p)`.
    pub fn inv(self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        let exp = const_sub(MODULUS, [2, 0, 0, 0]);
        Some(self.pow(&exp))
    }

    /// Doubles the element.
    #[inline]
    pub fn double(self) -> Self {
        self + self
    }

    /// `Σ c_k · y_k` for plain (not Montgomery-form) signed 64-bit
    /// integers `c_k` — the narrow dot product a fixed-point model
    /// coefficient needs: since `c · (yR) = (cy)R`, four word multiplies
    /// per term and no Montgomery division at all. `y_sum` must be
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
    /// closing `fold` compares the *sum* with `p`, as `mont_mul` does).
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
            for (limb, y_i) in acc.iter_mut().zip(e.mont) {
                (*limb, carry) = mac(*limb, biased, y_i, carry);
            }
            (acc[4], carry) = adc(acc[4], carry, 0);
            acc[5] += carry;
        }
        // Minus 2^63 · y_sum: its four limbs, one limb up and one bit down.
        let s = y_sum.mont;
        let mut borrow = 0u64;
        (acc[0], borrow) = sbb(acc[0], s[0] << 63, borrow);
        for i in 1..4 {
            (acc[i], borrow) = sbb(acc[i], s[i] << 63 | s[i - 1] >> 1, borrow);
        }
        (acc[4], borrow) = sbb(acc[4], s[3] >> 1, borrow);
        acc[5] -= borrow;
        let [a0, a1, a2, a3, a4, a5] = acc;
        fold([a0, a1, a2, a3], [a4, a5])
    }

    /// `Σ a_k · b_k` with one reduction for the whole sum: each 4×4-limb
    /// schoolbook product is added into nine limbs, then one REDC clears
    /// the low four and `fold` brings in the ninth, which the division
    /// by `R` leaves worth `2^256`. `p` has no headroom below `2^256`, so
    /// a sum of even two products can pass `2^512`: the ninth limb is
    /// required. With at most [`MAX_DOT_TERMS`](Fp256::MAX_DOT_TERMS)
    /// terms — and the `< 2^512` the REDC adds — it stays below
    /// `2^32 + 1`.
    ///
    /// The operands are paired as [`Iterator::zip`] pairs them; `b` is an
    /// iterator so that a caller computing its terms one at a time needs
    /// no buffer for them.
    pub fn dot(a: &[Fp256], b: impl IntoIterator<Item = Fp256>) -> Fp256 {
        debug_assert!(a.len() <= Self::MAX_DOT_TERMS, "dot product too long");
        let mut t = [0u64; 9];
        for (x, y) in a.iter().zip(b) {
            for i in 0..4 {
                add_row(&mut t, i, x.mont[i], &y.mont);
            }
        }
        // REDC: round `i` adds the multiple of `p · 2^{64i}` that clears
        // limb `i`.
        for i in 0..4 {
            let m = t[i].wrapping_mul(N0_INV);
            add_row(&mut t, i, m, &MODULUS);
        }
        fold([t[4], t[5], t[6], t[7]], [t[8], 0])
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
            acc = acc.mont_mul(e);
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
                suffix_inv.mont_mul(&scratch[i - 1])
            };
            suffix_inv = suffix_inv.mont_mul(&elems[i]);
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
            let (lo, c) = adc(self.mont[i], rhs.mont[i], carry);
            r[i] = lo;
            carry = c;
        }
        if carry != 0 || geq(&r, &MODULUS) {
            r = const_sub(r, MODULUS);
        }
        Fp256 { mont: r }
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
            let (lo, b) = sbb(self.mont[i], rhs.mont[i], borrow);
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
        Fp256 { mont: r }
    }
}

impl Mul for Fp256 {
    type Output = Fp256;
    #[inline]
    fn mul(self, rhs: Fp256) -> Fp256 {
        self.mont_mul(&rhs)
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
    /// `num-bigint` and against the term-by-term `mont_mul` sum.
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
        fn fold_matches_bigint(lo in prop::array::uniform4(any::<u64>()), hi in any::<u128>()) {
            let hi = [hi as u64, (hi >> 64) as u64];
            let p = big(&MODULUS);
            let want = (big(&lo) + (big(&hi) << 256u32)) % &p;
            prop_assert_eq!(big(&fold(lo, hi).mont), want);
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
        // The sum wraps past 2^256, so the second pass runs; it lands
        // below 2^161 and cannot wrap again.
        let p = big(&MODULUS);
        for hi in [[1, 0], [u64::MAX, 0], [u64::MAX; 2]] {
            let want = (big(&[u64::MAX; 4]) + (big(&hi) << 256u32)) % &p;
            assert_eq!(big(&fold([u64::MAX; 4], hi).mont), want);
        }
        // And a sum in [p, 2^256) takes the compare-and-subtract.
        assert_eq!(fold(MODULUS, [0, 0]), Fp256::ZERO);
    }

    #[test]
    fn constants_are_consistent() {
        // N0_INV * p[0] == -1 mod 2^64
        assert_eq!(N0_INV.wrapping_mul(MODULUS[0]), u64::MAX);
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
