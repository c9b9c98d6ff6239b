//! Diffie–Hellman groups over safe primes — the algebraic setting of the
//! Naor–Pinkas oblivious transfer.
//!
//! Two fixed groups are provided: the RFC 3526 2048-bit MODP group
//! (security-grade) and the RFC 2409 768-bit Oakley group 1 (fast, for
//! tests and micro-benchmarks — *not* for production security).

use num_bigint::{BigUint, Monty, RandBigInt};
use num_traits::One;
use rand::Rng;
use std::fmt;
use std::sync::OnceLock;

use crate::hmac::hkdf;

/// RFC 3526 group 14 (2048-bit MODP), generator 2.
const MODP_2048_HEX: &str = concat!(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1",
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD",
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245",
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED",
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D",
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F",
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D",
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B",
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9",
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510",
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF"
);

/// RFC 2409 Oakley group 1 (768-bit), generator 2. Test/bench use only.
const MODP_768_HEX: &str = concat!(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1",
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD",
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245",
    "E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF"
);

/// Columns of a Lim–Lee comb: every block of the exponent is cut into
/// this many sub-blocks, each with a table of its own, so a sub-block's
/// length in squarings serves the whole exponent.
const COMB_COLUMNS: usize = 4;
/// Rows of the comb behind [`DhGroup::power_g`]: the exponent is cut
/// into this many blocks, and one table entry covers one bit of each.
/// 4 × 2⁸ entries of 256 bytes are the 256 KiB the MODP-2048 table of
/// `g` may take for the life of the process.
const COMB_ROWS_G: usize = 8;
/// Rows of a comb built by [`DhGroup::fixed_base`] for a base that lives
/// as long as one OT commitment: 4 × 2⁶ entries are 64 KiB in MODP-2048,
/// about 2 200 products to build (2 048 of them the squaring chain any
/// row count pays) and 430 per power against 2 560 for [`DhGroup::exp`].
/// Building it and taking the 12 powers of one classified sample
/// measured 13.1 ms with 5 rows, 11.4 ms with 6, and 10.7–11.4 ms with 7
/// or 8 at two and four times the memory.
const COMB_ROWS_SESSION: usize = 6;

/// Bits of a short secret exponent ([`DhGroup::random_short_exponent`]).
/// The assumption is that discrete logs with a 256-bit exponent are as
/// hard in these groups as with a full-length one: the modulus is a safe
/// prime, so `(p−1)/2` has no small factor for the van Oorschot–Wiener
/// attack to use, Pollard-λ on the interval costs 2¹²⁸, and the number
/// field sieve on a 2048-bit modulus (~2¹¹²) stays the cheaper attack.
/// NIST SP 800-56A r3 §5.6.1.1.1 asks for 224 bits or more in RFC 3526
/// group 14, RFC 7919 §5.2 for 225, RFC 3526 §8 for 220–320.
const SHORT_EXPONENT_BITS: u64 = 256;

/// A fixed-base comb table: everything [`DhGroup::power`] needs to raise
/// one base to many exponents. Entry `u` of a column is the Montgomery
/// form of the product of `base^(2^(stride·(COMB_COLUMNS·row + column)))`
/// over the rows set in `u`. Only valid with the group that built it.
#[derive(Clone)]
pub struct FixedBase {
    base: BigUint,
    rows: usize,
    /// Bits per sub-block: one squaring of a power each.
    stride: usize,
    table: Vec<u64>,
}

impl FixedBase {
    /// Where the `k` limbs of entry `u` of a column start and end.
    fn entry(&self, column: usize, u: usize, k: usize) -> std::ops::Range<usize> {
        let start = ((column << self.rows) + u) * k;
        start..start + k
    }
}

impl fmt::Debug for FixedBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FixedBase")
            .field("base", &self.base)
            .field("rows", &self.rows)
            .finish_non_exhaustive()
    }
}

/// A multiplicative group modulo a safe prime `p = 2q + 1` with a fixed
/// generator, plus key-derivation from group elements.
///
/// # Examples
///
/// ```
/// use ppcs_crypto::DhGroup;
/// use rand::SeedableRng;
///
/// let group = DhGroup::modp_768();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let a = group.random_exponent(&mut rng);
/// let b = group.random_exponent(&mut rng);
/// // DH correctness: (g^a)^b == (g^b)^a
/// let left = group.exp(&group.power_g(&a), &b);
/// let right = group.exp(&group.power_g(&b), &a);
/// assert_eq!(left, right);
/// ```
pub struct DhGroup {
    p: BigUint,
    q: BigUint,
    g: BigUint,
    element_len: usize,
    monty: Monty,
    /// Comb table for `g`, built by the first [`DhGroup::power_g`].
    comb: OnceLock<FixedBase>,
}

impl fmt::Debug for DhGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DhGroup")
            .field("bits", &self.p.bits())
            .field("g", &self.g)
            .finish_non_exhaustive()
    }
}

impl DhGroup {
    fn from_hex(hex: &str) -> Self {
        let p = BigUint::parse_bytes(hex.as_bytes(), 16).expect("valid hex constant");
        let q = (&p - BigUint::one()) >> 1;
        let element_len = (p.bits() as usize).div_ceil(8);
        let monty = Monty::new(&p).expect("a prime above two is odd");
        Self {
            p,
            q,
            g: BigUint::from(2u32),
            element_len,
            monty,
            comb: OnceLock::new(),
        }
    }

    fn build_comb(&self, base: &BigUint, rows: usize) -> FixedBase {
        let m = &self.monty;
        let k = m.limbs();
        let mut comb = FixedBase {
            base: base.clone(),
            rows,
            stride: (self.p.bits() as usize).div_ceil(rows * COMB_COLUMNS),
            table: vec![0u64; (COMB_COLUMNS << rows) * k],
        };
        // One chain of squarings visits every base^(2^(stride·s)).
        let mut power = m.to_monty(base);
        let mut spare = vec![0u64; k];
        let mut generators = vec![power.clone()];
        for _ in 1..rows * COMB_COLUMNS {
            for _ in 0..comb.stride {
                m.mul(&mut spare, &power, &power);
                std::mem::swap(&mut power, &mut spare);
            }
            generators.push(power.clone());
        }
        let one = m.to_monty(&BigUint::one());
        for column in 0..COMB_COLUMNS {
            for u in 0..1usize << rows {
                let at = comb.entry(column, u, k);
                if u == 0 {
                    comb.table[at].copy_from_slice(&one);
                    continue;
                }
                // u without its lowest row is already in the table.
                let lower = comb.entry(column, u & (u - 1), k);
                let row = u.trailing_zeros() as usize;
                let (done, rest) = comb.table.split_at_mut(at.start);
                m.mul(
                    &mut rest[..k],
                    &done[lower],
                    &generators[COMB_COLUMNS * row + column],
                );
            }
        }
        comb
    }

    /// The RFC 3526 2048-bit MODP group (security parameter ~112 bits).
    pub fn modp_2048() -> &'static DhGroup {
        static G: OnceLock<DhGroup> = OnceLock::new();
        G.get_or_init(|| DhGroup::from_hex(MODP_2048_HEX))
    }

    /// The RFC 2409 768-bit Oakley group — fast, for tests and
    /// micro-benchmarks only; do not rely on it for real security.
    pub fn modp_768() -> &'static DhGroup {
        static G: OnceLock<DhGroup> = OnceLock::new();
        G.get_or_init(|| DhGroup::from_hex(MODP_768_HEX))
    }

    /// The modulus `p`.
    pub fn modulus(&self) -> &BigUint {
        &self.p
    }

    /// The subgroup order `q = (p-1)/2`.
    pub fn order(&self) -> &BigUint {
        &self.q
    }

    /// The generator.
    pub fn generator(&self) -> &BigUint {
        &self.g
    }

    /// Fixed serialized length of a group element, in bytes.
    pub fn element_len(&self) -> usize {
        self.element_len
    }

    /// Draws a uniform exponent in `[2, q)`.
    pub fn random_exponent<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        loop {
            let e = rng.gen_biguint_below(&self.q);
            if e > BigUint::one() {
                return e;
            }
        }
    }

    /// Draws a uniform exponent in `[2, 2^256)` — `SHORT_EXPONENT_BITS`
    /// names the assumption — for a secret that only has to keep a
    /// discrete log hard. An exponent whose power must be *uniform* in
    /// `⟨g⟩` is a [`random_exponent`](Self::random_exponent) instead.
    pub fn random_short_exponent<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        loop {
            let e = rng.gen_biguint(SHORT_EXPONENT_BITS);
            if e > BigUint::one() {
                return e;
            }
        }
    }

    /// `base^e mod p`.
    pub fn exp(&self, base: &BigUint, e: &BigUint) -> BigUint {
        base.modpow(e, &self.p)
    }

    /// `g^e mod p`, by the fixed-base comb of `g` (see
    /// [`DhGroup::power`]). The table is built on first use.
    pub fn power_g(&self, e: &BigUint) -> BigUint {
        let comb = self
            .comb
            .get_or_init(|| self.build_comb(&self.g, COMB_ROWS_G));
        self.power(comb, e)
    }

    /// Builds the comb table of `base`, for a base that will be raised
    /// to enough exponents to repay about one [`DhGroup::exp`] of set-up.
    pub fn fixed_base(&self, base: &BigUint) -> FixedBase {
        self.build_comb(base, COMB_ROWS_SESSION)
    }

    /// `base^e mod p` for the base `comb` was built over in this group:
    /// one squaring per bit of a sub-block and one table product per
    /// column, on the kernel [`DhGroup::exp`] runs on. Exponents longer
    /// than the comb go to `exp`.
    pub fn power(&self, comb: &FixedBase, e: &BigUint) -> BigUint {
        let stride = comb.stride;
        if e.bits() > (stride * comb.rows * COMB_COLUMNS) as u64 {
            return self.exp(&comb.base, e);
        }
        let m = &self.monty;
        let k = m.limbs();
        let mut acc = comb.table[..k].to_vec();
        let mut spare = vec![0u64; k];
        for bit in (0..stride).rev() {
            m.mul(&mut spare, &acc, &acc);
            std::mem::swap(&mut acc, &mut spare);
            for column in 0..COMB_COLUMNS {
                let u = (0..comb.rows).fold(0, |u, row| {
                    let at = stride * (COMB_COLUMNS * row + column) + bit;
                    u | usize::from(e.bit(at as u64)) << row
                });
                m.mul(&mut spare, &acc, &comb.table[comb.entry(column, u, k)]);
                std::mem::swap(&mut acc, &mut spare);
            }
        }
        m.from_monty(&acc)
    }

    /// Group multiplication `a · b mod p`.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        (a * b) % &self.p
    }

    /// Multiplicative inverse mod `p`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is zero (not a group element).
    pub fn inv(&self, a: &BigUint) -> BigUint {
        // p is prime, so only the multiples of p lack an inverse.
        self.monty.inv(a).expect("zero has no inverse in the group")
    }

    /// The inverse of every element for one [`inv`](Self::inv) and about
    /// three products each (Montgomery's trick): the product of them all
    /// is inverted, and peeled apart from the back.
    ///
    /// # Panics
    ///
    /// Panics if any element is zero.
    pub fn inv_many(&self, elems: &[BigUint]) -> Vec<BigUint> {
        // before[i] = elems[0] ⋯ elems[i−1]
        let mut before = Vec::with_capacity(elems.len());
        let mut product = BigUint::one();
        for e in elems {
            before.push(product.clone());
            product = self.mul(&product, e);
        }
        // after_inv = (elems[0] ⋯ elems[i])⁻¹
        let mut after_inv = self.inv(&product);
        let mut inverses = before;
        for (e, slot) in elems.iter().zip(&mut inverses).rev() {
            let inverse = self.mul(&after_inv, slot);
            after_inv = self.mul(&after_inv, e);
            *slot = inverse;
        }
        inverses
    }

    /// Serializes a group element to fixed-length big-endian bytes.
    pub fn element_bytes(&self, e: &BigUint) -> Vec<u8> {
        let mut bytes = e.to_bytes_be();
        assert!(
            bytes.len() <= self.element_len,
            "element exceeds group modulus size"
        );
        let mut out = vec![0u8; self.element_len - bytes.len()];
        out.append(&mut bytes);
        out
    }

    /// Parses a fixed-length big-endian group element in `[2, p − 2]`,
    /// the range RFC 7919 §5.1 and SP 800-56A §5.6.2.3.1 require of a
    /// peer's value: `1` and `p − 1` are the subgroup of order two, where
    /// a power tells the parity of a secret exponent and nothing else.
    pub fn element_from_bytes(&self, bytes: &[u8]) -> Option<BigUint> {
        if bytes.len() != self.element_len {
            return None;
        }
        let e = BigUint::from_bytes_be(bytes);
        (e > BigUint::one() && e < &self.p - BigUint::one()).then_some(e)
    }

    /// Derives a 256-bit symmetric key from a group element and a context
    /// label via HKDF-SHA256.
    pub fn derive_key(&self, e: &BigUint, context: &[u8]) -> [u8; 32] {
        let okm = hkdf(b"ppcs-ot-v1", &self.element_bytes(e), context, 32);
        okm.try_into().expect("hkdf returned requested length")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_traits::Zero;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn group_parameters_are_sane() {
        for group in [DhGroup::modp_768(), DhGroup::modp_2048()] {
            // p = 2q + 1
            assert_eq!(group.modulus(), &((group.order() << 1) + BigUint::one()));
            // g^q == 1 (generator of the order-q subgroup... g=2 generates
            // a subgroup whose order divides 2q; for these safe primes
            // 2^q = ±1).
            let gq = group.exp(group.generator(), group.order());
            assert!(gq == BigUint::one() || gq == group.modulus() - BigUint::one());
        }
    }

    #[test]
    fn element_bytes_roundtrip() {
        let group = DhGroup::modp_768();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let e = group.power_g(&group.random_exponent(&mut rng));
            let bytes = group.element_bytes(&e);
            assert_eq!(bytes.len(), group.element_len());
            assert_eq!(group.element_from_bytes(&bytes), Some(e));
        }
    }

    #[test]
    fn element_from_bytes_rejects_bad_input() {
        let group = DhGroup::modp_768();
        assert_eq!(group.element_from_bytes(&[1, 2, 3]), None);
        // [2, p − 2] and nothing else: 0, the order-two subgroup {1, p − 1}
        // and anything from p up are out.
        let (p, one) = (group.modulus(), BigUint::one());
        let two = BigUint::from(2u32);
        for bad in [BigUint::zero(), one.clone(), p - &one, p.clone(), p + &one] {
            let bytes = group.element_bytes(&bad);
            assert_eq!(group.element_from_bytes(&bytes), None, "{bad}");
        }
        for good in [two.clone(), p - two] {
            let bytes = group.element_bytes(&good);
            assert_eq!(group.element_from_bytes(&bytes), Some(good));
        }
    }

    #[test]
    fn inverse_is_correct() {
        let group = DhGroup::modp_768();
        let mut rng = StdRng::seed_from_u64(3);
        let e = group.power_g(&group.random_exponent(&mut rng));
        let inv = group.inv(&e);
        assert_eq!(group.mul(&e, &inv), BigUint::one());
        assert_eq!(group.inv(&BigUint::one()), BigUint::one());
        let minus_one = group.modulus() - BigUint::one();
        assert_eq!(group.inv(&minus_one), minus_one);
    }

    #[test]
    fn inv_many_is_inv_of_each() {
        let group = DhGroup::modp_768();
        let mut rng = StdRng::seed_from_u64(6);
        for k in [0usize, 1, 2, 5, 13] {
            let mut elems: Vec<BigUint> = (0..k)
                .map(|_| rng.gen_biguint_range(&BigUint::one(), group.modulus()))
                .collect();
            // A replayed key puts one element in the batch twice.
            if k >= 2 {
                elems[k - 1] = elems[0].clone();
            }
            let each: Vec<BigUint> = elems.iter().map(|e| group.inv(e)).collect();
            assert_eq!(group.inv_many(&elems), each, "k = {k}");
        }
    }

    #[test]
    #[should_panic(expected = "zero has no inverse")]
    fn zero_has_no_inverse() {
        DhGroup::modp_768().inv(&BigUint::zero());
    }

    /// `2^e mod p` for the RFC 3526 group 14 prime, from an independent
    /// implementation (CPython's `pow(2, e, p)`).
    #[test]
    fn modp_2048_known_answer() {
        let group = DhGroup::modp_2048();
        let e = BigUint::parse_bytes("0123456789abcdef".repeat(31).as_bytes(), 16).unwrap();
        let want = concat!(
            "2d2c8e1e37c5ec782d0a471999c20f64199bbec7d864136ae3908679bf716b98",
            "1559949cbaf5373b7eed55bf64707bf1d509de1f90dfce156d855fddf7b957a3",
            "014b48f4dd1f14f55645359b11af96019c629d57eb874b722874c9df243dfbb6",
            "0df268fc338b5cd7f21aca5385f615d118f58d4d32aacfd8274b36a7e0aefac5",
            "975d04218ed487aeadf06ffeba599837ff76620092c4e8b7c01dd78574e31f53",
            "e2a4d491ed8d2e4f6178e728e87f18a431cb7de5cd3974233d7f82a77668abac",
            "e71b301daa18db40cb38c1e66c88934baae21a6e07072d0eb639822df90ed5e1",
            "2cb4592831beba3f52b69179b77eb845241b79334b96be58b5531d74d06f1fef"
        );
        let want = BigUint::parse_bytes(want.as_bytes(), 16).unwrap();
        assert_eq!(group.power_g(&e), want);
        assert_eq!(group.exp(group.generator(), &e), want);
    }

    /// Exponents at the comb's edges, and two it is too short for.
    fn edge_exponents(group: &DhGroup) -> Vec<BigUint> {
        let bits = group.modulus().bits() as usize;
        vec![
            BigUint::zero(),
            BigUint::one(),
            BigUint::from(255u32),
            group.order() - BigUint::one(),
            group.modulus() - BigUint::one(),
            (BigUint::one() << bits) - BigUint::one(),
            // Longer than the comb: served by `exp`.
            BigUint::one() << bits,
            (BigUint::one() << (bits + 70)) + BigUint::from(3u32),
        ]
    }

    #[test]
    fn power_g_covers_every_exponent_length() {
        for group in [DhGroup::modp_768(), DhGroup::modp_2048()] {
            for e in &edge_exponents(group) {
                assert_eq!(
                    group.power_g(e),
                    group.exp(group.generator(), e),
                    "g^{e} in the {}-bit group",
                    group.modulus().bits()
                );
            }
        }
    }

    #[test]
    fn fixed_base_covers_every_exponent_length() {
        for group in [DhGroup::modp_768(), DhGroup::modp_2048()] {
            let mut rng = StdRng::seed_from_u64(4);
            for base in [
                BigUint::one(),
                group.modulus() - BigUint::one(),
                rng.gen_biguint_below(group.modulus()),
            ] {
                let comb = group.fixed_base(&base);
                for e in &edge_exponents(group) {
                    assert_eq!(group.power(&comb, e), group.exp(&base, e), "{base}^{e}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// One comb type for any base: over random residues (in the
        /// subgroup or not) and exponents of every length up to the
        /// modulus's, it is `exp`.
        #[test]
        fn fixed_base_matches_exp(seed in any::<u64>(), big in any::<bool>()) {
            let group = if big { DhGroup::modp_2048() } else { DhGroup::modp_768() };
            let mut rng = StdRng::seed_from_u64(seed);
            let base = rng.gen_biguint_below(group.modulus());
            let comb = group.fixed_base(&base);
            for _ in 0..4 {
                let bits = rng.gen_range(0..=group.modulus().bits());
                let e = rng.gen_biguint(bits);
                prop_assert_eq!(group.power(&comb, &e), group.exp(&base, &e));
            }
            let e = group.random_exponent(&mut rng);
            prop_assert_eq!(group.power(&comb, &e), group.exp(&base, &e));
        }
    }

    /// Replays scripted limbs, then zeros.
    struct Scripted(std::vec::IntoIter<u64>);

    impl rand::RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0.next().unwrap_or(0)
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            dest.fill(0);
        }
    }

    #[test]
    fn random_exponent_redraws_zero_and_one() {
        // The draws a transcript depends on: 0 and 1 are thrown away,
        // whole (one draw is 12 limbs in this group), and the next value
        // below q is returned as it is.
        let group = DhGroup::modp_768();
        let limbs = group.order().bits().div_ceil(64) as usize;
        let mut script = vec![0u64; 3 * limbs];
        script[limbs] = 1;
        script[2 * limbs] = 5;
        script[2 * limbs + 1] = 9;
        let mut rng = Scripted(script.into_iter());
        let e = group.random_exponent(&mut rng);
        assert_eq!(e, (BigUint::from(9u32) << 64usize) + BigUint::from(5u32));
    }

    #[test]
    fn random_short_exponent_is_four_limbs_above_one() {
        // The short draw a transcript depends on: four limbs whatever the
        // group, 0 and 1 thrown away whole, the next value returned as it
        // is — top limb included, so the width is 256 bits and not less.
        for group in [DhGroup::modp_768(), DhGroup::modp_2048()] {
            let mut script = vec![0u64; 12];
            script[4] = 1;
            script[8] = 5;
            script[11] = u64::MAX;
            let mut rng = Scripted(script.into_iter());
            let e = group.random_short_exponent(&mut rng);
            assert_eq!(
                e,
                (BigUint::from(u64::MAX) << 192usize) + BigUint::from(5u32)
            );
            assert_eq!(e.bits(), SHORT_EXPONENT_BITS);
            assert_eq!(rng.0.len(), 0, "three draws of four limbs");
        }
    }

    #[test]
    fn derived_keys_differ_by_context() {
        let group = DhGroup::modp_768();
        let e = group.power_g(&BigUint::from(12345u32));
        assert_ne!(group.derive_key(&e, b"a"), group.derive_key(&e, b"b"));
    }
}
