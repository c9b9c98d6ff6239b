//! Property tests cross-checking the in-tree `Fp256` implementation
//! against `num-bigint` as a reference.

use num_bigint::BigUint;
use num_traits::One;
use ppcs_math::{Fp256, MODULUS};
use proptest::prelude::*;

fn modulus_big() -> BigUint {
    let mut bytes = Vec::with_capacity(32);
    for limb in MODULUS {
        bytes.extend_from_slice(&limb.to_le_bytes());
    }
    BigUint::from_bytes_le(&bytes)
}

fn to_big(e: Fp256) -> BigUint {
    BigUint::from_bytes_le(&e.to_bytes())
}

fn from_limbs(limbs: [u64; 4]) -> (Fp256, BigUint) {
    let mut bytes = Vec::with_capacity(32);
    for limb in limbs {
        bytes.extend_from_slice(&limb.to_le_bytes());
    }
    let big = BigUint::from_bytes_le(&bytes) % modulus_big();
    (Fp256::from_raw(limbs), big)
}

fn limb_strategy() -> impl Strategy<Value = [u64; 4]> {
    prop::array::uniform4(any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_matches_bigint(a in limb_strategy(), b in limb_strategy()) {
        let (fa, ba) = from_limbs(a);
        let (fb, bb) = from_limbs(b);
        prop_assert_eq!(to_big(fa + fb), (ba + bb) % modulus_big());
    }

    #[test]
    fn sub_matches_bigint(a in limb_strategy(), b in limb_strategy()) {
        let (fa, ba) = from_limbs(a);
        let (fb, bb) = from_limbs(b);
        let p = modulus_big();
        prop_assert_eq!(to_big(fa - fb), (ba + &p - bb) % p);
    }

    #[test]
    fn mul_matches_bigint(a in limb_strategy(), b in limb_strategy()) {
        let (fa, ba) = from_limbs(a);
        let (fb, bb) = from_limbs(b);
        prop_assert_eq!(to_big(fa * fb), (ba * bb) % modulus_big());
    }

    #[test]
    fn neg_matches_bigint(a in limb_strategy()) {
        let (fa, ba) = from_limbs(a);
        let p = modulus_big();
        prop_assert_eq!(to_big(-fa), (&p - ba % &p) % p);
    }

    #[test]
    fn square_matches_mul(a in limb_strategy()) {
        let (fa, _) = from_limbs(a);
        prop_assert_eq!(fa.square(), fa * fa);
    }

    #[test]
    fn inverse_is_correct(a in limb_strategy()) {
        let (fa, _) = from_limbs(a);
        if let Some(inv) = fa.inv() {
            prop_assert_eq!(fa * inv, Fp256::ONE);
            prop_assert_eq!(to_big(inv).modpow(&BigUint::one(), &modulus_big()), to_big(inv));
        } else {
            prop_assert!(fa.is_zero());
        }
    }

    #[test]
    fn pow_matches_bigint_modpow(a in limb_strategy(), e in any::<u64>()) {
        let (fa, ba) = from_limbs(a);
        let got = fa.pow(&[e, 0, 0, 0]);
        let want = ba.modpow(&BigUint::from(e), &modulus_big());
        prop_assert_eq!(to_big(got), want);
    }

    #[test]
    fn roundtrip_bytes(a in limb_strategy()) {
        let (fa, _) = from_limbs(a);
        prop_assert_eq!(Fp256::from_bytes(&fa.to_bytes()), fa);
    }

    #[test]
    fn i128_roundtrip(v in any::<i128>()) {
        prop_assert_eq!(Fp256::from_i128(v).to_i128(), Some(v));
    }

    #[test]
    fn distributive_law(a in limb_strategy(), b in limb_strategy(), c in limb_strategy()) {
        let (fa, _) = from_limbs(a);
        let (fb, _) = from_limbs(b);
        let (fc, _) = from_limbs(c);
        prop_assert_eq!(fa * (fb + fc), fa * fb + fa * fc);
    }
}
