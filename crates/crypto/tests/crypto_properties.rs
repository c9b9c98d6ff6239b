//! Property tests for the in-tree primitives: structural identities that
//! must hold for arbitrary inputs.

use ppcs_crypto::{hkdf, hmac_sha256, ChaCha20, DhGroup, Sha256};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sha256_incremental_matches_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..512),
        split in any::<prop::sample::Index>(),
    ) {
        let cut = split.index(data.len() + 1);
        let mut h = Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn sha256_is_injective_on_observed_inputs(
        a in prop::collection::vec(any::<u8>(), 0..64),
        b in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        if a != b {
            prop_assert_ne!(Sha256::digest(&a), Sha256::digest(&b));
        }
    }

    #[test]
    fn hmac_distinguishes_keys_and_messages(
        key in prop::collection::vec(any::<u8>(), 1..64),
        msg in prop::collection::vec(any::<u8>(), 0..128),
        flip in any::<prop::sample::Index>(),
    ) {
        let tag = hmac_sha256(&key, &msg);
        // Flipping one key bit must change the tag.
        let mut key2 = key.clone();
        let i = flip.index(key2.len());
        key2[i] ^= 1;
        prop_assert_ne!(hmac_sha256(&key2, &msg), tag);
    }

    #[test]
    fn hkdf_prefix_consistency(
        salt in prop::collection::vec(any::<u8>(), 0..32),
        ikm in prop::collection::vec(any::<u8>(), 1..64),
        info in prop::collection::vec(any::<u8>(), 0..32),
        len_a in 1usize..100,
        len_b in 1usize..100,
    ) {
        // HKDF output is a stream: shorter requests are prefixes of
        // longer ones for the same inputs.
        let (short, long) = if len_a <= len_b { (len_a, len_b) } else { (len_b, len_a) };
        let a = hkdf(&salt, &ikm, &info, short);
        let b = hkdf(&salt, &ikm, &info, long);
        prop_assert_eq!(&b[..short], &a[..]);
    }

    #[test]
    fn chacha_apply_is_an_involution(
        key in prop::array::uniform32(any::<u8>()),
        nonce in prop::array::uniform12(any::<u8>()),
        counter in any::<u32>(),
        data in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut buf = data.clone();
        ChaCha20::new(&key, &nonce, counter).apply(&mut buf);
        ChaCha20::new(&key, &nonce, counter).apply(&mut buf);
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn chacha_keystreams_differ_across_nonces(
        key in prop::array::uniform32(any::<u8>()),
        n1 in prop::array::uniform12(any::<u8>()),
        n2 in prop::array::uniform12(any::<u8>()),
    ) {
        if n1 != n2 {
            let a = ChaCha20::new(&key, &n1, 0).keystream(64);
            let b = ChaCha20::new(&key, &n2, 0).keystream(64);
            prop_assert_ne!(a, b);
        }
    }

    #[test]
    fn dh_shared_secret_agrees(seed_a in any::<u64>(), seed_b in any::<u64>()) {
        use rand::SeedableRng;
        let group = DhGroup::modp_768();
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(seed_a);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(seed_b ^ 0x9E3779B97F4A7C15);
        let a = group.random_exponent(&mut rng_a);
        let b = group.random_exponent(&mut rng_b);
        let ga = group.power_g(&a);
        let gb = group.power_g(&b);
        prop_assert_eq!(group.exp(&gb, &a), group.exp(&ga, &b));
    }
}

proptest! {
    // Each case is three MODP-2048 exponentiations, unoptimised.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn comb_and_euclid_agree_with_exponentiation(seed in any::<u64>()) {
        use num_bigint::BigUint;
        use num_traits::One;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for group in [DhGroup::modp_768(), DhGroup::modp_2048()] {
            let e = group.random_exponent(&mut rng);
            let x = group.power_g(&e);
            prop_assert_eq!(&x, &group.exp(group.generator(), &e));
            let inv = group.inv(&x);
            prop_assert!(group.mul(&x, &inv).is_one());
            // Fermat: x^(p-2) is the inverse modulo a prime.
            let fermat = group.exp(&x, &(group.modulus() - BigUint::from(2u32)));
            prop_assert_eq!(inv, fermat);
        }
    }
}
