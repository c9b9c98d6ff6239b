//! Equivalence properties for the batch field kernels.
//!
//! Field arithmetic is exact and every element has a unique reduced
//! Montgomery representation, so the batch forms — point-cloud
//! evaluation and batched Lagrange interpolation — must be
//! *bit-identical* to their one-at-a-time counterparts on every input,
//! including values hugging the modulus, where the
//! conditional-subtraction paths fire. The `Fp256` product itself is
//! spot-checked at `p − 1`.

use ppcs_math::{
    eval_cloud_many, interp_batch, interpolate_at_zero, FixedFpAlgebra, Fp256, Polynomial,
};
use proptest::prelude::*;

/// Arbitrary field elements biased toward the reduction boundaries:
/// raw limb patterns near `p`, tiny values, and fully random ones.
fn fp256_strategy() -> impl Strategy<Value = Fp256> {
    (prop::array::uniform4(any::<u64>()), 0u8..7).prop_map(|(limbs, kind)| match kind {
        // Uniform-ish over the whole field via raw limbs (>= p wraps).
        0 | 1 => Fp256::from_raw(limbs),
        // Small magnitudes, both signs.
        2 => Fp256::from_u64(limbs[0]),
        3 => -Fp256::from_u64(limbs[0] % 1024),
        // Boundary hugging: p - k for tiny nonzero k, where the
        // conditional-subtraction decisions flip.
        4 => -Fp256::from_u64(limbs[1] % 4096 + 1),
        // All-ones limb patterns exercising every carry chain.
        5 => Fp256::from_raw([u64::MAX; 4]),
        _ => [Fp256::ZERO, Fp256::ONE][(limbs[2] % 2) as usize],
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn batch_eval_simd_equals_polynomial_eval(
        coeffs in prop::collection::vec(fp256_strategy(), 0..12),
        xs in prop::collection::vec(fp256_strategy(), 0..20),
    ) {
        let alg = FixedFpAlgebra::new(16);
        let poly = Polynomial::new(coeffs.clone());
        let expect: Vec<Fp256> = xs.iter().map(|x| poly.eval(&alg, x)).collect();
        let mut got = vec![Fp256::ZERO; xs.len()];
        eval_cloud_many(&coeffs, &xs, &mut got);
        prop_assert_eq!(&got, &expect);
        prop_assert_eq!(poly.eval_many(&xs), expect);
    }

    #[test]
    fn interp_batch_equals_single_system_interpolation(
        seeds in prop::collection::vec((1u64..u64::MAX, fp256_strategy()), 1..8),
        degree in 1usize..6,
    ) {
        let alg = FixedFpAlgebra::new(16);
        // Build well-formed systems: distinct nonzero abscissae derived
        // from consecutive integers, ordinates arbitrary.
        let systems: Vec<Vec<(Fp256, Fp256)>> = seeds
            .iter()
            .map(|(base, y)| {
                (0..=degree)
                    .map(|i| (Fp256::from_u64(base.wrapping_add(i as u64).max(1)), *y * Fp256::from_u64(i as u64 + 1)))
                    .collect()
            })
            .collect();
        // Abscissae within a system must be distinct; the wrapping add
        // can collide only at the u64 boundary — skip those rare cases.
        for sys in &systems {
            for i in 0..sys.len() {
                for j in i + 1..sys.len() {
                    if sys[i].0 == sys[j].0 {
                        return Ok(());
                    }
                }
            }
        }
        let batch = interp_batch(&alg, &systems).unwrap();
        for (sys, b) in systems.iter().zip(&batch) {
            prop_assert_eq!(interpolate_at_zero(&alg, sys).unwrap(), *b);
        }
    }
}

#[test]
fn boundary_products_are_exact_on_every_backend() {
    // Deterministic spot-checks at the exact extremes: (p-1)^2 = 1,
    // (p-1)·k = -k, and the largest canonical limb patterns.
    let p_minus_1 = -Fp256::ONE;
    let cases = [
        (p_minus_1, p_minus_1, Fp256::ONE),
        (p_minus_1, Fp256::from_u64(7), -Fp256::from_u64(7)),
        (Fp256::ZERO, p_minus_1, Fp256::ZERO),
        (Fp256::ONE, p_minus_1, p_minus_1),
    ];
    for (a, b, expect) in cases {
        assert_eq!(a * b, expect, "{a:?} * {b:?}");
    }
}
