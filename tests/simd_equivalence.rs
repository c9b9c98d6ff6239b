//! SIMD ≡ scalar equivalence properties for the batch field kernels.
//!
//! Field arithmetic is exact and every element has a unique reduced
//! Montgomery representation, so the AVX2 kernels must be *bit-identical*
//! to the scalar operators on every input — including values hugging the
//! modulus, where the conditional-subtraction paths fire. These
//! properties drive both dispatch paths explicitly; on machines without
//! AVX2 (and under Miri, where feature detection reports false) the
//! vector half is skipped and the scalar half still runs.

use ppcs_math::{
    avx2_available, eval_cloud_many_with, interp_batch, interpolate_at_zero, mul_many_with,
    scale_many_with, square_many_with, Algebra, FixedFpAlgebra, Fp256, Polynomial, SimdBackend,
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

fn backends() -> Vec<SimdBackend> {
    if avx2_available() {
        vec![SimdBackend::Scalar, SimdBackend::Avx2]
    } else {
        vec![SimdBackend::Scalar]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mont_mul_simd_equals_scalar(
        a in prop::collection::vec(fp256_strategy(), 0..24),
        b_seed in prop::collection::vec(fp256_strategy(), 0..24),
    ) {
        let n = a.len().min(b_seed.len());
        let a = &a[..n];
        let b = &b_seed[..n];
        let expect: Vec<Fp256> = a.iter().zip(b).map(|(x, y)| *x * *y).collect();
        for backend in backends() {
            let mut got = a.to_vec();
            mul_many_with(backend, &mut got, b);
            prop_assert_eq!(&got, &expect, "backend {:?}", backend);
        }
    }

    #[test]
    fn square_and_scale_simd_equal_scalar(
        elems in prop::collection::vec(fp256_strategy(), 0..24),
        k in fp256_strategy(),
    ) {
        let sq_expect: Vec<Fp256> = elems.iter().map(|e| e.square()).collect();
        let scale_expect: Vec<Fp256> = elems.iter().map(|e| *e * k).collect();
        for backend in backends() {
            let mut sq = elems.clone();
            square_many_with(backend, &mut sq);
            prop_assert_eq!(&sq, &sq_expect, "square {:?}", backend);
            let mut scaled = elems.clone();
            scale_many_with(backend, &mut scaled, k);
            prop_assert_eq!(&scaled, &scale_expect, "scale {:?}", backend);
        }
    }

    #[test]
    fn batch_eval_simd_equals_polynomial_eval(
        coeffs in prop::collection::vec(fp256_strategy(), 0..12),
        xs in prop::collection::vec(fp256_strategy(), 0..20),
    ) {
        let alg = FixedFpAlgebra::new(16);
        let poly = Polynomial::new(coeffs.clone());
        let expect: Vec<Fp256> = xs.iter().map(|x| poly.eval(&alg, x)).collect();
        for backend in backends() {
            let mut got = vec![Fp256::ZERO; xs.len()];
            eval_cloud_many_with(backend, &coeffs, &xs, &mut got);
            prop_assert_eq!(&got, &expect, "backend {:?}", backend);
        }
        // And the `Algebra` route lands on the same values.
        prop_assert_eq!(poly.eval_many(&alg, &xs), expect);
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

    #[test]
    fn algebra_batch_hooks_equal_scalar_ops(
        a in prop::collection::vec(fp256_strategy(), 0..20),
        b_seed in prop::collection::vec(fp256_strategy(), 0..20),
    ) {
        let alg = FixedFpAlgebra::new(16);
        let n = a.len().min(b_seed.len());
        let a = &a[..n];
        let b = &b_seed[..n];
        let mut prod = a.to_vec();
        alg.mul_many(&mut prod, b);
        for ((x, y), p) in a.iter().zip(b).zip(&prod) {
            prop_assert_eq!(alg.mul(x, y), *p);
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
    for backend in backends() {
        let mut a: Vec<Fp256> = cases.iter().map(|c| c.0).collect();
        let b: Vec<Fp256> = cases.iter().map(|c| c.1).collect();
        let expect: Vec<Fp256> = cases.iter().map(|c| c.2).collect();
        mul_many_with(backend, &mut a, &b);
        assert_eq!(a, expect, "backend {backend:?}");
    }
}
