//! Property tests of `DensePoly`'s nested-Horner evaluator against the
//! definition it implements: `b + Σ_monomials c · Π y_i`, the monomials
//! of each degree listed as non-decreasing index tuples in lexicographic
//! order.

use ppcs_math::{Algebra, DensePoly, FixedFpAlgebra, Fp256, PolyEval};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;

/// Every non-decreasing tuple of `degree` indices below `dim`, in
/// lexicographic order — written independently of the evaluator.
fn multisets(dim: usize, degree: u32) -> Vec<Vec<usize>> {
    fn extend(dim: usize, left: u32, tuple: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if left == 0 {
            out.push(tuple.clone());
            return;
        }
        for i in tuple.last().copied().unwrap_or(0)..dim {
            tuple.push(i);
            extend(dim, left - 1, tuple, out);
            tuple.pop();
        }
    }
    let mut out = Vec::new();
    extend(dim, degree, &mut Vec::new(), &mut out);
    out
}

/// A random model over `alg` (blocks for `lowest..=degree`, the rest
/// empty) and a random point, with the term-by-term value of the one at
/// the other. `elem` draws a point coordinate or lower coefficient,
/// `coeff` a top coefficient as a signed integer and as the element the
/// definition multiplies by.
fn model_point_and_definition(
    alg: &FixedFpAlgebra,
    dim: usize,
    lowest: u32,
    degree: u32,
    mut elem: impl FnMut() -> Fp256,
    mut coeff: impl FnMut() -> (i64, Fp256),
) -> (DensePoly, Vec<Fp256>, Fp256) {
    let y: Vec<Fp256> = (0..dim).map(|_| elem()).collect();
    let bias = elem();
    let mut expected = bias;
    let mut term = |c: &Fp256, tuple: &[usize]| {
        let term = tuple.iter().fold(*c, |t, &i| alg.mul(&t, &y[i]));
        expected = alg.add(&expected, &term);
    };
    let lower = (1..degree)
        .map(|d| {
            let tuples = if d < lowest {
                Vec::new()
            } else {
                multisets(dim, d)
            };
            tuples
                .iter()
                .map(|tuple| {
                    let c = elem();
                    term(&c, tuple);
                    c
                })
                .collect()
        })
        .collect();
    let top = multisets(dim, degree)
        .iter()
        .map(|tuple| {
            let (narrow, c) = coeff();
            term(&c, tuple);
            narrow
        })
        .collect();
    (DensePoly::new(dim, lower, top, bias), y, expected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn nested_horner_is_exact_over_the_field(
        dim in 1usize..=6,
        degree in 1u32..=5,
        homogeneous in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Uniform points and lower coefficients (what a cloud and an
        // amplified model look like), top coefficients over the whole
        // signed 63-bit range the narrow form admits.
        let alg = FixedFpAlgebra::new(16);
        let lowest = if homogeneous { degree } else { 1 };
        let rng = RefCell::new(StdRng::seed_from_u64(seed));
        let (poly, y, expected) = model_point_and_definition(
            &alg,
            dim,
            lowest,
            degree,
            || alg.random_mask(&mut *rng.borrow_mut()),
            || {
                let c = rng.borrow_mut().gen_range(-i64::MAX..=i64::MAX);
                (c, alg.encode_int(c))
            },
        );
        prop_assert_eq!(poly.total_degree(), degree as usize);
        prop_assert_eq!(poly.num_vars(), dim);
        prop_assert_eq!(poly.eval(&alg, &y), expected);
    }
}

#[test]
#[should_panic(expected = "degree-2 block holds 2 coefficients")]
fn a_block_of_the_wrong_size_is_refused() {
    let _ = DensePoly::new(2, vec![vec![Fp256::ONE; 2]], vec![1, 1], Fp256::ZERO);
}

#[test]
#[should_panic(expected = "wrong arity")]
fn eval_rejects_wrong_arity() {
    let alg = FixedFpAlgebra::new(16);
    let p = DensePoly::new(2, Vec::new(), vec![1, 1], Fp256::ZERO);
    let _ = p.eval(&alg, &[Fp256::ONE]);
}
