//! The [`PolyEval`] abstraction over secret-polynomial representations.
//!
//! The OMPE sender only ever *evaluates* its secret polynomial, so the
//! protocol is generic over this trait rather than a concrete
//! representation. Three implementations exist:
//!
//! * [`MvPolynomial`] — general sparse terms (the
//!   degree-4 similarity polynomial, small linear models);
//! * [`DenseAffine`] — a dense degree-1 form `wᵀy + b` (the similarity
//!   protocol's inner-product rounds);
//! * [`DensePoly`] — a dense degree-`p` polynomial over the `n` raw
//!   coordinates, which is what every classification model is served as
//!   (§IV-B: the sender evaluates the monomials itself, so a kernel
//!   model's `n′` coefficients need no exponent vectors and the receiver
//!   hides `n` values, not `n′`).

use core::marker::PhantomData;

use crate::algebra::Algebra;
use crate::fp256::Fp256;
use crate::multinomial::expanded_dimension;
use crate::mvpoly::MvPolynomial;

/// A secret polynomial the OMPE sender can evaluate.
pub trait PolyEval<A: Algebra>: Send + Sync {
    /// Number of input variables.
    fn num_vars(&self) -> usize;
    /// Total degree (an upper bound is acceptable).
    fn total_degree(&self) -> usize;
    /// Evaluates at `y`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `y.len() != self.num_vars()`.
    fn eval(&self, alg: &A, y: &[Fp256]) -> Fp256;
}

impl<A: Algebra> PolyEval<A> for MvPolynomial<A> {
    fn num_vars(&self) -> usize {
        MvPolynomial::num_vars(self)
    }
    fn total_degree(&self) -> usize {
        MvPolynomial::total_degree(self)
    }
    fn eval(&self, alg: &A, y: &[Fp256]) -> Fp256 {
        MvPolynomial::eval(self, alg, y)
    }
}

/// A dense affine polynomial `wᵀy + b` — the shape of every expanded SVM
/// decision function the classification protocol serves.
///
/// # Examples
///
/// ```
/// use ppcs_math::{Algebra, DenseAffine, FixedFpAlgebra, PolyEval};
///
/// let alg = FixedFpAlgebra::new(16);
/// let p = DenseAffine::new(vec![alg.encode_int(1), alg.encode_int(-2)], alg.encode(0.5, 1));
/// let y = [alg.encode(3.0, 1), alg.encode(1.0, 1)];
/// assert_eq!(alg.decode(&p.eval(&alg, &y), 1), 3.0 - 2.0 + 0.5);
/// assert_eq!(p.total_degree(), 1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DenseAffine<A: Algebra> {
    weights: Vec<Fp256>,
    bias: Fp256,
    alg: PhantomData<A>,
}

impl<A: Algebra> DenseAffine<A> {
    /// Builds `wᵀy + b`.
    pub fn new(weights: Vec<Fp256>, bias: Fp256) -> Self {
        Self {
            weights,
            bias,
            alg: PhantomData,
        }
    }

    /// The weight vector.
    pub fn weights(&self) -> &[Fp256] {
        &self.weights
    }

    /// The bias.
    pub fn bias(&self) -> &Fp256 {
        &self.bias
    }

    /// Returns a copy with all coefficients (weights and bias) multiplied
    /// by `k` — the protocol's random amplification.
    pub fn scale(&self, alg: &A, k: &Fp256) -> Self {
        Self::new(
            self.weights.iter().map(|w| alg.mul(w, k)).collect(),
            alg.mul(&self.bias, k),
        )
    }

    /// Returns a copy with `delta` added to the bias.
    pub fn add_constant(&self, alg: &A, delta: &Fp256) -> Self {
        Self::new(self.weights.clone(), alg.add(&self.bias, delta))
    }
}

impl<A: Algebra> PolyEval<A> for DenseAffine<A> {
    fn num_vars(&self) -> usize {
        self.weights.len()
    }
    fn total_degree(&self) -> usize {
        1
    }
    fn eval(&self, alg: &A, y: &[Fp256]) -> Fp256 {
        assert_eq!(
            y.len(),
            self.weights.len(),
            "evaluation point has wrong arity: {} vs {}",
            y.len(),
            self.weights.len()
        );
        alg.add(&self.bias, &alg.dot(&self.weights, y.iter().copied()))
    }
}

/// A dense polynomial `b + Σ_d Σ_{i₁ ≤ … ≤ i_d} c_{i₁…i_d} · y_{i₁} ⋯ y_{i_d}`
/// of total degree `p` over `n` variables: one coefficient block per
/// degree `d = 1..=p`, each listing its `C(n+d−1, d)` monomials as
/// non-decreasing index tuples in lexicographic order (for `n = 2`,
/// `d = 2`: `y₀², y₀y₁, y₁²`). A block below the top one may be empty —
/// a homogeneous kernel has only the top one.
///
/// Evaluation is nested Horner,
/// `b + Σ_i y_i (c_i + Σ_{j≥i} y_j (c_ij + Σ_{k≥j} y_k c_ijk))`:
/// the canonical order is exactly the order the recursion meets the
/// coefficients in, so each block is read front to back and every level
/// is a dot product — the innermost one, which is all but `O(n^{p−1})`
/// of the work, over a contiguous slice of the top block in the
/// form of signed 64-bit fixed-point integers ([`Algebra::dot_coeffs`]),
/// the outer ones over
/// the values the level below returns ([`Algebra::dot`]). One product
/// per multiset of size `≤ p` — `n′ + O(n^{p−1})` for a homogeneous
/// model, `n′` for one with every block — and no allocation.
///
/// # Examples
///
/// ```
/// use ppcs_math::{Algebra, DensePoly, FixedFpAlgebra, PolyEval};
///
/// let alg = FixedFpAlgebra::new(16);
/// let int = |v| alg.encode_int(v);
/// // 5 + 2·y₀ − y₁ + 3·y₀y₁ + y₁²
/// let p = DensePoly::new(2, vec![vec![int(2), int(-1)]], vec![0, 3, 1], int(5));
/// assert_eq!(p.eval(&alg, &[int(2), int(3)]), int(5 + 4 - 3 + 18 + 9));
/// assert_eq!(p.total_degree(), 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DensePoly {
    num_vars: usize,
    /// The degree-`p` coefficients, in canonical order.
    top: Vec<i64>,
    /// `present[d − 1]`: whether degree `d < p` has a block.
    present: Vec<bool>,
    /// The coefficients of every lower block, interleaved in the order
    /// evaluation reads them, so that one cursor serves all of them.
    lower: Vec<Fp256>,
    bias: Fp256,
}

impl DensePoly {
    /// Builds the polynomial from its lower per-degree coefficient
    /// blocks (`lower[d − 1]` holds degree `d < p`), its top-degree
    /// block and its constant term.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` is zero, the top block is empty, or a
    /// non-empty block does not hold `C(n+d−1, d)` coefficients.
    pub fn new(num_vars: usize, lower: Vec<Vec<Fp256>>, top: Vec<i64>, bias: Fp256) -> Self {
        assert!(num_vars > 0, "need at least one variable");
        assert!(!top.is_empty(), "the top-degree block must be present");
        let lens = lower.iter().map(Vec::len).chain([top.len()]);
        for (d, len) in (1u32..).zip(lens) {
            assert!(
                len == 0 || expanded_dimension(num_vars, d) == Some(len as u64),
                "degree-{d} block holds {len} coefficients over {num_vars} variables"
            );
        }
        let mut unread: Vec<_> = lower.iter().map(|block| block.iter()).collect();
        let mut interleaved = Vec::with_capacity(lower.iter().map(Vec::len).sum());
        Self::interleave(num_vars, 0, &mut unread, &mut interleaved);
        Self {
            num_vars,
            top,
            present: lower.iter().map(|block| !block.is_empty()).collect(),
            lower: interleaved,
            bias,
        }
    }

    /// Number of input variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Total degree `p`.
    pub fn total_degree(&self) -> usize {
        self.present.len() + 1
    }

    /// Appends to `out` what is left of the lower blocks `unread`
    /// (shallowest first), in the order [`level`](Self::level) reads
    /// them when it enters the first of those blocks at index `start`.
    fn interleave(
        num_vars: usize,
        start: usize,
        unread: &mut [core::slice::Iter<'_, Fp256>],
        out: &mut Vec<Fp256>,
    ) {
        if let Some((block, deeper)) = unread.split_first_mut() {
            for i in start..num_vars {
                Self::interleave(num_vars, i, deeper, out);
                out.extend(block.next().cloned());
            }
        }
    }

    /// `Σ_i y_i · (c_{…i} + level(y[i..], depth + 1))`, where `c` is the
    /// next unread coefficient of block `depth` (if it has any), `y` the
    /// variables from the last chosen index on and `y_sum` their sum.
    /// `top` and `lower` are what this evaluation has yet to read of the
    /// two arrays.
    fn level(
        &self,
        alg: &impl Algebra,
        y: &[Fp256],
        mut y_sum: Fp256,
        depth: usize,
        top: &mut &[i64],
        lower: &mut &[Fp256],
    ) -> Fp256 {
        let Some(&present) = self.present.get(depth) else {
            let (coeffs, rest) = top.split_at(y.len());
            *top = rest;
            return alg.dot_coeffs(coeffs, y, &y_sum);
        };
        let inners = y.iter().enumerate().map(|(i, y_i)| {
            let inner = self.level(alg, &y[i..], y_sum, depth + 1, top, lower);
            y_sum = alg.sub(&y_sum, y_i);
            if !present {
                return inner;
            }
            let (c, rest) = lower.split_first().expect("sized by `new`");
            *lower = rest;
            alg.add(&inner, c)
        });
        alg.dot(y, inners)
    }
}

impl<A: Algebra> PolyEval<A> for DensePoly {
    fn num_vars(&self) -> usize {
        DensePoly::num_vars(self)
    }
    fn total_degree(&self) -> usize {
        DensePoly::total_degree(self)
    }
    fn eval(&self, alg: &A, y: &[Fp256]) -> Fp256 {
        assert_eq!(
            y.len(),
            self.num_vars,
            "evaluation point has wrong arity: {} vs {}",
            y.len(),
            self.num_vars
        );
        let y_sum = y.iter().fold(alg.zero(), |sum, y_i| alg.add(&sum, y_i));
        let (top, lower) = (&mut &self.top[..], &mut &self.lower[..]);
        alg.add(&self.bias, &self.level(alg, y, y_sum, 0, top, lower))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::FixedFpAlgebra;

    #[test]
    fn dense_affine_matches_mvpolynomial() {
        let alg = FixedFpAlgebra::new(16);
        let w: Vec<Fp256> = [0.5, -1.5, 2.0].iter().map(|&v| alg.encode(v, 1)).collect();
        let bias = alg.encode(-0.25, 2);
        let dense = DenseAffine::new(w.clone(), bias);
        let sparse = MvPolynomial::affine(&alg, &w, bias);
        let y: Vec<Fp256> = [1.0, 2.0, -0.5].iter().map(|&v| alg.encode(v, 1)).collect();
        assert_eq!(PolyEval::eval(&dense, &alg, &y), sparse.eval(&alg, &y));
        assert_eq!(PolyEval::total_degree(&dense), 1);
        assert_eq!(PolyEval::num_vars(&dense), 3);
    }

    #[test]
    fn scale_and_add_constant() {
        let alg = FixedFpAlgebra::new(16);
        let dense = DenseAffine::new(vec![alg.encode(1.0, 1)], alg.encode(2.0, 2));
        let k = alg.encode_int(3);
        let scaled = dense.scale(&alg, &k);
        let y = [alg.encode(0.5, 1)];
        let got = alg.decode(&PolyEval::eval(&scaled, &alg, &y), 2);
        assert!((got - 3.0 * (0.5 + 2.0)).abs() < 1e-3);
        let shifted = dense.add_constant(&alg, &alg.encode(1.0, 2));
        let got2 = alg.decode(&PolyEval::eval(&shifted, &alg, &y), 2);
        assert!((got2 - (0.5 + 3.0)).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn dense_affine_rejects_wrong_arity() {
        let alg = FixedFpAlgebra::new(16);
        let dense = DenseAffine::new(vec![Fp256::ONE, Fp256::ONE], Fp256::ZERO);
        let _ = PolyEval::eval(&dense, &alg, &[Fp256::ONE]);
    }
}
