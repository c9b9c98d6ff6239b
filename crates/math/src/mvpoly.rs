//! Sparse multivariate polynomials — the general form of the sender's
//! secret `P(y)` in OMPE.
//!
//! The similarity protocol feeds OMPE the two-variate degree-4 polynomial
//! `T²(x₁, x₂)` in this form. Classification models — an `n`-variate
//! polynomial of the kernel's degree `p` with up to `C(n+p, p) − 1`
//! coefficients — are dense, and served as
//! [`DensePoly`](crate::DensePoly), which needs no exponent vectors.

use core::marker::PhantomData;

use crate::algebra::Algebra;
use crate::fp256::Fp256;

/// One term `c · Π_i y_i^{e_i}` of a multivariate polynomial.
#[derive(Clone, Debug, PartialEq)]
pub struct MvTerm {
    /// The coefficient.
    pub coeff: Fp256,
    /// Exponents per variable; indices beyond `exponents.len()` are zero.
    pub exponents: Vec<u32>,
}

/// A sparse multivariate polynomial, evaluated with `A`.
///
/// # Examples
///
/// ```
/// use ppcs_math::{Algebra, FixedFpAlgebra, MvPolynomial};
///
/// // P(y1, y2) = 3·y1·y2² - y1 + 4
/// let alg = FixedFpAlgebra::new(16);
/// let p = MvPolynomial::<FixedFpAlgebra>::from_terms(
///     2,
///     vec![
///         (alg.encode_int(3), vec![1, 2]),
///         (alg.encode_int(-1), vec![1, 0]),
///         (alg.encode_int(4), vec![0, 0]),
///     ],
/// );
/// let y = [alg.encode_int(2), alg.encode_int(-1)];
/// assert_eq!(p.eval(&alg, &y), alg.encode_int(3 * 2 * 1 - 2 + 4));
/// assert_eq!(p.total_degree(), 3);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MvPolynomial<A: Algebra> {
    num_vars: usize,
    terms: Vec<MvTerm>,
    alg: PhantomData<A>,
}

impl<A: Algebra> MvPolynomial<A> {
    /// Builds a polynomial over `num_vars` variables from `(coeff,
    /// exponents)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if any exponent vector is longer than `num_vars`.
    pub fn from_terms(num_vars: usize, terms: Vec<(Fp256, Vec<u32>)>) -> Self {
        let terms = terms
            .into_iter()
            .map(|(coeff, exponents)| {
                assert!(
                    exponents.len() <= num_vars,
                    "term has {} exponents but polynomial has {} variables",
                    exponents.len(),
                    num_vars
                );
                MvTerm { coeff, exponents }
            })
            .collect();
        Self {
            num_vars,
            terms,
            alg: PhantomData,
        }
    }

    /// Builds the affine polynomial `w·y + b` — the linear SVM decision
    /// function shape.
    pub fn affine(alg: &A, weights: &[Fp256], bias: Fp256) -> Self {
        let mut terms = Vec::with_capacity(weights.len() + 1);
        for (i, w) in weights.iter().enumerate() {
            if alg.is_zero(w) {
                continue;
            }
            let mut e = vec![0u32; i + 1];
            e[i] = 1;
            terms.push((*w, e));
        }
        terms.push((bias, Vec::new()));
        Self::from_terms(weights.len(), terms)
    }

    /// The number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The terms of the polynomial.
    pub fn terms(&self) -> &[MvTerm] {
        &self.terms
    }

    /// The total degree (max over terms of the exponent sum); 0 if empty.
    pub fn total_degree(&self) -> usize {
        self.terms
            .iter()
            .map(|t| t.exponents.iter().map(|&e| e as usize).sum())
            .max()
            .unwrap_or(0)
    }

    /// Evaluates at the point `y`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != num_vars`.
    pub fn eval(&self, alg: &A, y: &[Fp256]) -> Fp256 {
        assert_eq!(
            y.len(),
            self.num_vars,
            "evaluation point has wrong arity: {} vs {}",
            y.len(),
            self.num_vars
        );
        let mut acc = alg.zero();
        for term in &self.terms {
            let mut t = term.coeff;
            for (i, &e) in term.exponents.iter().enumerate() {
                for _ in 0..e {
                    t = alg.mul(&t, &y[i]);
                }
            }
            acc = alg.add(&acc, &t);
        }
        acc
    }

    /// Returns a copy with every coefficient multiplied by `k` — the
    /// paper's random amplification `d'(t) = r_a · d(t)`.
    pub fn scale(&self, alg: &A, k: &Fp256) -> Self {
        Self {
            num_vars: self.num_vars,
            terms: self
                .terms
                .iter()
                .map(|t| MvTerm {
                    coeff: alg.mul(&t.coeff, k),
                    exponents: t.exponents.clone(),
                })
                .collect(),
            alg: PhantomData,
        }
    }

    /// Returns a copy with `delta` added to the constant term — the
    /// paper's additive blinding `d'(t) = r_aw·d(t) + r_b`.
    pub fn add_constant(&self, alg: &A, delta: &Fp256) -> Self {
        let mut out = self.clone();
        if let Some(t) = out
            .terms
            .iter_mut()
            .find(|t| t.exponents.iter().all(|&e| e == 0))
        {
            t.coeff = alg.add(&t.coeff, delta);
        } else {
            out.terms.push(MvTerm {
                coeff: *delta,
                exponents: Vec::new(),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::FixedFpAlgebra;

    fn ints(alg: &FixedFpAlgebra, vs: &[i64]) -> Vec<Fp256> {
        vs.iter().map(|&v| alg.encode_int(v)).collect()
    }

    #[test]
    fn affine_matches_dot_product() {
        let alg = FixedFpAlgebra::new(16);
        let p = MvPolynomial::affine(&alg, &ints(&alg, &[4, -2, 1]), alg.encode_int(3));
        let y = ints(&alg, &[3, 1, 4]);
        assert_eq!(p.eval(&alg, &y), alg.encode_int(12 - 2 + 4 + 3));
        assert_eq!(p.total_degree(), 1);
        assert_eq!(p.num_vars(), 3);
    }

    #[test]
    fn affine_skips_zero_weights() {
        let alg = FixedFpAlgebra::new(16);
        let p = MvPolynomial::affine(&alg, &ints(&alg, &[0, 2]), alg.encode_int(1));
        // one weight term + bias
        assert_eq!(p.terms().len(), 2);
        assert_eq!(p.eval(&alg, &ints(&alg, &[100, 3])), alg.encode_int(7));
    }

    #[test]
    fn scale_and_add_constant() {
        let alg = FixedFpAlgebra::new(16);
        let p = MvPolynomial::affine(&alg, &ints(&alg, &[2]), alg.encode_int(-1));
        let five = ints(&alg, &[5]);
        let scaled = p.scale(&alg, &alg.encode_int(3));
        assert_eq!(scaled.eval(&alg, &five), alg.encode_int(3 * (10 - 1)));
        let shifted = scaled.add_constant(&alg, &alg.encode_int(7));
        assert_eq!(shifted.eval(&alg, &five), alg.encode_int(27 + 7));
        // add_constant on a polynomial with no constant term appends one.
        let noconst = MvPolynomial::from_terms(1, vec![(alg.encode_int(2), vec![1])]);
        let at_zero = noconst.add_constant(&alg, &alg.encode_int(5));
        assert_eq!(at_zero.eval(&alg, &[Fp256::ZERO]), alg.encode_int(5));
    }

    #[test]
    fn degree_four_over_field() {
        let alg = FixedFpAlgebra::new(12);
        // (y1 - 2)^2 · (y2 + 1)^2 expanded
        let terms = vec![
            (alg.encode(1.0, 0), vec![2, 2]),
            (alg.encode(2.0, 0), vec![2, 1]),
            (alg.encode(1.0, 0), vec![2, 0]),
            (alg.encode(-4.0, 0), vec![1, 2]),
            (alg.encode(-8.0, 0), vec![1, 1]),
            (alg.encode(-4.0, 0), vec![1, 0]),
            (alg.encode(4.0, 0), vec![0, 2]),
            (alg.encode(8.0, 0), vec![0, 1]),
            (alg.encode(4.0, 0), vec![0, 0]),
        ];
        let p = MvPolynomial::from_terms(2, terms);
        assert_eq!(p.total_degree(), 4);
        let y1 = alg.encode(5.0, 0);
        let y2 = alg.encode(3.0, 0);
        let got = alg.decode(&p.eval(&alg, &[y1, y2]), 0);
        let want = (5.0f64 - 2.0).powi(2) * (3.0f64 + 1.0).powi(2);
        assert!((got - want).abs() < 1e-6, "got {got}, want {want}");
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn eval_rejects_wrong_arity() {
        let alg = FixedFpAlgebra::new(16);
        let p = MvPolynomial::affine(&alg, &ints(&alg, &[1, 1]), Fp256::ZERO);
        let _ = p.eval(&alg, &[Fp256::ONE]);
    }
}
