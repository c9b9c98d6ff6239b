//! # ppcs-math
//!
//! Number systems and polynomial algebra underlying the ppcs
//! privacy-preserving classification and similarity-evaluation protocols
//! (Jia, Guo, Jin, Fang — ICDCS 2016).
//!
//! The crate provides:
//!
//! * [`Fp256`] — an in-tree 256-bit prime field over the secp256k1
//!   prime, stored in canonical form and reduced by the prime's sparse
//!   fold, cross-checked against `num-bigint` in tests;
//! * [`Algebra`] / [`FixedFpAlgebra`] — the field arithmetic and the
//!   fixed-point encoding of reals into it that every protocol computes
//!   with;
//! * [`Polynomial`] / [`MvPolynomial`] — the masking and secret
//!   polynomials of the OMPE construction;
//! * [`interpolate_at_zero`] / [`interp_batch`] — the Lagrange retrieval
//!   step (Eq. 3), single-system and batched, at any abscissae; the
//!   protocols' clouds sit at the public points `1..=N`, whose weights
//!   [`lagrange_zero_weights_small`] gives with no inversion;
//! * [`eval_cloud_many`] — one polynomial over a whole point cloud, the
//!   batch form of [`Polynomial::eval`];
//! * monomial-basis expansion of polynomial kernels
//!   ([`monomial_exponents`], [`expand_power_dot`]) used by the nonlinear
//!   protocol of Section IV-B.
//!
//! Every kernel is one portable scalar loop.
//!
//! ## Example
//!
//! ```
//! use ppcs_math::{Algebra, FixedFpAlgebra, Polynomial, interpolate_at_zero};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), ppcs_math::InterpolationError> {
//! let alg = FixedFpAlgebra::new(16);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//!
//! // Hide a secret in the constant term of a random degree-5 polynomial,
//! // then recover it from 6 evaluations — exactly what the protocol's
//! // retrieval phase does.
//! let secret = alg.encode(0.625, 1);
//! let mask = Polynomial::random_with_constant(&alg, 5, secret, &mut rng);
//! let points: Vec<_> = (0..6)
//!     .map(|_| {
//!         let x = alg.random_point(&mut rng);
//!         let y = mask.eval(&alg, &x);
//!         (x, y)
//!     })
//!     .collect();
//! let recovered = interpolate_at_zero(&alg, &points)?;
//! assert_eq!(alg.decode(&recovered, 1), 0.625);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algebra;
mod eval;
mod fp256;
mod interp;
mod multinomial;
mod mvpoly;
mod poly;

pub use algebra::{Algebra, FixedFpAlgebra};
pub use eval::{DenseAffine, DensePoly, PolyEval};
pub use fp256::{Fp256, MODULUS};
pub use interp::{
    interp_batch, interpolate_at_zero, interpolate_at_zero_weighted, interpolate_coeffs,
    lagrange_zero_weights, lagrange_zero_weights_batch, lagrange_zero_weights_small,
    InterpolationError,
};
pub use multinomial::{
    binomial, expand_power_dot, expanded_dimension, monomial_exponents, monomial_features,
    multinomial_coeff,
};
pub use mvpoly::{MvPolynomial, MvTerm};
pub use poly::{eval_cloud_many, simd_backend, Polynomial, SimdBackend};
