//! Lagrange interpolation — the retrieval step (Eq. 3) of the protocols.
//!
//! After the oblivious transfer, the receiver holds `m = q + 1` pairs
//! `(v_i, B(v_i))` of a degree-`q` univariate polynomial and needs `B(0)`.
//! [`interpolate_at_zero`] computes exactly that without reconstructing the
//! coefficient vector; [`interpolate_coeffs`] recovers the full polynomial
//! (used by tests and by the privacy experiments that *attempt* to extract
//! information from transcripts).

use crate::algebra::Algebra;
use crate::fp256::Fp256;
use crate::poly::Polynomial;

/// Errors from interpolation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterpolationError {
    /// Fewer than one point supplied.
    Empty,
    /// Two supplied abscissae coincide, so no unique interpolant exists.
    DuplicateAbscissa,
    /// An abscissa was zero; the protocols evaluate at zero, so sample
    /// points must avoid it.
    ZeroAbscissa,
}

impl core::fmt::Display for InterpolationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Empty => write!(f, "no interpolation points supplied"),
            Self::DuplicateAbscissa => write!(f, "duplicate abscissa in interpolation points"),
            Self::ZeroAbscissa => write!(f, "abscissa zero is reserved for the secret"),
        }
    }
}

impl std::error::Error for InterpolationError {}

/// Evaluates the unique degree-`(n-1)` interpolant of `points` at zero.
///
/// This is Eq. (3) of the paper specialized to `v = 0`:
/// `B(0) = Σ_j y_j Π_{i≠j} (-v_i)/(v_j - v_i)`.
///
/// # Errors
///
/// Returns an error if `points` is empty, contains a duplicate abscissa,
/// or contains the abscissa zero.
///
/// # Examples
///
/// ```
/// use ppcs_math::{interpolate_at_zero, Fp256, FixedFpAlgebra};
///
/// // B(v) = 5 - 2v; two points determine it.
/// let alg = FixedFpAlgebra::new(16);
/// let pt = |x, y| (Fp256::from_u64(x), Fp256::from_i64(y));
/// let b0 = interpolate_at_zero(&alg, &[pt(1, 3), pt(3, -1)])?;
/// assert_eq!(b0, Fp256::from_u64(5));
/// # Ok::<(), ppcs_math::InterpolationError>(())
/// ```
pub fn interpolate_at_zero<A: Algebra>(
    alg: &A,
    points: &[(Fp256, Fp256)],
) -> Result<Fp256, InterpolationError> {
    let xs: Vec<Fp256> = points.iter().map(|(x, _)| *x).collect();
    let weights = lagrange_zero_weights(alg, &xs)?;
    Ok(weighted_sum(alg, &weights, points.iter().map(|(_, y)| y)))
}

/// Evaluates many independent interpolation systems at zero, sharing a
/// single batch inversion across all of them.
///
/// Returns `out[k] = interpolate_at_zero(alg, &systems[k])` — results are
/// bit-identical to the one-at-a-time calls, because field inverses are
/// unique — but pays *one* Fermat inversion for the entire batch
/// instead of one per system (see [`lagrange_zero_weights_batch`]). This
/// is the retrieval step of a whole batch OMPE session in one call.
///
/// # Errors
///
/// Returns the first validation error across the systems, checked in
/// order; in that case nothing is computed.
pub fn interp_batch<A: Algebra>(
    alg: &A,
    systems: &[Vec<(Fp256, Fp256)>],
) -> Result<Vec<Fp256>, InterpolationError> {
    let sets: Vec<Vec<Fp256>> = systems
        .iter()
        .map(|points| points.iter().map(|(x, _)| *x).collect())
        .collect();
    let weights = lagrange_zero_weights_batch(alg, &sets)?;
    Ok(systems
        .iter()
        .zip(&weights)
        .map(|(points, w)| weighted_sum(alg, w, points.iter().map(|(_, y)| y)))
        .collect())
}

/// Precomputes the Lagrange-at-zero weights for a fixed abscissa set.
///
/// Returns `c_j = Π_{i≠j} (-x_i)/(x_j - x_i)`, so that for *any* ordinate
/// vector over the same abscissae, `B(0) = Σ_j c_j · y_j` — see
/// [`interpolate_at_zero_weighted`]. This is the input-independent half of
/// the retrieval step: a receiver that fixes its point cloud offline can
/// compute the weights once and reduce the online retrieval to one dot
/// product per round.
///
/// # Errors
///
/// Same conditions as [`interpolate_at_zero`]: empty input, duplicate
/// abscissa, or the reserved abscissa zero.
pub fn lagrange_zero_weights<A: Algebra>(
    alg: &A,
    xs: &[Fp256],
) -> Result<Vec<Fp256>, InterpolationError> {
    Ok(lagrange_zero_weights_batch(alg, &[xs])?.concat())
}

/// The [Lagrange-at-zero weights](lagrange_zero_weights) of every
/// abscissa set in `sets`, `out[k]` for `sets[k]`, with every
/// denominator of every set inverted together: one field inversion for
/// the whole batch. The weights are bit-identical to one call per set,
/// field inverses being unique. Every other retrieval routine here is a
/// caller of this one.
///
/// # Errors
///
/// Returns the first validation error across the sets, checked in
/// order: an empty set, a duplicate abscissa, or the abscissa zero.
pub fn lagrange_zero_weights_batch<A: Algebra, S: AsRef<[Fp256]>>(
    alg: &A,
    sets: &[S],
) -> Result<Vec<Vec<Fp256>>, InterpolationError> {
    for xs in sets {
        validate(alg, xs.as_ref())?;
    }
    let total: usize = sets.iter().map(|xs| xs.as_ref().len()).sum();
    let mut nums = Vec::with_capacity(total);
    let mut dens = Vec::with_capacity(total);
    for xs in sets {
        let xs = xs.as_ref();
        for (j, xj) in xs.iter().enumerate() {
            let mut num = alg.one();
            let mut den = alg.one();
            for (_, xi) in xs.iter().enumerate().filter(|&(i, _)| i != j) {
                num = alg.mul(&num, &alg.neg(xi));
                den = alg.mul(&den, &alg.sub(xj, xi));
            }
            nums.push(num);
            dens.push(den);
        }
    }
    // Every denominator is a product of differences of distinct
    // abscissae, so none is zero once the sets are validated.
    let inverses = alg
        .batch_inv(&dens)
        .ok_or(InterpolationError::DuplicateAbscissa)?;
    for (num, inv) in nums.iter_mut().zip(&inverses) {
        *num = alg.mul(num, inv);
    }
    let mut weights = nums.into_iter();
    Ok(sets
        .iter()
        .map(|xs| weights.by_ref().take(xs.as_ref().len()).collect())
        .collect())
}

fn weighted_sum<'a>(
    alg: &impl Algebra,
    weights: &[Fp256],
    ys: impl Iterator<Item = &'a Fp256>,
) -> Fp256 {
    weights
        .iter()
        .zip(ys)
        .fold(alg.zero(), |acc, (w, y)| alg.add(&acc, &alg.mul(y, w)))
}

/// Evaluates the interpolant at zero from precomputed weights.
///
/// `weights` must come from [`lagrange_zero_weights`] over the same
/// abscissae (in the same order) that produced `ys`; the result is then
/// bit-identical to [`interpolate_at_zero`] on the zipped points. The
/// caller is responsible for the pairing — this function only checks the
/// lengths match.
///
/// # Errors
///
/// Returns [`InterpolationError::Empty`] if `weights` and `ys` have
/// different lengths or are empty.
pub fn interpolate_at_zero_weighted<A: Algebra>(
    alg: &A,
    weights: &[Fp256],
    ys: &[Fp256],
) -> Result<Fp256, InterpolationError> {
    if weights.is_empty() || weights.len() != ys.len() {
        return Err(InterpolationError::Empty);
    }
    Ok(weighted_sum(alg, weights, ys.iter()))
}

/// Recovers the full coefficient vector of the interpolant.
///
/// # Errors
///
/// Same conditions as [`interpolate_at_zero`], except that a zero abscissa
/// is permitted here (coefficient recovery does not reserve the origin).
pub fn interpolate_coeffs<A: Algebra>(
    alg: &A,
    points: &[(Fp256, Fp256)],
) -> Result<Polynomial, InterpolationError> {
    if points.is_empty() {
        return Err(InterpolationError::Empty);
    }
    for (i, (xi, _)) in points.iter().enumerate() {
        for (xj, _) in points.iter().skip(i + 1) {
            if xi == xj {
                return Err(InterpolationError::DuplicateAbscissa);
            }
        }
    }
    let mut result = Polynomial::zero();
    for (j, (xj, yj)) in points.iter().enumerate() {
        // Basis polynomial L_j(x) = Π_{i≠j} (x - x_i) / (x_j - x_i).
        let mut basis = Polynomial::constant(alg.one());
        let mut den = alg.one();
        for (i, (xi, _)) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            basis = basis.mul(alg, &Polynomial::new(vec![alg.neg(xi), alg.one()]));
            den = alg.mul(&den, &alg.sub(xj, xi));
        }
        let weight = alg.mul(
            yj,
            &alg.inv(&den)
                .expect("denominator nonzero: abscissae are distinct"),
        );
        result = result.add(alg, &basis.scale(alg, &weight));
    }
    Ok(result)
}

fn validate(alg: &impl Algebra, xs: &[Fp256]) -> Result<(), InterpolationError> {
    if xs.is_empty() {
        return Err(InterpolationError::Empty);
    }
    for (i, xi) in xs.iter().enumerate() {
        if alg.is_zero(xi) {
            return Err(InterpolationError::ZeroAbscissa);
        }
        for xj in xs.iter().skip(i + 1) {
            if xi == xj {
                return Err(InterpolationError::DuplicateAbscissa);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::FixedFpAlgebra;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn recovers_constant_term_over_f64() {
        // The real 0.423 through the field: what comes back is it to
        // within its 2^-17 encoding (the float backend's 1e-6 was its
        // interpolation rounding).
        let alg = FixedFpAlgebra::new(16);
        let mut rng = StdRng::seed_from_u64(11);
        for degree in 1..12 {
            let constant = alg.encode(0.423, 1);
            let p = Polynomial::random_with_constant(&alg, degree, constant, &mut rng);
            let pts: Vec<(Fp256, Fp256)> = (0..=degree)
                .map(|_| {
                    let x = alg.random_point(&mut rng);
                    (x, p.eval(&alg, &x))
                })
                .collect();
            let b0 = alg.decode(&interpolate_at_zero(&alg, &pts).unwrap(), 1);
            assert!(
                (b0 - 0.423).abs() < 1e-5,
                "degree {degree}: got {b0}, want 0.423"
            );
        }
    }

    #[test]
    fn recovers_constant_term_over_field_exactly() {
        let alg = FixedFpAlgebra::new(16);
        let mut rng = StdRng::seed_from_u64(12);
        let secret = alg.encode(-7.25, 2);
        for degree in 1..12 {
            let p = Polynomial::random_with_constant(&alg, degree, secret, &mut rng);
            let pts: Vec<(Fp256, Fp256)> = (0..=degree)
                .map(|_| {
                    let x = alg.random_point(&mut rng);
                    let y = p.eval(&alg, &x);
                    (x, y)
                })
                .collect();
            let b0 = interpolate_at_zero(&alg, &pts).unwrap();
            assert_eq!(b0, secret, "field interpolation must be exact");
        }
    }

    #[test]
    fn full_coefficient_recovery() {
        let alg = FixedFpAlgebra::new(16);
        let mut rng = StdRng::seed_from_u64(13);
        let p = Polynomial::random_with_constant(&alg, 2, alg.encode(1.0, 1), &mut rng);
        let pts: Vec<(Fp256, Fp256)> = [0, 2, 5]
            .iter()
            .map(|&x| (Fp256::from_u64(x), p.eval(&alg, &Fp256::from_u64(x))))
            .collect();
        let q = interpolate_coeffs(&alg, &pts).unwrap();
        assert_eq!(p.coeffs(), q.coeffs());
    }

    #[test]
    fn rejects_bad_inputs() {
        let alg = FixedFpAlgebra::new(16);
        let (one, two, three) = (Fp256::from_u64(1), Fp256::from_u64(2), Fp256::from_u64(3));
        assert_eq!(
            interpolate_at_zero(&alg, &[]),
            Err(InterpolationError::Empty)
        );
        assert_eq!(
            interpolate_at_zero(&alg, &[(one, two), (one, three)]),
            Err(InterpolationError::DuplicateAbscissa)
        );
        assert_eq!(
            interpolate_at_zero(&alg, &[(Fp256::ZERO, two)]),
            Err(InterpolationError::ZeroAbscissa)
        );
    }

    #[test]
    fn interp_batch_matches_single_system_calls() {
        let alg = FixedFpAlgebra::new(16);
        let mut rng = StdRng::seed_from_u64(31);
        let mut systems = Vec::new();
        for degree in [1usize, 3, 5, 8] {
            let secret = alg.encode(0.5 + degree as f64, 1);
            let p = Polynomial::random_with_constant(&alg, degree, secret, &mut rng);
            let pts: Vec<(Fp256, Fp256)> = (0..=degree)
                .map(|_| {
                    let x = alg.random_point(&mut rng);
                    (x, p.eval(&alg, &x))
                })
                .collect();
            systems.push(pts);
        }
        let batch = interp_batch(&alg, &systems).unwrap();
        for (pts, b) in systems.iter().zip(&batch) {
            assert_eq!(interpolate_at_zero(&alg, pts).unwrap(), *b);
        }
        // Empty batch is fine; a bad system surfaces its error.
        assert_eq!(interp_batch(&alg, &[]), Ok(Vec::new()));
        let bad = vec![systems[0].clone(), Vec::new()];
        assert_eq!(interp_batch(&alg, &bad), Err(InterpolationError::Empty));
    }

    #[test]
    fn weighted_interpolation_matches_direct() {
        let alg = FixedFpAlgebra::new(16);
        let mut rng = StdRng::seed_from_u64(41);
        let xs: Vec<Fp256> = (0..7).map(|_| alg.random_point(&mut rng)).collect();
        let weights = lagrange_zero_weights(&alg, &xs).unwrap();
        // Same abscissae, two different ordinate vectors: weights are
        // reusable and results are bit-identical to the direct path.
        for seed in [1u64, 2] {
            let mut prng = StdRng::seed_from_u64(seed);
            let p = Polynomial::random_with_constant(&alg, 6, alg.encode(2.5, 1), &mut prng);
            let ys: Vec<Fp256> = xs.iter().map(|x| p.eval(&alg, x)).collect();
            let pts: Vec<(Fp256, Fp256)> = xs.iter().cloned().zip(ys.iter().cloned()).collect();
            let direct = interpolate_at_zero(&alg, &pts).unwrap();
            let weighted = interpolate_at_zero_weighted(&alg, &weights, &ys).unwrap();
            assert_eq!(direct, weighted);
        }

        // Validation mirrors the direct path, plus a length check.
        assert_eq!(
            lagrange_zero_weights(&alg, &[]),
            Err(InterpolationError::Empty)
        );
        assert_eq!(
            lagrange_zero_weights(&alg, &[alg.zero()]),
            Err(InterpolationError::ZeroAbscissa)
        );
        assert_eq!(
            lagrange_zero_weights(&alg, &[xs[0], xs[0]]),
            Err(InterpolationError::DuplicateAbscissa)
        );
        assert_eq!(
            interpolate_at_zero_weighted(&alg, &weights, &weights[..3]),
            Err(InterpolationError::Empty)
        );
    }

    #[test]
    fn batched_weights_equal_one_set_at_a_time() {
        let alg = FixedFpAlgebra::new(16);
        let mut rng = StdRng::seed_from_u64(51);
        let sets: Vec<Vec<Fp256>> = [4usize, 1, 13, 4]
            .iter()
            .map(|&m| (0..m).map(|_| alg.random_point(&mut rng)).collect())
            .collect();
        let batch = lagrange_zero_weights_batch(&alg, &sets).unwrap();
        assert_eq!(batch.len(), sets.len());
        for (xs, w) in sets.iter().zip(&batch) {
            assert_eq!(&lagrange_zero_weights(&alg, xs).unwrap(), w);
        }
        assert_eq!(
            lagrange_zero_weights_batch::<_, Vec<Fp256>>(&alg, &[]),
            Ok(Vec::new())
        );
        // The first bad set, in order, is the error.
        let bad = [sets[0].clone(), vec![sets[1][0]; 2], Vec::new()];
        assert_eq!(
            lagrange_zero_weights_batch(&alg, &bad),
            Err(InterpolationError::DuplicateAbscissa)
        );
    }

    #[test]
    fn interpolation_is_exact_on_random_field_samples() {
        // Property-style check: interpolating more points of the same
        // polynomial still returns the same value at zero.
        let alg = FixedFpAlgebra::new(12);
        let mut rng = StdRng::seed_from_u64(99);
        let p = Polynomial::random_with_constant(&alg, 6, alg.encode(3.5, 1), &mut rng);
        for extra in 0..4 {
            let pts: Vec<_> = (0..(7 + extra))
                .map(|_| {
                    let x: Fp256 = Fp256::from_u64(rng.gen_range(1..1u64 << 40));
                    (x, p.eval(&alg, &x))
                })
                .collect();
            let b0 = interpolate_at_zero(&alg, &pts).unwrap();
            assert_eq!(alg.decode(&b0, 1), 3.5);
        }
    }
}
