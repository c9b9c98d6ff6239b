//! The privacy experiments of Section VI-A: the model-estimation attack
//! (Fig. 5) and the tangent/distance-based retrieval attack (Fig. 6).
//!
//! Both experiments play a *colluding client coalition* that pools the
//! values it received from classification sessions and tries to
//! reconstruct the trainer's linear decision function. The defense under
//! test is the amplifier randomization: every session returns
//! `r_a·d(t̃)` with a fresh positive `r_a`, so pooled values are mutually
//! inconsistent and least-squares estimation rambles (Fig. 5); without
//! the amplifier, `n + 1` exact distance values pin the hyperplane down
//! (Fig. 6).
//!
//! **Reproduction finding.** The fresh amplifier is multiplicative,
//! *positive* noise, so `E[r_a·d(t) | t] ∝ d(t)`: least squares over the
//! pooled values is a *consistent* (if slow) estimator of the boundary
//! direction. At the coalition sizes the paper plots (≤ 50 samples) the
//! estimates do ramble exactly as Fig. 5 shows — the heavy-tailed
//! amplifier keeps the effective noise-to-signal ratio near 0.58 per
//! sample — but the protection is statistical degradation, not
//! information-theoretic hiding, and it thins as collusion grows.
//! `EXPERIMENTS.md` quantifies the convergence rate.

use rand::Rng;
use rand::RngCore;

/// Outcome of one estimation attempt.
#[derive(Clone, Debug, PartialEq)]
pub struct EstimationOutcome {
    /// Number of pooled classification values used.
    pub num_samples: usize,
    /// The estimated weight vector (normalized).
    pub estimated_direction: Vec<f64>,
    /// The estimated offset (of the normalized line).
    pub estimated_offset: f64,
    /// Angle between the estimated and true hyperplanes, in degrees.
    pub angle_error_deg: f64,
}

/// Simulates the Fig. 5 experiment: a coalition holding `num_samples`
/// randomized values `r_aᵢ·d(tᵢ)` (fresh `r_aᵢ` each, as the protocol
/// mandates) fits a linear model by least squares.
///
/// With fewer than `n + 1` samples the system is underdetermined and the
/// solver returns the minimum-norm-ish solution with singular directions
/// zeroed — exactly the "rambling" estimates Fig. 5 plots at 2 samples.
///
/// # Panics
///
/// Panics if `true_w` is empty or `num_samples < 2`.
pub fn estimation_attack(
    true_w: &[f64],
    true_b: f64,
    num_samples: usize,
    amplifier_bits: u32,
    fresh_amplifiers: bool,
    rng: &mut dyn RngCore,
) -> EstimationOutcome {
    let n = true_w.len();
    assert!(n >= 1, "need at least one dimension");
    assert!(num_samples >= 2, "need at least two samples to fit a line");

    let fixed_ra = draw_amplifier(amplifier_bits, rng);
    let mut points = Vec::with_capacity(num_samples);
    let mut values = Vec::with_capacity(num_samples);
    for _ in 0..num_samples {
        let t: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let d: f64 = ppcs_svm::dot(true_w, &t) + true_b;
        let ra = if fresh_amplifiers {
            draw_amplifier(amplifier_bits, rng)
        } else {
            fixed_ra
        };
        points.push(t);
        values.push(ra * d);
    }

    // Least squares for (w, b): minimize Σ (w·tᵢ + b − vᵢ)².
    let (est_w, est_b) = least_squares_fit(&points, &values);
    let angle = hyperplane_angle_deg(true_w, &est_w);
    let norm: f64 = est_w.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-12);
    EstimationOutcome {
        num_samples,
        estimated_direction: est_w.iter().map(|v| v / norm).collect(),
        estimated_offset: est_b / norm,
        angle_error_deg: angle,
    }
}

/// Outcome of the Fig. 6 retrieval experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct RetrievalOutcome {
    /// Angle between the reconstructed and true boundary, in degrees.
    pub angle_error_deg: f64,
    /// Offset error of the reconstructed boundary (after direction
    /// normalization).
    pub offset_error: f64,
    /// `true` if the reconstruction recovered the boundary (small angle
    /// and offset error).
    pub recovered: bool,
}

/// Simulates the Fig. 6 retrieval attack: with **un-randomized** decision
/// values (`amplified = false`), `n + 1` exact values determine the
/// hyperplane — reconstruction succeeds. With per-query amplification
/// (`amplified = true`), it fails.
///
/// # Panics
///
/// Panics if `true_w` is empty or `num_points < true_w.len() + 1`.
pub fn retrieval_attack(
    true_w: &[f64],
    true_b: f64,
    num_points: usize,
    amplified: bool,
    amplifier_bits: u32,
    rng: &mut dyn RngCore,
) -> RetrievalOutcome {
    let outcome = estimation_attack(true_w, true_b, num_points, amplifier_bits, amplified, rng);
    // Normalize the true boundary for offset comparison.
    let wn: f64 = ppcs_svm::dot(true_w, true_w).sqrt();
    let true_offset = true_b / wn;
    let offset_error = (outcome.estimated_offset.abs() - true_offset.abs()).abs();
    let recovered = outcome.angle_error_deg < 1.0 && offset_error < 0.05;
    RetrievalOutcome {
        angle_error_deg: outcome.angle_error_deg,
        offset_error,
        recovered,
    }
}

/// The angle between two hyperplanes (via their normals), in degrees,
/// folded into `[0°, 90°]`.
pub fn hyperplane_angle_deg(a: &[f64], b: &[f64]) -> f64 {
    let num = ppcs_svm::dot(a, b).abs();
    let den = (ppcs_svm::dot(a, a) * ppcs_svm::dot(b, b)).sqrt();
    if den == 0.0 {
        return 90.0;
    }
    (num / den).clamp(0.0, 1.0).acos().to_degrees()
}

fn draw_amplifier(bits: u32, rng: &mut dyn RngCore) -> f64 {
    rng.gen_range(2..(1i64 << bits)) as f64
}

/// Ordinary least squares for `w·t + b ≈ v` via normal equations —
/// the estimator the colluding coalition of Fig. 5 uses.
///
/// Returns `(w, b)`.
///
/// # Panics
///
/// Panics if `points` is empty.
pub fn least_squares_fit(points: &[Vec<f64>], values: &[f64]) -> (Vec<f64>, f64) {
    assert!(!points.is_empty(), "least squares needs data");
    let n = points[0].len();
    let dim = n + 1; // homogeneous coordinate for b
    let mut ata = vec![vec![0.0f64; dim]; dim];
    let mut atv = vec![0.0f64; dim];
    for (t, &v) in points.iter().zip(values) {
        let mut row = Vec::with_capacity(dim);
        row.extend_from_slice(t);
        row.push(1.0);
        for i in 0..dim {
            for j in 0..dim {
                ata[i][j] += row[i] * row[j];
            }
            atv[i] += row[i] * v;
        }
    }
    let sol = gauss_solve(&mut ata, &mut atv);
    let (w, b) = sol.split_at(n);
    (w.to_vec(), b[0])
}

/// Gaussian elimination with partial pivoting (tiny systems only).
#[allow(clippy::needless_range_loop)] // triangular index arithmetic
fn gauss_solve(a: &mut [Vec<f64>], b: &mut [f64]) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // Pivot: the last row of largest magnitude (a NaN counts as
        // largest, so a NaN input yields NaNs, not a panic).
        let pivot = (col + 1..n).fold(col, |best, i| {
            if a[i][col].abs().total_cmp(&a[best][col].abs()).is_ge() {
                i
            } else {
                best
            }
        });
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        if diag.abs() < 1e-12 {
            continue; // singular direction; leave as zero
        }
        for row in (col + 1)..n {
            let factor = a[row][col] / diag;
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for k in (col + 1)..n {
            acc -= a[col][k] * x[k];
        }
        x[col] = if a[col][col].abs() < 1e-12 {
            0.0
        } else {
            acc / a[col][col]
        };
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TRUE_W: [f64; 2] = [0.8, -0.6];
    const TRUE_B: f64 = 0.15;

    #[test]
    fn a_nan_value_gives_a_nan_fit_not_a_panic() {
        let points = vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
        let (w, b) = least_squares_fit(&points, &[1.0, f64::NAN, 0.5]);
        assert!(w.iter().chain([&b]).any(|v| v.is_nan()), "{w:?} {b}");
    }

    #[test]
    fn unrandomized_values_leak_the_model() {
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = retrieval_attack(&TRUE_W, TRUE_B, 3, false, 16, &mut rng);
        assert!(
            outcome.recovered,
            "3 exact distance values must pin down a 2-D line: {outcome:?}"
        );
        assert!(outcome.angle_error_deg < 1e-6);
    }

    #[test]
    fn fixed_amplifier_still_leaks_the_boundary_direction() {
        // With a *reused* r_a, the scaled function (r_a·w, r_a·b) has the
        // same zero set: the attacker recovers the boundary exactly.
        // This is why the protocol draws a fresh amplifier per query.
        let mut rng = StdRng::seed_from_u64(2);
        let outcome = estimation_attack(&TRUE_W, TRUE_B, 10, 16, false, &mut rng);
        assert!(
            outcome.angle_error_deg < 1e-6,
            "fixed amplifier leaks direction: {outcome:?}"
        );
    }

    #[test]
    fn fresh_amplifiers_make_small_coalitions_ramble() {
        // Fig. 5's plotted regime: at ≤ 50 pooled samples the estimates
        // are far from the model and unstable across trials.
        let mut rng = StdRng::seed_from_u64(3);
        let errors: Vec<f64> = (0..20)
            .map(|_| estimation_attack(&TRUE_W, TRUE_B, 10, 16, true, &mut rng).angle_error_deg)
            .collect();
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        let spread = errors.iter().cloned().fold(0.0, f64::max)
            - errors.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(mean > 5.0, "estimates should ramble; mean error {mean}°");
        assert!(
            spread > 5.0,
            "estimates should be unstable; spread {spread}°"
        );
    }

    #[test]
    fn estimation_converges_only_slowly_with_collusion() {
        // Reproduction finding (see module docs): positive multiplicative
        // amplification degrades but does not destroy the direction
        // signal — error shrinks with coalition size, yet at 100 pooled
        // samples it remains well above the un-randomized case's zero.
        let mut rng = StdRng::seed_from_u64(4);
        let avg = |k: usize, rng: &mut StdRng| -> f64 {
            (0..10)
                .map(|_| estimation_attack(&TRUE_W, TRUE_B, k, 16, true, rng).angle_error_deg)
                .sum::<f64>()
                / 10.0
        };
        let few = avg(4, &mut rng);
        let many = avg(100, &mut rng);
        assert!(few > many, "more collusion should help the attacker");
        assert!(
            many > 0.5,
            "even 100 pooled samples should leave nontrivial error, got {many}°"
        );
        assert!(few > 10.0, "tiny coalitions should be far off, got {few}°");
    }

    #[test]
    fn randomized_retrieval_fails_at_minimal_points() {
        // Fig. 6's regime: n+1 = 3 exact values pin the line down, but
        // the same 3 *randomized* values almost never do.
        let mut rng = StdRng::seed_from_u64(5);
        let mut randomized = 0;
        let mut exact = 0;
        for _ in 0..20 {
            if retrieval_attack(&TRUE_W, TRUE_B, 3, true, 16, &mut rng).recovered {
                randomized += 1;
            }
            if retrieval_attack(&TRUE_W, TRUE_B, 3, false, 16, &mut rng).recovered {
                exact += 1;
            }
        }
        assert_eq!(exact, 20, "exact distances always reconstruct");
        assert!(
            randomized <= 2,
            "randomized distances should almost never allow retrieval, got {randomized}/20"
        );
    }

    #[test]
    fn least_squares_recovers_exact_linear_system() {
        let points = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
        ];
        let values: Vec<f64> = points.iter().map(|t| 2.0 * t[0] - t[1] + 0.5).collect();
        let (w, b) = least_squares_fit(&points, &values);
        assert!((w[0] - 2.0).abs() < 1e-9);
        assert!((w[1] + 1.0).abs() < 1e-9);
        assert!((b - 0.5).abs() < 1e-9);
    }

    #[test]
    fn angle_is_fold_symmetric() {
        assert!((hyperplane_angle_deg(&[1.0, 0.0], &[-1.0, 0.0]) - 0.0).abs() < 1e-9);
        assert!((hyperplane_angle_deg(&[1.0, 0.0], &[0.0, 1.0]) - 90.0).abs() < 1e-9);
        assert!((hyperplane_angle_deg(&[1.0, 0.0], &[1.0, 1.0]) - 45.0).abs() < 1e-9);
    }
}
