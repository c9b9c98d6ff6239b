//! Sequential Minimal Optimization (Platt / LIBSVM-style) for the C-SVC
//! dual problem.
//!
//! Solves `min ½ αᵀQα − eᵀα` subject to `0 ≤ α_i ≤ C`, `yᵀα = 0`, with
//! `Q_ij = y_i y_j K(x_i, x_j)`, using maximal-violating-pair working-set
//! selection and an LRU kernel-row cache.

use std::collections::HashMap;

use crate::data::Dataset;
use crate::kernel::Kernel;

/// Tunable parameters of the SMO solver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SmoParams {
    /// The soft-margin penalty `C`.
    pub c: f64,
    /// KKT violation tolerance (LIBSVM default 1e-3).
    pub tolerance: f64,
    /// Hard cap on optimization iterations.
    pub max_iterations: usize,
    /// Maximum number of cached kernel rows.
    pub cache_rows: usize,
}

impl Default for SmoParams {
    fn default() -> Self {
        Self {
            c: 1.0,
            tolerance: 1e-3,
            max_iterations: 10_000_000,
            cache_rows: 4096,
        }
    }
}

/// Raw output of the SMO solver.
#[derive(Clone, Debug)]
pub struct SmoSolution {
    /// The dual variables `α` (one per training sample).
    pub alphas: Vec<f64>,
    /// The bias term `b` of the decision function `Σ αᵢyᵢK(xᵢ,·) + b`.
    pub bias: f64,
    /// Iterations actually performed.
    pub iterations: usize,
    /// `true` if the tolerance was met before the iteration cap.
    pub converged: bool,
}

/// LRU cache of kernel matrix rows.
struct KernelCache<'a> {
    data: &'a Dataset,
    kernel: Kernel,
    rows: HashMap<usize, (u64, Vec<f64>)>,
    capacity: usize,
    clock: u64,
    /// Diagonal is always fully materialized (cheap, used every step).
    diag: Vec<f64>,
}

impl<'a> KernelCache<'a> {
    fn new(data: &'a Dataset, kernel: Kernel, capacity: usize) -> Self {
        let diag = (0..data.len())
            .map(|i| kernel.eval(data.features(i), data.features(i)))
            .collect();
        Self {
            data,
            kernel,
            rows: HashMap::new(),
            capacity: capacity.max(2),
            clock: 0,
            diag,
        }
    }

    fn diag(&self, i: usize) -> f64 {
        self.diag[i]
    }

    fn row(&mut self, i: usize) -> &[f64] {
        self.touch(i);
        &self.rows[&i].1
    }

    /// Rows `i` and `j`, stamped and filled in that order, as [`row`](Self::row)
    /// twice would — without copying the first out before the second
    /// call. The second fill cannot evict row `i`: it holds the newest
    /// stamp, and the capacity is at least two.
    fn rows(&mut self, i: usize, j: usize) -> (&[f64], &[f64]) {
        self.touch(i);
        self.touch(j);
        (&self.rows[&i].1, &self.rows[&j].1)
    }

    /// Stamps row `i` as the most recently used, computing it (and
    /// evicting the least recently used row if full) if it is missing.
    fn touch(&mut self, i: usize) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(entry) = self.rows.get_mut(&i) {
            entry.0 = clock;
            return;
        }
        if self.rows.len() >= self.capacity {
            // Evict the least recently used row.
            if let Some((&lru, _)) = self.rows.iter().min_by_key(|(_, (stamp, _))| *stamp) {
                self.rows.remove(&lru);
            }
        }
        let xi = self.data.features(i);
        let row: Vec<f64> = (0..self.data.len())
            .map(|j| self.kernel.eval(xi, self.data.features(j)))
            .collect();
        self.rows.insert(i, (clock, row));
    }
}

/// Runs SMO on `data` with the given kernel.
///
/// # Panics
///
/// Panics if the dataset is empty or contains a single class (no binary
/// separation problem to solve).
pub fn solve(data: &Dataset, kernel: Kernel, params: &SmoParams) -> SmoSolution {
    let n = data.len();
    assert!(n > 0, "cannot train on an empty dataset");
    let (pos, neg) = data.class_counts();
    assert!(
        pos > 0 && neg > 0,
        "training data must contain both classes (got {pos} positive, {neg} negative)"
    );

    let y: Vec<f64> = (0..n).map(|i| data.label(i).to_f64()).collect();
    let mut alphas = vec![0.0f64; n];
    // G_i = Σ_j Q_ij α_j − 1; starts at −1 with α = 0.
    let mut grad = vec![-1.0f64; n];
    let mut cache = KernelCache::new(data, kernel, params.cache_rows);

    let c = params.c;
    let tau = 1e-12;
    let mut iterations = 0;
    let mut converged = false;

    // I_up and I_low membership, kept per sample and updated for the two
    // samples an iteration moves.
    let in_up = |t: usize, a: f64| (y[t] > 0.0 && a < c) || (y[t] < 0.0 && a > 0.0);
    let in_low = |t: usize, a: f64| (y[t] > 0.0 && a > 0.0) || (y[t] < 0.0 && a < c);
    let mut up: Vec<bool> = (0..n).map(|t| in_up(t, alphas[t])).collect();
    let mut low: Vec<bool> = (0..n).map(|t| in_low(t, alphas[t])).collect();

    while iterations < params.max_iterations {
        // Maximal violating pair selection: the first strict maximum of
        // −y·G over I_up and the first strict minimum over I_low, as
        // selects rather than branches.
        let mut i = usize::MAX;
        let mut g_max = f64::NEG_INFINITY;
        let mut j = usize::MAX;
        let mut g_min = f64::INFINITY;
        for (t, (((&yt, &gt), &up_t), &low_t)) in y.iter().zip(&grad).zip(&up).zip(&low).enumerate()
        {
            let v = -yt * gt;
            let take_up = up_t & (v > g_max);
            g_max = if take_up { v } else { g_max };
            i = if take_up { t } else { i };
            let take_low = low_t & (v < g_min);
            g_min = if take_low { v } else { g_min };
            j = if take_low { t } else { j };
        }
        if i == usize::MAX || j == usize::MAX {
            break;
        }
        if g_max - g_min < params.tolerance {
            converged = true;
            break;
        }

        // Two-variable subproblem along the feasible direction.
        let kii = cache.diag(i);
        let kjj = cache.diag(j);
        let kij = cache.row(i)[j];
        let quad = (kii + kjj - 2.0 * kij).max(tau);
        let mut delta = (g_max - g_min) / quad;

        // Clip to the box.
        let bound_i = if y[i] > 0.0 { c - alphas[i] } else { alphas[i] };
        let bound_j = if y[j] > 0.0 { alphas[j] } else { c - alphas[j] };
        delta = delta.min(bound_i).min(bound_j);

        let d_alpha_i = y[i] * delta;
        let d_alpha_j = -y[j] * delta;
        alphas[i] += d_alpha_i;
        alphas[j] += d_alpha_j;
        for t in [i, j] {
            up[t] = in_up(t, alphas[t]);
            low[t] = in_low(t, alphas[t]);
        }

        // Gradient maintenance: ΔG_k = Q_ki Δα_i + Q_kj Δα_j. With
        // y = ±1, `(K_ki·y_i)·Δα_i` is `K_ki·(y_i·Δα_i)` bit for bit.
        let (yd_i, yd_j) = (y[i] * d_alpha_i, y[j] * d_alpha_j);
        let (row_i, row_j) = cache.rows(i, j);
        for (((g, &yk), &ki), &kj) in grad.iter_mut().zip(&y).zip(row_i).zip(row_j) {
            *g += yk * (ki * yd_i + kj * yd_j);
        }
        iterations += 1;
    }

    // Bias from the final violating-pair bounds (LIBSVM's rho, negated).
    let mut g_max = f64::NEG_INFINITY;
    let mut g_min = f64::INFINITY;
    let mut free_sum = 0.0;
    let mut free_count = 0usize;
    for t in 0..n {
        let v = -y[t] * grad[t];
        if up[t] {
            g_max = g_max.max(v);
        }
        if low[t] {
            g_min = g_min.min(v);
        }
        if alphas[t] > 0.0 && alphas[t] < c {
            free_sum += v;
            free_count += 1;
        }
    }
    let bias = if free_count > 0 {
        free_sum / free_count as f64
    } else {
        (g_max + g_min) / 2.0
    };

    SmoSolution {
        alphas,
        bias,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Label;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn separable(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(2);
        for _ in 0..n {
            let positive = rng.gen::<bool>();
            let (cx, cy) = if positive { (1.5, 1.5) } else { (-1.5, -1.5) };
            ds.push(
                vec![cx + rng.gen_range(-0.5..0.5), cy + rng.gen_range(-0.5..0.5)],
                if positive {
                    Label::Positive
                } else {
                    Label::Negative
                },
            );
        }
        ds
    }

    fn decision(data: &Dataset, sol: &SmoSolution, kernel: Kernel, x: &[f64]) -> f64 {
        let mut acc = sol.bias;
        for i in 0..data.len() {
            if sol.alphas[i] > 0.0 {
                acc += sol.alphas[i] * data.label(i).to_f64() * kernel.eval(data.features(i), x);
            }
        }
        acc
    }

    #[test]
    fn solves_separable_problem() {
        let ds = separable(80, 1);
        let sol = solve(&ds, Kernel::Linear, &SmoParams::default());
        assert!(sol.converged, "SMO must converge on separable data");
        for (x, label) in ds.iter() {
            let d = decision(&ds, &sol, Kernel::Linear, x);
            assert_eq!(Label::from_sign(d), label);
        }
    }

    #[test]
    fn alphas_satisfy_constraints() {
        let ds = separable(60, 2);
        let params = SmoParams {
            c: 0.7,
            ..SmoParams::default()
        };
        let sol = solve(&ds, Kernel::Linear, &params);
        let mut balance = 0.0;
        for (i, &a) in sol.alphas.iter().enumerate() {
            assert!((0.0..=params.c + 1e-9).contains(&a), "alpha out of box");
            balance += a * ds.label(i).to_f64();
        }
        assert!(balance.abs() < 1e-9, "yᵀα must be 0, got {balance}");
    }

    #[test]
    fn xor_needs_nonlinear_kernel() {
        // Classic XOR: linearly inseparable, poly kernel separates.
        let mut ds = Dataset::new(2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let a = rng.gen::<bool>();
            let b = rng.gen::<bool>();
            let x = if a { 1.0 } else { -1.0 } + rng.gen_range(-0.3..0.3);
            let y = if b { 1.0 } else { -1.0 } + rng.gen_range(-0.3..0.3);
            ds.push(
                vec![x, y],
                if a ^ b {
                    Label::Positive
                } else {
                    Label::Negative
                },
            );
        }
        let params = SmoParams {
            c: 10.0,
            ..SmoParams::default()
        };
        let kernel = Kernel::Polynomial {
            a0: 1.0,
            b0: 1.0,
            degree: 2,
        };
        let sol = solve(&ds, kernel, &params);
        let correct = ds
            .iter()
            .filter(|(x, label)| Label::from_sign(decision(&ds, &sol, kernel, x)) == *label)
            .count();
        assert!(
            correct as f64 / ds.len() as f64 > 0.95,
            "poly kernel should separate XOR, got {correct}/{}",
            ds.len()
        );

        let lin = solve(&ds, Kernel::Linear, &params);
        let lin_correct = ds
            .iter()
            .filter(|(x, label)| Label::from_sign(decision(&ds, &lin, Kernel::Linear, x)) == *label)
            .count();
        assert!(
            lin_correct < correct,
            "linear kernel should do worse on XOR ({lin_correct} vs {correct})"
        );
    }

    #[test]
    fn iteration_cap_is_respected() {
        let ds = separable(100, 4);
        let params = SmoParams {
            max_iterations: 3,
            ..SmoParams::default()
        };
        let sol = solve(&ds, Kernel::Linear, &params);
        assert_eq!(sol.iterations, 3);
        assert!(!sol.converged);
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn rejects_single_class_data() {
        let mut ds = Dataset::new(1);
        ds.push(vec![1.0], Label::Positive);
        ds.push(vec![2.0], Label::Positive);
        let _ = solve(&ds, Kernel::Linear, &SmoParams::default());
    }

    /// FNV-1a over the iteration count, every alpha's bits and the
    /// bias's bits: one number that moves if the solver's path does.
    fn digest(sol: &SmoSolution) -> u64 {
        let words = std::iter::once(sol.iterations as u64)
            .chain(sol.alphas.iter().map(|a| a.to_bits()))
            .chain(std::iter::once(sol.bias.to_bits()));
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in words.flat_map(u64::to_le_bytes) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Overlapping classes in `dim` dimensions, so that a solution has
    /// free and bounded support vectors both.
    fn overlapping(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(dim);
        for _ in 0..n {
            let x: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let score = x
                .iter()
                .enumerate()
                .map(|(i, v)| v / (i + 1) as f64)
                .sum::<f64>()
                + rng.gen_range(-0.3..0.3);
            ds.push(x, Label::from_sign(score));
        }
        ds
    }

    #[test]
    fn solver_paths_are_pinned() {
        // Pinned before the solver's inner loop was restructured; a
        // change that only removes work must leave every digest as is.
        let poly3 = Kernel::Polynomial {
            a0: 0.5,
            b0: 1.0,
            degree: 3,
        };
        let cases = [(Kernel::Linear, 4096), (poly3, 4096), (Kernel::Linear, 2)];
        let got: Vec<(u64, usize)> = cases
            .into_iter()
            .enumerate()
            .map(|(k, (kernel, cache_rows))| {
                let ds = overlapping(300, 4, 90 + k as u64);
                let params = SmoParams {
                    c: 2.0,
                    cache_rows,
                    ..SmoParams::default()
                };
                let sol = solve(&ds, kernel, &params);
                assert!(sol.converged, "{kernel:?}, cache_rows {cache_rows}");
                (digest(&sol), sol.iterations)
            })
            .collect();
        assert_eq!(
            got,
            [
                (0xd848_5fc4_afa8_7f5d, 1166),
                (0xab63_89ad_083d_c231, 799),
                (0x7e00_4508_243f_61a6, 746),
            ]
        );
    }

    #[test]
    fn tiny_cache_still_correct() {
        let ds = separable(50, 5);
        let params = SmoParams {
            cache_rows: 2,
            ..SmoParams::default()
        };
        let sol_small = solve(&ds, Kernel::Linear, &params);
        let sol_big = solve(&ds, Kernel::Linear, &SmoParams::default());
        // Same optimization path regardless of cache size.
        assert_eq!(sol_small.iterations, sol_big.iterations);
        for (a, b) in sol_small.alphas.iter().zip(&sol_big.alphas) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
